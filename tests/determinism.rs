//! Determinism of the sharded parallel simulator core: the same mapping
//! executed at any thread count must produce a bit-identical [`RunReport`]
//! — same outputs, same statistics — and a bit-identical flight recording:
//! same series, same per-stage cycle attribution, same labelled task
//! timeline. This is the contract that makes `--threads` safe to enable
//! anywhere: parallelism is an implementation detail, never an observable.

use ceresz::core::{CereszConfig, Codec, ErrorBound};
use ceresz::wse::{
    execute, execute_decompress, execute_strategy, EngineMode, SimOptions, Strategy, StrategyKind,
    StrategyRun, Time,
};

fn wavy(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (i as f32 * 0.011).sin() * 9.0 + (i as f32 * 0.0047).cos() * 3.0)
        .collect()
}

/// RTM-style zero-heavy input: long zero runs with a sparse active front
/// (1-in-16 blocks carry signal). The workload where the discrete-event
/// engine skips the most cycles, so also where an equivalence bug would
/// show first.
fn sparse(n_blocks: usize) -> Vec<f32> {
    let mut data = vec![0f32; n_blocks * 32];
    for b in (0..n_blocks).step_by(16) {
        for i in 0..32 {
            data[b * 32 + i] = ((b * 32 + i) as f32 * 0.013).sin() * 20.0;
        }
    }
    data
}

/// The recording attributes every busy tick to a kernel stage: stage
/// totals are non-empty and sum exactly to the run's busy cycles, and the
/// timeline holds one labelled event per task.
fn assert_attribution_complete(run: &StrategyRun, what: &str) {
    let flight = run.report.flight().expect("run was flight-recorded");
    let totals = flight.stage_totals();
    assert!(totals.len() > 1, "{what}: no stage attribution");
    let attributed: Time = totals.values().copied().sum();
    assert_eq!(attributed, run.stats.total_busy_cycles, "{what}");
    let timeline = flight.timeline().events();
    assert_eq!(timeline.len() as u64, run.stats.total_tasks, "{what}");
    assert!(timeline.iter().any(|e| e.label.is_some()), "{what}");
}

/// The headline acceptance check: a 64×64 mesh (multi-pipeline, the
/// strategy with the most cross-row structure) stepped serially and with
/// 2 and 8 worker threads yields the *same* report object — equal outputs,
/// equal stats — and the same flight recording: equal series, equal stage
/// totals, equal labelled timeline.
#[test]
fn run_report_is_bit_identical_across_thread_counts() {
    // 64 rows × (8 pipelines of length 8) = a full 64×64 mesh; one whole
    // round per pipeline keeps the event count test-sized.
    let kind = StrategyKind::MultiPipeline {
        rows: 64,
        pipeline_length: 8,
        pipelines_per_row: 8,
    };
    assert_eq!(kind.mesh_shape(), (64, 64));
    let data = wavy(32 * 64 * 8);
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));

    let recorded = SimOptions::default().with_flight_window(1024);
    let serial = execute(kind, &data, &cfg, &recorded).unwrap();
    assert_attribution_complete(&serial, "serial");
    let reference = serial.report.flight().unwrap();
    for threads in [2usize, 8] {
        // Exact thread counts: the sweep must exercise real sharding even
        // on a 1-core CI host (`with_threads` would clamp to 1 there).
        let options = recorded.clone().with_threads_exact(threads);
        let sharded = execute(kind, &data, &cfg, &options).unwrap();
        assert_eq!(
            sharded.report, serial.report,
            "RunReport diverged at {threads} threads"
        );
        assert_eq!(sharded.compressed.data, serial.compressed.data);
        let flight = sharded.report.flight().unwrap();
        assert_eq!(
            flight.stage_totals(),
            reference.stage_totals(),
            "stage attribution diverged at {threads} threads"
        );
        assert_eq!(
            flight.timeline(),
            reference.timeline(),
            "timeline diverged at {threads} threads"
        );
        assert_eq!(
            flight, reference,
            "flight recording diverged at {threads} threads"
        );
    }
}

/// Thread-count invariance holds for every strategy, including the
/// row-independent ones (where shards never exchange boundary traffic) and
/// at thread counts exceeding the row count.
#[test]
fn every_strategy_is_thread_count_invariant() {
    let data = wavy(32 * 40);
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
    for kind in [
        StrategyKind::RowParallel { rows: 4 },
        StrategyKind::Pipeline {
            rows: 3,
            pipeline_length: 4,
        },
        StrategyKind::MultiPipeline {
            rows: 2,
            pipeline_length: 2,
            pipelines_per_row: 3,
        },
    ] {
        let serial = execute(kind, &data, &cfg, &SimOptions::default()).unwrap();
        for threads in [2usize, 7, 16] {
            let run = execute(
                kind,
                &data,
                &cfg,
                &SimOptions::default().with_threads_exact(threads),
            )
            .unwrap();
            assert_eq!(
                run.report, serial.report,
                "{kind:?} diverged at {threads} threads"
            );
            assert_eq!(run.compressed.data, serial.compressed.data, "{kind:?}");
        }
    }
}

/// Observability must be unobservable: enabling the flight recorder
/// changes neither the archive bytes nor the `RunReport` (whose equality
/// deliberately excludes the recording itself), at every tested thread
/// count, for every strategy.
#[test]
fn run_report_is_bit_identical_with_sampling_on_or_off() {
    let data = wavy(32 * 48);
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
    for kind in [
        StrategyKind::RowParallel { rows: 4 },
        StrategyKind::Pipeline {
            rows: 2,
            pipeline_length: 4,
        },
        StrategyKind::MultiPipeline {
            rows: 4,
            pipeline_length: 2,
            pipelines_per_row: 3,
        },
    ] {
        for threads in [1usize, 2, 8] {
            let base = SimOptions::default().with_threads_exact(threads);
            let plain = execute(kind, &data, &cfg, &base).unwrap();
            let sampled =
                execute(kind, &data, &cfg, &base.clone().with_flight_window(512)).unwrap();
            assert_eq!(
                sampled.report, plain.report,
                "{kind:?}: sampling changed the report at {threads} threads"
            );
            assert_eq!(
                sampled.compressed.data, plain.compressed.data,
                "{kind:?}: sampling changed the archive at {threads} threads"
            );
            assert!(plain.report.flight().is_none());
            assert!(sampled.report.flight().is_some());
            assert_eq!(
                sampled.report.stats(),
                plain.report.stats(),
                "{kind:?}: sampling changed the stats at {threads} threads"
            );
        }
    }
}

/// The recording itself is also thread-count invariant: per-PE series,
/// link occupancy, watermarks, and stall attributions merge row-major in
/// the same floating-point order regardless of sharding, so the whole
/// `FlightRecording` compares equal at 1, 2, and 8 threads.
#[test]
fn flight_recording_is_thread_count_invariant() {
    let kind = StrategyKind::MultiPipeline {
        rows: 8,
        pipeline_length: 4,
        pipelines_per_row: 2,
    };
    let data = wavy(32 * 8 * 6);
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
    let serial = execute(
        kind,
        &data,
        &cfg,
        &SimOptions::default().with_flight_window(256),
    )
    .unwrap();
    let reference = serial.report.flight().unwrap();
    assert!(!reference.stall_totals()["compute"].is_zero());
    for threads in [2usize, 8] {
        let sharded = execute(
            kind,
            &data,
            &cfg,
            &SimOptions::default()
                .with_threads_exact(threads)
                .with_flight_window(256),
        )
        .unwrap();
        assert_eq!(
            sharded.report.flight().unwrap(),
            reference,
            "flight recording diverged at {threads} threads"
        );
    }
}

/// Cross-strategy conformance through the unified trait: driving all three
/// strategies as `&dyn Strategy` produces archives byte-identical to the
/// host reference and to one another.
#[test]
fn strategies_agree_bitwise_through_the_trait() {
    let data = wavy(32 * 36 + 11);
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
    let reference = Codec::new(cfg).compress(&data).unwrap();
    let kinds = [
        StrategyKind::RowParallel { rows: 3 },
        StrategyKind::Pipeline {
            rows: 2,
            pipeline_length: 4,
        },
        StrategyKind::MultiPipeline {
            rows: 2,
            pipeline_length: 3,
            pipelines_per_row: 2,
        },
    ];
    let strategies: Vec<&dyn Strategy> = kinds.iter().map(|k| k as &dyn Strategy).collect();
    for strategy in strategies {
        let (compressed, _plan, _report) = execute_strategy(
            strategy,
            &data,
            &cfg,
            &SimOptions::default().with_threads_exact(2),
        )
        .unwrap();
        assert_eq!(
            compressed.data,
            reference.data,
            "{} diverged from the host reference",
            strategy.name()
        );
    }
}

/// The discrete-event engine is an *optimization*, never a semantic change:
/// for every strategy, at 1, 2, and 8 worker threads, it produces a
/// `RunReport` AND a `FlightRecording` (series, stage totals, labelled
/// timeline) bit-identical to the cycle-stepped reference engine.
#[test]
fn event_engine_matches_cycle_stepped_reference() {
    let data = wavy(32 * 48);
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
    for kind in [
        StrategyKind::RowParallel { rows: 4 },
        StrategyKind::Pipeline {
            rows: 2,
            pipeline_length: 4,
        },
        StrategyKind::MultiPipeline {
            rows: 4,
            pipeline_length: 2,
            pipelines_per_row: 3,
        },
    ] {
        for threads in [1usize, 2, 8] {
            let base = SimOptions::default()
                .with_threads_exact(threads)
                .with_flight_window(512);
            let event = execute(
                kind,
                &data,
                &cfg,
                &base.clone().with_engine(EngineMode::EventDriven),
            )
            .unwrap();
            let stepped = execute(
                kind,
                &data,
                &cfg,
                &base.clone().with_engine(EngineMode::CycleStepped),
            )
            .unwrap();
            assert_eq!(
                event.report, stepped.report,
                "{kind:?}: engines diverged at {threads} threads"
            );
            assert_attribution_complete(&event, &format!("{kind:?} @ {threads}"));
            assert_eq!(
                event.report.flight().unwrap(),
                stepped.report.flight().unwrap(),
                "{kind:?}: flight recordings diverged at {threads} threads"
            );
            assert_eq!(event.compressed.data, stepped.compressed.data, "{kind:?}");
        }
    }
}

/// Engine equivalence on the workload the event queue optimizes hardest:
/// RTM-style zero-heavy data, where whole cycle windows are empty and the
/// event engine skips them. Skipping must be exact — the cycle-stepped
/// reference and the event engine agree bit-for-bit, at every thread count,
/// recordings included.
#[test]
fn sparse_zero_heavy_workload_is_engine_and_thread_invariant() {
    let kind = StrategyKind::MultiPipeline {
        rows: 8,
        pipeline_length: 4,
        pipelines_per_row: 4,
    };
    let data = sparse(8 * 4 * 2); // two rounds per pipeline, 1-in-16 dense
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
    let reference = execute(
        kind,
        &data,
        &cfg,
        &SimOptions::default()
            .with_threads_exact(1)
            .with_flight_window(256)
            .with_engine(EngineMode::CycleStepped),
    )
    .unwrap();
    for engine in [EngineMode::EventDriven, EngineMode::CycleStepped] {
        for threads in [1usize, 2, 8] {
            let run = execute(
                kind,
                &data,
                &cfg,
                &SimOptions::default()
                    .with_threads_exact(threads)
                    .with_flight_window(256)
                    .with_engine(engine),
            )
            .unwrap();
            assert_eq!(
                run.report, reference.report,
                "sparse run diverged: {engine:?} at {threads} threads"
            );
            assert_eq!(
                run.report.flight().unwrap(),
                reference.report.flight().unwrap(),
                "sparse flight recording diverged: {engine:?} at {threads} threads"
            );
            assert_eq!(run.compressed.data, reference.compressed.data);
        }
    }
}

/// Simulated decompression keeps the same contract: at exactly 1, 2 and 8
/// threads and under both engines, the restored values, the `RunReport`
/// and the flight recording equal the serial event-driven run's, on a
/// stream mixing zero and dense blocks.
#[test]
fn decompression_is_engine_and_thread_invariant() {
    let mut data = sparse(48);
    data.extend(wavy(32 * 24));
    let c = Codec::new(CereszConfig::new(ErrorBound::Rel(1e-3)))
        .compress(&data)
        .unwrap();
    let recorded = SimOptions::default().with_flight_window(256);
    for kind in [
        StrategyKind::RowParallel { rows: 4 },
        StrategyKind::Pipeline {
            rows: 3,
            pipeline_length: 3,
        },
        StrategyKind::MultiPipeline {
            rows: 3,
            pipeline_length: 2,
            pipelines_per_row: 3,
        },
    ] {
        let reference = execute_decompress(kind, &c, &recorded).unwrap();
        assert!(!reference.report.flight().unwrap().stage_totals().is_empty());
        for engine in [EngineMode::EventDriven, EngineMode::CycleStepped] {
            for threads in [1usize, 2, 8] {
                let options = recorded
                    .clone()
                    .with_threads_exact(threads)
                    .with_engine(engine);
                let run = execute_decompress(kind, &c, &options).unwrap();
                let what = format!("{kind:?}: {engine:?} at {threads} threads");
                assert_eq!(run.restored, reference.restored, "{what}");
                assert_eq!(run.report, reference.report, "{what}");
                assert_eq!(
                    run.report.flight().unwrap(),
                    reference.report.flight().unwrap(),
                    "{what}: flight recording"
                );
            }
        }
    }
}
