//! Static-analyzer soundness across the strategy × shape sweep.
//!
//! For every shipping mapping the static performance analyzer
//! (`wse_verify::analysis`) must produce bounds the dynamic run can never
//! escape: per-link worst-case load ≥ flight-recorded occupancy, the
//! critical-path lower bound ≤ the simulated makespan, the SRAM watermark ≥
//! the observed peak (and nonzero on every PE that computes), and the
//! channel-dependency check must *prove* the mapping deadlock-free.
//! `ceresz lint --analyze --all-strategies` sweeps all 32 EXPERIMENTS.md
//! shapes in CI; this test pins a representative subset (every strategy
//! family, 1-row and multi-row shapes) in the regular suite, and the
//! decompression mapping's row-parallel, pipelined and relayed shapes.

use ceresz::core::{CereszConfig, Codec, ErrorBound};
use ceresz::sim::{FlightRecording, Metric, PeId, SimStats};
use ceresz::wse::verify::StaticProfile;
use ceresz::wse::{
    analyze_mapping, check_soundness, decompression_manifest, execute_decompress, mapping_manifest,
    mem_peaks, observe, SimOptions, StrategyKind,
};

fn wavy(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (i as f32 * 0.013).sin() * 10.0 + (i as f32 * 0.0041).cos() * 3.0)
        .collect()
}

fn shapes() -> Vec<StrategyKind> {
    vec![
        StrategyKind::RowParallel { rows: 1 },
        StrategyKind::RowParallel { rows: 4 },
        StrategyKind::RowParallel { rows: 16 },
        StrategyKind::Pipeline {
            rows: 1,
            pipeline_length: 4,
        },
        StrategyKind::Pipeline {
            rows: 2,
            pipeline_length: 8,
        },
        StrategyKind::MultiPipeline {
            rows: 1,
            pipeline_length: 1,
            pipelines_per_row: 4,
        },
        StrategyKind::MultiPipeline {
            rows: 2,
            pipeline_length: 2,
            pipelines_per_row: 3,
        },
        StrategyKind::MultiPipeline {
            rows: 2,
            pipeline_length: 4,
            pipelines_per_row: 2,
        },
    ]
}

/// Every bound of `profile` dominates the observed run: the checker's own
/// verdict, and the acceptance relations asserted directly.
fn assert_sound(
    name: &str,
    profile: &StaticProfile,
    stats: &SimStats,
    flight: &FlightRecording,
    peaks: &[u64],
    (rows, cols): (usize, usize),
) {
    assert!(
        profile.is_deadlock_free(),
        "{name}: deadlock-freedom not proven: {:?}",
        profile.deadlock
    );
    let sound = check_soundness(profile, stats, flight, peaks);
    assert!(sound.is_sound(), "{name}: {:#?}", sound.violations);
    assert!(
        profile.critical_path <= stats.finish_cycle,
        "{name}: critical path {} exceeds observed makespan {}",
        profile.critical_path,
        stats.finish_cycle
    );
    for (&(from, to), observed) in flight.links() {
        let load = profile
            .links
            .get(&(from, to))
            .unwrap_or_else(|| panic!("{name}: {from}->{to} untracked"));
        assert!(
            load.wavelets >= observed.wavelets,
            "{name}: link {from}->{to} static {} < observed {}",
            load.wavelets,
            observed.wavelets
        );
        assert!(
            load.occupancy_bound() >= observed.occupancy.total(),
            "{name}: link {from}->{to} occupancy bound too low"
        );
    }
    for row in 0..rows {
        for col in 0..cols {
            let pe = PeId::new(row, col);
            let peak = peaks[row * cols + col];
            assert!(
                profile.sram_bound(pe) >= peak,
                "{name}: {pe} static watermark {} < observed peak {peak}",
                profile.sram_bound(pe)
            );
            // A PE that computes holds its stage group's working set:
            // declared statically and reserved at run time.
            if !flight.pe(pe).metric_total(Metric::Busy).is_zero() {
                assert!(
                    profile.sram_bound(pe) > 0 && peak > 0,
                    "{name}: busy {pe} declares {} B and reserves {peak} B of SRAM",
                    profile.sram_bound(pe)
                );
            }
        }
    }
}

#[test]
fn static_bounds_dominate_the_observed_run_for_every_shape() {
    let data = wavy(32 * 128);
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
    let options = SimOptions::default().with_flight_window(1024);
    for strategy in shapes() {
        let manifest = mapping_manifest(&data, &cfg, strategy).unwrap();
        let profile = analyze_mapping(&manifest);
        let rep = observe(&strategy, &data, &cfg, &options).unwrap();
        assert_sound(
            &manifest.name,
            &profile,
            &rep.stats,
            &rep.flight,
            &rep.mem_peak_bytes,
            rep.mesh,
        );
    }
}

#[test]
fn static_bounds_dominate_the_observed_decompression_run() {
    let data = wavy(32 * 128);
    let c = Codec::new(CereszConfig::new(ErrorBound::Rel(1e-3)))
        .compress(&data)
        .unwrap();
    let options = SimOptions::default().with_flight_window(1024);
    let pipe = |rows, pipeline_length| StrategyKind::Pipeline {
        rows,
        pipeline_length,
    };
    let multi = |pipeline_length, pipelines_per_row| StrategyKind::MultiPipeline {
        rows: 2,
        pipeline_length,
        pipelines_per_row,
    };
    for kind in [
        StrategyKind::RowParallel { rows: 1 },
        StrategyKind::RowParallel { rows: 4 },
        pipe(1, 4),
        pipe(2, 3),
        multi(1, 4),
        multi(3, 2),
    ] {
        let manifest = decompression_manifest(kind, &c).unwrap();
        let profile = analyze_mapping(&manifest);
        let mut report = execute_decompress(kind, &c, &options).unwrap().report;
        let flight = report.take_flight().expect("flight-recorded run");
        let (rows, cols) = kind.mesh_shape();
        let peaks = mem_peaks(&report, rows, cols);
        assert_sound(
            &manifest.name,
            &profile,
            report.stats(),
            &flight,
            &peaks,
            (rows, cols),
        );
    }
}
