//! Run-level profiling: execute a strategy with the flight recorder on and
//! shape the result into the paper's reporting artifacts.
//!
//! [`profile_compression`] runs [`crate::execute`] with the flight recorder
//! on, then assembles:
//!
//! * a [`telemetry::profile::ProfileReport`] — per-stage busy ticks
//!   (summing exactly to `total_busy_ticks`), the Tables 1–3 stage groups,
//!   and the analytic Eq. 2/Eq. 3 cost terms when the strategy has a
//!   pipeline plan;
//! * a Chrome/Perfetto trace document (one track per PE, one slice per
//!   task, named by the task's dominant kernel stage, plus the recording's
//!   stall counter tracks);
//! * a [`telemetry::TelemetrySnapshot`] of the run's `sim.*` counters and
//!   histograms, fed from the report after the run, and the wall span of
//!   the run itself.

use ceresz_core::compressor::CereszConfig;
use ceresz_core::plan::{CompressionPlan, PipelineModel};
use telemetry::profile::{ProfileReport, StageCycles};
use telemetry::{Recorder, TelemetrySnapshot};
use wse_sim::{FlightRecording, PeId, RunReport, SimStats};

use crate::engine::SimOptions;
use crate::error::WseError;
use crate::strategy::{execute, StrategyKind, StrategyRun};

/// Everything a profiled run produces.
pub struct CompressionProfile {
    /// The executed run: compressed output, headline statistics, and the
    /// full simulator report with its flight recording.
    pub run: StrategyRun,
    /// Per-stage cycle attribution and model terms (`profile.json`).
    pub report: ProfileReport,
    /// Chrome-trace document of the recording (Perfetto-loadable).
    pub trace: telemetry::chrome::ChromeTrace,
    /// Recorder contents (`sim.*` counters and histograms, wall span).
    pub snapshot: TelemetrySnapshot,
}

/// Run CereSZ compression with the given strategy under full profiling and
/// return the attribution report, Perfetto trace, and telemetry snapshot.
pub fn profile_compression(
    data: &[f32],
    cfg: &CereszConfig,
    strategy: StrategyKind,
) -> Result<CompressionProfile, WseError> {
    profile_compression_with(data, cfg, strategy, &SimOptions::default())
}

/// [`profile_compression`] with explicit [`SimOptions`]. The flight
/// recorder is forced on (it is what a profile *is*) with the default
/// window unless `options` chose one; the caller's `threads` and `verify`
/// settings are honored, so a sharded profiled run is
/// `SimOptions::default().with_threads(n)`.
pub fn profile_compression_with(
    data: &[f32],
    cfg: &CereszConfig,
    strategy: StrategyKind,
    options: &SimOptions,
) -> Result<CompressionProfile, WseError> {
    let recorder = Recorder::enabled();
    let run = {
        let _span = recorder.wall_span("execute_strategy");
        execute(strategy, data, cfg, &options.recorded())?
    };
    record_sim_metrics(&recorder, &run.report, strategy.mesh_shape());
    let flight = run
        .report
        .flight()
        .expect("profiled runs are flight-recorded");
    let report = build_report(
        strategy,
        cfg.block_size,
        run.report.stats(),
        flight,
        run.plan.as_ref(),
    );
    let trace = flight.chrome_trace(&format!("ceresz {}", strategy.name()));
    Ok(CompressionProfile {
        run,
        report,
        trace,
        snapshot: recorder.snapshot(),
    })
}

/// Feed the run's `sim.*` counters, and histograms over the active PEs in
/// row-major order, into `recorder`.
fn record_sim_metrics(recorder: &Recorder, report: &RunReport, (rows, cols): (usize, usize)) {
    let stats = report.stats();
    recorder.count("sim.tasks", stats.total_tasks);
    recorder.count("sim.wavelets_sent", stats.total_wavelets);
    recorder.count("sim.active_pes", stats.active_pes as u64);
    recorder.observe("sim.finish_cycle", stats.finish_cycle.cycles_f64());
    for pe in (0..rows).flat_map(|r| (0..cols).map(move |c| PeId::new(r, c))) {
        let pe = report.pe_stats(pe);
        if pe.tasks_run > 0 {
            recorder.observe("sim.pe_busy_cycles", pe.busy_cycles.cycles_f64());
            recorder.observe("sim.pe_mem_peak_bytes", pe.mem_peak_bytes as f64);
        }
    }
}

/// Shape a run's statistics and flight recording into a [`ProfileReport`]:
/// stage rows sorted largest-first (so the table reads like the paper's
/// tables), plus the analytic Eq. 2/Eq. 3 cost terms when a pipeline plan
/// is available.
fn build_report(
    strategy: StrategyKind,
    block_size: usize,
    stats: &SimStats,
    flight: &FlightRecording,
    plan: Option<&CompressionPlan>,
) -> ProfileReport {
    let (mesh_rows, mesh_cols) = strategy.mesh_shape();

    let mut stages: Vec<StageCycles> = flight
        .stage_totals()
        .into_iter()
        .map(|(name, time)| StageCycles {
            name,
            ticks: time.ticks(),
        })
        .collect();
    // Largest first; the source BTreeMap keeps ties in name order, and the
    // sort is stable, so the table is fully deterministic.
    stages.sort_by_key(|s| std::cmp::Reverse(s.ticks));

    // Analytic cost terms for pipeline strategies: the plan's per-block
    // compute cost `C` feeds the paper's Eq. 2 (relay overhead per round)
    // and Eq. 3 (per-PE compute per round).
    let mut model_terms = Vec::new();
    if let Some(plan) = plan {
        let model = PipelineModel::cs2_defaults(block_size);
        let len = plan.pipeline_length;
        model_terms.push(("plan_block_cycles_C".to_owned(), plan.total_cycles));
        model_terms.push(("plan_fixed_length".to_owned(), f64::from(plan.fixed_length)));
        model_terms.push((
            "relay_cycles_per_round_eq2".to_owned(),
            model.relay_cycles_per_round(mesh_cols),
        ));
        model_terms.push((
            "compute_cycles_per_round_eq3".to_owned(),
            model.compute_cycles_per_round(plan.total_cycles, len),
        ));
        model_terms.push((
            "round_cycles".to_owned(),
            model.round_cycles(mesh_cols, plan.total_cycles, len),
        ));
    }

    ProfileReport {
        strategy: strategy.name().to_owned(),
        mesh_rows,
        mesh_cols,
        finish_ticks: stats.finish_cycle.ticks(),
        total_busy_ticks: stats.total_busy_cycles.ticks(),
        total_tasks: stats.total_tasks,
        total_wavelets: stats.total_wavelets,
        active_pes: stats.active_pes,
        utilization: stats.utilization(),
        stages,
        model_terms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceresz_core::{CereszConfig, Codec, ErrorBound};

    fn wavy(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.013).sin() * 7.0 + (i as f32 * 0.005).cos() * 2.0)
            .collect()
    }

    #[test]
    fn profile_preserves_bitwise_output() {
        let data = wavy(32 * 24);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let reference = Codec::new(cfg).compress(&data).unwrap();
        let profile = profile_compression(
            &data,
            &cfg,
            StrategyKind::Pipeline {
                rows: 2,
                pipeline_length: 4,
            },
        )
        .unwrap();
        assert_eq!(profile.run.compressed.data, reference.data);
    }

    #[test]
    fn stage_ticks_sum_exactly_to_total_busy_ticks() {
        let data = wavy(32 * 24);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        for strategy in [
            StrategyKind::RowParallel { rows: 2 },
            StrategyKind::Pipeline {
                rows: 1,
                pipeline_length: 3,
            },
            StrategyKind::MultiPipeline {
                rows: 1,
                pipeline_length: 2,
                pipelines_per_row: 2,
            },
        ] {
            let profile = profile_compression(&data, &cfg, strategy).unwrap();
            // Integer ticks: attribution is exact, not approximately equal.
            let attributed = profile.report.attributed_ticks();
            let total = profile.report.total_busy_ticks;
            assert_eq!(attributed, total, "{strategy:?}");
        }
    }

    #[test]
    fn stage_ordering_matches_paper_tables() {
        // Tables 1–3: fixed-length encoding (the per-bit shuffles) dominates
        // pre-quantization, which in turn exceeds the one-pass Lorenzo.
        let data = wavy(32 * 64);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let profile =
            profile_compression(&data, &cfg, StrategyKind::RowParallel { rows: 2 }).unwrap();
        let groups: std::collections::BTreeMap<_, _> =
            profile.report.grouped().into_iter().collect();
        let encode = groups["encode"];
        let pre_quant = groups["pre-quant"];
        let lorenzo = groups["lorenzo"];
        assert!(
            encode > pre_quant && pre_quant > lorenzo,
            "encode {encode} / pre-quant {pre_quant} / lorenzo {lorenzo}"
        );
    }

    #[test]
    fn pipeline_profile_carries_model_terms() {
        let data = wavy(32 * 16);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let profile = profile_compression(
            &data,
            &cfg,
            StrategyKind::MultiPipeline {
                rows: 1,
                pipeline_length: 1,
                pipelines_per_row: 4,
            },
        )
        .unwrap();
        let terms: std::collections::BTreeMap<_, _> =
            profile.report.model_terms.iter().cloned().collect();
        assert!(terms.contains_key("relay_cycles_per_round_eq2"));
        assert!(terms.contains_key("compute_cycles_per_round_eq3"));
        assert!(terms["plan_block_cycles_C"] > 0.0);
    }

    #[test]
    fn trace_document_is_valid_json_with_slices() {
        let data = wavy(32 * 8);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-2));
        let profile = profile_compression(
            &data,
            &cfg,
            StrategyKind::Pipeline {
                rows: 1,
                pipeline_length: 2,
            },
        )
        .unwrap();
        assert!(profile.trace.slice_count() > 0);
        let text = profile.trace.to_json().to_pretty();
        let parsed = telemetry::json::parse(&text).unwrap();
        assert!(parsed.get("traceEvents").unwrap().as_arr().unwrap().len() > 2);
    }

    #[test]
    fn snapshot_records_run_counters_and_wall_span() {
        let data = wavy(32 * 8);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-2));
        let profile =
            profile_compression(&data, &cfg, StrategyKind::RowParallel { rows: 1 }).unwrap();
        assert!(profile.snapshot.counters["sim.tasks"] > 0);
        assert!(profile
            .snapshot
            .spans
            .iter()
            .any(|s| s.name == "execute_strategy"));
    }

    #[test]
    fn flight_sampling_adds_counter_tracks_to_the_trace() {
        // A profile is flight-recorded, so its trace always carries the
        // counter tracks; an explicit window is honored.
        let data = wavy(32 * 8);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-2));
        let strategy = StrategyKind::Pipeline {
            rows: 1,
            pipeline_length: 2,
        };
        let options = SimOptions::default().with_flight_window(64);
        let profile = profile_compression_with(&data, &cfg, strategy, &options).unwrap();
        assert!(profile.trace.counter_count() > 0);
        let doc = profile.trace.to_json();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events.iter().any(|e| {
            e.get("ph").unwrap().as_str() == Some("C")
                && e.get("name")
                    .unwrap()
                    .as_str()
                    .is_some_and(|n| n.starts_with("flight:"))
        }));
        assert_eq!(
            profile.run.report.flight().unwrap().window(),
            wse_sim::Time::from_cycles(64)
        );
        // Without an explicit window the default one applies.
        let plain = profile_compression(&data, &cfg, strategy).unwrap();
        assert!(plain.trace.counter_count() > 0);
        assert_eq!(
            plain.run.report.flight().unwrap().window(),
            wse_sim::FlightConfig::DEFAULT_WINDOW
        );
    }
}
