//! Congestion observation: run a strategy with the flight recorder on and
//! shape the recording into the artifacts `ceresz observe` prints — ASCII
//! heatmaps, top-K congested PEs and links, and the stall-cause breakdown —
//! plus the mesh-shaped JSON/CSV export documents.

use ceresz_core::compressor::{CereszConfig, Compressed};
use telemetry::json::JsonValue;
use wse_sim::{FlightRecording, Metric, PeId, RunReport, SimStats, StallCause, Time};

use crate::decompress_map::execute_decompress;
use crate::engine::SimOptions;
use crate::error::WseError;
use crate::strategy::{execute_strategy, Strategy, StrategyKind};

/// A strategy run observed through the flight recorder.
pub struct ObserveReport {
    /// Strategy name (`Strategy::name`).
    pub strategy: String,
    /// Mesh shape `(rows, cols)` the strategy executed on.
    pub mesh: (usize, usize),
    /// Headline statistics of the run.
    pub stats: SimStats,
    /// The merged flight recording.
    pub flight: FlightRecording,
    /// Per-PE peak memory in bytes, row-major — the observation the static
    /// SRAM watermark is checked against.
    pub mem_peak_bytes: Vec<u64>,
}

/// Execute `strategy` on `data` with flight-recorder sampling enabled and
/// return the observation report. `options.flight` is forced on (that is
/// what an observation *is*, as it is for a profile); pass
/// a config through `options` to choose the window, otherwise the default
/// window applies. The compressed output is identical to an unobserved run
/// and is discarded here — callers wanting both use [`crate::execute`] with
/// [`SimOptions::with_flight`] directly.
pub fn observe(
    strategy: &dyn Strategy,
    data: &[f32],
    cfg: &CereszConfig,
    options: &SimOptions,
) -> Result<ObserveReport, WseError> {
    let (_, _, report) = execute_strategy(strategy, data, cfg, &options.recorded())?;
    Ok(ObserveReport::new(
        strategy.name(),
        strategy.mesh_shape(),
        report,
    ))
}

/// [`observe`] for simulated decompression: run [`execute_decompress`] of
/// `compressed` on `kind`'s mesh with the flight recorder on.
pub fn observe_decompression(
    kind: StrategyKind,
    compressed: &Compressed,
    options: &SimOptions,
) -> Result<ObserveReport, WseError> {
    let run = execute_decompress(kind, compressed, &options.recorded())?;
    Ok(ObserveReport::new(
        kind.name(),
        kind.mesh_shape(),
        run.report,
    ))
}

impl ObserveReport {
    fn new(strategy: &str, (rows, cols): (usize, usize), mut report: RunReport) -> Self {
        let flight = report
            .take_flight()
            .expect("sampling was enabled for the observed run");
        Self {
            strategy: strategy.to_owned(),
            mesh: (rows, cols),
            stats: report.stats().clone(),
            flight,
            mem_peak_bytes: crate::analyze::mem_peaks(&report, rows, cols),
        }
    }

    /// Render the full text report: run summary, stall-cause breakdown,
    /// busy + stall heatmaps, and the top-`k` congested PEs and links.
    /// Heatmaps are downsampled to at most `max_rows × max_cols` cells.
    #[must_use]
    pub fn render(&self, k: usize, max_rows: usize, max_cols: usize) -> String {
        let mut out = String::new();
        let (rows, cols) = self.mesh;
        out.push_str(&format!(
            "strategy {} on {rows}x{cols} mesh: {} cycles, {} wavelets, \
             utilization {:.1}%\n",
            self.strategy,
            self.stats.finish_cycle,
            self.stats.total_wavelets,
            self.stats.utilization() * 100.0
        ));

        out.push_str("\nstall attribution (cycles summed over all PEs):\n");
        let totals = self.flight.stall_totals();
        let denom: Time = totals.values().copied().sum();
        for (name, time) in &totals {
            let share = if denom.is_zero() {
                0.0
            } else {
                time.ticks() as f64 / denom.ticks() as f64 * 100.0
            };
            out.push_str(&format!(
                "  {name:<18} {:>14}  ({share:>5.1}%)\n",
                time.to_string()
            ));
        }

        for metric in [Metric::Busy, Metric::TotalStall] {
            out.push('\n');
            out.push_str(&self.flight.ascii_heatmap(metric, max_rows, max_cols));
        }

        out.push_str(&format!("\ntop {k} PEs by total stall cycles:\n"));
        let top = self.flight.top_pes(Metric::TotalStall, k);
        if top.is_empty() {
            out.push_str("  (no stalled PEs)\n");
        }
        for (pe, time) in top {
            let p = self.flight.pe(pe);
            out.push_str(&format!(
                "  {pe}: {time} stall (send {}, recv {}, ramp {}), \
                 busy {}, inbox high-water {}\n",
                p.stall(StallCause::SendBackpressure).total(),
                p.stall(StallCause::RecvWaiting).total(),
                p.stall(StallCause::RampBlocked).total(),
                p.busy.total(),
                p.inbox_high_watermark
            ));
        }

        out.push_str(&format!("\ntop {k} links by occupancy cycles:\n"));
        let links = self.flight.top_links(k);
        if links.is_empty() {
            out.push_str("  (no fabric traffic)\n");
        }
        for ((from, to), link) in links {
            out.push_str(&format!(
                "  {from} -> {to}: {} occupied, {} wavelets in {} streams, \
                 {} backpressure\n",
                link.occupancy.total(),
                link.wavelets,
                link.streams,
                link.backpressure
            ));
        }
        out
    }

    /// The mesh-shaped JSON artifact, with run metadata prepended to the
    /// recording's own document.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        use JsonValue as J;
        let mut fields: Vec<(String, JsonValue)> = vec![
            ("strategy".to_owned(), J::Str(self.strategy.clone())),
            (
                "finish_ticks".to_owned(),
                J::Num(self.stats.finish_cycle.ticks() as f64),
            ),
            (
                "total_wavelets".to_owned(),
                J::Num(self.stats.total_wavelets as f64),
            ),
            ("utilization".to_owned(), J::Num(self.stats.utilization())),
        ];
        if let JsonValue::Obj(rec_fields) = self.flight.to_json() {
            fields.extend(rec_fields);
        }
        JsonValue::Obj(fields)
    }

    /// The per-PE CSV artifact ([`FlightRecording::to_csv`]).
    #[must_use]
    pub fn to_csv(&self) -> String {
        self.flight.to_csv()
    }

    /// The most-stalled PE, if any PE stalled at all (convenience for
    /// programmatic consumers and tests).
    #[must_use]
    pub fn hottest_pe(&self) -> Option<(PeId, Time)> {
        self.flight
            .top_pes(Metric::TotalStall, 1)
            .into_iter()
            .next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyKind;
    use ceresz_core::{CereszConfig, ErrorBound};

    fn wavy(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.017).sin() * 6.0 + (i as f32 * 0.004).cos())
            .collect()
    }

    #[test]
    fn observe_reports_all_three_strategies() {
        let data = wavy(32 * 24);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        for kind in [
            StrategyKind::RowParallel { rows: 3 },
            StrategyKind::Pipeline {
                rows: 2,
                pipeline_length: 4,
            },
            StrategyKind::MultiPipeline {
                rows: 2,
                pipeline_length: 2,
                pipelines_per_row: 3,
            },
        ] {
            let report = observe(&kind, &data, &cfg, &SimOptions::default()).unwrap();
            assert_eq!(report.mesh, kind.mesh_shape());
            assert!(!report.stats.finish_cycle.is_zero());
            let (rows, cols) = report.mesh;
            assert_eq!(report.mem_peak_bytes.len(), rows * cols);
            assert!(report.mem_peak_bytes.iter().any(|&p| p > 0));
            // Integer ticks: flight busy totals equal the stats exactly.
            let busy = report.flight.stall_totals()["compute"];
            assert_eq!(
                busy, report.stats.total_busy_cycles,
                "{kind:?}: flight busy vs stats"
            );
            let text = report.render(5, 32, 80);
            assert!(text.contains("stall attribution"), "{text}");
            assert!(text.contains("busy heatmap"), "{text}");
            assert!(text.contains(&format!("strategy {}", kind.name())));
        }
    }

    #[test]
    fn pipeline_attributes_recv_waiting_downstream() {
        // In a stage pipeline, downstream PEs wait on upstream output: the
        // recording must attribute non-zero recv-waiting somewhere.
        let data = wavy(32 * 16);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let kind = StrategyKind::Pipeline {
            rows: 1,
            pipeline_length: 4,
        };
        let report = observe(&kind, &data, &cfg, &SimOptions::default()).unwrap();
        assert!(!report.flight.stall_totals()["recv_waiting"].is_zero());
        assert!(report.hottest_pe().is_some());
        // The pipeline moves data over east links; they must show traffic.
        assert!(!report.flight.links().is_empty());
    }

    #[test]
    fn json_and_csv_artifacts_are_well_formed() {
        let data = wavy(32 * 8);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-2));
        let kind = StrategyKind::RowParallel { rows: 2 };
        let report = observe(&kind, &data, &cfg, &SimOptions::default()).unwrap();

        let doc = report.to_json();
        let parsed = telemetry::json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(
            parsed.get("strategy").unwrap().as_str(),
            Some("row-parallel")
        );
        assert_eq!(parsed.get("rows").unwrap().as_f64(), Some(2.0));
        assert!(parsed.get("pe_totals").is_some());

        let csv = report.to_csv();
        let (rows, cols) = report.mesh;
        assert_eq!(csv.lines().count(), rows * cols + 1);
        assert!(csv.starts_with("row,col,busy_ticks"));
    }

    #[test]
    fn observation_never_changes_the_functional_run() {
        let data = wavy(32 * 12);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let kind = StrategyKind::MultiPipeline {
            rows: 2,
            pipeline_length: 2,
            pipelines_per_row: 2,
        };
        let plain = crate::execute(kind, &data, &cfg, &SimOptions::default()).unwrap();
        let observed = crate::execute(
            kind,
            &data,
            &cfg,
            &SimOptions::default().with_flight_window(256),
        )
        .unwrap();
        assert_eq!(plain.compressed.data, observed.compressed.data);
        assert_eq!(plain.report, observed.report); // flight excluded from eq
        assert!(plain.report.flight().is_none());
        assert!(observed.report.flight().is_some());
    }
}
