//! Simulation options shared by every mapping strategy, plus the static
//! manifest builder used by `ceresz lint` and the conformance fuzzer.
//!
//! All execution goes through the unified [`crate::execute`] API, which
//! returns a [`crate::StrategyRun`].

use ceresz_core::compressor::CereszConfig;

use crate::error::WseError;
use wse_sim::{EngineMode, FlightConfig, MeshConfig, Time};

use crate::strategy::{Strategy, StrategyKind};

/// Observability, verification, and execution options for a simulated run,
/// shared by all mapping strategies. The default (flight recorder off,
/// static verification **on**, one thread) costs nothing at runtime: the
/// simulator records nothing and the kernels skip per-stage attribution
/// entirely, while the verifier runs once over the static manifest before
/// the first cycle.
///
/// All `with_*` builder methods are commutative — each sets exactly one
/// field, so any application order produces the same options.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Run the static mapping verifier over the constructed mapping before
    /// simulating (on by default); a rejected mapping returns
    /// [`WseError::MappingRejected`] instead of failing mid-run.
    pub verify: bool,
    /// Worker threads for the sharded simulator core (default 1 = serial;
    /// 0 = one per available core; larger requests clamp to the host's
    /// available parallelism unless `threads_exact` is set). Any value
    /// produces a bit-identical [`wse_sim::RunReport`]
    /// ([`MeshConfig::with_threads`]).
    pub threads: usize,
    /// Take `threads` literally instead of clamping to the host's available
    /// parallelism ([`MeshConfig::with_threads_exact`]).
    pub threads_exact: bool,
    /// Engine stepping mode for coupled shard groups
    /// ([`MeshConfig::with_engine`]): event-driven by default; the
    /// cycle-stepped reference exists for equivalence checks and benches.
    pub engine: EngineMode,
    /// The flight recorder ([`MeshConfig::with_flight`]), the one
    /// observation switch: off by default; when set, the run's report
    /// carries a [`wse_sim::FlightRecording`] with per-PE/per-link
    /// time-series, stall and per-stage attribution, and the task timeline.
    /// Purely observational — the report is bit-identical with the recorder
    /// on or off.
    pub flight: Option<FlightConfig>,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            verify: true,
            threads: 1,
            threads_exact: false,
            engine: EngineMode::default(),
            flight: None,
        }
    }
}

impl SimOptions {
    /// Set static mapping verification (on by default).
    #[must_use]
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Set the simulator's worker-thread count (0 = one per core; clamped
    /// to the host's available parallelism).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self.threads_exact = false;
        self
    }

    /// Set an exact worker-thread count, bypassing the host-parallelism
    /// clamp (determinism sweeps on small hosts).
    #[must_use]
    pub fn with_threads_exact(mut self, threads: usize) -> Self {
        self.threads = threads;
        self.threads_exact = true;
        self
    }

    /// Select the simulator engine mode for coupled shard groups.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// Enable the flight recorder with the given config.
    #[must_use]
    pub fn with_flight(mut self, flight: FlightConfig) -> Self {
        self.flight = Some(flight);
        self
    }

    /// Enable the flight recorder with a `window`-cycle sampling window.
    ///
    /// # Panics
    /// If `window` is zero.
    #[must_use]
    pub fn with_flight_window(self, window: u64) -> Self {
        self.with_flight(FlightConfig::new(Time::from_cycles(window)))
    }

    /// The worker-thread count a run with these options will actually use:
    /// the requested count clamped to the host's available parallelism,
    /// unless set via [`Self::with_threads_exact`]. Delegates to the
    /// simulator's own resolution so benchmark artifacts record the
    /// authoritative value.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        self.mesh_config(1, 1).effective_threads()
    }

    /// These options with the flight recorder on: the chosen window, or
    /// the default one. What profiling and observation runs use.
    pub(crate) fn recorded(&self) -> Self {
        let flight = self.flight.unwrap_or_default();
        self.clone().with_flight(flight)
    }

    /// Build a mesh configuration carrying these options.
    pub(crate) fn mesh_config(&self, rows: usize, cols: usize) -> MeshConfig {
        let mut config = MeshConfig::new(rows, cols).with_engine(self.engine);
        config = if self.threads_exact {
            config.with_threads_exact(self.threads)
        } else {
            config.with_threads(self.threads)
        };
        if let Some(flight) = self.flight {
            config = config.with_flight(flight);
        }
        config
    }
}

/// Build the static [`wse_verify::MappingManifest`] the given strategy
/// would execute on `data`, without running the simulator. This is what
/// `ceresz lint` and the conformance fuzzer's soundness oracle call: the
/// manifest can be fed to [`wse_verify::verify`] directly, or inspected.
pub fn mapping_manifest(
    data: &[f32],
    cfg: &CereszConfig,
    strategy: StrategyKind,
) -> Result<wse_verify::MappingManifest, WseError> {
    strategy.validate()?;
    let options = SimOptions::default();
    let (rows, cols) = Strategy::mesh_shape(&strategy);
    let mut mesh = crate::mapping::MappedMesh::new(
        strategy.mesh_name(),
        options.mesh_config(rows, cols),
        rows,
        cols,
    );
    strategy.map(&mut mesh, data, cfg)?;
    Ok(mesh.into_parts().1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::execute;
    use ceresz_core::{Codec, ErrorBound};

    #[test]
    fn all_strategies_agree_bitwise() {
        let data: Vec<f32> = (0..32 * 24)
            .map(|i| (i as f32 * 0.02).sin() * 8.0)
            .collect();
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let reference = Codec::new(cfg).compress(&data).unwrap();
        for strategy in [
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
            let run = execute(strategy, &data, &cfg, &SimOptions::default()).unwrap();
            assert_eq!(run.compressed.data, reference.data, "{strategy:?}");
            assert!(!run.stats.finish_cycle.is_zero());
            assert_eq!(run.kind, strategy);
        }
    }

    fn all_strategies() -> [StrategyKind; 3] {
        [
            StrategyKind::RowParallel { rows: 2 },
            StrategyKind::Pipeline {
                rows: 2,
                pipeline_length: 3,
            },
            StrategyKind::MultiPipeline {
                rows: 2,
                pipeline_length: 2,
                pipelines_per_row: 2,
            },
        ]
    }

    #[test]
    fn empty_input_through_every_strategy() {
        let cfg = CereszConfig::new(ErrorBound::Abs(1e-3));
        let reference = Codec::new(cfg).compress(&[]).unwrap();
        for strategy in all_strategies() {
            let run = execute(strategy, &[], &cfg, &SimOptions::default()).unwrap();
            assert_eq!(run.compressed.data, reference.data, "{strategy:?}");
            assert_eq!(
                ceresz_core::Codec::decompressor()
                    .decompress(&run.compressed.data)
                    .unwrap(),
                Vec::<f32>::new()
            );
        }
    }

    #[test]
    fn single_element_through_every_strategy() {
        let cfg = CereszConfig::new(ErrorBound::Abs(1e-3));
        let data = [42.17f32];
        let reference = Codec::new(cfg).compress(&data).unwrap();
        for strategy in all_strategies() {
            let run = execute(strategy, &data, &cfg, &SimOptions::default()).unwrap();
            assert_eq!(run.compressed.data, reference.data, "{strategy:?}");
            let restored = ceresz_core::Codec::decompressor()
                .decompress(&run.compressed.data)
                .unwrap();
            assert_eq!(restored.len(), 1);
            assert!((f64::from(restored[0]) - 42.17).abs() <= 1e-3 + 1e-6);
        }
    }

    #[test]
    fn invalid_strategies_are_typed_errors() {
        let data = [1.0f32; 64];
        let cfg = CereszConfig::new(ErrorBound::Abs(1e-3));
        for strategy in [
            StrategyKind::RowParallel { rows: 0 },
            StrategyKind::Pipeline {
                rows: 1,
                pipeline_length: 0,
            },
            StrategyKind::MultiPipeline {
                rows: 1,
                pipeline_length: 2,
                pipelines_per_row: 0,
            },
            StrategyKind::MultiPipeline {
                rows: 2,
                pipeline_length: usize::MAX,
                pipelines_per_row: 2,
            },
        ] {
            assert!(
                matches!(
                    execute(strategy, &data, &cfg, &SimOptions::default()),
                    Err(crate::error::WseError::InvalidStrategy { .. })
                ),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn nan_input_matches_host_error() {
        // Differential error equivalence: the WSE path returns the same
        // typed CompressError the host reference does, instead of trapping
        // in a simulated kernel.
        let data = [1.0f32, f32::NAN, 3.0];
        let cfg = CereszConfig::new(ErrorBound::Abs(1e-3));
        let host = Codec::new(cfg).compress(&data).unwrap_err();
        for strategy in all_strategies() {
            match execute(strategy, &data, &cfg, &SimOptions::default()) {
                Err(crate::error::WseError::Compress(e)) => assert_eq!(e, host, "{strategy:?}"),
                other => panic!("expected Compress({host:?}), got {other:?}"),
            }
        }
    }

    #[test]
    fn bad_block_size_is_typed_error() {
        let data = [1.0f32; 16];
        let cfg = CereszConfig::new(ErrorBound::Abs(1e-3)).with_block_size(7);
        for strategy in all_strategies() {
            assert!(
                matches!(
                    execute(strategy, &data, &cfg, &SimOptions::default()),
                    Err(crate::error::WseError::Compress(
                        ceresz_core::CompressError::BadBlockSize(7)
                    ))
                ),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn every_strategy_verifies_clean_across_shapes() {
        // The EXPERIMENTS.md shape sweep in miniature: every shipped mapping
        // must pass its own static verifier with zero diagnostics of error
        // severity (warnings allowed — e.g. over-supplied padded channels).
        let data: Vec<f32> = (0..32 * 24)
            .map(|i| (i as f32 * 0.02).sin() * 8.0)
            .collect();
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let mut strategies = vec![
            StrategyKind::RowParallel { rows: 1 },
            StrategyKind::RowParallel { rows: 8 },
            StrategyKind::RowParallel { rows: 32 },
        ];
        for len in [1usize, 2, 4, 8] {
            strategies.push(StrategyKind::Pipeline {
                rows: 2,
                pipeline_length: len,
            });
        }
        for (len, p) in [(1usize, 1usize), (1, 8), (2, 3), (4, 2)] {
            strategies.push(StrategyKind::MultiPipeline {
                rows: 2,
                pipeline_length: len,
                pipelines_per_row: p,
            });
        }
        for strategy in strategies {
            let manifest = mapping_manifest(&data, &cfg, strategy).unwrap();
            let report = wse_verify::verify(&manifest);
            assert!(
                report.is_clean(),
                "{strategy:?} rejected by its own verifier:\n{report}"
            );
        }
    }

    #[test]
    fn pes_accounting() {
        assert_eq!(StrategyKind::RowParallel { rows: 7 }.pes(), 7);
        assert_eq!(
            StrategyKind::MultiPipeline {
                rows: 2,
                pipeline_length: 3,
                pipelines_per_row: 4
            }
            .pes(),
            24
        );
    }

    #[test]
    fn sim_options_builders_commute() {
        // Opting out of verification and recording compose in either
        // order. Every with_* pair must commute.
        let a = SimOptions::default()
            .with_flight_window(64)
            .with_verify(false);
        let b = SimOptions::default()
            .with_verify(false)
            .with_flight_window(64);
        assert!(!a.verify && !b.verify);
        assert_eq!(a.flight, b.flight);

        let c = SimOptions::default()
            .with_threads(8)
            .with_engine(EngineMode::CycleStepped);
        let d = SimOptions::default()
            .with_engine(EngineMode::CycleStepped)
            .with_threads(8);
        assert_eq!(c.threads, d.threads);
        assert_eq!(c.engine, d.engine);
        assert!(c.verify && d.verify, "unrelated fields keep their defaults");
        assert!(c.flight.is_none() && d.flight.is_none());

        // with_flight composes with the rest in any order.
        let g = SimOptions::default()
            .with_flight_window(512)
            .with_threads(4);
        let h = SimOptions::default()
            .with_threads(4)
            .with_flight_window(512);
        assert_eq!(g.flight, h.flight);
        assert_eq!(g.flight.unwrap().window, Time::from_cycles(512));
        assert_eq!(g.threads, h.threads);
    }
}
