//! The unified strategy execution API: one [`Strategy`] trait all three of
//! the paper's mappings implement, one [`execute`] entry point that runs any
//! of them, and one [`StrategyRun`] result shape:
//!
//! ```text
//! StrategyKind ── validate ──► MappedMesh ── Strategy::map ──► MapOutcome
//!        │                         │                              │
//!        │                    (optional static verify)       slot table
//!        ▼                         ▼                              ▼
//!   mesh_shape              Simulator::run ──► RunReport ──► assemble_blocks
//! ```
//!
//! A strategy's only job is [`Strategy::map`]: install routes, programs, and
//! receives on a freshly constructed mesh and return a [`MapOutcome`]
//! describing where each block's encoded bytes will be emitted. Everything
//! else — verification, simulation (serial or sharded-parallel, per
//! [`SimOptions::with_threads`]), output collection, and stream reassembly —
//! is shared in [`execute`].

use ceresz_core::block::BlockCodec;
use ceresz_core::compressor::{CereszConfig, CompressError, Compressed};
use ceresz_core::plan::{CompressionPlan, StageCostModel};
use ceresz_core::stream::StreamHeader;
use wse_sim::{PeId, RunReport, SimStats};

use crate::compress_map::map_compression;
use crate::engine::SimOptions;
use crate::error::WseError;
use crate::harness::{assemble_blocks, parse_emitted};
use crate::layout::Layout;
use crate::mapping::{run_verified, MappedMesh};

/// Which of the paper's three parallelization strategies to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// §4.1 — whole compression on the first PE of each row.
    RowParallel {
        /// PE rows to use.
        rows: usize,
    },
    /// §4.2 — one stage pipeline per row.
    Pipeline {
        /// PE rows to use.
        rows: usize,
        /// PEs per pipeline.
        pipeline_length: usize,
    },
    /// §4.3 — several pipelines per row with head-relaying.
    MultiPipeline {
        /// PE rows to use.
        rows: usize,
        /// PEs per pipeline.
        pipeline_length: usize,
        /// Pipelines per row (`cols = pipeline_length · pipelines_per_row`).
        pipelines_per_row: usize,
    },
}

impl StrategyKind {
    /// Short strategy name, used in profiles and trace process names.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::RowParallel { .. } => "row-parallel",
            StrategyKind::Pipeline { .. } => "pipeline",
            StrategyKind::MultiPipeline { .. } => "multi-pipeline",
        }
    }

    /// Validate the strategy parameters before any mesh is built: every
    /// dimension must be nonzero and the implied mesh shape must not
    /// overflow. Returns [`WseError::InvalidStrategy`] so a caller passing
    /// parameters from the wire can recover instead of aborting on an
    /// `assert!` or a capacity overflow inside the simulator.
    pub fn validate(&self) -> Result<(), WseError> {
        let invalid = |reason: String| Err(WseError::InvalidStrategy { reason });
        let Layout {
            rows,
            len,
            pipelines: pipes,
        } = self.layout();
        if rows == 0 {
            return invalid("rows must be positive".into());
        }
        if len == 0 {
            return invalid("pipeline length must be positive".into());
        }
        if pipes == 0 {
            return invalid("pipelines per row must be positive".into());
        }
        let Some(cols) = len.checked_mul(pipes) else {
            return invalid(format!(
                "mesh columns overflow: pipeline_length {len} × pipelines_per_row {pipes}"
            ));
        };
        if rows.checked_mul(cols).is_none() {
            return invalid(format!("PE count overflows: {rows} rows × {cols} cols"));
        }
        Ok(())
    }

    /// Total PEs this strategy occupies.
    #[must_use]
    pub fn pes(&self) -> usize {
        let (rows, cols) = self.mesh_shape();
        rows * cols
    }

    /// Mesh dimensions `(rows, cols)` this strategy occupies. Also available
    /// through the [`Strategy`] impl; inherent so callers don't need the
    /// trait in scope.
    #[must_use]
    pub fn mesh_shape(&self) -> (usize, usize) {
        let layout = self.layout();
        (layout.rows, layout.len * layout.pipelines)
    }

    /// The pipeline layout: `P` pipelines of `len` PEs on each of `rows`
    /// PE rows (row-parallel and pipeline are its `P = 1` cases).
    pub(crate) fn layout(&self) -> Layout {
        let (rows, len, pipelines) = match *self {
            StrategyKind::RowParallel { rows } => (rows, 1, 1),
            StrategyKind::Pipeline {
                rows,
                pipeline_length,
            } => (rows, pipeline_length, 1),
            StrategyKind::MultiPipeline {
                rows,
                pipeline_length,
                pipelines_per_row,
            } => (rows, pipeline_length, pipelines_per_row),
        };
        Layout {
            rows,
            len,
            pipelines,
        }
    }
}

/// The mesh/manifest name of the mapping (e.g. `row-parallel rows=4`).
impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            StrategyKind::RowParallel { rows } => write!(f, "row-parallel rows={rows}"),
            StrategyKind::Pipeline {
                rows,
                pipeline_length,
            } => write!(f, "pipeline rows={rows} len={pipeline_length}"),
            StrategyKind::MultiPipeline {
                rows,
                pipeline_length: len,
                pipelines_per_row: p,
            } => write!(f, "multi-pipeline rows={rows} len={len} p={p}"),
        }
    }
}

/// What a [`Strategy::map`] call produced: everything [`execute`] needs to
/// turn the simulator's raw per-PE emissions back into the compressed
/// stream, without knowing anything strategy-specific.
#[derive(Debug, Clone)]
pub struct MapOutcome {
    /// Stream header of the eventual output.
    pub header: StreamHeader,
    /// The stage plan the mapping executes (pipeline strategies only).
    pub plan: Option<CompressionPlan>,
    /// Where block `b`'s encoded bytes surface: `slots[b] = (pe, i)` means
    /// the `i`-th emission of `pe`. Length is the total block count.
    pub slots: Vec<(PeId, usize)>,
}

/// A parallelization strategy: a recipe for installing the CereSZ
/// compression kernels onto a mesh.
///
/// The built-in [`StrategyKind`] variants implement this; external code can
/// too — [`execute_strategy`] runs any implementor through the same
/// verify → simulate → reassemble pipeline.
///
/// ```
/// use ceresz_core::compressor::CereszConfig;
/// use ceresz_wse::{MapOutcome, MappedMesh, Strategy, StrategyKind, WseError};
///
/// /// Delegates to the built-in row-parallel mapping under another name.
/// struct Renamed(StrategyKind);
///
/// impl Strategy for Renamed {
///     fn name(&self) -> &'static str {
///         "renamed"
///     }
///     fn mesh_shape(&self) -> (usize, usize) {
///         self.0.mesh_shape()
///     }
///     fn map(
///         &self,
///         mesh: &mut MappedMesh,
///         data: &[f32],
///         cfg: &CereszConfig,
///     ) -> Result<MapOutcome, WseError> {
///         self.0.map(mesh, data, cfg)
///     }
/// }
///
/// let custom = Renamed(StrategyKind::RowParallel { rows: 2 });
/// assert_eq!(custom.mesh_shape(), (2, 1));
/// ```
pub trait Strategy {
    /// Short strategy name, used in profiles and trace process names.
    fn name(&self) -> &'static str;

    /// Mesh dimensions `(rows, cols)` the strategy occupies; [`execute`]
    /// constructs the [`MappedMesh`] with exactly this shape before calling
    /// [`Strategy::map`].
    fn mesh_shape(&self) -> (usize, usize);

    /// Name recorded on the mesh and its static manifest. Defaults to
    /// [`Strategy::name`]; [`StrategyKind`] overrides it with its `Display`
    /// form, which carries the parameters (e.g. `row-parallel rows=4`).
    fn mesh_name(&self) -> String {
        self.name().to_owned()
    }

    /// Install routes, PE programs, receives, and input injections for
    /// compressing `data` onto `mesh`, recording the static manifest as a
    /// side effect, and describe the output layout. Must not run anything.
    fn map(
        &self,
        mesh: &mut MappedMesh,
        data: &[f32],
        cfg: &CereszConfig,
    ) -> Result<MapOutcome, WseError>;
}

impl Strategy for StrategyKind {
    fn name(&self) -> &'static str {
        StrategyKind::name(self)
    }

    fn mesh_shape(&self) -> (usize, usize) {
        StrategyKind::mesh_shape(self)
    }

    fn mesh_name(&self) -> String {
        self.to_string()
    }

    /// All three strategies run the one compression mapper
    /// ([`crate::compress_map`]); they differ only in the pipelines per row
    /// and the plan passed to it.
    fn map(
        &self,
        mesh: &mut MappedMesh,
        data: &[f32],
        cfg: &CereszConfig,
    ) -> Result<MapOutcome, WseError> {
        let eps = cfg.resolve_eps(data)?;
        ceresz_core::precheck_input(data, eps, cfg.block_size)?;
        let model = StageCostModel::calibrated();
        let layout = self.layout();
        if let StrategyKind::RowParallel { .. } = self {
            // One PE per row runs every stage. Row parallelism samples no
            // fixed length, so the PE is sized for any block (all 31
            // planes); that sizing plan is not reported as the run's plan,
            // so row-parallel profiles carry no model terms.
            let worst_case = CompressionPlan::for_fixed_length(
                BlockCodec::MAX_FIXED_LENGTH,
                cfg.block_size,
                1,
                &model,
            );
            return Ok(MapOutcome {
                plan: None,
                ..map_compression(mesh, data, cfg, eps, layout, worst_case)
            });
        }
        let plan =
            CompressionPlan::from_sampled(data, cfg.bound, cfg.block_size, layout.len, &model);
        Ok(map_compression(mesh, data, cfg, eps, layout, plan))
    }
}

/// Result of executing a strategy: the one result shape shared by all
/// strategies.
#[derive(Debug)]
pub struct StrategyRun {
    /// The compressed stream (bit-identical to the host reference).
    pub compressed: Compressed,
    /// Simulator statistics; `stats.finish_cycle` is the paper's runtime
    /// measure (cycles until the last PE finished).
    pub stats: SimStats,
    /// The strategy that produced it.
    pub kind: StrategyKind,
    /// The stage plan the run executed (pipeline strategies only).
    pub plan: Option<CompressionPlan>,
    /// The complete simulator report (with its flight recording — stall
    /// series, per-stage attribution, task timeline — when the recorder
    /// was on).
    pub report: RunReport,
}

impl StrategyRun {
    /// Compression throughput in GB/s at the CS-2 clock.
    #[must_use]
    pub fn throughput_gbps(&self) -> f64 {
        self.stats
            .throughput_gbps(self.compressed.stats.original_bytes, wse_sim::CLOCK_HZ)
    }
}

/// Simulate CereSZ compression of `data` with the given strategy: the
/// single entry point behind which every mapping runs.
///
/// The run is deterministic at any thread count: with
/// [`SimOptions::with_threads`] the simulator partitions the mesh into row
/// shards stepped in parallel, and the resulting report — outputs and
/// statistics, plus the flight recording when one was asked for — is
/// bit-identical to the serial run.
///
/// ```
/// use ceresz_core::{CereszConfig, Codec, ErrorBound};
/// use ceresz_wse::{execute, SimOptions, StrategyKind};
///
/// let data: Vec<f32> = (0..96).map(|i| (i as f32 * 0.1).sin()).collect();
/// let cfg = CereszConfig::new(ErrorBound::Abs(1e-3));
/// let run = execute(
///     StrategyKind::RowParallel { rows: 2 },
///     &data,
///     &cfg,
///     &SimOptions::default().with_threads(2),
/// )
/// .unwrap();
/// assert_eq!(run.compressed.data, Codec::new(cfg).compress(&data).unwrap().data);
/// ```
pub fn execute(
    kind: StrategyKind,
    data: &[f32],
    cfg: &CereszConfig,
    options: &SimOptions,
) -> Result<StrategyRun, WseError> {
    kind.validate()?;
    let (run, plan, report) = execute_strategy(&kind, data, cfg, options)?;
    Ok(StrategyRun {
        stats: report.stats().clone(),
        compressed: run,
        kind,
        plan,
        report,
    })
}

/// Run any [`Strategy`] implementor through the shared
/// map → verify → simulate → reassemble pipeline, returning the compressed
/// stream, the plan (if any), and the full simulator report.
///
/// [`execute`] is this plus the [`StrategyKind`] tag; custom strategies use
/// this directly.
pub fn execute_strategy(
    strategy: &dyn Strategy,
    data: &[f32],
    cfg: &CereszConfig,
    options: &SimOptions,
) -> Result<(Compressed, Option<CompressionPlan>, RunReport), WseError> {
    let (rows, cols) = strategy.mesh_shape();
    let mut mesh = MappedMesh::new(
        strategy.mesh_name(),
        options.mesh_config(rows, cols),
        rows,
        cols,
    );
    let outcome = strategy.map(&mut mesh, data, cfg)?;
    let report = run_verified(mesh, options)?;
    let mut blocks = Vec::with_capacity(outcome.slots.len());
    for &(pe, idx) in &outcome.slots {
        let outs = report.outputs(pe);
        let Some(out) = outs.get(idx) else {
            return Err(CompressError::Truncated.into());
        };
        blocks.push(parse_emitted(out)?);
    }
    let compressed = assemble_blocks(&outcome.header, &blocks)?;
    Ok((compressed, outcome.plan, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceresz_core::{Codec, ErrorBound};

    #[test]
    fn display_matches_legacy_mesh_names() {
        assert_eq!(
            StrategyKind::RowParallel { rows: 4 }.to_string(),
            "row-parallel rows=4"
        );
        assert_eq!(
            StrategyKind::Pipeline {
                rows: 2,
                pipeline_length: 8
            }
            .to_string(),
            "pipeline rows=2 len=8"
        );
        assert_eq!(
            StrategyKind::MultiPipeline {
                rows: 1,
                pipeline_length: 2,
                pipelines_per_row: 3
            }
            .to_string(),
            "multi-pipeline rows=1 len=2 p=3"
        );
    }

    #[test]
    fn custom_strategy_runs_through_execute_strategy() {
        // A from-scratch Strategy impl (not a StrategyKind) goes through the
        // same shared pipeline and still matches the host reference.
        struct Wrapped(StrategyKind);
        impl Strategy for Wrapped {
            fn name(&self) -> &'static str {
                "wrapped"
            }
            fn mesh_shape(&self) -> (usize, usize) {
                self.0.mesh_shape()
            }
            fn map(
                &self,
                mesh: &mut MappedMesh,
                data: &[f32],
                cfg: &CereszConfig,
            ) -> Result<MapOutcome, WseError> {
                self.0.map(mesh, data, cfg)
            }
        }
        let data: Vec<f32> = (0..32 * 7).map(|i| (i as f32 * 0.05).cos() * 3.0).collect();
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let reference = Codec::new(cfg).compress(&data).unwrap();
        let (compressed, plan, report) = execute_strategy(
            &Wrapped(StrategyKind::Pipeline {
                rows: 2,
                pipeline_length: 3,
            }),
            &data,
            &cfg,
            &SimOptions::default(),
        )
        .unwrap();
        assert_eq!(compressed.data, reference.data);
        assert!(plan.is_some());
        assert!(!report.stats().finish_cycle.is_zero());
    }

    #[test]
    fn truncated_slot_table_is_a_typed_error() {
        // A strategy whose slot table points past the real emissions must
        // surface CompressError::Truncated, not panic.
        struct OverClaiming;
        impl Strategy for OverClaiming {
            fn name(&self) -> &'static str {
                "over-claiming"
            }
            fn mesh_shape(&self) -> (usize, usize) {
                (1, 1)
            }
            fn map(
                &self,
                mesh: &mut MappedMesh,
                data: &[f32],
                cfg: &CereszConfig,
            ) -> Result<MapOutcome, WseError> {
                let mut outcome = StrategyKind::RowParallel { rows: 1 }.map(mesh, data, cfg)?;
                let &(pe, last) = outcome.slots.last().expect("nonempty");
                outcome.slots.push((pe, last + 1));
                Ok(outcome)
            }
        }
        let data = [1.0f32; 64];
        let cfg = CereszConfig::new(ErrorBound::Abs(1e-3));
        let err = execute_strategy(&OverClaiming, &data, &cfg, &SimOptions::default()).unwrap_err();
        assert!(
            matches!(err, WseError::Compress(CompressError::Truncated)),
            "{err:?}"
        );
    }
}
