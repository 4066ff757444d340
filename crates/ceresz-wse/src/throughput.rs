//! Full-wafer analytic throughput engine.
//!
//! A single 750×994 round event-steps in seconds, but sweeping every dataset
//! and bound over hundreds of millions of elements that way is slow; the
//! paper itself reasons about these sizes with the closed-form cost model of
//! §4.3/§4.4 (Eqs. 2–4), validated by profiling at small scale. We do the
//! same:
//!
//! 1. run the *real* kernels over the data on the host, charging the same
//!    calibrated cost model the simulator uses, to obtain the exact mean
//!    per-block compute cycles (including zero-block fast paths);
//! 2. feed that mean into Eq. (4) with the mesh shape, pipeline length, and
//!    transfer costs `C1`/`C2`;
//! 3. convert cycles at 850 MHz into GB/s.
//!
//! An integration test pins this engine against the event simulator at small
//! mesh sizes (agreement within a few percent), which is what licenses the
//! extrapolation — the same argument the paper makes with Fig. 7/10.

use ceresz_core::block::BlockCodec;
use ceresz_core::compressor::{CereszConfig, CompressError};
use ceresz_core::plan::{MeshShape, PipelineModel};
use wse_sim::CostModel;

use crate::harness::split_blocks;
use crate::kernels::{compress_block, DecompressState, HostCharger};

/// A full-wafer configuration for analytic throughput evaluation.
#[derive(Debug, Clone)]
pub struct WaferConfig {
    /// Mesh shape in PEs.
    pub mesh: MeshShape,
    /// Pipeline length (1 = whole compression per PE, the paper's default).
    pub pipeline_length: usize,
    /// Fabric transfer model (`C1`, `C2`, clock).
    pub pipe: PipelineModel,
    /// Per-operation cycle cost model (must match the simulator's).
    pub cost: CostModel,
}

impl WaferConfig {
    /// The paper's main evaluation configuration: `n × n` PEs, pipeline
    /// length 1, CS-2 fabric parameters for 32-element blocks.
    #[must_use]
    pub fn cs2_square(n: usize) -> Self {
        Self::cs2(MeshShape::square(n))
    }

    /// CS-2 parameters for an arbitrary mesh shape.
    #[must_use]
    pub fn cs2(mesh: MeshShape) -> Self {
        Self {
            mesh,
            pipeline_length: 1,
            pipe: PipelineModel::cs2_defaults(ceresz_core::DEFAULT_BLOCK_SIZE),
            cost: CostModel::calibrated(),
        }
    }

    /// Override the pipeline length.
    #[must_use]
    pub fn with_pipeline_length(mut self, len: usize) -> Self {
        self.pipeline_length = len;
        self
    }

    /// Analytic compression throughput for `data` under `cfg`'s bound.
    ///
    /// Runs the real kernels over every block (set `sample_every > 1` to
    /// subsample large datasets — e.g. 20 for the paper's 5 % sampling).
    pub fn compression_report(
        &self,
        data: &[f32],
        cfg: &CereszConfig,
        sample_every: usize,
    ) -> Result<ThroughputReport, CompressError> {
        self.compression_report_replicated(data, cfg, sample_every, 1)
    }

    /// Like [`Self::compression_report`], but modeling `replicate` logical
    /// copies of the dataset streamed through the wafer. The paper's fields
    /// reach hundreds of millions of elements; the laptop-scale synthetic
    /// stand-ins must be replicated to saturate a 512×512 mesh (262,144
    /// blocks per round), otherwise most PEs idle and GB/s is meaningless.
    pub fn compression_report_replicated(
        &self,
        data: &[f32],
        cfg: &CereszConfig,
        sample_every: usize,
        replicate: usize,
    ) -> Result<ThroughputReport, CompressError> {
        ensure_canonical(cfg.recipe)?;
        let eps = cfg.bound.resolve(data);
        let codec = BlockCodec::new(cfg.block_size, cfg.header);
        let blocks = split_blocks(data, cfg.block_size);
        let n_blocks = blocks.len();
        let stride = sample_every.max(1);
        let mut charger = HostCharger::new(self.cost);
        let mut sampled = 0usize;
        let mut zero = 0usize;
        for block in blocks.iter().step_by(stride) {
            let bytes = compress_block(block, &codec, eps, &mut charger)?;
            sampled += 1;
            if bytes.len() == codec.header().bytes() {
                zero += 1;
            }
        }
        let ops_mean = if sampled == 0 {
            0.0
        } else {
            charger.cycles() / sampled as f64
        };
        let replicate = replicate.max(1);
        self.finish_report(
            ops_mean,
            n_blocks * replicate,
            sampled,
            zero,
            data.len() * 4 * replicate,
            eps,
            1,
        )
    }

    /// Analytic decompression throughput for an already-compressed stream.
    pub fn decompression_report(
        &self,
        compressed: &ceresz_core::Compressed,
        sample_every: usize,
    ) -> Result<ThroughputReport, CompressError> {
        self.decompression_report_replicated(compressed, sample_every, 1)
    }

    /// Replicated variant; see [`Self::compression_report_replicated`].
    pub fn decompression_report_replicated(
        &self,
        compressed: &ceresz_core::Compressed,
        sample_every: usize,
        replicate: usize,
    ) -> Result<ThroughputReport, CompressError> {
        let (header, header_len) =
            ceresz_core::stream::StreamHeader::read_prefix(&compressed.data)?;
        ensure_canonical(header.recipe)?;
        let payload = &compressed.data[header_len..];
        let codec = header.codec();
        let offsets = ceresz_core::stream::scan_block_offsets(&header, payload)?;
        let stride = sample_every.max(1);
        let mut charger = HostCharger::new(self.cost);
        let mut sampled = 0usize;
        let mut zero = 0usize;
        for &off in offsets.iter().step_by(stride) {
            let (state, _) =
                DecompressState::from_encoded(&payload[off..], &codec, header.eps, &mut charger)?;
            if matches!(state, DecompressState::Restored(_)) {
                zero += 1;
            }
            state.finish(header.eps, &mut charger)?;
            sampled += 1;
        }
        let ops_mean = if sampled == 0 {
            0.0
        } else {
            charger.cycles() / sampled as f64
        };
        // Two task activations per block on the consuming PE (header phase +
        // body phase of the two-phase receive).
        let replicate = replicate.max(1);
        self.finish_report(
            ops_mean,
            offsets.len() * replicate,
            sampled,
            zero,
            header.count * 4 * replicate,
            header.eps,
            2,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_report(
        &self,
        ops_mean: f64,
        n_blocks: usize,
        sampled: usize,
        zero: usize,
        original_bytes: usize,
        eps: f64,
        activations_per_pe: usize,
    ) -> Result<ThroughputReport, CompressError> {
        // Per-block compute C: kernel ops + one task dispatch per pipeline PE
        // touching the block.
        let c_total = ops_mean
            + self.cost.task_overhead.cycles_f64()
                * (self.pipeline_length * activations_per_pe) as f64;
        let cycles =
            self.pipe
                .total_cycles(n_blocks.max(1), self.mesh, self.pipeline_length, c_total);
        let seconds = self.pipe.seconds(cycles);
        Ok(ThroughputReport {
            cycles,
            seconds,
            gbps: self.pipe.throughput_gbps(original_bytes, cycles),
            mean_block_cycles: c_total,
            zero_fraction: if sampled == 0 {
                0.0
            } else {
                zero as f64 / sampled as f64
            },
            eps,
            n_blocks,
            pes: self.mesh.pes(),
        })
    }
}

/// The analytic reports charge the canonical pipeline's kernels; any other
/// recipe would be mis-charged.
fn ensure_canonical(recipe: ceresz_core::recipe::Recipe) -> Result<(), CompressError> {
    if recipe.is_canonical() {
        return Ok(());
    }
    Err(CompressError::InvalidRecipe(
        "analytic reports charge only canonical kernels",
    ))
}

/// Analytic throughput estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputReport {
    /// Total cycles to process the dataset.
    pub cycles: f64,
    /// Wall-clock seconds at the configured clock.
    pub seconds: f64,
    /// Throughput in GB/s (original bytes / time).
    pub gbps: f64,
    /// Mean per-block compute cycles `C` fed into Eq. (4).
    pub mean_block_cycles: f64,
    /// Fraction of sampled blocks on the zero fast path.
    pub zero_fraction: f64,
    /// Resolved absolute error bound.
    pub eps: f64,
    /// Blocks in the dataset.
    pub n_blocks: usize,
    /// PEs in the mesh.
    pub pes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceresz_core::ErrorBound;

    fn wavy(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.013).sin() * 30.0 + (i as f32 * 0.0007).cos() * 5.0)
            .collect()
    }

    #[test]
    fn full_wafer_lands_in_paper_range() {
        // Paper: 227.93–773.8 GB/s compression on 512×512 PEs. A 512×512
        // wafer retires 262144 blocks per round, so the dataset must be much
        // larger than one round to reach steady-state utilization.
        let data = wavy(32 * 786_432); // 3 full rounds of blocks
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let wafer = WaferConfig::cs2_square(512);
        let rep = wafer.compression_report(&data, &cfg, 97).unwrap();
        assert!(
            rep.gbps > 150.0 && rep.gbps < 1000.0,
            "throughput = {} GB/s",
            rep.gbps
        );
    }

    #[test]
    fn decompression_beats_compression() {
        let data = wavy(32 * 5_000);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let wafer = WaferConfig::cs2_square(512);
        let comp = wafer.compression_report(&data, &cfg, 1).unwrap();
        let stream = ceresz_core::Codec::new(cfg).compress(&data).unwrap();
        let decomp = wafer.decompression_report(&stream, 1).unwrap();
        assert!(
            decomp.gbps > comp.gbps,
            "decomp {} vs comp {}",
            decomp.gbps,
            comp.gbps
        );
    }

    fn two_stage_recipe() -> CereszConfig {
        let recipe = ceresz_core::Recipe::new(&[
            ceresz_core::StageSpec::PreQuantize,
            ceresz_core::StageSpec::FixedLength,
        ])
        .unwrap();
        CereszConfig::new(ErrorBound::Rel(1e-3)).with_recipe(recipe)
    }

    #[test]
    fn compression_report_rejects_non_canonical_recipes() {
        let err = WaferConfig::cs2_square(16)
            .compression_report(&wavy(32 * 40), &two_stage_recipe(), 1)
            .unwrap_err();
        assert!(matches!(err, CompressError::InvalidRecipe(_)), "{err:?}");
    }

    #[test]
    fn decompression_report_reads_v2_stream_headers() {
        // A v2 stream carries its recipe after the v1 header fields; slicing
        // the payload at the v1 length misread the recipe bytes as a block
        // header (`CorruptHeader`).
        let cfg = two_stage_recipe();
        let stream = ceresz_core::Codec::new(cfg)
            .compress(&wavy(32 * 40))
            .unwrap();
        let err = WaferConfig::cs2_square(16)
            .decompression_report(&stream, 1)
            .unwrap_err();
        assert!(matches!(err, CompressError::InvalidRecipe(_)), "{err:?}");
    }

    #[test]
    fn tighter_bounds_reduce_throughput() {
        // Fig. 11's trend: REL 1e-2 > 1e-3 > 1e-4.
        let data = wavy(32 * 5_000);
        let wafer = WaferConfig::cs2_square(512);
        let mut last = f64::INFINITY;
        for rel in [1e-2, 1e-3, 1e-4] {
            let cfg = CereszConfig::new(ErrorBound::Rel(rel));
            let rep = wafer.compression_report(&data, &cfg, 1).unwrap();
            assert!(rep.gbps < last, "rel {rel}: {} !< {last}", rep.gbps);
            last = rep.gbps;
        }
    }

    #[test]
    fn zero_heavy_data_is_faster() {
        let mut zeros = vec![0f32; 32 * 4_000];
        zeros.extend(wavy(32 * 1_000));
        let dense = wavy(32 * 5_000);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let wafer = WaferConfig::cs2_square(512);
        let z = wafer.compression_report(&zeros, &cfg, 1).unwrap();
        let d = wafer.compression_report(&dense, &cfg, 1).unwrap();
        assert!(z.zero_fraction > 0.5);
        assert!(z.gbps > d.gbps);
    }

    #[test]
    fn pes_scale_throughput_linearly() {
        // Fig. 14: quadrupling the PE count ~quadruples throughput.
        let data = wavy(32 * 50_000);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-4));
        let g32 = WaferConfig::cs2_square(32)
            .compression_report(&data, &cfg, 11)
            .unwrap()
            .gbps;
        let g64 = WaferConfig::cs2_square(64)
            .compression_report(&data, &cfg, 11)
            .unwrap()
            .gbps;
        let ratio = g64 / g32;
        assert!(ratio > 3.3 && ratio < 4.3, "scaling ratio = {ratio}");
    }

    #[test]
    fn pipeline_length_one_wins() {
        let data = wavy(32 * 10_000);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-4));
        let g1 = WaferConfig::cs2_square(128)
            .compression_report(&data, &cfg, 3)
            .unwrap()
            .gbps;
        let g4 = WaferConfig::cs2_square(128)
            .with_pipeline_length(4)
            .compression_report(&data, &cfg, 3)
            .unwrap()
            .gbps;
        assert!(g1 > g4, "len1 {g1} vs len4 {g4}");
    }
}
