//! Decompression mapped onto the mesh (§3 "Decompression Steps", §4.2 last
//! paragraph).
//!
//! One driver, [`run_pipeline_decompress`], runs a decompression pipeline
//! per PE row. Its first PE uses the paper's two-phase receive: it receives
//! the block header (one wavelet under the 4-byte CereSZ headers), learns
//! the fixed length `f`, then receives exactly the `1 + f` plane wavelets
//! that follow — no maximum scan, which is why decompression is faster than
//! compression. A pipeline of length 1 is row-parallel decompression
//! (strategy 1): each row's only PE decodes whole blocks.

use ceresz_core::block::BlockCodec;
use ceresz_core::compressor::{CompressError, Compressed};
use ceresz_core::plan::{
    decompression_sub_stages, distribute_stages, StageCostModel, SubStageKind,
};
use ceresz_core::stream::{scan_block_offsets, StreamHeader};
use ceresz_core::HeaderWidth;
use wse_sim::{
    Color, Direction, MeshConfig, PeId, PeProgram, SimError, SimStats, Simulator, TaskCtx, TaskId,
    Time,
};

use crate::compress_map::{inter_color, kernel_error};
use crate::error::WseError;
use crate::harness::{colors, tasks};
use crate::kernels::DecompressState;
use crate::strategy::StrategyKind;
use crate::wire::{WaveletReader, WaveletWriter};

/// Wavelets in one sign/bit plane for block size `l`.
fn plane_words(l: usize) -> usize {
    l.div_ceil(8).div_ceil(4)
}

/// Padded frame size for inter-PE transfers of decompression state: large
/// enough for the worst case (all 31 planes still unconsumed + magnitudes).
fn decomp_frame_words(l: usize) -> usize {
    3 + plane_words(l) + 31 * plane_words(l) + l + 1
}

/// Result of a simulated decompression run.
#[derive(Debug)]
pub struct DecompressRun {
    /// The reconstructed values.
    pub restored: Vec<f32>,
    /// Simulator statistics.
    pub stats: SimStats,
    /// Rows used.
    pub rows: usize,
    /// Bytes of reconstructed output (the throughput denominator, as in the
    /// paper: decompression throughput is original-size / time).
    pub original_bytes: usize,
}

impl DecompressRun {
    /// Decompression throughput in GB/s at the CS-2 clock.
    #[must_use]
    pub fn throughput_gbps(&self) -> f64 {
        self.stats
            .throughput_gbps(self.original_bytes, wse_sim::CLOCK_HZ)
    }
}

/// One PE of a decompression pipeline (strategy 2 applied to decompression,
/// §4.2 last paragraph: the reverse Bit-shuffle splits per byte/plane, the
/// prefix sum and dequantization multiply are indivisible).
struct DecompPipePe {
    stages: Vec<SubStageKind>,
    in_color: Color,
    out_color: Option<Color>,
    /// First PE parses encoded blocks with the two-phase receive.
    is_first: bool,
    codec: BlockCodec,
    eps: f64,
    blocks_remaining: usize,
    pending_f: Option<u32>,
}

impl DecompPipePe {
    fn next_input(&mut self, ctx: &mut TaskCtx<'_>) {
        self.blocks_remaining -= 1;
        if self.blocks_remaining > 0 {
            if self.is_first {
                ctx.recv_async(self.in_color, 1, tasks::RECV);
            } else {
                ctx.recv_async(
                    self.in_color,
                    decomp_frame_words(self.codec.block_size()),
                    tasks::RECV,
                );
            }
        }
    }

    fn process(
        &mut self,
        ctx: &mut TaskCtx<'_>,
        mut state: DecompressState,
    ) -> Result<(), SimError> {
        for &stage in &self.stages {
            if state.can_apply(stage) {
                state = state
                    .apply(stage, self.eps, ctx)
                    .map_err(|e| kernel_error(ctx.pe(), e))?;
            }
        }
        match self.out_color {
            Some(color) => {
                let mut frame = state.to_wavelets();
                frame.resize(decomp_frame_words(self.codec.block_size()), 0);
                ctx.send_async(color, frame, None);
            }
            None => {
                let restored = state
                    .finish(self.eps, ctx)
                    .map_err(|e| kernel_error(ctx.pe(), e))?;
                let mut w = WaveletWriter::new();
                for &v in &restored {
                    w.put_f32(v);
                }
                ctx.emit(w.finish());
            }
        }
        self.next_input(ctx);
        Ok(())
    }
}

impl PeProgram for DecompPipePe {
    fn on_task(&mut self, ctx: &mut TaskCtx<'_>, task: TaskId) -> Result<(), SimError> {
        let l = self.codec.block_size();
        if !self.is_first {
            debug_assert_eq!(task, tasks::RECV);
            let words = ctx.take_received(self.in_color);
            let state = DecompressState::from_wavelets(&words, l)
                .map_err(|_| kernel_error(ctx.pe(), CompressError::Truncated))?;
            return self.process(ctx, state);
        }
        if task == tasks::RECV {
            let words = ctx.take_received(self.in_color);
            let f = words[0];
            if f > BlockCodec::MAX_FIXED_LENGTH {
                return Err(kernel_error(
                    ctx.pe(),
                    CompressError::CorruptHeader { fixed_length: f },
                ));
            }
            if f == 0 {
                ctx.begin_stage("zero-fill");
                ctx.charge(wse_sim::Op::MemSet, l as u64);
                return self.process(ctx, DecompressState::Restored(vec![0.0; l]));
            }
            self.pending_f = Some(f);
            ctx.recv_async(
                self.in_color,
                (1 + f as usize) * plane_words(l),
                tasks::RECV_BODY,
            );
            Ok(())
        } else {
            debug_assert_eq!(task, tasks::RECV_BODY);
            let f = self.pending_f.take().expect("body without header");
            let words = ctx.take_received(self.in_color);
            let mut bytes = Vec::with_capacity(self.codec.encoded_size(f));
            bytes.extend_from_slice(&f.to_le_bytes());
            let mut r = WaveletReader::new(&words);
            let body = r
                .get_bytes((1 + f as usize) * self.codec.plane_bytes())
                .map_err(|_| kernel_error(ctx.pe(), CompressError::Truncated))?;
            bytes.extend_from_slice(&body);
            let (state, _) = DecompressState::from_encoded(&bytes, &self.codec, self.eps, ctx)
                .map_err(|e| kernel_error(ctx.pe(), e))?;
            self.process(ctx, state)
        }
    }
}

/// Decompress `compressed` on `rows` pipelines of `pipeline_length` PEs
/// (one pipeline per row). The stage split uses Algorithm 1 over the
/// decompression sub-stages at the stream's exact maximum fixed length
/// (known from the block headers — no sampling needed on this side).
/// `pipeline_length = 1` is row-parallel decompression.
///
/// Zero rows or pipeline length return [`WseError::InvalidStrategy`]. A
/// stream the kernels cannot decode — 1-byte block headers, which are not
/// wavelet-aligned, or a recipe other than the canonical one — returns
/// [`WseError::DoesNotFit`].
pub fn run_pipeline_decompress(
    compressed: &Compressed,
    rows: usize,
    pipeline_length: usize,
) -> Result<DecompressRun, WseError> {
    StrategyKind::Pipeline {
        rows,
        pipeline_length,
    }
    .validate()?;
    let (header, header_len) = StreamHeader::read_prefix(&compressed.data)?;
    if header.header_width != HeaderWidth::W4 {
        return Err(WseError::DoesNotFit {
            reason: "the decompression mapping needs wavelet-aligned (4-byte) block headers".into(),
        });
    }
    if !header.recipe.is_canonical() {
        return Err(WseError::DoesNotFit {
            reason: format!(
                "the decompression kernels run only the canonical recipe, not `{}`",
                header.recipe
            ),
        });
    }
    let payload = &compressed.data[header_len..];
    let codec = header.codec();
    let offsets = scan_block_offsets(&header, payload)?;

    // Exact max fixed length from the headers.
    let mut max_f = 0u32;
    let mut per_row_blocks: Vec<Vec<Vec<u32>>> = vec![Vec::new(); rows];
    for (b, &off) in offsets.iter().enumerate() {
        let f = u32::from_le_bytes(payload[off..off + 4].try_into().expect("sized"));
        max_f = max_f.max(f);
        let size = codec.encoded_size(f);
        let mut w = WaveletWriter::new();
        w.put_u32(f);
        w.put_bytes(&payload[off + 4..off + size]);
        per_row_blocks[b % rows].push(w.finish());
    }

    let model = StageCostModel::calibrated();
    let stages = decompression_sub_stages(header.block_size, max_f, &model);
    let kinds: Vec<SubStageKind> = stages.iter().map(|s| s.kind).collect();
    let cycles: Vec<f64> = stages.iter().map(|s| s.cycles).collect();
    let groups = distribute_stages(&cycles, pipeline_length);

    let mut sim = Simulator::new(MeshConfig::new(rows, pipeline_length));
    for (r, row_blocks) in per_row_blocks.into_iter().enumerate() {
        if row_blocks.is_empty() {
            continue;
        }
        for g in 0..pipeline_length {
            let pe = PeId::new(r, g);
            let in_color = if g == 0 {
                colors::DATA
            } else {
                inter_color(g - 1)
            };
            let out_color = (g + 1 < pipeline_length).then(|| inter_color(g));
            if let Some(c) = out_color {
                sim.route(pe, c, None, &[Direction::East]);
                sim.route(
                    PeId::new(r, g + 1),
                    c,
                    Some(Direction::West),
                    &[Direction::Ramp],
                );
            }
            let program = DecompPipePe {
                stages: groups.group(g).map(|i| kinds[i]).collect(),
                in_color,
                out_color,
                is_first: g == 0,
                codec,
                eps: header.eps,
                blocks_remaining: row_blocks.len(),
                pending_f: None,
            };
            sim.set_program(pe, Box::new(program));
            let extent = if g == 0 {
                1
            } else {
                decomp_frame_words(header.block_size)
            };
            sim.post_recv(pe, in_color, extent, tasks::RECV);
        }
        sim.inject_blocks(PeId::new(r, 0), colors::DATA, row_blocks, Time::ZERO);
    }

    let report = sim.run().map_err(WseError::Sim)?;
    let last_col = pipeline_length - 1;
    let mut restored = vec![0f32; header.count];
    for (b, chunk) in restored.chunks_mut(header.block_size).enumerate() {
        let outs = report.outputs(PeId::new(b % rows, last_col));
        let words = &outs[b / rows];
        let mut r = WaveletReader::new(words);
        for v in chunk.iter_mut() {
            *v = r
                .get_f32()
                .map_err(|_| WseError::from(CompressError::Truncated))?;
        }
    }
    Ok(DecompressRun {
        restored,
        stats: report.stats().clone(),
        rows,
        original_bytes: header.count * 4,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceresz_core::{CereszConfig, Codec, ErrorBound, Parallelism, Recipe, StageSpec};

    fn wavy(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.019).sin() * 15.0 + (i as f32 * 0.0041).cos())
            .collect()
    }

    #[test]
    fn simulated_decompression_matches_host() {
        let data = wavy(32 * 33 + 9);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let c = Codec::new(cfg).compress(&data).unwrap();
        let host = Codec::decompressor(Parallelism::Serial)
            .decompress(&c.data)
            .unwrap();
        for rows in [1usize, 3, 8] {
            let run = run_pipeline_decompress(&c, rows, 1).unwrap();
            assert_eq!(run.restored, host, "rows = {rows}");
        }
    }

    #[test]
    fn decompression_is_faster_than_compression() {
        // §3: decompression skips the max scan; §5.2: decomp throughput is
        // higher than compression throughput.
        let data = wavy(32 * 128);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let comp = crate::execute(
            crate::StrategyKind::RowParallel { rows: 4 },
            &data,
            &cfg,
            &crate::SimOptions::default(),
        )
        .unwrap();
        let decomp = run_pipeline_decompress(&comp.compressed, 4, 1).unwrap();
        assert!(
            decomp.stats.finish_cycle < comp.stats.finish_cycle,
            "decomp {} vs comp {}",
            decomp.stats.finish_cycle,
            comp.stats.finish_cycle
        );
    }

    #[test]
    fn zero_heavy_stream_decompresses_fast() {
        let mut data = vec![0f32; 32 * 64];
        data.extend(wavy(32 * 8));
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-2));
        let c = Codec::new(cfg).compress(&data).unwrap();
        let run = run_pipeline_decompress(&c, 2, 1).unwrap();
        assert_eq!(run.restored.len(), data.len());
        let host = Codec::decompressor(Parallelism::Serial)
            .decompress(&c.data)
            .unwrap();
        assert_eq!(run.restored, host);
    }

    #[test]
    fn pipelined_decompression_matches_host() {
        let data = wavy(32 * 36 + 3);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let c = Codec::new(cfg).compress(&data).unwrap();
        let host = Codec::decompressor(Parallelism::Serial)
            .decompress(&c.data)
            .unwrap();
        for len in [1usize, 2, 3, 4, 6] {
            let run = run_pipeline_decompress(&c, 2, len).unwrap();
            assert_eq!(run.restored, host, "length = {len}");
        }
    }

    #[test]
    fn pipelined_decompression_handles_zero_blocks() {
        let mut data = vec![0f32; 32 * 10];
        data.extend(wavy(32 * 10));
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-2));
        let c = Codec::new(cfg).compress(&data).unwrap();
        let host = Codec::decompressor(Parallelism::Serial)
            .decompress(&c.data)
            .unwrap();
        let run = run_pipeline_decompress(&c, 1, 3).unwrap();
        assert_eq!(run.restored, host);
    }

    #[test]
    fn rows_scale_decompression() {
        let data = wavy(32 * 256);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let c = Codec::new(cfg).compress(&data).unwrap();
        let t1 = run_pipeline_decompress(&c, 1, 1).unwrap();
        let t8 = run_pipeline_decompress(&c, 8, 1).unwrap();
        let speedup = t1.stats.finish_cycle.ticks() as f64 / t8.stats.finish_cycle.ticks() as f64;
        assert!((speedup - 8.0).abs() < 1.0, "speedup = {speedup}");
    }

    #[test]
    fn zero_rows_is_a_typed_error() {
        let c = Codec::new(CereszConfig::new(ErrorBound::Rel(1e-3)))
            .compress(&wavy(32 * 4))
            .unwrap();
        for (rows, len) in [(0, 1), (2, 0)] {
            let err = run_pipeline_decompress(&c, rows, len).unwrap_err();
            assert!(
                matches!(err, WseError::InvalidStrategy { .. }),
                "{rows}x{len}: {err:?}"
            );
        }
    }

    #[test]
    fn one_byte_block_headers_are_a_typed_error() {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3)).with_header(HeaderWidth::W1);
        let c = Codec::new(cfg).compress(&wavy(32 * 4)).unwrap();
        let err = run_pipeline_decompress(&c, 2, 1).unwrap_err();
        assert!(matches!(err, WseError::DoesNotFit { .. }), "{err:?}");
    }

    #[test]
    fn huffman_recipe_stream_is_a_typed_error() {
        let recipe = Recipe::new(&[
            StageSpec::PreQuantize,
            StageSpec::Lorenzo1d,
            StageSpec::FixedLength,
            StageSpec::Huffman,
        ])
        .unwrap();
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3)).with_recipe(recipe);
        let c = Codec::new(cfg).compress(&wavy(32 * 4)).unwrap();
        let err = run_pipeline_decompress(&c, 2, 1).unwrap_err();
        assert!(matches!(err, WseError::DoesNotFit { .. }), "{err:?}");
    }
}
