//! Decompression mapped onto the mesh (§3 "Decompression Steps", §4.2 last
//! paragraph).
//!
//! [`execute_decompress`] runs a decompression pipeline per PE row through
//! the same [`MappedMesh`] and verify → run step as compression. Its first PE
//! uses the paper's two-phase receive: it receives the block header (one
//! wavelet under the 4-byte CereSZ headers), learns the fixed length `f`,
//! then receives exactly the wavelets carrying the `1 + f` packed planes —
//! no maximum scan, which is why decompression is faster than compression.
//! The manifest declares the header posting once per block and the body
//! postings once per distinct extent. A pipeline of length 1 is row-parallel
//! decompression (strategy 1).

use std::collections::BTreeMap;
use std::sync::Arc;

use ceresz_core::block::BlockCodec;
use ceresz_core::compressor::{CompressError, Compressed};
use ceresz_core::plan::{
    decompression_sub_stages, distribute_stages, StageCostModel, SubStageKind,
};
use ceresz_core::stream::{scan_block_offsets, StreamHeader};
use ceresz_core::HeaderWidth;
use wse_sim::{
    Color, Direction, PeId, PeProgram, RunReport, SimError, SimStats, TaskCtx, TaskId, Time,
};

use crate::compress_map::{inter_color, kernel_error};
use crate::engine::SimOptions;
use crate::error::WseError;
use crate::harness::{colors, tasks};
use crate::kernels::DecompressState;
use crate::mapping::{run_verified, MappedMesh};
use crate::strategy::StrategyKind;
use crate::wire::{WaveletReader, WaveletWriter};

/// Padded frame size for inter-PE transfers of decompression state: large
/// enough for the worst case — tag, `f` and next plane, the sign plane and
/// all 31 bit-planes (`⌈l/32⌉` wavelets each), the `l` magnitudes, plus one.
fn decomp_frame_words(l: usize) -> usize {
    3 + 32 * l.div_ceil(32) + l + 1
}

/// Wavelets of a block's body — its `1 + f` planes packed back to back after
/// the header wavelet: the body receive's extent, as posted and declared.
fn body_words(codec: &BlockCodec, f: u32) -> usize {
    ((1 + f as usize) * codec.plane_bytes()).div_ceil(4)
}

/// Result of a simulated decompression run.
#[derive(Debug)]
pub struct DecompressRun {
    /// The reconstructed values.
    pub restored: Vec<f32>,
    /// Simulator statistics.
    pub stats: SimStats,
    /// The strategy that ran it.
    pub kind: StrategyKind,
    /// The complete simulator report.
    pub report: RunReport,
}

impl DecompressRun {
    /// Decompression throughput in GB/s at the CS-2 clock (original bytes
    /// over time, as in the paper).
    #[must_use]
    pub fn throughput_gbps(&self) -> f64 {
        self.stats
            .throughput_gbps(self.restored.len() * 4, wse_sim::CLOCK_HZ)
    }
}

/// One PE of a decompression pipeline (strategy 2 applied to decompression,
/// §4.2 last paragraph: the reverse Bit-shuffle splits per byte/plane, the
/// prefix sum and dequantization multiply are indivisible).
struct DecompPipePe {
    /// Sub-stages this PE executes, shared by every PE of its stage group.
    stages: Arc<[SubStageKind]>,
    in_color: Color,
    /// Extent of the receive that starts each block.
    in_extent: usize,
    out_color: Option<Color>,
    /// First PE parses encoded blocks with the two-phase receive.
    is_first: bool,
    codec: BlockCodec,
    eps: f64,
    blocks_remaining: usize,
    pending_f: Option<u32>,
    /// Working-set bytes to reserve on first activation (§4.4).
    working_set: usize,
    reserved: bool,
}

impl DecompPipePe {
    fn process(
        &mut self,
        ctx: &mut TaskCtx<'_>,
        mut state: DecompressState,
    ) -> Result<(), SimError> {
        for &stage in self.stages.iter() {
            if state.can_apply(stage) {
                state = state
                    .apply(stage, self.eps, ctx)
                    .map_err(|e| kernel_error(ctx.pe(), e))?;
            }
        }
        match self.out_color {
            Some(color) => {
                let mut frame = state.to_wavelets();
                let words = decomp_frame_words(self.codec.block_size());
                debug_assert!(frame.len() <= words, "state overflows its frame");
                frame.resize(words, 0);
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
        self.blocks_remaining -= 1;
        if self.blocks_remaining > 0 {
            ctx.recv_async(self.in_color, self.in_extent, tasks::RECV);
        }
        Ok(())
    }
}

impl PeProgram for DecompPipePe {
    fn on_task(&mut self, ctx: &mut TaskCtx<'_>, task: TaskId) -> Result<(), SimError> {
        if !self.reserved {
            ctx.mem_alloc(self.working_set)?;
            self.reserved = true;
        }
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
            ctx.recv_async(self.in_color, body_words(&self.codec, f), tasks::RECV_BODY);
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

/// Simulate decompression of `compressed` on `kind`'s mesh, verified and
/// run under `options` exactly as [`crate::execute`] runs compression. Each
/// row runs one pipeline (row-parallel is length 1, multi-pipeline needs
/// `p = 1`), its stage split by Algorithm 1 over the decompression
/// sub-stages at the stream's exact maximum fixed length (known from the
/// block headers — no sampling needed on this side).
///
/// Zero rows or pipeline length return [`WseError::InvalidStrategy`]. More
/// than one pipeline per row, or a stream the kernels cannot decode — 1-byte
/// block headers, which are not wavelet-aligned, or a recipe other than the
/// canonical one — return [`WseError::DoesNotFit`].
pub fn execute_decompress(
    kind: StrategyKind,
    compressed: &Compressed,
    options: &SimOptions,
) -> Result<DecompressRun, WseError> {
    let (mesh, header) = map_decompression(kind, compressed, options)?;
    let report = run_verified(mesh, options)?;
    let (rows, len) = kind.mesh_shape();
    let mut restored = vec![0f32; header.count];
    for (b, chunk) in restored.chunks_mut(header.block_size).enumerate() {
        let outs = report.outputs(PeId::new(b % rows, len - 1));
        let words = outs.get(b / rows).ok_or(CompressError::Truncated)?;
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
        kind,
        report,
    })
}

/// The static manifest [`execute_decompress`] verifies, built without
/// running the simulator.
pub fn decompression_manifest(
    kind: StrategyKind,
    compressed: &Compressed,
) -> Result<wse_verify::MappingManifest, WseError> {
    let (mesh, _) = map_decompression(kind, compressed, &SimOptions::default())?;
    Ok(mesh.into_parts().1)
}

/// Install the decompression mapping of `compressed` on a fresh mesh of
/// `kind`'s shape, declaring every channel and buffer in its manifest.
fn map_decompression(
    kind: StrategyKind,
    compressed: &Compressed,
    options: &SimOptions,
) -> Result<(MappedMesh, StreamHeader), WseError> {
    kind.validate()?;
    let does_not_fit = |reason: String| Err(WseError::DoesNotFit { reason });
    let (rows, len) = match kind {
        StrategyKind::MultiPipeline {
            pipelines_per_row: p @ 2..,
            ..
        } => return does_not_fit(format!("decompression maps one pipeline per row, not {p}")),
        _ => kind.mesh_shape(),
    };
    let (header, header_len) = StreamHeader::read_prefix(&compressed.data)?;
    if header.header_width != HeaderWidth::W4 {
        return does_not_fit(
            "the decompression mapping needs wavelet-aligned (4-byte) block headers".into(),
        );
    }
    if !header.recipe.is_canonical() {
        return does_not_fit(format!(
            "the decompression kernels run only the canonical recipe, not `{}`",
            header.recipe
        ));
    }
    let payload = &compressed.data[header_len..];
    let codec = header.codec();
    let offsets = scan_block_offsets(&header, payload)?;

    // Exact max fixed length from the headers, and each row's count of
    // blocks per body extent.
    let mut max_f = 0u32;
    let mut per_row_blocks: Vec<Vec<Vec<u32>>> = vec![Vec::new(); rows];
    let mut per_row_bodies: Vec<BTreeMap<usize, usize>> = vec![BTreeMap::new(); rows];
    for (b, &off) in offsets.iter().enumerate() {
        let row = b % rows;
        let f = u32::from_le_bytes(payload[off..off + 4].try_into().expect("sized"));
        max_f = max_f.max(f);
        if f > 0 {
            let extent = body_words(&codec, f);
            *per_row_bodies[row].entry(extent).or_default() += 1;
        }
        let size = codec.encoded_size(f);
        let mut w = WaveletWriter::new();
        w.put_u32(f);
        w.put_bytes(&payload[off + 4..off + size]);
        per_row_blocks[row].push(w.finish());
    }

    let model = StageCostModel::calibrated();
    let stages = decompression_sub_stages(header.block_size, max_f, &model);
    let kinds: Vec<SubStageKind> = stages.iter().map(|s| s.kind).collect();
    let cycles: Vec<f64> = stages.iter().map(|s| s.cycles).collect();
    let groups = distribute_stages(&cycles, len);
    // Built once per stage group and shared by every row's PE of that group.
    let group_stages: Vec<Arc<[SubStageKind]>> = (0..len)
        .map(|g| groups.group(g).map(|i| kinds[i]).collect())
        .collect();
    let labels: Vec<Arc<str>> = (0..len)
        .map(|g| format!("stage group {g} working set").into())
        .collect();
    let frame = decomp_frame_words(header.block_size);

    let mut mesh = MappedMesh::new(
        format!("decompress {kind}"),
        options.mesh_config(rows, len),
        rows,
        len,
    );
    for (r, (row_blocks, bodies)) in per_row_blocks.into_iter().zip(per_row_bodies).enumerate() {
        let (first, n) = (PeId::new(r, 0), row_blocks.len());
        if n == 0 {
            continue;
        }
        for g in 0..len {
            let pe = PeId::new(r, g);
            let (in_color, in_extent, held) = if g == 0 {
                (colors::DATA, 1, 1 + body_words(&codec, max_f))
            } else {
                (inter_color(g - 1), frame, frame)
            };
            let out_color = (g + 1 < len).then(|| inter_color(g));
            if let Some(c) = out_color {
                mesh.route(pe, c, None, &[Direction::East]);
                mesh.route(
                    PeId::new(r, g + 1),
                    c,
                    Some(Direction::West),
                    &[Direction::Ramp],
                );
                mesh.declare_send(pe, c, frame, n, None);
            }
            // The largest frame the PE holds plus the block it emits.
            let working_set = 4 * (held + out_color.map_or(header.block_size, |_| frame));
            let program = DecompPipePe {
                stages: Arc::clone(&group_stages[g]),
                in_color,
                in_extent,
                out_color,
                is_first: g == 0,
                codec,
                eps: header.eps,
                blocks_remaining: n,
                pending_f: None,
                working_set,
                reserved: false,
            };
            mesh.declare_buffer(pe, working_set, Arc::clone(&labels[g]));
            // Only a first PE with a non-zero block ever runs the body task.
            let defined = 1 + usize::from(g == 0 && !bodies.is_empty());
            let program = Box::new(program);
            mesh.set_program(pe, program, &[tasks::RECV, tasks::RECV_BODY][..defined]);
            mesh.post_recv(pe, in_color, in_extent, tasks::RECV, n);
        }
        for (&extent, &count) in &bodies {
            mesh.declare_recv(first, colors::DATA, extent, count, tasks::RECV_BODY);
        }
        mesh.inject_blocks(first, colors::DATA, row_blocks, Time::ZERO);
    }
    Ok((mesh, header))
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

    fn pipe(rows: usize, pipeline_length: usize) -> StrategyKind {
        StrategyKind::Pipeline {
            rows,
            pipeline_length,
        }
    }

    fn run(c: &Compressed, kind: StrategyKind) -> DecompressRun {
        execute_decompress(kind, c, &SimOptions::default()).unwrap()
    }

    fn host(c: &Compressed) -> Vec<f32> {
        Codec::decompressor(Parallelism::Serial)
            .decompress(&c.data)
            .unwrap()
    }

    #[test]
    fn simulated_decompression_matches_host() {
        let data = wavy(32 * 33 + 9);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let c = Codec::new(cfg).compress(&data).unwrap();
        for rows in [1usize, 3, 8] {
            let run = run(&c, StrategyKind::RowParallel { rows });
            assert_eq!(run.restored, host(&c), "rows = {rows}");
        }
    }

    #[test]
    fn every_block_size_matches_host_and_verifies_clean() {
        // Planes narrower than a wavelet (block sizes 8–24, 40) pack several
        // per body wavelet: the body receive must take exactly the wavelets
        // the host injects, or the verifier finds the channel under-supplied.
        for block_size in [8usize, 16, 24, 40, 64] {
            let cfg = CereszConfig::new(ErrorBound::Rel(1e-3)).with_block_size(block_size);
            let c = Codec::new(cfg)
                .compress(&wavy(block_size * 21 + 5))
                .unwrap();
            for len in [1usize, 3] {
                let kind = pipe(2, len);
                let manifest = decompression_manifest(kind, &c).unwrap();
                let report = wse_verify::verify(&manifest);
                assert!(
                    report.diagnostics.is_empty(),
                    "{block_size}/{len}:\n{report}"
                );
                assert!(crate::analyze_mapping(&manifest).is_deadlock_free());
                assert_eq!(run(&c, kind).restored, host(&c), "{block_size}/{len}");
            }
        }
    }

    #[test]
    fn every_state_fits_its_frame() {
        // The worst case of each state, at the most planes a block can have.
        for l in [8usize, 16, 24, 32, 40, 64] {
            let f = BlockCodec::MAX_FIXED_LENGTH;
            let pb = l.div_ceil(8);
            let unshuffling = DecompressState::Unshuffling {
                f,
                signs: vec![0; pb],
                planes: vec![0; f as usize * pb],
                mags: vec![0; l],
                next_plane: 0,
            };
            for state in [
                unshuffling,
                DecompressState::Residuals(vec![0; l]),
                DecompressState::Quantized(vec![0; l]),
                DecompressState::Restored(vec![0.0; l]),
            ] {
                assert!(
                    state.to_wavelets().len() <= decomp_frame_words(l),
                    "{l}: {state:?}"
                );
            }
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
            &SimOptions::default(),
        )
        .unwrap();
        let decomp = run(&comp.compressed, StrategyKind::RowParallel { rows: 4 });
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
        let run = run(&c, pipe(2, 1));
        assert_eq!(run.restored.len(), data.len());
        assert_eq!(run.restored, host(&c));
    }

    #[test]
    fn pipelined_decompression_matches_host() {
        let data = wavy(32 * 36 + 3);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let c = Codec::new(cfg).compress(&data).unwrap();
        for len in [1usize, 2, 3, 4, 6] {
            let run = run(&c, pipe(2, len));
            assert_eq!(run.restored, host(&c), "length = {len}");
        }
    }

    #[test]
    fn one_pipeline_per_row_shapes_are_special_cases() {
        let c = Codec::new(CereszConfig::new(ErrorBound::Rel(1e-3)))
            .compress(&wavy(32 * 24))
            .unwrap();
        let multi = |pipeline_length, pipelines_per_row| StrategyKind::MultiPipeline {
            rows: 2,
            pipeline_length,
            pipelines_per_row,
        };
        let row = run(&c, StrategyKind::RowParallel { rows: 2 });
        assert_eq!(row.report, run(&c, pipe(2, 1)).report);
        assert_eq!(run(&c, pipe(2, 3)).report, run(&c, multi(3, 1)).report);
        let err = execute_decompress(multi(1, 2), &c, &SimOptions::default()).unwrap_err();
        assert!(matches!(err, WseError::DoesNotFit { .. }), "{err:?}");
    }

    #[test]
    fn pipelined_decompression_handles_zero_blocks() {
        let mut data = vec![0f32; 32 * 10];
        data.extend(wavy(32 * 10));
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-2));
        let c = Codec::new(cfg).compress(&data).unwrap();
        assert_eq!(run(&c, pipe(1, 3)).restored, host(&c));
    }

    #[test]
    fn rows_scale_decompression() {
        let data = wavy(32 * 256);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let c = Codec::new(cfg).compress(&data).unwrap();
        let t1 = run(&c, pipe(1, 1));
        let t8 = run(&c, pipe(8, 1));
        let speedup = t1.stats.finish_cycle.ticks() as f64 / t8.stats.finish_cycle.ticks() as f64;
        assert!((speedup - 8.0).abs() < 1.0, "speedup = {speedup}");
    }

    #[test]
    fn zero_rows_is_a_typed_error() {
        let c = Codec::new(CereszConfig::new(ErrorBound::Rel(1e-3)))
            .compress(&wavy(32 * 4))
            .unwrap();
        for (rows, len) in [(0, 1), (2, 0)] {
            let err = execute_decompress(pipe(rows, len), &c, &SimOptions::default()).unwrap_err();
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
        let err = execute_decompress(pipe(2, 1), &c, &SimOptions::default()).unwrap_err();
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
        let err = execute_decompress(pipe(2, 1), &c, &SimOptions::default()).unwrap_err();
        assert!(matches!(err, WseError::DoesNotFit { .. }), "{err:?}");
    }
}
