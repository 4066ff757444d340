//! Decompression mapped onto the mesh (§3 "Decompression Steps", §4.2 last
//! paragraph).
//!
//! [`execute_decompress`] supplies the kernel of the stage-pipeline layout
//! compression uses (the `layout` module), and runs through the same
//! [`MappedMesh`] and verify → run step. Every head uses the paper's
//! two-phase receive: it receives the block header (one wavelet under the
//! 4-byte CereSZ headers), learns the fixed length `f`, then receives
//! exactly the wavelets carrying the `1 + f` packed planes — no maximum
//! scan, which is why decompression is faster than compression. A block the
//! head does not claim goes on to the next head, header and body as one
//! send. The manifest declares a head's body receives and relay sends once
//! per distinct extent. Rows are padded with the encoded zero block, a lone
//! `f = 0` header wavelet.

use std::sync::Arc;

use ceresz_core::block::BlockCodec;
use ceresz_core::compressor::{CompressError, Compressed};
use ceresz_core::plan::{
    decompression_sub_stages, distribute_stages, StageCostModel, SubStageKind,
};
use ceresz_core::stream::{scan_block_offsets, StreamHeader};
use ceresz_core::HeaderWidth;
use wse_sim::{Color, RunReport, SimError, SimStats, TaskCtx};

use crate::compress_map::kernel_error;
use crate::engine::SimOptions;
use crate::error::WseError;
use crate::harness::{reuse_for, tasks};
use crate::kernels::DecompressState;
use crate::layout::{stage_groups, StageKernel};
use crate::mapping::{run_verified, MappedMesh};
use crate::strategy::StrategyKind;
use crate::wire::{WaveletReader, WaveletWriter};

/// Frame size for inter-PE transfers of decompression state: the largest
/// state of a block with at most `max_f` planes — tag, `f` and next plane,
/// the sign plane, `max_f` bit-planes and the `l` magnitudes.
fn decomp_frame_words(codec: &BlockCodec, max_f: u32) -> usize {
    let plane_words = |planes: usize| (planes * codec.plane_bytes()).div_ceil(4);
    3 + plane_words(1) + plane_words(max_f as usize) + codec.block_size()
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

/// The decompression kernel of one pipeline PE (strategy 2 applied to
/// decompression, §4.2 last paragraph: the reverse Bit-shuffle splits per
/// byte/plane, the prefix sum and dequantization multiply are indivisible).
struct DecompPipePe {
    /// Sub-stages this PE executes, shared by every PE of its stage group.
    stages: Arc<[SubStageKind]>,
    /// Wavelets of an inter-PE state frame.
    frame: usize,
    /// The head parses encoded blocks with the two-phase receive.
    is_first: bool,
    /// The last PE finishes the block and emits the restored values.
    last: bool,
    codec: BlockCodec,
    eps: f64,
    /// The fixed length whose body receive is outstanding.
    pending_f: Option<u32>,
}

impl StageKernel for DecompPipePe {
    fn arrive(
        &mut self,
        ctx: &mut TaskCtx<'_>,
        color: Color,
        words: Vec<u32>,
    ) -> Result<Option<Vec<u32>>, SimError> {
        if let Some(f) = self.pending_f.take() {
            return Ok(Some(std::iter::once(f).chain(words).collect()));
        }
        let f = words[0];
        if !self.is_first || f == 0 {
            return Ok(Some(words));
        }
        if f > BlockCodec::MAX_FIXED_LENGTH {
            let corrupt = CompressError::CorruptHeader { fixed_length: f };
            return Err(kernel_error(ctx.pe(), corrupt));
        }
        // The header's fixed length says how many body wavelets follow.
        self.pending_f = Some(f);
        ctx.recv_async(color, body_words(&self.codec, f), tasks::RECV_BODY);
        Ok(None)
    }

    fn compute(&mut self, ctx: &mut TaskCtx<'_>, block: Vec<u32>) -> Result<Vec<u32>, SimError> {
        let (l, pe) = (self.codec.block_size(), ctx.pe());
        let truncated = |_| kernel_error(pe, CompressError::Truncated);
        let mut state = if !self.is_first {
            DecompressState::from_wavelets(&block, l).map_err(truncated)?
        } else if block[0] == 0 {
            ctx.begin_stage("zero-fill");
            ctx.charge(wse_sim::Op::MemSet, l as u64);
            DecompressState::Restored(vec![0.0; l])
        } else {
            let size = self.codec.encoded_size(block[0]);
            let bytes = WaveletReader::new(&block)
                .get_bytes(size)
                .map_err(truncated)?;
            let parsed = DecompressState::from_encoded(&bytes, &self.codec, self.eps, ctx);
            parsed.map_err(|e| kernel_error(pe, e))?.0
        };
        for &stage in self.stages.iter() {
            if state.can_apply(stage) {
                state = state
                    .apply(stage, self.eps, ctx)
                    .map_err(|e| kernel_error(pe, e))?;
            }
        }
        if self.last {
            let restored = state
                .finish(self.eps, ctx)
                .map_err(|e| kernel_error(pe, e))?;
            return Ok(restored.iter().map(|v| v.to_bits()).collect());
        }
        let mut frame = state.write_wavelets(reuse_for(block, self.frame));
        debug_assert!(frame.len() <= self.frame, "state overflows its frame");
        frame.resize(self.frame, 0);
        Ok(frame)
    }
}

/// Simulate decompression of `compressed` on `kind`'s mesh, verified and
/// run under `options` exactly as [`crate::execute`] runs compression, in
/// the same layout: `P` pipelines per row whose heads relay. The stages are
/// split by Algorithm 1 over the decompression sub-stages at the stream's
/// exact maximum fixed length (known from the block headers — no sampling
/// needed on this side).
///
/// A zero row count, pipeline length or pipeline count returns
/// [`WseError::InvalidStrategy`]. A stream the kernels cannot decode —
/// 1-byte block headers, which are not wavelet-aligned, or a recipe other
/// than the canonical one — returns [`WseError::DoesNotFit`].
pub fn execute_decompress(
    kind: StrategyKind,
    compressed: &Compressed,
    options: &SimOptions,
) -> Result<DecompressRun, WseError> {
    let (mesh, header) = map_decompression(kind, compressed, options)?;
    let report = run_verified(mesh, options)?;
    let mut restored = vec![0f32; header.count];
    for (b, chunk) in restored.chunks_mut(header.block_size).enumerate() {
        let (pe, i) = kind.layout().slot(b);
        let words = report.outputs(pe).get(i).and_then(|w| w.get(..chunk.len()));
        for (v, &w) in chunk.iter_mut().zip(words.ok_or(CompressError::Truncated)?) {
            *v = f32::from_bits(w);
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
    // Each block as its header wavelet and packed body; the stream's exact
    // maximum fixed length comes from the headers.
    let mut max_f = 0u32;
    let blocks = scan_block_offsets(&header, payload)?
        .into_iter()
        .map(|off| {
            let f = u32::from_le_bytes(payload[off..off + 4].try_into().expect("sized"));
            max_f = max_f.max(f);
            let mut w = WaveletWriter::new();
            w.put_u32(f);
            w.put_bytes(&payload[off + 4..off + codec.encoded_size(f)]);
            w.finish()
        });
    let layout = kind.layout();
    let queues = layout.deal(blocks, &[0]);

    let stages = decompression_sub_stages(header.block_size, max_f, &StageCostModel::calibrated());
    let kinds: Vec<SubStageKind> = stages.iter().map(|s| s.kind).collect();
    let cycles: Vec<f64> = stages.iter().map(|s| s.cycles).collect();
    let groups = stage_groups(&distribute_stages(&cycles, layout.len), &kinds);
    let frame = decomp_frame_words(&codec, max_f);
    let (rows, cols) = kind.mesh_shape();
    let name = format!("decompress {kind}");
    let mut mesh = MappedMesh::new(name, options.mesh_config(rows, cols), rows, cols);
    // The heads' block lengths by round position, tallied once per row.
    let mut row_lengths = (usize::MAX, Vec::new());
    layout.install(&mut mesh, queues, frame, |mesh, place| {
        let (pe, g) = (place.pe, place.group);
        // A head's relay sends and body receives, counted per extent.
        let mut bodies = false;
        if g == 0 {
            if row_lengths.0 != pe.row {
                row_lengths = (pe.row, place.lengths_through());
            }
            let (quota, lengths) = (place.relay.quota, &row_lengths.1);
            if let Some(relayed) = quota.checked_sub(1).map(|j| &lengths[j]) {
                for (&words, &n) in relayed {
                    mesh.declare_send(pe, place.relay.out, words, n, None);
                }
            }
            for (&words, &n) in lengths[quota].range(2..) {
                mesh.declare_recv(pe, place.in_color, words - 1, n, tasks::RECV_BODY);
                bodies = true;
            }
        }
        // The largest frame the PE holds plus the block it emits.
        let (extent, held) = match g {
            0 => (1, 1 + body_words(&codec, max_f)),
            _ => (frame, frame),
        };
        let emits = place.out_color.map_or(header.block_size, |_| frame);
        let kernel = DecompPipePe {
            stages: Arc::clone(&groups[g].0),
            frame,
            is_first: g == 0,
            last: place.out_color.is_none(),
            codec,
            eps: header.eps,
            pending_f: None,
        };
        // Only a head that receives a non-zero block runs the body task.
        let defined = &[tasks::RECV, tasks::RECV_BODY][..1 + usize::from(bodies)];
        place.install(
            mesh,
            kernel,
            extent,
            (4 * (held + emits), &groups[g].1),
            defined,
        );
    });
    Ok((mesh, header))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::colors;
    use ceresz_core::{CereszConfig, Codec, ErrorBound, Recipe, StageSpec};

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
        Codec::decompressor().decompress(&c.data).unwrap()
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
        // A frame sized for a stream whose largest fixed length is `f`
        // holds every state of every block: the unshuffling state of an
        // `f`-plane block, the largest, fills it exactly.
        for l in [8usize, 16, 24, 32, 40, 64] {
            let codec = BlockCodec::new(l, HeaderWidth::W4);
            let pb = codec.plane_bytes();
            for f in 0..=BlockCodec::MAX_FIXED_LENGTH {
                let frame = decomp_frame_words(&codec, f);
                let unshuffling = DecompressState::Unshuffling {
                    f,
                    signs: vec![0; pb],
                    planes: vec![0; f as usize * pb],
                    mags: vec![0; l],
                    next_plane: 0,
                };
                assert_eq!(unshuffling.to_wavelets().len(), frame, "{l}/{f}");
                for state in [
                    DecompressState::Residuals(vec![0; l]),
                    DecompressState::Quantized(vec![0; l]),
                    DecompressState::Restored(vec![0.0; l]),
                ] {
                    assert!(state.to_wavelets().len() <= frame, "{l}/{f}: {state:?}");
                }
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
        assert_eq!(run(&c, multi(1, 2)).restored, host(&c));
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
    fn relayed_decompression_pads_rows_and_relays_zero_blocks() {
        // 23 blocks (every third one zero, the last one partial) over three
        // rows: 8, 8 and 7 blocks, none a whole number of rounds of 4 or 3
        // pipelines, so every row is padded with encoded zero blocks.
        let mut data = wavy(23 * 32 - 7);
        for block in data.chunks_mut(32).step_by(3) {
            block.fill(0.0);
        }
        let c = Codec::new(CereszConfig::new(ErrorBound::Rel(1e-3)))
            .compress(&data)
            .unwrap();
        assert!(c.stats.zero_blocks > 0 && c.stats.zero_blocks < c.stats.n_blocks);
        for (len, p) in [(2usize, 4usize), (1, 3), (3, 2)] {
            let kind = StrategyKind::MultiPipeline {
                rows: 3,
                pipeline_length: len,
                pipelines_per_row: p,
            };
            let manifest = decompression_manifest(kind, &c).unwrap();
            let report = wse_verify::verify(&manifest);
            assert!(report.diagnostics.is_empty(), "{kind}:\n{report}");
            assert!(
                crate::analyze_mapping(&manifest).is_deadlock_free(),
                "{kind}"
            );
            // A relay send of one wavelet is a zero block (its lone header)
            // passed on to a head downstream.
            let relays = [colors::RELAY_A, colors::RELAY_B];
            let sends: Vec<_> = (manifest.sends.iter())
                .filter(|s| relays.contains(&s.color))
                .collect();
            assert!(sends.iter().any(|s| s.words_per_send == 1), "{kind}");
            assert!(sends.iter().any(|s| s.words_per_send > 1), "{kind}");
            assert_eq!(run(&c, kind).restored, host(&c), "{kind}");
        }
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
