//! Compression mapped onto the mesh (§4.1–§4.3, Figs. 6 and 9).
//!
//! One mapper, `map_compression`, plants `P` stage pipelines of `len` PEs
//! on each of `rows` PE rows; the paper's three strategies are its
//! parameterizations (chosen in [`crate::StrategyKind`]'s dispatcher):
//!
//! - **Multi-pipeline** (§4.3) — `P` pipelines per row. Raw blocks enter at
//!   the row's first PE; the **head** PE of each pipeline relays blocks
//!   eastward to the next head, counting them, and claims a block of its
//!   own once the downstream quota has passed through (the `nblocks`
//!   counter of Fig. 9b). Heads interleave relaying with computing, which
//!   is why the relay term `TC · C1` appears in the per-round cost (Eq. 2).
//! - **Pipeline** (§4.2) — `P = 1`: the sub-stages (Multiplication,
//!   Addition, Lorenzo, Sign, Max, GetLength, one 1-bit Shuffle per plane)
//!   are split over the `len` PEs by Algorithm 1 and intermediate block
//!   state streams eastward over alternating colors.
//! - **Row-parallel** (§4.1) — `P = 1`, `len = 1`: each row's only PE runs
//!   the whole compression, so rows never communicate and throughput scales
//!   linearly with the row count (Fig. 7).
//!
//! The last PE of every pipeline finishes any planes its plan missed and
//! emits the encoded block. Blocks are dealt round-robin over rows; each
//! row's queue is padded with zero blocks to whole rounds of `P`. Within a
//! round the `j`-th injected block ends at pipeline `P−1−j` (the
//! first-injected block travels furthest).

use std::sync::Arc;

use ceresz_core::block::BlockCodec;
use ceresz_core::compressor::{CereszConfig, CompressError};
use ceresz_core::plan::{pipeline_memory_bytes, CompressionPlan, SubStageKind};
use ceresz_core::stream::StreamHeader;
use wse_sim::{Color, Direction, PeId, PeProgram, SimError, TaskCtx, TaskId, Time};

use crate::harness::{
    colors, emit_encoded, frame_words, pad_frame, parse_raw_block, raw_block_wavelets,
    split_blocks, tasks,
};
use crate::kernels::{Charger, CompressState, MemoEntry, NullCharger, RecordingCharger};
use crate::mapping::MappedMesh;
use crate::strategy::MapOutcome;

/// The color carrying intermediate state over link `i → i+1` of a pipeline.
#[must_use]
pub fn inter_color(link: usize) -> Color {
    if link.is_multiple_of(2) {
        colors::INTER_A
    } else {
        colors::INTER_B
    }
}

/// The relay color carrying raw blocks over head link `k → k+1`.
#[must_use]
pub fn relay_color(link: usize) -> Color {
    if link.is_multiple_of(2) {
        colors::RELAY_A
    } else {
        colors::RELAY_B
    }
}

/// Surface a kernel-level failure as a typed simulator error.
///
/// Entry points precheck the input (`ceresz_core::precheck_input`), so bad
/// data normally never reaches a PE; if it does anyway — a harness bug, not
/// a user error — the run aborts with a typed [`SimError::Kernel`] carrying
/// the PE and cause instead of panicking the host process.
pub(crate) fn kernel_error(pe: PeId, e: CompressError) -> SimError {
    SimError::Kernel {
        pe,
        message: e.to_string(),
    }
}

/// Run one stage group on its input words: parse them (a raw block at the
/// head, a padded state frame elsewhere), apply the group's stages, then
/// frame the state for the next PE or — at the last PE — finish any
/// missing planes and pack the encoded block for emission.
fn run_group<C: Charger>(
    stages: &[SubStageKind],
    input: &[u32],
    head: bool,
    last: bool,
    codec: &BlockCodec,
    eps: f64,
    charger: &mut C,
) -> Result<Vec<u32>, CompressError> {
    let mut state = if head {
        CompressState::Raw(parse_raw_block(input))
    } else {
        CompressState::from_wavelets(input, codec.block_size())
            .map_err(|_| CompressError::Truncated)?
    };
    for &stage in stages {
        if state.is_complete() {
            break;
        }
        state = state.apply(stage, eps, charger)?;
    }
    Ok(if last {
        emit_encoded(&state.finish(eps, charger)?.into_encoded(codec))
    } else {
        pad_frame(state.to_wavelets(), codec.block_size())
    })
}

/// One PE of a compression pipeline, running its stage group on every
/// block it claims. The head (group 0) receives raw blocks and first
/// relays `relay_quota` of them per round to the downstream heads
/// (Fig. 9b); every later PE receives framed state from its western
/// neighbour. The last PE emits.
struct StagePe {
    /// Sub-stages this PE executes, shared by every PE of its stage group.
    stages: Arc<[SubStageKind]>,
    /// Color the input arrives on.
    in_color: Color,
    /// Blocks to relay before claiming one (= pipelines downstream); 0
    /// means no downstream pipelines, as for every PE but a head.
    relay_quota: usize,
    /// Relay color to the next head (unused when `relay_quota` is 0).
    relay_out: Color,
    relayed: usize,
    /// Next PE of this pipeline, or `None` for the last PE (which emits).
    out_color: Option<Color>,
    /// Group 0 receives raw blocks; later PEs receive framed state.
    is_head: bool,
    codec: BlockCodec,
    eps: f64,
    receives_remaining: usize,
    /// Working-set bytes to reserve on first activation (§4.4).
    working_set: usize,
    reserved: bool,
    /// The recorded run of this stage group on the canonical zero block,
    /// shared by every pipeline of the mesh.
    zero_seed: Arc<MemoEntry>,
}

impl StagePe {
    fn in_extent(&self) -> usize {
        if self.is_head {
            self.codec.block_size()
        } else {
            frame_words(self.codec.block_size())
        }
    }

    fn forward(&self, ctx: &mut TaskCtx<'_>, words: Vec<u32>) {
        match self.out_color {
            Some(color) => ctx.send_async(color, words, None),
            None => ctx.emit(words),
        }
    }

    /// Process one claimed block.
    fn compute(&mut self, ctx: &mut TaskCtx<'_>, words: Vec<u32>) -> Result<(), SimError> {
        // A frame carrying an already-complete block needs nothing from this
        // stage group: forward it verbatim. Bit-identical to the slow path
        // (which would deserialize, apply no stage, re-serialize the same
        // words, and charge nothing), but allocation- and copy-free — on
        // zero-heavy workloads this is the majority of tail-stage tasks.
        if !self.is_head && self.out_color.is_some() && CompressState::frame_is_complete(&words) {
            self.forward(ctx, words);
            return Ok(());
        }
        // The zero block: identical input words mean the identical
        // computation (the programs are stateless per block), so charge and
        // output are replayed from the map-time run — bit-identical by
        // construction.
        if let Some(out) = self.zero_seed.replay(&words, ctx) {
            self.forward(ctx, out);
            return Ok(());
        }
        let pe = ctx.pe();
        let output = run_group(
            &self.stages,
            &words,
            self.is_head,
            self.out_color.is_none(),
            &self.codec,
            self.eps,
            ctx,
        )
        .map_err(|e| kernel_error(pe, e))?;
        self.forward(ctx, output);
        Ok(())
    }
}

impl PeProgram for StagePe {
    fn on_task(&mut self, ctx: &mut TaskCtx<'_>, task: TaskId) -> Result<(), SimError> {
        debug_assert_eq!(task, tasks::RECV);
        if !self.reserved {
            ctx.mem_alloc(self.working_set)?;
            self.reserved = true;
        }
        let words = ctx.take_received(self.in_color);
        if self.relayed < self.relay_quota {
            // Pass the block along for the pipelines on the right (Fig. 9b,
            // the relay branch): a fabric-to-fabric move, then wait for more.
            ctx.send_async(self.relay_out, words, None);
            self.relayed += 1;
        } else {
            self.relayed = 0;
            self.compute(ctx, words)?;
        }
        self.receives_remaining -= 1;
        if self.receives_remaining > 0 {
            ctx.recv_async(self.in_color, self.in_extent(), tasks::RECV);
        }
        Ok(())
    }
}

/// What every pipeline of one mapping shares: the plan's stage groups,
/// their working sets and buffer labels, and the zero-block replay chain.
struct PipelineSpec {
    /// Stage group of each pipeline PE, built once and shared by every
    /// pipeline's PE of that group.
    groups: Vec<Arc<[SubStageKind]>>,
    /// Working-set bytes of each pipeline PE.
    working_sets: Vec<usize>,
    /// Manifest label of each pipeline PE's working set.
    labels: Vec<Arc<str>>,
    /// Replay entry of each pipeline PE for the canonical all-zero
    /// block, recorded once at map time against a [`NullCharger`] (the
    /// charge log is charger-agnostic) and shared via `Arc` by every
    /// pipeline of the mesh. Sparse workloads and round padding use this
    /// exact block, so most of their tasks replay instead of running kernels.
    zero_seeds: Vec<Arc<MemoEntry>>,
    codec: BlockCodec,
    eps: f64,
    pipelines_per_row: usize,
}

impl PipelineSpec {
    fn new(plan: &CompressionPlan, codec: BlockCodec, eps: f64, pipelines_per_row: usize) -> Self {
        let len = plan.pipeline_length;
        let kinds: Vec<SubStageKind> = plan.stages.iter().map(|s| s.kind).collect();
        let groups: Vec<Arc<[SubStageKind]>> = (0..len)
            .map(|g| plan.groups.group(g).map(|i| kinds[i]).collect())
            .collect();
        let working_sets =
            pipeline_memory_bytes(&plan.groups, &kinds, codec.block_size(), plan.fixed_length);
        let mut zero_seeds = Vec::with_capacity(len);
        let mut input = raw_block_wavelets(&vec![0.0f32; codec.block_size()]);
        for (g, stages) in groups.iter().enumerate() {
            let mut null = NullCharger;
            let mut rec = RecordingCharger::new(&mut null);
            let output = run_group(stages, &input, g == 0, g + 1 == len, &codec, eps, &mut rec)
                .expect("the zero block compresses under any bound");
            let next = output.clone();
            zero_seeds.push(Arc::new(MemoEntry::record(input, rec, output)));
            input = next;
        }
        Self {
            groups,
            working_sets,
            labels: (0..len)
                .map(|g| format!("stage group {g} working set").into())
                .collect(),
            zero_seeds,
            codec,
            eps,
            pipelines_per_row,
        }
    }

    /// Install pipeline `k` of `row`: its relay routes (when pipelines run
    /// downstream of it), then each PE's intra-pipeline route, program,
    /// working set and receive, for `rounds` claimed blocks per PE. Every
    /// channel and buffer is declared in the mesh's manifest.
    fn build_pipeline(&self, mesh: &mut MappedMesh, row: usize, k: usize, rounds: usize) {
        let len = self.groups.len();
        let block_size = self.codec.block_size();
        let head_col = k * len;
        let head = PeId::new(row, head_col);
        let relay_quota = self.pipelines_per_row - 1 - k;
        let relay_in = if k == 0 {
            colors::DATA
        } else {
            relay_color(k - 1)
        };
        let relay_out = relay_color(k);
        if relay_quota > 0 {
            // Route the relay color from this head to the next head's RAMP,
            // passing through this pipeline's stage PEs at the router level.
            mesh.route(head, relay_out, None, &[Direction::East]);
            for c in head_col + 1..head_col + len {
                mesh.route(
                    PeId::new(row, c),
                    relay_out,
                    Some(Direction::West),
                    &[Direction::East],
                );
            }
            mesh.route(
                PeId::new(row, head_col + len),
                relay_out,
                Some(Direction::West),
                &[Direction::Ramp],
            );
            // One raw block forwarded per downstream pipeline per round.
            mesh.declare_send(head, relay_out, block_size, rounds * relay_quota, None);
        }
        for g in 0..len {
            let pe = PeId::new(row, head_col + g);
            let is_head = g == 0;
            let in_color = if is_head {
                relay_in
            } else {
                inter_color(g - 1)
            };
            let out_color = (g + 1 < len).then(|| inter_color(g));
            if let Some(c) = out_color {
                // RAMP → East at this PE; West → RAMP at the next.
                mesh.route(pe, c, None, &[Direction::East]);
                mesh.route(
                    PeId::new(row, head_col + g + 1),
                    c,
                    Some(Direction::West),
                    &[Direction::Ramp],
                );
                // The program sends one padded frame per block.
                mesh.declare_send(pe, c, frame_words(block_size), rounds, None);
            }
            let quota = if is_head { relay_quota } else { 0 };
            let receives = rounds * (quota + 1);
            let working_set = self.working_sets[g];
            let program = StagePe {
                stages: Arc::clone(&self.groups[g]),
                in_color,
                relay_quota: quota,
                relay_out,
                relayed: 0,
                out_color,
                is_head,
                codec: self.codec,
                eps: self.eps,
                receives_remaining: receives,
                working_set,
                reserved: false,
                zero_seed: Arc::clone(&self.zero_seeds[g]),
            };
            let extent = program.in_extent();
            mesh.declare_buffer(pe, working_set, Arc::clone(&self.labels[g]));
            mesh.set_program(pe, Box::new(program), &[tasks::RECV]);
            mesh.post_recv(pe, in_color, extent, tasks::RECV, receives);
        }
    }
}

/// Install the compression mapping on `mesh`: `pipelines_per_row` pipelines
/// of `plan.pipeline_length` PEs on each of `rows` rows, running `plan`'s
/// stage groups under the resolved bound `eps` (the caller has prechecked
/// `data`). Row `r`'s `s`-th block ends at pipeline `P − 1 − (s mod P)`,
/// round `s / P`, so block `b` (with `r = b mod rows`, `s = b / rows`)
/// surfaces as emission `s / P` of that pipeline's last PE.
pub(crate) fn map_compression(
    mesh: &mut MappedMesh,
    data: &[f32],
    cfg: &CereszConfig,
    eps: f64,
    rows: usize,
    pipelines_per_row: usize,
    plan: CompressionPlan,
) -> MapOutcome {
    let codec = BlockCodec::new(cfg.block_size, cfg.header);
    let header = StreamHeader {
        header_width: cfg.header,
        block_size: cfg.block_size,
        count: data.len(),
        eps,
        recipe: ceresz_core::recipe::Recipe::canonical(),
    };
    let p = pipelines_per_row;
    let len = plan.pipeline_length;

    // Deal blocks round-robin over rows, then pad each row to whole rounds.
    let blocks = split_blocks(data, cfg.block_size);
    let n_blocks = blocks.len();
    let mut per_row_blocks: Vec<Vec<Vec<u32>>> = vec![Vec::new(); rows];
    for (b, block) in blocks.iter().enumerate() {
        per_row_blocks[b % rows].push(raw_block_wavelets(block));
    }
    let zero_block = raw_block_wavelets(&vec![0.0f32; cfg.block_size]);
    for rb in &mut per_row_blocks {
        while rb.len() % p != 0 {
            rb.push(zero_block.clone());
        }
    }

    let spec = PipelineSpec::new(&plan, codec, eps, p);
    for (r, row_blocks) in per_row_blocks.into_iter().enumerate() {
        let rounds = row_blocks.len() / p;
        if rounds == 0 {
            continue;
        }
        for k in 0..p {
            spec.build_pipeline(mesh, r, k, rounds);
        }
        mesh.inject_blocks(PeId::new(r, 0), colors::DATA, row_blocks, Time::ZERO);
    }
    let slots = (0..n_blocks)
        .map(|b| {
            let (r, s) = (b % rows, b / rows);
            let k = p - 1 - (s % p);
            (PeId::new(r, k * len + len - 1), s / p)
        })
        .collect();
    MapOutcome {
        header,
        plan: Some(plan),
        slots,
    }
}

#[cfg(test)]
mod tests {
    use super::{run_group, PipelineSpec, StagePe};
    use crate::engine::SimOptions;
    use crate::error::WseError;
    use crate::harness::raw_block_wavelets;
    use crate::kernels::{ChargeCall, HostCharger, RecordingCharger};
    use crate::mapping::MappedMesh;
    use crate::strategy::{
        execute, execute_strategy, MapOutcome, Strategy, StrategyKind, StrategyRun,
    };
    use ceresz_core::block::BlockCodec;
    use ceresz_core::plan::{CompressionPlan, StageCostModel};
    use ceresz_core::{CereszConfig, Codec, ErrorBound, Parallelism};
    use wse_sim::{CostModel, Direction, SimError};

    fn wavy(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.011).sin() * 20.0 + (i as f32 * 0.003).cos() * 3.0)
            .collect()
    }

    fn run(kind: StrategyKind, data: &[f32], cfg: &CereszConfig) -> StrategyRun {
        execute(kind, data, cfg, &SimOptions::default()).unwrap()
    }

    fn row_par(rows: usize) -> StrategyKind {
        StrategyKind::RowParallel { rows }
    }

    fn pipe(rows: usize, pipeline_length: usize) -> StrategyKind {
        StrategyKind::Pipeline {
            rows,
            pipeline_length,
        }
    }

    fn multi(rows: usize, pipeline_length: usize, pipelines_per_row: usize) -> StrategyKind {
        StrategyKind::MultiPipeline {
            rows,
            pipeline_length,
            pipelines_per_row,
        }
    }

    #[test]
    fn every_shape_matches_reference_bitwise() {
        let data = wavy(32 * 57 + 11); // partial final block
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let reference = Codec::new(cfg).compress(&data).unwrap();
        let shapes = [
            row_par(1),
            row_par(4),
            row_par(8),
            pipe(2, 1),
            pipe(2, 3),
            pipe(2, 8),
            multi(2, 1, 4),
            multi(2, 2, 3),
            multi(2, 1, 1),
            multi(2, 3, 2),
        ];
        for kind in shapes {
            let run = run(kind, &data, &cfg);
            assert_eq!(run.compressed.data, reference.data, "{kind}");
        }
        let restored = Codec::decompressor(Parallelism::Serial)
            .decompress(&run(row_par(4), &data, &cfg).compressed.data)
            .unwrap();
        assert_eq!(restored.len(), data.len());
    }

    #[test]
    fn memo_replay_reproduces_a_fresh_run_of_every_group() {
        // Every zero-block task replays the map-time seed instead of running
        // the kernels, so replaying must be exact: for every stage group of
        // a 7-PE and a 1-PE plan, along the zero-block chain, a replay
        // charges the same log — stage markers included — for the same
        // time, and returns the same words as a fresh `run_group`.
        let data = wavy(32 * 16);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let eps = cfg.resolve_eps(&data).unwrap();
        let codec = BlockCodec::new(cfg.block_size, cfg.header);
        let model = StageCostModel::calibrated();
        let mut markers = 0;
        for len in [7, 1] {
            let plan = CompressionPlan::from_sampled(&data, cfg.bound, cfg.block_size, len, &model);
            let spec = PipelineSpec::new(&plan, codec, eps, 1);
            let mut input = raw_block_wavelets(&vec![0.0; cfg.block_size]);
            for (g, stages) in spec.groups.iter().enumerate() {
                let (head, last) = (g == 0, g + 1 == len);
                let mut fresh = HostCharger::new(CostModel::calibrated());
                let mut rec = RecordingCharger::new(&mut fresh);
                let output = run_group(stages, &input, head, last, &codec, eps, &mut rec);
                let log = rec.into_log();
                let output = output.unwrap();

                let mut replayed = HostCharger::new(CostModel::calibrated());
                let mut rec = RecordingCharger::new(&mut replayed);
                let words = spec.zero_seeds[g]
                    .replay(&input, &mut rec)
                    .expect("the zero chain replays");
                let what = format!("len {len}, group {g}");
                assert_eq!(rec.into_log(), log, "{what}: charge log");
                assert_eq!(replayed.time, fresh.time, "{what}: charged time");
                assert_eq!(words, output, "{what}: output words");
                markers += log
                    .iter()
                    .filter(|c| matches!(c, ChargeCall::Stage(_)))
                    .count();
                input = output;
            }
        }
        assert!(markers > 0, "no stage markers were compared");
    }

    #[test]
    fn stage_pe_stays_small() {
        // One `StagePe` per PE of the 745 500-PE wafer: the zero-block seed
        // is shared by `Arc`, so a program holds no per-PE replay state.
        assert!(std::mem::size_of::<StagePe>() <= 96);
    }

    #[test]
    fn one_pipeline_strategies_are_special_cases() {
        // Row-parallel and pipeline are the one-pipeline parameterizations
        // of the same mapper: identical timing, differing only in the SRAM
        // row-parallel reserves for the worst-case fixed length.
        let data = wavy(32 * 40);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let (a, b) = (
            run(pipe(3, 4), &data, &cfg),
            run(multi(3, 4, 1), &data, &cfg),
        );
        assert_eq!(a.compressed.data, b.compressed.data);
        assert_eq!(a.stats, b.stats);
        let (a, b) = (
            run(row_par(1), &data, &cfg),
            run(multi(1, 1, 1), &data, &cfg),
        );
        assert_eq!(a.compressed.data, b.compressed.data);
        assert_eq!(a.stats, b.stats);
        assert!(a.plan.is_none() && b.plan.is_some());
        let (worst, sampled) = (
            crate::mem_peaks(&a.report, 1, 1),
            crate::mem_peaks(&b.report, 1, 1),
        );
        assert!(worst[0] > sampled[0], "{worst:?} vs {sampled:?}");
    }

    #[test]
    fn more_rows_than_blocks_is_fine() {
        let data = wavy(40); // 2 blocks of 32
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let reference = Codec::new(cfg).compress(&data).unwrap();
        assert_eq!(run(row_par(8), &data, &cfg).compressed.data, reference.data);
    }

    #[test]
    fn unaligned_block_counts_are_padded() {
        let data = wavy(32 * 13 + 5); // 14 blocks over 3 rows × 4 pipelines
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-2));
        let reference = Codec::new(cfg).compress(&data).unwrap();
        assert_eq!(
            run(multi(3, 1, 4), &data, &cfg).compressed.data,
            reference.data
        );
    }

    #[test]
    fn pipeline_longer_than_stages_still_works() {
        // More PEs than sub-stages: trailing groups are empty pass-throughs.
        let data = wavy(32 * 8);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-2));
        let reference = Codec::new(cfg).compress(&data).unwrap();
        let run = run(pipe(1, 12), &data, &cfg);
        assert_eq!(run.compressed.data, reference.data);
        assert_eq!(run.plan.unwrap().groups.len(), 12);
    }

    #[test]
    fn rows_scale_nearly_linearly() {
        // Fig. 7: throughput grows linearly with the row count.
        let data = wavy(32 * 512);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let cycles = |rows| run(row_par(rows), &data, &cfg).stats.finish_cycle.ticks() as f64;
        let (t1, t4, t16) = (cycles(1), cycles(4), cycles(16));
        assert!((t1 / t4 - 4.0).abs() < 0.4, "4-row speedup = {}", t1 / t4);
        assert!(
            (t1 / t16 - 16.0).abs() < 1.6,
            "16-row speedup = {}",
            t1 / t16
        );
        let gbps = run(row_par(4), &data, &cfg).throughput_gbps();
        assert!(gbps.is_finite() && gbps > 0.0);
    }

    #[test]
    fn more_pipelines_means_more_throughput() {
        let data = wavy(32 * 512);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let p1 = run(multi(2, 1, 1), &data, &cfg).stats.finish_cycle;
        let p8 = run(multi(2, 1, 8), &data, &cfg).stats.finish_cycle;
        assert!(p8.ticks() * 4 < p1.ticks(), "p=1: {p1} vs p=8: {p8}");
        // Fig. 10a: relaying is linear in the column count, so doubling the
        // pipelines is still a clear net win at these sizes.
        let small = wavy(32 * 64);
        let p2 = run(multi(1, 1, 2), &small, &cfg).stats.finish_cycle;
        let p4 = run(multi(1, 1, 4), &small, &cfg).stats.finish_cycle;
        assert!(p4 < p2);
    }

    #[test]
    fn longer_pipeline_is_slower_at_equal_pe_count() {
        // Fig. 13 compares pipeline lengths at a FIXED total PE budget:
        // 8 columns as eight 1-PE pipelines vs two 4-PE pipelines.
        let data = wavy(32 * 256);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-4));
        let t1 = run(multi(2, 1, 8), &data, &cfg).stats.finish_cycle;
        let t4 = run(multi(2, 4, 2), &data, &cfg).stats.finish_cycle;
        assert!(t1 < t4, "len-1 {t1} vs len-4 {t4}");
    }

    #[test]
    fn oversized_blocks_exhaust_pe_sram() {
        // §4.4's memory constraint enforced twice over: the static verifier
        // rejects a 4096-element block's working set (raw double-buffer +
        // magnitudes + up to 31 planes) before simulation, and with
        // verification opted out the simulator's MemoryTracker still
        // reports the dynamic OutOfMemory.
        let data = wavy(4096 * 4);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3)).with_block_size(4096);
        match execute(row_par(2), &data, &cfg, &SimOptions::default()) {
            Err(WseError::MappingRejected { diagnostics, .. }) => {
                assert!(
                    diagnostics
                        .iter()
                        .any(|d| d.check == wse_verify::CheckKind::SramBudget),
                    "{diagnostics:?}"
                );
            }
            other => panic!("expected MappingRejected, got {other:?}"),
        }
        let opts = SimOptions::default().with_verify(false);
        match execute(row_par(2), &data, &cfg, &opts) {
            Err(WseError::Sim(SimError::OutOfMemory { pe, .. })) => assert_eq!(pe.col, 0),
            Err(other) => panic!("expected OutOfMemory, got {other:?}"),
            Ok(_) => panic!("expected OutOfMemory, got Ok"),
        }
    }

    /// A mapping whose first delivering rule into a stage PE is re-claimed,
    /// after the fact, to accept from the north instead of the west.
    struct Reclaimed(StrategyKind);

    impl Strategy for Reclaimed {
        fn name(&self) -> &'static str {
            "reclaimed"
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
            let outcome = self.0.map(mesh, data, cfg)?;
            let first = mesh
                .manifest()
                .routes
                .iter()
                .find(|r| r.rule.input == Some(Direction::West))
                .cloned()
                .expect("a stage stream enters from the west");
            let outputs: Vec<Direction> = first.rule.outputs.iter().collect();
            mesh.route(first.pe, first.color, Some(Direction::North), &outputs);
            Ok(outcome)
        }
    }

    #[test]
    fn reclaimed_route_is_judged_by_its_last_claim() {
        // The fabric keeps the last claim, so the stream the first claim
        // would deliver arrives from a direction the rule no longer accepts:
        // the verifier must locate the defect where the simulator trips.
        let data = wavy(32 * 8);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let strategy = Reclaimed(multi(1, 2, 1));
        let rejected = match execute_strategy(&strategy, &data, &cfg, &SimOptions::default()) {
            Err(WseError::MappingRejected { diagnostics, .. }) => diagnostics,
            other => panic!("expected MappingRejected, got {other:?}"),
        };
        let route = rejected
            .iter()
            .find(|d| d.check == wse_verify::CheckKind::RouteSoundness)
            .unwrap_or_else(|| panic!("no route diagnostic in {rejected:?}"));
        assert!(
            route
                .message
                .contains("arrives from Some(West) but the rule accepts Some(North)"),
            "{route}"
        );
        let opts = SimOptions::default().with_verify(false);
        match execute_strategy(&strategy, &data, &cfg, &opts) {
            Err(WseError::Sim(SimError::RouteMismatch { pe, color })) => {
                assert_eq!((Some(pe), Some(color)), (route.pe, route.color));
            }
            Err(other) => panic!("expected RouteMismatch, got {other:?}"),
            Ok(_) => panic!("expected RouteMismatch, got Ok"),
        }
    }
}
