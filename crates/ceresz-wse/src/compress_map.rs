//! Compression mapped onto the mesh (§4.1–§4.3, Figs. 6 and 9).
//!
//! `map_compression` supplies the kernel of the stage-pipeline layout both
//! directions share (the `layout` module). The paper's three strategies are
//! its parameterizations (chosen in [`crate::StrategyKind`]'s dispatcher):
//!
//! - **Multi-pipeline** (§4.3) — `P` pipelines per row whose heads
//!   interleave relaying with computing, which is why the relay term
//!   `TC · C1` appears in the per-round cost (Eq. 2).
//! - **Pipeline** (§4.2) — `P = 1`: the sub-stages (Multiplication,
//!   Addition, Lorenzo, Sign, Max, GetLength, one 1-bit Shuffle per plane)
//!   are split over the `len` PEs by Algorithm 1.
//! - **Row-parallel** (§4.1) — `P = 1`, `len = 1`: each row's only PE runs
//!   the whole compression, so throughput scales linearly with the row
//!   count (Fig. 7).
//!
//! The last PE of every pipeline finishes any planes its plan missed and
//! emits the encoded block. Rows are padded with zero blocks.

use std::sync::Arc;

use ceresz_core::block::BlockCodec;
use ceresz_core::compressor::{CereszConfig, CompressError};
use ceresz_core::plan::{pipeline_memory_bytes, CompressionPlan, SubStageKind};
use ceresz_core::stream::StreamHeader;
use wse_sim::{PeId, SimError, TaskCtx};

use crate::harness::{
    emit_encoded, frame_words, pad_frame, parse_raw_block, raw_block_wavelets, reuse_for,
    split_blocks, tasks,
};
use crate::kernels::{
    drop_spares, recycle, Charger, CompressState, MemoEntry, NullCharger, RecordingCharger,
};
use crate::layout::{stage_groups, Layout, StageGroup, StageKernel};
use crate::mapping::MappedMesh;
use crate::strategy::MapOutcome;

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
/// frame the state for the next PE in the input's own allocation or — at
/// the last PE — finish any missing planes and pack the encoded block for
/// emission.
fn run_group<C: Charger>(
    stages: &[SubStageKind],
    input: Vec<u32>,
    head: bool,
    last: bool,
    codec: &BlockCodec,
    eps: f64,
    charger: &mut C,
) -> Result<Vec<u32>, CompressError> {
    let l = codec.block_size();
    let mut state = if head {
        CompressState::Raw(parse_raw_block(&input))
    } else {
        CompressState::from_wavelets(&input, l).map_err(|_| CompressError::Truncated)?
    };
    for &stage in stages {
        if state.is_complete() {
            break;
        }
        state = state.apply(stage, eps, charger)?;
    }
    Ok(if last {
        let bytes = state.finish(eps, charger)?.into_encoded(codec);
        let emitted = emit_encoded(&bytes);
        recycle(bytes);
        emitted
    } else {
        let frame = pad_frame(state.write_wavelets(reuse_for(input, frame_words(l))), l);
        state.recycle();
        frame
    })
}

/// The compression kernel of one stage group, shared by that group's PE in
/// every pipeline and run on every block the PE claims: raw blocks at the
/// head (group 0), framed state from the western neighbour elsewhere.
struct StagePe {
    stages: Arc<[SubStageKind]>,
    is_head: bool,
    /// The last PE finishes the block and emits it encoded.
    last: bool,
    codec: BlockCodec,
    eps: f64,
    /// The recorded run of this stage group on the canonical zero block.
    zero_seed: MemoEntry,
}

impl Drop for StagePe {
    /// A mapping's kernels go when its run's PE programs drop, on the
    /// thread that stepped them (worker threads' spares go with the
    /// threads), so the run's spares go with them. Spares kept past the
    /// run pin heap space later mappings cannot reuse: on the full wafer
    /// they raised the peak resident set of a fourth round from 748 MB to
    /// 796 MB.
    fn drop(&mut self) {
        drop_spares();
    }
}

impl StageKernel for Arc<StagePe> {
    fn compute(&mut self, ctx: &mut TaskCtx<'_>, words: Vec<u32>) -> Result<Vec<u32>, SimError> {
        // A frame carrying an already-complete block needs nothing from this
        // stage group: forward it verbatim. Bit-identical to the slow path
        // (which would deserialize, apply no stage, re-serialize the same
        // words, and charge nothing), but allocation- and copy-free — on
        // zero-heavy workloads this is the majority of tail-stage tasks.
        if !self.is_head && !self.last && CompressState::frame_is_complete(&words) {
            return Ok(words);
        }
        // The zero block: identical input words mean the identical
        // computation (the programs are stateless per block), so charge and
        // output are replayed from the map-time run — bit-identical by
        // construction.
        let words = match self.zero_seed.replay(words, ctx) {
            Ok(out) => return Ok(out),
            Err(words) => words,
        };
        let (pe, s) = (ctx.pe(), &**self);
        run_group(&s.stages, words, s.is_head, s.last, &s.codec, s.eps, ctx)
            .map_err(|e| kernel_error(pe, e))
    }
}

/// The kernel of each stage group in `groups`. Each carries the replay of
/// its group's run on the canonical all-zero block, recorded here against a
/// [`NullCharger`] (the charge log is charger-agnostic). Sparse workloads
/// and round padding use this exact block, so most of their tasks replay
/// instead of running.
fn group_kernels(groups: &[StageGroup], codec: BlockCodec, eps: f64) -> Vec<Arc<StagePe>> {
    let mut input = raw_block_wavelets(&vec![0.0f32; codec.block_size()]);
    let mut kernels = Vec::with_capacity(groups.len());
    for (g, (stages, _)) in groups.iter().enumerate() {
        let (is_head, last) = (g == 0, g + 1 == groups.len());
        let mut null = NullCharger;
        let mut rec = RecordingCharger::new(&mut null);
        let output = run_group(stages, input.clone(), is_head, last, &codec, eps, &mut rec)
            .expect("the zero block compresses under any bound");
        let input = std::mem::replace(&mut input, output.clone());
        kernels.push(Arc::new(StagePe {
            stages: Arc::clone(stages),
            is_head,
            last,
            codec,
            eps,
            zero_seed: MemoEntry::record(input, rec, output),
        }));
    }
    kernels
}

/// Install the compression mapping on `mesh` in `layout`, whose pipelines
/// run `plan`'s stage groups under the resolved bound `eps` (the caller has
/// prechecked `data`).
pub(crate) fn map_compression(
    mesh: &mut MappedMesh,
    data: &[f32],
    cfg: &CereszConfig,
    eps: f64,
    layout: Layout,
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
    let blocks = split_blocks(data, cfg.block_size);
    let zero_block = raw_block_wavelets(&vec![0.0f32; cfg.block_size]);
    let queues = layout.deal(blocks.iter().map(|b| raw_block_wavelets(b)), &zero_block);
    let kinds: Vec<SubStageKind> = plan.stages.iter().map(|s| s.kind).collect();
    let sizes = pipeline_memory_bytes(&plan.groups, &kinds, cfg.block_size, plan.fixed_length);
    let groups = stage_groups(&plan.groups, &kinds);
    let kernels = group_kernels(&groups, codec, eps);
    let frame = frame_words(cfg.block_size);
    layout.install(mesh, queues, frame, |mesh, place| {
        let g = place.group;
        if place.relay.quota > 0 {
            // One raw block forwarded per downstream pipeline per round.
            let sends = place.rounds * place.relay.quota;
            mesh.declare_send(place.pe, place.relay.out, cfg.block_size, sends, None);
        }
        let extent = if g == 0 { cfg.block_size } else { frame };
        let (kernel, buffer) = (Arc::clone(&kernels[g]), (sizes[g], &groups[g].1));
        place.install(mesh, kernel, extent, buffer, &[tasks::RECV]);
    });
    MapOutcome {
        header,
        plan: Some(plan),
        slots: (0..blocks.len()).map(|b| layout.slot(b)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::{group_kernels, run_group, StagePe};
    use crate::engine::SimOptions;
    use crate::error::WseError;
    use crate::harness::{emit_encoded, frame_words, raw_block_wavelets};
    use crate::kernels::{ChargeCall, CompressState, HostCharger, RecordingCharger};
    use crate::layout::{stage_groups, PipelinePe};
    use crate::mapping::MappedMesh;
    use crate::strategy::{
        execute, execute_strategy, MapOutcome, Strategy, StrategyKind, StrategyRun,
    };
    use ceresz_core::block::BlockCodec;
    use ceresz_core::plan::{CompressionPlan, StageCostModel, SubStageKind};
    use ceresz_core::{CereszConfig, Codec, ErrorBound};
    use std::sync::Arc;
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
        let restored = Codec::decompressor()
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
            let kinds: Vec<_> = plan.stages.iter().map(|s| s.kind).collect();
            let kernels = group_kernels(&stage_groups(&plan.groups, &kinds), codec, eps);
            let mut input = raw_block_wavelets(&vec![0.0; cfg.block_size]);
            for (g, kernel) in kernels.iter().enumerate() {
                let (head, last) = (g == 0, g + 1 == len);
                let mut fresh = HostCharger::new(CostModel::calibrated());
                let mut rec = RecordingCharger::new(&mut fresh);
                let output = run_group(
                    &kernel.stages,
                    input.clone(),
                    head,
                    last,
                    &codec,
                    eps,
                    &mut rec,
                );
                let log = rec.into_log();
                let output = output.unwrap();

                let mut replayed = HostCharger::new(CostModel::calibrated());
                let mut rec = RecordingCharger::new(&mut replayed);
                let words = kernel
                    .zero_seed
                    .replay(input.clone(), &mut rec)
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

    /// A stage group run without reusing any buffer: fresh state vectors,
    /// a fresh serialization padded to the frame, a fresh emission.
    fn fresh_group(
        stages: &[SubStageKind],
        input: &[u32],
        (head, last): (bool, bool),
        codec: &BlockCodec,
        eps: f64,
        charger: &mut HostCharger,
    ) -> Vec<u32> {
        let l = codec.block_size();
        let mut state = if head {
            CompressState::Raw(input.iter().map(|&w| f32::from_bits(w)).collect())
        } else {
            CompressState::from_wavelets(input, l).unwrap()
        };
        for &stage in stages {
            if !state.is_complete() {
                state = state.apply(stage, eps, charger).unwrap();
            }
        }
        if last {
            emit_encoded(&state.finish(eps, charger).unwrap().into_encoded(codec))
        } else {
            let mut words = state.to_wavelets();
            words.resize(frame_words(l), 0);
            words
        }
    }

    #[test]
    fn reused_buffers_give_the_words_of_fresh_ones() {
        // Along the chain of a dense and of a zero block through every
        // stage group of 1-, 3- and 7-PE plans, at five block sizes: the
        // kernel, which frames each state in the buffer it received and
        // builds states from this thread's spares, charges the same time
        // and produces the same words as a run on fresh buffers. Frames
        // fill their allocation exactly; an emission's is its length
        // rounded up to a power of two.
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let model = StageCostModel::calibrated();
        for l in [8, 16, 24, 40, 64] {
            let data = wavy(l * 16);
            let eps = cfg.resolve_eps(&data).unwrap();
            let codec = BlockCodec::new(l, cfg.header);
            for len in [1, 3, 7] {
                let plan = CompressionPlan::from_sampled(&data, cfg.bound, l, len, &model);
                let kinds: Vec<_> = plan.stages.iter().map(|s| s.kind).collect();
                let groups = stage_groups(&plan.groups, &kinds);
                for block in [&data[l * 5..l * 6], &vec![0.0; l][..]] {
                    let mut input = raw_block_wavelets(block);
                    for (g, (stages, _)) in groups.iter().enumerate() {
                        let ends = (g == 0, g + 1 == groups.len());
                        let mut fresh = HostCharger::new(CostModel::calibrated());
                        let expected = fresh_group(stages, &input, ends, &codec, eps, &mut fresh);
                        let mut reused = HostCharger::new(CostModel::calibrated());
                        let words =
                            run_group(stages, input, ends.0, ends.1, &codec, eps, &mut reused)
                                .unwrap();
                        let what = format!("block {l}, len {len}, group {g}");
                        assert_eq!(words, expected, "{what}");
                        assert_eq!(reused.time, fresh.time, "{what}");
                        let room = if ends.1 {
                            words.len().next_power_of_two()
                        } else {
                            words.len()
                        };
                        assert_eq!(words.capacity(), room, "{what}");
                        input = words;
                    }
                }
            }
        }
    }

    #[test]
    fn stage_pe_stays_small() {
        // One program per PE of the 745 500-PE wafer: each stage group's
        // kernel, zero-block seed included, is shared by `Arc`, so a program
        // holds only its counters, colors and working set.
        assert!(std::mem::size_of::<PipelinePe<Arc<StagePe>>>() <= 96);
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
