//! The stage-pipeline layout both directions share (§4.2–§4.3, Figs. 6
//! and 9).
//!
//! Each of `rows` PE rows carries `P` pipelines of `len` PEs. Blocks are
//! dealt round-robin over the rows, and each row's queue is padded to whole
//! rounds of `P`. A row's blocks all enter at its first PE. The **head**
//! (first PE) of each pipeline relays blocks eastward to the next head,
//! counting them, and claims one of its own once the downstream quota has
//! passed through (the `nblocks` counter of Fig. 9b). Within a round the
//! `j`-th injected block ends at pipeline `P−1−j`: the first-injected block
//! travels furthest. A pipeline's PEs pass block state eastward over
//! alternating colors, one frame per block, and its last PE emits.
//!
//! [`Layout::install`] lays down the routes, frame sends and injections, and
//! hands each PE's [`Place`] to the direction, which installs its
//! [`StageKernel`] there inside the shared [`PipelinePe`] program.

use std::collections::BTreeMap;
use std::sync::Arc;

use ceresz_core::plan::{StageGroups, SubStageKind};
use wse_sim::{Color, Direction, PeId, PeProgram, SimError, TaskCtx, TaskId, Time};

use crate::harness::{colors, tasks};
use crate::mapping::MappedMesh;

/// A stage group's sub-stages and working-set label, built once and shared
/// by that group's PE in every pipeline.
pub(crate) type StageGroup = (Arc<[SubStageKind]>, Arc<str>);

/// Every stage group of `groups` over the sub-stages `kinds`.
pub(crate) fn stage_groups(groups: &StageGroups, kinds: &[SubStageKind]) -> Vec<StageGroup> {
    (0..groups.len())
        .map(|g| {
            let stages = groups.group(g).map(|i| kinds[i]).collect();
            (stages, format!("stage group {g} working set").into())
        })
        .collect()
}

/// What a direction runs on a pipeline PE: the PE's stage group.
pub(crate) trait StageKernel: Send + 'static {
    /// Take a completed receive of `words` on `color`: the whole block, or
    /// `None` while a second receive the kernel posted is outstanding.
    fn arrive(
        &mut self,
        _ctx: &mut TaskCtx<'_>,
        _color: Color,
        words: Vec<u32>,
    ) -> Result<Option<Vec<u32>>, SimError> {
        Ok(Some(words))
    }

    /// Run the stage group on a block the PE claims, returning the words
    /// for the next PE of the pipeline or, at the last PE, for the host.
    fn compute(&mut self, ctx: &mut TaskCtx<'_>, block: Vec<u32>) -> Result<Vec<u32>, SimError>;
}

/// A pipeline PE's block counter: the `nblocks` of Fig. 9b. Of each round of
/// blocks reaching a head, the first `quota` go on over `out` to the heads
/// downstream and the next is the head's own. Every other PE has quota 0.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Relay {
    /// Relay color to the next head (unused when the quota is 0).
    pub out: Color,
    pub quota: usize,
    /// Blocks still to arrive: whole rounds of `quota + 1`.
    remaining: usize,
    /// Blocks of the current round still to go on before the PE's own (it
    /// fits in the padding after `out`).
    to_relay: u32,
}

impl Relay {
    /// The counter of a PE that receives `rounds` rounds.
    fn new(out: Color, quota: usize, rounds: usize) -> Self {
        Self {
            out,
            quota,
            remaining: rounds * (quota + 1),
            to_relay: Self::round_quota(quota),
        }
    }

    fn round_quota(quota: usize) -> u32 {
        u32::try_from(quota).expect("a row holds fewer than 2^32 pipelines")
    }

    /// Count one arrived block: `true` when it is the PE's own to compute,
    /// `false` when it goes on over [`Relay::out`].
    pub fn claims(&mut self) -> bool {
        self.remaining -= 1;
        if self.to_relay > 0 {
            self.to_relay -= 1;
            return false;
        }
        self.to_relay = Self::round_quota(self.quota);
        true
    }
}

/// The one program of every pipeline PE. It reserves the working set on
/// first activation (§4.4), counts the arriving blocks, relays those that
/// are not its own, runs its kernel on the others and forwards the result,
/// and re-posts the receive while blocks remain.
pub(crate) struct PipelinePe<K> {
    kernel: K,
    in_color: Color,
    /// Extent of the receive that starts each block.
    in_extent: usize,
    /// The next PE of the pipeline, or `None` at the last PE, which emits.
    out_color: Option<Color>,
    relay: Relay,
    working_set: usize,
    reserved: bool,
}

impl<K: StageKernel> PeProgram for PipelinePe<K> {
    fn on_task(&mut self, ctx: &mut TaskCtx<'_>, _: TaskId) -> Result<(), SimError> {
        if !self.reserved {
            ctx.mem_alloc(self.working_set)?;
            self.reserved = true;
        }
        let words = ctx.take_received(self.in_color);
        let Some(block) = self.kernel.arrive(ctx, self.in_color, words)? else {
            return Ok(());
        };
        if self.relay.claims() {
            let output = self.kernel.compute(ctx, block)?;
            match self.out_color {
                Some(color) => ctx.send_async(color, output, None),
                None => ctx.emit(output),
            }
        } else {
            // Pass the block along for the pipelines on the right (Fig. 9b,
            // the relay branch): a fabric-to-fabric move.
            ctx.send_async(self.relay.out, block, None);
        }
        if self.relay.remaining > 0 {
            ctx.recv_async(self.in_color, self.in_extent, tasks::RECV);
        }
        Ok(())
    }
}

/// One PE's place in the layout, as the direction's installer sees it.
pub(crate) struct Place<'a> {
    pub pe: PeId,
    /// Position in the pipeline, which is also the PE's stage group; the
    /// head is 0.
    pub group: usize,
    /// Color the PE's blocks arrive on.
    pub in_color: Color,
    /// Color to the next PE of the pipeline; `None` at the last PE.
    pub out_color: Option<Color>,
    /// The PE's block counter.
    pub relay: Relay,
    /// Blocks the PE claims: one per round.
    pub rounds: usize,
    /// The row's block queue, in rounds of `pipelines`.
    queue: &'a [Vec<u32>],
    pipelines: usize,
}

impl<'a> Place<'a> {
    /// Entry `j`: how many of the row's blocks at round positions `0..=j`
    /// have each length, over every round. The head of quota `q` receives
    /// positions `0..=q` and relays those before `q`, so entries `q` and
    /// `q − 1` hold its arrivals and relays. One pass over the queue and
    /// one over the positions serve every head of the row.
    pub fn lengths_through(&self) -> Vec<BTreeMap<usize, usize>> {
        let mut tally = vec![BTreeMap::new(); self.pipelines];
        for round in self.queue.chunks(self.pipelines) {
            for (counts, block) in tally.iter_mut().zip(round) {
                *counts.entry(block.len()).or_insert(0) += 1;
            }
        }
        for j in 1..tally.len() {
            let (before, from) = tally.split_at_mut(j);
            for (&len, &n) in &before[j - 1] {
                *from[0].entry(len).or_insert(0) += n;
            }
        }
        tally
    }

    /// Install `kernel` here in a [`PipelinePe`] defining the tasks
    /// `defined`, with its `working_set` declared under `label` and its
    /// block receives of `extent` wavelets posted.
    pub fn install<K: StageKernel>(
        &self,
        mesh: &mut MappedMesh,
        kernel: K,
        extent: usize,
        (working_set, label): (usize, &Arc<str>),
        defined: &[TaskId],
    ) {
        let receives = self.relay.remaining;
        let program = PipelinePe {
            kernel,
            in_color: self.in_color,
            in_extent: extent,
            out_color: self.out_color,
            relay: self.relay,
            working_set,
            reserved: false,
        };
        mesh.declare_buffer(self.pe, working_set, Arc::clone(label));
        mesh.set_program(self.pe, Box::new(program), defined);
        mesh.post_recv(self.pe, self.in_color, extent, tasks::RECV, receives);
    }
}

/// `P` pipelines of `len` PEs on each of `rows` PE rows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    pub rows: usize,
    pub len: usize,
    pub pipelines: usize,
}

impl Layout {
    /// Deal `blocks` round-robin over the rows, then pad each row's queue
    /// with copies of `pad` to whole rounds.
    pub fn deal(&self, blocks: impl Iterator<Item = Vec<u32>>, pad: &[u32]) -> Vec<Vec<Vec<u32>>> {
        let mut queues = vec![Vec::new(); self.rows];
        for (b, block) in blocks.enumerate() {
            queues[b % self.rows].push(block);
        }
        for queue in &mut queues {
            while queue.len() % self.pipelines != 0 {
                queue.push(pad.to_vec());
            }
        }
        queues
    }

    /// Where block `b` surfaces: `(pe, i)` is the `i`-th emission of `pe`.
    /// Row `r = b mod rows`'s `s`-th block (`s = b / rows`) ends at pipeline
    /// `P − 1 − (s mod P)`, round `s / P`.
    pub fn slot(&self, b: usize) -> (PeId, usize) {
        let (r, s, p) = (b % self.rows, b / self.rows, self.pipelines);
        let last = (p - 1 - s % p) * self.len + self.len - 1;
        (PeId::new(r, last), s / p)
    }

    /// Install the layout of the dealt `queues`. For every pipeline of every
    /// row with blocks: the head's relay route, then for each PE the
    /// direction's `install` and the route to the next PE, declaring one
    /// `frame`-wavelet send per claimed block. Then the row's queue is
    /// injected at its first PE.
    pub fn install(
        &self,
        mesh: &mut MappedMesh,
        queues: Vec<Vec<Vec<u32>>>,
        frame: usize,
        mut install: impl FnMut(&mut MappedMesh, &Place<'_>),
    ) {
        let (len, p) = (self.len, self.pipelines);
        let relay_color = |k: usize| [colors::RELAY_A, colors::RELAY_B][k % 2];
        let inter_color = |g: usize| [colors::INTER_A, colors::INTER_B][g % 2];
        for (r, queue) in queues.into_iter().enumerate() {
            let rounds = queue.len() / p;
            if rounds == 0 {
                continue;
            }
            for k in 0..p {
                let (head, quota, out) = (k * len, p - 1 - k, relay_color(k));
                // The relay color runs from this head to the next head's
                // RAMP, through this pipeline's other PEs at the router level.
                if quota > 0 {
                    for c in head..=head + len {
                        let input = (c > head).then_some(Direction::West);
                        let output = if c < head + len {
                            Direction::East
                        } else {
                            Direction::Ramp
                        };
                        mesh.route(PeId::new(r, c), out, input, &[output]);
                    }
                }
                for g in 0..len {
                    let quota = if g == 0 { quota } else { 0 };
                    let place = Place {
                        pe: PeId::new(r, head + g),
                        group: g,
                        out_color: (g + 1 < len).then(|| inter_color(g)),
                        relay: Relay::new(out, quota, rounds),
                        rounds,
                        in_color: match g {
                            0 if k == 0 => colors::DATA,
                            0 => relay_color(k - 1),
                            _ => inter_color(g - 1),
                        },
                        queue: &queue,
                        pipelines: p,
                    };
                    install(mesh, &place);
                    if let Some(c) = place.out_color {
                        // RAMP → East at this PE; West → RAMP at the next.
                        let next = PeId::new(r, head + g + 1);
                        mesh.route(place.pe, c, None, &[Direction::East]);
                        mesh.route(next, c, Some(Direction::West), &[Direction::Ramp]);
                        mesh.declare_send(place.pe, c, frame, rounds, None);
                    }
                }
            }
            mesh.inject_blocks(PeId::new(r, 0), colors::DATA, queue, Time::ZERO);
        }
    }
}
