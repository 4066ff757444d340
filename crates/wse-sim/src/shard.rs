//! The sharded discrete-event engine core.
//!
//! The mesh is partitioned into **shards of one PE row each**. Rows are the
//! natural cut for the CereSZ mappings: every data stream in the paper's
//! three strategies flows eastward, so all link traffic stays inside one
//! shard and shards never have to agree on link arbitration order. A shard
//! owns its row's PE states, its own event heap, and the occupancy clock of
//! every link *leaving* one of its PEs (including the southward/northward
//! links into neighbor rows).
//!
//! Streams are not stored as paths. A PE's first send on a color checks the
//! route with [`Fabric::walk`] (one bit per color on the PE remembers it);
//! every stream then follows the immutable rule table hop by hop
//! ([`Shard::stream_walk`]), and one crossing into another row travels as a
//! [`EventKind::Transit`] naming only the PE it has reached.
//!
//! All event timestamps are integer [`Time`] ticks, so the heap order — and
//! with it every tie-break — is exact integer comparison: there is no float
//! rounding anywhere in the timing path.
//!
//! Rows that a routing rule couples vertically (a `North`/`South` input or
//! output anywhere in the row) are merged into a **group** via union-find.
//! A singleton group free-runs its heap to exhaustion — byte-for-byte the
//! behavior of the serial engine restricted to that row. A multi-row group
//! synchronizes on **cycle-aligned event horizons**: windows `[C, C+1)`
//! cycles with `C` on the integer cycle grid. All shards process events
//! strictly inside the window, then meet at a barrier and exchange boundary
//! wavelets through per-shard mailboxes ([`BoundaryMsg`]). The outbox a
//! shard fills during a window is the write side of the mailbox; the
//! destination shard's heap, refilled at the barrier, is the read side —
//! the two are never touched in the same phase, which is what makes the
//! exchange race-free without locks.
//!
//! **Why a one-cycle horizon is safe (the lookahead argument):** any
//! influence a shard exerts on another travels over a fabric link, and the
//! *first* hop of every stream leaves the sending PE — a link the sender's
//! own shard owns. Reserving that hop advances the stream head by at least
//! one cycle, so a boundary message caused by an event at time `u ≥ C`
//! carries a timestamp `≥ u + 1 ≥ C + 1` cycles, past the end of the window
//! that produced it. Delivering mailboxes at the barrier therefore never
//! back-dates an event into a window a shard has already finished.
//!
//! **The two engines.** [`EngineMode::CycleStepped`] is the reference: it
//! visits *every* cycle window from the first event onward, stepping every
//! shard and exchanging mailboxes once per cycle — the classic cycle-stepped
//! simulator loop. [`EngineMode::EventDriven`] is the production engine: at
//! each round it jumps `C` straight to the cycle of the earliest pending
//! event anywhere in the group and only steps the shards that actually have
//! an event inside the window. Both produce identical results: a cycle
//! window with no events processes nothing, emits nothing into any outbox,
//! and assigns no sequence numbers — so skipping it is exact, not
//! approximate. The equivalence suite (`tests/determinism.rs`) pins the two
//! engines to bit-identical reports; the win is wall-clock only, and it is
//! largest on sparse workloads where most cycles are idle.
//!
//! Groups are independent by construction, so they run in parallel on
//! `std::thread::scope` threads; each group itself is stepped by a single
//! thread, so no simulation state is ever shared mutably. The merge in
//! [`crate::Simulator::run`] folds per-shard results in row order, making
//! the final [`crate::RunReport`] bit-identical at any thread count.

use std::collections::{BTreeMap, BinaryHeap};

use crate::error::SimError;
use crate::fabric::{Color, Fabric, LINK_SLOTS};
use crate::flight::{FlightShard, Record};
use crate::geom::{Direction, PeId};
use crate::pe::{PeState, PendingRecv};
use crate::program::{Effect, TaskCtx, TaskId};
use crate::sim::{EngineMode, MeshConfig};
use crate::time::Time;

/// One cycle: the event-horizon width of a coupled group. Matches the
/// one-cycle per-hop fabric latency that bounds cross-shard lookahead.
const HORIZON: Time = Time::from_cycles(1);

/// What happens when an event fires.
#[derive(Debug)]
pub(crate) enum EventKind {
    /// Run `task` on `pe` (or retry once the processor frees up).
    Activate { pe: PeId, task: TaskId },
    /// The last wavelet of a stream reaches `pe`'s RAMP.
    Deliver {
        pe: PeId,
        color: Color,
        data: Vec<u32>,
    },
    /// A stream crossing into this shard: its head wavelet reaches `pe` at
    /// the event time, and the walk continues from there along the rule
    /// table to the delivering PE. The route was checked when its source
    /// first sent on `color`, so the PE alone says where the stream goes.
    Transit {
        pe: PeId,
        color: Color,
        data: Vec<u32>,
    },
}

impl EventKind {
    /// Mesh row whose shard must process this event.
    pub(crate) fn target_row(&self) -> usize {
        self.target_pe().row
    }

    /// The PE this event concerns (for error reporting).
    pub(crate) fn target_pe(&self) -> PeId {
        match self {
            Self::Activate { pe, .. } | Self::Deliver { pe, .. } | Self::Transit { pe, .. } => *pe,
        }
    }
}

/// A scheduled event as the host builds it at setup time. Inside a shard
/// the payload lives in the event slab and only a [`HeapEntry`] goes through
/// the priority queue.
#[derive(Debug)]
pub(crate) struct Event {
    pub(crate) time: Time,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind,
}

/// What the heap actually orders: `(time, seq)` plus a slab slot holding the
/// payload. Keeping the entry at three words makes every sift a small move —
/// the payload ([`EventKind`] is several times larger, with a destructor)
/// never travels through the heap. Ordered earliest-first; `seq` breaks ties
/// FIFO, which is what makes runs reproducible. Both keys are integers, so
/// the order is total and exact by construction.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    time: Time,
    seq: u64,
    slot: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl HeapEntry {
    /// `(time, seq)` as one integer, so a heap comparison is a single
    /// compare instead of two dependent ones.
    fn key(&self) -> u128 {
        (u128::from(self.time.ticks()) << 64) | u128::from(self.seq)
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we need earliest-first.
        other.key().cmp(&self.key())
    }
}

/// A wavelet batch crossing a shard boundary, parked in the sending shard's
/// outbox until the group barrier swaps mailboxes.
#[derive(Debug)]
pub(crate) struct BoundaryMsg {
    pub(crate) time: Time,
    pub(crate) dest_row: usize,
    pub(crate) kind: EventKind,
}

/// Read-only engine state shared by every shard: configuration (cost model,
/// cycle limit, engine mode) and the routing tables. Both are immutable during
/// the run, so sharing across worker threads is free.
pub(crate) struct EngineCtx<'a> {
    pub(crate) config: &'a MeshConfig,
    pub(crate) fabric: &'a Fabric,
}

/// One mesh row's worth of simulation state.
pub(crate) struct Shard {
    pub(crate) row: usize,
    cols: usize,
    /// PE states of this row, indexed by column.
    pub(crate) pes: Vec<PeState>,
    events: BinaryHeap<HeapEntry>,
    /// Slab holding pending events' payloads; `free` lists vacated slots.
    /// Together with the pooled task buffers this makes the steady-state
    /// event cycle (pop, run task, push successors) allocation-free.
    slab: Vec<EventKind>,
    free: Vec<u32>,
    /// Local sequence counter; starts past every initial event's global seq
    /// so setup-time ordering is preserved within the shard.
    seq: u64,
    /// Occupancy clock of links leaving this shard's PEs, indexed
    /// `[col * LINK_SLOTS + dir.index()]` (every owned link leaves a PE of
    /// this row, so the column identifies the PE).
    links: Vec<Time>,
    /// Pooled effect buffer lent to each `TaskCtx`, so steady-state task
    /// execution allocates nothing per event.
    fx_buf: Vec<Effect>,
    /// Events popped from this shard's heap — identical across engines and
    /// thread counts because the event stream itself is.
    pub(crate) events_processed: u64,
    /// The flight recorder's accumulator (present only when the run is
    /// recorded; every record site below is one branch otherwise, keeping
    /// the hot path clean).
    pub(crate) flight: Option<FlightShard>,
    /// Boundary messages produced this window (mailbox write side).
    outbox: Vec<BoundaryMsg>,
    pub(crate) finish: Time,
    /// First error this shard hit, with the event time it fired at.
    pub(crate) error: Option<(Time, SimError)>,
}

impl Shard {
    pub(crate) fn new(
        row: usize,
        cols: usize,
        pes: Vec<PeState>,
        seq0: u64,
        flight_window: Option<Time>,
    ) -> Self {
        debug_assert_eq!(pes.len(), cols);
        Self {
            row,
            cols,
            pes,
            events: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: seq0,
            links: vec![Time::ZERO; cols * LINK_SLOTS],
            fx_buf: Vec::new(),
            events_processed: 0,
            flight: flight_window.map(|w| FlightShard::new(w, cols)),
            outbox: Vec::new(),
            finish: Time::ZERO,
            error: None,
        }
    }

    /// Seed an event carrying its setup-time global sequence number.
    pub(crate) fn push_initial(&mut self, ev: Event) {
        debug_assert!(ev.seq < self.seq);
        let slot = self.alloc_slot(ev.kind);
        self.events.push(HeapEntry {
            time: ev.time,
            seq: ev.seq,
            slot,
        });
    }

    fn push(&mut self, time: Time, kind: EventKind) {
        let slot = self.alloc_slot(kind);
        self.events.push(HeapEntry {
            time,
            seq: self.seq,
            slot,
        });
        self.seq += 1;
    }

    /// Park `kind` in the slab, reusing a vacated slot when one exists.
    fn alloc_slot(&mut self, kind: EventKind) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = kind;
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("event slab exceeds u32 slots");
                self.slab.push(kind);
                slot
            }
        }
    }

    /// Vacate `slot`, returning its payload. The tombstone left behind is a
    /// plain-old-data variant, so the swap is a fixed-size move.
    fn take_slot(&mut self, slot: u32) -> EventKind {
        self.free.push(slot);
        std::mem::replace(
            &mut self.slab[slot as usize],
            EventKind::Activate {
                pe: PeId::new(0, 0),
                task: TaskId(0),
            },
        )
    }

    /// Deliver a boundary message at the group barrier. Mailbox order (source
    /// shard, then emission order) assigns the tie-breaking sequence number.
    pub(crate) fn accept(&mut self, msg: BoundaryMsg) {
        debug_assert_eq!(msg.dest_row, self.row);
        self.push(msg.time, msg.kind);
    }

    /// Timestamp of the next pending event.
    pub(crate) fn next_time(&self) -> Option<Time> {
        self.events.peek().map(|ev| ev.time)
    }

    /// Drain the heap to exhaustion (singleton group: no neighbors to sync
    /// with, so no horizons are needed). Stops at the first error.
    pub(crate) fn run_free(&mut self, ctx: &EngineCtx<'_>) {
        while self.error.is_none() {
            let Some(entry) = self.events.pop() else {
                break;
            };
            let kind = self.take_slot(entry.slot);
            self.process(entry.time, kind, ctx);
        }
        debug_assert!(
            self.outbox.is_empty(),
            "a free-running shard produced boundary traffic; the row partition is wrong"
        );
    }

    /// The classic reference loop's per-PE sweep: ask every PE in the row
    /// whether it can fire a task at `now` — a posted receive satisfiable
    /// from the inbox, on a free processor. A polling simulator has no
    /// event queue, so it must re-ask this of every PE on every cycle; the
    /// event heap answers the same question directly (the sweep never finds
    /// work `run_until` would not fire), but the cycle-stepped engine keeps
    /// the sweep because this O(PEs)-per-cycle scan *is* the
    /// step-every-PE-every-cycle cost model the event-driven core replaces.
    /// Returns the number of fireable PEs so the call has an observable
    /// result the optimizer must compute.
    pub(crate) fn poll_all_pes(&self, now: Time) -> usize {
        self.pes
            .iter()
            .filter(|pe| {
                let recv_ready = pe.pending_count > 0
                    && pe.ports.iter().any(|(_, port)| {
                        port.pending.is_some_and(|p| port.inbox.len() >= p.extent)
                    });
                recv_ready && pe.busy_until <= now
            })
            .count()
    }

    /// Process events strictly before `end` (one event-horizon window).
    pub(crate) fn run_until(&mut self, end: Time, ctx: &EngineCtx<'_>) {
        while self.error.is_none() {
            match self.events.peek() {
                Some(ev) if ev.time < end => {}
                _ => break,
            }
            let entry = self.events.pop().expect("peeked event");
            let kind = self.take_slot(entry.slot);
            self.process(entry.time, kind, ctx);
        }
    }

    /// Process one popped event, then any activation it readied for
    /// immediate dispatch (see [`Shard::ready_at`]). Each dispatched
    /// activation counts as the event it would have been.
    fn process(&mut self, time: Time, kind: EventKind, ctx: &EngineCtx<'_>) {
        let mut next = Some(kind);
        while let Some(kind) = next.take() {
            self.events_processed += 1;
            match self.step(time, kind, ctx) {
                Ok(ready) => next = ready,
                Err(e) => self.error = Some((time, e)),
            }
        }
    }

    /// Schedule `kind` at the current event time `time`, or hand it back for
    /// immediate dispatch when it would be the very next event popped. The
    /// heap never holds an event earlier than the one being processed, and a
    /// fresh sequence number is larger than every pending one, so the pushed
    /// event would pop next exactly when nothing is pending at or before
    /// `time`. Dispatching it at once is then the same event, in the same
    /// place in the order; it still consumes its sequence number, so every
    /// later tie-break is unchanged.
    fn ready_at(&mut self, time: Time, kind: EventKind) -> Option<EventKind> {
        if self.events.peek().is_some_and(|next| next.time <= time) {
            self.push(time, kind);
            None
        } else {
            self.seq += 1;
            Some(kind)
        }
    }

    /// Index of `pe` within this shard, validating the column bound (the row
    /// bound was validated when the event was routed to this shard).
    fn local_index(&self, pe: PeId) -> Result<usize, SimError> {
        debug_assert_eq!(pe.row, self.row);
        if pe.col < self.cols {
            Ok(pe.col)
        } else {
            Err(SimError::BadPe { pe })
        }
    }

    /// Fire one event. Returns the activation a delivery readied when it
    /// is due for immediate dispatch.
    fn step(
        &mut self,
        time: Time,
        kind: EventKind,
        ctx: &EngineCtx<'_>,
    ) -> Result<Option<EventKind>, SimError> {
        if time > ctx.config.cycle_limit {
            return Err(SimError::CycleLimitExceeded {
                limit: ctx.config.cycle_limit,
            });
        }
        self.finish = self.finish.max(time);
        match kind {
            EventKind::Deliver { pe, color, data } => {
                let idx = self.local_index(pe)?;
                // Queue depth the recorder would have seen after enqueue —
                // computed up front so the zero-copy delivery fast path
                // (which never touches the queue) samples the same series.
                let depth = self.flight.is_some().then(|| {
                    let queued = self.pes[idx].ports.get(color).map_or(0, |p| p.inbox.len());
                    data.len() + queued
                });
                let completed = self.pes[idx].deliver(color, data);
                if let (Some(flight), Some(depth)) = (&mut self.flight, depth) {
                    flight.record(Record::RecvWait {
                        col: idx,
                        depth,
                        posted: completed.as_ref().map(|p| p.posted_at),
                        at: time,
                    });
                }
                if let Some(pending) = completed {
                    let task = pending.task;
                    return Ok(self.ready_at(time, EventKind::Activate { pe, task }));
                }
            }
            EventKind::Activate { pe, task } => {
                let idx = self.local_index(pe)?;
                let busy_until = self.pes[idx].busy_until;
                if busy_until > time {
                    // Processor occupied: retry when it frees up. Seq
                    // numbers keep same-time retries in FIFO order.
                    if let Some(flight) = &mut self.flight {
                        flight.record(Record::RampRetry {
                            col: idx,
                            at: time,
                            until: busy_until,
                        });
                    }
                    self.push(busy_until, EventKind::Activate { pe, task });
                } else {
                    let end = self.run_task(idx, pe, task, time, ctx)?;
                    self.finish = self.finish.max(end);
                }
            }
            EventKind::Transit { pe, color, data } => {
                // A stream entering from a neighbor shard: its head wavelet
                // reaches `pe` at the event time.
                self.stream_walk(time, pe, color, data, ctx.fabric);
            }
        }
        Ok(None)
    }

    /// Walk a stream from `pe`, whose rule accepted it, along the rule
    /// table, reserving each link this shard owns. Hands the stream off
    /// through the outbox at the first PE of a neighbor shard that forwards
    /// it, or schedules the delivery.
    ///
    /// Per hop the link is occupied for `n` cycles, the head wavelet
    /// advances one cycle, and contention delays the stream on each link;
    /// the last wavelet reaches the RAMP `n` cycles after the head.
    fn stream_walk(
        &mut self,
        start: Time,
        mut pe: PeId,
        color: Color,
        data: Vec<u32>,
        fabric: &Fabric,
    ) {
        let n = data.len() as u64;
        let n_time = Time::from_cycles(n);
        let mut head = start;
        while let Some((dir, next)) = fabric.hop(pe, color) {
            let slot = &mut self.links[pe.col * LINK_SLOTS + dir.index()];
            let link_start = head.max(*slot);
            *slot = link_start + n_time;
            if let Some(flight) = &mut self.flight {
                flight.record(Record::LinkWait {
                    from: pe,
                    to: next,
                    head,
                    start: link_start,
                    n,
                });
            }
            head = link_start + HORIZON; // per-hop latency for the head wavelet
            pe = next;
            if pe.row != self.row && fabric.hop(pe, color).is_some() {
                self.outbox.push(BoundaryMsg {
                    time: head,
                    dest_row: pe.row,
                    kind: EventKind::Transit { pe, color, data },
                });
                return;
            }
        }
        let delivered = head + n_time; // last wavelet arrives n cycles after head
        let kind = EventKind::Deliver { pe, color, data };
        if pe.row == self.row {
            self.push(delivered, kind);
        } else {
            self.outbox.push(BoundaryMsg {
                time: delivered,
                dest_row: pe.row,
                kind,
            });
        }
    }

    /// Execute one task activation; returns the task's end time.
    fn run_task(
        &mut self,
        idx: usize,
        pe: PeId,
        task: TaskId,
        start: Time,
        ctx: &EngineCtx<'_>,
    ) -> Result<Time, SimError> {
        let mut program = self.pes[idx]
            .program
            .take()
            .unwrap_or_else(|| panic!("{pe} activated task {task:?} but has no program"));
        let state = &mut self.pes[idx];
        // Lend the shard's pooled effect buffer (and the recorder's stage
        // log) to the task context; the buffer is reclaimed (and cleared)
        // below, so steady-state task execution allocates nothing. An error
        // abandons it — the run aborts anyway.
        let mut task_ctx = TaskCtx {
            pe,
            now: start,
            cost: &ctx.config.cost,
            memory: &mut state.memory,
            ports: &mut state.ports,
            charged: Time::ZERO,
            effects: std::mem::take(&mut self.fx_buf),
            stages: self.flight.as_mut().map(|flight| &mut flight.stages),
        };
        let result = program.on_task(&mut task_ctx, task);
        let charged = task_ctx.charged;
        let mut effects = std::mem::take(&mut task_ctx.effects);
        drop(task_ctx);
        self.pes[idx].program = Some(program);
        result?;

        let end = start + ctx.config.cost.task_overhead + charged;
        {
            let s = &mut self.pes[idx].stats;
            s.busy_cycles += end - start;
            s.tasks_run += 1;
            s.last_active = end;
        }
        if let Some(flight) = &mut self.flight {
            flight.record(Record::Task {
                pe,
                task,
                start,
                end,
                dispatch: ctx.config.cost.task_overhead,
            });
        }
        for effect in effects.drain(..) {
            match effect {
                Effect::Send {
                    color,
                    data,
                    activate,
                } => {
                    let n = data.len();
                    let state = &mut self.pes[idx];
                    state.stats.wavelets_sent += n as u64;
                    // Routing rules are immutable during the run, so a
                    // route checked on the PE's first send on a color stays
                    // sound; every stream then follows the table.
                    let bit = 1 << color.index();
                    if state.routes_checked & bit == 0 {
                        let walk = ctx.fabric.walk(pe, color).outcome();
                        walk.map_err(|fault| fault.sim_error(pe, color))?;
                        state.routes_checked |= bit;
                    }
                    self.stream_walk(end, pe, color, data, ctx.fabric);
                    let src_done = end + Time::from_cycles(n as u64);
                    if let Some(t) = activate {
                        self.push(src_done, EventKind::Activate { pe, task: t });
                    }
                }
                Effect::PostRecv {
                    color,
                    extent,
                    activate,
                } => {
                    let state = &mut self.pes[idx];
                    state.post_recv(
                        pe,
                        color,
                        PendingRecv {
                            extent,
                            task: activate,
                            posted_at: end,
                        },
                    );
                    // Satisfied immediately from the inbox: a zero-length
                    // recv-wait, so no stall span to record.
                    if let Some(pending) = state.try_complete_recv(color) {
                        self.push(
                            end,
                            EventKind::Activate {
                                pe,
                                task: pending.task,
                            },
                        );
                    }
                }
                Effect::Activate { task } => {
                    self.push(end, EventKind::Activate { pe, task });
                }
                Effect::Emit { data } => {
                    // Most PEs emit once: no spare slots on the first push.
                    let outputs = &mut self.pes[idx].outputs;
                    if outputs.capacity() == 0 {
                        outputs.reserve_exact(1);
                    }
                    outputs.push(data);
                }
            }
        }
        // Return the drained buffer to the pool for the next task.
        self.fx_buf = effects;
        self.pes[idx].busy_until = end;
        Ok(end)
    }
}

/// A set of shards coupled by vertical routes; the unit of parallelism.
pub(crate) struct Group {
    pub(crate) shards: Vec<Shard>,
    /// Reusable staging buffer for the barrier exchange, so a coupled group
    /// allocates nothing per round in steady state.
    inbound: Vec<BoundaryMsg>,
}

impl From<Vec<Shard>> for Group {
    fn from(shards: Vec<Shard>) -> Self {
        Self {
            shards,
            inbound: Vec::new(),
        }
    }
}

impl Group {
    /// Step the group to completion. One thread per group: under the
    /// event-driven engine a singleton free-runs its heap (no neighbors, no
    /// horizons); a coupled group synchronizes on cycle-aligned event
    /// horizons with a mailbox exchange at each barrier. The cycle-stepped
    /// reference always walks the horizon loop — visiting every cycle window
    /// even for a singleton, where the exchange is a guaranteed no-op — so
    /// it is the classic one-round-per-cycle simulator in *every* topology.
    /// Aborts at the first shard error (the merge step picks the globally
    /// earliest error across groups).
    pub(crate) fn run(&mut self, ctx: &EngineCtx<'_>) {
        match ctx.config.engine {
            EngineMode::EventDriven if self.shards.len() == 1 => self.shards[0].run_free(ctx),
            EngineMode::EventDriven => self.run_event_driven(ctx),
            EngineMode::CycleStepped => self.run_cycle_stepped(ctx),
        }
    }

    /// Earliest pending event anywhere in the group.
    fn earliest(&self) -> Option<Time> {
        self.shards.iter().filter_map(Shard::next_time).min()
    }

    /// The production engine: jump straight to the cycle window of the
    /// earliest pending event, step only the shards with work inside it,
    /// exchange mailboxes, repeat. Idle cycles are skipped in one jump and
    /// idle shards cost one heap peek per round.
    fn run_event_driven(&mut self, ctx: &EngineCtx<'_>) {
        while let Some(t) = self.earliest() {
            let end = t.floor_to_cycle() + HORIZON;
            for shard in &mut self.shards {
                if shard.next_time().is_some_and(|next| next < end) {
                    shard.run_until(end, ctx);
                    if shard.error.is_some() {
                        return;
                    }
                }
            }
            self.exchange();
        }
    }

    /// The reference engine: visit every cycle window from the first event
    /// onward, sweeping every PE of every shard (see [`Shard::poll_all_pes`])
    /// and exchanging mailboxes once per cycle — even through windows with
    /// no events, where the sweep finds nothing runnable and the exchange is
    /// a no-op (empty outboxes assign no sequence numbers). That per-cycle,
    /// per-PE cost is the loop the event-driven engine replaces, and why it
    /// may skip idle windows without changing any result.
    fn run_cycle_stepped(&mut self, ctx: &EngineCtx<'_>) {
        let Some(first) = self.earliest() else { return };
        let mut window = first.floor_to_cycle();
        loop {
            let end = window + HORIZON;
            for shard in &mut self.shards {
                std::hint::black_box(shard.poll_all_pes(window));
                shard.run_until(end, ctx);
                if shard.error.is_some() {
                    return;
                }
            }
            self.exchange();
            if self.earliest().is_none() {
                return;
            }
            window = end;
        }
    }

    /// Barrier: swap mailboxes. Draining outboxes in shard order and pushing
    /// into the destination heaps assigns boundary events a canonical
    /// (time, source shard, emission order) tie order — identical in both
    /// engine modes because both exchange at the same cycle boundaries.
    fn exchange(&mut self) {
        let mut inbound = std::mem::take(&mut self.inbound);
        for shard in &mut self.shards {
            inbound.append(&mut shard.outbox);
        }
        for msg in inbound.drain(..) {
            let dest = self
                .shards
                .iter_mut()
                .find(|s| s.row == msg.dest_row)
                .expect("boundary message into a row outside its group");
            dest.accept(msg);
        }
        self.inbound = inbound;
    }
}

/// Partition mesh rows into groups coupled by vertical routing rules, via
/// union-find. Any rule at a PE in row `r` whose input or outputs mention
/// `North`/`South` couples `r` with the neighbor row; everything else leaves
/// rows independent. Returns components in ascending order of their smallest
/// row, each with its rows ascending — independent of `HashMap` iteration
/// order, so the partition (and hence the run) is deterministic.
pub(crate) fn partition_rows(fabric: &Fabric, rows: usize) -> Vec<Vec<usize>> {
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        x
    }
    fn union(parent: &mut [usize], a: usize, b: usize) {
        let (ra, rb) = (find(parent, a), find(parent, b));
        // Root at the smaller row for a stable shape (size is irrelevant at
        // these scales).
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        parent[hi] = lo;
    }

    let mut parent: Vec<usize> = (0..rows).collect();
    for (pe, rule) in fabric.rules_iter() {
        if pe.row >= rows {
            continue;
        }
        let north =
            rule.input() == Some(Direction::North) || rule.outputs().contains(Direction::North);
        let south =
            rule.input() == Some(Direction::South) || rule.outputs().contains(Direction::South);
        if north && pe.row > 0 {
            union(&mut parent, pe.row, pe.row - 1);
        }
        if south && pe.row + 1 < rows {
            union(&mut parent, pe.row, pe.row + 1);
        }
    }
    let mut components: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for r in 0..rows {
        let root = find(&mut parent, r);
        components.entry(root).or_default().push(r);
    }
    components.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::RouteRule;

    fn fabric_with(rows: usize, rules: &[(PeId, &[Direction])]) -> Fabric {
        let mut f = Fabric::new(rows, 4);
        for (pe, outs) in rules {
            f.set_rule(*pe, Color::new(0), RouteRule::new(None, outs));
        }
        f
    }

    #[test]
    fn horizontal_rules_leave_rows_independent() {
        let f = fabric_with(
            4,
            &[
                (PeId::new(0, 0), &[Direction::East]),
                (PeId::new(2, 1), &[Direction::West, Direction::Ramp]),
            ],
        );
        assert_eq!(
            partition_rows(&f, 4),
            vec![vec![0], vec![1], vec![2], vec![3]]
        );
    }

    #[test]
    fn south_route_couples_adjacent_rows() {
        let f = fabric_with(4, &[(PeId::new(1, 0), &[Direction::South])]);
        assert_eq!(partition_rows(&f, 4), vec![vec![0], vec![1, 2], vec![3]]);
    }

    #[test]
    fn north_input_couples_upward() {
        let mut f = Fabric::new(3, 4);
        f.set_rule(
            PeId::new(2, 1),
            Color::new(3),
            RouteRule::new(Some(Direction::North), &[Direction::Ramp]),
        );
        assert_eq!(partition_rows(&f, 3), vec![vec![0], vec![1, 2]]);
    }

    #[test]
    fn chained_vertical_rules_merge_transitively() {
        let f = fabric_with(
            4,
            &[
                (PeId::new(0, 0), &[Direction::South]),
                (PeId::new(1, 0), &[Direction::South]),
                (PeId::new(2, 0), &[Direction::South]),
            ],
        );
        assert_eq!(partition_rows(&f, 4), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn boundary_rows_do_not_couple_off_mesh() {
        // North at row 0 / South at the last row point off the mesh; they
        // must not couple anything (resolution reports RouteOffMesh later).
        let f = fabric_with(
            2,
            &[
                (PeId::new(0, 0), &[Direction::North]),
                (PeId::new(1, 0), &[Direction::South]),
            ],
        );
        assert_eq!(partition_rows(&f, 2), vec![vec![0], vec![1]]);
    }

    #[test]
    fn event_heap_orders_by_time_then_seq() {
        let mut heap = BinaryHeap::new();
        let ev = |ticks: u64, seq: u64| HeapEntry {
            time: Time::from_ticks(ticks),
            seq,
            slot: 0,
        };
        heap.push(ev(2_000, 5));
        heap.push(ev(1_999, 9)); // one tick earlier wins despite higher seq
        heap.push(ev(2_000, 1));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.time.ticks(), e.seq))
            .collect();
        assert_eq!(order, vec![(1_999, 9), (2_000, 1), (2_000, 5)]);
    }
}
