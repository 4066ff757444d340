//! The discrete-event simulation engine: mesh setup, the sharded parallel
//! run loop, and the run report.
//!
//! All simulated time is the integer [`Time`] tick base — event timestamps,
//! cycle limits, and every counter in the report are exact tick counts, so
//! nothing in the timing path can drift. The engine partitions the mesh into
//! per-row shards grouped by vertical route coupling (see the `shard` module
//! for the full determinism argument) and steps independent groups on
//! `std::thread::scope` threads. The merge below folds per-shard results
//! back together in row order — same integer addition order, same
//! tie-breaking — so a [`RunReport`] and its [`FlightRecording`] are
//! bit-identical at any thread count and in either [`EngineMode`].

use crate::cost::CostModel;
use crate::error::{BlockedPe, BlockedRecv, SimError};
use crate::fabric::{Color, Fabric, RouteRule};
use crate::flight::{FlightConfig, FlightRecording};
use crate::geom::{Direction, PeId};
use crate::pe::{PeState, PendingRecv};
use crate::program::{PeProgram, TaskId};
use crate::shard::{partition_rows, EngineCtx, Event, EventKind, Group, Shard};
use crate::stats::{PeStats, SimStats};
use crate::time::Time;
use crate::PE_SRAM_BYTES;

/// Which engine steps coupled shard groups (singleton groups always
/// free-run their event heap; the modes only differ on coupled groups).
///
/// Both modes produce bit-identical [`RunReport`]s and flight recordings —
/// the cycle-stepped loop exists as the reference the event-driven engine is
/// checked against (`tests/determinism.rs`) and as the slow baseline the
/// benches quantify the event-driven win over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Jump between cycle-aligned event horizons, skipping idle cycles and
    /// idle shards (the default).
    #[default]
    EventDriven,
    /// Visit every cycle window from the first event onward, stepping all
    /// shards with a barrier per cycle — the classic cycle-stepped loop.
    CycleStepped,
}

/// Mesh and engine configuration.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// Number of PE rows.
    pub rows: usize,
    /// Number of PE columns.
    pub cols: usize,
    /// SRAM per PE in bytes (48 KB on the CS-2).
    pub sram_bytes: usize,
    /// Per-operation tick costs.
    pub cost: CostModel,
    /// Runaway guard: abort past this instant.
    pub cycle_limit: Time,
    /// Worker threads for the sharded engine: `1` (the default) runs
    /// serially, `0` means one per available core, and any larger request is
    /// clamped to the host's available parallelism unless `threads_exact`
    /// is set. The report is bit-identical at any setting; threads only
    /// change wall-clock time.
    pub threads: usize,
    /// Take `threads` literally instead of clamping to the host's available
    /// parallelism. Determinism sweeps set this to exercise real
    /// multi-threaded merges even on small hosts.
    pub threads_exact: bool,
    /// Engine stepping mode for coupled shard groups.
    pub engine: EngineMode,
    /// The flight recorder (off by default), the run's one observation
    /// switch: stall and link series, per-stage cycle attribution (see
    /// [`TaskCtx::begin_stage`]) and the task timeline. Purely
    /// observational: the report is bit-identical with it on or off, and
    /// the recording itself is bit-identical at any thread count.
    ///
    /// [`TaskCtx::begin_stage`]: crate::TaskCtx::begin_stage
    pub flight: Option<FlightConfig>,
}

impl MeshConfig {
    /// Config with CS-2 defaults (48 KB SRAM, calibrated cost model).
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "mesh must be non-empty");
        Self {
            rows,
            cols,
            sram_bytes: PE_SRAM_BYTES,
            cost: CostModel::calibrated(),
            cycle_limit: Time::from_cycles(1_000_000_000_000_000),
            threads: 1,
            threads_exact: false,
            engine: EngineMode::default(),
            flight: None,
        }
    }

    /// Override the cost model.
    #[must_use]
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Override the cycle limit.
    #[must_use]
    pub fn with_cycle_limit(mut self, limit: Time) -> Self {
        self.cycle_limit = limit;
        self
    }

    /// Set the worker thread count (`0` = one per available core; larger
    /// requests clamp to the host's available parallelism). Purely a
    /// wall-clock knob: results are bit-identical at any thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self.threads_exact = false;
        self
    }

    /// Set an exact worker thread count, bypassing the available-parallelism
    /// clamp. For determinism sweeps that must exercise real multi-threaded
    /// merges regardless of host size; `0` still resolves to one thread per
    /// available core.
    #[must_use]
    pub fn with_threads_exact(mut self, threads: usize) -> Self {
        self.threads = threads;
        self.threads_exact = true;
        self
    }

    /// Select the engine stepping mode for coupled shard groups.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// Enable the flight recorder with the given sampling config.
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

    /// Worker threads a run will actually use: the configured count with `0`
    /// resolved to — and, unless [`Self::threads_exact`] is set, clamped to —
    /// the machine's available parallelism. (Oversubscribing the sharded
    /// engine only adds scheduler churn; a 4-thread request on a 1-core host
    /// used to run *slower* than serial.)
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        match (self.threads, self.threads_exact) {
            (0, _) => available,
            (n, true) => n,
            (n, false) => n.min(available),
        }
    }
}

/// Results of a completed run.
#[derive(Debug)]
pub struct RunReport {
    outputs: Vec<Vec<Vec<u32>>>,
    pe_stats: Vec<PeStats>,
    stats: SimStats,
    cols: usize,
    /// Flight recording; present only when the recorder was on.
    flight: Option<FlightRecording>,
}

/// Equality covers what the run computed — outputs, per-PE counters and
/// statistics — and deliberately ignores the flight recording: recording
/// must never change a result, and the determinism suite pins exactly that
/// by comparing reports with the recorder on and off. The recording has
/// its own `PartialEq` for recording-vs-recording checks.
impl PartialEq for RunReport {
    fn eq(&self, other: &Self) -> bool {
        self.outputs == other.outputs
            && self.pe_stats == other.pe_stats
            && self.stats == other.stats
    }
}

impl RunReport {
    /// Data emitted by `pe`, in emission order.
    #[must_use]
    pub fn outputs(&self, pe: PeId) -> &[Vec<u32>] {
        &self.outputs[pe.index(self.cols)]
    }

    /// All emissions, ordered row-major by PE then emission order.
    #[must_use]
    pub fn all_outputs(&self) -> &[Vec<Vec<u32>>] {
        &self.outputs
    }

    /// Counters of `pe`.
    #[must_use]
    pub fn pe_stats(&self, pe: PeId) -> &PeStats {
        &self.pe_stats[pe.index(self.cols)]
    }

    /// Aggregate statistics.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The flight recording, if the recorder was on for the run.
    #[must_use]
    pub fn flight(&self) -> Option<&FlightRecording> {
        self.flight.as_ref()
    }

    /// Take the flight recording out of the report.
    #[must_use]
    pub fn take_flight(&mut self) -> Option<FlightRecording> {
        self.flight.take()
    }
}

/// The simulator: a mesh of PEs, a routing fabric, and an event queue.
pub struct Simulator {
    config: MeshConfig,
    fabric: Fabric,
    /// PE states stored row-major as one `Vec` per mesh row — the exact
    /// shape each shard owns, so building shards moves `rows` vector
    /// headers instead of copying every multi-KB `PeState` through a flat
    /// buffer (at wafer scale that copy is gigabytes).
    pes: Vec<Vec<PeState>>,
    /// Setup-time events in push order; their global sequence numbers are
    /// the tie-break within each shard's heap.
    initial: Vec<Event>,
    seq: u64,
}

impl Simulator {
    /// Create a simulator for the given mesh.
    #[must_use]
    pub fn new(config: MeshConfig) -> Self {
        let pes = (0..config.rows)
            .map(|_| {
                (0..config.cols)
                    .map(|_| PeState::new(config.sram_bytes))
                    .collect()
            })
            .collect();
        Self {
            fabric: Fabric::new(config.rows, config.cols),
            pes,
            initial: Vec::new(),
            seq: 0,
            config,
        }
    }

    /// Mesh configuration.
    #[must_use]
    pub fn config(&self) -> &MeshConfig {
        &self.config
    }

    fn pe_state(&mut self, pe: PeId) -> Result<&mut PeState, SimError> {
        if pe.row < self.config.rows && pe.col < self.config.cols {
            Ok(&mut self.pes[pe.row][pe.col])
        } else {
            Err(SimError::BadPe { pe })
        }
    }

    /// Install a routing rule for `color` at `pe`.
    pub fn route(
        &mut self,
        pe: PeId,
        color: Color,
        input: Option<Direction>,
        outputs: &[Direction],
    ) {
        self.fabric
            .set_rule(pe, color, RouteRule::new(input, outputs));
    }

    /// Install an eastward chain of `color` along `row` from `start_col` to
    /// `end_col`, delivering at `end_col`.
    pub fn route_east_chain(&mut self, row: usize, start_col: usize, end_col: usize, color: Color) {
        self.fabric.route_east_chain(row, start_col, end_col, color);
    }

    /// Assign `pe`'s program.
    pub fn set_program(&mut self, pe: PeId, program: Box<dyn PeProgram>) {
        let state = self.pe_state(pe).expect("program PE outside mesh");
        state.program = Some(program);
    }

    /// Post an initial input DSD on `pe` before the run starts.
    pub fn post_recv(&mut self, pe: PeId, color: Color, extent: usize, task: TaskId) {
        let state = self.pe_state(pe).expect("recv PE outside mesh");
        state.post_recv(
            pe,
            color,
            PendingRecv {
                extent,
                task,
                posted_at: Time::ZERO,
            },
        );
    }

    /// Schedule an explicit task activation at `time` (the host-side kick
    /// that starts a program).
    pub fn activate(&mut self, pe: PeId, task: TaskId, time: Time) {
        self.push_event(time, EventKind::Activate { pe, task });
    }

    /// Deliver `data` to `pe`'s RAMP on `color`, as if it streamed in over an
    /// off-mesh boundary link at one wavelet per cycle starting at `at`.
    pub fn inject_stream(&mut self, pe: PeId, color: Color, data: Vec<u32>, at: Time) {
        let arrive = at + Time::from_cycles(data.len() as u64);
        self.push_event(arrive, EventKind::Deliver { pe, color, data });
    }

    /// Inject a back-to-back sequence of blocks starting at `start`: block
    /// `i` finishes arriving at `start + (i+1)·len(block_i)` cycles.
    pub fn inject_blocks(&mut self, pe: PeId, color: Color, blocks: Vec<Vec<u32>>, start: Time) {
        let mut t = start;
        for block in blocks {
            let n = Time::from_cycles(block.len() as u64);
            self.push_event(
                t + n,
                EventKind::Deliver {
                    pe,
                    color,
                    data: block,
                },
            );
            t += n;
        }
    }

    fn push_event(&mut self, time: Time, kind: EventKind) {
        self.initial.push(Event {
            time,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
    }

    /// Run to completion.
    ///
    /// The result is bit-identical at any [`MeshConfig::threads`] setting
    /// and in either [`EngineMode`]; see the `shard` module for the
    /// partitioning and determinism argument.
    pub fn run(mut self) -> Result<RunReport, SimError> {
        let (rows, cols) = (self.config.rows, self.config.cols);

        // One shard per mesh row; each takes its row's PE states and starts
        // its sequence counter past every setup-time event.
        let flight_window = self.config.flight.map(|f| f.window);
        let mut shards: Vec<Shard> = std::mem::take(&mut self.pes)
            .into_iter()
            .enumerate()
            .map(|(r, row_pes)| Shard::new(r, cols, row_pes, self.seq, flight_window))
            .collect();

        // Distribute setup-time events. A target row off the mesh is the
        // same `BadPe` the serial engine raised when popping the event; keep
        // the earliest so error selection below stays time-ordered.
        let mut bad_event: Option<(Time, SimError)> = None;
        for ev in std::mem::take(&mut self.initial) {
            let row = ev.kind.target_row();
            if row < rows {
                shards[row].push_initial(ev);
            } else {
                let earlier = match &bad_event {
                    None => true,
                    Some((t, _)) => ev.time < *t,
                };
                if earlier {
                    let pe = ev.kind.target_pe();
                    bad_event = Some((ev.time, SimError::BadPe { pe }));
                }
            }
        }

        // Rows coupled by vertical routes must step in lockstep; everything
        // else is free to run ahead. Groups are the unit of parallelism.
        let components = partition_rows(&self.fabric, rows);
        let mut shard_slots: Vec<Option<Shard>> = shards.into_iter().map(Some).collect();
        let mut groups: Vec<Group> = components
            .iter()
            .map(|component| {
                component
                    .iter()
                    .map(|&r| shard_slots[r].take().expect("each row in one component"))
                    .collect::<Vec<Shard>>()
                    .into()
            })
            .collect();

        // With one worker — or a single shard group, whatever the requested
        // thread count — the scoped-thread machinery is pure overhead, so the
        // groups run inline on this thread: a `threads=8` request on a
        // one-group mesh costs exactly what `threads=1` costs.
        let threads = self.config.effective_threads().min(groups.len()).max(1);
        let ctx = EngineCtx {
            config: &self.config,
            fabric: &self.fabric,
        };
        if threads <= 1 {
            for group in &mut groups {
                group.run(&ctx);
            }
        } else {
            groups = run_groups_parallel(groups, threads, &ctx);
        }

        let mut shards: Vec<Shard> = groups.into_iter().flat_map(|g| g.shards).collect();
        shards.sort_by_key(|s| s.row);

        // Earliest error wins, ties broken by row — the serial engine's
        // global event order for every single-error run.
        let mut first_err: Option<(Time, usize, SimError)> = bad_event.map(|(t, e)| (t, rows, e));
        for shard in &mut shards {
            if let Some((t, e)) = shard.error.take() {
                let earlier = match &first_err {
                    None => true,
                    Some((bt, brow, _)) => t < *bt || (t == *bt && shard.row < *brow),
                };
                if earlier {
                    first_err = Some((t, shard.row, e));
                }
            }
        }
        if let Some((_, _, e)) = first_err {
            return Err(e);
        }

        // Queues drained: anything still waiting on input is deadlocked.
        // Each starved receive is annotated with its static route context
        // (which send origins could have reached it, if any) so the error
        // names the culprit instead of just the victim.
        let mut blocked: Vec<BlockedPe> = Vec::new();
        for shard in &shards {
            for (col, state) in shard.pes.iter().enumerate() {
                if state.pending_count == 0 {
                    continue;
                }
                let pe = PeId::new(shard.row, col);
                blocked.push(BlockedPe {
                    pe,
                    // The ports walk in color-id order — a canonical
                    // diagnostic order at any thread count.
                    waiting_on: state
                        .ports
                        .iter()
                        .filter_map(|(color, port)| {
                            let pending = port.pending?;
                            Some(BlockedRecv {
                                color,
                                missing: pending.extent.saturating_sub(port.inbox.len()),
                                feeders: self.fabric.origins_reaching(pe, color),
                                has_rule: self.fabric.rule(pe, color).is_some(),
                            })
                        })
                        .collect(),
                });
            }
        }
        if !blocked.is_empty() {
            return Err(SimError::Deadlock { blocked });
        }

        // Merge in row-major order. With integer ticks the sums are exact in
        // any order, but keeping the serial fold order also keeps every
        // derived artifact (the recording's timeline order) canonical.
        let finish = shards.iter().fold(Time::ZERO, |acc, s| acc.max(s.finish));
        let mut stats = SimStats {
            finish_cycle: finish,
            ..SimStats::default()
        };
        let mut outputs = Vec::with_capacity(rows * cols);
        let mut pe_stats = Vec::with_capacity(rows * cols);
        for shard in &mut shards {
            stats.events_processed += shard.events_processed;
            for state in &mut shard.pes {
                stats.total_busy_cycles += state.stats.busy_cycles;
                stats.total_tasks += state.stats.tasks_run;
                stats.total_wavelets += state.stats.wavelets_sent;
                if state.stats.tasks_run > 0 {
                    stats.active_pes += 1;
                }
                state.stats.mem_peak_bytes = state.memory.peak() as u64;
                outputs.push(std::mem::take(&mut state.outputs));
                pe_stats.push(state.stats);
            }
        }
        let flight = flight_window.map(|window| {
            let shards = shards
                .iter_mut()
                .map(|s| s.flight.take().expect("recorder was on"))
                .collect();
            FlightRecording::merge(window, rows, cols, shards)
        });
        Ok(RunReport {
            outputs,
            pe_stats,
            stats,
            cols,
            flight,
        })
    }
}

/// Run independent groups on `threads` scoped workers. Assignment is
/// longest-processing-time-first by shard count, which only affects
/// wall-clock: each group is stepped by exactly one thread and is
/// deterministic in isolation, so results never depend on the assignment.
fn run_groups_parallel(groups: Vec<Group>, threads: usize, ctx: &EngineCtx<'_>) -> Vec<Group> {
    let total = groups.len();
    let mut slots: Vec<Option<Group>> = groups.into_iter().map(Some).collect();
    let mut order: Vec<usize> = (0..total).collect();
    order.sort_by_key(|&i| {
        std::cmp::Reverse(slots[i].as_ref().map_or(0, |group| group.shards.len()))
    });
    let mut buckets: Vec<Vec<(usize, Group)>> = (0..threads).map(|_| Vec::new()).collect();
    let mut load = vec![0usize; threads];
    for i in order {
        let group = slots[i].take().expect("each group assigned once");
        let worker = (0..threads)
            .min_by_key(|&w| load[w])
            .expect("at least one worker");
        load[worker] += group.shards.len();
        buckets[worker].push((i, group));
    }
    let finished: Vec<Vec<(usize, Group)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|mut chunk| {
                scope.spawn(move || {
                    for (_, group) in &mut chunk {
                        group.run(ctx);
                    }
                    chunk
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let mut out: Vec<Option<Group>> = (0..total).map(|_| None).collect();
    for (i, group) in finished.into_iter().flatten() {
        out[i] = Some(group);
    }
    out.into_iter()
        .map(|group| group.expect("every group returns from its worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Op;
    use crate::program::TaskCtx;

    const C0: Color = Color::new(0);
    const T0: TaskId = TaskId(0);
    const T1: TaskId = TaskId(1);

    fn cyc(c: u64) -> Time {
        Time::from_cycles(c)
    }

    /// Program that computes for a fixed op count then emits a marker.
    struct Burn(u64);
    impl PeProgram for Burn {
        fn on_task(&mut self, ctx: &mut TaskCtx<'_>, _t: TaskId) -> Result<(), SimError> {
            ctx.charge(Op::I32Add, self.0);
            ctx.emit(vec![42]);
            Ok(())
        }
    }

    #[test]
    fn single_task_timing() {
        let cfg = MeshConfig::new(1, 1).with_cost(CostModel::unit());
        let mut sim = Simulator::new(cfg);
        sim.set_program(PeId::new(0, 0), Box::new(Burn(10)));
        sim.activate(PeId::new(0, 0), T0, Time::ZERO);
        let report = sim.run().unwrap();
        // 1 (overhead) + 10 (ops) = 11 cycles.
        assert_eq!(report.stats().finish_cycle, cyc(11));
        assert_eq!(report.outputs(PeId::new(0, 0)), &[vec![42]]);
        assert_eq!(report.pe_stats(PeId::new(0, 0)).tasks_run, 1);
    }

    #[test]
    fn busy_pe_queues_activations() {
        let cfg = MeshConfig::new(1, 1).with_cost(CostModel::unit());
        let mut sim = Simulator::new(cfg);
        sim.set_program(PeId::new(0, 0), Box::new(Burn(9)));
        sim.activate(PeId::new(0, 0), T0, Time::ZERO);
        sim.activate(PeId::new(0, 0), T0, cyc(1)); // lands while busy
        let report = sim.run().unwrap();
        // Two sequential 10-cycle tasks.
        assert_eq!(report.stats().finish_cycle, cyc(20));
        assert_eq!(report.pe_stats(PeId::new(0, 0)).tasks_run, 2);
    }

    /// Ping-pong across one hop: sender streams a block; receiver doubles it
    /// and emits.
    struct SendBlock;
    impl PeProgram for SendBlock {
        fn on_task(&mut self, ctx: &mut TaskCtx<'_>, _t: TaskId) -> Result<(), SimError> {
            ctx.send_async(C0, vec![1, 2, 3, 4], None);
            Ok(())
        }
    }
    struct DoubleAndEmit;
    impl PeProgram for DoubleAndEmit {
        fn on_task(&mut self, ctx: &mut TaskCtx<'_>, t: TaskId) -> Result<(), SimError> {
            assert_eq!(t, T1);
            let data = ctx.take_received(C0);
            ctx.charge(Op::I32Add, data.len() as u64);
            ctx.emit(data.iter().map(|v| v * 2).collect());
            Ok(())
        }
    }

    #[test]
    fn one_hop_pipeline() {
        let cfg = MeshConfig::new(1, 2).with_cost(CostModel::unit());
        let mut sim = Simulator::new(cfg);
        sim.route_east_chain(0, 0, 1, C0);
        sim.set_program(PeId::new(0, 0), Box::new(SendBlock));
        sim.set_program(PeId::new(0, 1), Box::new(DoubleAndEmit));
        sim.post_recv(PeId::new(0, 1), C0, 4, T1);
        sim.activate(PeId::new(0, 0), T0, Time::ZERO);
        let report = sim.run().unwrap();
        assert_eq!(report.outputs(PeId::new(0, 1)), &[vec![2, 4, 6, 8]]);
        // Send task: 1 cycle. Stream departs at 1, head at 2, done at 6.
        // Recv task: starts 6, 1 overhead + 4 ops = ends 11.
        assert_eq!(report.stats().finish_cycle, cyc(11));
    }

    #[test]
    fn vertical_hop_crosses_shard_boundary() {
        // Same shape as `one_hop_pipeline` but routed southward, so the
        // sender and receiver live in different shards of one coupled group
        // and the wavelets travel through the barrier mailbox. Timing must
        // match the horizontal case exactly.
        let cfg = MeshConfig::new(2, 1).with_cost(CostModel::unit());
        let mut sim = Simulator::new(cfg);
        sim.route(PeId::new(0, 0), C0, None, &[Direction::South]);
        sim.route(
            PeId::new(1, 0),
            C0,
            Some(Direction::North),
            &[Direction::Ramp],
        );
        sim.set_program(PeId::new(0, 0), Box::new(SendBlock));
        sim.set_program(PeId::new(1, 0), Box::new(DoubleAndEmit));
        sim.post_recv(PeId::new(1, 0), C0, 4, T1);
        sim.activate(PeId::new(0, 0), T0, Time::ZERO);
        let report = sim.run().unwrap();
        assert_eq!(report.outputs(PeId::new(1, 0)), &[vec![2, 4, 6, 8]]);
        assert_eq!(report.stats().finish_cycle, cyc(11));
    }

    #[test]
    fn transit_resumes_across_intermediate_row() {
        // Two southward hops: the stream is handed off row 0 → row 1 as a
        // transit message, reserves row 1's southward link, and delivers in
        // row 2. Send ends at 1; head advances one cycle per hop (2 hops);
        // last of 4 wavelets lands at 3 + 4 = 7; recv runs 7 → 12.
        let cfg = MeshConfig::new(3, 1).with_cost(CostModel::unit());
        let mut sim = Simulator::new(cfg);
        sim.route(PeId::new(0, 0), C0, None, &[Direction::South]);
        sim.route(
            PeId::new(1, 0),
            C0,
            Some(Direction::North),
            &[Direction::South],
        );
        sim.route(
            PeId::new(2, 0),
            C0,
            Some(Direction::North),
            &[Direction::Ramp],
        );
        sim.set_program(PeId::new(0, 0), Box::new(SendBlock));
        sim.set_program(PeId::new(2, 0), Box::new(DoubleAndEmit));
        sim.post_recv(PeId::new(2, 0), C0, 4, T1);
        sim.activate(PeId::new(0, 0), T0, Time::ZERO);
        let report = sim.run().unwrap();
        assert_eq!(report.outputs(PeId::new(2, 0)), &[vec![2, 4, 6, 8]]);
        assert_eq!(report.stats().finish_cycle, cyc(12));
    }

    /// Sends `blocks` on C0 from task T0 and, from task T1, emits the
    /// cycle its receive of `extent` wavelets completed at, posting the next
    /// receive while `left` remain.
    struct Stamp {
        blocks: Vec<Vec<u32>>,
        extent: usize,
        left: usize,
    }
    impl PeProgram for Stamp {
        fn on_task(&mut self, ctx: &mut TaskCtx<'_>, t: TaskId) -> Result<(), SimError> {
            if t == T0 {
                for block in self.blocks.drain(..) {
                    ctx.send_async(C0, block, None);
                }
            } else {
                let _ = ctx.take_received(C0);
                let cycle = ctx.now().ticks() / cyc(1).ticks();
                ctx.emit(vec![u32::try_from(cycle).unwrap()]);
                self.left -= 1;
                if self.left > 0 {
                    ctx.recv_async(C0, self.extent, T1);
                }
            }
            Ok(())
        }
    }

    /// Delivery cycles seen at `dest` when `src` sends `blocks` at cycle
    /// `at` along `route`, with free task dispatch so the stream leaves at
    /// `at` itself.
    fn delivery_cycles(
        (rows, cols): (usize, usize),
        route: impl FnOnce(&mut Simulator),
        (src, dest): (PeId, PeId),
        blocks: Vec<Vec<u32>>,
        at: u64,
    ) -> Vec<Vec<u32>> {
        let mut cost = CostModel::unit();
        cost.task_overhead = Time::ZERO;
        let mut sim = Simulator::new(MeshConfig::new(rows, cols).with_cost(cost));
        route(&mut sim);
        let (extent, left) = (blocks[0].len(), blocks.len());
        let receiver = Stamp {
            blocks: Vec::new(),
            extent,
            left,
        };
        // The sender goes in last: on a loopback its one PE does both.
        sim.set_program(dest, Box::new(receiver));
        sim.set_program(
            src,
            Box::new(Stamp {
                blocks,
                extent,
                left,
            }),
        );
        sim.post_recv(dest, C0, extent, T1);
        sim.activate(src, T0, cyc(at));
        sim.run().unwrap().outputs(dest).to_vec()
    }

    #[test]
    fn stream_timing_no_contention() {
        // 32 wavelets over 2 hops from cycle 0: the head reaches the
        // destination at 2, the last wavelet 32 cycles later.
        let (src, dest) = (PeId::new(0, 0), PeId::new(0, 2));
        let delivered = delivery_cycles(
            (1, 3),
            |sim| sim.route_east_chain(0, 0, 2, C0),
            (src, dest),
            vec![vec![7; 32]],
            0,
        );
        assert_eq!(delivered, [[34]]);
    }

    #[test]
    fn streams_serialize_on_shared_link() {
        // Two 10-wavelet streams leave at 0 on one link: the second waits
        // for the link until 10, its head lands at 11, its tail at 21.
        let delivered = delivery_cycles(
            (1, 2),
            |sim| sim.route_east_chain(0, 0, 1, C0),
            (PeId::new(0, 0), PeId::new(0, 1)),
            vec![vec![1; 10], vec![2; 10]],
            0,
        );
        assert_eq!(delivered, [[11], [21]]);
    }

    #[test]
    fn zero_length_path_delivers_locally() {
        // RAMP→RAMP on one PE: 8 wavelets sent at 5 land at 13.
        let pe = PeId::new(0, 0);
        let delivered = delivery_cycles(
            (1, 1),
            |sim| sim.route(pe, C0, None, &[Direction::Ramp]),
            (pe, pe),
            vec![vec![3; 8]],
            5,
        );
        assert_eq!(delivered, [[13]]);
    }

    #[test]
    fn route_turns_after_crossing_a_shard_boundary() {
        // East in row 0, south into row 1, east again, then deliver: the
        // stream is handed off at (1,1) and row 1 keeps walking the table.
        // Row 2 carries independent traffic, so two exact threads really
        // run two groups. Send ends at 1; head lands at 1 + 3 hops = 4; the
        // last of 4 wavelets at 8; the receive runs 8 → 13.
        let run = |threads: usize, engine: EngineMode| {
            let cfg = MeshConfig::new(3, 3)
                .with_cost(CostModel::unit())
                .with_threads_exact(threads)
                .with_engine(engine);
            let mut sim = Simulator::new(cfg);
            sim.route(PeId::new(0, 0), C0, None, &[Direction::East]);
            sim.route(
                PeId::new(0, 1),
                C0,
                Some(Direction::West),
                &[Direction::South],
            );
            sim.route(
                PeId::new(1, 1),
                C0,
                Some(Direction::North),
                &[Direction::East],
            );
            sim.route(
                PeId::new(1, 2),
                C0,
                Some(Direction::West),
                &[Direction::Ramp],
            );
            sim.route_east_chain(2, 0, 2, C0);
            for (src, dest) in [
                (PeId::new(0, 0), PeId::new(1, 2)),
                (PeId::new(2, 0), PeId::new(2, 2)),
            ] {
                sim.set_program(src, Box::new(SendBlock));
                sim.set_program(dest, Box::new(DoubleAndEmit));
                sim.post_recv(dest, C0, 4, T1);
                sim.activate(src, T0, Time::ZERO);
            }
            sim.run().unwrap()
        };
        let report = run(1, EngineMode::EventDriven);
        assert_eq!(report.outputs(PeId::new(1, 2)), &[vec![2, 4, 6, 8]]);
        assert_eq!(report.stats().finish_cycle, cyc(13));
        assert_eq!(run(2, EngineMode::EventDriven), report);
        assert_eq!(run(2, EngineMode::CycleStepped), report);
    }

    #[test]
    fn send_on_an_unrouted_color_fails_at_the_sender() {
        let cfg = MeshConfig::new(1, 2).with_cost(CostModel::unit());
        let mut sim = Simulator::new(cfg);
        sim.set_program(PeId::new(0, 1), Box::new(SendBlock));
        sim.activate(PeId::new(0, 1), T0, Time::ZERO);
        assert_eq!(
            sim.run().unwrap_err(),
            SimError::NoRoute {
                pe: PeId::new(0, 1),
                color: C0
            }
        );
    }

    #[test]
    fn injection_feeds_a_recv() {
        let cfg = MeshConfig::new(1, 1).with_cost(CostModel::unit());
        let mut sim = Simulator::new(cfg);
        sim.set_program(PeId::new(0, 0), Box::new(DoubleAndEmit));
        sim.post_recv(PeId::new(0, 0), C0, 4, T1);
        sim.inject_stream(PeId::new(0, 0), C0, vec![5, 6, 7, 8], Time::ZERO);
        let report = sim.run().unwrap();
        assert_eq!(report.outputs(PeId::new(0, 0)), &[vec![10, 12, 14, 16]]);
    }

    #[test]
    fn deadlock_is_reported_with_diagnostics() {
        let cfg = MeshConfig::new(1, 1).with_cost(CostModel::unit());
        let mut sim = Simulator::new(cfg);
        sim.set_program(PeId::new(0, 0), Box::new(DoubleAndEmit));
        sim.post_recv(PeId::new(0, 0), C0, 4, T1);
        sim.inject_stream(PeId::new(0, 0), C0, vec![5], Time::ZERO); // 3 short
        match sim.run() {
            Err(SimError::Deadlock { blocked }) => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].pe, PeId::new(0, 0));
                // One starved receive on C0, 3 wavelets short. The PE has no
                // routing rule for C0 (it was host-fed), and accordingly no
                // fabric sender could ever top it up.
                assert_eq!(blocked[0].waiting_on.len(), 1);
                let w = &blocked[0].waiting_on[0];
                assert_eq!((w.color, w.missing), (C0, 3));
                assert!(w.feeders.is_empty());
                assert!(!w.has_rule);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    /// Posts its receives from a task, so deliveries can land first; emits
    /// each completed buffer tagged with its color.
    struct PostLate(&'static [(u8, usize)]);
    impl PeProgram for PostLate {
        fn on_task(&mut self, ctx: &mut TaskCtx<'_>, t: TaskId) -> Result<(), SimError> {
            if t == T0 {
                for &(id, extent) in self.0 {
                    ctx.recv_async(Color::new(id), extent, TaskId(u16::from(id) + 1));
                }
            } else {
                let color = Color::new((t.0 - 1) as u8);
                let mut data = ctx.take_received(color);
                data.insert(0, u32::from(color.id()));
                ctx.emit(data);
            }
            Ok(())
        }
    }

    #[test]
    fn delivery_on_an_unposted_color_waits_for_its_receive() {
        // The stream lands at cycle 3, long before the receive is posted
        // (the kick at cycle 10): it queues on a port the delivery created,
        // and the later posting of that extent completes at once.
        let cfg = MeshConfig::new(1, 1).with_cost(CostModel::unit());
        let mut sim = Simulator::new(cfg);
        sim.set_program(PeId::new(0, 0), Box::new(PostLate(&[(9, 3)])));
        sim.inject_stream(PeId::new(0, 0), Color::new(9), vec![4, 5, 6], Time::ZERO);
        sim.activate(PeId::new(0, 0), T0, cyc(10));
        let report = sim.run().unwrap();
        assert_eq!(report.outputs(PeId::new(0, 0)), &[vec![9, 4, 5, 6]]);
        // Post task 10 → 11; the receive completes at 11, its task 11 → 12.
        assert_eq!(report.stats().finish_cycle, cyc(12));
    }

    #[test]
    fn receives_on_colors_posted_out_of_order_complete_independently() {
        let cfg = MeshConfig::new(1, 1).with_cost(CostModel::unit());
        let mut sim = Simulator::new(cfg);
        let pe = PeId::new(0, 0);
        sim.set_program(pe, Box::new(PostLate(&[(7, 1), (2, 2), (19, 3)])));
        sim.activate(pe, T0, Time::ZERO);
        // Arrivals in yet another order: 19 at cycle 13, 2 at 22, 7 at 31.
        sim.inject_stream(pe, Color::new(19), vec![190, 191, 192], cyc(10));
        sim.inject_stream(pe, Color::new(2), vec![20, 21], cyc(20));
        sim.inject_stream(pe, Color::new(7), vec![70], cyc(30));
        let report = sim.run().unwrap();
        assert_eq!(
            report.outputs(pe),
            &[vec![19, 190, 191, 192], vec![2, 20, 21], vec![7, 70]]
        );
    }

    #[test]
    fn deadlock_lists_starved_colors_in_id_order() {
        let cfg = MeshConfig::new(1, 1).with_cost(CostModel::unit());
        let mut sim = Simulator::new(cfg);
        let pe = PeId::new(0, 0);
        sim.set_program(pe, Box::new(PostLate(&[(19, 1), (7, 2), (2, 3)])));
        sim.activate(pe, T0, Time::ZERO);
        // Color 7 gets half its extent; 19 and 2 get nothing.
        sim.inject_stream(pe, Color::new(7), vec![1], cyc(5));
        match sim.run() {
            Err(SimError::Deadlock { blocked }) => {
                assert_eq!(blocked.len(), 1);
                let waiting: Vec<(u8, usize)> = blocked[0]
                    .waiting_on
                    .iter()
                    .map(|w| (w.color.id(), w.missing))
                    .collect();
                assert_eq!(waiting, [(2, 3), (7, 1), (19, 1)]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "double-posted a receive on color4")]
    fn double_posted_receive_panics() {
        let mut sim = Simulator::new(MeshConfig::new(1, 1));
        sim.post_recv(PeId::new(0, 0), Color::new(4), 1, T1);
        sim.post_recv(PeId::new(0, 0), Color::new(4), 1, T1);
    }

    #[test]
    fn deadlock_names_the_static_feeder() {
        // The sender streams 4 wavelets but the receiver expects 6: the
        // deadlock diagnostic must point back along the static route and
        // name the send origin that under-delivered.
        let cfg = MeshConfig::new(1, 2).with_cost(CostModel::unit());
        let mut sim = Simulator::new(cfg);
        sim.route_east_chain(0, 0, 1, C0);
        sim.set_program(PeId::new(0, 0), Box::new(SendBlock));
        sim.set_program(PeId::new(0, 1), Box::new(DoubleAndEmit));
        sim.post_recv(PeId::new(0, 1), C0, 6, T1);
        sim.activate(PeId::new(0, 0), T0, Time::ZERO);
        match sim.run() {
            Err(SimError::Deadlock { blocked }) => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].pe, PeId::new(0, 1));
                let w = &blocked[0].waiting_on[0];
                assert_eq!((w.color, w.missing), (C0, 2));
                assert_eq!(w.feeders, vec![PeId::new(0, 0)]);
                assert!(w.has_rule);
                let msg = SimError::Deadlock { blocked }.to_string();
                assert!(msg.contains("fed by PE(0,0)"), "{msg}");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    /// A chained receive loop: receives two blocks one after the other.
    struct TwoRounds {
        rounds: u32,
    }
    impl PeProgram for TwoRounds {
        fn on_task(&mut self, ctx: &mut TaskCtx<'_>, t: TaskId) -> Result<(), SimError> {
            assert_eq!(t, T1);
            let data = ctx.take_received(C0);
            ctx.emit(data);
            self.rounds -= 1;
            if self.rounds > 0 {
                ctx.recv_async(C0, 4, T1);
            }
            Ok(())
        }
    }

    #[test]
    fn chained_receives_process_multiple_blocks() {
        let cfg = MeshConfig::new(1, 1).with_cost(CostModel::unit());
        let mut sim = Simulator::new(cfg);
        sim.set_program(PeId::new(0, 0), Box::new(TwoRounds { rounds: 2 }));
        sim.post_recv(PeId::new(0, 0), C0, 4, T1);
        sim.inject_blocks(
            PeId::new(0, 0),
            C0,
            vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8]],
            Time::ZERO,
        );
        let report = sim.run().unwrap();
        assert_eq!(
            report.outputs(PeId::new(0, 0)),
            &[vec![1, 2, 3, 4], vec![5, 6, 7, 8]]
        );
    }

    #[test]
    fn cycle_limit_guards_runaway() {
        struct Forever;
        impl PeProgram for Forever {
            fn on_task(&mut self, ctx: &mut TaskCtx<'_>, _t: TaskId) -> Result<(), SimError> {
                ctx.activate(T0);
                Ok(())
            }
        }
        let cfg = MeshConfig::new(1, 1)
            .with_cost(CostModel::unit())
            .with_cycle_limit(cyc(1000));
        let mut sim = Simulator::new(cfg);
        sim.set_program(PeId::new(0, 0), Box::new(Forever));
        sim.activate(PeId::new(0, 0), T0, Time::ZERO);
        assert!(matches!(
            sim.run(),
            Err(SimError::CycleLimitExceeded { .. })
        ));
    }

    #[test]
    fn out_of_memory_is_reported() {
        struct Hog;
        impl PeProgram for Hog {
            fn on_task(&mut self, ctx: &mut TaskCtx<'_>, _t: TaskId) -> Result<(), SimError> {
                ctx.mem_alloc(1 << 20)?; // 1 MB into a 48 KB SRAM
                Ok(())
            }
        }
        let mut sim = Simulator::new(MeshConfig::new(1, 1));
        sim.set_program(PeId::new(0, 0), Box::new(Hog));
        sim.activate(PeId::new(0, 0), T0, Time::ZERO);
        assert!(matches!(sim.run(), Err(SimError::OutOfMemory { .. })));
    }

    /// Program charging under two labelled stages plus an unlabelled tail.
    struct Staged;
    impl PeProgram for Staged {
        fn on_task(&mut self, ctx: &mut TaskCtx<'_>, _t: TaskId) -> Result<(), SimError> {
            ctx.begin_stage("quant-mul");
            ctx.charge(Op::I32Add, 10);
            ctx.begin_stage("lorenzo");
            ctx.charge(Op::I32Add, 5);
            ctx.begin_stage("");
            ctx.charge(Op::I32Add, 3);
            Ok(())
        }
    }

    /// Run `program` once on a flight-recorded 1×1 unit-cost mesh.
    fn recorded(program: impl PeProgram + 'static) -> RunReport {
        let cfg = MeshConfig::new(1, 1)
            .with_cost(CostModel::unit())
            .with_flight_window(16);
        let mut sim = Simulator::new(cfg);
        sim.set_program(PeId::new(0, 0), Box::new(program));
        sim.activate(PeId::new(0, 0), T0, Time::ZERO);
        sim.run().unwrap()
    }

    #[test]
    fn stage_attribution_sums_to_busy_cycles() {
        let report = recorded(Staged);
        let flight = report.flight().unwrap();
        let totals = flight.stage_totals();
        assert_eq!(totals["quant-mul"], cyc(10));
        assert_eq!(totals["lorenzo"], cyc(5));
        assert_eq!(totals[""], cyc(3)); // empty label is still a label
        assert_eq!(totals["dispatch"], cyc(1)); // unit task overhead
        let attributed: Time = totals.values().copied().sum();
        assert_eq!(attributed, report.stats().total_busy_cycles);
        // The per-PE totals are the same four stages, sorted by name.
        let names: Vec<&str> = flight
            .pe(PeId::new(0, 0))
            .stages
            .iter()
            .map(|(s, _)| &**s)
            .collect();
        assert_eq!(names, ["", "dispatch", "lorenzo", "quant-mul"]);
    }

    #[test]
    fn unlabelled_charges_fall_into_unattributed() {
        let totals = recorded(Burn(7)).flight().unwrap().stage_totals();
        assert_eq!(totals["unattributed"], cyc(7));
        assert_eq!(totals["dispatch"], cyc(1));
    }

    #[test]
    fn disabled_recorder_collects_no_attribution() {
        let cfg = MeshConfig::new(1, 1).with_cost(CostModel::unit());
        let mut sim = Simulator::new(cfg);
        sim.set_program(PeId::new(0, 0), Box::new(Staged));
        sim.activate(PeId::new(0, 0), T0, Time::ZERO);
        let report = sim.run().unwrap();
        assert!(report.flight().is_none());
        assert_eq!(report.stats().finish_cycle, cyc(19)); // timing unchanged
        assert_eq!(report, recorded(Staged));
    }

    #[test]
    fn trace_slices_carry_dominant_stage_label() {
        let report = recorded(Staged);
        let events = report.flight().unwrap().timeline().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].label.as_deref(), Some("quant-mul"));
        assert_eq!((events[0].start, events[0].end), (Time::ZERO, cyc(19)));
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let build = || {
            let cfg = MeshConfig::new(2, 2).with_cost(CostModel::unit());
            let mut sim = Simulator::new(cfg);
            for r in 0..2 {
                sim.route_east_chain(r, 0, 1, C0);
                sim.set_program(PeId::new(r, 0), Box::new(SendBlock));
                sim.set_program(PeId::new(r, 1), Box::new(DoubleAndEmit));
                sim.post_recv(PeId::new(r, 1), C0, 4, T1);
                sim.activate(PeId::new(r, 0), T0, Time::ZERO);
            }
            sim.run().unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(a.stats().finish_cycle, b.stats().finish_cycle);
        assert_eq!(a.all_outputs(), b.all_outputs());
    }

    /// Build a mesh mixing independent horizontal rows with a vertically
    /// coupled pair, run it with the given engine/thread settings, and
    /// return the full report.
    fn mixed_mesh_report_with(threads: usize, engine: EngineMode) -> RunReport {
        let cfg = MeshConfig::new(4, 2)
            .with_cost(CostModel::unit())
            .with_flight_window(4)
            .with_threads_exact(threads)
            .with_engine(engine);
        let mut sim = Simulator::new(cfg);
        for r in 0..4 {
            sim.route_east_chain(r, 0, 1, C0);
            sim.set_program(PeId::new(r, 0), Box::new(SendBlock));
            sim.set_program(PeId::new(r, 1), Box::new(DoubleAndEmit));
            sim.post_recv(PeId::new(r, 1), C0, 4, T1);
            sim.activate(PeId::new(r, 0), T0, Time::ZERO);
        }
        // Couple rows 2 and 3: an extra southward stream through the mailbox,
        // carried by composite programs on the two row heads.
        let c1 = Color::new(1);
        sim.route(PeId::new(2, 0), c1, None, &[Direction::South]);
        sim.route(
            PeId::new(3, 0),
            c1,
            Some(Direction::North),
            &[Direction::Ramp],
        );
        struct RowHead {
            vertical: bool,
        }
        impl PeProgram for RowHead {
            fn on_task(&mut self, ctx: &mut TaskCtx<'_>, t: TaskId) -> Result<(), SimError> {
                match t {
                    TaskId(7) if self.vertical => ctx.send_async(Color::new(1), vec![9, 9], None),
                    _ => ctx.send_async(C0, vec![1, 2, 3, 4], None),
                }
                Ok(())
            }
        }
        struct RowHeadSink;
        impl PeProgram for RowHeadSink {
            fn on_task(&mut self, ctx: &mut TaskCtx<'_>, t: TaskId) -> Result<(), SimError> {
                if t == TaskId(8) {
                    let data = ctx.take_received(Color::new(1));
                    ctx.emit(data);
                } else {
                    ctx.send_async(C0, vec![1, 2, 3, 4], None);
                }
                Ok(())
            }
        }
        sim.set_program(PeId::new(2, 0), Box::new(RowHead { vertical: true }));
        sim.set_program(PeId::new(3, 0), Box::new(RowHeadSink));
        sim.post_recv(PeId::new(3, 0), c1, 2, TaskId(8));
        sim.activate(PeId::new(2, 0), TaskId(7), Time::ZERO);
        sim.run().unwrap()
    }

    fn mixed_mesh_report(threads: usize) -> RunReport {
        mixed_mesh_report_with(threads, EngineMode::default())
    }

    #[test]
    fn thread_sweep_is_bit_identical() {
        let serial = mixed_mesh_report(1);
        for threads in [2, 4, 8] {
            let parallel = mixed_mesh_report(threads);
            assert_eq!(serial, parallel, "threads={threads} diverged");
            assert_eq!(serial.flight(), parallel.flight(), "threads={threads}");
        }
    }

    #[test]
    fn cycle_stepped_reference_matches_event_driven() {
        // The tentpole equivalence: the event-driven engine skips idle cycle
        // windows and idle shards, the cycle-stepped reference visits every
        // one — and the reports (timing, outputs) and recordings (timeline
        // order, stage attribution, series) are bit-identical, serial and
        // threaded.
        let event = mixed_mesh_report_with(1, EngineMode::EventDriven);
        for threads in [1, 2, 8] {
            let stepped = mixed_mesh_report_with(threads, EngineMode::CycleStepped);
            assert_eq!(event, stepped, "cycle-stepped @ {threads} threads diverged");
            assert_eq!(event.flight(), stepped.flight(), "{threads} threads");
        }
    }

    /// Takes the block a completed receive left (if any), charges its
    /// count of operations and emits the task id.
    struct Tagged(u64);
    impl PeProgram for Tagged {
        fn on_task(&mut self, ctx: &mut TaskCtx<'_>, t: TaskId) -> Result<(), SimError> {
            if ctx.has_received(C0) {
                let _ = ctx.take_received(C0);
            }
            ctx.charge(Op::I32Add, self.0);
            ctx.emit(vec![u32::from(t.0)]);
            Ok(())
        }
    }

    /// Run the same one-row scenario in both rows of a flight-recorded 2×3
    /// unit-cost mesh (two independent groups) under every engine at 1, 2
    /// and 8 threads. Asserts every run equal — report, recording and
    /// event count — and returns row 0's task order as `(col, start)` with
    /// the event count.
    fn same_tick_runs(setup: fn(&mut Simulator, usize)) -> (Vec<(usize, u64)>, u64) {
        let run = |engine: EngineMode, threads: usize| {
            let cfg = MeshConfig::new(2, 3)
                .with_cost(CostModel::unit())
                .with_flight_window(4)
                .with_threads_exact(threads)
                .with_engine(engine);
            let mut sim = Simulator::new(cfg);
            for r in 0..2 {
                setup(&mut sim, r);
            }
            sim.run().unwrap()
        };
        let reference = run(EngineMode::EventDriven, 1);
        for engine in [EngineMode::EventDriven, EngineMode::CycleStepped] {
            for threads in [1, 2, 8] {
                let other = run(engine, threads);
                let what = format!("{engine:?} at {threads} threads");
                assert_eq!(other, reference, "{what}");
                assert_eq!(other.flight(), reference.flight(), "{what}");
                assert_eq!(
                    other.stats().events_processed,
                    reference.stats().events_processed,
                    "{what}"
                );
            }
        }
        let order = reference
            .flight()
            .unwrap()
            .timeline()
            .events()
            .iter()
            .filter(|e| e.pe.row == 0)
            .map(|e| (e.pe.col, e.start.ticks() / crate::TICKS_PER_CYCLE))
            .collect();
        (order, reference.stats().events_processed)
    }

    #[test]
    fn same_tick_deliveries_activate_in_delivery_order() {
        // Two streams land at cycle 4, column 2's first (lower sequence
        // number). Its activation must wait behind column 0's delivery, so
        // column 2's task still runs first; the lone delivery at cycle 14
        // dispatches its activation at once. Each delivery and each
        // activation is one event: 6 a row.
        let (order, events) = same_tick_runs(|sim, r| {
            for c in 0..3 {
                sim.set_program(PeId::new(r, c), Box::new(Tagged(1)));
                sim.post_recv(PeId::new(r, c), C0, 4, T1);
            }
            sim.inject_stream(PeId::new(r, 2), C0, vec![1; 4], Time::ZERO);
            sim.inject_stream(PeId::new(r, 0), C0, vec![2; 4], Time::ZERO);
            sim.inject_stream(PeId::new(r, 1), C0, vec![3; 4], cyc(10));
        });
        assert_eq!(order, [(2, 4), (0, 4), (1, 14)]);
        assert_eq!(events, 2 * 6);
    }

    #[test]
    fn pending_event_at_the_delivery_tick_runs_first() {
        // Column 0's stream lands at cycle 4, where a host activation of
        // column 1 is already pending: that activation precedes the one the
        // delivery readies. Column 2 is busy 2 → 8 when its stream lands at
        // cycle 5, so the readied activation retries at 8. Events a row:
        // two host activations, two deliveries, the two activations they
        // ready and one retry = 7.
        let (order, events) = same_tick_runs(|sim, r| {
            let (a, b, c) = (PeId::new(r, 0), PeId::new(r, 1), PeId::new(r, 2));
            sim.set_program(a, Box::new(Tagged(1)));
            sim.set_program(b, Box::new(Tagged(1)));
            sim.set_program(c, Box::new(Tagged(5)));
            sim.post_recv(a, C0, 4, T1);
            sim.post_recv(c, C0, 4, T1);
            sim.inject_stream(a, C0, vec![1; 4], Time::ZERO);
            sim.activate(b, T0, cyc(4));
            sim.activate(c, T0, cyc(2));
            sim.inject_stream(c, C0, vec![2; 4], cyc(1));
        });
        assert_eq!(order, [(2, 2), (1, 4), (0, 4), (2, 8)]);
        assert_eq!(events, 2 * 7);
    }

    #[test]
    fn threads_zero_resolves_to_available_parallelism() {
        let cfg = MeshConfig::new(1, 1)
            .with_cost(CostModel::unit())
            .with_threads(0);
        let mut sim = Simulator::new(cfg);
        sim.set_program(PeId::new(0, 0), Box::new(Burn(10)));
        sim.activate(PeId::new(0, 0), T0, Time::ZERO);
        assert_eq!(sim.run().unwrap().stats().finish_cycle, cyc(11));
    }

    #[test]
    fn requested_threads_clamp_to_host_parallelism() {
        let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        // Oversubscription clamps…
        assert_eq!(
            MeshConfig::new(1, 1)
                .with_threads(usize::MAX)
                .effective_threads(),
            available
        );
        // …unless explicitly requested exact (determinism sweeps).
        assert_eq!(
            MeshConfig::new(1, 1)
                .with_threads_exact(3)
                .effective_threads(),
            3
        );
        // `0` always resolves to the host parallelism.
        assert_eq!(
            MeshConfig::new(1, 1).with_threads(0).effective_threads(),
            available
        );
        // In-range requests pass through untouched.
        assert_eq!(MeshConfig::new(1, 1).with_threads(1).effective_threads(), 1);
    }
}
