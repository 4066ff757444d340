//! The fabric flight recorder: the simulator's one observation stream.
//!
//! Whole-run counters ([`crate::SimStats`]) say *that* a mapping is slow;
//! the flight recorder says *where* and *why*: which rows sit idle waiting
//! for wavelets, which links serialize streams, which relay PEs spend their
//! cycles backpressured, which kernel stage each PE's busy time went to,
//! and when every task ran. Sampling is windowed — every busy or stalled
//! span is distributed over fixed-size time buckets — so the recording is a
//! time-series per PE and per link, not just a total.
//!
//! Each shard owns one accumulator and hands it one typed record at each
//! of the four attribution points of the engine: a task span with its stage
//! segments, a ramp retry, a receive wait (with the inbox depth taken at
//! delivery), and a link wait. The accumulator folds each record as it
//! arrives into the per-PE series, the link table, the per-PE stage totals
//! and the task timeline (the [`Trace`], each task labelled by its dominant
//! stage); nothing is stored raw and folded later.
//!
//! All sampled quantities are exact integer [`Time`] ticks: bucketing is
//! pure integer arithmetic (no float rounding at bucket boundaries) and
//! totals never drift, which is what lets the perf gate compare recordings
//! with zero tolerance.
//!
//! ## Stall taxonomy
//!
//! Every attributed tick falls into one of four causes:
//!
//! * **compute** — the processor was executing a task (`busy` series);
//! * **send-backpressured** — a stream this PE forwarded was delayed
//!   because an outgoing link was still occupied by an earlier stream;
//! * **recv-waiting** — an input DSD was outstanding: the span from posting
//!   the receive to the arrival of its last wavelet;
//! * **ramp-blocked** — an activation was pending while the processor was
//!   still busy with an earlier task (the wait in the activation queue).
//!
//! The causes are attributions, not a partition of wall-clock: a PE can be
//! recv-waiting on one color while computing on another task, exactly as on
//! hardware.
//!
//! ## Determinism
//!
//! Records are folded per shard by the thread that owns the shard and
//! merged row-major after the join. With integer ticks the merge is exact
//! by construction — no addition-order concerns — so a [`FlightRecording`]
//! is bit-identical whether the run was serial or sharded. Recording never
//! changes event timing, so a [`crate::RunReport`] is bit-identical with
//! the recorder on or off (pinned by `tests/determinism.rs`).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use telemetry::chrome::ChromeTrace;
use telemetry::json::JsonValue;

use crate::fabric::LINK_SLOTS;
use crate::geom::{Direction, PeId};
use crate::program::TaskId;
use crate::time::{Time, TICKS_PER_CYCLE};
use crate::trace::{Trace, TraceEvent};

/// A tick count as an exact JSON integer (tick totals stay far below 2^53).
fn jticks(t: Time) -> JsonValue {
    JsonValue::Num(t.ticks() as f64)
}

/// Flight-recorder sampling configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightConfig {
    /// Simulated time per sample window (time-series bucket). Smaller
    /// windows give finer time resolution at proportionally more memory
    /// per PE.
    pub window: Time,
}

impl FlightConfig {
    /// Default sampling window (1024 cycles).
    pub const DEFAULT_WINDOW: Time = Time::from_cycles(1024);

    /// Config with the given sampling window.
    ///
    /// # Panics
    /// If `window` is zero (with integer time there is no NaN/negative
    /// window left to reject).
    #[must_use]
    pub fn new(window: Time) -> Self {
        assert!(!window.is_zero(), "flight-recorder window must be nonzero");
        Self { window }
    }
}

impl Default for FlightConfig {
    fn default() -> Self {
        Self::new(Self::DEFAULT_WINDOW)
    }
}

/// The non-compute stall causes of the taxonomy (compute itself is the
/// `busy` series).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallCause {
    /// A forwarded stream waited for an occupied outgoing link.
    SendBackpressure,
    /// An input DSD was outstanding (posted but not yet completed).
    RecvWaiting,
    /// An activation waited for the processor to finish an earlier task.
    RampBlocked,
}

impl StallCause {
    /// All stall causes, in reporting order.
    pub const ALL: [StallCause; 3] = [
        StallCause::SendBackpressure,
        StallCause::RecvWaiting,
        StallCause::RampBlocked,
    ];

    /// Stable snake-case name used in reports and JSON keys.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StallCause::SendBackpressure => "send_backpressure",
            StallCause::RecvWaiting => "recv_waiting",
            StallCause::RampBlocked => "ramp_blocked",
        }
    }
}

/// Which per-PE series a heatmap or top-K query reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Compute (busy) time.
    Busy,
    /// One stall cause.
    Stall(StallCause),
    /// Sum of all three stall causes.
    TotalStall,
}

impl Metric {
    /// Stable name used in reports and for CLI parsing.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Metric::Busy => "busy",
            Metric::Stall(c) => c.name(),
            Metric::TotalStall => "stall",
        }
    }

    /// Parse a metric name as printed by [`Metric::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Metric> {
        match s {
            "busy" | "compute" => Some(Metric::Busy),
            "send_backpressure" | "send" => Some(Metric::Stall(StallCause::SendBackpressure)),
            "recv_waiting" | "recv" => Some(Metric::Stall(StallCause::RecvWaiting)),
            "ramp_blocked" | "ramp" => Some(Metric::Stall(StallCause::RampBlocked)),
            "stall" => Some(Metric::TotalStall),
            _ => None,
        }
    }
}

/// A windowed time series: bucket `i` holds the ticks that fell into
/// `[i·window, (i+1)·window)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Series {
    buckets: Vec<Time>,
}

impl Series {
    /// Distribute the span `[start, end)` over the buckets it overlaps.
    ///
    /// Pure integer arithmetic: a span ending exactly on a bucket boundary
    /// contributes nothing to the bucket it abuts, and a zero-length span
    /// contributes nothing anywhere — there are no float-rounding edge
    /// cases at the boundaries.
    fn add_span(&mut self, window: Time, start: Time, end: Time) {
        if end <= start {
            return; // zero-length (or inverted) spans carry no time
        }
        let w = window.ticks();
        let first = (start.ticks() / w) as usize;
        // Last tick of the span is `end - 1`, so `end` exactly on a bucket
        // boundary never allocates the bucket it abuts.
        let last = (((end.ticks() - 1) / w) as usize).max(first);
        if self.buckets.len() <= last {
            self.buckets.resize(last + 1, Time::ZERO);
        }
        for (i, bucket) in self.buckets[first..=last].iter_mut().enumerate() {
            let b = (first + i) as u64;
            let lo = Time::from_ticks(b * w);
            let hi = Time::from_ticks((b + 1) * w);
            *bucket += end.min(hi) - start.max(lo);
        }
    }

    /// The per-window buckets, earliest first.
    #[must_use]
    pub fn buckets(&self) -> &[Time] {
        &self.buckets
    }

    /// Sum over all buckets (exact).
    #[must_use]
    pub fn total(&self) -> Time {
        self.buckets.iter().copied().sum()
    }
}

/// Flight samples of one PE.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeFlight {
    /// Compute (busy) time per window.
    pub busy: Series,
    /// Send-backpressure stall time per window.
    pub send_backpressure: Series,
    /// Recv-waiting stall time per window.
    pub recv_waiting: Series,
    /// Ramp-blocked stall time per window.
    pub ramp_blocked: Series,
    /// High-watermark of wavelets buffered in this PE's inbox on any single
    /// color (channel queue occupancy).
    pub inbox_high_watermark: u64,
    /// Busy time by kernel stage, sorted by name. Stage names follow
    /// [`crate::TaskCtx::begin_stage`], plus the pseudo-stages `"dispatch"`
    /// (task overhead) and `"unattributed"` (time charged outside any
    /// labelled stage), so the values sum to the `busy` total exactly.
    pub stages: Vec<(Arc<str>, Time)>,
}

impl PeFlight {
    /// The series of one stall cause.
    #[must_use]
    pub fn stall(&self, cause: StallCause) -> &Series {
        match cause {
            StallCause::SendBackpressure => &self.send_backpressure,
            StallCause::RecvWaiting => &self.recv_waiting,
            StallCause::RampBlocked => &self.ramp_blocked,
        }
    }

    /// Total time of `metric` over the whole run.
    #[must_use]
    pub fn metric_total(&self, metric: Metric) -> Time {
        match metric {
            Metric::Busy => self.busy.total(),
            Metric::Stall(c) => self.stall(c).total(),
            Metric::TotalStall => StallCause::ALL.iter().map(|&c| self.stall(c).total()).sum(),
        }
    }
}

/// Flight samples of one fabric link.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkFlight {
    /// Time the link was occupied by a stream, per window.
    pub occupancy: Series,
    /// Wavelets that crossed the link.
    pub wavelets: u64,
    /// Streams that crossed the link.
    pub streams: u64,
    /// Total time streams were delayed waiting for this link.
    pub backpressure: Time,
}

/// One occupied link slot of the dense per-shard link table. Boxed so the
/// (mostly empty) table costs one pointer per slot.
#[derive(Debug)]
struct LinkSlot {
    from: PeId,
    to: PeId,
    flight: LinkFlight,
}

/// One observation, handed to the shard's accumulator at one of the
/// engine's four attribution points.
#[derive(Debug)]
pub(crate) enum Record {
    /// `task` ran on `pe` over `[start, end)`: `dispatch` of fixed
    /// activation cost, then the stage segments it logged through
    /// [`crate::TaskCtx::begin_stage`] into the shard's [`StageLog`].
    Task {
        pe: PeId,
        task: TaskId,
        start: Time,
        end: Time,
        dispatch: Time,
    },
    /// An activation on column `col` found the processor busy at `at` and
    /// retries at `until`.
    RampRetry { col: usize, at: Time, until: Time },
    /// A delivery at `at` left `depth` wavelets queued on one color of
    /// column `col`; `posted` is when the receive it completed was posted.
    RecvWait {
        col: usize,
        depth: usize,
        posted: Option<Time>,
        at: Time,
    },
    /// A stream of `n` wavelets whose head reached `from → to` at `head`
    /// reserved the link from `start` (the gap is backpressure).
    LinkWait {
        from: PeId,
        to: PeId,
        head: Time,
        start: Time,
        n: u64,
    },
}

/// The stage segments of the running task. Names are interned per shard,
/// so a segment costs a pointer, not a string.
#[derive(Debug, Default)]
pub(crate) struct StageLog {
    names: BTreeSet<Arc<str>>,
    open: Option<Arc<str>>,
    /// Charged time when the open segment began.
    base: Time,
    /// Closed `(stage, time)` segments of the running task.
    segments: Vec<(Arc<str>, Time)>,
}

impl StageLog {
    fn intern(&mut self, name: &str) -> Arc<str> {
        let interned = self.names.get(name).cloned().unwrap_or_else(|| name.into());
        self.names.insert(Arc::clone(&interned));
        interned
    }

    /// Close the open segment at `charged` and open one named `name`.
    pub(crate) fn begin(&mut self, name: &str, charged: Time) {
        self.close(charged);
        self.open = Some(self.intern(name));
    }

    /// Close the open segment at `charged`, attributing the time charged
    /// since it began (to `"unattributed"` when no stage was named).
    fn close(&mut self, charged: Time) {
        let delta = charged - self.base;
        self.base = charged;
        let stage = self.open.take();
        if !delta.is_zero() {
            let stage = stage.unwrap_or_else(|| self.intern("unattributed"));
            self.segments.push((stage, delta));
        }
    }
}

/// Per-shard record accumulator: owned and written by exactly one worker
/// thread during the run, merged row-major afterwards.
#[derive(Debug)]
pub(crate) struct FlightShard {
    window: Time,
    /// Per-column PE samples of this shard's row.
    pes: Vec<PeFlight>,
    /// Links *leaving* this shard's PEs (the links the shard owns), indexed
    /// `[from.col * LINK_SLOTS + dir.index()]` like the engine's own link
    /// clocks; converted to a sorted map at merge time.
    links: Vec<Option<Box<LinkSlot>>>,
    /// This shard's tasks in execution order (so ascending start time).
    timeline: Vec<TraceEvent>,
    /// Stage log of the running task, borrowed by its `TaskCtx`.
    pub(crate) stages: StageLog,
    /// The interned `"dispatch"` pseudo-stage.
    dispatch: Arc<str>,
}

impl FlightShard {
    pub(crate) fn new(window: Time, cols: usize) -> Self {
        let mut stages = StageLog::default();
        let dispatch = stages.intern("dispatch");
        Self {
            window,
            pes: vec![PeFlight::default(); cols],
            links: std::iter::repeat_with(|| None)
                .take(cols * LINK_SLOTS)
                .collect(),
            timeline: Vec::new(),
            stages,
            dispatch,
        }
    }

    /// Fold one record into the series, the link table, the stage totals
    /// and the timeline.
    pub(crate) fn record(&mut self, record: Record) {
        let window = self.window;
        match record {
            Record::Task {
                pe,
                task,
                start,
                end,
                dispatch,
            } => {
                let log = &mut self.stages;
                log.close(end - start - dispatch);
                let p = &mut self.pes[pe.col];
                p.busy.add_span(window, start, end);
                // Every busy tick lands in exactly one stage: the labelled
                // segments, plus the fixed activation cost under "dispatch".
                add_stage(&mut p.stages, &self.dispatch, dispatch);
                for (stage, time) in &log.segments {
                    add_stage(&mut p.stages, stage, *time);
                }
                // The slice label is the task's dominant stage, when known.
                let label = log.segments.iter().max_by(|a, b| a.1.cmp(&b.1));
                self.timeline.push(TraceEvent {
                    pe,
                    task,
                    start,
                    end,
                    label: label.map(|(stage, _)| Arc::clone(stage)),
                });
                log.segments.clear();
                log.base = Time::ZERO;
            }
            Record::RampRetry { col, at, until } => {
                self.pes[col].ramp_blocked.add_span(window, at, until);
            }
            Record::RecvWait {
                col,
                depth,
                posted,
                at,
            } => {
                let p = &mut self.pes[col];
                p.inbox_high_watermark = p.inbox_high_watermark.max(depth as u64);
                if let Some(posted) = posted {
                    p.recv_waiting.add_span(window, posted, at);
                }
            }
            Record::LinkWait {
                from,
                to,
                head,
                start,
                n,
            } => {
                let dir = Direction::between(from, to).expect("link between non-adjacent PEs");
                let slot =
                    self.links[from.col * LINK_SLOTS + dir.index()].get_or_insert_with(|| {
                        Box::new(LinkSlot {
                            from,
                            to,
                            flight: LinkFlight::default(),
                        })
                    });
                let link = &mut slot.flight;
                link.occupancy
                    .add_span(window, start, start + Time::from_cycles(n));
                link.wavelets += n;
                link.streams += 1;
                link.backpressure += start - head;
                // The wait for an occupied link is backpressure charged to
                // the PE whose router holds the stream (the hop's source).
                self.pes[from.col]
                    .send_backpressure
                    .add_span(window, head, start);
            }
        }
    }
}

/// Add `time` to `stage`'s entry. Names are interned per shard, so
/// identity is pointer equality.
fn add_stage(stages: &mut Vec<(Arc<str>, Time)>, stage: &Arc<str>, time: Time) {
    match stages.iter_mut().find(|(s, _)| Arc::ptr_eq(s, stage)) {
        Some((_, total)) => *total += time,
        None => stages.push((Arc::clone(stage), time)),
    }
}

/// A merged flight recording of a completed run: per-PE and per-link
/// windowed time-series, per-PE stage totals and the task timeline, plus
/// the derived reports (heatmaps, top-K congestion tables, stall
/// breakdowns, export documents).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecording {
    window: Time,
    rows: usize,
    cols: usize,
    /// Row-major per-PE samples.
    pes: Vec<PeFlight>,
    links: BTreeMap<(PeId, PeId), LinkFlight>,
    timeline: Trace,
}

impl FlightRecording {
    /// Merge the per-shard accumulators, given in row order. PE samples
    /// concatenate in PE order, link maps union without key collisions
    /// (every link is owned by exactly the shard of its source row), and
    /// the per-shard timelines — each in ascending start order — are
    /// stably sorted by start, so ties keep row order. The same fold at
    /// any thread count gives a bit-identical recording.
    pub(crate) fn merge(window: Time, rows: usize, cols: usize, shards: Vec<FlightShard>) -> Self {
        let mut pes = Vec::with_capacity(rows * cols);
        let mut links = BTreeMap::new();
        // Exact capacity: a full-wafer timeline holds millions of tasks.
        let mut events = Vec::with_capacity(shards.iter().map(|s| s.timeline.len()).sum());
        for shard in shards {
            for mut pe in shard.pes {
                pe.stages.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                pes.push(pe);
            }
            links.extend(
                shard
                    .links
                    .into_iter()
                    .flatten()
                    .map(|slot| ((slot.from, slot.to), slot.flight)),
            );
            events.extend(shard.timeline);
        }
        debug_assert_eq!(pes.len(), rows * cols);
        events.sort_by_key(|e| e.start);
        Self {
            window,
            rows,
            cols,
            pes,
            links,
            timeline: Trace::from_events(events),
        }
    }

    /// Sampling window.
    #[must_use]
    pub fn window(&self) -> Time {
        self.window
    }

    /// Mesh shape `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Samples of one PE.
    #[must_use]
    pub fn pe(&self, pe: PeId) -> &PeFlight {
        &self.pes[pe.index(self.cols)]
    }

    /// All per-PE samples, row-major.
    #[must_use]
    pub fn pes(&self) -> &[PeFlight] {
        &self.pes
    }

    /// All per-link samples, keyed `(from, to)` in row-major key order.
    #[must_use]
    pub fn links(&self) -> &BTreeMap<(PeId, PeId), LinkFlight> {
        &self.links
    }

    /// Number of sample windows covering the run (longest series).
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        let pe_max = self
            .pes
            .iter()
            .flat_map(|p| {
                [
                    p.busy.buckets().len(),
                    p.send_backpressure.buckets().len(),
                    p.recv_waiting.buckets().len(),
                    p.ramp_blocked.buckets().len(),
                ]
            })
            .max()
            .unwrap_or(0);
        let link_max = self
            .links
            .values()
            .map(|l| l.occupancy.buckets().len())
            .max()
            .unwrap_or(0);
        pe_max.max(link_max)
    }

    /// Whole-run stall breakdown: total time per taxonomy cause, plus
    /// `compute` (busy time), summed over all PEs. Keys are the stable
    /// snake-case names.
    #[must_use]
    pub fn stall_totals(&self) -> BTreeMap<&'static str, Time> {
        let mut totals = BTreeMap::new();
        totals.insert("compute", self.pes.iter().map(|p| p.busy.total()).sum());
        for cause in StallCause::ALL {
            totals.insert(
                cause.name(),
                self.pes.iter().map(|p| p.stall(cause).total()).sum(),
            );
        }
        totals
    }

    /// The task timeline: one event per executed task, ascending start
    /// time, each labelled by its dominant kernel stage.
    #[must_use]
    pub fn timeline(&self) -> &Trace {
        &self.timeline
    }

    /// Busy time by kernel stage summed over all PEs (see
    /// [`PeFlight::stages`]). The values sum to the run's
    /// `total_busy_cycles` exactly (integer ticks, not approximately).
    #[must_use]
    pub fn stage_totals(&self) -> BTreeMap<String, Time> {
        let mut totals = BTreeMap::new();
        for (stage, time) in self.pes.iter().flat_map(|p| &p.stages) {
            *totals.entry(stage.to_string()).or_insert(Time::ZERO) += *time;
        }
        totals
    }

    /// Mesh-shaped totals of `metric`: `grid[row][col]` is the PE's total
    /// time over the whole run.
    #[must_use]
    pub fn heatmap(&self, metric: Metric) -> Vec<Vec<Time>> {
        (0..self.rows)
            .map(|r| {
                (0..self.cols)
                    .map(|c| self.pe(PeId::new(r, c)).metric_total(metric))
                    .collect()
            })
            .collect()
    }

    /// The `k` PEs with the highest `metric` totals, descending; ties break
    /// row-major. PEs with a zero total are omitted.
    #[must_use]
    pub fn top_pes(&self, metric: Metric, k: usize) -> Vec<(PeId, Time)> {
        let mut ranked: Vec<(PeId, Time)> = (0..self.rows)
            .flat_map(|r| (0..self.cols).map(move |c| PeId::new(r, c)))
            .map(|pe| (pe, self.pe(pe).metric_total(metric)))
            .filter(|&(_, v)| !v.is_zero())
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }

    /// The `k` most occupied links, by total occupancy time, descending;
    /// ties break on the `(from, to)` key. Unused links never appear (only
    /// links that carried a stream are recorded).
    #[must_use]
    pub fn top_links(&self, k: usize) -> Vec<((PeId, PeId), &LinkFlight)> {
        let mut ranked: Vec<((PeId, PeId), &LinkFlight)> =
            self.links.iter().map(|(&key, l)| (key, l)).collect();
        ranked.sort_by(|a, b| {
            b.1.occupancy
                .total()
                .cmp(&a.1.occupancy.total())
                .then_with(|| a.0.cmp(&b.0))
        });
        ranked.truncate(k);
        ranked
    }

    /// Render the mesh-shaped totals of `metric` as an ASCII heatmap.
    ///
    /// Cells are shaded `.` (zero) through `@` (the mesh maximum) on a
    /// ten-step ramp. Meshes wider or taller than `max_cols`/`max_rows`
    /// character cells are downsampled by averaging rectangular PE tiles, so
    /// a 750-column wafer still fits a terminal.
    #[must_use]
    pub fn ascii_heatmap(&self, metric: Metric, max_rows: usize, max_cols: usize) -> String {
        const RAMP: &[u8] = b".:-=+*#%@";
        let grid = self.heatmap(metric);
        let (max_rows, max_cols) = (max_rows.max(1), max_cols.max(1));
        let tile_r = self.rows.div_ceil(max_rows);
        let tile_c = self.cols.div_ceil(max_cols);
        let out_rows = self.rows.div_ceil(tile_r);
        let out_cols = self.cols.div_ceil(tile_c);
        let mut tiles = vec![vec![0.0f64; out_cols]; out_rows];
        for (r, row) in grid.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                tiles[r / tile_r][c / tile_c] += v.ticks() as f64;
            }
        }
        let per_tile = (tile_r * tile_c) as f64;
        let max = tiles
            .iter()
            .flatten()
            .fold(0.0f64, |acc, &v| acc.max(v / per_tile));
        let mut out = String::new();
        out.push_str(&format!(
            "{} heatmap, {}x{} PEs ({} per cell), max {:.0} cycles:\n",
            metric.name(),
            self.rows,
            self.cols,
            tile_r * tile_c,
            max / TICKS_PER_CYCLE as f64
        ));
        for (r, tile_row) in tiles.iter().enumerate() {
            out.push_str(&format!("{:>5} |", r * tile_r));
            for &v in tile_row {
                let v = v / per_tile;
                let ch = if max <= 0.0 || v <= 0.0 {
                    b'.'
                } else {
                    let level = ((v / max) * (RAMP.len() - 1) as f64).round() as usize;
                    RAMP[level.min(RAMP.len() - 1)]
                };
                out.push(ch as char);
            }
            out.push('\n');
        }
        out
    }

    /// Export the recording as a mesh-shaped JSON document: run metadata,
    /// per-metric total grids, per-metric windowed series (row-major PE
    /// order), and the per-link table. Every time-valued field is an exact
    /// integer tick count (`ticks_per_cycle` gives the scale).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        use JsonValue as J;
        let buckets = self.bucket_count();
        let grid = |metric: Metric| {
            J::Arr(
                self.heatmap(metric)
                    .into_iter()
                    .map(|row| J::Arr(row.into_iter().map(jticks).collect()))
                    .collect(),
            )
        };
        let series_of = |f: &dyn Fn(&PeFlight) -> &Series| {
            J::Arr(
                self.pes
                    .iter()
                    .map(|p| {
                        let s = f(p).buckets();
                        // Pad to the common bucket count so every PE's
                        // series has the same length in the artifact.
                        J::Arr(
                            (0..buckets)
                                .map(|i| jticks(s.get(i).copied().unwrap_or(Time::ZERO)))
                                .collect(),
                        )
                    })
                    .collect(),
            )
        };
        let totals = J::obj(vec![
            ("busy", grid(Metric::Busy)),
            (
                "send_backpressure",
                grid(Metric::Stall(StallCause::SendBackpressure)),
            ),
            ("recv_waiting", grid(Metric::Stall(StallCause::RecvWaiting))),
            ("ramp_blocked", grid(Metric::Stall(StallCause::RampBlocked))),
            (
                "inbox_high_watermark",
                J::Arr(
                    (0..self.rows)
                        .map(|r| {
                            J::Arr(
                                (0..self.cols)
                                    .map(|c| {
                                        J::Num(self.pe(PeId::new(r, c)).inbox_high_watermark as f64)
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        let series = J::obj(vec![
            ("busy", series_of(&|p| &p.busy)),
            ("send_backpressure", series_of(&|p| &p.send_backpressure)),
            ("recv_waiting", series_of(&|p| &p.recv_waiting)),
            ("ramp_blocked", series_of(&|p| &p.ramp_blocked)),
        ]);
        let links = J::Arr(
            self.links
                .iter()
                .map(|(&(from, to), l)| {
                    J::obj(vec![
                        (
                            "from",
                            J::Arr(vec![J::Num(from.row as f64), J::Num(from.col as f64)]),
                        ),
                        (
                            "to",
                            J::Arr(vec![J::Num(to.row as f64), J::Num(to.col as f64)]),
                        ),
                        ("occupancy_ticks", jticks(l.occupancy.total())),
                        ("wavelets", J::Num(l.wavelets as f64)),
                        ("streams", J::Num(l.streams as f64)),
                        ("backpressure_ticks", jticks(l.backpressure)),
                    ])
                })
                .collect(),
        );
        J::obj(vec![
            ("artifact", J::Str("ceresz-flight-recording".into())),
            ("ticks_per_cycle", J::Num(TICKS_PER_CYCLE as f64)),
            ("window_ticks", jticks(self.window)),
            ("rows", J::Num(self.rows as f64)),
            ("cols", J::Num(self.cols as f64)),
            ("buckets", J::Num(buckets as f64)),
            ("pe_totals", totals),
            ("pe_series", series),
            ("links", links),
        ])
    }

    /// Export the per-PE totals as a CSV table (one row per PE, row-major;
    /// links are only in the JSON artifact). Time columns are integer tick
    /// counts.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "row,col,busy_ticks,send_backpressure_ticks,recv_waiting_ticks,\
             ramp_blocked_ticks,inbox_high_watermark\n",
        );
        for r in 0..self.rows {
            for c in 0..self.cols {
                let p = self.pe(PeId::new(r, c));
                out.push_str(&format!(
                    "{r},{c},{},{},{},{},{}\n",
                    p.busy.total().ticks(),
                    p.send_backpressure.total().ticks(),
                    p.recv_waiting.total().ticks(),
                    p.ramp_blocked.total().ticks(),
                    p.inbox_high_watermark
                ));
            }
        }
        out
    }

    /// Export the recording as a Chrome-trace document (loadable in
    /// Perfetto / `chrome://tracing`): one process named `process_name`
    /// with the task timeline (one thread track per PE, one slice per
    /// task, see [`Trace`]) and one counter series per taxonomy cause plus
    /// compute, each sample the mesh-wide cycles in that window.
    #[must_use]
    pub fn chrome_trace(&self, process_name: &str) -> ChromeTrace {
        const PID: u64 = 1;
        let mut trace = self.timeline.chrome_trace(PID, process_name, self.cols);
        let buckets = self.bucket_count();
        let mut emit = |name: &str, f: &dyn Fn(&PeFlight) -> &Series| {
            for i in 0..buckets {
                let v: Time = self
                    .pes
                    .iter()
                    .map(|p| f(p).buckets().get(i).copied().unwrap_or(Time::ZERO))
                    .sum();
                trace.counter(
                    PID,
                    format!("flight: {name}"),
                    (self.window * i as u64).cycles_f64(),
                    v.cycles_f64(),
                );
            }
        };
        emit("compute cycles/window", &|p| &p.busy);
        emit("send-backpressure cycles/window", &|p| &p.send_backpressure);
        emit("recv-waiting cycles/window", &|p| &p.recv_waiting);
        emit("ramp-blocked cycles/window", &|p| &p.ramp_blocked);
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cyc(c: u64) -> Time {
        Time::from_cycles(c)
    }

    #[test]
    fn span_distributes_over_buckets() {
        let mut s = Series::default();
        // Window 10: span [5, 25) → 5 cycles in bucket 0, 10 in 1, 5 in 2.
        s.add_span(cyc(10), cyc(5), cyc(25));
        assert_eq!(s.buckets(), &[cyc(5), cyc(10), cyc(5)]);
        assert_eq!(s.total(), cyc(20));
    }

    #[test]
    fn span_on_boundary_touches_one_bucket() {
        let mut s = Series::default();
        s.add_span(cyc(10), cyc(10), cyc(20));
        assert_eq!(s.buckets(), &[Time::ZERO, cyc(10)]);
    }

    #[test]
    fn span_ending_exactly_on_boundary_skips_next_bucket() {
        // Pinned satellite behavior: `end` is exclusive, so a span ending
        // exactly on a bucket boundary must not allocate the bucket it
        // abuts — with integer ticks this is exact, not a rounding accident.
        let mut s = Series::default();
        s.add_span(cyc(10), cyc(0), cyc(10));
        assert_eq!(s.buckets(), &[cyc(10)]);
        s.add_span(cyc(10), cyc(19), cyc(20));
        assert_eq!(s.buckets(), &[cyc(10), cyc(1)]);
    }

    #[test]
    fn one_tick_span_lands_in_its_bucket() {
        // The smallest representable span: exactly one tick wide, starting
        // one tick before a bucket boundary.
        let mut s = Series::default();
        let end = cyc(10);
        s.add_span(cyc(10), end - Time::from_ticks(1), end);
        assert_eq!(s.buckets(), &[Time::from_ticks(1)]);
    }

    #[test]
    fn empty_span_is_ignored() {
        let mut s = Series::default();
        s.add_span(cyc(10), cyc(5), cyc(5));
        s.add_span(cyc(10), cyc(7), cyc(3));
        assert!(s.buckets().is_empty());
        assert_eq!(s.total(), Time::ZERO);
    }

    fn task(pe: PeId, start: Time, end: Time) -> Record {
        Record::Task {
            pe,
            task: TaskId(0),
            start,
            end,
            dispatch: cyc(1),
        }
    }

    fn recording_2x2() -> FlightRecording {
        let mut a = FlightShard::new(cyc(10), 2);
        a.record(task(PeId::new(0, 0), cyc(0), cyc(15)));
        a.record(Record::RecvWait {
            col: 1,
            depth: 7,
            posted: Some(cyc(0)),
            at: cyc(5),
        });
        // A 1.5-cycle wait for the link: backpressure on both the link and
        // the PE holding the stream.
        a.record(Record::LinkWait {
            from: PeId::new(0, 0),
            to: PeId::new(0, 1),
            head: Time::from_ticks(500),
            start: cyc(2),
            n: 4,
        });
        let mut b = FlightShard::new(cyc(10), 2);
        b.record(task(PeId::new(1, 1), cyc(0), cyc(30)));
        b.record(Record::LinkWait {
            from: PeId::new(1, 0),
            to: PeId::new(1, 1),
            head: cyc(3),
            start: cyc(9),
            n: 1,
        });
        FlightRecording::merge(cyc(10), 2, 2, vec![a, b])
    }

    #[test]
    fn totals_and_topk_are_ranked() {
        let rec = recording_2x2();
        let totals = rec.stall_totals();
        assert_eq!(totals["compute"], cyc(45));
        assert_eq!(totals["recv_waiting"], cyc(5));
        assert_eq!(totals["send_backpressure"], Time::from_ticks(7_500));
        assert_eq!(totals["ramp_blocked"], Time::ZERO);

        let top = rec.top_pes(Metric::Busy, 5);
        assert_eq!(
            top,
            vec![(PeId::new(1, 1), cyc(30)), (PeId::new(0, 0), cyc(15))]
        );
        let links = rec.top_links(5);
        assert_eq!(links.len(), 2);
        assert_eq!(links[0].0, (PeId::new(0, 0), PeId::new(0, 1)));
        assert_eq!(links[0].1.wavelets, 4);
        assert_eq!(links[0].1.backpressure, Time::from_ticks(1_500));
    }

    #[test]
    fn heatmap_shapes_match_mesh() {
        let rec = recording_2x2();
        let grid = rec.heatmap(Metric::TotalStall);
        assert_eq!(
            grid,
            vec![
                vec![Time::from_ticks(1_500), cyc(5)],
                vec![cyc(6), Time::ZERO]
            ]
        );
        let ascii = rec.ascii_heatmap(Metric::Busy, 64, 64);
        let lines: Vec<&str> = ascii.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 mesh rows
        assert!(lines[0].starts_with("busy heatmap"));
        assert!(lines[1].ends_with("+.")); // PE(0,0)=15 mid-ramp, PE(0,1)=0
        assert!(lines[2].ends_with(".@")); // PE(1,1)=30 is the max
    }

    #[test]
    fn ascii_heatmap_downsamples_wide_meshes() {
        let shards = (0..4).map(|_| FlightShard::new(cyc(10), 100)).collect();
        let rec = FlightRecording::merge(cyc(10), 4, 100, shards);
        let ascii = rec.ascii_heatmap(Metric::Busy, 2, 25);
        let lines: Vec<&str> = ascii.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 downsampled rows
        let cells = lines[1].split('|').nth(1).unwrap();
        assert_eq!(cells.len(), 25);
    }

    #[test]
    fn json_and_csv_exports_carry_the_grid() {
        let rec = recording_2x2();
        let doc = rec.to_json();
        assert_eq!(doc.get("rows").unwrap().as_f64(), Some(2.0));
        assert_eq!(doc.get("buckets").unwrap().as_f64(), Some(3.0));
        assert_eq!(doc.get("ticks_per_cycle").unwrap().as_f64(), Some(1000.0));
        assert_eq!(doc.get("window_ticks").unwrap().as_f64(), Some(10_000.0));
        let busy = doc.get("pe_totals").unwrap().get("busy").unwrap();
        let row1 = busy.as_arr().unwrap()[1].as_arr().unwrap();
        assert_eq!(row1[1].as_f64(), Some(30_000.0)); // 30 cycles in ticks
                                                      // The document round-trips through the workspace JSON parser.
        let parsed = telemetry::json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(parsed, doc);

        let csv = rec.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5); // header + 4 PEs
        assert_eq!(lines[2], "0,1,0,0,5000,0,7");
    }

    #[test]
    fn json_time_fields_are_integer_ticks() {
        // Satellite contract: every time-valued field in the artifact is an
        // exact integer (fractional cycles appear only as tick counts).
        let rec = recording_2x2();
        let doc = rec.to_json();
        fn assert_integral(v: &JsonValue) {
            match v {
                JsonValue::Num(n) => assert_eq!(n.fract(), 0.0, "fractional artifact value {n}"),
                JsonValue::Arr(items) => items.iter().for_each(assert_integral),
                JsonValue::Obj(fields) => fields.iter().for_each(|(_, v)| assert_integral(v)),
                _ => {}
            }
        }
        assert_integral(&doc);
    }

    #[test]
    fn counter_tracks_sum_per_window() {
        let rec = recording_2x2();
        let doc = rec.chrome_trace("test mesh").to_json();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .collect();
        // 4 series × 3 windows.
        assert_eq!(counters.len(), 12);
        // First compute sample: both busy PEs overlap window 0 by 10 each.
        let first = counters
            .iter()
            .find(|e| {
                e.get("name").unwrap().as_str() == Some("flight: compute cycles/window")
                    && e.get("ts").unwrap().as_f64() == Some(0.0)
            })
            .unwrap();
        assert_eq!(
            first.get("args").unwrap().get("value").unwrap().as_f64(),
            Some(20.0)
        );
    }

    #[test]
    fn metric_names_round_trip() {
        for m in [
            Metric::Busy,
            Metric::Stall(StallCause::SendBackpressure),
            Metric::Stall(StallCause::RecvWaiting),
            Metric::Stall(StallCause::RampBlocked),
            Metric::TotalStall,
        ] {
            assert_eq!(Metric::parse(m.name()), Some(m));
        }
        assert_eq!(Metric::parse("nonsense"), None);
    }
}
