//! Static performance analysis over a [`MappingManifest`].
//!
//! Where [`crate::checks::verify`] answers *"is this mapping sound?"*, this
//! module answers *"how will it perform?"* — without running the simulator.
//! [`analyze`] abstractly interprets the declarative manifest and produces a
//! [`StaticProfile`] with four results, each a proven bound on what any
//! dynamic execution of the mapping can do:
//!
//! 1. **Per-link load** ([`LinkLoad`]): an *upper* bound on the wavelets,
//!    streams, and serialized occupancy crossing every directed fabric link,
//!    from a static hop walk of each declared stream's route. Contention is
//!    the number of distinct colors sharing the link.
//! 2. **Critical path** ([`StaticProfile::critical_path`]): a *lower* bound
//!    on the simulated makespan in integer [`Time`] ticks, from a
//!    supply-envelope propagation of [`CostModel`] costs along the send/recv
//!    dependency DAG (see *Soundness* below).
//! 3. **SRAM high-watermark** ([`SramWatermark`]): an *upper* bound on each
//!    PE's peak heap footprint — kernels allocate their declared buffers once
//!    and never free them, so the watermark is the summed
//!    [`BufferDecl`](crate::manifest::BufferDecl)
//!    bytes against the 48 KB budget.
//! 4. **Deadlock freedom** ([`DeadlockVerdict`]): a cycle check over the
//!    channel-dependency graph that upgrades the task-liveness heuristic
//!    into a proof, with a located counterexample cycle when it fails.
//!
//! # Soundness of the critical-path bound
//!
//! The dynamic timing semantics the bound is proven against (see
//! `wse-sim/src/shard.rs`): a task activated at `a` starts at
//! `max(a, busy_until)` and ends at `start + overhead + compute`; all its
//! sends leave the RAMP at `end`; each fabric hop advances the stream head by
//! one cycle and occupies the link for `n` cycles per `n`-wavelet stream; the
//! whole stream is delivered to the destination RAMP in one instant.
//!
//! For each consumer channel `(PE, color)` the analysis groups its
//! contributors into **serialization domains**: streams sharing their final
//! fabric link (which admits at most one wavelet per cycle), each local RAMP
//! loopback declaration, and each injection. Every domain `D` gets a sound
//! arrival envelope — no execution can deliver more than `envelope_D(t)`
//! wavelets of `D` by tick `t`:
//!
//! - *fabric* (rate 1/cycle): `min(W_D, (t − offset_D) / 1000)` with
//!   `offset_D` the minimum over members of `first_activation(producer)`
//!   plus overhead plus hops — a member's first wavelet cannot clear `hops`
//!   links before its producing task has even run, and the shared final link
//!   serializes the rest;
//! - *loopback* (step): `0` before `offset = start + words_per_send`, `W_D`
//!   after — a local delivery of `n` wavelets takes at least `n` cycles after
//!   the issuing task ends, but distinct streams need not serialize;
//! - *injection* (rate 1/cycle from the epoch): the block injector delivers
//!   cumulatively, so the `w`-th wavelet lands no earlier than cycle `w`.
//!
//! `earliest_supply(e)` — the first tick at which the summed envelopes reach
//! `e` wavelets — is then a lower bound on when `e` wavelets can have been
//! delivered, found by binary search (envelopes are monotone). First
//! activations propagate through the channel DAG in topological order:
//! a PE with a host entry activates at tick 0, otherwise no earlier than the
//! earliest first-completion bound among the channels it consumes. The final
//! makespan bound is the maximum over (a) per channel, the earliest full
//! supply of all expected wavelets plus one task overhead (the completion
//! activates a task whose end the simulator's finish instant dominates), and
//! (b) per PE, `first_activation + activations × overhead` (task runs on one
//! PE serialize and each charges at least the overhead). Arithmetic
//! saturates: an understated lower bound is still sound.
//!
//! When the channel graph is cyclic the propagation falls back to
//! `first_activation = 0` everywhere (still sound) and the cycle itself is
//! reported as a [`DeadlockVerdict::Cycle`].
//!
//! # Validation
//!
//! The bounds are cross-checked against the cycle-exact flight recorder for
//! every shipping strategy × shape: static link load ≥ recorded occupancy,
//! static critical path ≤ simulated makespan, static SRAM watermark ≥
//! recorded peak (`ceresz lint --analyze`, fuzzer oracle 6, and the
//! `analysis_soundness` integration suite).

use std::collections::{BTreeMap, BTreeSet};

use wse_sim::{Color, CostModel, PeId, Time, TICKS_PER_CYCLE};

use crate::checks::{loc, Loc, RouteIndex};
use crate::diagnostic::{rank, CheckKind, Diagnostic};
use crate::manifest::MappingManifest;

/// Worst-case static load of one directed fabric link.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkLoad {
    /// Total wavelets crossing the link if every declared send fires.
    pub wavelets: u64,
    /// Total streams (individual sends) crossing the link.
    pub streams: u64,
    /// Distinct colors whose routes share the link, sorted.
    pub colors: Vec<u8>,
}

impl LinkLoad {
    /// Upper bound on the link's busy time: each wavelet occupies the link
    /// for one cycle, so total occupancy can never exceed this.
    #[must_use]
    pub fn occupancy_bound(&self) -> Time {
        Time::from_ticks(self.wavelets.saturating_mul(TICKS_PER_CYCLE))
    }

    /// Number of distinct colors contending for the link (1 = dedicated).
    #[must_use]
    pub fn contention(&self) -> usize {
        self.colors.len()
    }
}

/// Lower bounds on when one consumer channel `(PE, color)` can make progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelBound {
    /// The consuming PE.
    pub pe: PeId,
    /// The channel color.
    pub color: Color,
    /// Total wavelets the channel's declared receives consume.
    pub expected_wavelets: u64,
    /// Earliest tick any receive on the channel can complete (supply of the
    /// smallest declared extent). `None` when the channel can never fill —
    /// channel-completeness diagnoses that separately.
    pub first_completion: Option<Time>,
    /// Earliest tick all `expected_wavelets` can have been delivered.
    /// `None` when declared supply falls short of demand.
    pub full_supply: Option<Time>,
}

/// Static SRAM bound for one PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramWatermark {
    /// Summed declared buffer bytes — the high-watermark, since kernels
    /// allocate once at install time and never free.
    pub bytes: u64,
    /// The per-PE budget the mapping was declared against.
    pub budget: u64,
}

/// Outcome of the channel-dependency-graph deadlock check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeadlockVerdict {
    /// The channel-dependency graph is acyclic. Together with clean
    /// channel-completeness and route-soundness checks this *proves* the
    /// mapping deadlock-free: by induction over the topological order, every
    /// channel's producers can always run to completion.
    Proven,
    /// A dependency cycle: each listed channel's supply waits on a task that
    /// the next channel's completion activates. The mapping may deadlock —
    /// reported as an error with this located counterexample.
    Cycle(Vec<(PeId, Color)>),
}

impl DeadlockVerdict {
    /// `true` iff deadlock freedom was proven.
    #[must_use]
    pub fn is_proven(&self) -> bool {
        matches!(self, DeadlockVerdict::Proven)
    }
}

/// The full result of statically analyzing one mapping: sound performance
/// bounds plus ranked diagnostics. This is the scoring surface the mapping
/// autotuner consumes per candidate — no simulation required.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticProfile {
    /// Name of the analyzed mapping.
    pub mapping: String,
    /// Mesh rows.
    pub rows: usize,
    /// Mesh columns.
    pub cols: usize,
    /// Worst-case load per directed link `(from, to)`, for every link some
    /// declared stream crosses.
    pub links: BTreeMap<(PeId, PeId), LinkLoad>,
    /// Per-channel supply bounds, sorted by `(PE, color)`.
    pub channels: Vec<ChannelBound>,
    /// Per-PE SRAM watermark, for every PE that declares buffers.
    pub sram: BTreeMap<PeId, SramWatermark>,
    /// Lower bound on the simulated makespan in ticks.
    pub critical_path: Time,
    /// Deadlock-freedom proof or located counterexample.
    pub deadlock: DeadlockVerdict,
    /// Analysis findings ranked most-severe-first ([`rank`]).
    pub diagnostics: Vec<Diagnostic>,
}

impl StaticProfile {
    /// The heaviest single-link load in wavelets (0 when nothing flows).
    #[must_use]
    pub fn max_link_wavelets(&self) -> u64 {
        self.links.values().map(|l| l.wavelets).max().unwrap_or(0)
    }

    /// Total wavelet-hops across the whole fabric.
    #[must_use]
    pub fn total_link_wavelets(&self) -> u64 {
        self.links
            .values()
            .fold(0u64, |acc, l| acc.saturating_add(l.wavelets))
    }

    /// The highest per-PE SRAM watermark in bytes (0 when no buffers).
    #[must_use]
    pub fn sram_watermark(&self) -> u64 {
        self.sram.values().map(|s| s.bytes).max().unwrap_or(0)
    }

    /// Static SRAM bound for `pe` (0 when it declares no buffers).
    #[must_use]
    pub fn sram_bound(&self, pe: PeId) -> u64 {
        self.sram.get(&pe).map_or(0, |s| s.bytes)
    }

    /// `true` iff the deadlock check proved the mapping deadlock-free.
    #[must_use]
    pub fn is_deadlock_free(&self) -> bool {
        self.deadlock.is_proven()
    }
}

/// How one serialization domain's wavelets can arrive over time.
#[derive(Debug, Clone, Copy)]
enum Envelope {
    /// At most one wavelet per cycle starting after `offset` ticks.
    Rate,
    /// Nothing before `offset` ticks, everything from then on.
    Step,
}

/// One serialization domain feeding a channel (see module docs).
#[derive(Debug, Clone, Copy)]
struct Domain {
    /// Earliest tick the first wavelet can land; `u64::MAX` = never.
    offset: u64,
    /// Total wavelets the domain can ever deliver.
    wavelets: u64,
    envelope: Envelope,
}

impl Domain {
    /// Upper bound on wavelets delivered by tick `t`.
    fn supplied_by(&self, t: u64) -> u64 {
        if t < self.offset {
            return 0;
        }
        match self.envelope {
            Envelope::Step => self.wavelets,
            Envelope::Rate => self.wavelets.min((t - self.offset) / TICKS_PER_CYCLE),
        }
    }

    /// Tick by which the whole domain is guaranteed representable as
    /// supplied (the binary-search upper bracket).
    fn full_by(&self) -> u64 {
        match self.envelope {
            Envelope::Step => self.offset,
            Envelope::Rate => self
                .offset
                .saturating_add(self.wavelets.saturating_mul(TICKS_PER_CYCLE)),
        }
    }
}

/// Earliest tick at which the summed domain envelopes reach `e` wavelets —
/// a lower bound on when `e` wavelets can have been delivered. `None` when
/// the finite-offset domains cannot supply `e` at any time.
fn earliest_supply(e: u64, domains: &[Domain]) -> Option<u64> {
    if e == 0 {
        return Some(0);
    }
    let live: Vec<&Domain> = domains.iter().filter(|d| d.offset != u64::MAX).collect();
    let total = live.iter().fold(0u64, |a, d| a.saturating_add(d.wavelets));
    if total < e {
        return None;
    }
    let supply = |t: u64| {
        live.iter()
            .fold(0u64, |a, d| a.saturating_add(d.supplied_by(t)))
    };
    let mut hi = live.iter().map(|d| d.full_by()).max().unwrap_or(0);
    if hi == u64::MAX {
        hi -= 1; // keep `mid + 1` below from wrapping; supply(MAX-1) = total
    }
    debug_assert!(supply(hi) >= e);
    let mut lo = 0u64;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if supply(mid) >= e {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

fn to_u64(v: usize) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// One declared send with its statically-resolved path, or `None` when the
/// route is defective (those streams never flow; `verify` reports them).
struct ResolvedSend<'a> {
    send: &'a crate::manifest::SendDecl,
    /// Source-first, delivering PE last; `path.len() - 1` hops.
    path: &'a [PeId],
}

/// The declared sends and host injections delivering to one channel.
type Feeds<'m, 'p> = (
    Vec<&'p ResolvedSend<'m>>,
    Vec<&'m crate::manifest::InjectDecl>,
);

/// Run the static performance analysis over `manifest`, pricing task runs
/// with `cost` (use the same [`CostModel`] the simulator runs with — the
/// cross-check in `ceresz lint --analyze` assumes it).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn analyze(manifest: &MappingManifest, cost: &CostModel) -> StaticProfile {
    let overhead = cost.task_overhead.ticks();
    let table = RouteIndex::new(manifest);

    // Resolve each distinct send origin's path once.
    let mut paths: BTreeMap<Loc, Option<Vec<PeId>>> = BTreeMap::new();
    for s in &manifest.sends {
        paths
            .entry(loc(s.pe, s.color))
            .or_insert_with(|| table.path(s.pe, s.color));
    }
    let resolved: Vec<ResolvedSend<'_>> = manifest
        .sends
        .iter()
        .filter(|s| s.sends > 0)
        .filter_map(|send| {
            let path = paths.get(&loc(send.pe, send.color))?.as_deref()?;
            Some(ResolvedSend { send, path })
        })
        .collect();

    // ---- (a) per-link worst-case load --------------------------------
    let mut links: BTreeMap<(PeId, PeId), LinkLoad> = BTreeMap::new();
    for r in &resolved {
        let wavelets = to_u64(r.send.words_per_send).saturating_mul(to_u64(r.send.sends));
        for hop in r.path.windows(2) {
            let load = links.entry((hop[0], hop[1])).or_default();
            load.wavelets = load.wavelets.saturating_add(wavelets);
            load.streams = load.streams.saturating_add(to_u64(r.send.sends));
            let c = r.send.color.id();
            if let Err(pos) = load.colors.binary_search(&c) {
                load.colors.insert(pos, c);
            }
        }
    }

    // ---- (d) channel-dependency graph + deadlock check ---------------
    // Nodes: consumer channels. Edge A -> K when a send contributing to K
    // originates at a PE that consumes A (conservative: the manifest does
    // not record which task issues a send, so any input channel of the
    // producing PE may gate it).
    let mut nodes: BTreeSet<Loc> = BTreeSet::new();
    let mut inputs_of_pe: BTreeMap<(usize, usize), BTreeSet<Loc>> = BTreeMap::new();
    for r in &manifest.recvs {
        if r.recvs > 0 {
            let k = loc(r.pe, r.color);
            nodes.insert(k);
            inputs_of_pe.entry(k.0).or_default().insert(k);
        }
    }
    let mut succs: BTreeMap<Loc, BTreeSet<Loc>> = BTreeMap::new();
    let mut preds: BTreeMap<Loc, BTreeSet<Loc>> = BTreeMap::new();
    for r in &resolved {
        let dest = *r.path.last().expect("resolved paths are non-empty");
        let k = loc(dest, r.send.color);
        if !nodes.contains(&k) {
            continue; // orphan producer; channel-completeness reports it
        }
        if let Some(gates) = inputs_of_pe.get(&(r.send.pe.row, r.send.pe.col)) {
            for &a in gates {
                succs.entry(a).or_default().insert(k);
                preds.entry(k).or_default().insert(a);
            }
        }
    }
    let (topo, cycle) = topo_or_cycle(&nodes, &succs, &preds);

    // ---- (b) critical-path lower bound -------------------------------
    // First-activation bounds per PE, propagated in topological order; on a
    // cyclic graph fall back to 0 everywhere (still a sound lower bound).
    let mut entry_pes: BTreeSet<(usize, usize)> = BTreeSet::new();
    for e in &manifest.entries {
        entry_pes.insert((e.pe.row, e.pe.col));
    }
    let mut first_completion: BTreeMap<Loc, u64> = BTreeMap::new(); // MAX = never
    let first_act = |pe: (usize, usize),
                     completions: &BTreeMap<Loc, u64>,
                     inputs: &BTreeMap<(usize, usize), BTreeSet<Loc>>|
     -> u64 {
        if entry_pes.contains(&pe) {
            return 0;
        }
        inputs.get(&pe).map_or(u64::MAX, |chans| {
            chans
                .iter()
                .map(|k| completions.get(k).copied().unwrap_or(u64::MAX))
                .min()
                .unwrap_or(u64::MAX)
        })
    };

    // Per-channel demand, gathered once.
    let mut demand: BTreeMap<Loc, (u64, u64)> = BTreeMap::new(); // (min extent, total)
    for r in &manifest.recvs {
        if r.recvs == 0 {
            continue;
        }
        let e = demand.entry(loc(r.pe, r.color)).or_insert((u64::MAX, 0));
        e.0 = e.0.min(to_u64(r.extent));
        e.1 =
            e.1.saturating_add(to_u64(r.extent).saturating_mul(to_u64(r.recvs)));
    }

    // Each channel's contributors, gathered once: the fabric streams and
    // loopbacks delivering to it, and the host injections into it.
    let mut feeds: BTreeMap<Loc, Feeds<'_, '_>> = BTreeMap::new();
    for r in &resolved {
        let dest = *r.path.last().expect("resolved paths are non-empty");
        feeds.entry(loc(dest, r.send.color)).or_default().0.push(r);
    }
    for inj in &manifest.injections {
        feeds.entry(loc(inj.pe, inj.color)).or_default().1.push(inj);
    }

    let order: Vec<Loc> = if cycle.is_some() {
        nodes.iter().copied().collect()
    } else {
        topo
    };
    let mut channels: Vec<ChannelBound> = Vec::with_capacity(order.len());
    let mut full_supplies: Vec<(Loc, Option<u64>)> = Vec::new();
    for k in order {
        let domains = channel_domains(
            feeds.get(&k).unwrap_or(&Feeds::default()),
            overhead,
            cycle.is_some(),
            &first_completion,
            &inputs_of_pe,
            &entry_pes,
        );
        let (e_min, e_total) = demand.get(&k).copied().unwrap_or((0, 0));
        let first = earliest_supply(e_min, &domains);
        let full = earliest_supply(e_total, &domains);
        first_completion.insert(k, first.unwrap_or(u64::MAX));
        full_supplies.push((k, full));
        channels.push(ChannelBound {
            pe: PeId::new(k.0 .0, k.0 .1),
            color: Color::new(k.1),
            expected_wavelets: e_total,
            first_completion: first.map(Time::from_ticks),
            full_supply: full.map(Time::from_ticks),
        });
    }
    channels.sort_by_key(|c| loc(c.pe, c.color));

    let mut critical = 0u64;
    // (b-i) per channel: the final receive's completion activates a task
    // whose end — at least one overhead later — the finish instant dominates.
    for (_, full) in &full_supplies {
        if let Some(t) = full {
            critical = critical.max(t.saturating_add(overhead));
        }
    }
    // (b-ii) per PE: task runs serialize and each charges >= the overhead.
    let mut acts_per_pe: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for e in &manifest.entries {
        let n = acts_per_pe.entry((e.pe.row, e.pe.col)).or_default();
        *n = n.saturating_add(1);
    }
    for r in &manifest.recvs {
        let n = acts_per_pe.entry((r.pe.row, r.pe.col)).or_default();
        *n = n.saturating_add(to_u64(r.recvs));
    }
    for s in &manifest.sends {
        if s.activates.is_some() {
            let n = acts_per_pe.entry((s.pe.row, s.pe.col)).or_default();
            *n = n.saturating_add(to_u64(s.sends));
        }
    }
    for (&pe, &n) in &acts_per_pe {
        if n == 0 {
            continue;
        }
        let act = if cycle.is_some() {
            0
        } else {
            first_act(pe, &first_completion, &inputs_of_pe)
        };
        if act != u64::MAX {
            critical = critical.max(act.saturating_add(n.saturating_mul(overhead)));
        }
    }
    let critical_path = Time::from_ticks(critical);

    // ---- (c) per-PE SRAM watermark -----------------------------------
    let mut sram: BTreeMap<PeId, SramWatermark> = BTreeMap::new();
    for b in &manifest.buffers {
        let w = sram.entry(b.pe).or_insert(SramWatermark {
            bytes: 0,
            budget: to_u64(manifest.sram_bytes),
        });
        w.bytes = w.bytes.saturating_add(to_u64(b.bytes));
    }

    // ---- diagnostics, ranked by predicted severity -------------------
    let mut diagnostics = Vec::new();
    let deadlock = match cycle {
        Some(cyc) => {
            let named: Vec<String> = cyc
                .iter()
                .map(|&((r, c), col)| format!("{} {}", PeId::new(r, c), Color::new(col)))
                .collect();
            let head = cyc[0];
            diagnostics.push(
                Diagnostic::error(
                    CheckKind::DeadlockFreedom,
                    format!(
                        "channel-dependency cycle: {} — each channel's supply waits on a \
                         task its successor's completion activates",
                        named.join(" -> "),
                    ),
                )
                .at_pe(PeId::new(head.0 .0, head.0 .1))
                .on_color(Color::new(head.1))
                .with_hint("break the cycle with a host entry activation or re-stage the exchange"),
            );
            DeadlockVerdict::Cycle(
                cyc.into_iter()
                    .map(|((r, c), col)| (PeId::new(r, c), Color::new(col)))
                    .collect(),
            )
        }
        None => DeadlockVerdict::Proven,
    };
    // Contended links are only worth flagging when their serialized load
    // alone exceeds the whole-mapping critical path: those are the links the
    // analysis predicts to be the bottleneck.
    let mut hot: Vec<(&(PeId, PeId), &LinkLoad)> = links
        .iter()
        .filter(|(_, l)| l.contention() > 1 && l.occupancy_bound() > critical_path)
        .collect();
    hot.sort_by(|a, b| b.1.wavelets.cmp(&a.1.wavelets).then(a.0.cmp(b.0)));
    for (&(from, to), load) in hot {
        diagnostics.push(
            Diagnostic::warning(
                CheckKind::LinkContention,
                format!(
                    "link {from} -> {to} serializes {} streams on {} colors; worst-case \
                     {} wavelets make it the predicted bottleneck",
                    load.streams,
                    load.contention(),
                    load.wavelets,
                ),
            )
            .at_pe(from)
            .with_hint("route the colors over disjoint links or rebalance the stages"),
        );
    }
    rank(&mut diagnostics);

    StaticProfile {
        mapping: manifest.name.clone(),
        rows: manifest.rows,
        cols: manifest.cols,
        links,
        channels,
        sram,
        critical_path,
        deadlock,
        diagnostics,
    }
}

/// Build the serialization domains of one channel's contributors.
fn channel_domains(
    (sends, injections): &Feeds<'_, '_>,
    overhead: u64,
    cyclic: bool,
    first_completion: &BTreeMap<Loc, u64>,
    inputs_of_pe: &BTreeMap<(usize, usize), BTreeSet<Loc>>,
    entry_pes: &BTreeSet<(usize, usize)>,
) -> Vec<Domain> {
    // Earliest any task on `pe` can start running (activation + overhead
    // puts its *end* — and thus its sends — one overhead later still, which
    // start_of accounts for by itself being the earliest possible end).
    let start_of = |pe: PeId| -> u64 {
        let key = (pe.row, pe.col);
        let act = if entry_pes.contains(&key) {
            0
        } else if let Some(chans) = inputs_of_pe.get(&key) {
            if cyclic {
                0 // no topological order to propagate through; 0 stays sound
            } else {
                chans
                    .iter()
                    .map(|c| first_completion.get(c).copied().unwrap_or(u64::MAX))
                    .min()
                    .unwrap_or(u64::MAX)
            }
        } else {
            u64::MAX // no entry and no input: the PE can never run a task
        };
        if act == u64::MAX {
            u64::MAX
        } else {
            act.saturating_add(overhead)
        }
    };
    // Fabric streams group by final link; every loopback declaration and
    // every injection is its own domain.
    let mut rate: BTreeMap<(PeId, PeId), Domain> = BTreeMap::new();
    let mut out: Vec<Domain> = Vec::new();
    for r in sends {
        let dest = *r.path.last().expect("paths are non-empty");
        let wavelets = to_u64(r.send.words_per_send).saturating_mul(to_u64(r.send.sends));
        if wavelets == 0 {
            continue;
        }
        let start = start_of(r.send.pe);
        let hops = to_u64(r.path.len() - 1);
        if hops == 0 {
            // Local RAMP loopback: delivered whole, >= n cycles after the
            // issuing task's end; distinct streams need not serialize.
            let offset = if start == u64::MAX {
                u64::MAX
            } else {
                start.saturating_add(to_u64(r.send.words_per_send).saturating_mul(TICKS_PER_CYCLE))
            };
            out.push(Domain {
                offset,
                wavelets,
                envelope: Envelope::Step,
            });
        } else {
            let offset = if start == u64::MAX {
                u64::MAX
            } else {
                start.saturating_add(hops.saturating_mul(TICKS_PER_CYCLE))
            };
            let final_link = (r.path[r.path.len() - 2], dest);
            let d = rate.entry(final_link).or_insert(Domain {
                offset: u64::MAX,
                wavelets: 0,
                envelope: Envelope::Rate,
            });
            d.offset = d.offset.min(offset);
            d.wavelets = d.wavelets.saturating_add(wavelets);
        }
    }
    for inj in injections {
        if inj.words == 0 {
            continue;
        }
        out.push(Domain {
            offset: 0,
            wavelets: to_u64(inj.words),
            envelope: Envelope::Rate,
        });
    }
    out.extend(rate.into_values());
    out
}

/// Kahn's algorithm over the channel graph. Returns the topological order
/// when acyclic, or a located cycle (forward direction, deterministic)
/// otherwise.
fn topo_or_cycle(
    nodes: &BTreeSet<Loc>,
    succs: &BTreeMap<Loc, BTreeSet<Loc>>,
    preds: &BTreeMap<Loc, BTreeSet<Loc>>,
) -> (Vec<Loc>, Option<Vec<Loc>>) {
    let mut indeg: BTreeMap<Loc, usize> = nodes
        .iter()
        .map(|&n| (n, preds.get(&n).map_or(0, BTreeSet::len)))
        .collect();
    let mut ready: BTreeSet<Loc> = indeg
        .iter()
        .filter(|&(_, &d)| d == 0)
        .map(|(&n, _)| n)
        .collect();
    let mut topo = Vec::with_capacity(nodes.len());
    while let Some(&n) = ready.iter().next() {
        ready.remove(&n);
        topo.push(n);
        if let Some(out) = succs.get(&n) {
            for &m in out {
                let d = indeg.get_mut(&m).expect("edges stay within the node set");
                *d -= 1;
                if *d == 0 {
                    ready.insert(m);
                }
            }
        }
    }
    if topo.len() == nodes.len() {
        return (topo, None);
    }
    // Every leftover node keeps a leftover predecessor; walking predecessors
    // from the smallest leftover node must revisit one, closing a cycle.
    let leftover: BTreeSet<Loc> = {
        let done: BTreeSet<Loc> = topo.iter().copied().collect();
        nodes
            .iter()
            .copied()
            .filter(|n| !done.contains(n))
            .collect()
    };
    let mut walk: Vec<Loc> = Vec::new();
    let mut seen: BTreeSet<Loc> = BTreeSet::new();
    let mut cur = *leftover.iter().next().expect("leftover set is non-empty");
    loop {
        if !seen.insert(cur) {
            let pos = walk.iter().position(|&n| n == cur).unwrap_or(0);
            let mut cycle: Vec<Loc> = walk[pos..].to_vec();
            cycle.reverse(); // pred-walk order -> forward dependency order
            return (topo, Some(cycle));
        }
        walk.push(cur);
        cur = *preds
            .get(&cur)
            .into_iter()
            .flat_map(|s| s.iter())
            .find(|p| leftover.contains(p))
            .expect("leftover nodes keep a leftover predecessor");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::MappingManifest;
    use wse_sim::{Direction, RouteRule, TaskId};

    fn rule(input: Option<Direction>, outputs: &[Direction]) -> RouteRule {
        RouteRule::new(input, outputs)
    }

    const C0: Color = Color::new(0);
    const C1: Color = Color::new(1);
    const T1: TaskId = TaskId(1);
    const T9: TaskId = TaskId(9);

    /// PE(0,0) streams east to PE(0,1): 8 sends x 4 wavelets.
    fn two_pe_pipeline() -> MappingManifest {
        let mut m = MappingManifest::new("two-pe", 1, 2);
        let a = PeId::new(0, 0);
        let b = PeId::new(0, 1);
        m.route(a, C0, rule(None, &[Direction::East]));
        m.route(b, C0, rule(Some(Direction::West), &[Direction::Ramp]));
        m.declare_send(a, C0, 4, 8, None);
        m.declare_recv(b, C0, 4, 8, T1);
        m.declare_task(a, T9);
        m.declare_task(b, T1);
        m.declare_entry(a, T9);
        m
    }

    #[test]
    fn link_load_counts_every_declared_wavelet() {
        let profile = analyze(&two_pe_pipeline(), &CostModel::unit());
        let link = &profile.links[&(PeId::new(0, 0), PeId::new(0, 1))];
        assert_eq!(link.wavelets, 32);
        assert_eq!(link.streams, 8);
        assert_eq!(link.colors, vec![0]);
        assert_eq!(link.contention(), 1);
        assert_eq!(link.occupancy_bound(), Time::from_cycles(32));
        assert_eq!(profile.max_link_wavelets(), 32);
        assert_eq!(profile.total_link_wavelets(), 32);
    }

    #[test]
    fn critical_path_tracks_the_supply_envelope() {
        // Unit cost model: overhead = 1 cycle. Entry task on PE(0,0) can end
        // no earlier than cycle 1, first wavelet needs 1 hop => offset 2.
        // 32 wavelets serialize on the final link => full supply at cycle 34,
        // plus the consuming task's overhead => 35 cycles.
        let profile = analyze(&two_pe_pipeline(), &CostModel::unit());
        assert_eq!(profile.critical_path, Time::from_cycles(35));
        let ch = &profile.channels[0];
        assert_eq!((ch.pe, ch.color), (PeId::new(0, 1), C0));
        assert_eq!(ch.expected_wavelets, 32);
        // First completion: 4 wavelets past offset 2 => cycle 6.
        assert_eq!(ch.first_completion, Some(Time::from_cycles(6)));
        assert_eq!(ch.full_supply, Some(Time::from_cycles(34)));
        assert!(profile.is_deadlock_free());
    }

    #[test]
    fn injection_supplies_from_the_epoch() {
        let mut m = MappingManifest::new("inject", 1, 1);
        let a = PeId::new(0, 0);
        m.declare_injection(a, C0, 16);
        m.declare_recv(a, C0, 16, 1, T1);
        m.declare_task(a, T1);
        let profile = analyze(&m, &CostModel::unit());
        let ch = &profile.channels[0];
        // 16 wavelets at 1/cycle from the epoch, + 1 cycle task overhead.
        assert_eq!(ch.first_completion, Some(Time::from_cycles(16)));
        assert_eq!(profile.critical_path, Time::from_cycles(17));
        assert!(profile.is_deadlock_free());
    }

    #[test]
    fn loopback_streams_do_not_serialize() {
        let mut m = MappingManifest::new("loop", 1, 1);
        let a = PeId::new(0, 0);
        m.route(a, C0, rule(None, &[Direction::Ramp]));
        m.declare_send(a, C0, 4, 2, None);
        m.declare_recv(a, C0, 4, 2, T1);
        m.declare_task(a, T1);
        m.declare_task(a, T9);
        m.declare_entry(a, T9);
        let profile = analyze(&m, &CostModel::unit());
        let ch = &profile.channels[0];
        // Both 4-wavelet loopback streams may land together at end + 4:
        // start >= 1, + 4 cycles => full supply at 5, not 1 + 8.
        assert_eq!(ch.full_supply, Some(Time::from_cycles(5)));
        assert!(profile.links.is_empty(), "loopback crosses no fabric link");
    }

    #[test]
    fn deadlocked_exchange_yields_a_located_cycle() {
        // A consumes c0 (fed by B), B consumes c1 (fed by A); no entry
        // anywhere. Task liveness passes (each task has an activating recv),
        // channel accounting balances — only the dependency-cycle check can
        // see that nothing ever starts.
        let mut m = MappingManifest::new("deadlock", 1, 2);
        let a = PeId::new(0, 0);
        let b = PeId::new(0, 1);
        m.route(a, C1, rule(None, &[Direction::East]));
        m.route(b, C1, rule(Some(Direction::West), &[Direction::Ramp]));
        m.route(b, C0, rule(None, &[Direction::West]));
        m.route(a, C0, rule(Some(Direction::East), &[Direction::Ramp]));
        m.declare_send(a, C1, 4, 1, None);
        m.declare_recv(b, C1, 4, 1, T1);
        m.declare_task(b, T1);
        m.declare_send(b, C0, 4, 1, None);
        m.declare_recv(a, C0, 4, 1, T1);
        m.declare_task(a, T1);
        let profile = analyze(&m, &CostModel::unit());
        let DeadlockVerdict::Cycle(cycle) = &profile.deadlock else {
            panic!("expected a located cycle, got {:?}", profile.deadlock);
        };
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&(a, C0)));
        assert!(cycle.contains(&(b, C1)));
        let diag = &profile.diagnostics[0];
        assert_eq!(diag.check, CheckKind::DeadlockFreedom);
        assert!(diag.message.contains("channel-dependency cycle"), "{diag}");
        // The liveness heuristic alone accepts this mapping.
        let report = crate::checks::verify(&m);
        assert!(
            report.is_clean(),
            "the five base checks miss the deadlock: {report}"
        );
    }

    #[test]
    fn sram_watermark_sums_declared_buffers() {
        let mut m = MappingManifest::new("sram", 1, 1);
        let a = PeId::new(0, 0);
        m.declare_buffer(a, 1024, "block");
        m.declare_buffer(a, 512, "scratch");
        let profile = analyze(&m, &CostModel::unit());
        assert_eq!(profile.sram_bound(a), 1536);
        assert_eq!(profile.sram_watermark(), 1536);
        assert_eq!(profile.sram[&a].budget, 48 * 1024);
        assert_eq!(profile.sram_bound(PeId::new(0, 1)), 0);
    }

    #[test]
    fn contended_bottleneck_link_is_flagged() {
        // Two colors funnel through the same final link into PE(0,2), with
        // enough wavelets that the link bound exceeds the critical path.
        let mut m = MappingManifest::new("contended", 1, 3);
        let a = PeId::new(0, 0);
        let b = PeId::new(0, 1);
        let c = PeId::new(0, 2);
        for (color, src) in [(C0, a), (C1, b)] {
            for col in src.col..2 {
                let pe = PeId::new(0, col);
                let input = (col > src.col).then_some(Direction::West);
                m.route(pe, color, rule(input, &[Direction::East]));
            }
            let input = Some(Direction::West);
            m.route(c, color, rule(input, &[Direction::Ramp]));
            m.declare_send(src, color, 64, 4, None);
            m.declare_recv(c, color, 64, 4, T1);
        }
        m.declare_task(c, T1);
        m.declare_task(a, T9);
        m.declare_task(b, T9);
        m.declare_entry(a, T9);
        m.declare_entry(b, T9);
        let profile = analyze(&m, &CostModel::unit());
        let shared = &profile.links[&(b, c)];
        assert_eq!(shared.contention(), 2);
        assert_eq!(shared.wavelets, 512);
        assert!(
            profile
                .diagnostics
                .iter()
                .any(|d| d.check == CheckKind::LinkContention),
            "expected a contention warning: {:?}",
            profile.diagnostics
        );
    }

    #[test]
    fn earliest_supply_is_monotone_and_exact() {
        let domains = [
            Domain {
                offset: 2_000,
                wavelets: 4,
                envelope: Envelope::Rate,
            },
            Domain {
                offset: 0,
                wavelets: 2,
                envelope: Envelope::Rate,
            },
        ];
        assert_eq!(earliest_supply(0, &domains), Some(0));
        assert_eq!(earliest_supply(1, &domains), Some(1_000));
        assert_eq!(earliest_supply(2, &domains), Some(2_000));
        // Third wavelet: second domain is drained, first opens after 2 cyc.
        assert_eq!(earliest_supply(3, &domains), Some(3_000));
        assert_eq!(earliest_supply(6, &domains), Some(6_000));
        assert_eq!(earliest_supply(7, &domains), None);
    }
}
