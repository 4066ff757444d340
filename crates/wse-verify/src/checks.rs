//! The five static checks and the verification report.
//!
//! All checks are pure functions of the [`MappingManifest`]; iteration
//! orders are deterministic (declaration order, or sorted by `(PE, color)`)
//! so repeated verification of the same mapping yields byte-identical
//! reports.
//!
//! Cost is linear in the declarations plus the mesh area. Routes live on the
//! fabric's own slot layout — one [`PackedRule`] byte per `(PE, color)`,
//! indexed `pe.index(cols) * COLOR_SLOTS + color.index()` as in
//! [`wse_sim::Fabric`] — and are walked by the simulator's own
//! [`RouteWalk`], so a hop is one array read; the channel, SRAM and task
//! tables are declarations sorted by PE.
//!
//! [`wse_sim::Fabric`]: wse_sim::fabric::Fabric

use std::cmp::Ordering;
use std::collections::BTreeMap;

use wse_sim::fabric::{PackedRule, RouteFault, RouteWalk, COLOR_SLOTS};
use wse_sim::{Color, Direction, PeId, RouteRule};

use crate::diagnostic::{CheckKind, Diagnostic, Severity};
use crate::manifest::MappingManifest;

/// Everything the verifier found for one manifest.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// All findings, in check order (route soundness, color discipline,
    /// channel completeness, SRAM budget, task liveness).
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// Findings with [`Severity::Error`].
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Findings with [`Severity::Warning`].
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// True when no *error* was found (warnings do not fail a mapping).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Number of error findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} error(s), {} warning(s)",
            self.error_count(),
            self.warnings().count()
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Sort key for deterministic per-PE/color maps.
pub(crate) type Loc = ((usize, usize), u8);

pub(crate) fn loc(pe: PeId, color: Color) -> Loc {
    ((pe.row, pe.col), color.id())
}

/// Run all five checks over `manifest`.
#[must_use]
pub fn verify(manifest: &MappingManifest) -> VerifyReport {
    let mut diags = Vec::new();
    let table = RouteIndex::new(manifest);
    let origins = check_route_soundness(manifest, &table, &mut diags);
    check_color_discipline(manifest, &table, &mut diags);
    check_channel_completeness(manifest, &origins, &mut diags);
    check_sram_budget(manifest, &mut diags);
    check_task_liveness(manifest, &mut diags);
    VerifyReport { diagnostics: diags }
}

/// A value per `(PE, color)` on the fabric's slot layout, with the pairs on
/// PEs outside the mesh, which only a defective mapping declares, in a side
/// map.
struct SlotMap<T> {
    rows: usize,
    cols: usize,
    vacant: T,
    /// `slots[pe.index(cols) * COLOR_SLOTS + color.index()]`, `vacant` when
    /// unset.
    slots: Vec<T>,
    off_mesh: BTreeMap<Loc, T>,
}

impl<T: Copy + PartialEq> SlotMap<T> {
    fn new(rows: usize, cols: usize, vacant: T) -> Self {
        Self {
            rows,
            cols,
            vacant,
            slots: vec![vacant; rows * cols * COLOR_SLOTS],
            off_mesh: BTreeMap::new(),
        }
    }

    fn on_mesh(&self, pe: PeId) -> bool {
        pe.row < self.rows && pe.col < self.cols
    }

    /// The value of `(pe, color)`, `vacant` when unset.
    fn at(&self, pe: PeId, color: Color) -> T {
        if self.on_mesh(pe) {
            self.slots[pe.index(self.cols) * COLOR_SLOTS + color.index()]
        } else {
            self.off_mesh
                .get(&loc(pe, color))
                .copied()
                .unwrap_or(self.vacant)
        }
    }

    fn get(&self, pe: PeId, color: Color) -> Option<T> {
        let value = self.at(pe, color);
        (value != self.vacant).then_some(value)
    }

    /// The slot of `(pe, color)`, `vacant` until written.
    fn slot(&mut self, pe: PeId, color: Color) -> &mut T {
        if self.on_mesh(pe) {
            &mut self.slots[pe.index(self.cols) * COLOR_SLOTS + color.index()]
        } else {
            self.off_mesh.entry(loc(pe, color)).or_insert(self.vacant)
        }
    }

    /// Every set slot in `(PE, color)` order: an off-mesh PE sorts inside
    /// its row when only its column is beyond the mesh, after every mesh row
    /// otherwise.
    fn iter(&self) -> impl Iterator<Item = (PeId, Color, T)> + '_ {
        let on = self
            .slots
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != self.vacant)
            .map(|(s, &v)| (self.pe_at(s / COLOR_SLOTS), color_at(s % COLOR_SLOTS), v));
        let off = self
            .off_mesh
            .iter()
            .map(|(&((row, col), c), &v)| (PeId::new(row, col), Color::new(c), v));
        merge_by_pe(on, off, |e| e.0)
    }

    fn pe_at(&self, index: usize) -> PeId {
        PeId::new(index / self.cols, index % self.cols)
    }
}

fn color_at(index: usize) -> Color {
    Color::new(u8::try_from(index).expect("color slots hold 24 colors"))
}

/// Merge two sequences that are each sorted by PE (and never share one)
/// into one in `(row, col)` order.
fn merge_by_pe<T>(
    a: impl Iterator<Item = T>,
    b: impl Iterator<Item = T>,
    pe: impl Fn(&T) -> PeId,
) -> impl Iterator<Item = T> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if pe(y) < pe(x) => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
}

/// The effective routing table: one rule per `(PE, color)`, the last claim
/// winning as on the dynamic fabric, whose `Fabric::set_rule` overwrites.
/// Conflicting re-claims are reported by the color-discipline check.
pub(crate) struct RouteIndex {
    rules: SlotMap<PackedRule>,
    /// The pair of every re-claim, in declaration order.
    reclaimed: Vec<Loc>,
    /// Pairs with a rule, per color: a walk on a color that crosses more
    /// PEs than that has crossed one twice.
    per_color: [usize; COLOR_SLOTS],
}

impl RouteIndex {
    pub(crate) fn new(manifest: &MappingManifest) -> Self {
        let mut rules = SlotMap::new(manifest.rows, manifest.cols, PackedRule::VACANT);
        let mut reclaimed = Vec::new();
        let mut per_color = [0; COLOR_SLOTS];
        for r in &manifest.routes {
            let slot = rules.slot(r.pe, r.color);
            if slot.is_vacant() {
                per_color[r.color.index()] += 1;
            } else {
                reclaimed.push(loc(r.pe, r.color));
            }
            *slot = PackedRule::new(r.rule);
        }
        Self {
            rules,
            reclaimed,
            per_color,
        }
    }

    /// Walk the stream entering `src` from `from` on `color` (`None` =
    /// sent by `src`). A walk on a color that crosses more PEs than the
    /// color has rules has crossed one twice, so that count bounds it.
    fn walk(
        &self,
        src: PeId,
        color: Color,
        from: Option<Direction>,
    ) -> RouteWalk<impl Fn(PeId) -> PackedRule + '_> {
        RouteWalk::new(
            (self.rules.rows, self.rules.cols),
            move |pe| self.rules.at(pe, color),
            src,
            from,
            self.per_color[color.index()] + 1,
        )
    }

    /// Silent hop-by-hop walk of `src`'s stream on `color`.
    ///
    /// Returns the full PE path — source first, delivering (RAMP) PE last —
    /// when the route is sound, or `None` on any defect (route soundness
    /// diagnoses the defects themselves). The hop count of the path is
    /// `len() - 1`; a single-element path is a local RAMP loopback. Used by
    /// the static performance analysis, which needs every link a stream
    /// crosses rather than just its destination.
    pub(crate) fn path(&self, src: PeId, color: Color) -> Option<Vec<PeId>> {
        let mut walk = self.walk(src, color, None);
        let path = walk.by_ref().collect();
        walk.outcome().is_ok().then_some(path)
    }
}

/// The resolved destination of every send origin, walked once.
struct Origins {
    /// Index into `dests` per origin `(PE, color)` that sends.
    walked: SlotMap<u32>,
    dests: Vec<Option<PeId>>,
}

impl Origins {
    fn dest(&self, pe: PeId, color: Color) -> Option<PeId> {
        self.dests[self.walked.get(pe, color)? as usize]
    }
}

/// Turn the failed walk of `src`'s stream into its diagnostic.
fn walk_diagnostic(
    outcome: Result<PeId, RouteFault>,
    table: &RouteIndex,
    src: PeId,
    color: Color,
) -> Option<Diagnostic> {
    let (rows, cols) = (table.rules.rows, table.rules.cols);
    let Err(fault) = outcome else {
        return None;
    };
    let (at, message, hint) = match fault {
        RouteFault::NoRule(at) => (
            at,
            format!("stream from {src} needs a routing rule here, but none is installed"),
            "install a rule with Simulator::route before injecting on this color",
        ),
        RouteFault::Mismatch {
            at,
            arrived_from,
            accepts,
        } => (
            at,
            format!(
                "stream from {src} arrives from {arrived_from:?} but the rule accepts {accepts:?}"
            ),
            "the rule's input direction must match the upstream hop",
        ),
        RouteFault::NoOutput(at) => (
            at,
            format!("rule on the path from {src} has no output direction"),
            "add an output direction or Ramp to the rule",
        ),
        RouteFault::Multicast(at) => (
            at,
            format!("rule on the path from {src} is multicast (several non-RAMP outputs)"),
            "the simulator streams are unicast; relay explicitly instead",
        ),
        RouteFault::OffMesh(at, dir) => (
            at,
            format!("rule outputs {dir:?} off the {rows}x{cols} mesh"),
            "shrink the route or grow the mesh shape",
        ),
        RouteFault::Loop => {
            let mut members: Vec<PeId> = table.walk(src, color, None).collect();
            members.sort_unstable();
            members.dedup();
            (
                src,
                format!(
                    "route cycles without reaching a RAMP (cycle through {})",
                    join_pes(members.into_iter()),
                ),
                "one PE on the cycle must output to Ramp to deliver the stream",
            )
        }
    };
    Some(
        Diagnostic::error(CheckKind::RouteSoundness, message)
            .at_pe(at)
            .on_color(color)
            .with_hint(hint),
    )
}

fn join_pes(pes: impl Iterator<Item = PeId>) -> String {
    let mut s = String::new();
    for (i, pe) in pes.enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&pe.to_string());
    }
    s
}

/// Check 1 — route soundness: every declared sender's stream resolves
/// on-mesh to a RAMP with no ramp-less cycle, and every rule references
/// on-mesh PEs. Returns where each sending origin's stream is delivered.
fn check_route_soundness(
    manifest: &MappingManifest,
    table: &RouteIndex,
    diags: &mut Vec<Diagnostic>,
) -> Origins {
    for r in &manifest.routes {
        if r.pe.row >= manifest.rows || r.pe.col >= manifest.cols {
            diags.push(
                Diagnostic::error(
                    CheckKind::RouteSoundness,
                    format!(
                        "rule installed outside the {}x{} mesh",
                        manifest.rows, manifest.cols
                    ),
                )
                .at_pe(r.pe)
                .on_color(r.color),
            );
        }
    }
    let mut origins = Origins {
        walked: SlotMap::new(manifest.rows, manifest.cols, u32::MAX),
        dests: Vec::new(),
    };
    for s in manifest.sends.iter().filter(|s| s.sends > 0) {
        let slot = origins.walked.slot(s.pe, s.color);
        if *slot != u32::MAX {
            continue; // this origin already resolved
        }
        *slot = u32::try_from(origins.dests.len()).expect("fewer than 2^32 send origins");
        let outcome = table.walk(s.pe, s.color, None).outcome();
        origins.dests.push(outcome.ok());
        diags.extend(walk_diagnostic(outcome, table, s.pe, s.color));
    }
    check_rampless_cycles(table, diags);
    // Origin rules (input = None, not a local loopback) that no declared
    // sender uses: suspicious — likely a missing declaration.
    for (pe, color, rule) in table.rules.iter() {
        if rule.input().is_none() && !rule.delivers() && origins.walked.get(pe, color).is_none() {
            diags.push(
                Diagnostic::warning(
                    CheckKind::RouteSoundness,
                    "route origin installed but no sender is declared for it".to_string(),
                )
                .at_pe(pe)
                .on_color(color)
                .with_hint("declare the send in the manifest or remove the dead route"),
            );
        }
    }
    origins
}

/// Detect ramp-less cycles in the per-color successor graph of the routing
/// tables themselves, independent of any declared sender.
///
/// A rule's successor is the neighbor its single non-RAMP output points at,
/// provided that neighbor's rule accepts the stream (input = opposite
/// direction): the next PE a route walk yields. Rules that output to RAMP
/// deliver and have no successor. A cycle in this graph is a set of rules
/// that forward to each other forever without delivering — data entering it
/// is lost and its sender's downstream receives deadlock, so it is an error
/// even when no declared sender currently feeds it.
///
/// Each color's PEs are walked in `(row, col)` order, each entering its own
/// rule from that rule's input, until the walk yields a PE seen before. A
/// per-PE stamp records which walk saw it: a stamp from this walk closes a
/// cycle, one from an earlier walk of the same color joins explored ground.
fn check_rampless_cycles(table: &RouteIndex, diags: &mut Vec<Diagnostic>) {
    let rules = &table.rules;
    let mesh_pes = rules.rows * rules.cols;
    // Each color's mesh PEs in row-major order, from one pass over the table.
    let mut by_color: Vec<Vec<usize>> = vec![Vec::new(); COLOR_SLOTS];
    for (s, &rule) in rules.slots.iter().enumerate() {
        if !rule.is_vacant() {
            by_color[s % COLOR_SLOTS].push(s / COLOR_SLOTS);
        }
    }
    // Stamp slots: the mesh row-major, then the PEs off it that carry rules.
    let mut off_mesh: Vec<(usize, usize)> = rules.off_mesh.keys().map(|&(pe, _)| pe).collect();
    off_mesh.dedup();
    let stamp_of = |pe: PeId| {
        if rules.on_mesh(pe) {
            pe.index(rules.cols)
        } else {
            let at = off_mesh.binary_search(&(pe.row, pe.col));
            mesh_pes + at.expect("a successor carries a rule")
        }
    };
    let mut stamps = vec![0u32; mesh_pes + off_mesh.len()];
    let mut walk = 0u32;
    let mut path: Vec<PeId> = Vec::new();
    for (c, mesh) in by_color.iter().enumerate() {
        let color = color_at(c);
        let first_walk = walk + 1;
        let off = rules
            .off_mesh
            .keys()
            .filter(|&&(_, kc)| kc == color.id())
            .map(|&((row, col), _)| PeId::new(row, col));
        let on = mesh.iter().map(|&i| rules.pe_at(i));
        for start in merge_by_pe(on, off, |&pe| pe) {
            if stamps[stamp_of(start)] >= first_walk {
                continue;
            }
            walk += 1;
            path.clear();
            let from = rules.at(start, color).input();
            for cur in table.walk(start, color, from) {
                let stamp = &mut stamps[stamp_of(cur)];
                if *stamp == walk {
                    let pos = path.iter().position(|&p| p == cur).unwrap_or(0);
                    let cycle = &path[pos..];
                    diags.push(
                        Diagnostic::error(
                            CheckKind::RouteSoundness,
                            format!(
                                "ramp-less cycle: {} forward to each other forever without delivering",
                                join_pes(cycle.iter().copied()),
                            ),
                        )
                        .at_pe(cycle[0])
                        .on_color(color)
                        .with_hint("one PE on the cycle must output to Ramp"),
                    );
                    break;
                }
                if *stamp >= first_walk {
                    break;
                }
                *stamp = walk;
                path.push(cur);
            }
        }
    }
}

/// Check 2 — color discipline: no two rules on one PE claim the same color
/// with different directions. (At most 24 colors live per PE by
/// construction: a [`Color`] id is below `MAX_COLORS`.)
fn check_color_discipline(
    manifest: &MappingManifest,
    table: &RouteIndex,
    diags: &mut Vec<Diagnostic>,
) {
    let mut pairs = table.reclaimed.clone();
    pairs.sort_unstable();
    pairs.dedup();
    // Every claim of a re-claimed pair, by pair, in declaration order.
    let mut claims: Vec<(Loc, &RouteRule)> = manifest
        .routes
        .iter()
        .map(|r| (loc(r.pe, r.color), &r.rule))
        .filter(|(pair, _)| pairs.binary_search(pair).is_ok())
        .collect();
    claims.sort_by_key(|&(pair, _)| pair);
    for group in claims.chunk_by(|a, b| a.0 == b.0) {
        let (((row, col), c), first) = group[0];
        let pe = PeId::new(row, col);
        let color = Color::new(c);
        let n = group.len();
        if group.iter().any(|&(_, rule)| rule != first) {
            diags.push(
                Diagnostic::error(
                    CheckKind::ColorDiscipline,
                    format!(
                        "{n} rules claim this color/direction pair with conflicting \
                         directions; the fabric keeps only the last installed",
                    ),
                )
                .at_pe(pe)
                .on_color(color)
                .with_hint("give each logical channel through this PE its own color"),
            );
        } else {
            diags.push(
                Diagnostic::warning(
                    CheckKind::ColorDiscipline,
                    format!("identical rule installed {n} times"),
                )
                .at_pe(pe)
                .on_color(color),
            );
        }
    }
}

/// Wavelet totals per `(PE, color)`, in `(PE, color)` order.
fn totals(items: impl Iterator<Item = (PeId, Color, usize)>) -> Vec<((PeId, Color), usize)> {
    let mut totals: Vec<((PeId, Color), usize)> = items.map(|(pe, c, n)| ((pe, c), n)).collect();
    totals.sort_by_key(|&(key, _)| key);
    totals.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    totals
}

/// Advance `items`, sorted by `key_of`, past every entry below `key`, and
/// return the entry at `key` if there is one. Keys asked for in ascending
/// order look everything up in one forward pass.
fn seek<'a, T, K: Ord>(items: &mut &'a [T], key: &K, key_of: impl Fn(&T) -> K) -> Option<&'a T> {
    while let Some((first, rest)) = items.split_first() {
        match key_of(first).cmp(key) {
            Ordering::Less => *items = rest,
            Ordering::Equal => return Some(first),
            Ordering::Greater => return None,
        }
    }
    None
}

/// Check 3 — channel completeness: every declared receive has a producer
/// whose wavelets actually reach it, and every producer has a consumer;
/// totals must balance (a shortfall is a static deadlock).
fn check_channel_completeness(
    manifest: &MappingManifest,
    origins: &Origins,
    diags: &mut Vec<Diagnostic>,
) {
    // Total wavelets delivered at each (PE, color); streams whose route is
    // defective deliver nothing (check 1 reports them).
    let injected = manifest.injections.iter().map(|i| (i.pe, i.color, i.words));
    let sent = manifest
        .sends
        .iter()
        .filter(|s| s.sends > 0)
        .filter_map(|s| {
            Some((
                origins.dest(s.pe, s.color)?,
                s.color,
                s.words_per_send * s.sends,
            ))
        });
    let delivered = totals(injected.chain(sent));
    // Total wavelets each (PE, color) expects to consume.
    let expected = totals(
        manifest
            .recvs
            .iter()
            .map(|r| (r.pe, r.color, r.extent * r.recvs)),
    );
    let mut supply = delivered.as_slice();
    for &((pe, color), want) in &expected {
        let got = seek(&mut supply, &(pe, color), |e| e.0).map_or(0, |e| e.1);
        if got == 0 && want > 0 {
            diags.push(
                Diagnostic::error(
                    CheckKind::ChannelCompleteness,
                    format!("orphan receiver: expects {want} wavelet(s) but no upstream sender or injection delivers here"),
                )
                .at_pe(pe)
                .on_color(color)
                .with_hint("declare the matching sender, or drop the receive"),
            );
        } else if got < want {
            diags.push(
                Diagnostic::error(
                    CheckKind::ChannelCompleteness,
                    format!(
                        "channel under-supplied: {got} wavelet(s) delivered but {want} expected — the final receive can never complete (deadlock)"
                    ),
                )
                .at_pe(pe)
                .on_color(color)
                .with_hint("balance the sender's send count/extent with the receiver's"),
            );
        } else if got > want {
            diags.push(
                Diagnostic::warning(
                    CheckKind::ChannelCompleteness,
                    format!(
                        "channel over-supplied: {got} wavelet(s) delivered but only {want} consumed; the rest sit in the inbox"
                    ),
                )
                .at_pe(pe)
                .on_color(color),
            );
        }
    }
    let mut demand = expected.as_slice();
    for &((pe, color), got) in &delivered {
        if got > 0 && seek(&mut demand, &(pe, color), |e| e.0).is_none() {
            diags.push(
                Diagnostic::error(
                    CheckKind::ChannelCompleteness,
                    format!(
                        "orphan producer: {got} wavelet(s) delivered here but no receive is ever posted"
                    ),
                )
                .at_pe(pe)
                .on_color(color)
                .with_hint("post a receive on this color, or remove the sender"),
            );
        }
    }
}

/// Check 4 — SRAM budget: the summed declared reservations of each PE must
/// fit the per-PE capacity.
fn check_sram_budget(manifest: &MappingManifest, diags: &mut Vec<Diagnostic>) {
    let mut buffers: Vec<_> = manifest.buffers.iter().collect();
    buffers.sort_by_key(|b| b.pe);
    for group in buffers.chunk_by(|a, b| a.pe == b.pe) {
        let bytes: usize = group.iter().map(|b| b.bytes).sum();
        if bytes > manifest.sram_bytes {
            let labels: Vec<&str> = group.iter().map(|b| &*b.label).collect();
            diags.push(
                Diagnostic::error(
                    CheckKind::SramBudget,
                    format!(
                        "peak footprint {bytes} B exceeds the {} B SRAM ({})",
                        manifest.sram_bytes,
                        labels.join(" + "),
                    ),
                )
                .at_pe(group[0].pe)
                .with_hint("shrink the block size or spread the stages over a longer pipeline"),
            );
        }
    }
}

/// Check 5 — task liveness: every declared task must be activatable from an
/// entry point (a host activation, a receive completion on a supplied
/// channel, or a send completion).
fn check_task_liveness(manifest: &MappingManifest, diags: &mut Vec<Diagnostic>) {
    let sorted = |mut tasks: Vec<(PeId, u16)>| {
        tasks.sort();
        tasks.dedup();
        tasks
    };
    let entries = manifest.entries.iter().map(|e| (e.pe, e.task.0));
    let received = manifest
        .recvs
        .iter()
        .filter(|r| r.recvs > 0)
        .map(|r| (r.pe, r.activates.0));
    let sent = manifest
        .sends
        .iter()
        .filter(|s| s.sends > 0)
        .filter_map(|s| Some((s.pe, s.activates?.0)));
    let activatable = sorted(entries.chain(received).chain(sent).collect());
    let declared = sorted(manifest.tasks.iter().map(|t| (t.pe, t.task.0)).collect());
    let mut live = activatable.as_slice();
    for &(pe, t) in &declared {
        if seek(&mut live, &(pe, t), |&k| k).is_none() {
            diags.push(
                Diagnostic::error(
                    CheckKind::TaskLiveness,
                    format!("task {t} is declared but nothing ever activates it"),
                )
                .at_pe(pe)
                .with_hint("bind it to a receive/send completion or activate it from the host"),
            );
        }
    }
    // The converse: an activation targeting a task the PE never declared
    // would be dropped on the floor at runtime.
    for r in &manifest.recvs {
        if r.recvs > 0 && declared.binary_search(&(r.pe, r.activates.0)).is_err() {
            diags.push(
                Diagnostic::error(
                    CheckKind::TaskLiveness,
                    format!(
                        "receive completion activates task {} which this PE's program does not declare",
                        r.activates.0
                    ),
                )
                .at_pe(r.pe)
                .on_color(r.color)
                .with_hint("declare the task on the PE or fix the activation target"),
            );
        }
    }
}
