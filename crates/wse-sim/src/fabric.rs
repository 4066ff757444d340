//! Fabric routing: colors, per-PE routing rules and the one route walk.
//!
//! A **color** is a logical channel through the fabric (§2.1: "To route a
//! wavelet through the fabric, the programmer needs to define a logical
//! channel called *color*. There are 24 colors available in total."). For
//! every color each PE configures an input direction and output direction(s);
//! a stream injected on a color follows the configured directions hop by hop
//! until a PE routes it to its RAMP (delivery).
//!
//! This module is the one place a rule is encoded ([`PackedRule`], one
//! byte) and the one place a route is walked ([`RouteWalk`]). The simulator
//! checks a route with the walk on a PE's first send on a color and then
//! follows the immutable table hop by hop; the static verifier walks the
//! same encoding over a manifest's declarations.

use crate::error::SimError;
use crate::geom::{Direction, PeId};

/// Number of routable colors on the CS-2 fabric.
pub const MAX_COLORS: u8 = 24;

/// Width of a per-PE color table (`MAX_COLORS` as a `usize`). Tables every
/// PE fills — the routing rules — are a `Vec` chunked by `COLOR_SLOTS` and
/// indexed with [`Color::index`]. Per-PE receive state is sized by the
/// colors the PE uses instead: a `[u8; COLOR_SLOTS]` map from color to the
/// PE's few ports, so no color-keyed lookup on the hot path hashes.
pub const COLOR_SLOTS: usize = MAX_COLORS as usize;

/// Number of outgoing neighbor links per PE (N/S/E/W), the stride of the
/// dense link tables indexed by [`Direction::index`].
pub(crate) const LINK_SLOTS: usize = 4;

/// A logical fabric channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Color(u8);

impl Color {
    /// Create a color.
    ///
    /// # Panics
    /// If `id >= 24` — the CS-2 exposes 24 colors.
    #[must_use]
    pub const fn new(id: u8) -> Self {
        assert!(id < MAX_COLORS, "the fabric has 24 colors (ids 0..=23)");
        Self(id)
    }

    /// Raw color id.
    #[must_use]
    pub const fn id(self) -> u8 {
        self.0
    }

    /// Dense table index of this color (`0..COLOR_SLOTS`).
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Color {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "color{}", self.0)
    }
}

/// Routing rule of one color at one PE: where wavelets of that color are
/// accepted from and where they are forwarded to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRule {
    /// Accepted input direction (`None` = originates at this PE's RAMP).
    pub input: Option<Direction>,
    /// Output direction(s). `Ramp` in the set means "deliver to processor".
    pub outputs: OutputSet,
}

impl RouteRule {
    /// A rule accepting from `input` and forwarding to every direction in
    /// `outputs` (duplicates collapse).
    #[must_use]
    pub const fn new(input: Option<Direction>, outputs: &[Direction]) -> Self {
        Self {
            input,
            outputs: OutputSet::new(outputs),
        }
    }
}

/// The output directions of a [`RouteRule`], one bit per
/// [`Direction::index`] — the same mask the packed fabric table stores, so
/// a rule is `Copy` and installing one never allocates. Iterates, and
/// prints as a list, in N/S/E/W/Ramp order.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct OutputSet(u8);

impl OutputSet {
    /// The set of `dirs`.
    #[must_use]
    pub const fn new(dirs: &[Direction]) -> Self {
        let mut bits = 0;
        let mut i = 0;
        while i < dirs.len() {
            bits |= 1 << dirs[i].index();
            i += 1;
        }
        Self(bits)
    }

    /// Whether `dir` is in the set.
    #[must_use]
    pub const fn contains(self, dir: Direction) -> bool {
        self.0 & (1 << dir.index()) != 0
    }

    /// The directions in N/S/E/W/Ramp order.
    pub fn iter(self) -> impl Iterator<Item = Direction> {
        (0..=Direction::Ramp.index())
            .filter(move |&i| self.0 & (1 << i) != 0)
            .map(Direction::from_index)
    }
}

impl std::fmt::Debug for OutputSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A [`RouteRule`] in one byte: the one encoding every rule table uses.
///
/// Bits 0..=4 are the output mask in [`Direction::index`] order (N, S, E,
/// W, Ramp); bits 5..=7 are the input code — 0 when the stream originates at
/// the PE's RAMP, `1 + dir.index()` when it arrives from `dir`. No rule has
/// input code 7, so [`PackedRule::VACANT`] marks an empty slot and the
/// encoding is lossless. A PE's 24-color rule row is 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedRule(u8);

impl PackedRule {
    /// An empty slot: no rule installed.
    pub const VACANT: Self = Self(u8::MAX);
    const RAMP: u8 = 1 << Direction::Ramp.index();
    const NEIGHBORS: u8 = Self::RAMP - 1;

    /// Pack `rule`.
    #[must_use]
    pub const fn new(rule: RouteRule) -> Self {
        let input = match rule.input {
            None => 0,
            Some(dir) => 1 + dir.index() as u8,
        };
        Self((input << 5) | rule.outputs.0)
    }

    /// Whether the slot holds no rule.
    #[must_use]
    pub fn is_vacant(self) -> bool {
        self == Self::VACANT
    }

    /// The declarative rule, `None` for a vacant slot.
    #[must_use]
    pub fn unpack(self) -> Option<RouteRule> {
        (!self.is_vacant()).then(|| RouteRule {
            input: self.input(),
            outputs: self.outputs(),
        })
    }

    /// Output directions of a present rule.
    #[must_use]
    pub fn outputs(self) -> OutputSet {
        OutputSet(self.0 & (Self::RAMP | Self::NEIGHBORS))
    }

    /// Accepted input direction of a present rule (`None` = originates at
    /// this PE's RAMP).
    #[must_use]
    pub fn input(self) -> Option<Direction> {
        match self.0 >> 5 {
            0 => None,
            code => Some(Direction::from_index(usize::from(code) - 1)),
        }
    }

    /// Whether a present rule delivers to its PE's RAMP.
    #[must_use]
    pub fn delivers(self) -> bool {
        self.0 & Self::RAMP != 0
    }

    /// The one neighbor a present rule forwards to: `None` when it
    /// delivers, has no output, or forwards to several neighbors.
    #[must_use]
    pub fn forward(self) -> Option<Direction> {
        let neighbors = self.0 & Self::NEIGHBORS;
        (!self.delivers() && neighbors.is_power_of_two())
            .then(|| Direction::from_index(neighbors.trailing_zeros() as usize))
    }
}

/// Why a route walk stopped short of a RAMP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteFault {
    /// The stream reached this PE, which has no rule on the color.
    NoRule(PeId),
    /// The stream arrived at `at` from `arrived_from`, but the rule there
    /// accepts `accepts`.
    Mismatch {
        /// The PE with the conflicting rule.
        at: PeId,
        /// Where the stream came from (`None` = the PE's own RAMP).
        arrived_from: Option<Direction>,
        /// The rule's input.
        accepts: Option<Direction>,
    },
    /// The rule at this PE has no output.
    NoOutput(PeId),
    /// The rule at this PE forwards to more than one neighbor; streams are
    /// unicast (the CereSZ mapping relays explicitly instead).
    Multicast(PeId),
    /// The rule at this PE forwards toward the direction off the mesh.
    OffMesh(PeId, Direction),
    /// The walk crossed more PEs than its bound: the route cycles without
    /// reaching a RAMP.
    Loop,
}

impl RouteFault {
    /// The simulator's error for a stream sent from `src` on `color` whose
    /// walk hit this fault.
    #[must_use]
    pub fn sim_error(self, src: PeId, color: Color) -> SimError {
        match self {
            Self::NoRule(pe) | Self::NoOutput(pe) => SimError::NoRoute { pe, color },
            Self::Mismatch { at, .. } => SimError::RouteMismatch { pe: at, color },
            Self::Multicast(pe) => SimError::MulticastUnsupported { pe, color },
            Self::OffMesh(pe, _) => SimError::RouteOffMesh { pe, color },
            Self::Loop => SimError::RoutingLoop { pe: src, color },
        }
    }
}

/// The hop-by-hop walk of one stream along a rule table — the only route
/// walk, shared by the simulator and the static verifier.
///
/// Yields every PE whose rule accepts the stream, source first; a sound
/// route's last PE delivers it to its RAMP. [`RouteWalk::outcome`] then
/// says where the walk ended. `rule_at` reads the table on the walk's color
/// ([`PackedRule::VACANT`] where nothing is installed). `max_pes` bounds
/// the walk so a route that cycles without delivering ends as
/// [`RouteFault::Loop`]: any bound above the number of PEs holding a rule on
/// the color is exact, since a longer walk has crossed one PE twice and
/// repeats from there.
pub struct RouteWalk<F> {
    rows: usize,
    cols: usize,
    rule_at: F,
    /// The PE the stream reaches next, and the direction it arrives from.
    at: (PeId, Option<Direction>),
    left: usize,
    end: Option<Result<PeId, RouteFault>>,
}

impl<F: Fn(PeId) -> PackedRule> RouteWalk<F> {
    /// Walk a stream entering `src` from `from` (`None` = sent by `src`
    /// itself) on a `rows × cols` mesh.
    pub fn new(
        (rows, cols): (usize, usize),
        rule_at: F,
        src: PeId,
        from: Option<Direction>,
        max_pes: usize,
    ) -> Self {
        Self {
            rows,
            cols,
            rule_at,
            at: (src, from),
            left: max_pes,
            end: None,
        }
    }

    /// Where the walk ends — the delivering PE, or the fault that stopped
    /// it — walking whatever iteration left.
    pub fn outcome(mut self) -> Result<PeId, RouteFault> {
        for _ in self.by_ref() {}
        self.end.expect("an exhausted walk has ended")
    }
}

impl<F: Fn(PeId) -> PackedRule> Iterator for RouteWalk<F> {
    type Item = PeId;

    fn next(&mut self) -> Option<PeId> {
        if self.end.is_some() {
            return None;
        }
        let (pe, arrived_from) = self.at;
        let Some(left) = self.left.checked_sub(1) else {
            self.end = Some(Err(RouteFault::Loop));
            return None;
        };
        self.left = left;
        let rule = (self.rule_at)(pe);
        if rule.is_vacant() {
            self.end = Some(Err(RouteFault::NoRule(pe)));
            return None;
        }
        if rule.input() != arrived_from {
            self.end = Some(Err(RouteFault::Mismatch {
                at: pe,
                arrived_from,
                accepts: rule.input(),
            }));
            return None;
        }
        self.end = if rule.delivers() {
            Some(Ok(pe))
        } else if let Some(dir) = rule.forward() {
            match pe.neighbor(dir, self.rows, self.cols) {
                Some(next) => {
                    self.at = (next, Some(dir.opposite()));
                    None
                }
                None => Some(Err(RouteFault::OffMesh(pe, dir))),
            }
        } else if rule.0 & PackedRule::NEIGHBORS == 0 {
            Some(Err(RouteFault::NoOutput(pe)))
        } else {
            Some(Err(RouteFault::Multicast(pe)))
        };
        Some(pe)
    }
}

/// The routing fabric: one [`PackedRule`] per (PE, color).
///
/// The table is a flat row-major vector strided by [`COLOR_SLOTS`] per PE,
/// so a hop of a walk is one indexed byte read with no hashing. Link
/// occupancy lives with the engine's shards, which own the links leaving
/// their PEs.
#[derive(Debug, Default)]
pub struct Fabric {
    /// `rules[pe.index(cols) * COLOR_SLOTS + color.index()]`.
    rules: Vec<PackedRule>,
    rows: usize,
    cols: usize,
}

impl Fabric {
    /// Create a fabric for a `rows × cols` mesh.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rules: vec![PackedRule::VACANT; rows * cols * COLOR_SLOTS],
            rows,
            cols,
        }
    }

    fn rule_slot(&self, pe: PeId, color: Color) -> usize {
        pe.index(self.cols) * COLOR_SLOTS + color.index()
    }

    fn on_mesh(&self, pe: PeId) -> bool {
        pe.row < self.rows && pe.col < self.cols
    }

    /// Install a routing rule.
    ///
    /// # Panics
    /// If `pe` is outside the mesh — a rule there could never fire.
    pub fn set_rule(&mut self, pe: PeId, color: Color, rule: RouteRule) {
        assert!(
            self.on_mesh(pe),
            "routing rule installed at off-mesh {pe} on a {}x{} mesh",
            self.rows,
            self.cols
        );
        let slot = self.rule_slot(pe, color);
        self.rules[slot] = PackedRule::new(rule);
    }

    /// The packed rule of `(pe, color)`, vacant off the mesh.
    fn packed(&self, pe: PeId, color: Color) -> PackedRule {
        if self.on_mesh(pe) {
            self.rules[self.rule_slot(pe, color)]
        } else {
            PackedRule::VACANT
        }
    }

    /// Look up a rule, reconstructed from the packed table.
    #[must_use]
    pub fn rule(&self, pe: PeId, color: Color) -> Option<RouteRule> {
        self.packed(pe, color).unpack()
    }

    /// Iterate over every installed rule in (row-major PE, color) order.
    /// Used by the sharded engine to discover which mesh rows are coupled by
    /// vertical routes.
    pub(crate) fn rules_iter(&self) -> impl Iterator<Item = (PeId, PackedRule)> + '_ {
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, packed)| !packed.is_vacant())
            .map(|(slot, &packed)| {
                let pe_index = slot / COLOR_SLOTS;
                (
                    PeId::new(pe_index / self.cols, pe_index % self.cols),
                    packed,
                )
            })
    }

    /// Walk the stream `src` sends on `color` (see [`RouteWalk`]).
    pub fn walk(&self, src: PeId, color: Color) -> RouteWalk<impl Fn(PeId) -> PackedRule + '_> {
        RouteWalk::new(
            (self.rows, self.cols),
            move |pe| self.packed(pe, color),
            src,
            None,
            self.rows * self.cols + 1,
        )
    }

    /// The hop a checked route takes out of `pe` on `color` — direction and
    /// neighbor — or `None` where it delivers. Only for PEs on a route whose
    /// walk delivered: each of their rules forwards to one on-mesh neighbor
    /// or delivers.
    pub(crate) fn hop(&self, pe: PeId, color: Color) -> Option<(Direction, PeId)> {
        let dir = self.rules[self.rule_slot(pe, color)].forward()?;
        let next = pe.neighbor(dir, self.rows, self.cols);
        Some((dir, next.expect("a checked route stays on the mesh")))
    }

    /// Send-origin PEs (rules with `input: None`) whose route on `color`
    /// delivers to `dest`'s RAMP, in row-major order. Used to attach static
    /// routing context to deadlock diagnostics: these are the only fabric
    /// senders that could ever satisfy a receive at `dest`.
    #[must_use]
    pub fn origins_reaching(&self, dest: PeId, color: Color) -> Vec<PeId> {
        // Scanning the dense table in PE-index order yields row-major order
        // directly — no sort needed.
        (0..self.rows * self.cols)
            .map(|pe_index| PeId::new(pe_index / self.cols, pe_index % self.cols))
            .filter(|&pe| {
                let rule = self.packed(pe, color);
                !rule.is_vacant()
                    && rule.input().is_none()
                    && self.walk(pe, color).outcome() == Ok(dest)
            })
            .collect()
    }

    /// Convenience: install an eastward chain of a color from `start_col` to
    /// `end_col` (inclusive) in `row`, delivering at `end_col`'s RAMP.
    ///
    /// PEs strictly between origin and destination forward W→E; the origin
    /// sends RAMP→E; the destination receives W→RAMP.
    pub fn route_east_chain(&mut self, row: usize, start_col: usize, end_col: usize, color: Color) {
        assert!(start_col < end_col, "eastward chain needs start < end");
        self.set_rule(
            PeId::new(row, start_col),
            color,
            RouteRule::new(None, &[Direction::East]),
        );
        for col in start_col + 1..end_col {
            self.set_rule(
                PeId::new(row, col),
                color,
                RouteRule::new(Some(Direction::West), &[Direction::East]),
            );
        }
        self.set_rule(
            PeId::new(row, end_col),
            color,
            RouteRule::new(Some(Direction::West), &[Direction::Ramp]),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn east_rule(input: Option<Direction>) -> RouteRule {
        RouteRule::new(input, &[Direction::East])
    }

    fn ramp_rule(input: Option<Direction>) -> RouteRule {
        RouteRule::new(input, &[Direction::Ramp])
    }

    #[test]
    fn every_rule_round_trips_through_the_packed_table() {
        // All 32 output sets (empty, single, multicast, with and without the
        // RAMP) under all six inputs come back exactly, never read as
        // vacant, and print their outputs as a list in N/S/E/W/Ramp order.
        let mut f = Fabric::new(1, 1);
        let (pe, c) = (PeId::new(0, 0), Color::new(9));
        assert_eq!(f.rule(pe, c), None);
        let inputs = [None]
            .into_iter()
            .chain((0..5).map(|i| Some(Direction::from_index(i))));
        for input in inputs {
            for mask in 0..32usize {
                let dirs: Vec<Direction> = (0..5)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(Direction::from_index)
                    .collect();
                let rule = RouteRule::new(input, &dirs);
                assert_eq!(rule.outputs.iter().collect::<Vec<_>>(), dirs);
                assert!(!PackedRule::new(rule).is_vacant(), "{rule:?}");
                f.set_rule(pe, c, rule);
                assert_eq!(f.rule(pe, c), Some(rule), "{rule:?}");
                let debug = format!("RouteRule {{ input: {input:?}, outputs: {dirs:?} }}");
                assert_eq!(format!("{rule:?}"), debug);
            }
        }
        let multicast = RouteRule::new(None, &[Direction::Ramp, Direction::East, Direction::East]);
        assert_eq!(
            multicast,
            RouteRule::new(None, &[Direction::East, Direction::Ramp])
        );
        assert_eq!(RouteRule::new(None, &[]).outputs, OutputSet::default());
    }

    #[test]
    fn forward_names_the_single_neighbor_of_a_non_delivering_rule() {
        let fwd = |outs: &[Direction]| PackedRule::new(RouteRule::new(None, outs)).forward();
        assert_eq!(fwd(&[Direction::South]), Some(Direction::South));
        assert_eq!(fwd(&[Direction::East, Direction::Ramp]), None);
        assert_eq!(fwd(&[Direction::East, Direction::West]), None);
        assert_eq!(fwd(&[]), None);
    }

    #[test]
    fn color_id_range_enforced() {
        let c = Color::new(23);
        assert_eq!(c.id(), 23);
    }

    #[test]
    #[should_panic(expected = "24 colors")]
    fn color_24_panics() {
        let _ = Color::new(24);
    }

    #[test]
    fn one_hop_path() {
        let mut f = Fabric::new(1, 2);
        let c = Color::new(0);
        f.set_rule(PeId::new(0, 0), c, east_rule(None));
        f.set_rule(PeId::new(0, 1), c, ramp_rule(Some(Direction::West)));
        let pes: Vec<PeId> = f.walk(PeId::new(0, 0), c).collect();
        assert_eq!(pes, [PeId::new(0, 0), PeId::new(0, 1)]);
        assert_eq!(f.walk(PeId::new(0, 0), c).outcome(), Ok(PeId::new(0, 1)));
    }

    #[test]
    fn multi_hop_chain() {
        let mut f = Fabric::new(1, 5);
        let c = Color::new(3);
        f.route_east_chain(0, 0, 4, c);
        assert_eq!(f.walk(PeId::new(0, 0), c).count(), 5);
        assert_eq!(f.walk(PeId::new(0, 0), c).outcome(), Ok(PeId::new(0, 4)));
        // The hops a checked route takes, as the engine follows them.
        assert_eq!(
            f.hop(PeId::new(0, 3), c),
            Some((Direction::East, PeId::new(0, 4)))
        );
        assert_eq!(f.hop(PeId::new(0, 4), c), None);
    }

    /// The fault a stream sent by `src` hits, with the simulator's error.
    fn fault(f: &Fabric, src: PeId, c: Color) -> (RouteFault, SimError) {
        let fault = f.walk(src, c).outcome().unwrap_err();
        (fault, fault.sim_error(src, c))
    }

    #[test]
    fn missing_rule_is_error() {
        let f = Fabric::new(1, 2);
        let (pe, c) = (PeId::new(0, 0), Color::new(0));
        assert_eq!(
            fault(&f, pe, c),
            (RouteFault::NoRule(pe), SimError::NoRoute { pe, color: c })
        );
    }

    #[test]
    fn route_off_mesh_is_error() {
        let mut f = Fabric::new(1, 1);
        let (pe, c) = (PeId::new(0, 0), Color::new(0));
        f.set_rule(pe, c, east_rule(None));
        assert_eq!(
            fault(&f, pe, c),
            (
                RouteFault::OffMesh(pe, Direction::East),
                SimError::RouteOffMesh { pe, color: c }
            )
        );
    }

    #[test]
    fn multicast_rule_is_error() {
        let mut f = Fabric::new(2, 2);
        let (pe, c) = (PeId::new(0, 0), Color::new(1));
        f.set_rule(
            pe,
            c,
            RouteRule::new(None, &[Direction::East, Direction::South]),
        );
        assert_eq!(
            fault(&f, pe, c),
            (
                RouteFault::Multicast(pe),
                SimError::MulticastUnsupported { pe, color: c }
            )
        );
    }

    #[test]
    fn routing_loop_detected() {
        let mut f = Fabric::new(1, 2);
        let c = Color::new(0);
        // 0 → East, 1 → West: ping-pong forever.
        f.set_rule(PeId::new(0, 0), c, east_rule(None));
        f.set_rule(
            PeId::new(0, 1),
            c,
            RouteRule::new(Some(Direction::West), &[Direction::West]),
        );
        // PE 0 expects input None but arrives from East → mismatch is also
        // acceptable; either way the walk must fail, not hang.
        assert!(f.walk(PeId::new(0, 0), c).outcome().is_err());
    }

    #[test]
    fn single_pe_mesh_resolves_to_itself() {
        // The degenerate 1×1 mesh: the only legal route is RAMP→RAMP.
        let mut f = Fabric::new(1, 1);
        let c = Color::new(0);
        f.set_rule(PeId::new(0, 0), c, ramp_rule(None));
        assert_eq!(f.walk(PeId::new(0, 0), c).outcome(), Ok(PeId::new(0, 0)));
        assert_eq!(f.hop(PeId::new(0, 0), c), None);
    }

    #[test]
    fn self_loop_rule_is_typed_error_not_hang() {
        // (0,1) bounces the stream straight back West; (0,0)'s rule expects
        // origin input (None), so the returning stream is a mismatch. The
        // walk must surface a typed error, never spin.
        let mut f = Fabric::new(1, 2);
        let (pe, c) = (PeId::new(0, 0), Color::new(4));
        f.set_rule(pe, c, east_rule(None));
        f.set_rule(
            PeId::new(0, 1),
            c,
            RouteRule::new(Some(Direction::West), &[Direction::West]),
        );
        let mismatch = RouteFault::Mismatch {
            at: pe,
            arrived_from: Some(Direction::East),
            accepts: None,
        };
        assert_eq!(
            fault(&f, pe, c),
            (mismatch, SimError::RouteMismatch { pe, color: c })
        );
    }

    #[test]
    fn rampless_ring_is_typed_error_not_hang() {
        // A consistent 2×2 ring with no RAMP anywhere: every hop's input
        // matches, so the walk only terminates via its bound, which must
        // surface as a loop rather than iterating forever.
        let mut f = Fabric::new(2, 2);
        let c = Color::new(5);
        let rule = |input: Direction, out: Direction| RouteRule::new(Some(input), &[out]);
        f.set_rule(PeId::new(0, 0), c, rule(Direction::South, Direction::East));
        f.set_rule(PeId::new(0, 1), c, rule(Direction::West, Direction::South));
        f.set_rule(PeId::new(1, 1), c, rule(Direction::North, Direction::West));
        f.set_rule(PeId::new(1, 0), c, rule(Direction::East, Direction::North));
        // Enter the ring as if arriving at (0,0) from the south.
        let src = PeId::new(0, 0);
        let walk = RouteWalk::new((2, 2), |pe| f.packed(pe, c), src, Some(Direction::South), 5);
        let fault = walk.outcome().unwrap_err();
        assert_eq!(fault, RouteFault::Loop);
        assert_eq!(
            fault.sim_error(src, c),
            SimError::RoutingLoop { pe: src, color: c }
        );
    }

    #[test]
    fn rule_with_no_outputs_is_typed_error() {
        let mut f = Fabric::new(1, 1);
        let (pe, c) = (PeId::new(0, 0), Color::new(6));
        f.set_rule(pe, c, RouteRule::new(None, &[]));
        assert_eq!(
            fault(&f, pe, c),
            (RouteFault::NoOutput(pe), SimError::NoRoute { pe, color: c })
        );
    }

    #[test]
    fn origins_reaching_names_exactly_the_feeding_senders() {
        // Two origins on the same color: one chain delivers at (0,2), the
        // other at (1,0) locally. Each destination sees only its own feeder.
        let mut f = Fabric::new(2, 3);
        let c = Color::new(7);
        f.route_east_chain(0, 0, 2, c);
        f.set_rule(PeId::new(1, 0), c, ramp_rule(None));
        assert_eq!(
            f.origins_reaching(PeId::new(0, 2), c),
            vec![PeId::new(0, 0)]
        );
        assert_eq!(
            f.origins_reaching(PeId::new(1, 0), c),
            vec![PeId::new(1, 0)]
        );
        assert!(f.origins_reaching(PeId::new(0, 1), c).is_empty());
    }

    #[test]
    fn origins_reaching_skips_unresolvable_origins() {
        // An origin whose chain runs off the mesh contributes no feeder.
        let mut f = Fabric::new(1, 2);
        let c = Color::new(8);
        f.set_rule(PeId::new(0, 1), c, east_rule(None)); // east of col 1 = off-mesh
        assert!(f.origins_reaching(PeId::new(0, 0), c).is_empty());
    }
}
