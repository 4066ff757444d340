//! Per-PE runtime state.

use std::collections::VecDeque;

use crate::fabric::{Color, COLOR_SLOTS};
use crate::memory::MemoryTracker;
use crate::program::{PeProgram, TaskId};
use crate::stats::PeStats;
use crate::time::Time;

/// An outstanding input DSD: activate `task` once `extent` wavelets arrived.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingRecv {
    pub extent: usize,
    pub task: TaskId,
    /// Instant the receive was posted — the start of the recv-waiting stall
    /// span the flight recorder attributes when the DSD completes.
    pub posted_at: Time,
}

/// Wavelets queued on one color, kept as the arriving stream segments.
///
/// Streams almost always arrive whole and get consumed whole (every mapping
/// posts receives sized to the sender's stream), so queueing the arriving
/// buffer and handing it back out as the completed receive costs nothing —
/// no per-word copy, no allocation. Word counts are tracked so depth checks
/// stay O(1), and [`Inbox::take`] coalesces across segment boundaries when a
/// receive's extent doesn't line up with the queued streams.
#[derive(Debug, Default)]
pub(crate) struct Inbox {
    segments: VecDeque<Vec<u32>>,
    words: usize,
}

impl Inbox {
    /// Total wavelets queued.
    pub fn len(&self) -> usize {
        self.words
    }

    pub fn is_empty(&self) -> bool {
        self.words == 0
    }

    fn push(&mut self, data: Vec<u32>) {
        self.words += data.len();
        self.segments.push_back(data);
    }

    /// Remove exactly `extent` words from the front. The caller checks
    /// `len() >= extent`.
    fn take(&mut self, extent: usize) -> Vec<u32> {
        debug_assert!(self.words >= extent);
        self.words -= extent;
        // Steady state: the front segment is exactly one posted extent —
        // hand the buffer over as-is.
        if self.segments.front().is_some_and(|s| s.len() == extent) {
            return self.segments.pop_front().expect("front just checked");
        }
        // Extent straddles segment boundaries: coalesce.
        let mut out = Vec::with_capacity(extent);
        while out.len() < extent {
            let mut seg = self
                .segments
                .pop_front()
                .expect("word count covers the extent");
            let need = extent - out.len();
            if seg.len() <= need {
                out.extend_from_slice(&seg);
            } else {
                out.extend_from_slice(&seg[..need]);
                seg.drain(..need);
                self.segments.push_front(seg);
            }
        }
        out
    }
}

/// Receive state of one color on one PE: queued wavelets, the outstanding
/// input DSD, and the completed buffer awaiting `take_received`.
#[derive(Debug, Default)]
pub(crate) struct Port {
    /// Wavelets delivered, not yet claimed by an input DSD.
    pub inbox: Inbox,
    /// At most one outstanding input DSD.
    pub pending: Option<PendingRecv>,
    /// Completed receive buffer awaiting `take_received`.
    pub completed: Option<Vec<u32>>,
}

/// The receive ports of one PE, one per color it has touched.
///
/// A 24-byte `color → slot` map indexes a vector holding only the ports in
/// use, so a compression PE (one receive color) carries one port instead of
/// 24, and the hot path still never hashes a color. A port is created on
/// first touch — a posted receive or a delivery, whichever comes first.
pub(crate) struct Ports {
    /// `slot_of[color.index()]` is the port's index in `ports`, or
    /// [`Ports::ABSENT`] — an index no port vector reaches (there are at
    /// most 24 ports), so a lookup of an untouched color finds nothing.
    slot_of: [u8; COLOR_SLOTS],
    ports: Vec<Port>,
}

impl Ports {
    const ABSENT: u8 = u8::MAX;

    fn new() -> Self {
        Self {
            slot_of: [Self::ABSENT; COLOR_SLOTS],
            ports: Vec::new(),
        }
    }

    /// The port of `color`, if the PE has touched it.
    pub fn get(&self, color: Color) -> Option<&Port> {
        self.ports.get(usize::from(self.slot_of[color.index()]))
    }

    /// Mutable access to the port of `color`, if the PE has touched it.
    pub fn get_mut(&mut self, color: Color) -> Option<&mut Port> {
        self.ports.get_mut(usize::from(self.slot_of[color.index()]))
    }

    /// The port of `color`, created on first touch. Grows the vector one
    /// port at a time: most PEs touch one color, so amortized doubling would
    /// mostly allocate ports that never exist.
    fn entry(&mut self, color: Color) -> &mut Port {
        let slot = &mut self.slot_of[color.index()];
        if *slot == Self::ABSENT {
            *slot = self.ports.len() as u8;
            self.ports.reserve_exact(1);
            self.ports.push(Port::default());
        }
        &mut self.ports[usize::from(*slot)]
    }

    /// Touched ports in color-id order — the canonical order of every
    /// diagnostic, whatever order the colors were first touched in.
    pub fn iter(&self) -> impl Iterator<Item = (Color, &Port)> {
        self.slot_of
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != Self::ABSENT)
            .map(|(id, &slot)| (Color::new(id as u8), &self.ports[usize::from(slot)]))
    }
}

/// Runtime state of one PE.
///
/// Per-color receive state lives in [`Ports`], sized to the colors the PE
/// uses; the ≤24-color discipline is enforced by `Color::new` (and
/// statically by wse-verify), so the map from color to port is a fixed
/// 24-byte table and the hot path never hashes a color.
pub(crate) struct PeState {
    /// The program, taken out while its task runs (re-entrancy guard).
    pub program: Option<Box<dyn PeProgram>>,
    /// Earliest instant the processor is free.
    pub busy_until: Time,
    /// Receive state of each color the PE has touched.
    pub ports: Ports,
    /// Number of colors with an outstanding input DSD — lets the deadlock
    /// scan and the cycle-stepped poll skip idle PEs without walking the
    /// ports.
    pub pending_count: u32,
    /// One bit per [`Color::index`]: the colors whose route from this PE
    /// was checked on its first send.
    pub routes_checked: u32,
    /// Local SRAM accounting.
    pub memory: MemoryTracker,
    /// Data emitted off-PE for the host.
    pub outputs: Vec<Vec<u32>>,
    /// Cycle counters.
    pub stats: PeStats,
}

impl PeState {
    pub fn new(sram_bytes: usize) -> Self {
        Self {
            program: None,
            busy_until: Time::ZERO,
            ports: Ports::new(),
            pending_count: 0,
            routes_checked: 0,
            memory: MemoryTracker::new(sram_bytes),
            outputs: Vec::new(),
            stats: PeStats::default(),
        }
    }

    /// Post an input DSD on `color` — the one place a color's receive state
    /// is created by a posting.
    ///
    /// # Panics
    /// If a receive is already outstanding on that color.
    pub fn post_recv(&mut self, pe_name: impl std::fmt::Display, color: Color, recv: PendingRecv) {
        let prev = self.ports.entry(color).pending.replace(recv);
        assert!(
            prev.is_none(),
            "{pe_name} double-posted a receive on {color}"
        );
        self.pending_count += 1;
    }

    /// Deliver a whole stream on `color`, completing the pending receive
    /// zero-copy when the stream is exactly the posted extent and nothing is
    /// queued ahead of it — the steady state of every pipeline mapping. The
    /// arriving buffer *becomes* the completed receive buffer; the inbox is
    /// never touched, so the hot path performs no allocation and no copy.
    /// Falls back to queueing + [`Self::try_complete_recv`] otherwise, which
    /// is bit-identical in outcome (same buffer contents, same completion).
    /// A delivery may precede its receive's posting; it then creates the
    /// port and queues.
    pub fn deliver(&mut self, color: Color, data: Vec<u32>) -> Option<PendingRecv> {
        self.stats.wavelets_received += data.len() as u64;
        let port = self.ports.entry(color);
        if let Some(pending) = port.pending {
            if pending.extent == data.len() && port.inbox.is_empty() {
                port.pending = None;
                let prev = port.completed.replace(data);
                debug_assert!(
                    prev.is_none(),
                    "receive completed on {color} before the previous buffer was taken"
                );
                self.pending_count -= 1;
                return Some(pending);
            }
        }
        port.inbox.push(data);
        self.try_complete_recv(color)
    }

    /// Try to satisfy the pending receive on `color` from the inbox.
    /// Returns the completed DSD (task to activate plus the cycle it was
    /// posted at) if the receive is now satisfied.
    pub fn try_complete_recv(&mut self, color: Color) -> Option<PendingRecv> {
        let port = self.ports.get_mut(color)?;
        let pending = port.pending?;
        if port.inbox.len() < pending.extent {
            return None;
        }
        let data = port.inbox.take(pending.extent);
        port.pending = None;
        let prev = port.completed.replace(data);
        debug_assert!(
            prev.is_none(),
            "receive completed on {color} before the previous buffer was taken"
        );
        self.pending_count -= 1;
        Some(pending)
    }
}

#[cfg(test)]
mod tests {
    use super::PeState;

    #[test]
    fn pe_state_stays_small() {
        // A full wafer holds 745 500 of these. Per-color receive state lives
        // behind `Ports`, sized by the colors the PE touches; a dense
        // 24-slot table here would cost ~2.4 KB per PE (~1.8 GB a wafer).
        assert!(
            std::mem::size_of::<PeState>() <= 256,
            "PeState grew to {} B",
            std::mem::size_of::<PeState>()
        );
    }
}
