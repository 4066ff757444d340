//! The declarative mapping manifest the static verifier consumes.
//!
//! A [`MappingManifest`] is the static self-description a mapping strategy
//! emits *alongside* the closures it installs on the simulator: every routing
//! rule, every statically-known send and receive (with wavelet totals), every
//! host injection, every SRAM reservation, and the task graph. The verifier
//! ([`crate::verify`]) decides routability, channel balance, SRAM fit, and
//! task liveness from this description alone — no simulation required.

use std::sync::Arc;

use wse_sim::{Color, PeId, RouteRule, TaskId, PE_SRAM_BYTES};

/// One routing-rule installation (`Simulator::route`).
///
/// The manifest keeps every claim, including re-claims of the same
/// `(PE, color)` pair — the color-discipline check flags conflicting
/// duplicates that a `HashMap`-backed fabric would silently overwrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteDecl {
    /// The PE the rule is installed on.
    pub pe: PeId,
    /// The color the rule claims.
    pub color: Color,
    /// The installed rule.
    pub rule: RouteRule,
}

/// A statically-declared sender: `sends` async sends of `words_per_send`
/// wavelets, originating at `pe`'s RAMP on `color`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendDecl {
    /// Originating PE.
    pub pe: PeId,
    /// Fabric color the stream leaves on.
    pub color: Color,
    /// Wavelets per send.
    pub words_per_send: usize,
    /// Number of sends over the mapping's lifetime.
    pub sends: usize,
    /// Task activated locally when a send completes, if any.
    pub activates: Option<TaskId>,
}

/// A statically-declared receiver: `recvs` postings of an input descriptor
/// of `extent` wavelets on `color` at `pe`, each activating `activates`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecvDecl {
    /// Receiving PE.
    pub pe: PeId,
    /// Color the descriptor listens on.
    pub color: Color,
    /// Wavelets per completed receive.
    pub extent: usize,
    /// Total receive postings over the mapping's lifetime (initial posting
    /// plus every chained `recv_async`).
    pub recvs: usize,
    /// Task activated when a receive completes.
    pub activates: TaskId,
}

/// A host-side injection (`Simulator::inject_stream`/`inject_blocks`):
/// wavelets delivered straight into `pe`'s RAMP on `color`, bypassing the
/// fabric routers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectDecl {
    /// Destination PE.
    pub pe: PeId,
    /// Color the wavelets are tagged with.
    pub color: Color,
    /// Total wavelets injected.
    pub words: usize,
}

/// A declared SRAM reservation on one PE (the working set its kernel will
/// `mem_alloc`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferDecl {
    /// The reserving PE.
    pub pe: PeId,
    /// Bytes reserved.
    pub bytes: usize,
    /// What the buffer holds (for diagnostics); mappers share one label
    /// across every PE of a stage group.
    pub label: Arc<str>,
}

/// A task a PE's program defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskDecl {
    /// The PE owning the task.
    pub pe: PeId,
    /// The task id.
    pub task: TaskId,
}

/// A host-side activation (`Simulator::activate`) — a task liveness entry
/// point besides receive/send completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryDecl {
    /// The activated PE.
    pub pe: PeId,
    /// The activated task.
    pub task: TaskId,
}

/// Static self-description of one constructed mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingManifest {
    /// Human-readable mapping name (strategy + shape) for reports.
    pub name: String,
    /// Mesh rows.
    pub rows: usize,
    /// Mesh columns.
    pub cols: usize,
    /// Per-PE SRAM capacity the budget check enforces.
    pub sram_bytes: usize,
    /// Every routing-rule installation, in installation order.
    pub routes: Vec<RouteDecl>,
    /// Statically-declared senders.
    pub sends: Vec<SendDecl>,
    /// Statically-declared receivers.
    pub recvs: Vec<RecvDecl>,
    /// Host injections.
    pub injections: Vec<InjectDecl>,
    /// Declared SRAM reservations.
    pub buffers: Vec<BufferDecl>,
    /// Declared tasks.
    pub tasks: Vec<TaskDecl>,
    /// Host activations.
    pub entries: Vec<EntryDecl>,
}

impl MappingManifest {
    /// Create an empty manifest for a `rows × cols` mesh with the CS-2's
    /// 48 KB per-PE SRAM.
    #[must_use]
    pub fn new(name: impl Into<String>, rows: usize, cols: usize) -> Self {
        Self {
            name: name.into(),
            rows,
            cols,
            sram_bytes: PE_SRAM_BYTES,
            routes: Vec::new(),
            sends: Vec::new(),
            recvs: Vec::new(),
            injections: Vec::new(),
            buffers: Vec::new(),
            tasks: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Record a routing-rule installation.
    pub fn route(&mut self, pe: PeId, color: Color, rule: RouteRule) {
        self.routes.push(RouteDecl { pe, color, rule });
    }

    /// Declare a sender: `sends` async sends of `words_per_send` wavelets.
    pub fn declare_send(
        &mut self,
        pe: PeId,
        color: Color,
        words_per_send: usize,
        sends: usize,
        activates: Option<TaskId>,
    ) {
        self.sends.push(SendDecl {
            pe,
            color,
            words_per_send,
            sends,
            activates,
        });
    }

    /// Declare a receiver: `recvs` postings of `extent` wavelets each.
    pub fn declare_recv(
        &mut self,
        pe: PeId,
        color: Color,
        extent: usize,
        recvs: usize,
        activates: TaskId,
    ) {
        self.recvs.push(RecvDecl {
            pe,
            color,
            extent,
            recvs,
            activates,
        });
    }

    /// Declare a host injection of `words` total wavelets.
    pub fn declare_injection(&mut self, pe: PeId, color: Color, words: usize) {
        self.injections.push(InjectDecl { pe, color, words });
    }

    /// Declare an SRAM reservation.
    pub fn declare_buffer(&mut self, pe: PeId, bytes: usize, label: impl Into<Arc<str>>) {
        self.buffers.push(BufferDecl {
            pe,
            bytes,
            label: label.into(),
        });
    }

    /// Declare a task a PE's program defines.
    pub fn declare_task(&mut self, pe: PeId, task: TaskId) {
        self.tasks.push(TaskDecl { pe, task });
    }

    /// Declare a host activation (task liveness entry point).
    pub fn declare_entry(&mut self, pe: PeId, task: TaskId) {
        self.entries.push(EntryDecl { pe, task });
    }
}
