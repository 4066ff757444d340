//! The PE programming model: tasks, programs, and the task context.
//!
//! Mirrors CSL's model (§2.1): a program binds **tasks** to ids; a task runs
//! when activated — either explicitly (`@activate`) or by the completion of
//! an asynchronous DSD move (`.activate = color`). Within a task the program
//! charges compute cycles through the cost model and issues asynchronous
//! sends/receives whose completion re-activates tasks, which is how pipelines
//! keep themselves running.
//!
//! Effects issued during a task (sends, receive postings, activations) take
//! effect when the task *finishes*, matching the hardware where the DSD is
//! configured by instructions that retire before the fabric engine starts.

use crate::cost::{CostModel, Op};
use crate::error::SimError;
use crate::fabric::Color;
use crate::flight::StageLog;
use crate::geom::PeId;
use crate::memory::MemoryTracker;
use crate::pe::Ports;
use crate::time::Time;

/// Identifier of a task within one PE's program (the analogue of a bound
/// task color in CSL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u16);

/// A program running on one PE.
///
/// `on_task` is invoked each time one of the program's tasks activates. The
/// program charges compute time via [`TaskCtx::charge`] and communicates via
/// the async send/receive methods. Returning an error aborts the simulation
/// with diagnostics.
///
/// Programs must be [`Send`]: the sharded engine moves each PE's program to
/// the worker thread that owns its mesh row. A program is still only ever
/// invoked from one thread at a time (its shard's), so plain mutable state
/// works exactly as before; only thread-*affine* types (`Rc`, `RefCell`
/// handed across threads, raw pointers) are excluded.
pub trait PeProgram: Send {
    /// Handle an activation of `task`.
    fn on_task(&mut self, ctx: &mut TaskCtx<'_>, task: TaskId) -> Result<(), SimError>;
}

impl<F> PeProgram for F
where
    F: FnMut(&mut TaskCtx<'_>, TaskId) -> Result<(), SimError> + Send,
{
    fn on_task(&mut self, ctx: &mut TaskCtx<'_>, task: TaskId) -> Result<(), SimError> {
        self(ctx, task)
    }
}

/// Deferred effects a task issues; applied by the engine at task end.
#[derive(Debug)]
pub(crate) enum Effect {
    /// Asynchronous fabric send (output DSD move).
    Send {
        color: Color,
        data: Vec<u32>,
        activate: Option<TaskId>,
    },
    /// Post an input DSD: activate `task` once `extent` wavelets arrived.
    PostRecv {
        color: Color,
        extent: usize,
        activate: TaskId,
    },
    /// Local `@activate`.
    Activate { task: TaskId },
    /// Deliver result data off-PE to the host harness.
    Emit { data: Vec<u32> },
}

/// Execution context handed to a task.
///
/// Borrows the PE's local state (memory tracker, and the receive ports that
/// hold completed receive buffers) and records deferred effects plus charged
/// cycles.
pub struct TaskCtx<'a> {
    pub(crate) pe: PeId,
    pub(crate) now: Time,
    pub(crate) cost: &'a CostModel,
    pub(crate) memory: &'a mut MemoryTracker,
    pub(crate) ports: &'a mut Ports,
    pub(crate) charged: Time,
    pub(crate) effects: Vec<Effect>,
    /// The flight recorder's stage log, when the run is flight-recorded.
    pub(crate) stages: Option<&'a mut StageLog>,
}

impl<'a> TaskCtx<'a> {
    /// The PE this task runs on.
    #[must_use]
    pub fn pe(&self) -> PeId {
        self.pe
    }

    /// Simulation time when this task started.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Charge `count` repetitions of `op` to this task's execution time.
    pub fn charge(&mut self, op: Op, count: u64) {
        self.charged += self.cost.cost(op, count);
    }

    /// Charge a raw duration (for costs outside the op table).
    pub fn charge_time(&mut self, time: Time) {
        self.charged += time;
    }

    /// Time charged so far in this task (excluding the task overhead).
    #[must_use]
    pub fn charged(&self) -> Time {
        self.charged
    }

    /// Whether this run collects per-stage cycle attribution. Callers that
    /// must build a stage name (allocate) can check this first.
    #[must_use]
    pub fn attribution_enabled(&self) -> bool {
        self.stages.is_some()
    }

    /// Label all subsequent charges of this task with the kernel stage
    /// `name` (e.g. a `SubStageKind` name), for per-stage cycle attribution.
    ///
    /// A no-op unless the run is flight-recorded
    /// ([`crate::MeshConfig::with_flight`]), so kernels can call it
    /// unconditionally.
    pub fn begin_stage(&mut self, name: &str) {
        if let Some(stages) = &mut self.stages {
            stages.begin(name, self.charged);
        }
    }

    /// Asynchronously send `data` on `color` (output DSD move). The stream
    /// departs when this task finishes; `activate` (if any) fires when the
    /// last wavelet has left this PE.
    pub fn send_async(&mut self, color: Color, data: Vec<u32>, activate: Option<TaskId>) {
        self.effects.push(Effect::Send {
            color,
            data,
            activate,
        });
    }

    /// Post an input DSD on `color` for `extent` wavelets; `activate` fires
    /// when they have all been delivered (input DSD move with
    /// `.activate = color` in CSL).
    pub fn recv_async(&mut self, color: Color, extent: usize, activate: TaskId) {
        self.effects.push(Effect::PostRecv {
            color,
            extent,
            activate,
        });
    }

    /// Take the most recently completed receive buffer of `color`.
    ///
    /// # Panics
    /// If no receive completed on that color since the last take — a program
    /// bug equivalent to reading a DSD that never materialized.
    #[must_use]
    pub fn take_received(&mut self, color: Color) -> Vec<u32> {
        self.ports
            .get_mut(color)
            .and_then(|port| port.completed.take())
            .unwrap_or_else(|| panic!("{} has no completed receive on {color}", self.pe))
    }

    /// Peek whether a completed receive is waiting on `color`.
    #[must_use]
    pub fn has_received(&self, color: Color) -> bool {
        self.ports
            .get(color)
            .is_some_and(|port| port.completed.is_some())
    }

    /// Locally activate another task of this program (CSL `@activate`).
    pub fn activate(&mut self, task: TaskId) {
        self.effects.push(Effect::Activate { task });
    }

    /// Emit result data off the PE to the host harness (models the fabric
    /// links that route data off the wafer).
    pub fn emit(&mut self, data: Vec<u32>) {
        self.effects.push(Effect::Emit { data });
    }

    /// Reserve `bytes` of this PE's SRAM.
    pub fn mem_alloc(&mut self, bytes: usize) -> Result<(), SimError> {
        self.memory
            .alloc(bytes)
            .map_err(|available| SimError::OutOfMemory {
                pe: self.pe,
                requested: bytes,
                available,
            })
    }

    /// Release `bytes` of this PE's SRAM.
    pub fn mem_free(&mut self, bytes: usize) {
        self.memory.free(bytes);
    }
}
