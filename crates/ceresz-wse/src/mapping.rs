//! The declarative mapping layer behind static verification.
//!
//! [`MappedMesh`] wraps a [`Simulator`] and records a
//! [`wse_verify::MappingManifest`] alongside every installation the strategy
//! performs: routing rules, programs (with their task ids), receive
//! postings (with lifetime totals), host injections, and the SRAM working
//! sets the kernels will reserve. Because every installation goes through
//! the wrapper, the manifest cannot drift from the mapping it describes —
//! the verifier sees exactly what the simulator will execute.

use std::sync::Arc;

use wse_sim::{
    Color, Direction, MeshConfig, PeId, PeProgram, RouteRule, RunReport, Simulator, TaskId, Time,
};
use wse_verify::{MappingManifest, Severity, VerifyReport};

use crate::engine::SimOptions;
use crate::error::WseError;

/// A simulator under construction together with its static self-description.
pub struct MappedMesh {
    sim: Simulator,
    manifest: MappingManifest,
}

impl MappedMesh {
    /// Create a mesh of `rows × cols` PEs with the given simulator
    /// configuration; `name` labels the manifest in diagnostics
    /// (strategy + shape).
    #[must_use]
    pub fn new(name: impl Into<String>, cfg: MeshConfig, rows: usize, cols: usize) -> Self {
        Self {
            sim: Simulator::new(cfg),
            manifest: MappingManifest::new(name, rows, cols),
        }
    }

    /// Install a routing rule on the simulator and record it in the
    /// manifest (mirrors [`Simulator::route`]).
    pub fn route(
        &mut self,
        pe: PeId,
        color: Color,
        input: Option<Direction>,
        outputs: &[Direction],
    ) {
        self.sim.route(pe, color, input, outputs);
        self.manifest
            .route(pe, color, RouteRule::new(input, outputs));
    }

    /// Install a PE program and declare the tasks it defines.
    pub fn set_program(&mut self, pe: PeId, program: Box<dyn PeProgram>, tasks: &[TaskId]) {
        self.sim.set_program(pe, program);
        for &t in tasks {
            self.manifest.declare_task(pe, t);
        }
    }

    /// Post the initial receive on the simulator and declare the channel's
    /// lifetime total: `total_recvs` completions of `extent` wavelets each
    /// (the initial posting plus every chained `recv_async` the program
    /// will issue).
    pub fn post_recv(
        &mut self,
        pe: PeId,
        color: Color,
        extent: usize,
        task: TaskId,
        total_recvs: usize,
    ) {
        self.sim.post_recv(pe, color, extent, task);
        self.declare_recv(pe, color, extent, total_recvs, task);
    }

    /// Declare `recvs` receives of `extent` wavelets on `color`, each
    /// activating `task`, that the program at `pe` will chain itself.
    pub fn declare_recv(
        &mut self,
        pe: PeId,
        color: Color,
        extent: usize,
        recvs: usize,
        task: TaskId,
    ) {
        self.manifest.declare_recv(pe, color, extent, recvs, task);
    }

    /// Declare a sender: the program at `pe` will issue `sends` async sends
    /// of `words_per_send` wavelets on `color` over its lifetime.
    pub fn declare_send(
        &mut self,
        pe: PeId,
        color: Color,
        words_per_send: usize,
        sends: usize,
        activates: Option<TaskId>,
    ) {
        self.manifest
            .declare_send(pe, color, words_per_send, sends, activates);
    }

    /// Declare the SRAM working set the program at `pe` will reserve.
    pub fn declare_buffer(&mut self, pe: PeId, bytes: usize, label: impl Into<Arc<str>>) {
        self.manifest.declare_buffer(pe, bytes, label);
    }

    /// Inject blocks back-to-back into `pe`'s RAMP (mirrors
    /// [`Simulator::inject_blocks`]) and record the delivered wavelet total.
    pub fn inject_blocks(&mut self, pe: PeId, color: Color, blocks: Vec<Vec<u32>>, start: Time) {
        let words: usize = blocks.iter().map(Vec::len).sum();
        self.manifest.declare_injection(pe, color, words);
        self.sim.inject_blocks(pe, color, blocks, start);
    }

    /// Activate a task from the host (mirrors [`Simulator::activate`]) and
    /// record the liveness entry point.
    pub fn activate(&mut self, pe: PeId, task: TaskId, time: Time) {
        self.sim.activate(pe, task, time);
        self.manifest.declare_entry(pe, task);
    }

    /// The recorded manifest.
    #[must_use]
    pub fn manifest(&self) -> &MappingManifest {
        &self.manifest
    }

    /// Run the static verifier over the recorded manifest.
    #[must_use]
    pub fn verify(&self) -> VerifyReport {
        wse_verify::verify(&self.manifest)
    }

    /// Give up the manifest and hand out the simulator for execution.
    #[must_use]
    pub fn into_sim(self) -> Simulator {
        self.sim
    }

    /// Split into the simulator and its manifest.
    #[must_use]
    pub fn into_parts(self) -> (Simulator, MappingManifest) {
        (self.sim, self.manifest)
    }
}

/// The run step of both directions: when `options.verify` is set, gate the
/// constructed mapping on the static verifier — [`WseError::MappingRejected`]
/// carries every error-severity diagnostic — then simulate it.
pub(crate) fn run_verified(mesh: MappedMesh, options: &SimOptions) -> Result<RunReport, WseError> {
    if options.verify {
        let report = mesh.verify();
        if !report.is_clean() {
            return Err(WseError::MappingRejected {
                mapping: mesh.manifest.name,
                diagnostics: report
                    .diagnostics
                    .into_iter()
                    .filter(|d| d.severity == Severity::Error)
                    .collect(),
            });
        }
    }
    mesh.into_sim().run().map_err(WseError::Sim)
}
