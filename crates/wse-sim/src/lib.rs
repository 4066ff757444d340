//! # wse-sim
//!
//! A cycle-counting dataflow simulator of a Cerebras-style wafer-scale engine
//! (WSE): a 2-D mesh of processing elements (PEs), each with
//!
//! * a **fabric router** that forwards 32-bit **wavelets** between the four
//!   neighbors (east/west/north/south) and the local processor (**RAMP**),
//!   along logical channels called **colors** (24 available, as on the CS-2);
//! * a **processor** that runs **tasks** bound to colors — a task fires only
//!   when its input data has arrived (data-triggered execution), exactly the
//!   CSL programming model the CereSZ paper targets;
//! * a small local **memory** (48 KB of SRAM on the CS-2) holding all code
//!   and data — there is no global memory.
//!
//! ## Simulation model
//!
//! The simulator is discrete-event and deterministic:
//!
//! * **Compute** is charged through a calibrated per-operation
//!   [`CostModel`]; a task runs to completion (non-preemptive) and occupies
//!   its PE for the charged cycles.
//! * **Communication** is modeled at stream granularity with per-link
//!   bandwidth of one wavelet per cycle and one cycle of latency per hop;
//!   streams sharing a link serialize. This reproduces the paper's relay
//!   cost `C1 ≈ block + latency` cycles per hop (Eq. 2) without simulating
//!   individual wavelets, which keeps meshes of tens of thousands of PEs
//!   tractable.
//! * **Asynchronous DSD moves** (`@mov32(..., .async = true, .activate =
//!   color)`) are modeled faithfully: an input descriptor completes — and
//!   activates its task — when its `extent` wavelets have been delivered;
//!   an output descriptor's completion activation fires when the last
//!   wavelet has left the source PE.
//!
//! If the event queue drains while PEs still wait on input, the simulator
//! reports a [`SimError::Deadlock`] naming every blocked PE — the moral
//! equivalent of a hung fabric on real hardware.
//!
//! ## Observation
//!
//! One switch, [`MeshConfig::with_flight`], turns on the flight recorder;
//! the report then carries a [`FlightRecording`] ([`RunReport::flight`]):
//! per-PE busy and stall series, per-link occupancy, per-stage cycle
//! attribution, and the task timeline ([`Trace`]). With it off the engine
//! records nothing, and either way the [`RunReport`] is bit-identical.
//!
//! ## Example: two PEs, one pipeline hop
//!
//! ```
//! use wse_sim::{Color, Direction, SimError, Simulator, MeshConfig, PeId, PeProgram, TaskCtx, TaskId};
//!
//! const DATA: Color = Color::new(0);
//! const RECV_DONE: TaskId = TaskId(0);
//!
//! struct Sender;
//! impl PeProgram for Sender {
//!     fn on_task(&mut self, ctx: &mut TaskCtx<'_>, _t: TaskId) -> Result<(), SimError> {
//!         ctx.send_async(DATA, vec![1, 2, 3, 4], None);
//!         Ok(())
//!     }
//! }
//!
//! struct Receiver;
//! impl PeProgram for Receiver {
//!     fn on_task(&mut self, ctx: &mut TaskCtx<'_>, t: TaskId) -> Result<(), SimError> {
//!         if t == RECV_DONE {
//!             let data = ctx.take_received(DATA);
//!             ctx.emit(data);
//!         }
//!         Ok(())
//!     }
//! }
//!
//! let mut sim = Simulator::new(MeshConfig::new(1, 2));
//! // Route color 0 eastward from PE(0,0) into PE(0,1)'s RAMP.
//! sim.route(PeId::new(0, 0), DATA, None, &[Direction::East]);
//! sim.route(PeId::new(0, 1), DATA, Some(Direction::West), &[Direction::Ramp]);
//! sim.set_program(PeId::new(0, 0), Box::new(Sender));
//! sim.set_program(PeId::new(0, 1), Box::new(Receiver));
//! sim.post_recv(PeId::new(0, 1), DATA, 4, RECV_DONE);
//! sim.activate(PeId::new(0, 0), TaskId(9), wse_sim::Time::ZERO); // kick the sender
//! let report = sim.run().unwrap();
//! assert_eq!(report.outputs(PeId::new(0, 1)), &[vec![1, 2, 3, 4]]);
//! ```

#![forbid(unsafe_code)]
pub mod cost;
pub mod error;
pub mod fabric;
pub mod flight;
pub mod geom;
pub mod memory;
pub mod pe;
pub mod program;
pub(crate) mod shard;
pub mod sim;
pub mod stats;
pub mod time;
pub mod trace;

pub use cost::{CostModel, Op};
pub use error::{BlockedPe, BlockedRecv, SimError};
pub use fabric::{Color, OutputSet, RouteRule, MAX_COLORS};
pub use flight::{FlightConfig, FlightRecording, LinkFlight, Metric, PeFlight, Series, StallCause};
pub use geom::{Direction, PeId};
pub use memory::MemoryTracker;
pub use program::{PeProgram, TaskCtx, TaskId};
pub use sim::{EngineMode, MeshConfig, RunReport, Simulator};
pub use stats::{PeStats, SimStats};
pub use time::{Time, TICKS_PER_CYCLE};
pub use trace::{Trace, TraceEvent};

/// SRAM bytes per PE on the CS-2 (§5.1.1 of the CereSZ paper).
pub const PE_SRAM_BYTES: usize = 48 * 1024;

/// PE clock frequency of the CS-2 in Hz.
pub const CLOCK_HZ: f64 = 850e6;

/// Usable mesh size on the CS-2: 750 × 994 of the 757 × 996 fabricated PEs
/// (the rest route data on and off the wafer).
pub const CS2_USABLE_ROWS: usize = 750;
/// See [`CS2_USABLE_ROWS`].
pub const CS2_USABLE_COLS: usize = 994;
