//! # ceresz-wse
//!
//! Mapping of the CereSZ compressor onto the (simulated) Cerebras wafer-scale
//! engine — the paper's §4. The paper's three parallelization strategies are
//! parameterizations of one mapper, [`compress_map`], which plants `P` stage
//! pipelines of `len` PEs on each PE row as real PE programs running on
//! [`wse_sim`]:
//!
//! 1. **Multi-pipeline data-parallelism** (§4.3, `P` pipelines per row): the
//!    head PE of each pipeline relays raw blocks eastward, counting until
//!    its own block arrives (Fig. 9).
//! 2. **Stage pipelining** (§4.2, `P = 1`): the sub-stages (quantization
//!    split in two, Lorenzo, and the four-way split of fixed-length encoding
//!    with per-bit shuffles) are distributed over the `len` PEs of a row by
//!    the greedy Algorithm 1; intermediate block state streams eastward.
//! 3. **Row data-parallelism** (§4.1, `P = 1`, `len = 1`): each row's only
//!    PE runs the entire compression. Independent rows give linear speedup
//!    (Fig. 7). The pipelined strategies plan their stage groups, and size
//!    each PE's SRAM, for the fixed length sampled from the data — the
//!    sampling step the paper introduces in §4.2 to balance stages. Row
//!    parallelism has no such step, so its PE is sized for any block: the
//!    dispatcher hands the mapper a single-group plan at the worst-case
//!    fixed length (all 31 planes).
//!
//! All three run behind the unified [`Strategy`] execution API: pick a
//! [`StrategyKind`], call [`execute`], get a [`StrategyRun`]. The simulator
//! underneath can be sharded over threads ([`SimOptions::with_threads`])
//! with a bit-identical report at any thread count.
//!
//! Every strategy produces a byte stream **bit-identical** to the serial
//! reference implementation in `ceresz-core` (asserted by the integration
//! tests), while the simulator charges calibrated cycle costs so the
//! measured cycles reproduce the paper's profiling tables and scaling
//! figures.
//!
//! [`execute_decompress`] runs decompression on the mesh with the paper's
//! two-phase receive, in the same pipeline layout as compression (relaying
//! heads included), through the same manifest, static verifier and
//! [`SimOptions`]. Both directions supply only their stage kernel to the
//! shared layout.
//!
//! [`throughput`] adds the full-wafer analytic engine: the same per-block
//! cycle accounting fed through the paper's Eq. (4) closed form. It is the
//! fast predictor for the 512×512 and 750×994 configurations; the full
//! usable 750×994 mesh also event-steps directly through [`execute`].

#![forbid(unsafe_code)]
pub mod analyze;
pub mod compress_map;
pub mod decompress_map;
pub mod engine;
pub mod error;
pub mod harness;
pub mod kernels;
mod layout;
pub mod mapping;
pub mod observe;
pub mod profile;
pub mod strategy;
pub mod throughput;
pub mod wire;

pub use analyze::{analyze_mapping, check_soundness, mem_peaks, profile_json, SoundnessReport};
pub use decompress_map::{decompression_manifest, execute_decompress, DecompressRun};
pub use engine::{mapping_manifest, SimOptions};
pub use error::WseError;
pub use mapping::MappedMesh;
pub use observe::{observe, observe_decompression, ObserveReport};
pub use profile::{profile_compression, profile_compression_with, CompressionProfile};
pub use strategy::{execute, execute_strategy, MapOutcome, Strategy, StrategyKind, StrategyRun};
pub use throughput::{ThroughputReport, WaferConfig};
pub use wse_sim::{EngineMode, Time};
pub use wse_verify as verify;
