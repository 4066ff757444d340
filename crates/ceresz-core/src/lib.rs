//! # ceresz-core
//!
//! Platform-independent implementation of the **CereSZ** error-bounded lossy
//! compression algorithm (Song et al., HPDC '24, §3), plus the planning
//! machinery used to map it onto a wafer-scale dataflow mesh (§4.2–§4.4).
//!
//! The compression pipeline operates on fixed-size blocks of `f32` values and
//! has three stages, of which only the first is lossy:
//!
//! 1. **Pre-quantization** — `p_i = round(e_i / 2ε)`, guaranteeing
//!    `|p_i · 2ε − e_i| ≤ ε` for a user-supplied error bound `ε`
//!    ([`quantize`]).
//! 2. **1-D Lorenzo prediction** — first-order differencing of the quantized
//!    integers ([`lorenzo`]).
//! 3. **Fixed-length encoding** — sign extraction, per-block maximum, effective
//!    bit count, and bit-shuffle into aligned bit-planes ([`fixed_length`]).
//!
//! Decompression runs the stages in reverse; the per-block fixed length is
//! known from the block header, so the maximum scan is skipped.
//!
//! The [`plan`] module implements the paper's sub-stage decomposition, the
//! greedy balanced distribution of sub-stages across PEs (Algorithm 1), the
//! analytic pipeline cost model (Eqs. 2–4), and 5 %-sampling fixed-length
//! estimation. Planning is pure data — cycle costs are supplied by the caller
//! (in this workspace, by `wse-sim`'s calibrated cost model) or by the
//! built-in host-side estimator.
//!
//! The paper's fixed three-stage pipeline is one point in a larger design
//! space. The [`recipe`]/[`stage`]/[`codec`] modules expose that space: a
//! [`Recipe`] is an ordered list of composable [`StageSpec`]s (pre-quantize,
//! 1-D/2-D Lorenzo, fixed-length, mantissa split, bf16 downconvert, Huffman),
//! a [`Codec`] runs any recipe in either direction, and the stream/archive
//! formats record the recipe per field so decompression is self-describing.
//! The [`mod@tune`] module picks a recipe per field by sampling.
//!
//! ## Quick example
//!
//! ```
//! use ceresz_core::{CereszConfig, Codec, ErrorBound};
//!
//! let data: Vec<f32> = (0..1024).map(|i| (i as f32 * 0.01).sin()).collect();
//! let codec = Codec::new(CereszConfig::new(ErrorBound::Abs(1e-3)));
//! let compressed = codec.compress(&data).unwrap();
//! let restored = codec.decompress(&compressed.data).unwrap();
//! for (a, b) in data.iter().zip(&restored) {
//!     assert!((a - b).abs() <= 1e-3 + f32::EPSILON);
//! }
//! ```

#![forbid(unsafe_code)]
pub mod archive;
pub mod block;
pub mod bound;
pub mod codec;
pub mod compressor;
pub mod fixed_length;
pub mod lorenzo;
pub mod plan;
pub mod quantize;
pub mod recipe;
pub mod stage;
pub mod stream;
pub mod tune;
pub mod verify;

pub use block::{BlockCodec, HeaderWidth};
pub use bound::ErrorBound;
pub use codec::Codec;
pub use compressor::{precheck_input, CereszConfig, CompressError, Compressed, CompressionStats};
pub use recipe::{PlaneKind, Recipe, StageSpec};
pub use stage::{Plane, Stage, StageCtx};
pub use tune::{tune, TunerReport};
pub use verify::{max_abs_error, verify_error_bound};

/// Default block size used throughout the paper's evaluation (§5.1.1).
pub const DEFAULT_BLOCK_SIZE: usize = 32;

/// Largest quantized magnitude we accept, chosen so that first-order Lorenzo
/// deltas (`|p_i| + |p_{i-1}| ≤ 2^31 − 2`) always fit in an `i32` and their
/// magnitudes in 31 bits. Inputs that quantize beyond this yield
/// [`CompressError::Quantize`] instead of a silently broken bound.
pub const QUANT_MAX: i64 = (1 << 30) - 1;

/// Largest block size the stream format accepts (2^20 elements).
///
/// The paper uses 32; anything that could plausibly run on a PE fits in
/// 48 KB of SRAM. The cap exists so a corrupted stream header cannot make a
/// decoder allocate an unbounded per-block scratch buffer: with the cap, a
/// decode allocates at most a few MB of working state no matter what the
/// length fields claim.
pub const MAX_BLOCK_SIZE: usize = 1 << 20;
