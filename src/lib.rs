//! # ceresz
//!
//! Facade crate of the CereSZ reproduction workspace: re-exports the public
//! surface of every member crate so examples and downstream users need a
//! single dependency.
//!
//! * [`core`] — the CereSZ compression algorithm and planning (Algorithm 1,
//!   Eqs. 2–4).
//! * [`wse`] — the three parallelization strategies running on the simulated
//!   wafer, plus the full-wafer analytic throughput engine.
//! * [`sim`] — the Cerebras-style dataflow simulator substrate.
//! * [`data`] — synthetic SDRBench-like datasets and raw `f32` I/O.
//! * [`quality`] — PSNR / SSIM / rate–distortion metrics.
//! * [`baselines`] — SZ3, SZp, cuSZ, cuSZp reimplementations and device
//!   throughput models.
//! * [`huffman`] — the canonical Huffman substrate.
//! * [`telemetry`] — profiling primitives (counters, histograms, spans) and
//!   the Perfetto / `profile.json` exporters behind `ceresz profile`.
//! * [`conformance`] — the seed-driven differential fuzzing harness behind
//!   `ceresz fuzz` (seven oracles: differential, roundtrip, mutation,
//!   baselines, verifier, soundness, recipes).
//!
//! ## Quickstart
//!
//! ```
//! use ceresz::core::{CereszConfig, Codec, ErrorBound};
//!
//! let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
//! let codec = Codec::new(CereszConfig::new(ErrorBound::Rel(1e-3)));
//! let compressed = codec.compress(&data).unwrap();
//! let restored = codec.decompress(&compressed.data).unwrap();
//! assert!(ceresz::core::verify_error_bound(&data, &restored, compressed.stats.eps));
//! println!("ratio = {:.2}", compressed.ratio());
//! ```

#![forbid(unsafe_code)]
pub use baselines;
pub use ceresz_core as core;
pub use ceresz_wse as wse;
pub use conformance;
pub use datasets as data;
pub use huffman;
pub use metrics as quality;
pub use telemetry;
pub use wse_sim as sim;
