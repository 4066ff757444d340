//! # baselines
//!
//! From-scratch Rust reimplementations of the four baseline compressors the
//! CereSZ paper compares against (§5.1.3), plus analytic device-throughput
//! models for the hardware we do not have:
//!
//! | Baseline | Paper's platform | Algorithm here |
//! |---|---|---|
//! | **SZp** | AMD EPYC 7742, OpenMP | Block-wise pre-quantization + 1-D Lorenzo + fixed-length encoding with **1-byte** headers, on `ceresz-core`'s canonical loop ([`szp`]) |
//! | **cuSZp** | NVIDIA A100, fused kernel | Same block algorithm, plus the per-chunk offset directory a GPU needs for random-access decompression ([`cuszp`]) |
//! | **SZ (SZ3)** | CPU | Error-controlled prediction (1/2/3-D Lorenzo in reconstruction space), quantization bins with outlier escape, zero-run coding, canonical Huffman ([`sz3`]) |
//! | **cuSZ** | NVIDIA A100 | Multi-dimensional Lorenzo + quantization bins + Huffman, no run coding ([`cusz`]) |
//!
//! Compression **ratios and reconstructions are exact** — they depend only
//! on the algorithms, which are fully implemented. **Throughput** of the
//! paper's A100/EPYC hardware cannot be measured here; [`device_model`]
//! provides per-algorithm analytic GB/s calibrated against the numbers the
//! papers report, parameterized by the same data statistics (mean fixed
//! length, zero-block fraction) that drive the real kernels.

#![forbid(unsafe_code)]
pub mod cusz;
pub mod cuszp;
pub mod device_model;
pub mod sz3;
pub mod szp;
pub mod traits;

pub use device_model::DeviceModel;
pub use traits::{BaselineError, Codec, CompressedBuf};
