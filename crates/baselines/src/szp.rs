//! SZp: the OpenMP-parallel CPU compressor (§5.1.3).
//!
//! SZp shares CereSZ's block algorithm — pre-quantization, 1-D Lorenzo,
//! fixed-length encoding — but stores the per-block fixed length in a single
//! byte (it has no 32-bit wavelet alignment constraint), which raises the
//! zero-block ratio ceiling to 128× for 32-element blocks (the ≈127.9 values
//! in Table 5). It runs `ceresz-core`'s canonical loop with 1-byte headers.

use ceresz_core::{CereszConfig, ErrorBound, HeaderWidth};

use crate::traits::{BaselineError, Codec, CompressedBuf};

/// The SZp codec.
#[derive(Debug, Clone, Copy)]
pub struct Szp {
    /// Elements per block (32, as in the paper's evaluation).
    pub block_size: usize,
}

impl Default for Szp {
    fn default() -> Self {
        Self { block_size: 32 }
    }
}

impl Szp {
    fn config(&self, bound: ErrorBound) -> CereszConfig {
        CereszConfig::new(bound)
            .with_block_size(self.block_size)
            .with_header(HeaderWidth::W1)
    }
}

impl Codec for Szp {
    fn name(&self) -> &'static str {
        "SZp"
    }

    fn compress(
        &self,
        data: &[f32],
        _dims: &[usize],
        bound: ErrorBound,
    ) -> Result<CompressedBuf, BaselineError> {
        let compressed = ceresz_core::Codec::new(self.config(bound)).compress(data)?;
        Ok(CompressedBuf {
            eps: compressed.stats.eps,
            original_values: data.len(),
            bytes: compressed.data,
        })
    }

    fn decompress(&self, compressed: &CompressedBuf) -> Result<Vec<f32>, BaselineError> {
        Ok(ceresz_core::Codec::decompressor().decompress(&compressed.bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wavy(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.01).sin() * 10.0).collect()
    }

    #[test]
    fn roundtrip_within_bound() {
        let data = wavy(10_000);
        let szp = Szp::default();
        let c = szp
            .compress(&data, &[10_000], ErrorBound::Rel(1e-3))
            .unwrap();
        let r = szp.decompress(&c).unwrap();
        assert!(ceresz_core::verify_error_bound(&data, &r, c.eps));
    }

    #[test]
    fn one_byte_headers_beat_ceresz_on_zero_data() {
        // All-zero data: SZp spends 1 byte/block, CereSZ 4.
        let data = vec![0f32; 32 * 100];
        let szp = Szp::default();
        let c = szp
            .compress(&data, &[data.len()], ErrorBound::Abs(1e-3))
            .unwrap();
        let ceresz = ceresz_core::Codec::new(CereszConfig::new(ErrorBound::Abs(1e-3)))
            .compress(&data)
            .unwrap();
        assert!(c.ratio() > ceresz.ratio() * 2.0);
        // Ceiling: ~128x for zero blocks (modulo the stream header).
        assert!(c.ratio() > 100.0, "ratio = {}", c.ratio());
    }
}
