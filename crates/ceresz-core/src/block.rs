//! Per-block encode/decode: the on-wire block format.
//!
//! A compressed block is:
//!
//! ```text
//! +----------------+------------------+------------------------------+
//! | header (1|4 B) | signs (⌈L/8⌉ B)  | f bit-planes (f · ⌈L/8⌉ B)   |
//! +----------------+------------------+------------------------------+
//! ```
//!
//! The header records the block's fixed length `f`. When `f == 0` the block
//! is a **zero block** — every quantized value is 0 — and the signs and
//! planes are omitted entirely; the header doubles as the paper's "byte
//! flag" fast path (§5.2).
//!
//! CereSZ proper uses a 4-byte header: the Cerebras fabric moves 32-bit
//! wavelets, so a 1-byte header would force unaligned transfers (§5.1.1).
//! This caps the per-block ratio at `128/4 = 32×` for 32-element f32 blocks —
//! visible as the ≈31.99 ceilings in Table 5. The SZp/cuSZp baselines use a
//! 1-byte header (ceiling 128×); both widths are supported here so all
//! block-based compressors in the workspace share one tested codec.

use crate::compressor::CompressError;
use crate::fixed_length::{
    apply_signs, bit_shuffle, bit_unshuffle, effective_bits, max_magnitude, signs_and_magnitudes,
};
use crate::lorenzo::{forward_1d_in_place, inverse_1d_in_place};
use crate::quantize::{dequantize, quantize};

/// Width of the per-block fixed-length header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderWidth {
    /// 1-byte header, as used by SZp / cuSZp.
    W1,
    /// 4-byte header (one 32-bit wavelet), as used by CereSZ on the WSE.
    W4,
}

impl HeaderWidth {
    /// Header size in bytes.
    #[inline]
    #[must_use]
    pub fn bytes(self) -> usize {
        match self {
            HeaderWidth::W1 => 1,
            HeaderWidth::W4 => 4,
        }
    }
}

/// Outcome of encoding one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// The block's fixed length `f` (effective bits of the max magnitude).
    pub fixed_length: u32,
    /// Bytes appended to the output stream for this block.
    pub encoded_bytes: usize,
    /// Whether the zero-block fast path was taken.
    pub is_zero: bool,
}

/// Reusable per-block working buffers. The compressor loops process
/// millions of blocks; allocating the quantization/sign/magnitude buffers
/// per block would dominate the runtime, so callers hold one scratch per
/// thread and pass it to the `*_with` codec methods.
#[derive(Debug, Default, Clone)]
pub struct BlockScratch {
    q: Vec<i64>,
    signs: Vec<u8>,
    mags: Vec<u32>,
}

/// Stateless per-block encoder/decoder.
#[derive(Debug, Clone, Copy)]
pub struct BlockCodec {
    block_size: usize,
    header: HeaderWidth,
}

impl BlockCodec {
    /// Create a codec for `block_size`-element blocks.
    ///
    /// # Panics
    /// If `block_size` is 0 or not a multiple of 8 (the sign/bit planes are
    /// byte-packed; the paper further requires a multiple of 16 for wavelet
    /// alignment and uses 32).
    #[must_use]
    pub fn new(block_size: usize, header: HeaderWidth) -> Self {
        assert!(block_size > 0, "block size must be positive");
        assert!(
            block_size.is_multiple_of(8),
            "block size must be a multiple of 8 (got {block_size})"
        );
        Self { block_size, header }
    }

    /// Block size in elements.
    #[inline]
    #[must_use]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Header width.
    #[inline]
    #[must_use]
    pub fn header(&self) -> HeaderWidth {
        self.header
    }

    /// Bytes per bit-plane (also per sign plane).
    #[inline]
    #[must_use]
    pub fn plane_bytes(&self) -> usize {
        self.block_size.div_ceil(8)
    }

    /// Size in bytes of an encoded block with fixed length `f`.
    #[inline]
    #[must_use]
    pub fn encoded_size(&self, f: u32) -> usize {
        if f == 0 {
            self.header.bytes()
        } else {
            self.header.bytes() + (1 + f as usize) * self.plane_bytes()
        }
    }

    /// Maximum fixed length the codec supports (`f ≤ 31`; see [`crate::QUANT_MAX`]).
    pub const MAX_FIXED_LENGTH: u32 = 31;

    /// Encode one block of raw values, appending to `out`.
    ///
    /// `data` may be shorter than the block size (the final partial block of a
    /// stream); it is implicitly zero-padded — the stream header records the
    /// true element count so decoding can truncate.
    pub fn encode_block(
        &self,
        data: &[f32],
        eps: f64,
        out: &mut Vec<u8>,
    ) -> Result<BlockInfo, CompressError> {
        self.encode_block_with(data, eps, &mut BlockScratch::default(), out)
    }

    /// [`Self::encode_block`] with caller-provided working buffers (the hot
    /// path for whole-array compression).
    pub fn encode_block_with(
        &self,
        data: &[f32],
        eps: f64,
        scratch: &mut BlockScratch,
        out: &mut Vec<u8>,
    ) -> Result<BlockInfo, CompressError> {
        assert!(
            data.len() <= self.block_size,
            "block data longer than block size"
        );
        scratch.q.clear();
        scratch.q.resize(self.block_size, 0);
        quantize(data, eps, &mut scratch.q[..data.len()]).map_err(CompressError::Quantize)?;
        forward_1d_in_place(&mut scratch.q);
        // Split the borrow: encode from scratch.q using the other buffers.
        let BlockScratch { q, signs, mags } = scratch;
        self.encode_deltas_inner(q, signs, mags, out)
    }

    /// Encode one block given its prediction residuals: the fixed-length
    /// stage of the recipe interpreter, whose predictor (1-D, tiled 2-D, or
    /// none) ran as an earlier stage.
    pub fn encode_deltas(
        &self,
        deltas: &[i64],
        scratch: &mut BlockScratch,
        out: &mut Vec<u8>,
    ) -> Result<BlockInfo, CompressError> {
        self.encode_deltas_inner(deltas, &mut scratch.signs, &mut scratch.mags, out)
    }

    fn encode_deltas_inner(
        &self,
        deltas: &[i64],
        signs: &mut Vec<u8>,
        mags: &mut Vec<u32>,
        out: &mut Vec<u8>,
    ) -> Result<BlockInfo, CompressError> {
        assert_eq!(deltas.len(), self.block_size, "delta block size mismatch");
        let pb = self.plane_bytes();
        signs.clear();
        signs.resize(pb, 0);
        mags.clear();
        mags.resize(self.block_size, 0);
        for (i, &d) in deltas.iter().enumerate() {
            if d.unsigned_abs() > i64::from(i32::MAX).unsigned_abs() {
                return Err(CompressError::DeltaOverflow { index: i });
            }
        }
        signs_and_magnitudes(deltas, signs, mags);
        let f = effective_bits(max_magnitude(mags));
        debug_assert!(f <= Self::MAX_FIXED_LENGTH);
        self.write_header(f, out);
        if f == 0 {
            return Ok(BlockInfo {
                fixed_length: 0,
                encoded_bytes: self.header.bytes(),
                is_zero: true,
            });
        }
        out.extend_from_slice(signs);
        let plane_off = out.len();
        out.resize(plane_off + f as usize * pb, 0);
        bit_shuffle(mags, f, &mut out[plane_off..]);
        Ok(BlockInfo {
            fixed_length: f,
            encoded_bytes: self.encoded_size(f),
            is_zero: false,
        })
    }

    fn write_header(&self, f: u32, out: &mut Vec<u8>) {
        match self.header {
            HeaderWidth::W1 => out.push(f as u8),
            HeaderWidth::W4 => out.extend_from_slice(&f.to_le_bytes()),
        }
    }

    fn read_header(&self, bytes: &[u8]) -> Result<u32, CompressError> {
        let hb = self.header.bytes();
        if bytes.len() < hb {
            return Err(CompressError::Truncated);
        }
        let f = match self.header {
            HeaderWidth::W1 => u32::from(bytes[0]),
            HeaderWidth::W4 => u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]),
        };
        if f > Self::MAX_FIXED_LENGTH {
            return Err(CompressError::CorruptHeader { fixed_length: f });
        }
        Ok(f)
    }

    /// Decode the quantized integers of one block (before dequantization):
    /// its residuals, then the 1-D inverse Lorenzo.
    ///
    /// Returns the number of input bytes consumed. `out` must be exactly one
    /// block long and is fully overwritten.
    pub fn decode_block_quantized_with(
        &self,
        bytes: &[u8],
        scratch: &mut BlockScratch,
        out: &mut [i64],
    ) -> Result<usize, CompressError> {
        let used = self.decode_block_deltas(bytes, scratch, out)?;
        // A zero block (header only) is all zeros, its own inverse.
        if used > self.header.bytes() {
            inverse_1d_in_place(out);
        }
        Ok(used)
    }

    /// Decode one block's *residuals* exactly as encoded — the counterpart
    /// of [`Self::encode_deltas`], used when a different predictor (2-D
    /// tiles, or none at all) produced the residuals.
    ///
    /// Returns the number of input bytes consumed. `out` must be exactly one
    /// block long and is fully overwritten.
    pub fn decode_block_deltas(
        &self,
        bytes: &[u8],
        scratch: &mut BlockScratch,
        out: &mut [i64],
    ) -> Result<usize, CompressError> {
        assert_eq!(out.len(), self.block_size, "output block size mismatch");
        let f = self.read_header(bytes)?;
        let hb = self.header.bytes();
        if f == 0 {
            out.fill(0);
            return Ok(hb);
        }
        let pb = self.plane_bytes();
        let need = self.encoded_size(f);
        if bytes.len() < need {
            return Err(CompressError::Truncated);
        }
        let signs = &bytes[hb..hb + pb];
        let planes = &bytes[hb + pb..need];
        scratch.mags.clear();
        scratch.mags.resize(self.block_size, 0);
        bit_unshuffle(planes, f, &mut scratch.mags);
        apply_signs(signs, &scratch.mags, out);
        Ok(need)
    }

    /// Decode one block to floating point values.
    ///
    /// Returns the number of input bytes consumed.
    pub fn decode_block(
        &self,
        bytes: &[u8],
        eps: f64,
        out: &mut [f32],
    ) -> Result<usize, CompressError> {
        self.decode_block_with(bytes, eps, &mut BlockScratch::default(), out)
    }

    /// [`Self::decode_block`] with caller-provided buffers (the hot path).
    pub fn decode_block_with(
        &self,
        bytes: &[u8],
        eps: f64,
        scratch: &mut BlockScratch,
        out: &mut [f32],
    ) -> Result<usize, CompressError> {
        let mut q = std::mem::take(&mut scratch.q);
        q.clear();
        q.resize(self.block_size, 0);
        let result = self.decode_block_quantized_with(bytes, scratch, &mut q);
        if result.is_ok() {
            dequantize(&q[..out.len().min(self.block_size)], eps, out);
        }
        scratch.q = q;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(codec: BlockCodec, data: &[f32], eps: f64) {
        let mut out = Vec::new();
        let info = codec.encode_block(data, eps, &mut out).unwrap();
        assert_eq!(out.len(), info.encoded_bytes);
        let mut rec = vec![0f32; data.len()];
        let consumed = codec.decode_block(&out, eps, &mut rec).unwrap();
        assert_eq!(consumed, out.len());
        for (a, b) in data.iter().zip(&rec) {
            let slack = f64::from(f32::EPSILON) * (1.0 + f64::from(a.abs()));
            assert!(
                (f64::from(*a) - f64::from(*b)).abs() <= eps + slack,
                "{a} vs {b} eps {eps}"
            );
        }
    }

    #[test]
    fn paper_example_size() {
        // Fig. 5(b): 8-element block, f = 4 → with a 1-byte header:
        // 1 (header) + 1 (signs) + 4 (planes) = 6 bytes, ratio 32/6 ≈ 5.33.
        let codec = BlockCodec::new(8, HeaderWidth::W1);
        assert_eq!(codec.encoded_size(4), 6);
    }

    #[test]
    fn w4_header_sizes() {
        let codec = BlockCodec::new(32, HeaderWidth::W4);
        assert_eq!(codec.encoded_size(0), 4); // zero block: ratio 128/4 = 32
        assert_eq!(codec.encoded_size(17), 4 + 4 + 17 * 4);
    }

    #[test]
    fn roundtrip_smooth_data() {
        let data: Vec<f32> = (0..32).map(|i| (i as f32 * 0.1).sin()).collect();
        roundtrip(BlockCodec::new(32, HeaderWidth::W4), &data, 1e-3);
        roundtrip(BlockCodec::new(32, HeaderWidth::W1), &data, 1e-3);
    }

    #[test]
    fn roundtrip_hostile_data() {
        let data: Vec<f32> = (0..32)
            .map(|i| ((i * 2654435761u64 % 10007) as f32 - 5000.0) * 0.37)
            .collect();
        roundtrip(BlockCodec::new(32, HeaderWidth::W4), &data, 1e-2);
    }

    #[test]
    fn zero_block_fast_path() {
        let codec = BlockCodec::new(32, HeaderWidth::W4);
        let data = [1e-6f32; 32]; // quantizes to 0 at eps = 0.01
        let mut out = Vec::new();
        let info = codec.encode_block(&data, 0.01, &mut out).unwrap();
        assert!(info.is_zero);
        assert_eq!(out.len(), 4);
        let mut rec = [9f32; 32];
        codec.decode_block(&out, 0.01, &mut rec).unwrap();
        assert!(rec.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn partial_final_block() {
        let codec = BlockCodec::new(32, HeaderWidth::W4);
        let data: Vec<f32> = (0..13).map(|i| i as f32 * 0.5).collect();
        roundtrip(codec, &data, 1e-3);
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let codec = BlockCodec::new(32, HeaderWidth::W4);
        let data: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let mut out = Vec::new();
        codec.encode_block(&data, 1e-3, &mut out).unwrap();
        let mut rec = vec![0f32; 32];
        assert!(matches!(
            codec.decode_block(&out[..out.len() - 1], 1e-3, &mut rec),
            Err(CompressError::Truncated)
        ));
        assert!(matches!(
            codec.decode_block(&out[..2], 1e-3, &mut rec),
            Err(CompressError::Truncated)
        ));
    }

    #[test]
    fn corrupt_header_is_an_error() {
        let codec = BlockCodec::new(32, HeaderWidth::W4);
        let bytes = 77u32.to_le_bytes();
        let mut rec = vec![0f32; 32];
        assert!(matches!(
            codec.decode_block(&bytes, 1e-3, &mut rec),
            Err(CompressError::CorruptHeader { fixed_length: 77 })
        ));
    }

    #[test]
    fn max_fixed_length_block_roundtrips() {
        // Alternating huge quantized values produce deltas near ±2^31.
        let eps = 0.5; // 2ε = 1 → p = round(e)
        let big = (1u32 << 29) as f32; // exactly representable, well under QUANT_MAX
        let data: Vec<f32> = (0..32)
            .map(|i| if i % 2 == 0 { big } else { -big })
            .collect();
        let codec = BlockCodec::new(32, HeaderWidth::W4);
        let mut out = Vec::new();
        let info = codec.encode_block(&data, eps, &mut out).unwrap();
        assert!(info.fixed_length == 31, "f = {}", info.fixed_length);
        let mut rec = vec![0f32; 32];
        codec.decode_block(&out, eps, &mut rec).unwrap();
        for (a, b) in data.iter().zip(&rec) {
            // big is not exactly representable; allow quantization slack only.
            assert!((f64::from(*a) - f64::from(*b)).abs() <= eps + 1e-6 * f64::from(big.abs()));
        }
    }
}
