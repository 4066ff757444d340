//! The stage abstraction: paired `encode`/`decode` transformations over
//! typed intermediate planes.
//!
//! A [`Stage`] consumes one [`Plane`] and produces another; a
//! [`crate::Recipe`] chains stages so their plane kinds line up (checked by
//! [`crate::Recipe::new`]). Encoding runs the stages in order starting from
//! an `F32` plane of the input values and must end on a `Bytes` plane;
//! decoding runs the same stages **reversed**, starting from the stream
//! payload bytes.
//!
//! Stage contract:
//!
//! - `decode(encode(plane))` reconstructs `plane` exactly for lossless
//!   stages, and within the stage's documented error for lossy ones
//!   ([`StageSpec::PreQuantize`] bounded by ε, [`StageSpec::Bf16`] unbounded —
//!   the codec verifies post-hoc).
//! - Stages never panic on hostile input: corrupt bytes yield typed
//!   [`CompressError`]s.
//! - Integer planes are always a whole number of `block_size` blocks
//!   ([`StageSpec::PreQuantize`] pads with zeros; the stream header records
//!   the true element count so decode can truncate).

use crate::block::{BlockCodec, BlockScratch, HeaderWidth};
use crate::compressor::{CompressError, CompressionStats};
use crate::lorenzo::{forward_1d_in_place, forward_2d, inverse_1d_in_place, inverse_2d};
use crate::quantize::{dequantize, quantize, QuantizeError};
use crate::recipe::StageSpec;

/// A typed intermediate buffer flowing between stages.
#[derive(Debug, Clone, PartialEq)]
pub enum Plane {
    /// Floating-point values.
    F32(Vec<f32>),
    /// Quantized integers or prediction residuals.
    I64(Vec<i64>),
    /// An opaque byte stream.
    Bytes(Vec<u8>),
}

impl Plane {
    fn into_f32(self) -> Result<Vec<f32>, CompressError> {
        match self {
            Plane::F32(v) => Ok(v),
            _ => Err(CompressError::InvalidRecipe("expected an f32 plane")),
        }
    }

    fn into_i64(self) -> Result<Vec<i64>, CompressError> {
        match self {
            Plane::I64(v) => Ok(v),
            _ => Err(CompressError::InvalidRecipe("expected an i64 plane")),
        }
    }

    /// Unwrap a byte plane (the terminal state of an encode chain).
    pub fn into_bytes(self) -> Result<Vec<u8>, CompressError> {
        match self {
            Plane::Bytes(v) => Ok(v),
            _ => Err(CompressError::InvalidRecipe("expected a byte plane")),
        }
    }
}

/// Per-run context shared by every stage of a pipeline.
#[derive(Debug, Clone, Copy)]
pub struct StageCtx {
    /// Resolved absolute error bound.
    pub eps: f64,
    /// Elements per fixed-length block.
    pub block_size: usize,
    /// Per-block header width.
    pub header: HeaderWidth,
    /// True element count of the original field.
    pub count: usize,
}

impl StageCtx {
    /// Integer-plane length: `count` padded up to whole blocks.
    #[must_use]
    pub fn padded_len(&self) -> usize {
        self.count.div_ceil(self.block_size) * self.block_size
    }
}

/// One composable pipeline stage: paired encode/decode over typed planes.
pub trait Stage {
    /// The serializable description of this stage.
    fn spec(&self) -> StageSpec;

    /// Forward transformation. `stats` accumulates per-block information for
    /// stages that produce the final block stream.
    fn encode(
        &self,
        input: Plane,
        ctx: &StageCtx,
        stats: &mut CompressionStats,
    ) -> Result<Plane, CompressError>;

    /// Inverse transformation. Must return a typed error (never panic) on
    /// corrupt or truncated input.
    fn decode(&self, input: Plane, ctx: &StageCtx) -> Result<Plane, CompressError>;
}

impl StageSpec {
    /// Instantiate the stage this spec describes.
    #[must_use]
    pub fn build(&self) -> Box<dyn Stage> {
        match *self {
            StageSpec::PreQuantize => Box::new(PreQuantizeStage),
            StageSpec::Lorenzo1d => Box::new(Lorenzo1dStage),
            StageSpec::Lorenzo2d { rows, cols, tile } => Box::new(Lorenzo2dStage {
                rows: rows as usize,
                cols: cols as usize,
                tile: tile as usize,
            }),
            StageSpec::FixedLength => Box::new(FixedLengthStage),
            StageSpec::MantissaSplit => Box::new(MantissaSplitStage),
            StageSpec::Bf16 => Box::new(Bf16Stage),
            StageSpec::Huffman => Box::new(HuffmanStage),
        }
    }
}

/// Pre-quantization: `F32 → I64`, padded to whole blocks.
struct PreQuantizeStage;

impl Stage for PreQuantizeStage {
    fn spec(&self) -> StageSpec {
        StageSpec::PreQuantize
    }

    fn encode(
        &self,
        input: Plane,
        ctx: &StageCtx,
        _stats: &mut CompressionStats,
    ) -> Result<Plane, CompressError> {
        let data = input.into_f32()?;
        let mut q = vec![0i64; ctx.padded_len()];
        quantize(&data, ctx.eps, &mut q[..data.len()])?;
        Ok(Plane::I64(q))
    }

    fn decode(&self, input: Plane, ctx: &StageCtx) -> Result<Plane, CompressError> {
        let q = input.into_i64()?;
        if q.len() < ctx.count {
            return Err(CompressError::Truncated);
        }
        let mut out = vec![0f32; ctx.count];
        dequantize(&q[..ctx.count], ctx.eps, &mut out);
        Ok(Plane::F32(out))
    }
}

/// Blockwise 1-D Lorenzo prediction: `I64 → I64`.
struct Lorenzo1dStage;

impl Stage for Lorenzo1dStage {
    fn spec(&self) -> StageSpec {
        StageSpec::Lorenzo1d
    }

    fn encode(
        &self,
        input: Plane,
        ctx: &StageCtx,
        _stats: &mut CompressionStats,
    ) -> Result<Plane, CompressError> {
        let mut q = input.into_i64()?;
        if !q.len().is_multiple_of(ctx.block_size) {
            return Err(CompressError::BadBlockSize(ctx.block_size));
        }
        for block in q.chunks_exact_mut(ctx.block_size) {
            forward_1d_in_place(block);
        }
        Ok(Plane::I64(q))
    }

    fn decode(&self, input: Plane, ctx: &StageCtx) -> Result<Plane, CompressError> {
        let mut q = input.into_i64()?;
        if !q.len().is_multiple_of(ctx.block_size) {
            return Err(CompressError::Truncated);
        }
        for block in q.chunks_exact_mut(ctx.block_size) {
            inverse_1d_in_place(block);
        }
        Ok(Plane::I64(q))
    }
}

/// Tiled 2-D Lorenzo prediction: `I64 → I64`. The row-major `rows × cols`
/// field is cut into `tile × tile` tiles (zero-padded past the edges), each
/// predicted independently, so every tile stays decodable on its own.
///
/// This is the higher-dimensional predictor §3 of the paper sets aside for
/// throughput: a PE compressing a tile must gather `tile` strided field
/// rows, so the west-edge streaming order no longer matches memory order.
/// It exists here so that trade-off can be measured (the `ablations` bench).
struct Lorenzo2dStage {
    rows: usize,
    cols: usize,
    tile: usize,
}

impl Lorenzo2dStage {
    fn n_tiles(&self) -> (usize, usize) {
        (self.rows.div_ceil(self.tile), self.cols.div_ceil(self.tile))
    }
}

impl Stage for Lorenzo2dStage {
    fn spec(&self) -> StageSpec {
        StageSpec::Lorenzo2d {
            rows: self.rows as u32,
            cols: self.cols as u32,
            tile: self.tile as u16,
        }
    }

    fn encode(
        &self,
        input: Plane,
        ctx: &StageCtx,
        _stats: &mut CompressionStats,
    ) -> Result<Plane, CompressError> {
        let q = input.into_i64()?;
        let n = self
            .rows
            .checked_mul(self.cols)
            .ok_or(CompressError::DimsOverflow)?;
        if ctx.count != n || q.len() < n {
            return Err(CompressError::DimsMismatch {
                dims_product: n,
                len: ctx.count,
            });
        }
        let t = self.tile;
        let (tiles_r, tiles_c) = self.n_tiles();
        let mut out = vec![0i64; tiles_r * tiles_c * t * t];
        let mut tilebuf = vec![0i64; t * t];
        for tr in 0..tiles_r {
            for tc in 0..tiles_c {
                // Gather the tile, zero-padding past the field edge.
                tilebuf.fill(0);
                for i in 0..t.min(self.rows - tr * t) {
                    let row = tr * t + i;
                    let c0 = tc * t;
                    let w = t.min(self.cols - c0);
                    tilebuf[i * t..i * t + w]
                        .copy_from_slice(&q[row * self.cols + c0..row * self.cols + c0 + w]);
                }
                let base = (tr * tiles_c + tc) * t * t;
                forward_2d(&tilebuf, t, t, &mut out[base..base + t * t]);
            }
        }
        Ok(Plane::I64(out))
    }

    fn decode(&self, input: Plane, ctx: &StageCtx) -> Result<Plane, CompressError> {
        let deltas = input.into_i64()?;
        // The count comes from the stream header: check it against the
        // recipe's dimensions, as encode does, before sizing anything by it.
        let n = self
            .rows
            .checked_mul(self.cols)
            .ok_or(CompressError::DimsOverflow)?;
        if ctx.count != n {
            return Err(CompressError::DimsMismatch {
                dims_product: n,
                len: ctx.count,
            });
        }
        let t = self.tile;
        let (tiles_r, tiles_c) = self.n_tiles();
        let tiled = [tiles_c, t, t]
            .into_iter()
            .try_fold(tiles_r, usize::checked_mul);
        if tiled != Some(deltas.len()) {
            return Err(CompressError::Truncated);
        }
        // Re-pad to whole blocks so decode is the exact inverse of encode's
        // input plane (the padding PreQuantize added was all zeros).
        let mut out = vec![0i64; ctx.padded_len().max(n)];
        let mut tilebuf = vec![0i64; t * t];
        for tr in 0..tiles_r {
            for tc in 0..tiles_c {
                let base = (tr * tiles_c + tc) * t * t;
                inverse_2d(&deltas[base..base + t * t], t, t, &mut tilebuf);
                for i in 0..t.min(self.rows - tr * t) {
                    let row = tr * t + i;
                    let c0 = tc * t;
                    let w = t.min(self.cols - c0);
                    out[row * self.cols + c0..row * self.cols + c0 + w]
                        .copy_from_slice(&tilebuf[i * t..i * t + w]);
                }
            }
        }
        Ok(Plane::I64(out))
    }
}

/// Per-block fixed-length encoding: `I64 → Bytes`.
struct FixedLengthStage;

impl Stage for FixedLengthStage {
    fn spec(&self) -> StageSpec {
        StageSpec::FixedLength
    }

    fn encode(
        &self,
        input: Plane,
        ctx: &StageCtx,
        stats: &mut CompressionStats,
    ) -> Result<Plane, CompressError> {
        let deltas = input.into_i64()?;
        if !deltas.len().is_multiple_of(ctx.block_size) {
            return Err(CompressError::BadBlockSize(ctx.block_size));
        }
        let codec = BlockCodec::new(ctx.block_size, ctx.header);
        let mut scratch = BlockScratch::default();
        let mut out = Vec::with_capacity(deltas.len());
        for block in deltas.chunks_exact(ctx.block_size) {
            let info = codec.encode_deltas(block, &mut scratch, &mut out)?;
            stats.absorb_block(info);
        }
        Ok(Plane::Bytes(out))
    }

    fn decode(&self, input: Plane, ctx: &StageCtx) -> Result<Plane, CompressError> {
        let bytes = input.into_bytes()?;
        let codec = BlockCodec::new(ctx.block_size, ctx.header);
        let mut scratch = BlockScratch::default();
        // Reserve for the header's block count, but never more blocks than
        // the payload holds headers for: `count` may be forged.
        let blocks = ctx
            .count
            .div_ceil(ctx.block_size)
            .min(bytes.len() / ctx.header.bytes());
        let mut out = Vec::with_capacity(blocks * ctx.block_size);
        let mut pos = 0usize;
        // Blocks are self-framing; consume the whole payload.
        while pos < bytes.len() {
            let start = out.len();
            out.resize(start + ctx.block_size, 0);
            pos += codec.decode_block_deltas(&bytes[pos..], &mut scratch, &mut out[start..])?;
        }
        Ok(Plane::I64(out))
    }
}

/// Lossless byte-plane split: `F32 → Bytes` (byte `j` of each word goes to
/// plane `j`, grouping exponent bytes away from mantissa noise).
struct MantissaSplitStage;

impl Stage for MantissaSplitStage {
    fn spec(&self) -> StageSpec {
        StageSpec::MantissaSplit
    }

    fn encode(
        &self,
        input: Plane,
        ctx: &StageCtx,
        _stats: &mut CompressionStats,
    ) -> Result<Plane, CompressError> {
        let data = input.into_f32()?;
        let n = ctx.count;
        debug_assert_eq!(data.len(), n);
        let mut out = vec![0u8; 4 * n];
        for (i, v) in data.iter().enumerate() {
            let b = v.to_bits().to_le_bytes();
            for j in 0..4 {
                out[j * n + i] = b[j];
            }
        }
        Ok(Plane::Bytes(out))
    }

    fn decode(&self, input: Plane, ctx: &StageCtx) -> Result<Plane, CompressError> {
        let bytes = input.into_bytes()?;
        let n = ctx.count;
        // Divide rather than multiply: the count is the header's word.
        if bytes.len() % 4 != 0 || bytes.len() / 4 != n {
            return Err(CompressError::Truncated);
        }
        let mut out = vec![0f32; n];
        for (i, v) in out.iter_mut().enumerate() {
            let word = [bytes[i], bytes[n + i], bytes[2 * n + i], bytes[3 * n + i]];
            *v = f32::from_bits(u32::from_le_bytes(word));
        }
        Ok(Plane::F32(out))
    }
}

/// bfloat16 downconvert: `F32 → Bytes`, 2 bytes per element,
/// round-to-nearest-even. No ε guarantee — the codec verifies post-hoc.
struct Bf16Stage;

impl Stage for Bf16Stage {
    fn spec(&self) -> StageSpec {
        StageSpec::Bf16
    }

    fn encode(
        &self,
        input: Plane,
        _ctx: &StageCtx,
        _stats: &mut CompressionStats,
    ) -> Result<Plane, CompressError> {
        let data = input.into_f32()?;
        let mut out = Vec::with_capacity(2 * data.len());
        for (i, v) in data.iter().enumerate() {
            if !v.is_finite() {
                return Err(CompressError::Quantize(QuantizeError::NonFinite {
                    index: i,
                }));
            }
            let bits = v.to_bits();
            let rounded = bits.wrapping_add(0x7FFF + ((bits >> 16) & 1));
            out.extend_from_slice(&((rounded >> 16) as u16).to_le_bytes());
        }
        Ok(Plane::Bytes(out))
    }

    fn decode(&self, input: Plane, ctx: &StageCtx) -> Result<Plane, CompressError> {
        let bytes = input.into_bytes()?;
        if bytes.len() % 2 != 0 || bytes.len() / 2 != ctx.count {
            return Err(CompressError::Truncated);
        }
        let out = bytes
            .chunks_exact(2)
            .map(|c| {
                let half = u16::from_le_bytes([c[0], c[1]]);
                f32::from_bits(u32::from(half) << 16)
            })
            .collect();
        Ok(Plane::F32(out))
    }
}

/// Canonical-Huffman entropy coding of a byte stream: `Bytes → Bytes`.
struct HuffmanStage;

impl Stage for HuffmanStage {
    fn spec(&self) -> StageSpec {
        StageSpec::Huffman
    }

    fn encode(
        &self,
        input: Plane,
        _ctx: &StageCtx,
        _stats: &mut CompressionStats,
    ) -> Result<Plane, CompressError> {
        let bytes = input.into_bytes()?;
        if bytes.is_empty() {
            return Ok(Plane::Bytes(Vec::new()));
        }
        let symbols: Vec<u32> = bytes.iter().map(|&b| u32::from(b)).collect();
        let encoded = huffman::codec::encode(&symbols)
            .map_err(|_| CompressError::CorruptEntropy("huffman encode failed"))?;
        Ok(Plane::Bytes(encoded.bytes))
    }

    fn decode(&self, input: Plane, _ctx: &StageCtx) -> Result<Plane, CompressError> {
        let bytes = input.into_bytes()?;
        if bytes.is_empty() {
            return Ok(Plane::Bytes(Vec::new()));
        }
        let symbols = huffman::codec::decode_bytes(&bytes).map_err(|e| match e {
            huffman::HuffmanError::Truncated => CompressError::Truncated,
            _ => CompressError::CorruptEntropy("corrupt huffman stream"),
        })?;
        let mut out = Vec::with_capacity(symbols.len());
        for s in symbols {
            out.push(
                u8::try_from(s)
                    .map_err(|_| CompressError::CorruptEntropy("symbol exceeds byte range"))?,
            );
        }
        Ok(Plane::Bytes(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipe::Recipe;

    fn ctx(count: usize) -> StageCtx {
        StageCtx {
            eps: 1e-3,
            block_size: 32,
            header: HeaderWidth::W4,
            count,
        }
    }

    fn wavy(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.017).sin() * 11.0).collect()
    }

    /// Every shipped stage: decode(encode(x)) reconstructs the stage input
    /// (exactly for lossless stages, within ε for pre-quantization).
    #[test]
    fn per_stage_inverse_property() {
        let mut stats = CompressionStats::default();
        let n = 1000;
        let c = ctx(n);
        let data = wavy(n);

        for spec in [
            StageSpec::MantissaSplit,
            StageSpec::Bf16,
            StageSpec::PreQuantize,
        ] {
            let stage = spec.build();
            let enc = stage
                .encode(Plane::F32(data.clone()), &c, &mut stats)
                .unwrap();
            let dec = stage.decode(enc, &c).unwrap();
            let Plane::F32(back) = dec else { panic!() };
            assert_eq!(back.len(), n, "{spec:?}");
            for (a, b) in data.iter().zip(&back) {
                match spec {
                    StageSpec::MantissaSplit => assert_eq!(a.to_bits(), b.to_bits()),
                    StageSpec::PreQuantize => {
                        assert!((f64::from(*a) - f64::from(*b)).abs() <= c.eps + 1e-12);
                    }
                    // bf16 keeps the top 8 mantissa bits: relative error
                    // ≤ 2^-8 for finite normals.
                    _ => assert!((a - b).abs() <= a.abs() * 0.004 + 1e-30),
                }
            }
        }

        // Integer stages operate on a whole-block i64 plane.
        let q: Vec<i64> = (0..1024).map(|i| (i * 37 % 541) - 270).collect();
        for spec in [
            StageSpec::Lorenzo1d,
            StageSpec::Lorenzo2d {
                rows: 32,
                cols: 32,
                tile: 8,
            },
            StageSpec::FixedLength,
        ] {
            let c2 = StageCtx {
                block_size: 64,
                count: 1024,
                ..c
            };
            let stage = spec.build();
            let enc = stage
                .encode(Plane::I64(q.clone()), &c2, &mut stats)
                .unwrap();
            let dec = stage.decode(enc, &c2).unwrap();
            let Plane::I64(back) = dec else { panic!() };
            assert_eq!(back, q, "{spec:?}");
        }

        // Huffman on bytes.
        let bytes: Vec<u8> = (0..4096u32).map(|i| (i % 17) as u8).collect();
        let h = StageSpec::Huffman.build();
        let enc = h
            .encode(Plane::Bytes(bytes.clone()), &c, &mut stats)
            .unwrap();
        let Plane::Bytes(enc_bytes) = enc.clone() else {
            panic!()
        };
        assert!(enc_bytes.len() < bytes.len(), "skewed bytes should shrink");
        let Plane::Bytes(back) = h.decode(enc, &c).unwrap() else {
            panic!()
        };
        assert_eq!(back, bytes);
    }

    #[test]
    fn stage_specs_roundtrip_through_build() {
        for spec in [
            StageSpec::PreQuantize,
            StageSpec::Lorenzo1d,
            StageSpec::Lorenzo2d {
                rows: 10,
                cols: 20,
                tile: 4,
            },
            StageSpec::FixedLength,
            StageSpec::MantissaSplit,
            StageSpec::Bf16,
            StageSpec::Huffman,
        ] {
            assert_eq!(spec.build().spec(), spec);
        }
    }

    #[test]
    fn corrupt_stage_inputs_are_typed_errors() {
        let c = ctx(100);
        // Truncated fixed-length payload.
        let fl = StageSpec::FixedLength.build();
        let err = fl.decode(Plane::Bytes(vec![0xFF; 3]), &c).unwrap_err();
        assert!(matches!(err, CompressError::Truncated));
        // A payload cut inside a block's bit planes.
        let mut stats = CompressionStats::default();
        let q: Vec<i64> = (0..128).map(|i| (i * 37 % 541) - 270).collect();
        let Plane::Bytes(enc) = fl.encode(Plane::I64(q), &c, &mut stats).unwrap() else {
            panic!()
        };
        let cut = Plane::Bytes(enc[..enc.len() - 5].to_vec());
        assert!(matches!(fl.decode(cut, &c), Err(CompressError::Truncated)));
        // Wrong-length mantissa plane.
        let ms = StageSpec::MantissaSplit.build();
        assert!(ms.decode(Plane::Bytes(vec![0; 7]), &c).is_err());
        // Wrong-kind plane.
        assert!(matches!(
            fl.encode(Plane::Bytes(vec![]), &c, &mut stats),
            Err(CompressError::InvalidRecipe(_))
        ));
        // Corrupt huffman stream.
        let h = StageSpec::Huffman.build();
        assert!(h.decode(Plane::Bytes(vec![1, 2, 3]), &c).is_err());
    }

    /// A forged element count never sizes the decoded plane: three zero-block
    /// headers decode to three blocks however large the count claims to be.
    #[test]
    fn fixed_length_decode_is_sized_by_the_payload() {
        let c = ctx(usize::MAX / 2);
        let fl = StageSpec::FixedLength.build();
        let Plane::I64(out) = fl.decode(Plane::Bytes(vec![0; 12]), &c).unwrap() else {
            panic!()
        };
        assert_eq!(out, vec![0; 3 * c.block_size]);
    }

    #[test]
    fn empty_field_flows_through_every_recipe_shape() {
        let c = ctx(0);
        let mut stats = CompressionStats::default();
        for recipe in [
            Recipe::canonical(),
            Recipe::new(&[StageSpec::MantissaSplit, StageSpec::Huffman]).unwrap(),
            Recipe::new(&[StageSpec::Bf16]).unwrap(),
        ] {
            let mut plane = Plane::F32(Vec::new());
            for spec in recipe.stages() {
                plane = spec.build().encode(plane, &c, &mut stats).unwrap();
            }
            let mut back = plane;
            for spec in recipe.stages().iter().rev() {
                back = spec.build().decode(back, &c).unwrap();
            }
            assert_eq!(back, Plane::F32(Vec::new()), "{recipe}");
        }
    }
}
