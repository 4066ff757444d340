//! The unified compression entry point: [`Codec`].
//!
//! `Codec` is the only host compression API. It dispatches on the configured
//! [`Recipe`](crate::recipe::Recipe):
//!
//! - the **canonical** recipe routes to the fused per-block loops in
//!   [`crate::compressor`], emitting byte-identical v1 streams — the
//!   WSE-simulated kernels and the perf-gate baselines are unaffected by the
//!   recipe machinery;
//! - any other recipe runs the generic stage interpreter
//!   ([`crate::stage`]), emitting a v2 stream whose header records the
//!   recipe so decompression is fully self-describing.
//!
//! Recipes without an ε guarantee (bf16 downconvert) are verified post-hoc:
//! the codec decodes its own output and returns
//! [`CompressError::BoundExceeded`] if any value strayed beyond ε.

use crate::compressor::{
    compress_canonical, decompress_canonical, CereszConfig, CompressError, Compressed,
    CompressionStats,
};
use crate::stage::{Plane, StageCtx};
use crate::stream::StreamHeader;

/// The compression/decompression entry point.
///
/// ```
/// use ceresz_core::{Codec, CereszConfig, ErrorBound};
///
/// let data: Vec<f32> = (0..1024).map(|i| (i as f32 * 0.01).sin()).collect();
/// let codec = Codec::new(CereszConfig::new(ErrorBound::Abs(1e-3)));
/// let compressed = codec.compress(&data).unwrap();
/// let restored = codec.decompress(&compressed.data).unwrap();
/// for (a, b) in data.iter().zip(&restored) {
///     assert!((a - b).abs() <= 1e-3 + f32::EPSILON);
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Codec {
    cfg: CereszConfig,
}

impl Codec {
    /// Codec over a configuration (bound, block size, header width, recipe).
    #[must_use]
    pub fn new(cfg: CereszConfig) -> Self {
        Self { cfg }
    }

    /// A decompression-only codec: the error bound and recipe travel in the
    /// stream itself, so the placeholder bound is never used.
    #[must_use]
    pub fn decompressor() -> Self {
        Self::new(CereszConfig::new(crate::bound::ErrorBound::Abs(1.0)))
    }

    /// The configuration this codec runs.
    #[must_use]
    pub fn config(&self) -> &CereszConfig {
        &self.cfg
    }

    /// Compress `data` according to the configured recipe.
    pub fn compress(&self, data: &[f32]) -> Result<Compressed, CompressError> {
        let eps = self.cfg.resolve_eps(data)?;
        if self.cfg.recipe.is_canonical() {
            return compress_canonical(data, &self.cfg, eps);
        }
        let compressed = self.compress_staged(data, eps)?;
        if !self.cfg.recipe.guarantees_bound() {
            let restored = self.decompress(&compressed.data)?;
            if !crate::verify::verify_error_bound(data, &restored, eps) {
                return Err(CompressError::BoundExceeded);
            }
        }
        Ok(compressed)
    }

    /// Decompress a stream (v1 or v2; the header says which recipe to run).
    pub fn decompress(&self, bytes: &[u8]) -> Result<Vec<f32>, CompressError> {
        let (header, consumed) = StreamHeader::read_prefix(bytes)?;
        let payload = &bytes[consumed..];
        if header.recipe.is_canonical() {
            return decompress_canonical(&header, payload);
        }
        decompress_staged(&header, payload)
    }

    /// Run the generic stage interpreter (non-canonical recipes).
    fn compress_staged(&self, data: &[f32], eps: f64) -> Result<Compressed, CompressError> {
        let ctx = StageCtx {
            eps,
            block_size: self.cfg.block_size,
            header: self.cfg.header,
            count: data.len(),
        };
        let mut stats = CompressionStats {
            original_bytes: std::mem::size_of_val(data),
            eps,
            recipe: self.cfg.recipe,
            ..CompressionStats::default()
        };
        let mut plane = Plane::F32(data.to_vec());
        for spec in self.cfg.recipe.stages() {
            plane = spec.build().encode(plane, &ctx, &mut stats)?;
        }
        let payload = plane.into_bytes()?;
        let header = StreamHeader {
            header_width: self.cfg.header,
            block_size: self.cfg.block_size,
            count: data.len(),
            eps,
            recipe: self.cfg.recipe,
        };
        let mut out = Vec::with_capacity(header.written_len() + payload.len());
        header.write(&mut out);
        out.extend_from_slice(&payload);
        stats.compressed_bytes = out.len();
        Ok(Compressed { data: out, stats })
    }
}

/// Run the generic stage interpreter in reverse over a stream payload.
fn decompress_staged(header: &StreamHeader, payload: &[u8]) -> Result<Vec<f32>, CompressError> {
    let ctx = StageCtx {
        eps: header.eps,
        block_size: header.block_size,
        header: header.header_width,
        count: header.count,
    };
    let mut plane = Plane::Bytes(payload.to_vec());
    for spec in header.recipe.stages().iter().rev() {
        plane = spec.build().decode(plane, &ctx)?;
    }
    let Plane::F32(out) = plane else {
        return Err(CompressError::InvalidRecipe("pipeline did not end on f32"));
    };
    if out.len() != header.count {
        return Err(CompressError::Truncated);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::ErrorBound;
    use crate::recipe::{Recipe, StageSpec};
    use crate::verify::verify_error_bound;

    fn wavy(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.013).sin() * 40.0 + (i as f32 * 0.002).cos() * 7.0)
            .collect()
    }

    /// The generic stage interpreter, run on the canonical recipe stages,
    /// produces exactly the fused fast path's payload bytes and decodes them
    /// to the same values (only the fast path is used in production for
    /// canonical recipes; this pins that the abstraction and the optimized
    /// code implement the same format). The lengths straddle the fused
    /// loop's 256-block pieces and end on a partial block.
    #[test]
    fn interpreter_matches_fused_path_on_canonical_stages() {
        let cfg = CereszConfig::new(ErrorBound::Abs(1e-3));
        let codec = Codec::new(cfg);
        let bs = cfg.block_size;
        for n in [255 * bs, 256 * bs, 257 * bs, 513 * bs, 512 * bs + 7, 10_007] {
            let data = wavy(n);
            let eps = cfg.resolve_eps(&data).unwrap();
            let fused = codec.compress(&data).unwrap();
            let staged = codec.compress_staged(&data, eps).unwrap();
            // A canonical recipe writes the v1 header on both paths (no
            // recipe bytes), so the whole streams must be byte-identical.
            let (h, consumed) = StreamHeader::read_prefix(&staged.data).unwrap();
            assert!(h.recipe.is_canonical());
            assert_eq!(consumed, crate::stream::STREAM_HEADER_BYTES, "n {n}");
            assert_eq!(staged.data, fused.data, "n {n}");
            assert_eq!(staged.stats, fused.stats, "n {n}");
            let payload = &fused.data[consumed..];
            let interpreted = decompress_staged(&h, payload).unwrap();
            let restored = codec.decompress(&fused.data).unwrap();
            assert!(
                interpreted
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(restored.iter().map(|v| v.to_bits())),
                "n {n}"
            );
            assert!(verify_error_bound(&data, &restored, eps), "n {n}");
        }
    }

    #[test]
    fn huffman_recipe_roundtrips_and_is_self_describing() {
        let data = wavy(50_000);
        let recipe = Recipe::new(&[
            StageSpec::PreQuantize,
            StageSpec::Lorenzo1d,
            StageSpec::FixedLength,
            StageSpec::Huffman,
        ])
        .unwrap();
        let cfg = CereszConfig::new(ErrorBound::Abs(1e-3)).with_recipe(recipe);
        let c = Codec::new(cfg).compress(&data).unwrap();
        assert_eq!(c.stats.recipe, recipe);
        // A decompressor with no prior knowledge of the recipe reads it from
        // the stream.
        let restored = Codec::decompressor().decompress(&c.data).unwrap();
        assert!(verify_error_bound(&data, &restored, c.stats.eps));
    }

    #[test]
    fn lorenzo2d_recipe_beats_1d_on_smooth_2d_fields() {
        let (rows, cols) = (256usize, 256usize);
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| {
                let r = (i / cols) as f32;
                let c = (i % cols) as f32;
                (r * 0.05).sin() * 40.0 + (c * 0.04).cos() * 25.0
            })
            .collect();
        let bound = ErrorBound::Rel(1e-3);
        let recipe = Recipe::new(&[
            StageSpec::PreQuantize,
            StageSpec::Lorenzo2d {
                rows: rows as u32,
                cols: cols as u32,
                tile: 8,
            },
            StageSpec::FixedLength,
        ])
        .unwrap();
        let cfg2d = CereszConfig::new(bound)
            .with_recipe(recipe)
            .with_block_size(64);
        let two_d = Codec::new(cfg2d).compress(&data).unwrap();
        let one_d = Codec::new(CereszConfig::new(bound))
            .compress(&data)
            .unwrap();
        let restored = Codec::decompressor().decompress(&two_d.data).unwrap();
        assert!(verify_error_bound(&data, &restored, two_d.stats.eps));
        assert!(
            two_d.ratio() > one_d.ratio(),
            "2-D {} !> 1-D {}",
            two_d.ratio(),
            one_d.ratio()
        );
    }

    #[test]
    fn mantissa_split_recipe_is_bit_exact() {
        let data = wavy(4_099);
        let recipe = Recipe::new(&[StageSpec::MantissaSplit, StageSpec::Huffman]).unwrap();
        let cfg = CereszConfig::new(ErrorBound::Abs(1e-3)).with_recipe(recipe);
        let c = Codec::new(cfg).compress(&data).unwrap();
        let restored = Codec::decompressor().decompress(&c.data).unwrap();
        assert_eq!(restored.len(), data.len());
        for (a, b) in data.iter().zip(&restored) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bf16_recipe_verifies_bound_post_hoc() {
        // Loose bound on smooth data: bf16 passes.
        let data: Vec<f32> = (0..1024).map(|i| (i as f32 * 0.01).sin()).collect();
        let recipe = Recipe::new(&[StageSpec::Bf16, StageSpec::Huffman]).unwrap();
        let loose = CereszConfig::new(ErrorBound::Abs(0.01)).with_recipe(recipe);
        let c = Codec::new(loose).compress(&data).unwrap();
        let restored = Codec::decompressor().decompress(&c.data).unwrap();
        assert!(verify_error_bound(&data, &restored, 0.01));
        // Tight bound: bf16 cannot honor it → typed error, not silent loss.
        let tight = CereszConfig::new(ErrorBound::Abs(1e-6)).with_recipe(recipe);
        assert!(matches!(
            Codec::new(tight).compress(&data),
            Err(CompressError::BoundExceeded)
        ));
    }

    #[test]
    fn truncated_v2_stream_is_typed_error() {
        let data = wavy(2_000);
        let recipe = Recipe::new(&[
            StageSpec::PreQuantize,
            StageSpec::Lorenzo1d,
            StageSpec::FixedLength,
            StageSpec::Huffman,
        ])
        .unwrap();
        let cfg = CereszConfig::new(ErrorBound::Abs(1e-3)).with_recipe(recipe);
        let c = Codec::new(cfg).compress(&data).unwrap();
        let d = Codec::decompressor();
        for cut in [c.data.len() - 1, c.data.len() / 2, 30] {
            assert!(d.decompress(&c.data[..cut]).is_err(), "cut {cut}");
        }
    }
}
