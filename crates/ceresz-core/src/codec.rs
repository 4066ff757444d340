//! The unified compression entry point: [`Codec`].
//!
//! `Codec` is the only host compression API. It dispatches on the configured
//! [`Recipe`](crate::recipe::Recipe):
//!
//! - the **canonical** recipe routes to the original fused pipeline
//!   (serial or rayon per [`Parallelism`]), emitting byte-identical v1
//!   streams — the WSE-simulated kernels and the perf-gate baselines are
//!   unaffected by the recipe machinery;
//! - any other recipe runs the generic stage interpreter
//!   ([`crate::stage`]), emitting a v2 stream whose header records the
//!   recipe so decompression is fully self-describing.
//!
//! Recipes without an ε guarantee (bf16 downconvert) are verified post-hoc:
//! the codec decodes its own output and returns
//! [`CompressError::BoundExceeded`] if any value strayed beyond ε.

use crate::compressor::{
    compress_canonical, compress_canonical_parallel, decompress_canonical,
    decompress_canonical_parallel, CereszConfig, CompressError, Compressed, CompressionStats,
};
use crate::stage::{Plane, StageCtx};
use crate::stream::StreamHeader;

/// Host-side execution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-threaded (the bit-identical reference path).
    Serial,
    /// Rayon across block-aligned chunks (byte-identical to serial).
    #[default]
    Rayon,
}

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
    /// Codec over a configuration (bound, block size, recipe, parallelism).
    #[must_use]
    pub fn new(cfg: CereszConfig) -> Self {
        Self { cfg }
    }

    /// A decompression-only codec: the error bound and recipe travel in the
    /// stream itself, so only the execution strategy matters here (the
    /// placeholder bound is never used).
    #[must_use]
    pub fn decompressor(parallelism: Parallelism) -> Self {
        Self::new(
            CereszConfig::new(crate::bound::ErrorBound::Abs(1.0)).with_parallelism(parallelism),
        )
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
            return match self.cfg.parallelism {
                Parallelism::Serial => compress_canonical(data, &self.cfg, eps),
                Parallelism::Rayon => compress_canonical_parallel(data, &self.cfg, eps),
            };
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
            return match self.cfg.parallelism {
                Parallelism::Serial => decompress_canonical(&header, payload),
                Parallelism::Rayon => decompress_canonical_parallel(&header, payload),
            };
        }
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
    /// produces exactly the fused fast path's payload bytes (only the fast
    /// path is used in production for canonical recipes; this pins that the
    /// abstraction and the optimized code implement the same format).
    #[test]
    fn interpreter_matches_fused_path_on_canonical_stages() {
        let data = wavy(10_007);
        let cfg = CereszConfig::new(ErrorBound::Abs(1e-3));
        let codec = Codec::new(cfg);
        let eps = cfg.resolve_eps(&data).unwrap();
        let fused = codec.compress(&data).unwrap();
        let staged = codec.compress_staged(&data, eps).unwrap();
        // A canonical recipe writes the v1 header on both paths (no recipe
        // bytes); the block payloads after it must be byte-identical.
        let fused_payload = &fused.data[crate::stream::STREAM_HEADER_BYTES..];
        let (h, consumed) = StreamHeader::read_prefix(&staged.data).unwrap();
        assert!(h.recipe.is_canonical());
        assert_eq!(consumed, crate::stream::STREAM_HEADER_BYTES);
        assert_eq!(&staged.data[consumed..], fused_payload);
        assert_eq!(staged.stats.n_blocks, fused.stats.n_blocks);
        assert_eq!(staged.stats.max_fixed_length, fused.stats.max_fixed_length);
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
        let restored = Codec::decompressor(Parallelism::Serial)
            .decompress(&c.data)
            .unwrap();
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
        let restored = Codec::decompressor(Parallelism::Serial)
            .decompress(&two_d.data)
            .unwrap();
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
        let restored = Codec::decompressor(Parallelism::Rayon)
            .decompress(&c.data)
            .unwrap();
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
        let restored = Codec::decompressor(Parallelism::Serial)
            .decompress(&c.data)
            .unwrap();
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
        let d = Codec::decompressor(Parallelism::Serial);
        for cut in [c.data.len() - 1, c.data.len() / 2, 30] {
            assert!(d.decompress(&c.data[..cut]).is_err(), "cut {cut}");
        }
    }
}
