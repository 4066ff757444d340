//! Top-level compression API: configuration, error type, statistics, and the
//! host implementation of the canonical pipeline.
//!
//! The canonical loops are the *reference implementation*: the WSE-mapped
//! execution in `ceresz-wse` is tested to produce bit-identical streams.
//! They rely on the same property the paper exploits on the wafer — block
//! independence: every block encodes and decodes on its own.

use crate::block::{BlockCodec, BlockScratch, HeaderWidth};
use crate::bound::ErrorBound;
use crate::quantize::QuantizeError;
use crate::recipe::Recipe;
use crate::stream::{scan_block_offsets, StreamHeader};
use crate::DEFAULT_BLOCK_SIZE;

/// Everything that can go wrong while compressing or decompressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressError {
    /// Quantization failed (non-finite input or magnitude overflow).
    Quantize(QuantizeError),
    /// A Lorenzo residual exceeded the 31-bit magnitude the format can store.
    DeltaOverflow {
        /// Element index within the block.
        index: usize,
    },
    /// The stream ended before a complete block/header could be read.
    Truncated,
    /// A block header declared an impossible fixed length.
    CorruptHeader {
        /// The declared fixed length.
        fixed_length: u32,
    },
    /// The stream does not start with the CereSZ magic bytes.
    BadMagic,
    /// The stream was produced by an unsupported format version.
    UnsupportedVersion(u8),
    /// The stream declares an unknown per-block header width.
    BadHeaderWidth(u8),
    /// The stream declares an invalid block size.
    BadBlockSize(usize),
    /// The error bound is not finite and positive.
    InvalidBound,
    /// A field's logical dimension product overflows `usize`.
    DimsOverflow,
    /// A field's logical dimensions do not multiply to the element count.
    DimsMismatch {
        /// Product of the declared dimensions.
        dims_product: usize,
        /// Actual number of elements.
        len: usize,
    },
    /// An archive container violated its own format invariants.
    CorruptArchive(&'static str),
    /// A stage composition is structurally invalid (ill-kinded chain, bad
    /// stage parameters, or incompatible block size).
    InvalidRecipe(&'static str),
    /// Recipe bytes in a stream or archive header could not be parsed.
    CorruptRecipe(&'static str),
    /// An entropy-coded (Huffman) payload was corrupt.
    CorruptEntropy(&'static str),
    /// A recipe without an ε guarantee (e.g. bf16) exceeded the requested
    /// bound on this data; the compressed output was discarded.
    BoundExceeded,
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            CompressError::Quantize(e) => write!(f, "quantization failed: {e}"),
            CompressError::DeltaOverflow { index } => {
                write!(f, "Lorenzo residual at block index {index} exceeds 31 bits")
            }
            CompressError::Truncated => write!(f, "compressed stream is truncated"),
            CompressError::CorruptHeader { fixed_length } => {
                write!(f, "corrupt block header: fixed length {fixed_length} > 31")
            }
            CompressError::BadMagic => write!(f, "not a CereSZ stream (bad magic)"),
            CompressError::UnsupportedVersion(v) => write!(f, "unsupported stream version {v}"),
            CompressError::BadHeaderWidth(w) => write!(f, "unknown block header width {w}"),
            CompressError::BadBlockSize(s) => write!(f, "invalid block size {s}"),
            CompressError::InvalidBound => write!(f, "error bound must be finite and positive"),
            CompressError::DimsOverflow => write!(f, "dimension product overflows usize"),
            CompressError::DimsMismatch { dims_product, len } => {
                write!(
                    f,
                    "dims multiply to {dims_product} but data has {len} elements"
                )
            }
            CompressError::CorruptArchive(what) => write!(f, "corrupt archive: {what}"),
            CompressError::InvalidRecipe(what) => write!(f, "invalid recipe: {what}"),
            CompressError::CorruptRecipe(what) => write!(f, "corrupt recipe bytes: {what}"),
            CompressError::CorruptEntropy(what) => write!(f, "corrupt entropy stream: {what}"),
            CompressError::BoundExceeded => {
                write!(f, "recipe exceeded the requested error bound on this data")
            }
        }
    }
}

impl std::error::Error for CompressError {}

impl From<QuantizeError> for CompressError {
    fn from(e: QuantizeError) -> Self {
        CompressError::Quantize(e)
    }
}

/// Compressor configuration: a commutative builder — `with_*` calls can be
/// chained in any order and only ever overwrite their own field.
#[derive(Debug, Clone, Copy)]
pub struct CereszConfig {
    /// The user's error bound.
    pub bound: ErrorBound,
    /// Elements per block (default 32, the paper's choice).
    pub block_size: usize,
    /// Per-block header width (default 4 bytes — the WSE wavelet width).
    pub header: HeaderWidth,
    /// The stage composition (default: the paper's canonical pipeline).
    pub recipe: Recipe,
}

impl CereszConfig {
    /// Configuration with the paper's defaults (block 32, 4-byte headers,
    /// canonical recipe).
    #[must_use]
    pub fn new(bound: ErrorBound) -> Self {
        Self {
            bound,
            block_size: DEFAULT_BLOCK_SIZE,
            header: HeaderWidth::W4,
            recipe: Recipe::canonical(),
        }
    }

    /// Override the block size.
    #[must_use]
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        self.block_size = block_size;
        self
    }

    /// Override the per-block header width.
    #[must_use]
    pub fn with_header(mut self, header: HeaderWidth) -> Self {
        self.header = header;
        self
    }

    /// Override the stage composition.
    #[must_use]
    pub fn with_recipe(mut self, recipe: Recipe) -> Self {
        self.recipe = recipe;
        self
    }

    /// Check the data-independent invariants: the bound must be finite and
    /// positive, the block size nonzero, a multiple of 8 (byte-packed sign
    /// and bit planes), and at most [`crate::MAX_BLOCK_SIZE`]; the recipe
    /// must be a valid composition for this block size
    /// ([`Recipe::validate`]).
    ///
    /// Every compression entry point (host and WSE) calls this before
    /// touching the data, so an `Abs(0.0)`, negative, or NaN bound — a
    /// block size the codec would reject, or an ill-formed recipe — surfaces
    /// as a typed error instead of a panic or a non-finite `1/2ε` reaching
    /// quantization.
    pub fn validate(&self) -> Result<(), CompressError> {
        if !self.bound.is_valid() {
            return Err(CompressError::InvalidBound);
        }
        if self.block_size == 0
            || !self.block_size.is_multiple_of(8)
            || self.block_size > crate::MAX_BLOCK_SIZE
        {
            return Err(CompressError::BadBlockSize(self.block_size));
        }
        self.recipe.validate(self.block_size)?;
        Ok(())
    }

    /// Validate this configuration and resolve the absolute `ε` for `data`.
    pub fn resolve_eps(&self, data: &[f32]) -> Result<f64, CompressError> {
        self.validate()?;
        let eps = self.bound.resolve(data);
        if !(eps.is_finite() && eps > 0.0) {
            return Err(CompressError::InvalidBound);
        }
        Ok(eps)
    }
}

/// Aggregate statistics of one compression run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompressionStats {
    /// Bytes of the original array (`4 × count`).
    pub original_bytes: usize,
    /// Bytes of the compressed stream, including the stream header.
    pub compressed_bytes: usize,
    /// Number of blocks encoded.
    pub n_blocks: usize,
    /// Blocks that took the zero-block fast path.
    pub zero_blocks: usize,
    /// Largest per-block fixed length observed.
    pub max_fixed_length: u32,
    /// Sum of per-block fixed lengths (for computing the mean).
    pub total_fixed_length: u64,
    /// Resolved absolute error bound actually used.
    pub eps: f64,
    /// The recipe that produced the stream (canonical by default).
    pub recipe: Recipe,
    /// When the auto-tuner chose the recipe: its sampled compression-ratio
    /// win margin over the canonical pipeline (`tuned / canonical`; > 1
    /// means the tuner found a better composition).
    pub tune_margin: Option<f64>,
}

impl CompressionStats {
    /// Compression ratio `original / compressed`.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.compressed_bytes == 0 {
            0.0
        } else {
            self.original_bytes as f64 / self.compressed_bytes as f64
        }
    }

    /// Mean fixed length across blocks.
    #[must_use]
    pub fn mean_fixed_length(&self) -> f64 {
        if self.n_blocks == 0 {
            0.0
        } else {
            self.total_fixed_length as f64 / self.n_blocks as f64
        }
    }

    /// Fraction of blocks that were zero blocks.
    #[must_use]
    pub fn zero_block_fraction(&self) -> f64 {
        if self.n_blocks == 0 {
            0.0
        } else {
            self.zero_blocks as f64 / self.n_blocks as f64
        }
    }

    pub(crate) fn absorb_block(&mut self, info: crate::block::BlockInfo) {
        self.n_blocks += 1;
        if info.is_zero {
            self.zero_blocks += 1;
        }
        self.max_fixed_length = self.max_fixed_length.max(info.fixed_length);
        self.total_fixed_length += u64::from(info.fixed_length);
    }
}

/// A compressed stream plus the statistics gathered while producing it.
#[derive(Debug, Clone)]
pub struct Compressed {
    /// The self-describing byte stream (see [`crate::stream`]).
    pub data: Vec<u8>,
    /// Statistics of the run.
    pub stats: CompressionStats,
}

impl Compressed {
    /// Parse this stream's header.
    pub fn header(&self) -> Result<StreamHeader, CompressError> {
        StreamHeader::read(&self.data)
    }

    /// Compression ratio.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.stats.ratio()
    }
}

/// Check that `data` would compress cleanly at `eps` without encoding it:
/// quantize each block, form the Lorenzo residuals, and verify no residual
/// exceeds the 31-bit wire format. Reproduces exactly the errors (and error
/// indices) [`crate::Codec::compress`] would raise, in the same
/// order.
///
/// The WSE mapping layer runs this before injecting blocks into the fabric,
/// so bad input data surfaces as the same typed [`CompressError`] the host
/// reference returns instead of trapping inside a simulated kernel.
pub fn precheck_input(data: &[f32], eps: f64, block_size: usize) -> Result<(), CompressError> {
    let mut q = vec![0i64; block_size];
    for chunk in data.chunks(block_size) {
        q.fill(0);
        crate::quantize::quantize(chunk, eps, &mut q[..chunk.len()])?;
        crate::lorenzo::forward_1d_in_place(&mut q);
        for (i, &d) in q.iter().enumerate() {
            if d.unsigned_abs() > i64::from(i32::MAX).unsigned_abs() {
                return Err(CompressError::DeltaOverflow { index: i });
            }
        }
    }
    Ok(())
}

/// Blocks per piece of the canonical loops.
const PIECE_BLOCKS: usize = 256;

/// Canonical-pipeline compression (the reference implementation the WSE
/// kernels are tested bit-identical against). `eps` is pre-resolved.
pub(crate) fn compress_canonical(
    data: &[f32],
    cfg: &CereszConfig,
    eps: f64,
) -> Result<Compressed, CompressError> {
    let codec = BlockCodec::new(cfg.block_size, cfg.header);
    let mut stats = CompressionStats {
        original_bytes: std::mem::size_of_val(data),
        eps,
        ..CompressionStats::default()
    };
    // Pieces with a scratch each, joined once: plain serial loops moved wafer `peak_rss_mb`
    // +2–4 %, one scratch per call wafer-sparse `setup_s` +5 % (heap layout, not work).
    let pieces: Vec<Vec<u8>> = data
        .chunks(PIECE_BLOCKS * cfg.block_size)
        .map(|piece| {
            let mut out = Vec::with_capacity(piece.len() * 4);
            let mut scratch = BlockScratch::default();
            for block in piece.chunks(cfg.block_size) {
                let info = codec.encode_block_with(block, eps, &mut scratch, &mut out)?;
                stats.absorb_block(info);
            }
            Ok(out)
        })
        .collect::<Result<_, CompressError>>()?;

    let header = StreamHeader {
        header_width: cfg.header,
        block_size: cfg.block_size,
        count: data.len(),
        eps,
        recipe: Recipe::canonical(),
    };
    let body_len: usize = pieces.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(crate::stream::STREAM_HEADER_BYTES + body_len);
    header.write(&mut out);
    for piece in &pieces {
        out.extend_from_slice(piece);
    }
    stats.compressed_bytes = out.len();
    Ok(Compressed { data: out, stats })
}

/// Canonical-pipeline decompression of a parsed stream.
///
/// Block starts are found with a cheap header scan first; each block then
/// decodes on its own — the paper's "pre-known fixed length" property.
pub(crate) fn decompress_canonical(
    header: &StreamHeader,
    payload: &[u8],
) -> Result<Vec<f32>, CompressError> {
    header.check_payload(payload.len())?;
    let codec = header.codec();
    let offsets = scan_block_offsets(header, payload)?;
    let mut out = vec![0f32; header.count];
    // The compression loop's pieces, for the same heap-layout reason.
    for (piece, offs) in out
        .chunks_mut(header.block_size * PIECE_BLOCKS)
        .zip(offsets.chunks(PIECE_BLOCKS))
    {
        let mut scratch = BlockScratch::default();
        for (block, &off) in piece.chunks_mut(header.block_size).zip(offs) {
            codec.decode_block_with(&payload[off..], header.eps, &mut scratch, block)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Codec;

    fn wavy(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.013).sin() * 40.0 + (i as f32 * 0.002).cos() * 7.0)
            .collect()
    }

    #[test]
    fn roundtrip_serial() {
        let data = wavy(10_000);
        let cfg = CereszConfig::new(ErrorBound::Abs(1e-3));
        let c = Codec::new(cfg).compress(&data).unwrap();
        let r = Codec::decompressor().decompress(&c.data).unwrap();
        assert_eq!(r.len(), data.len());
        for (a, b) in data.iter().zip(&r) {
            assert!((f64::from(*a) - f64::from(*b)).abs() <= 1e-3 + 1e-12);
        }
        assert!(
            c.ratio() > 1.0,
            "smooth data should compress: {}",
            c.ratio()
        );
    }

    #[test]
    fn rel_bound_resolves_against_range() {
        let data = wavy(4096);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-2));
        let c = Codec::new(cfg).compress(&data).unwrap();
        let (min, max) = crate::bound::value_range(&data);
        let expected = 1e-2 * (f64::from(max) - f64::from(min));
        assert!((c.stats.eps - expected).abs() < 1e-12);
    }

    #[test]
    fn empty_input() {
        let cfg = CereszConfig::new(ErrorBound::Abs(1e-3));
        let c = Codec::new(cfg).compress(&[]).unwrap();
        assert_eq!(c.stats.n_blocks, 0);
        assert_eq!(
            Codec::decompressor().decompress(&c.data).unwrap(),
            Vec::<f32>::new()
        );
    }

    #[test]
    fn single_element_roundtrips_on_every_path() {
        let cfg = CereszConfig::new(ErrorBound::Abs(1e-4));
        let data = [std::f32::consts::PI];
        let c = Codec::new(cfg).compress(&data).unwrap();
        assert_eq!(c.stats.n_blocks, 1);
        let restored = Codec::decompressor().decompress(&c.data).unwrap();
        assert_eq!(restored.len(), 1);
        assert!((f64::from(restored[0]) - f64::from(data[0])).abs() <= 1e-4 + 1e-10);
    }

    #[test]
    fn invalid_bound_rejected() {
        let cfg = CereszConfig::new(ErrorBound::Abs(0.0));
        assert!(matches!(
            Codec::new(cfg).compress(&[1.0]),
            Err(CompressError::InvalidBound)
        ));
    }

    #[test]
    fn nan_input_rejected() {
        let cfg = CereszConfig::new(ErrorBound::Abs(1e-3));
        assert!(matches!(
            Codec::new(cfg).compress(&[1.0, f32::NAN]),
            Err(CompressError::Quantize(QuantizeError::NonFinite {
                index: 1
            }))
        ));
    }

    #[test]
    fn zero_blocks_counted() {
        let mut data = vec![0f32; 320];
        data.extend(wavy(320));
        let cfg = CereszConfig::new(ErrorBound::Abs(1e-2));
        let c = Codec::new(cfg).compress(&data).unwrap();
        assert_eq!(c.stats.n_blocks, 20);
        assert!(c.stats.zero_blocks >= 10);
    }

    #[test]
    fn stats_ratio_matches_sizes() {
        let data = wavy(8192);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let c = Codec::new(cfg).compress(&data).unwrap();
        assert_eq!(c.stats.original_bytes, 8192 * 4);
        assert_eq!(c.stats.compressed_bytes, c.data.len());
        assert!(c.stats.recipe.is_canonical());
        assert_eq!(c.stats.tune_margin, None);
    }

    #[test]
    fn larger_bound_compresses_better() {
        let data = wavy(32_768);
        let loose = Codec::new(CereszConfig::new(ErrorBound::Rel(1e-2)))
            .compress(&data)
            .unwrap();
        let tight = Codec::new(CereszConfig::new(ErrorBound::Rel(1e-4)))
            .compress(&data)
            .unwrap();
        assert!(loose.ratio() > tight.ratio());
    }

    #[test]
    fn decompress_garbage_fails_cleanly() {
        let d = Codec::decompressor();
        assert!(d.decompress(b"garbage").is_err());
        assert!(d.decompress(&[]).is_err());
    }

    /// `with_*` builder calls commute: any order produces the same config.
    #[test]
    fn config_builder_is_commutative() {
        let recipe = crate::recipe::Recipe::new(&[
            crate::recipe::StageSpec::MantissaSplit,
            crate::recipe::StageSpec::Huffman,
        ])
        .unwrap();
        let a = CereszConfig::new(ErrorBound::Rel(1e-3))
            .with_block_size(64)
            .with_header(HeaderWidth::W1)
            .with_recipe(recipe);
        let b = CereszConfig::new(ErrorBound::Rel(1e-3))
            .with_recipe(recipe)
            .with_header(HeaderWidth::W1)
            .with_block_size(64);
        assert_eq!(a.block_size, b.block_size);
        assert_eq!(a.header, b.header);
        assert_eq!(a.recipe, b.recipe);
        assert_eq!(a.bound, b.bound);
    }

    /// An invalid composition surfaces as `InvalidRecipe` from `validate()`,
    /// never a panic.
    #[test]
    fn invalid_recipe_is_typed() {
        let recipe = crate::recipe::Recipe::new(&[
            crate::recipe::StageSpec::PreQuantize,
            crate::recipe::StageSpec::Lorenzo2d {
                rows: 10,
                cols: 10,
                tile: 4,
            },
            crate::recipe::StageSpec::FixedLength,
        ])
        .unwrap();
        // tile² = 16 ≠ block 32 → typed error from validate via compress.
        let cfg = CereszConfig::new(ErrorBound::Abs(1e-3)).with_recipe(recipe);
        assert!(matches!(
            Codec::new(cfg).compress(&[1.0; 100]),
            Err(CompressError::InvalidRecipe(_))
        ));
    }
}
