//! Whole-array stream format: a self-describing container of encoded blocks.
//!
//! ```text
//! +-------+---------+--------------+------------+-----------+---------+
//! | magic | version | header width | block size | elem count| eps f64 |
//! | 4 B   | 1 B     | 1 B          | u32 LE     | u64 LE    | 8 B LE  |
//! +-------+---------+--------------+------------+-----------+---------+
//! | block 0 | block 1 | ...                                           |
//! +---------------------------------------------------------------+
//! ```
//!
//! Blocks are concatenated with no inter-block framing: each block's length
//! is derivable from its own header, which is exactly the property the paper
//! exploits to avoid a device-level scan when concatenating block outputs
//! (§3, "Rationale"). The absolute `ε` recorded here is the *resolved* bound
//! (a REL bound is resolved against the data range before compression).

use crate::block::{BlockCodec, HeaderWidth};
use crate::compressor::CompressError;
use crate::recipe::Recipe;

/// Magic bytes identifying a CereSZ stream.
pub const MAGIC: [u8; 4] = *b"CSZ1";
/// Stream format version of canonical-recipe streams (the original wire
/// format; such streams stay byte-identical to the pre-recipe compressor).
pub const VERSION: u8 = 1;
/// Stream format version of recipe-carrying streams: the v1 fixed fields
/// followed by the recipe wire bytes (see [`crate::recipe`]).
pub const VERSION_RECIPE: u8 = 2;
/// Size of the fixed (v1) stream header in bytes. A v2 header additionally
/// carries the serialized recipe after these fixed fields.
pub const STREAM_HEADER_BYTES: usize = 4 + 1 + 1 + 4 + 8 + 8;

/// Parsed stream header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamHeader {
    /// Per-block header width.
    pub header_width: HeaderWidth,
    /// Elements per block.
    pub block_size: usize,
    /// Total number of elements in the original array.
    pub count: usize,
    /// Resolved absolute error bound.
    pub eps: f64,
    /// The stage composition that produced the payload. Canonical headers
    /// serialize as v1; any other recipe forces the v2 format.
    pub recipe: Recipe,
}

impl StreamHeader {
    /// Number of blocks in the stream (last one possibly partial).
    #[must_use]
    pub fn n_blocks(&self) -> usize {
        self.count.div_ceil(self.block_size)
    }

    /// The block codec matching this stream.
    #[must_use]
    pub fn codec(&self) -> BlockCodec {
        BlockCodec::new(self.block_size, self.header_width)
    }

    /// Cheap plausibility check of the declared element count against the
    /// payload actually present: every block occupies at least its header
    /// bytes, so a corrupted `count` field that would make a decoder allocate
    /// far more output than the stream could possibly describe is rejected
    /// *before* the `count`-sized output buffer is allocated.
    pub fn check_payload(&self, payload_len: usize) -> Result<(), CompressError> {
        let min_bytes = self
            .n_blocks()
            .checked_mul(self.header_width.bytes())
            .ok_or(CompressError::Truncated)?;
        if payload_len < min_bytes {
            return Err(CompressError::Truncated);
        }
        Ok(())
    }

    /// Serialize the header, appending to `out`.
    ///
    /// Canonical recipes produce the original v1 bytes (the recipe is
    /// implied); any other recipe is written as v2 — the same fixed fields
    /// with version 2, followed by the recipe wire bytes.
    pub fn write(&self, out: &mut Vec<u8>) {
        let canonical = self.recipe.is_canonical();
        out.extend_from_slice(&MAGIC);
        out.push(if canonical { VERSION } else { VERSION_RECIPE });
        out.push(self.header_width.bytes() as u8);
        out.extend_from_slice(&(self.block_size as u32).to_le_bytes());
        out.extend_from_slice(&(self.count as u64).to_le_bytes());
        out.extend_from_slice(&self.eps.to_le_bytes());
        if !canonical {
            self.recipe.write(out);
        }
    }

    /// Total serialized header size for this recipe.
    #[must_use]
    pub fn written_len(&self) -> usize {
        if self.recipe.is_canonical() {
            STREAM_HEADER_BYTES
        } else {
            STREAM_HEADER_BYTES + self.recipe.wire_len()
        }
    }

    /// Parse a header from the front of `bytes`.
    ///
    /// Accepts both v1 (canonical recipe implied) and v2 (explicit recipe
    /// bytes) streams.
    pub fn read(bytes: &[u8]) -> Result<Self, CompressError> {
        Self::read_prefix(bytes).map(|(h, _)| h)
    }

    /// [`Self::read`], also returning the number of header bytes consumed
    /// (the payload starts there — v2 headers are longer than v1).
    pub fn read_prefix(bytes: &[u8]) -> Result<(Self, usize), CompressError> {
        if bytes.len() < STREAM_HEADER_BYTES {
            return Err(CompressError::Truncated);
        }
        if bytes[0..4] != MAGIC {
            return Err(CompressError::BadMagic);
        }
        let version = bytes[4];
        if version != VERSION && version != VERSION_RECIPE {
            return Err(CompressError::UnsupportedVersion(version));
        }
        let header_width = match bytes[5] {
            1 => HeaderWidth::W1,
            4 => HeaderWidth::W4,
            w => return Err(CompressError::BadHeaderWidth(w)),
        };
        let block_size = u32::from_le_bytes(bytes[6..10].try_into().expect("sized")) as usize;
        if block_size == 0 || !block_size.is_multiple_of(8) || block_size > crate::MAX_BLOCK_SIZE {
            return Err(CompressError::BadBlockSize(block_size));
        }
        let count = u64::from_le_bytes(bytes[10..18].try_into().expect("sized")) as usize;
        let eps = f64::from_le_bytes(bytes[18..26].try_into().expect("sized"));
        if !(eps.is_finite() && eps > 0.0) {
            return Err(CompressError::InvalidBound);
        }
        let (recipe, consumed) = if version == VERSION {
            (Recipe::canonical(), STREAM_HEADER_BYTES)
        } else {
            let (recipe, used) = Recipe::read(&bytes[STREAM_HEADER_BYTES..])?;
            recipe.validate(block_size)?;
            (recipe, STREAM_HEADER_BYTES + used)
        };
        Ok((
            Self {
                header_width,
                block_size,
                count,
                eps,
                recipe,
            },
            consumed,
        ))
    }
}

/// Scan the block payload and return the byte offset of every block.
///
/// `payload` is the stream body after the stream header. Used by canonical
/// decompression (block starts known before any block decodes) and by the
/// integrity checker.
pub fn scan_block_offsets(
    header: &StreamHeader,
    payload: &[u8],
) -> Result<Vec<usize>, CompressError> {
    let codec = header.codec();
    let hb = header.header_width.bytes();
    let mut offsets = Vec::with_capacity(header.n_blocks());
    let mut pos = 0usize;
    for _ in 0..header.n_blocks() {
        offsets.push(pos);
        if pos.checked_add(hb).is_none_or(|end| payload.len() < end) {
            return Err(CompressError::Truncated);
        }
        let f = match header.header_width {
            HeaderWidth::W1 => u32::from(payload[pos]),
            HeaderWidth::W4 => u32::from_le_bytes(payload[pos..pos + 4].try_into().expect("sized")),
        };
        if f > BlockCodec::MAX_FIXED_LENGTH {
            return Err(CompressError::CorruptHeader { fixed_length: f });
        }
        pos = pos
            .checked_add(codec.encoded_size(f))
            .ok_or(CompressError::Truncated)?;
    }
    if pos > payload.len() {
        return Err(CompressError::Truncated);
    }
    Ok(offsets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> StreamHeader {
        StreamHeader {
            header_width: HeaderWidth::W4,
            block_size: 32,
            count: 100,
            eps: 1e-3,
            recipe: Recipe::canonical(),
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = sample_header();
        let mut buf = Vec::new();
        h.write(&mut buf);
        assert_eq!(buf.len(), STREAM_HEADER_BYTES);
        assert_eq!(buf[4], VERSION, "canonical headers stay v1");
        assert_eq!(StreamHeader::read(&buf).unwrap(), h);
    }

    #[test]
    fn v2_header_roundtrips_with_recipe() {
        use crate::recipe::StageSpec;
        let h = StreamHeader {
            recipe: Recipe::new(&[
                StageSpec::PreQuantize,
                StageSpec::Lorenzo1d,
                StageSpec::FixedLength,
                StageSpec::Huffman,
            ])
            .unwrap(),
            ..sample_header()
        };
        let mut buf = Vec::new();
        h.write(&mut buf);
        assert_eq!(buf[4], VERSION_RECIPE);
        assert_eq!(buf.len(), h.written_len());
        let (back, used) = StreamHeader::read_prefix(&buf).unwrap();
        assert_eq!(back, h);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn corrupt_recipe_bytes_rejected() {
        use crate::recipe::StageSpec;
        let h = StreamHeader {
            recipe: Recipe::new(&[StageSpec::MantissaSplit, StageSpec::Huffman]).unwrap(),
            ..sample_header()
        };
        let mut buf = Vec::new();
        h.write(&mut buf);
        // Unknown stage id inside the recipe region.
        let mut bad = buf.clone();
        bad[STREAM_HEADER_BYTES + 1] = 0xFE;
        assert!(matches!(
            StreamHeader::read(&bad),
            Err(CompressError::CorruptRecipe(_))
        ));
        // Recipe region truncated away entirely.
        assert!(StreamHeader::read(&buf[..STREAM_HEADER_BYTES]).is_err());
    }

    #[test]
    fn n_blocks_rounds_up() {
        assert_eq!(sample_header().n_blocks(), 4); // 100 elements / 32
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        sample_header().write(&mut buf);
        buf[0] = b'X';
        assert!(matches!(
            StreamHeader::read(&buf),
            Err(CompressError::BadMagic)
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = Vec::new();
        sample_header().write(&mut buf);
        buf[4] = 9;
        assert!(matches!(
            StreamHeader::read(&buf),
            Err(CompressError::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn bad_block_size_rejected() {
        let mut buf = Vec::new();
        sample_header().write(&mut buf);
        buf[6..10].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(
            StreamHeader::read(&buf),
            Err(CompressError::BadBlockSize(7))
        ));
    }

    #[test]
    fn scan_offsets_on_real_stream() {
        let codec = BlockCodec::new(32, HeaderWidth::W4);
        let mut payload = Vec::new();
        let mut expected = Vec::new();
        for b in 0..4 {
            expected.push(payload.len());
            let data: Vec<f32> = (0..32).map(|i| (b * 32 + i) as f32 * 0.01).collect();
            codec.encode_block(&data, 1e-3, &mut payload).unwrap();
        }
        let header = StreamHeader {
            header_width: HeaderWidth::W4,
            block_size: 32,
            count: 128,
            eps: 1e-3,
            recipe: Recipe::canonical(),
        };
        assert_eq!(scan_block_offsets(&header, &payload).unwrap(), expected);
    }

    #[test]
    fn scan_detects_truncation() {
        let header = sample_header();
        // Claims 4 blocks but payload holds only one zero-block header.
        let payload = 0u32.to_le_bytes().to_vec();
        assert!(matches!(
            scan_block_offsets(&header, &payload),
            Err(CompressError::Truncated)
        ));
    }
}
