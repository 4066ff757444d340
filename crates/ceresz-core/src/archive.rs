//! A multi-field archive container: one file holding many compressed fields
//! with their names and logical dimensions — the shape of a real SDRBench
//! dataset (CESM-ATM alone has 79 fields). Each field is an independent
//! CereSZ stream, so single fields decode without touching the rest.
//!
//! ```text
//! "CSZA" | version u8 | field count u32 |
//!   per field: name len u16 | name (utf-8) | ndims u8 | dims u64… |
//!              recipe bytes (v2+ only) | stream len u64 |
//! streams, concatenated in index order
//! ```
//!
//! Version 2 records each field's [`Recipe`] in the field table (the recipe
//! wire format is self-framing, see [`crate::recipe`]), making every field
//! decodable from its recorded recipe alone. Version 1 archives (written
//! before recipes existed) parse with the canonical recipe implied.

use crate::codec::Codec;
use crate::compressor::{CereszConfig, CompressError, Compressed};
use crate::recipe::Recipe;
use crate::stream::StreamHeader;

/// Multiply a dimension list with overflow detection.
fn checked_dims_product(dims: &[usize]) -> Result<usize, CompressError> {
    dims.iter().try_fold(1usize, |acc, &d| {
        acc.checked_mul(d).ok_or(CompressError::DimsOverflow)
    })
}

/// Archive magic bytes.
pub const ARCHIVE_MAGIC: [u8; 4] = *b"CSZA";
/// Current archive version (2: per-field recipes in the field table).
pub const ARCHIVE_VERSION: u8 = 2;
/// The pre-recipe archive version, still readable (canonical recipe implied).
pub const ARCHIVE_VERSION_V1: u8 = 1;

/// One field's entry in an archive.
#[derive(Debug, Clone)]
pub struct ArchiveField {
    /// Field name.
    pub name: String,
    /// Logical dimensions.
    pub dims: Vec<usize>,
    /// The recipe that produced (and decodes) this field's stream.
    pub recipe: Recipe,
    /// The field's compressed stream.
    pub stream: Vec<u8>,
}

impl ArchiveField {
    /// Decompress this field using its recorded recipe.
    ///
    /// The stream's own header must agree with the archive's recorded recipe
    /// — a mismatch means the container was tampered with or corrupted and
    /// yields a typed error.
    pub fn decompress(&self) -> Result<Vec<f32>, CompressError> {
        let header = StreamHeader::read(&self.stream)?;
        if header.recipe != self.recipe {
            return Err(CompressError::CorruptArchive(
                "field recipe disagrees with its stream",
            ));
        }
        Codec::decompressor().decompress(&self.stream)
    }
}

/// An in-memory archive.
#[derive(Debug, Clone, Default)]
pub struct Archive {
    fields: Vec<ArchiveField>,
}

impl Archive {
    /// Empty archive.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Compress and add a field, returning the compression result (the
    /// stream is also retained in the archive).
    pub fn add_field(
        &mut self,
        name: &str,
        dims: &[usize],
        data: &[f32],
        cfg: &CereszConfig,
    ) -> Result<Compressed, CompressError> {
        let product = checked_dims_product(dims)?;
        if product != data.len() {
            return Err(CompressError::DimsMismatch {
                dims_product: product,
                len: data.len(),
            });
        }
        let compressed = Codec::new(*cfg).compress(data)?;
        self.fields.push(ArchiveField {
            name: name.to_string(),
            dims: dims.to_vec(),
            recipe: cfg.recipe,
            stream: compressed.data.clone(),
        });
        Ok(compressed)
    }

    /// Fields in index order.
    #[must_use]
    pub fn fields(&self) -> &[ArchiveField] {
        &self.fields
    }

    /// Look up a field by name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&ArchiveField> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Serialize the archive.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&ARCHIVE_MAGIC);
        out.push(ARCHIVE_VERSION);
        out.extend_from_slice(&(self.fields.len() as u32).to_le_bytes());
        for f in &self.fields {
            let name = f.name.as_bytes();
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name);
            out.push(f.dims.len() as u8);
            for &d in &f.dims {
                out.extend_from_slice(&(d as u64).to_le_bytes());
            }
            f.recipe.write(&mut out);
            out.extend_from_slice(&(f.stream.len() as u64).to_le_bytes());
        }
        for f in &self.fields {
            out.extend_from_slice(&f.stream);
        }
        out
    }

    /// Parse an archive.
    ///
    /// Every length field an attacker controls (field count, name length,
    /// dimension count, stream length) is capped against the bytes actually
    /// remaining in the buffer *before* any allocation sized by it, so a
    /// corrupted archive produces a typed error rather than an OOM-sized
    /// allocation or a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CompressError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], CompressError> {
            let end = pos.checked_add(n).ok_or(CompressError::Truncated)?;
            if bytes.len() < end {
                return Err(CompressError::Truncated);
            }
            let s = &bytes[*pos..end];
            *pos = end;
            Ok(s)
        };
        if take(&mut pos, 4)? != ARCHIVE_MAGIC {
            return Err(CompressError::BadMagic);
        }
        let version = take(&mut pos, 1)?[0];
        if version != ARCHIVE_VERSION && version != ARCHIVE_VERSION_V1 {
            return Err(CompressError::UnsupportedVersion(version));
        }
        let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("sized")) as usize;
        // Each field entry occupies at least name-len (2) + ndims (1) +
        // stream-len (8) bytes of metadata; a count claiming more entries
        // than the rest of the buffer could hold is corrupt.
        const MIN_FIELD_META: usize = 2 + 1 + 8;
        if count > bytes.len().saturating_sub(pos) / MIN_FIELD_META {
            return Err(CompressError::CorruptArchive(
                "field count exceeds the buffer",
            ));
        }
        let mut metas = Vec::with_capacity(count);
        for _ in 0..count {
            let name_len =
                u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("sized")) as usize;
            let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
                .map_err(|_| CompressError::CorruptArchive("field name is not UTF-8"))?;
            let ndims = take(&mut pos, 1)?[0] as usize;
            let mut dims = Vec::with_capacity(ndims);
            for _ in 0..ndims {
                dims.push(
                    u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("sized")) as usize,
                );
            }
            checked_dims_product(&dims)?;
            let recipe = if version == ARCHIVE_VERSION_V1 {
                Recipe::canonical()
            } else {
                let (recipe, used) = Recipe::read(&bytes[pos..])?;
                pos += used;
                recipe
            };
            let stream_len =
                u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("sized")) as usize;
            if stream_len > bytes.len().saturating_sub(pos) {
                return Err(CompressError::Truncated);
            }
            metas.push((name, dims, recipe, stream_len));
        }
        let mut fields = Vec::with_capacity(count);
        for (name, dims, recipe, stream_len) in metas {
            let stream = take(&mut pos, stream_len)?.to_vec();
            fields.push(ArchiveField {
                name,
                dims,
                recipe,
                stream,
            });
        }
        Ok(Self { fields })
    }

    /// Total serialized size.
    #[must_use]
    pub fn compressed_bytes(&self) -> usize {
        self.to_bytes().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::ErrorBound;

    fn field(n: usize, scale: f32) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.01).sin() * scale).collect()
    }

    #[test]
    fn archive_roundtrips_multiple_fields() {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let mut a = Archive::new();
        let t = field(4096, 10.0);
        let p = field(2048, 900.0);
        a.add_field("temperature", &[64, 64], &t, &cfg).unwrap();
        a.add_field("pressure", &[2048], &p, &cfg).unwrap();
        let bytes = a.to_bytes();
        let b = Archive::from_bytes(&bytes).unwrap();
        assert_eq!(b.fields().len(), 2);
        let tf = b.field("temperature").unwrap();
        assert_eq!(tf.dims, vec![64, 64]);
        let restored = tf.decompress().unwrap();
        assert_eq!(restored.len(), t.len());
        let pf = b.field("pressure").unwrap();
        assert_eq!(pf.decompress().unwrap().len(), p.len());
        assert!(b.field("missing").is_none());
    }

    #[test]
    fn per_field_recipes_roundtrip() {
        use crate::recipe::StageSpec;
        let huff = Recipe::new(&[
            StageSpec::PreQuantize,
            StageSpec::Lorenzo1d,
            StageSpec::FixedLength,
            StageSpec::Huffman,
        ])
        .unwrap();
        let mut a = Archive::new();
        let data = field(4096, 10.0);
        a.add_field(
            "canon",
            &[4096],
            &data,
            &CereszConfig::new(ErrorBound::Rel(1e-3)),
        )
        .unwrap();
        a.add_field(
            "huff",
            &[4096],
            &data,
            &CereszConfig::new(ErrorBound::Rel(1e-3)).with_recipe(huff),
        )
        .unwrap();
        let b = Archive::from_bytes(&a.to_bytes()).unwrap();
        assert!(b.field("canon").unwrap().recipe.is_canonical());
        assert_eq!(b.field("huff").unwrap().recipe, huff);
        let x = b.field("canon").unwrap().decompress().unwrap();
        let y = b.field("huff").unwrap().decompress().unwrap();
        assert_eq!(x.len(), data.len());
        assert_eq!(x, y, "both recipes quantize identically at the same ε");
    }

    #[test]
    fn corrupt_recipe_bytes_in_field_table_rejected() {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let mut a = Archive::new();
        a.add_field("ab", &[256], &field(256, 1.0), &cfg).unwrap();
        let mut bytes = a.to_bytes();
        // Field meta: magic 4 | ver 1 | count 4 | name_len 2 | name 2 |
        // ndims 1 | dims 8 → recipe starts at offset 22; its first stage id
        // is at 23.
        bytes[23] = 0xFE;
        assert!(matches!(
            Archive::from_bytes(&bytes),
            Err(CompressError::CorruptRecipe(_))
        ));
    }

    #[test]
    fn recipe_stream_mismatch_rejected() {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let mut a = Archive::new();
        a.add_field("ab", &[256], &field(256, 1.0), &cfg).unwrap();
        let mut f = a.fields()[0].clone();
        f.recipe = Recipe::new(&[
            crate::recipe::StageSpec::MantissaSplit,
            crate::recipe::StageSpec::Huffman,
        ])
        .unwrap();
        assert!(matches!(
            f.decompress(),
            Err(CompressError::CorruptArchive(_))
        ));
    }

    #[test]
    fn truncated_archive_rejected() {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-2));
        let mut a = Archive::new();
        a.add_field("x", &[256], &field(256, 1.0), &cfg).unwrap();
        let bytes = a.to_bytes();
        for cut in [3usize, 8, 20, bytes.len() - 1] {
            assert!(Archive::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        assert!(matches!(
            Archive::from_bytes(b"NOPE\x01\x00\x00\x00\x00"),
            Err(CompressError::BadMagic)
        ));
    }

    #[test]
    fn dims_mismatch_is_typed_error() {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-2));
        let mut a = Archive::new();
        assert!(matches!(
            a.add_field("x", &[100], &field(256, 1.0), &cfg),
            Err(CompressError::DimsMismatch {
                dims_product: 100,
                len: 256
            })
        ));
    }

    #[test]
    fn dims_overflow_is_typed_error() {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-2));
        let mut a = Archive::new();
        assert!(matches!(
            a.add_field("x", &[usize::MAX, 2], &field(8, 1.0), &cfg),
            Err(CompressError::DimsOverflow)
        ));
    }

    #[test]
    fn adversarial_field_count_rejected_without_allocation() {
        // Header claims u32::MAX fields in a 9-byte buffer: must reject
        // before reserving a u32::MAX-entry metadata vector.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&ARCHIVE_MAGIC);
        bytes.push(ARCHIVE_VERSION);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Archive::from_bytes(&bytes),
            Err(CompressError::CorruptArchive(_))
        ));
    }

    #[test]
    fn adversarial_stream_len_rejected() {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-2));
        let mut a = Archive::new();
        a.add_field("x", &[256], &field(256, 1.0), &cfg).unwrap();
        let mut bytes = a.to_bytes();
        // The stream-len field sits 8 bytes before the stream body; claim
        // u64::MAX bytes.
        let stream_len = bytes.len() - a.fields()[0].stream.len() - 8;
        bytes[stream_len..stream_len + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Archive::from_bytes(&bytes).is_err());
    }

    #[test]
    fn non_utf8_name_rejected() {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-2));
        let mut a = Archive::new();
        a.add_field("ab", &[256], &field(256, 1.0), &cfg).unwrap();
        let mut bytes = a.to_bytes();
        bytes[11] = 0xFF; // first byte of the 2-byte name
        assert!(matches!(
            Archive::from_bytes(&bytes),
            Err(CompressError::CorruptArchive(_))
        ));
    }
}
