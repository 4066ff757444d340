//! Recipes: compression pipelines as first-class values.
//!
//! A [`Recipe`] is an ordered list of [`StageSpec`]s describing how an `f32`
//! field becomes a byte stream. Stages pass typed intermediate planes between
//! each other (see [`crate::stage::Plane`]): a recipe is *well-kinded* when
//! the first stage consumes `F32`, every stage's input kind matches its
//! predecessor's output kind, and the last stage produces `Bytes`.
//!
//! The paper's fixed pipeline — pre-quantization → 1-D Lorenzo →
//! fixed-length encoding — is the **canonical** recipe. Canonical streams are
//! written in the original v1 wire format, byte-identical to the pre-recipe
//! compressor (and to the WSE-simulated kernels); every other recipe is
//! recorded in the v2 stream/archive headers so decompression is fully
//! self-describing.
//!
//! ## Recipe wire format
//!
//! ```text
//! n u8 | stage 0 | stage 1 | ... | stage n-1
//! ```
//!
//! Each stage is one id byte (see [`StageSpec`]) followed by its parameters:
//! only `lorenzo2` has any (`rows u32 LE | cols u32 LE | tile u16 LE`).
//! Unknown ids, truncated parameters, or an ill-kinded composition parse to a
//! typed error, never a panic.

use crate::compressor::CompressError;

/// Maximum number of stages in a recipe.
///
/// Small by design: recipes are `Copy` values stored inline in configs,
/// stream headers, and statistics, and no useful composition of the shipped
/// stages exceeds this.
pub const MAX_STAGES: usize = 8;

/// The kind of intermediate plane flowing between stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneKind {
    /// Raw floating-point values.
    F32,
    /// Quantized integers (or prediction residuals).
    I64,
    /// An opaque byte stream.
    Bytes,
}

/// One stage of a recipe: what transformation runs, with its parameters.
///
/// The wire id of each variant is listed below; ids are stable across
/// releases (new stages append new ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageSpec {
    /// id 1 — pre-quantization `p_i = round(e_i / 2ε)` (`F32 → I64`). The
    /// only bound-guaranteeing lossy stage; pads the plane to a whole number
    /// of blocks.
    PreQuantize,
    /// id 2 — first-order 1-D Lorenzo prediction within each block
    /// (`I64 → I64`).
    Lorenzo1d,
    /// id 3 — 2-D Lorenzo prediction within `tile × tile` tiles of a
    /// row-major `rows × cols` field (`I64 → I64`), the predictor §3 of the
    /// paper sets aside for throughput. Requires `block_size == tile²`.
    Lorenzo2d {
        /// Field rows.
        rows: u32,
        /// Field columns.
        cols: u32,
        /// Tile side length.
        tile: u16,
    },
    /// id 4 — per-block fixed-length encoding of residuals (`I64 → Bytes`),
    /// the paper's sign + bit-plane format with the zero-block fast path.
    FixedLength,
    /// id 5 — lossless byte-plane split (`F32 → Bytes`): byte `j` of every
    /// value is grouped into plane `j`, separating the exponent-heavy high
    /// bytes from mantissa noise so an entropy stage sees skewed streams.
    MantissaSplit,
    /// id 6 — bfloat16 downconvert (`F32 → Bytes`), round-to-nearest-even.
    /// Lossy *without* an ε guarantee: the codec verifies the realized error
    /// post-hoc and rejects the recipe for data it cannot bound.
    Bf16,
    /// id 7 — canonical-Huffman entropy coding of a byte stream
    /// (`Bytes → Bytes`), reusing `crates/huffman`.
    Huffman,
}

impl StageSpec {
    /// Plane kind this stage consumes when encoding.
    #[must_use]
    pub fn input_kind(&self) -> PlaneKind {
        match self {
            StageSpec::PreQuantize | StageSpec::MantissaSplit | StageSpec::Bf16 => PlaneKind::F32,
            StageSpec::Lorenzo1d | StageSpec::Lorenzo2d { .. } | StageSpec::FixedLength => {
                PlaneKind::I64
            }
            StageSpec::Huffman => PlaneKind::Bytes,
        }
    }

    /// Plane kind this stage produces when encoding.
    #[must_use]
    pub fn output_kind(&self) -> PlaneKind {
        match self {
            StageSpec::PreQuantize | StageSpec::Lorenzo1d | StageSpec::Lorenzo2d { .. } => {
                PlaneKind::I64
            }
            StageSpec::FixedLength
            | StageSpec::MantissaSplit
            | StageSpec::Bf16
            | StageSpec::Huffman => PlaneKind::Bytes,
        }
    }

    /// Stable wire id.
    #[must_use]
    pub fn wire_id(&self) -> u8 {
        match self {
            StageSpec::PreQuantize => 1,
            StageSpec::Lorenzo1d => 2,
            StageSpec::Lorenzo2d { .. } => 3,
            StageSpec::FixedLength => 4,
            StageSpec::MantissaSplit => 5,
            StageSpec::Bf16 => 6,
            StageSpec::Huffman => 7,
        }
    }

    /// Short CLI/display name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            StageSpec::PreQuantize => "quantize",
            StageSpec::Lorenzo1d => "lorenzo1",
            StageSpec::Lorenzo2d { .. } => "lorenzo2",
            StageSpec::FixedLength => "fixed",
            StageSpec::MantissaSplit => "mantissa",
            StageSpec::Bf16 => "bf16",
            StageSpec::Huffman => "huffman",
        }
    }

    fn write(&self, out: &mut Vec<u8>) {
        out.push(self.wire_id());
        if let StageSpec::Lorenzo2d { rows, cols, tile } = self {
            out.extend_from_slice(&rows.to_le_bytes());
            out.extend_from_slice(&cols.to_le_bytes());
            out.extend_from_slice(&tile.to_le_bytes());
        }
    }

    fn read(bytes: &[u8]) -> Result<(Self, usize), CompressError> {
        let id = *bytes
            .first()
            .ok_or(CompressError::CorruptRecipe("truncated stage id"))?;
        Ok(match id {
            1 => (StageSpec::PreQuantize, 1),
            2 => (StageSpec::Lorenzo1d, 1),
            3 => {
                if bytes.len() < 1 + 4 + 4 + 2 {
                    return Err(CompressError::CorruptRecipe("truncated lorenzo2 params"));
                }
                let rows = u32::from_le_bytes(bytes[1..5].try_into().expect("sized"));
                let cols = u32::from_le_bytes(bytes[5..9].try_into().expect("sized"));
                let tile = u16::from_le_bytes(bytes[9..11].try_into().expect("sized"));
                (StageSpec::Lorenzo2d { rows, cols, tile }, 11)
            }
            4 => (StageSpec::FixedLength, 1),
            5 => (StageSpec::MantissaSplit, 1),
            6 => (StageSpec::Bf16, 1),
            7 => (StageSpec::Huffman, 1),
            _ => return Err(CompressError::CorruptRecipe("unknown stage id")),
        })
    }
}

/// An ordered, validated stage composition — the pipeline as a value.
///
/// `Recipe` is a small `Copy` type (at most [`MAX_STAGES`] inline stages) so
/// it can live inside [`crate::CereszConfig`], [`crate::stream::StreamHeader`],
/// and [`crate::CompressionStats`] without allocation. Construct with
/// [`Recipe::new`], which rejects ill-kinded compositions with a typed
/// [`CompressError::InvalidRecipe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recipe {
    len: u8,
    stages: [StageSpec; MAX_STAGES],
}

impl Default for Recipe {
    fn default() -> Self {
        Self::canonical()
    }
}

/// Filler for unused stage slots, so derived equality compares only by the
/// active prefix plus a deterministic tail.
const FILLER: StageSpec = StageSpec::PreQuantize;

impl Recipe {
    /// The paper's fixed pipeline: `quantize → lorenzo1 → fixed`.
    ///
    /// Streams produced by this recipe use the original v1 wire format and
    /// are byte-identical to the pre-recipe compressor.
    #[must_use]
    pub fn canonical() -> Self {
        Self {
            len: 3,
            stages: [
                StageSpec::PreQuantize,
                StageSpec::Lorenzo1d,
                StageSpec::FixedLength,
                FILLER,
                FILLER,
                FILLER,
                FILLER,
                FILLER,
            ],
        }
    }

    /// Build a recipe from a stage list, checking kind compatibility.
    pub fn new(stages: &[StageSpec]) -> Result<Self, CompressError> {
        if stages.is_empty() {
            return Err(CompressError::InvalidRecipe("a recipe needs ≥ 1 stage"));
        }
        if stages.len() > MAX_STAGES {
            return Err(CompressError::InvalidRecipe("too many stages"));
        }
        if stages[0].input_kind() != PlaneKind::F32 {
            return Err(CompressError::InvalidRecipe(
                "first stage must consume f32 values",
            ));
        }
        for w in stages.windows(2) {
            if w[0].output_kind() != w[1].input_kind() {
                return Err(CompressError::InvalidRecipe(
                    "adjacent stages have mismatched plane kinds",
                ));
            }
        }
        if stages[stages.len() - 1].output_kind() != PlaneKind::Bytes {
            return Err(CompressError::InvalidRecipe(
                "last stage must produce bytes",
            ));
        }
        let mut arr = [FILLER; MAX_STAGES];
        arr[..stages.len()].copy_from_slice(stages);
        Ok(Self {
            len: stages.len() as u8,
            stages: arr,
        })
    }

    /// The active stages, in encode order (decode runs them reversed).
    #[must_use]
    pub fn stages(&self) -> &[StageSpec] {
        &self.stages[..self.len as usize]
    }

    /// Whether this is the canonical (paper) pipeline.
    #[must_use]
    pub fn is_canonical(&self) -> bool {
        *self == Self::canonical()
    }

    /// Validate this recipe against a block size: re-checks the kind chain
    /// (a `Recipe` from [`Recipe::new`] always passes) plus the
    /// block-coupled rules — `lorenzo2` requires `block_size == tile²` so
    /// its tiles coincide with the fixed-length blocks.
    pub fn validate(&self, block_size: usize) -> Result<(), CompressError> {
        let rebuilt = Self::new(self.stages())?;
        debug_assert_eq!(rebuilt, *self);
        for spec in self.stages() {
            if let StageSpec::Lorenzo2d { rows, cols, tile } = spec {
                let t = *tile as usize;
                if t == 0 || t * t != block_size {
                    return Err(CompressError::InvalidRecipe(
                        "lorenzo2 tile² must equal the block size",
                    ));
                }
                if *rows == 0 || *cols == 0 {
                    return Err(CompressError::InvalidRecipe(
                        "lorenzo2 dims must be nonzero",
                    ));
                }
            }
        }
        Ok(())
    }

    /// Whether every reconstruction error is guaranteed ≤ ε.
    ///
    /// True for the canonical stages (quantization is the only lossy one and
    /// is bounded by construction) and for lossless stages; false when the
    /// recipe contains [`StageSpec::Bf16`], whose error depends on the data —
    /// the codec then verifies the realized error post-hoc.
    #[must_use]
    pub fn guarantees_bound(&self) -> bool {
        !self.stages().iter().any(|s| matches!(s, StageSpec::Bf16))
    }

    /// Whether the recipe reconstructs the input bit-exactly (no lossy stage).
    #[must_use]
    pub fn is_lossless(&self) -> bool {
        !self
            .stages()
            .iter()
            .any(|s| matches!(s, StageSpec::PreQuantize | StageSpec::Bf16))
    }

    /// Serialize to the recipe wire format, appending to `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.push(self.len);
        for s in self.stages() {
            s.write(out);
        }
    }

    /// Serialized size in bytes.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        let mut buf = Vec::with_capacity(1 + MAX_STAGES);
        self.write(&mut buf);
        buf.len()
    }

    /// Parse a recipe from the front of `bytes`, returning it and the number
    /// of bytes consumed. Corrupt bytes yield typed errors.
    pub fn read(bytes: &[u8]) -> Result<(Self, usize), CompressError> {
        let n = *bytes
            .first()
            .ok_or(CompressError::CorruptRecipe("missing stage count"))? as usize;
        if n == 0 || n > MAX_STAGES {
            return Err(CompressError::CorruptRecipe("bad stage count"));
        }
        let mut pos = 1usize;
        let mut stages = Vec::with_capacity(n);
        for _ in 0..n {
            let (spec, used) = StageSpec::read(&bytes[pos..])?;
            stages.push(spec);
            pos += used;
        }
        Ok((Self::new(&stages)?, pos))
    }

    /// Parse a CLI spec string: comma-separated stage names, e.g.
    /// `quantize,lorenzo1,fixed,huffman`. The 2-D predictor takes its
    /// parameters inline: `lorenzo2:ROWSxCOLSxTILE`.
    pub fn parse(spec: &str) -> Result<Self, CompressError> {
        let mut stages = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            stages.push(match part {
                "quantize" => StageSpec::PreQuantize,
                "lorenzo1" => StageSpec::Lorenzo1d,
                "fixed" => StageSpec::FixedLength,
                "mantissa" => StageSpec::MantissaSplit,
                "bf16" => StageSpec::Bf16,
                "huffman" => StageSpec::Huffman,
                _ => {
                    let Some(params) = part.strip_prefix("lorenzo2:") else {
                        return Err(CompressError::InvalidRecipe("unknown stage name"));
                    };
                    let dims: Vec<&str> = params.split('x').collect();
                    let parse_dim = |s: &str| {
                        s.parse::<u32>()
                            .map_err(|_| CompressError::InvalidRecipe("bad lorenzo2 parameter"))
                    };
                    if dims.len() != 3 {
                        return Err(CompressError::InvalidRecipe(
                            "lorenzo2 needs ROWSxCOLSxTILE",
                        ));
                    }
                    StageSpec::Lorenzo2d {
                        rows: parse_dim(dims[0])?,
                        cols: parse_dim(dims[1])?,
                        tile: u16::try_from(parse_dim(dims[2])?)
                            .map_err(|_| CompressError::InvalidRecipe("tile too large"))?,
                    }
                }
            });
        }
        Self::new(&stages)
    }
}

impl std::fmt::Display for Recipe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, s) in self.stages().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            match s {
                StageSpec::Lorenzo2d { rows, cols, tile } => {
                    write!(f, "lorenzo2:{rows}x{cols}x{tile}")?;
                }
                _ => write!(f, "{}", s.name())?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_roundtrips_wire_and_display() {
        let r = Recipe::canonical();
        assert!(r.is_canonical());
        let mut buf = Vec::new();
        r.write(&mut buf);
        let (back, used) = Recipe::read(&buf).unwrap();
        assert_eq!(back, r);
        assert_eq!(used, buf.len());
        assert_eq!(Recipe::parse(&r.to_string()).unwrap(), r);
    }

    #[test]
    fn lorenzo2_params_roundtrip() {
        let r = Recipe::new(&[
            StageSpec::PreQuantize,
            StageSpec::Lorenzo2d {
                rows: 100,
                cols: 132,
                tile: 8,
            },
            StageSpec::FixedLength,
            StageSpec::Huffman,
        ])
        .unwrap();
        let mut buf = Vec::new();
        r.write(&mut buf);
        assert_eq!(Recipe::read(&buf).unwrap().0, r);
        assert_eq!(Recipe::parse(&r.to_string()).unwrap(), r);
        assert!(r.validate(64).is_ok());
        assert!(matches!(
            r.validate(32),
            Err(CompressError::InvalidRecipe(_))
        ));
    }

    #[test]
    fn ill_kinded_compositions_are_typed_errors() {
        for bad in [
            &[][..],
            &[StageSpec::PreQuantize][..], // ends on I64
            &[StageSpec::Lorenzo1d, StageSpec::FixedLength][..], // starts on I64
            &[StageSpec::PreQuantize, StageSpec::Bf16][..], // I64 into f32 stage
            &[StageSpec::FixedLength][..], // starts on I64
            &[StageSpec::Huffman][..],     // starts on bytes
            &[StageSpec::MantissaSplit, StageSpec::PreQuantize][..], // bytes into f32 stage
        ] {
            assert!(
                matches!(Recipe::new(bad), Err(CompressError::InvalidRecipe(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn corrupt_wire_bytes_are_typed_errors() {
        let mut buf = Vec::new();
        Recipe::canonical().write(&mut buf);
        // Unknown stage id.
        let mut bad = buf.clone();
        bad[1] = 0xFE;
        assert!(matches!(
            Recipe::read(&bad),
            Err(CompressError::CorruptRecipe(_))
        ));
        // Truncated stage list.
        assert!(Recipe::read(&buf[..2]).is_err());
        // Zero and oversized stage counts.
        assert!(Recipe::read(&[0]).is_err());
        assert!(Recipe::read(&[99]).is_err());
        // Ill-kinded but well-formed bytes: huffman alone.
        assert!(matches!(
            Recipe::read(&[1, 7]),
            Err(CompressError::InvalidRecipe(_))
        ));
    }

    #[test]
    fn bound_and_lossless_classification() {
        assert!(Recipe::canonical().guarantees_bound());
        assert!(!Recipe::canonical().is_lossless());
        let ms = Recipe::new(&[StageSpec::MantissaSplit, StageSpec::Huffman]).unwrap();
        assert!(ms.guarantees_bound());
        assert!(ms.is_lossless());
        let bf = Recipe::new(&[StageSpec::Bf16]).unwrap();
        assert!(!bf.guarantees_bound());
        assert!(!bf.is_lossless());
    }

    #[test]
    fn parse_rejects_unknown_names() {
        assert!(Recipe::parse("quantize,wavelet,fixed").is_err());
        assert!(Recipe::parse("lorenzo2:8x8,fixed").is_err());
        assert!(Recipe::parse("").is_err());
    }
}
