//! Shared host-side harness utilities: block splitting, wavelet packing of
//! raw blocks and emitted results, and stream reassembly.
//!
//! The harness plays the role of the CS-2's I/O fabric: it streams raw blocks
//! onto the wafer's west edge and collects compressed bytes emitted by the
//! PEs, then concatenates them — in block order — into the same
//! self-describing stream the host compressor produces. The paper's
//! "dataflow preserves block processing order" property (§3, Rationale) is
//! what makes this concatenation a pure append.

use ceresz_core::compressor::Compressed;
use ceresz_core::stream::StreamHeader;
use ceresz_core::{CompressError, CompressionStats};

use crate::kernels::spare_vec;
use crate::wire::{WaveletReader, WaveletWriter};

/// Colors used by the CereSZ mapping (well under the fabric's 24).
pub mod colors {
    use wse_sim::Color;

    /// Raw input data injected at the west edge.
    pub const DATA: Color = Color::new(0);
    /// Intermediate pipeline state, even-indexed links.
    pub const INTER_A: Color = Color::new(1);
    /// Intermediate pipeline state, odd-indexed links.
    pub const INTER_B: Color = Color::new(2);
    /// Head-to-head block relay, even-indexed links.
    pub const RELAY_A: Color = Color::new(3);
    /// Head-to-head block relay, odd-indexed links.
    pub const RELAY_B: Color = Color::new(4);
}

/// Task ids shared by the mapping programs.
pub mod tasks {
    use wse_sim::TaskId;

    /// "Input block available" — the receive-completion task.
    pub const RECV: TaskId = TaskId(0);
    /// Second phase of a header-then-payload receive (decompression).
    pub const RECV_BODY: TaskId = TaskId(1);
}

/// Split `data` into `block_size` blocks, zero-padding the final one.
#[must_use]
pub fn split_blocks(data: &[f32], block_size: usize) -> Vec<Vec<f32>> {
    data.chunks(block_size)
        .map(|c| {
            let mut b = c.to_vec();
            b.resize(block_size, 0.0);
            b
        })
        .collect()
}

/// Pack one raw block as wavelets (f32 bit patterns).
#[must_use]
pub fn raw_block_wavelets(block: &[f32]) -> Vec<u32> {
    let mut w = WaveletWriter::new();
    for &v in block {
        w.put_f32(v);
    }
    w.finish()
}

/// Parse a raw block from wavelets.
#[must_use]
pub fn parse_raw_block(words: &[u32]) -> Vec<f32> {
    let mut block = spare_vec(words.len());
    block.extend(words.iter().map(|&w| f32::from_bits(w)));
    block
}

/// Pack encoded block bytes for emission: `[byte_len, packed bytes…]`.
///
/// Every emission lives to the end of a run, so it gets one allocation,
/// its length rounded up to a power of two: a handful of size classes for
/// the whole run. Exact lengths scatter them over dozens of classes, and
/// on the full wafer that fragmented the heap enough to raise the peak
/// resident set by 3 % (777 MB against 748 MB, `wafer-full-dense`).
#[must_use]
pub fn emit_encoded(bytes: &[u8]) -> Vec<u32> {
    let words = 1 + bytes.len().div_ceil(4);
    let mut w = WaveletWriter::with_capacity(words.next_power_of_two());
    w.put_u32(bytes.len() as u32);
    w.put_bytes(bytes);
    w.finish()
}

/// Unpack an emitted encoded block.
pub fn parse_emitted(words: &[u32]) -> Result<Vec<u8>, CompressError> {
    let mut r = WaveletReader::new(words);
    let n = r.get_u32().map_err(|_| CompressError::Truncated)? as usize;
    r.get_bytes(n).map_err(|_| CompressError::Truncated)
}

/// Concatenate encoded blocks — already in block order — into the
/// self-describing stream the host compressor produces, recovering per-block
/// statistics from each block's header byte(s).
///
/// This is the single reassembly path behind [`crate::execute`]: every
/// strategy reduces its emission layout to a block-ordered list of encoded
/// byte vectors (via its slot table) before calling this.
pub fn assemble_blocks(
    header: &StreamHeader,
    blocks: &[Vec<u8>],
) -> Result<Compressed, CompressError> {
    let body_len: usize = blocks.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(ceresz_core::stream::STREAM_HEADER_BYTES + body_len);
    header.write(&mut out);
    let mut stats = CompressionStats {
        original_bytes: header.count * 4,
        eps: header.eps,
        ..CompressionStats::default()
    };
    let codec = header.codec();
    for bytes in blocks {
        // Recover per-block stats from the header byte(s).
        let f = match header.header_width {
            ceresz_core::HeaderWidth::W1 => {
                u32::from(*bytes.first().ok_or(CompressError::Truncated)?)
            }
            ceresz_core::HeaderWidth::W4 => u32::from_le_bytes(
                bytes
                    .get(0..4)
                    .ok_or(CompressError::Truncated)?
                    .try_into()
                    .expect("sized"),
            ),
        };
        debug_assert_eq!(bytes.len(), codec.encoded_size(f));
        stats.n_blocks += 1;
        if f == 0 {
            stats.zero_blocks += 1;
        }
        stats.max_fixed_length = stats.max_fixed_length.max(f);
        stats.total_fixed_length += u64::from(f);
        out.extend_from_slice(bytes);
    }
    stats.compressed_bytes = out.len();
    Ok(Compressed { data: out, stats })
}

/// Padded frame size (in wavelets) for inter-PE transfers of intermediate
/// block state: large enough for the worst-case serialized state of an
/// `l`-element block (the `Scaled` f64 pairs and the fully-shuffled state
/// with all 31 planes are the two contenders).
#[must_use]
pub fn frame_words(l: usize) -> usize {
    let plane_words = l.div_ceil(8).div_ceil(4);
    // tag + f + next_plane + signs + mags + 31 planes, vs tag + 2l (Scaled).
    (3 + plane_words + l + 31 * plane_words).max(1 + 2 * l) + 1
}

/// A cleared buffer for `n` wavelets: `buf` itself when that leaves no
/// slack (a shorter one grows once, to exactly `n`), else a fresh one of
/// exactly `n`. A kernel passes the block it received, so a frame moves on
/// in the allocation that brought the block in, while a short result (a
/// replayed emission, which outlives the task) does not keep a frame-sized
/// allocation alive.
pub(crate) fn reuse_for(mut buf: Vec<u32>, n: usize) -> Vec<u32> {
    if buf.capacity() > n {
        return Vec::with_capacity(n);
    }
    buf.clear();
    buf.reserve_exact(n);
    buf
}

/// Pad a serialized state to the fixed frame size.
#[must_use]
pub fn pad_frame(mut words: Vec<u32>, l: usize) -> Vec<u32> {
    let target = frame_words(l);
    debug_assert!(
        words.len() <= target,
        "state needs {} wavelets, frame holds {target}",
        words.len()
    );
    words.resize(target, 0);
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::CompressState;

    #[test]
    fn split_pads_final_block() {
        let blocks = split_blocks(&[1.0, 2.0, 3.0], 8);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].len(), 8);
        assert_eq!(&blocks[0][..3], &[1.0, 2.0, 3.0]);
        assert!(blocks[0][3..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn raw_block_wavelets_roundtrip() {
        let block = vec![1.5f32, -2.25, 0.0, f32::MIN_POSITIVE];
        let w = raw_block_wavelets(&block);
        assert_eq!(parse_raw_block(&w), block);
    }

    #[test]
    fn emitted_roundtrip() {
        let bytes = vec![1u8, 2, 3, 4, 5];
        assert_eq!(parse_emitted(&emit_encoded(&bytes)).unwrap(), bytes);
    }

    #[test]
    fn frame_fits_every_state() {
        let l = 32;
        // Worst cases: Scaled (2l+1) and fully shuffled 31-plane state.
        // Alternating ±2^29 maximizes the fixed length (f = 31) at ε = 0.5.
        let big = (1u32 << 29) as f32;
        let data: Vec<f32> = (0..l)
            .map(|i| if i % 2 == 0 { big } else { -big })
            .collect();
        let mut state = CompressState::Raw(data);
        let cap = frame_words(l);
        while !state.is_complete() {
            assert!(
                state.to_wavelets().len() <= cap,
                "state {state:?} exceeds frame"
            );
            state = state.step_once(0.5).unwrap();
        }
        assert!(state.to_wavelets().len() <= cap);
    }
}
