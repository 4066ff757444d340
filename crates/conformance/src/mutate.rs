//! Byte-level corruption of valid streams and archives.
//!
//! The helpers here never interpret the buffer; they produce mutated copies
//! for the mutation oracle to feed through the decoders. Offsets of the
//! targeted header patches mirror the layouts in `ceresz_core::stream`
//! (26-byte stream header) and `ceresz_core::archive`.

use crate::rng::Rng;

/// A mutated buffer plus a human-readable description of what was done,
/// so a failure names the exact corruption.
#[derive(Debug, Clone)]
pub struct Mutation {
    /// What the mutation did (e.g. `"bit flip at byte 17 bit 3"`).
    pub what: String,
    /// The corrupted buffer.
    pub bytes: Vec<u8>,
    /// Whether the decoder is *required* to reject this buffer. Payload bit
    /// flips may legitimately decode (wrong values, undetectable without a
    /// checksum); header/length-field forgeries and truncations must not.
    pub must_fail: bool,
}

/// Flip one random bit.
pub fn flip_random_bit(r: &mut Rng, valid: &[u8]) -> Option<Mutation> {
    if valid.is_empty() {
        return None;
    }
    let byte = r.below(valid.len());
    let bit = r.below(8);
    let mut bytes = valid.to_vec();
    bytes[byte] ^= 1 << bit;
    Some(Mutation {
        what: format!("bit flip at byte {byte} bit {bit}"),
        bytes,
        must_fail: false,
    })
}

/// Strict-prefix truncations: a sample of `n` random cut points plus the
/// boundary-adjacent ones (empty, 1 byte, around the 26-byte stream header,
/// and one byte short of complete). Every strict prefix of a valid stream
/// or archive must decode to an error.
pub fn truncations(r: &mut Rng, valid: &[u8], n: usize) -> Vec<Mutation> {
    let len = valid.len();
    let mut cuts: Vec<usize> = [0usize, 1, 4, 13, 25, 26, 27]
        .into_iter()
        .filter(|&c| c < len)
        .collect();
    if len > 1 {
        cuts.push(len - 1);
        for _ in 0..n {
            cuts.push(r.below(len));
        }
    }
    cuts.sort_unstable();
    cuts.dedup();
    cuts.into_iter()
        .map(|c| Mutation {
            what: format!("truncated to {c} of {len} bytes"),
            bytes: valid[..c].to_vec(),
            must_fail: true,
        })
        .collect()
}

/// Overwrite `width` bytes at `offset` with the little-endian `value`.
fn patch(valid: &[u8], offset: usize, value: &[u8], what: String) -> Option<Mutation> {
    if offset + value.len() > valid.len() {
        return None;
    }
    let mut bytes = valid.to_vec();
    bytes[offset..offset + value.len()].copy_from_slice(value);
    Some(Mutation {
        what,
        bytes,
        must_fail: true,
    })
}

/// Forged element counts that a decoder must reject *without* allocating
/// output sized by them: absurd counts, and a plausible inflation. The
/// count sits at the same offset in v1 and v2 stream headers.
pub fn count_forgeries(valid: &[u8], block_size: usize) -> Vec<Mutation> {
    let mut out = Vec::new();
    // count: u64 LE at offset 10.
    for count in [u64::MAX, u64::MAX / 2, 1u64 << 40] {
        out.extend(patch(
            valid,
            10,
            &count.to_le_bytes(),
            format!("forged count = {count}"),
        ));
    }
    // Plausible-looking count inflation: claims more blocks than the payload
    // holds, so the per-block scan must run dry.
    let inflated = (block_size as u64) * 1000;
    out.extend(patch(
        valid,
        10,
        &inflated.to_le_bytes(),
        format!("forged count = {inflated} (inflated)"),
    ));
    out
}

/// Targeted stream-header forgeries that a decoder must reject *without*
/// allocating output sized by the forged fields: absurd element counts,
/// off-contract block sizes, non-positive or non-finite ε.
pub fn stream_header_forgeries(valid: &[u8], block_size: usize) -> Vec<Mutation> {
    let mut out = count_forgeries(valid, block_size);
    // block_size: u32 LE at offset 6.
    for bs in [0u32, 7, 1 << 21, u32::MAX] {
        out.extend(patch(
            valid,
            6,
            &bs.to_le_bytes(),
            format!("forged block_size = {bs}"),
        ));
    }
    // eps: f64 LE at offset 18.
    for eps in [0.0f64, -1.0, f64::NAN, f64::INFINITY] {
        out.extend(patch(
            valid,
            18,
            &eps.to_le_bytes(),
            format!("forged eps = {eps}"),
        ));
    }
    // Magic, version, header width.
    out.extend(patch(valid, 0, b"XSZ1", "forged magic".into()));
    out.extend(patch(valid, 4, &[9], "forged version = 9".into()));
    out.extend(patch(valid, 5, &[3], "forged header width = 3".into()));
    out
}

/// Targeted archive forgeries: field counts and per-field length fields that
/// claim more than the buffer holds. Layout: magic(4) version(1) count(u32 LE)
/// then per-field `[name_len u16][name][ndims u8][dims u64...][stream_len u64]`.
pub fn archive_forgeries(valid: &[u8]) -> Vec<Mutation> {
    let mut out = Vec::new();
    for count in [u32::MAX, u32::MAX / 2, 1u32 << 24] {
        out.extend(patch(
            valid,
            5,
            &count.to_le_bytes(),
            format!("forged field count = {count}"),
        ));
    }
    // First field's name_len sits right after the 9-byte archive header.
    out.extend(patch(
        valid,
        9,
        &u16::MAX.to_le_bytes(),
        "forged name_len = 65535".into(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncations_are_strict_prefixes() {
        let valid: Vec<u8> = (0..100u8).collect();
        let mut r = Rng::new(5);
        for m in truncations(&mut r, &valid, 8) {
            assert!(m.bytes.len() < valid.len());
            assert_eq!(&valid[..m.bytes.len()], &m.bytes[..]);
            assert!(m.must_fail);
        }
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let valid = vec![0u8; 64];
        let mut r = Rng::new(6);
        let m = flip_random_bit(&mut r, &valid).unwrap();
        let diff: u32 = m
            .bytes
            .iter()
            .zip(&valid)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
    }

    #[test]
    fn forgeries_apply_only_when_in_bounds() {
        assert!(stream_header_forgeries(&[0u8; 3], 32).is_empty());
        assert!(!stream_header_forgeries(&[0u8; 64], 32).is_empty());
    }
}
