//! Exhaustive corruption corpus over one representative stream and archive:
//! every single-bit flip must decode to a typed error or a value, and every
//! strict-prefix truncation to a typed error — never a panic. Forged element
//! counts in v2 streams must reach each stage decoder that sizes its output
//! by the count and come back as typed errors. (The fuzz harness samples
//! these spaces; this test sweeps them completely.)

use ceresz_core::archive::Archive;
use ceresz_core::{CereszConfig, Codec, ErrorBound, Recipe, StageSpec};

fn decompress_bytes(bytes: &[u8]) -> Result<Vec<f32>, ceresz_core::CompressError> {
    Codec::decompressor().decompress(bytes)
}

fn sample_stream() -> Vec<u8> {
    let data: Vec<f32> = (0..32 * 5 + 9)
        .map(|i| (i as f32 * 0.03).sin() * 4.0)
        .collect();
    let cfg = CereszConfig::new(ErrorBound::Abs(1e-3));
    Codec::new(cfg).compress(&data).unwrap().data
}

/// A v2 stream whose header carries explicit recipe bytes.
fn sample_v2_stream() -> Vec<u8> {
    let data: Vec<f32> = (0..32 * 5 + 9)
        .map(|i| (i as f32 * 0.03).sin() * 4.0)
        .collect();
    let recipe = Recipe::new(&[
        StageSpec::PreQuantize,
        StageSpec::Lorenzo1d,
        StageSpec::FixedLength,
        StageSpec::Huffman,
    ])
    .unwrap();
    let cfg = CereszConfig::new(ErrorBound::Abs(1e-3)).with_recipe(recipe);
    Codec::new(cfg).compress(&data).unwrap().data
}

fn sample_archive() -> Vec<u8> {
    let cfg = CereszConfig::new(ErrorBound::Abs(1e-3));
    let mut a = Archive::new();
    let field1: Vec<f32> = (0..96).map(|i| (i as f32 * 0.1).cos()).collect();
    let field2: Vec<f32> = (0..40).map(|i| i as f32 * 0.5).collect();
    a.add_field("temperature", &[8, 12], &field1, &cfg).unwrap();
    a.add_field("pressure", &[40], &field2, &cfg).unwrap();
    a.to_bytes()
}

#[test]
fn every_stream_bit_flip_is_safe() {
    let valid = sample_stream();
    for byte in 0..valid.len() {
        for bit in 0..8 {
            let mut m = valid.clone();
            m[byte] ^= 1 << bit;
            // Must not panic.
            let _ = decompress_bytes(&m);
        }
    }
}

#[test]
fn every_v2_stream_bit_flip_is_safe() {
    // Sweeps the recipe bytes and the entropy-coded payload as well as the
    // fixed header fields.
    let valid = sample_v2_stream();
    for byte in 0..valid.len() {
        for bit in 0..8 {
            let mut m = valid.clone();
            m[byte] ^= 1 << bit;
            let _ = decompress_bytes(&m);
        }
    }
}

#[test]
fn every_v2_stream_truncation_is_rejected() {
    let valid = sample_v2_stream();
    for cut in 0..valid.len() {
        assert!(
            decompress_bytes(&valid[..cut]).is_err(),
            "decoder accepted a {cut}-byte prefix of a {}-byte v2 stream",
            valid.len()
        );
    }
}

#[test]
fn every_stream_truncation_is_rejected() {
    let valid = sample_stream();
    for cut in 0..valid.len() {
        assert!(
            decompress_bytes(&valid[..cut]).is_err(),
            "decoder accepted a {cut}-byte prefix of a {}-byte stream",
            valid.len()
        );
    }
}

#[test]
fn every_archive_bit_flip_is_safe() {
    let valid = sample_archive();
    for byte in 0..valid.len() {
        for bit in 0..8 {
            let mut m = valid.clone();
            m[byte] ^= 1 << bit;
            // The parse may accept payload flips; decoding each field must
            // then itself return a typed error or data — never panic.
            if let Ok(archive) = Archive::from_bytes(&m) {
                for f in archive.fields() {
                    let _ = f.decompress();
                }
            }
        }
    }
}

#[test]
fn every_archive_truncation_is_rejected() {
    let valid = sample_archive();
    for cut in 0..valid.len() {
        assert!(
            Archive::from_bytes(&valid[..cut]).is_err(),
            "archive parser accepted a {cut}-byte prefix of a {}-byte archive",
            valid.len()
        );
    }
}

#[test]
fn forged_length_fields_are_rejected() {
    let stream = sample_stream();
    for m in conformance::mutate::stream_header_forgeries(&stream, 32) {
        assert!(
            decompress_bytes(&m.bytes).is_err(),
            "decoder accepted: {}",
            m.what
        );
    }
    let archive = sample_archive();
    for m in conformance::mutate::archive_forgeries(&archive) {
        assert!(
            Archive::from_bytes(&m.bytes).is_err(),
            "archive parser accepted: {}",
            m.what
        );
    }
}

/// Every forged element count in a v2 stream of `data` under `recipe` —
/// among them `u64::MAX / 2` and `2^40` — must be a typed error: no
/// overflow panic, and no allocation sized by the forged count.
fn assert_forged_counts_rejected(recipe: &str, block_size: usize, data: &[f32], eps: f64) {
    let cfg = CereszConfig::new(ErrorBound::Abs(eps))
        .with_block_size(block_size)
        .with_recipe(Recipe::parse(recipe).unwrap());
    let stream = Codec::new(cfg).compress(data).unwrap().data;
    assert_eq!(decompress_bytes(&stream).unwrap().len(), data.len());
    let forgeries = conformance::mutate::count_forgeries(&stream, block_size);
    for count in [u64::MAX / 2, 1 << 40] {
        let what = format!("forged count = {count}");
        assert!(forgeries.iter().any(|m| m.what == what), "{what} missing");
    }
    for m in forgeries {
        assert!(
            decompress_bytes(&m.bytes).is_err(),
            "{recipe}: decoder accepted {}",
            m.what
        );
    }
}

fn smooth(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.07).sin() * 3.0).collect()
}

#[test]
fn forged_counts_are_rejected_by_the_mantissa_split_decoder() {
    assert_forged_counts_rejected("mantissa,huffman", 32, &smooth(100), 1e-3);
}

#[test]
fn forged_counts_are_rejected_by_the_bf16_decoder() {
    assert_forged_counts_rejected("bf16,huffman", 32, &smooth(100), 0.1);
}

#[test]
fn forged_counts_are_rejected_by_the_2d_lorenzo_decoder() {
    // 8×8 tiles, one tile per 64-element block, over a 12×20 field.
    assert_forged_counts_rejected("quantize,lorenzo2:12x20x8,fixed", 64, &smooth(240), 1e-3);
}
