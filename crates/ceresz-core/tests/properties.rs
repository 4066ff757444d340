//! Property-based tests of the core compression invariants.

use ceresz_core::{verify_error_bound, CereszConfig, Codec, ErrorBound, HeaderWidth};
use proptest::prelude::*;

/// Finite f32 values in a range where REL bounds never overflow quantization.
fn field_values(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1e6f32..1e6f32, 1..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fundamental guarantee: for any finite data and any REL bound in a
    /// sane range, every reconstructed point is within ε of the original.
    #[test]
    fn error_bound_always_honored(
        data in field_values(2048),
        lambda_exp in 1..6i32,
        block_pow in 3u32..8,
    ) {
        let lambda = 10f64.powi(-lambda_exp);
        let cfg = CereszConfig::new(ErrorBound::Rel(lambda))
            .with_block_size(1usize << block_pow);
        let codec = Codec::new(cfg);
        let c = codec.compress(&data).unwrap();
        let r = codec.decompress(&c.data).unwrap();
        prop_assert_eq!(r.len(), data.len());
        prop_assert!(verify_error_bound(&data, &r, c.stats.eps));
    }

    /// Round-trip through the 1-byte-header variant as well.
    #[test]
    fn error_bound_honored_w1_headers(data in field_values(512)) {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3)).with_header(HeaderWidth::W1);
        let codec = Codec::new(cfg);
        let c = codec.compress(&data).unwrap();
        let r = codec.decompress(&c.data).unwrap();
        prop_assert!(verify_error_bound(&data, &r, c.stats.eps));
    }

    /// Compression is deterministic: compressing twice emits the same bytes.
    #[test]
    fn compress_is_deterministic(data in field_values(4096)) {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let a = Codec::new(cfg).compress(&data).unwrap();
        let b = Codec::new(cfg).compress(&data).unwrap();
        prop_assert_eq!(&a.data, &b.data);
    }

    /// Compressing the reconstruction again is idempotent on the quantized
    /// lattice: a second round-trip reproduces the first reconstruction
    /// within one reconstruction ulp (the lattice points are fixed points of
    /// quantization up to f32 rounding).
    #[test]
    fn second_roundtrip_is_stable(data in field_values(512)) {
        let cfg = CereszConfig::new(ErrorBound::Abs(1e-2));
        let codec = Codec::new(cfg);
        let c1 = codec.compress(&data).unwrap();
        let r1 = codec.decompress(&c1.data).unwrap();
        let c2 = codec.compress(&r1).unwrap();
        let r2 = codec.decompress(&c2.data).unwrap();
        for (a, b) in r1.iter().zip(&r2) {
            let ulp = f64::from(f32::EPSILON) * (1.0 + f64::from(a.abs()));
            // A lattice point p·2ε re-quantizes to p or a neighbor only if it
            // sat exactly on a rounding boundary; either way stays within 2ε.
            prop_assert!((f64::from(*a) - f64::from(*b)).abs() <= 2.0 * 1e-2 + ulp);
        }
    }

    /// The stream self-describes: decompress needs nothing but the bytes.
    #[test]
    fn stream_is_self_describing(data in field_values(1024)) {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-2));
        let c = Codec::new(cfg).compress(&data).unwrap();
        let r = Codec::decompressor().decompress(&c.data).unwrap();
        prop_assert_eq!(r.len(), data.len());
    }

    /// Truncating the stream anywhere must yield an error, never a panic or
    /// a silently wrong result of full length.
    #[test]
    fn truncation_fails_cleanly(data in field_values(256), cut in 0usize..200) {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let c = Codec::new(cfg).compress(&data).unwrap();
        let cut = cut.min(c.data.len().saturating_sub(1));
        let r = Codec::decompressor().decompress(&c.data[..cut]);
        prop_assert!(r.is_err());
    }

    /// Lorenzo forward/inverse are exact inverses for arbitrary i64 values in
    /// the supported quantization range.
    #[test]
    fn lorenzo_roundtrip(values in prop::collection::vec(-(1i64<<30)..(1i64<<30), 0..200)) {
        let mut deltas = vec![0i64; values.len()];
        ceresz_core::lorenzo::forward_1d(&values, &mut deltas);
        let mut back = vec![0i64; values.len()];
        ceresz_core::lorenzo::inverse_1d(&deltas, &mut back);
        prop_assert_eq!(back, values);
    }

    /// Bit-shuffle/unshuffle round-trips for any magnitudes and the minimal
    /// sufficient plane count.
    #[test]
    fn bitshuffle_roundtrip(mags in prop::collection::vec(any::<u32>(), 8..64)) {
        use ceresz_core::fixed_length::*;
        // Pad to a multiple of 8 as the codec requires.
        let mut mags = mags;
        while mags.len() % 8 != 0 { mags.push(0); }
        let f = effective_bits(max_magnitude(&mags)).max(1);
        let pb = mags.len().div_ceil(8);
        let mut planes = vec![0u8; f as usize * pb];
        bit_shuffle(&mags, f, &mut planes);
        let mut back = vec![0u32; mags.len()];
        bit_unshuffle(&planes, f, &mut back);
        prop_assert_eq!(back, mags);
    }

    /// Algorithm 1 invariants for arbitrary stage costs: every stage assigned
    /// exactly once, contiguously and in order.
    #[test]
    fn distribute_partitions_stages(
        cycles in prop::collection::vec(1.0f64..10_000.0, 1..40),
        m in 1usize..12,
    ) {
        let g = ceresz_core::plan::distribute_stages(&cycles, m);
        prop_assert_eq!(g.len(), m);
        let mut next = 0usize;
        for i in 0..g.len() {
            let r = g.group(i);
            prop_assert_eq!(r.start, next);
            next = r.end;
        }
        prop_assert_eq!(next, cycles.len());
        let total: f64 = cycles.iter().sum();
        let per_group: f64 = g.group_cycles(&cycles).iter().sum();
        prop_assert!((total - per_group).abs() < 1e-6);
    }

    /// The compressed size accounting in stats always matches reality.
    #[test]
    fn stats_account_for_all_bytes(data in field_values(2048)) {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let c = Codec::new(cfg).compress(&data).unwrap();
        prop_assert_eq!(c.stats.compressed_bytes, c.data.len());
        prop_assert_eq!(c.stats.n_blocks, data.len().div_ceil(cfg.block_size));
    }
}
