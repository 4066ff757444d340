//! Workspace-level property tests: arbitrary data through the full stack.

use ceresz::core::{verify_error_bound, CereszConfig, Codec, ErrorBound};
use ceresz::wse::{execute, SimOptions, StrategyKind};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any finite data, any strategy: the simulated wafer output is
    /// bit-identical to the host reference, and the bound holds.
    #[test]
    fn wafer_equals_host_for_arbitrary_data(
        data in prop::collection::vec(-1e5f32..1e5, 32..512),
        rows in 1usize..4,
        len in 1usize..4,
        pipes in 1usize..3,
    ) {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let reference = Codec::new(cfg).compress(&data).unwrap();
        let strategy = StrategyKind::MultiPipeline {
            rows,
            pipeline_length: len,
            pipelines_per_row: pipes,
        };
        let run = execute(strategy, &data, &cfg, &SimOptions::default()).unwrap();
        prop_assert_eq!(&run.compressed.data, &reference.data);
        let restored = Codec::decompressor()
            .decompress(&run.compressed.data)
            .unwrap();
        prop_assert!(verify_error_bound(&data, &restored, reference.stats.eps));
    }

    /// Baseline codecs honor arbitrary REL bounds on arbitrary data.
    #[test]
    fn baselines_honor_arbitrary_bounds(
        data in prop::collection::vec(-1e4f32..1e4, 16..300),
        lambda_exp in 1..5i32,
    ) {
        use baselines::traits::Codec;
        let bound = ErrorBound::Rel(10f64.powi(-lambda_exp));
        let dims = vec![data.len()];
        let sz3 = baselines::sz3::Sz3;
        let c = sz3.compress(&data, &dims, bound).unwrap();
        let r = sz3.decompress(&c).unwrap();
        prop_assert!(verify_error_bound(&data, &r, c.eps));
        let cusz = baselines::cusz::CuSz;
        let c = cusz.compress(&data, &dims, bound).unwrap();
        let r = cusz.decompress(&c).unwrap();
        prop_assert!(verify_error_bound(&data, &r, c.eps));
    }

    /// Huffman round-trips arbitrary symbol streams end to end.
    #[test]
    fn huffman_roundtrip_arbitrary(symbols in prop::collection::vec(0u32..10_000, 0..2_000)) {
        let enc = ceresz::huffman::codec::encode(&symbols).unwrap();
        prop_assert_eq!(ceresz::huffman::codec::decode(&enc).unwrap(), symbols);
    }

    /// Static-analysis soundness (fuzzer oracle 6, pinned as a property):
    /// for arbitrary data and multi-pipeline shapes the analyzer proves
    /// deadlock-freedom and its bounds dominate the flight-recorded run.
    #[test]
    fn static_profile_is_sound_for_arbitrary_shapes(
        data in prop::collection::vec(-1e5f32..1e5, 32..512),
        rows in 1usize..4,
        len in 1usize..4,
        pipes in 1usize..3,
    ) {
        use ceresz::wse::{analyze_mapping, check_soundness, mapping_manifest, observe};
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let strategy = StrategyKind::MultiPipeline {
            rows,
            pipeline_length: len,
            pipelines_per_row: pipes,
        };
        let manifest = mapping_manifest(&data, &cfg, strategy).unwrap();
        let profile = analyze_mapping(&manifest);
        prop_assert!(profile.is_deadlock_free(), "{}: {:?}", manifest.name, profile.deadlock);
        let options = SimOptions::default().with_flight_window(512);
        let rep = observe(&strategy, &data, &cfg, &options).unwrap();
        let sound = check_soundness(&profile, &rep.stats, &rep.flight, &rep.mem_peak_bytes);
        prop_assert!(sound.is_sound(), "{}: {:?}", manifest.name, sound.violations);
    }
}
