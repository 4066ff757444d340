//! Cross-crate end-to-end tests: synthetic datasets through the host
//! compressor, every WSE mapping strategy, and the simulated decompressor.

use ceresz::core::{verify_error_bound, CereszConfig, Codec, ErrorBound};
use ceresz::data::{generate_field, DatasetId, ALL_DATASETS};
use ceresz::wse::{execute, execute_decompress, SimOptions, StrategyKind};

/// A small prefix of each dataset keeps the event simulator fast while still
/// exercising real data distributions.
fn sample(ds: DatasetId, n: usize) -> Vec<f32> {
    generate_field(ds, 0, 42).data[..n].to_vec()
}

#[test]
fn every_dataset_roundtrips_on_every_strategy() {
    for ds in ALL_DATASETS {
        let data = sample(ds, 32 * 48);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let reference = Codec::new(cfg).compress(&data).unwrap();
        for strategy in [
            StrategyKind::RowParallel { rows: 4 },
            StrategyKind::Pipeline {
                rows: 2,
                pipeline_length: 3,
            },
            StrategyKind::MultiPipeline {
                rows: 2,
                pipeline_length: 2,
                pipelines_per_row: 2,
            },
        ] {
            let run = execute(strategy, &data, &cfg, &SimOptions::default()).unwrap();
            assert_eq!(
                run.compressed.data, reference.data,
                "{ds:?} {strategy:?} diverged from the host reference"
            );
        }
        let restored = Codec::decompressor().decompress(&reference.data).unwrap();
        assert!(
            verify_error_bound(&data, &restored, reference.stats.eps),
            "{ds:?} bound violated"
        );
    }
}

#[test]
fn simulated_decompression_matches_host_on_all_datasets() {
    for ds in ALL_DATASETS {
        let data = sample(ds, 32 * 40 + 17);
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let c = Codec::new(cfg).compress(&data).unwrap();
        let host = Codec::decompressor().decompress(&c.data).unwrap();
        let rows = StrategyKind::RowParallel { rows: 3 };
        let sim = execute_decompress(rows, &c, &SimOptions::default()).unwrap();
        assert_eq!(sim.restored, host, "{ds:?}");
    }
}

#[test]
fn decompression_beats_compression_in_cycles() {
    // §3's claim, checked in the event simulator on real data.
    let data = sample(DatasetId::CesmAtm, 32 * 64);
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-4));
    let comp = execute(
        StrategyKind::RowParallel { rows: 2 },
        &data,
        &cfg,
        &SimOptions::default(),
    )
    .unwrap();
    let decomp = execute_decompress(comp.kind, &comp.compressed, &SimOptions::default()).unwrap();
    assert!(
        decomp.stats.finish_cycle < comp.stats.finish_cycle,
        "decompression {} !< compression {}",
        decomp.stats.finish_cycle,
        comp.stats.finish_cycle
    );
}

#[test]
fn tighter_bound_means_lower_ratio_on_every_dataset() {
    for ds in ALL_DATASETS {
        let data = generate_field(ds, 0, 42).data;
        let loose = Codec::new(CereszConfig::new(ErrorBound::Rel(1e-2)))
            .compress(&data)
            .unwrap();
        let tight = Codec::new(CereszConfig::new(ErrorBound::Rel(1e-4)))
            .compress(&data)
            .unwrap();
        assert!(
            loose.ratio() > tight.ratio(),
            "{ds:?}: {} !> {}",
            loose.ratio(),
            tight.ratio()
        );
    }
}

#[test]
fn quality_metrics_improve_with_tighter_bounds() {
    let field = generate_field(DatasetId::Nyx, 3, 42);
    let mut last_psnr = 0.0;
    for rel in [1e-2, 1e-3, 1e-4] {
        let c = Codec::new(CereszConfig::new(ErrorBound::Rel(rel)))
            .compress(&field.data)
            .unwrap();
        let r = Codec::decompressor().decompress(&c.data).unwrap();
        let p = ceresz::quality::psnr(&field.data, &r);
        assert!(
            p > last_psnr,
            "PSNR not improving at REL {rel}: {p} vs {last_psnr}"
        );
        last_psnr = p;
    }
    // Uniform quantization at ε = 1e-4·range floors PSNR at
    // 80 + 10·log10(3) = 84.77 dB — the paper's Fig. 15 value. Values that
    // quantize exactly (the zero-heavy bulk of this field) can only raise it.
    assert!(
        (84.7..90.0).contains(&last_psnr),
        "PSNR = {last_psnr}, expected >= 84.77 dB floor"
    );
}
