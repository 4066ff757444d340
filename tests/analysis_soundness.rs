//! Static-analyzer soundness across the strategy × shape sweep.
//!
//! For every shipping mapping the static performance analyzer
//! (`wse_verify::analysis`) must produce bounds the dynamic run can never
//! escape: per-link worst-case load ≥ flight-recorded occupancy, the
//! critical-path lower bound ≤ the simulated makespan, the SRAM watermark ≥
//! the observed peak (and nonzero on every PE that computes), and the
//! channel-dependency check must *prove* the mapping deadlock-free.
//! `ceresz lint --analyze --all-strategies` sweeps all 32 EXPERIMENTS.md
//! shapes in CI; this test pins a representative subset (every strategy
//! family, 1-row and multi-row shapes) in the regular suite.

use ceresz::core::{CereszConfig, ErrorBound};
use ceresz::sim::Metric;
use ceresz::wse::{
    analyze_mapping, check_soundness, mapping_manifest, observe, SimOptions, StrategyKind,
};

fn wavy(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (i as f32 * 0.013).sin() * 10.0 + (i as f32 * 0.0041).cos() * 3.0)
        .collect()
}

fn shapes() -> Vec<StrategyKind> {
    vec![
        StrategyKind::RowParallel { rows: 1 },
        StrategyKind::RowParallel { rows: 4 },
        StrategyKind::RowParallel { rows: 16 },
        StrategyKind::Pipeline {
            rows: 1,
            pipeline_length: 4,
        },
        StrategyKind::Pipeline {
            rows: 2,
            pipeline_length: 8,
        },
        StrategyKind::MultiPipeline {
            rows: 1,
            pipeline_length: 1,
            pipelines_per_row: 4,
        },
        StrategyKind::MultiPipeline {
            rows: 2,
            pipeline_length: 2,
            pipelines_per_row: 3,
        },
        StrategyKind::MultiPipeline {
            rows: 2,
            pipeline_length: 4,
            pipelines_per_row: 2,
        },
    ]
}

#[test]
fn static_bounds_dominate_the_observed_run_for_every_shape() {
    let data = wavy(32 * 128);
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
    let options = SimOptions::default().with_flight_window(1024);
    for strategy in shapes() {
        let manifest = mapping_manifest(&data, &cfg, strategy).unwrap();
        let profile = analyze_mapping(&manifest);
        assert!(
            profile.is_deadlock_free(),
            "{}: deadlock-freedom not proven: {:?}",
            manifest.name,
            profile.deadlock
        );
        let rep = observe(&strategy, &data, &cfg, &options).unwrap();
        let sound = check_soundness(&profile, &rep.stats, &rep.flight, &rep.mem_peak_bytes);
        assert!(
            sound.is_sound(),
            "{}: {:#?}",
            manifest.name,
            sound.violations
        );

        // The acceptance relations, asserted directly and not only through
        // the checker's own verdict.
        assert!(
            profile.critical_path <= rep.stats.finish_cycle,
            "{}: critical path {} exceeds observed makespan {}",
            manifest.name,
            profile.critical_path,
            rep.stats.finish_cycle
        );
        for (&(from, to), observed) in rep.flight.links() {
            let load = profile
                .links
                .get(&(from, to))
                .unwrap_or_else(|| panic!("{}: {from}->{to} untracked", manifest.name));
            assert!(
                load.wavelets >= observed.wavelets,
                "{}: link {from}->{to} static {} < observed {}",
                manifest.name,
                load.wavelets,
                observed.wavelets
            );
            assert!(
                load.occupancy_bound() >= observed.occupancy.total(),
                "{}: link {from}->{to} occupancy bound too low",
                manifest.name
            );
        }
        let (rows, cols) = rep.mesh;
        for row in 0..rows {
            for col in 0..cols {
                let pe = ceresz::sim::PeId::new(row, col);
                let peak = rep.mem_peak_bytes[row * cols + col];
                assert!(
                    profile.sram_bound(pe) >= peak,
                    "{}: {pe} static watermark {} < observed peak {peak}",
                    manifest.name,
                    profile.sram_bound(pe)
                );
                // A PE that computes holds its stage group's working set:
                // declared statically and reserved at run time.
                if !rep.flight.pe(pe).metric_total(Metric::Busy).is_zero() {
                    assert!(
                        profile.sram_bound(pe) > 0 && peak > 0,
                        "{}: busy {pe} declares {} B and reserves {peak} B of SRAM",
                        manifest.name,
                        profile.sram_bound(pe)
                    );
                }
            }
        }
    }
}
