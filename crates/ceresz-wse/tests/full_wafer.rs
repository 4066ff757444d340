//! Full-wafer smoke: the paper-shaped multi-pipeline strategy instantiated
//! on every usable CS-2 PE (750 × 994), run end to end with a tiny block
//! count. Two rows carry one real block each (padded to a whole round of
//! zero blocks, which replay the seeded zero-block memo); the other 748
//! rows are idle, and idle rows cost nothing in either engine — that is
//! what keeps a 745 500-PE mesh inside a smoke-test budget.
//!
//! What the small run still certifies at full-wafer scale:
//! * mapping, routing, and static verification succeed on the real mesh
//!   extents (routes, colors, and SRAM budgets at 750 × 994);
//! * the discrete-event engine and the cycle-stepped reference produce
//!   bit-identical [`RunReport`]s;
//! * the report is bitwise invariant across 1/2/8 worker threads (exact
//!   counts, so real multi-threaded merges run even on a 1-core host);
//! * the compressed stream matches the serial reference codec bit for bit;
//! * the process's peak resident set stays under [`PEAK_RSS_CEILING_MB`].

use ceresz_core::{CereszConfig, Codec, ErrorBound};
use ceresz_wse::{execute, EngineMode, SimOptions, StrategyKind, StrategyRun};
use wse_sim::{CS2_USABLE_COLS, CS2_USABLE_ROWS};

/// Ceiling on this test's peak resident set (`VmHWM`), about 2× the
/// measured peak, the same 2× rule as the simulator's `event_cost` and
/// `verify_cost` gates. Per-PE state sized by the colors each PE uses
/// brought the peak from 2 548 MB to 415 MB (release and debug builds, x86-64
/// Linux); the dense 24-color tables it replaced fail this gate.
const PEAK_RSS_CEILING_MB: u64 = 830;

/// Peak resident set of this process in MB, from `VmHWM` in
/// `/proc/self/status`; `None` where that file does not exist.
fn peak_rss_mb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024)
}

/// 142 pipelines of length 7 per row fill all 994 usable columns.
fn full_wafer_kind() -> StrategyKind {
    StrategyKind::MultiPipeline {
        rows: CS2_USABLE_ROWS,
        pipeline_length: 7,
        pipelines_per_row: 142,
    }
}

fn smoke_data(cfg: &CereszConfig) -> Vec<f32> {
    // Two blocks of signal: block 0 lands on row 0, block 1 on row 1.
    (0..2 * cfg.block_size)
        .map(|i| (i as f32 * 0.021).sin() * 12.0 + (i as f32 * 0.0031).cos())
        .collect()
}

fn run_with(options: &SimOptions) -> StrategyRun {
    let kind = full_wafer_kind();
    assert_eq!(kind.mesh_shape(), (CS2_USABLE_ROWS, CS2_USABLE_COLS));
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
    let data = smoke_data(&cfg);
    execute(kind, &data, &cfg, options).expect("full-wafer run succeeds")
}

#[test]
fn full_wafer_engines_and_threads_agree() {
    let event = run_with(&SimOptions::default());

    // The whole usable wafer is mapped even though only two rows carry
    // signal: every row hosts 142 pipelines x 7 PEs.
    let stats = &event.stats;
    assert!(stats.active_pes > 0 && stats.active_pes <= 2 * 142 * 7);
    assert!(stats.finish_cycle.ticks() > 0);

    // The compressed stream is the reference codec's, bit for bit.
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
    let reference = Codec::new(cfg)
        .compress(&smoke_data(&cfg))
        .expect("reference compresses");
    assert_eq!(event.compressed.data, reference.data);

    // Cycle-stepped reference: bit-identical report, wavelet for wavelet
    // and tick for tick, on the full 750x994 mesh.
    let stepped = run_with(&SimOptions::default().with_engine(EngineMode::CycleStepped));
    assert_eq!(
        event.report, stepped.report,
        "event-driven diverged from the cycle-stepped reference at full-wafer scale"
    );

    // Thread sweep with exact counts: real sharded merges, bitwise
    // invariant, even on a 1-core host.
    for threads in [2usize, 8] {
        let run = run_with(&SimOptions::default().with_threads_exact(threads));
        assert_eq!(
            run.report, event.report,
            "full-wafer report diverged at {threads} threads"
        );
    }

    if let Some(peak) = peak_rss_mb() {
        println!("full-wafer smoke peak RSS: {peak} MB");
        assert!(
            peak <= PEAK_RSS_CEILING_MB,
            "full-wafer smoke peaked at {peak} MB, over the {PEAK_RSS_CEILING_MB} MB ceiling"
        );
    }
}
