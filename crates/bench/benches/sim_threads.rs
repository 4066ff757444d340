//! Wall-clock scaling of the sharded simulator core: the same 128×128
//! multi-pipeline compression run event-stepped serially and with 2, 4, and
//! 8 worker threads. Every run's `RunReport` is asserted bit-identical to
//! the serial one — the speedup table is only meaningful because the
//! parallelism is unobservable.
//!
//! Results are written to `BENCH_sim.json` at the workspace root:
//!
//! * a `runs` table of wall seconds per thread count, recording both the
//!   *requested* and the *effective* thread count (requests are clamped to
//!   the host's available parallelism unless made exact, so `speedup` is
//!   interpretable on a small CI box; a clamped request takes the same
//!   serial path as `threads = 1`, so its speedup should sit at ~1.0);
//! * a `deterministic` block of tick-exact metrics (finish/busy ticks,
//!   task/wavelet counts, compressed size, and the flight recorder's
//!   stall-cause totals) that is identical on every host — wall seconds
//!   are noise on a loaded CI box, the deterministic block is not (its
//!   committed gate is `BENCH_baseline.json` via the `perf_gate` binary);
//! * a `sparse` block comparing the discrete-event engine against the
//!   cycle-stepped reference on an RTM-style zero-heavy workload, where
//!   long event-free stretches are the norm and skipping them is the whole
//!   point of the event queue. Both engines must produce bit-identical
//!   reports; the event engine must not be slower;
//! * an `event_cost` block timing the simulator alone (mapping and host-side
//!   verification excluded) on the sparse workload: events processed, wall
//!   nanoseconds per event, and events per second for both engines, plus the
//!   pre-refactor baselines the improvement is measured against;
//! * a `verify_cost` block timing the static verifier alone
//!   (`wse_verify::verify`, best of five) on the 128×128 sparse workload's
//!   manifest, in wall nanoseconds per PE;
//! * a `full_wafer` block: the paper-shaped multi-pipeline strategy on the
//!   CS-2's full usable 750×994 mesh, event-stepped end to end, with the
//!   verifier's and the simulator's wall time, events per second, and a
//!   tick-exact deterministic sub-block;
//! * a `provenance` block: the commit measured (read from `.git`), the host
//!   parallelism, and how many runs each wall-clock figure is the best of.
//!
//! Run: `cargo bench -p ceresz-bench --bench sim_threads`
//! Full wafer only: `cargo bench -p ceresz-bench --bench sim_threads -- --full-wafer`
//! CI smoke: `cargo bench -p ceresz-bench --bench sim_threads -- --sparse-only`
//! (the smoke also fails if the measured ns/event or verify ns/PE regresses
//! more than 2× past the committed `event_cost` / `verify_cost` figure)

use std::time::Instant;

use ceresz_core::{CereszConfig, ErrorBound};
use ceresz_wse::strategy::Strategy;
use ceresz_wse::{execute, mapping_manifest, EngineMode, MappedMesh, SimOptions, StrategyKind};
use datasets::{generate_field, DatasetId};
use wse_sim::{MeshConfig, RunReport};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Pre-refactor per-event cost on the sparse workload as this repository
/// recorded it (`BENCH_sim.json` before the hot-path flattening:
/// `event_driven_seconds` 0.2458 over 198 387 events — wall time of
/// `execute`, so mapping and host-side verification included).
const BASELINE_RECORDED_NS_PER_EVENT: f64 = 1239.0;

/// Pre-refactor cost of the simulator alone (same workload, same host,
/// `Simulator::run` wall only), measured at the commit preceding the
/// flattening. Tighter than the recorded figure because it excludes the
/// host-side work `execute` does around the simulation.
const BASELINE_ENGINE_NS_PER_EVENT: f64 = 790.0;

/// The shared 128×128 scenario: 16 pipelines of length 8 per row.
fn mesh_kind() -> StrategyKind {
    StrategyKind::MultiPipeline {
        rows: 128,
        pipeline_length: 8,
        pipelines_per_row: 16,
    }
}

/// The paper-shaped full-wafer scenario: every usable CS-2 PE (750 × 994)
/// occupied by 142 pipelines of length 7 per row.
fn full_wafer_kind() -> StrategyKind {
    StrategyKind::MultiPipeline {
        rows: wse_sim::CS2_USABLE_ROWS,
        pipeline_length: 7,
        pipelines_per_row: 142,
    }
}

/// RTM-style zero-heavy field: seismic wavefields are zero almost
/// everywhere early in the simulation, with a sparse active front. One in
/// sixteen blocks carries signal; the rest hit the zero fast path, so the
/// mesh spends most cycles with no events anywhere — the workload the
/// discrete-event core exists for.
fn sparse_data(n_blocks: usize, block_size: usize) -> Vec<f32> {
    let field = generate_field(DatasetId::QmcPack, 0, 2024);
    let mut data = vec![0f32; n_blocks * block_size];
    for b in (0..n_blocks).step_by(16) {
        for i in 0..block_size {
            data[b * block_size + i] = field.data[(b * block_size + i) % field.data.len()];
        }
    }
    data
}

/// Map `kind` onto a fresh mesh stepped by `engine`.
fn mapped_mesh(
    kind: StrategyKind,
    data: &[f32],
    cfg: &CereszConfig,
    engine: EngineMode,
) -> MappedMesh {
    let (rows, cols) = kind.mesh_shape();
    let mut mesh = MappedMesh::new(
        kind.mesh_name(),
        MeshConfig::new(rows, cols).with_engine(engine),
        rows,
        cols,
    );
    kind.map(&mut mesh, data, cfg).expect("mapping succeeds");
    mesh
}

/// Time `Simulator::run` alone on a mapped mesh — the engine's own wall
/// clock, with mapping and host-side verification excluded. This is the
/// denominator-for-denominator comparison behind the `event_cost` block.
fn time_run(mesh: MappedMesh) -> (f64, RunReport) {
    let t0 = Instant::now();
    let report = mesh.into_sim().run().expect("simulation runs");
    (t0.elapsed().as_secs_f64(), report)
}

/// Best sim-only wall seconds over `rounds` fresh runs (the first report is
/// returned; all runs are bit-identical, which `run_sparse` asserts through
/// `execute`).
fn best_sim_wall(
    kind: StrategyKind,
    data: &[f32],
    cfg: &CereszConfig,
    engine: EngineMode,
    rounds: usize,
) -> (f64, RunReport) {
    let (mut best, report) = time_run(mapped_mesh(kind, data, cfg, engine));
    for _ in 1..rounds {
        let (s, _) = time_run(mapped_mesh(kind, data, cfg, engine));
        best = best.min(s);
    }
    (best, report)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sparse_only = args.iter().any(|a| a == "--sparse-only");
    let full_wafer_only = args.iter().any(|a| a == "--full-wafer");

    let kind = mesh_kind();
    assert_eq!(kind.mesh_shape(), (128, 128));
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);

    if full_wafer_only {
        run_full_wafer(&cfg);
        return;
    }

    // Cost first: the per-event figure is the artifact's headline number,
    // and measuring it on a fresh heap (before the engine-comparison runs
    // churn the allocator) keeps it reproducible run to run.
    let event_cost = run_event_cost(kind, &cfg);
    let verify_cost = run_verify_cost(kind, &cfg);
    let sparse = run_sparse(kind, &cfg, host_parallelism);
    if sparse_only {
        check_cost_regression(&event_cost, &["event_cost", "event_driven", "ns_per_event"]);
        check_cost_regression(&verify_cost, &["verify_cost", "ns_per_pe"]);
        println!(
            "sparse smoke passed (event engine not slower, reports bit-identical, \
             costs within 2x of the committed figures)"
        );
        return;
    }

    let field = generate_field(DatasetId::QmcPack, 0, 2024);
    // Two whole rounds per pipeline: 128 rows × 16 pipelines × 2.
    let n_blocks = 128 * 16 * 2;
    let data: Vec<f32> = field
        .data
        .iter()
        .copied()
        .cycle()
        .take(32 * n_blocks)
        .collect();

    println!("sim_threads: {kind:?}, {n_blocks} blocks, host parallelism {host_parallelism}");

    // The flight recorder stays on: the timing table then also certifies
    // that observation (series, stage attribution, timeline) does not
    // perturb scaling, and the serial run's recording feeds the
    // deterministic block below.
    let options_for = |threads: usize| {
        SimOptions::default()
            .with_threads(threads)
            .with_flight_window(1024)
    };
    // Best of three, with trials interleaved round-robin across thread
    // counts rather than run back-to-back per row: the table's signal is
    // the speedup ratio, and both a descheduling blip and slow machine
    // drift would otherwise masquerade as a threading regression.
    let mut walls = [f64::INFINITY; THREAD_COUNTS.len()];
    let mut serial: Option<ceresz_wse::StrategyRun> = None;
    for _trial in 0..3 {
        for (i, threads) in THREAD_COUNTS.iter().copied().enumerate() {
            let options = options_for(threads);
            let t0 = Instant::now();
            let run = execute(kind, &data, &cfg, &options).expect("simulation runs");
            walls[i] = walls[i].min(t0.elapsed().as_secs_f64());
            match &serial {
                None => serial = Some(run),
                Some(base) => assert!(
                    run.report == base.report,
                    "{threads}-thread report diverged from serial"
                ),
            }
        }
    }
    let mut rows = Vec::new();
    for (i, threads) in THREAD_COUNTS.iter().copied().enumerate() {
        let effective = options_for(threads).effective_threads();
        let seconds = walls[i];
        let speedup = walls[0] / seconds;
        println!(
            "  threads {threads:>2} (effective {effective:>2}): {seconds:>7.3} s  \
             speedup {speedup:.2}x  bit-identical"
        );
        rows.push(format!(
            "    {{ \"requested_threads\": {threads}, \"effective_threads\": {effective}, \
             \"wall_seconds\": {seconds:.4}, \"speedup_vs_serial\": {speedup:.3}, \
             \"report_identical\": true }}"
        ));
    }

    // Tick-exact metrics of the (bit-identical) run: the part of this
    // artifact that must not move between hosts or thread counts. Every
    // value is an exact integer.
    let serial_run = serial.as_ref().expect("at least one run");
    let stats = &serial_run.stats;
    let flight = serial_run
        .report
        .flight()
        .expect("flight sampling was enabled");
    let stall_fields: Vec<String> = flight
        .stall_totals()
        .iter()
        .filter(|(cause, _)| **cause != "compute")
        .map(|(cause, time)| format!("    \"stall_{cause}_ticks\": {}", time.ticks()))
        .collect();
    let deterministic = format!(
        "  \"deterministic\": {{\n    \"finish_ticks\": {},\n    \
         \"total_busy_ticks\": {},\n    \"total_tasks\": {},\n    \
         \"total_wavelets\": {},\n    \"active_pes\": {},\n    \
         \"compressed_bytes\": {},\n{}\n  }}",
        stats.finish_cycle.ticks(),
        stats.total_busy_cycles.ticks(),
        stats.total_tasks,
        stats.total_wavelets,
        stats.active_pes,
        serial_run.compressed.data.len(),
        stall_fields.join(",\n")
    );

    let full_wafer = run_full_wafer(&cfg);

    let json = format!(
        "{{\n  \"bench\": \"sim_threads\",\n  \"strategy\": \"{kind}\",\n  \
         \"mesh\": [128, 128],\n  \"blocks\": {n_blocks},\n  \
         \"host_parallelism\": {host_parallelism},\n  \
         \"ticks_per_cycle\": {},\n  \
         \"note\": \"speedup is bounded by effective_threads (requests are \
         clamped to host_parallelism); the determinism assertion \
         (bit-identical RunReport at every thread count) holds regardless, \
         and the deterministic block is tick-exact on every host\",\n\
         {deterministic},\n  \"runs\": [\n{}\n  ],\n{sparse},\n{event_cost},\n{verify_cost},\n{full_wafer},\n  \
         \"provenance\": {{\n    \"commit\": \"{}\",\n    \
         \"host_parallelism\": {host_parallelism},\n    \
         \"best_of\": {{ \"runs\": 3, \"sparse\": 1, \"event_cost_event_driven\": 5, \
         \"event_cost_cycle_stepped\": 1, \"verify_cost\": 5, \"full_wafer\": 1 }}\n  }}\n}}\n",
        wse_sim::TICKS_PER_CYCLE,
        rows.join(",\n"),
        commit()
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    std::fs::write(out, &json).expect("write BENCH_sim.json");
    println!("wrote {out}");
}

/// The commit of the workspace being measured, read from `.git` without
/// running git; `unknown` outside a git checkout.
fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../.git");
    let read = |p: &std::path::Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(&git.join(reference))
        .map(|h| h.trim().to_owned())
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference)?.split_whitespace().next())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The sparse engine comparison: event-driven vs cycle-stepped on the
/// zero-heavy workload, plus the 1/2/8-thread bit-identity sweep for the
/// event engine. Returns the formatted `"sparse"` JSON member.
fn run_sparse(kind: StrategyKind, cfg: &CereszConfig, host_parallelism: usize) -> String {
    // Three rounds per pipeline: 6144 blocks, 1-in-16 dense. Multiple
    // rounds matter: queued blocks keep receives posted, which is what the
    // cycle-stepped core must re-poll on every one of its idle cycles.
    let n_blocks = 128 * 16 * 3;
    let data = sparse_data(n_blocks, cfg.block_size);
    println!(
        "sparse (RTM-style zero-heavy): {n_blocks} blocks, 1-in-16 dense, \
         host parallelism {host_parallelism}"
    );

    let time_engine = |engine: EngineMode| {
        let options = SimOptions::default().with_engine(engine);
        let t0 = Instant::now();
        let run = execute(kind, &data, cfg, &options).expect("simulation runs");
        (t0.elapsed().as_secs_f64(), run)
    };
    let (event_seconds, event_run) = time_engine(EngineMode::EventDriven);
    let (stepped_seconds, stepped_run) = time_engine(EngineMode::CycleStepped);
    assert_eq!(
        event_run.report, stepped_run.report,
        "event-driven report diverged from the cycle-stepped reference"
    );
    let speedup = stepped_seconds / event_seconds;
    println!(
        "  event-driven {event_seconds:>7.3} s vs cycle-stepped {stepped_seconds:>7.3} s: \
         {speedup:.1}x, bit-identical"
    );
    assert!(
        event_seconds <= stepped_seconds,
        "event engine slower than cycle-stepped on the sparse workload \
         ({event_seconds:.3}s vs {stepped_seconds:.3}s)"
    );

    // Thread sweep on the event engine: exact counts so the sweep exercises
    // real sharding even on a 1-core host.
    for threads in [1usize, 2, 8] {
        let options = SimOptions::default().with_threads_exact(threads);
        let run = execute(kind, &data, cfg, &options).expect("simulation runs");
        assert_eq!(
            run.report, event_run.report,
            "sparse event-driven report diverged at {threads} threads"
        );
    }
    println!("  event-driven bit-identical at 1/2/8 threads");

    format!(
        "  \"sparse\": {{\n    \"blocks\": {n_blocks},\n    \
         \"dense_fraction\": 0.0625,\n    \
         \"finish_ticks\": {},\n    \
         \"event_driven_seconds\": {event_seconds:.4},\n    \
         \"cycle_stepped_seconds\": {stepped_seconds:.4},\n    \
         \"event_speedup\": {speedup:.2},\n    \
         \"report_identical\": true,\n    \
         \"thread_sweep_identical\": [1, 2, 8]\n  }}",
        event_run.stats.finish_cycle.ticks()
    )
}

/// Per-event cost of the simulator alone on the sparse workload, both
/// engines, best of three fresh runs each. Returns the formatted
/// `"event_cost"` JSON member.
fn run_event_cost(kind: StrategyKind, cfg: &CereszConfig) -> String {
    let n_blocks = 128 * 16 * 3;
    let data = sparse_data(n_blocks, cfg.block_size);

    // Best of five: the event engine's whole run is ~50 ms of wall, so on a
    // busy CI box a single co-tenant burst can inflate one trial by 30%+.
    let (event_wall, event_report) = best_sim_wall(kind, &data, cfg, EngineMode::EventDriven, 5);
    // One round suffices for the cycle-stepped reference: at ~6 s of wall
    // its relative timing noise is far below the ratio being reported.
    let (stepped_wall, stepped_report) =
        best_sim_wall(kind, &data, cfg, EngineMode::CycleStepped, 1);
    assert_eq!(
        event_report.stats().events_processed,
        stepped_report.stats().events_processed,
        "engines disagree on the event count"
    );
    let events = event_report.stats().events_processed;
    let per_engine = |wall: f64| {
        let ns = wall * 1e9 / events as f64;
        format!(
            "{{ \"sim_wall_seconds\": {wall:.4}, \"ns_per_event\": {ns:.0}, \
             \"events_per_sec\": {:.0} }}",
            events as f64 / wall
        )
    };
    let event_ns = event_wall * 1e9 / events as f64;
    println!(
        "event cost (sim only, best of 5): {events} events, \
         event-driven {event_ns:.0} ns/event, \
         improvement {0:.1}x vs recorded / {1:.1}x vs engine-only baseline",
        BASELINE_RECORDED_NS_PER_EVENT / event_ns,
        BASELINE_ENGINE_NS_PER_EVENT / event_ns,
    );

    format!(
        "  \"event_cost\": {{\n    \
         \"workload\": \"sparse {n_blocks} blocks, 1-in-16 dense, sim wall only\",\n    \
         \"events_processed\": {events},\n    \
         \"event_driven\": {},\n    \
         \"cycle_stepped\": {},\n    \
         \"baseline_ns_per_event_recorded\": {BASELINE_RECORDED_NS_PER_EVENT:.0},\n    \
         \"baseline_ns_per_event_engine_only\": {BASELINE_ENGINE_NS_PER_EVENT:.0},\n    \
         \"improvement_vs_recorded\": {:.2},\n    \
         \"improvement_vs_engine_only\": {:.2},\n    \
         \"note\": \"baseline_ns_per_event_recorded derives from the \
         pre-refactor BENCH_sim.json (event_driven_seconds over the same \
         workload, execute wall: mapping + verification included); \
         baseline_ns_per_event_engine_only is the pre-refactor simulator \
         wall measured at the preceding commit, same denominator as \
         ns_per_event here\"\n  }}",
        per_engine(event_wall),
        per_engine(stepped_wall),
        BASELINE_RECORDED_NS_PER_EVENT / event_ns,
        BASELINE_ENGINE_NS_PER_EVENT / event_ns,
    )
}

/// Per-PE wall cost of the static verifier alone on the sparse workload's
/// manifest, best of five. Returns the formatted `"verify_cost"` JSON
/// member.
fn run_verify_cost(kind: StrategyKind, cfg: &CereszConfig) -> String {
    let n_blocks = 128 * 16 * 3;
    let data = sparse_data(n_blocks, cfg.block_size);
    let manifest = mapping_manifest(&data, cfg, kind).expect("mapping succeeds");
    let pes = manifest.rows * manifest.cols;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        let report = ceresz_wse::verify::verify(&manifest);
        best = best.min(t0.elapsed().as_secs_f64());
        assert!(report.is_clean(), "{report}");
    }
    let ns_per_pe = best * 1e9 / pes as f64;
    println!("verify cost (best of 5): {pes} PEs in {best:.4} s, {ns_per_pe:.0} ns/PE");
    format!(
        "  \"verify_cost\": {{\n    \
         \"workload\": \"sparse {n_blocks} blocks, static verification only\",\n    \
         \"pes\": {pes},\n    \
         \"verify_seconds\": {best:.4},\n    \
         \"ns_per_pe\": {ns_per_pe:.0}\n  }}"
    )
}

/// Fail the CI smoke if a measured wall cost regressed more than 2× past
/// its committed figure. `fresh` is the freshly formatted JSON member and
/// `path` the keys leading to the figure, from the member's name down; the
/// committed artifact is read from `BENCH_sim.json` at the workspace root.
fn check_cost_regression(fresh: &str, path: &[&str]) {
    let figure = |text: &str| {
        let root = telemetry::json::parse(text).ok()?;
        let mut value = &root;
        for key in path {
            value = value.get(key)?;
        }
        value.as_f64()
    };
    let name = path.join(".");
    let measured = figure(&format!("{{\n{fresh}\n}}")).expect("freshly formatted member parses");
    let committed_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    let Ok(committed_text) = std::fs::read_to_string(committed_path) else {
        println!("  no committed BENCH_sim.json; skipping the {name} regression check");
        return;
    };
    let Some(committed) = figure(&committed_text) else {
        println!("  committed BENCH_sim.json has no {name}; skipping its regression check");
        return;
    };
    println!(
        "  {name}: measured {measured:.0} vs committed {committed:.0} (limit {:.0})",
        committed * 2.0
    );
    assert!(
        measured <= committed * 2.0,
        "{name} regressed: {measured:.0} measured vs {committed:.0} committed (limit 2x)"
    );
}

/// The full-wafer run: the paper-shaped strategy on all 750×994 usable PEs,
/// one whole round per pipeline of real field data, event-stepped. Prints
/// the headline numbers and returns the formatted `"full_wafer"` JSON
/// member.
fn run_full_wafer(cfg: &CereszConfig) -> String {
    let kind = full_wafer_kind();
    let (rows, cols) = kind.mesh_shape();
    assert_eq!(
        (rows, cols),
        (wse_sim::CS2_USABLE_ROWS, wse_sim::CS2_USABLE_COLS)
    );
    let pipelines = 142 * rows;
    let n_blocks = pipelines; // one round everywhere
    let field = generate_field(DatasetId::QmcPack, 0, 2024);
    let data: Vec<f32> = field
        .data
        .iter()
        .copied()
        .cycle()
        .take(cfg.block_size * n_blocks)
        .collect();
    let pes = rows * cols;
    println!("full wafer: {kind:?} on {rows}x{cols} ({pes} PEs), {n_blocks} blocks");

    let mesh = mapped_mesh(kind, &data, cfg, EngineMode::EventDriven);
    let t0 = Instant::now();
    let verdict = mesh.verify();
    let verify_seconds = t0.elapsed().as_secs_f64();
    assert!(verdict.is_clean(), "{verdict}");
    println!("  verified in {verify_seconds:.2} s");
    let (wall, report) = time_run(mesh);
    let stats = report.stats();
    let events = stats.events_processed;
    let events_per_sec = events as f64 / wall;
    println!(
        "  event-stepped in {wall:.2} s: {events} events, \
         {events_per_sec:.0} events/s, finish {} ticks",
        stats.finish_cycle.ticks()
    );

    format!(
        "  \"full_wafer\": {{\n    \"strategy\": \"{kind}\",\n    \
         \"mesh\": [{rows}, {cols}],\n    \"pes\": {},\n    \
         \"blocks\": {n_blocks},\n    \
         \"verify_seconds\": {verify_seconds:.3},\n    \
         \"wall_seconds\": {wall:.3},\n    \
         \"events_per_sec\": {events_per_sec:.0},\n    \
         \"deterministic\": {{\n      \"events_processed\": {events},\n      \
         \"finish_ticks\": {},\n      \
         \"total_busy_ticks\": {},\n      \
         \"total_tasks\": {},\n      \
         \"total_wavelets\": {},\n      \
         \"active_pes\": {}\n    }}\n  }}",
        pes,
        stats.finish_cycle.ticks(),
        stats.total_busy_cycles.ticks(),
        stats.total_tasks,
        stats.total_wavelets,
        stats.active_pes,
    )
}
