//! `ceresz` — command-line error-bounded lossy compression of raw `f32`
//! files (SDRBench layout: little-endian, no header).
//!
//! ```text
//! ceresz compress   <in.f32> <out.csz> [--rel 1e-3 | --abs 0.01] [--block 32]
//!                   [--recipe SPEC | --auto-tune [--dims RxC]]
//!                   [--profile-out p.json]
//! ceresz decompress <in.csz> <out.f32> [--profile-out p.json]
//! ceresz info       <in.csz>
//! ceresz verify     <orig.f32> <in.csz>
//! ceresz profile    <in.f32> [--rel L | --abs E] [--block N]
//!                   [--strategy row-parallel|pipeline|multi-pipeline]
//!                   [--rows R] [--len L] [--pipelines P] [--limit N]
//!                   [--threads T] [--out profile.json] [--trace-out trace.json]
//! ceresz observe    [<in.f32>] [--rel L | --abs E] [--block N]
//!                   [--strategy S --rows R --len L --pipelines P |
//!                    --all-strategies] [--limit N] [--threads T]
//!                   [--window W] [--top K] [--json-out h.json]
//!                   [--csv-out h.csv]
//! ceresz fuzz       [--seed N] [--cases M] [--no-shrink]
//! ceresz lint       [--all-strategies | --strategy S --rows R --len L
//!                    --pipelines P] [--rel L | --abs E] [--block N]
//!                   [--analyze] [--json] [--json-out lint.json]
//! ```
//!
//! `profile` runs the chosen mapping strategy on the event simulator with
//! per-stage cycle attribution and timeline tracing enabled, prints the
//! stage table (the shape of the paper's Tables 1–3), and writes the
//! machine-readable `profile.json` plus a Perfetto-loadable Chrome trace.
//! `--threads T` shards the simulator over T worker threads (the report is
//! bit-identical at any thread count).
//!
//! `observe` runs the flight recorder over a strategy (by default the
//! 64×64-mesh multi-pipeline; `--all-strategies` sweeps all three on
//! 64-row meshes) and prints the stall-attribution report, ASCII busy and
//! stall heatmaps, and the top-K congested PEs and links. Without an input
//! file a synthetic smooth signal sized to the mesh is used. `--window W`
//! sets the sampling window in cycles; `--json-out`/`--csv-out` write the
//! mesh-shaped heatmap artifacts.
//!
//! `lint` statically verifies the constructed mappings — routing soundness,
//! color discipline, channel balance, SRAM budgets, task liveness — across
//! the EXPERIMENTS.md strategy × mesh-shape sweep (or one explicit shape),
//! in both directions: each shape's compression mapping, then its
//! decompression mapping of the same data, host-compressed. It simulates
//! not a single cycle and exits nonzero on any error-severity
//! diagnostic, which is what CI's `lint-mappings` job gates on. With
//! `--analyze` each mapping additionally runs through the static performance
//! analyzer — per-link worst-case loads, a critical-path lower bound on the
//! makespan, per-PE SRAM watermarks, and a deadlock-freedom proof over the
//! channel-dependency graph — and every bound is cross-validated against a
//! flight-recorded simulation of the same mapping (CI's `analyze-mappings`
//! job); a bound the dynamic run escapes is a soundness violation and fails
//! the lint. `--json` replaces the text report with a machine-readable
//! document (stable field order, diagnostics ranked most-severe first) on
//! stdout; `--json-out` writes the same document to a file.
//!
//! `compress --recipe SPEC` selects an explicit stage composition instead
//! of the canonical `quantize,lorenzo1,fixed` pipeline — e.g.
//! `--recipe quantize,lorenzo1,fixed,huffman` appends an entropy stage, and
//! `--recipe lorenzo2:ROWSxCOLSxTILE` requires `--block TILE²`. Non-canonical
//! recipes write version-2 streams that record the recipe, so `decompress`
//! needs no flags. `--auto-tune` instead samples the field under the built-in
//! candidate slate and picks the best recipe at the bound (pass `--dims RxC`
//! to enable the 2-D Lorenzo candidate on row-major 2-D fields).
//!
//! `fuzz` runs the deterministic differential conformance harness (see the
//! `conformance` crate): seeded adversarial inputs through the host
//! compressor, all three simulated mapping strategies, the decoders under
//! byte-level corruption, and the baseline codecs. Any failure prints the
//! case seed so `ceresz fuzz --case-seed <that seed>` replays it alone.

use std::path::Path;
use std::process::ExitCode;

use ceresz::core::stream::StreamHeader;
use ceresz::core::{max_abs_error, verify_error_bound, CereszConfig, Codec, ErrorBound, Recipe};
use ceresz::telemetry::Recorder;
use ceresz::wse::{profile_compression_with, SimOptions, StrategyKind};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("usage:");
            eprintln!(
                "  ceresz compress   <in.f32> <out.csz> [--rel L | --abs E] [--block N] \
                 [--recipe SPEC | --auto-tune [--dims RxC]] [--profile-out p.json]"
            );
            eprintln!("  ceresz decompress <in.csz> <out.f32> [--profile-out p.json]");
            eprintln!("  ceresz info       <in.csz>");
            eprintln!("  ceresz verify     <orig.f32> <in.csz>");
            eprintln!(
                "  ceresz profile    <in.f32> [--rel L | --abs E] [--block N] \
                 [--strategy S] [--rows R] [--len L] [--pipelines P] [--limit N] \
                 [--threads T] [--out profile.json] [--trace-out trace.json]"
            );
            eprintln!(
                "  ceresz observe    [<in.f32>] [--rel L | --abs E] [--block N] \
                 [--strategy S --rows R --len L --pipelines P | --all-strategies] \
                 [--limit N] [--threads T] [--window W] [--top K] \
                 [--json-out h.json] [--csv-out h.csv]"
            );
            eprintln!("  ceresz fuzz       [--seed N] [--cases M] [--no-shrink] [--case-seed S]");
            eprintln!(
                "  ceresz lint       [--all-strategies | --strategy S --rows R --len L \
                 --pipelines P] [--rel L | --abs E] [--block N] [--analyze] [--json] \
                 [--json-out lint.json]"
            );
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("compress") => cmd_compress(&args[1..]),
        Some("decompress") => cmd_decompress(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("observe") => cmd_observe(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some(other) => Err(format!("unknown command '{other}'")),
        None => Err("missing command".into()),
    }
}

fn read_f32(path: &str) -> Result<Vec<f32>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    if bytes.len() % 4 != 0 {
        return Err(format!(
            "{path}: size {} is not a multiple of 4",
            bytes.len()
        ));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// All flags any subcommand accepts; each command reads the subset it needs.
struct Flags {
    positional: Vec<String>,
    bound: ErrorBound,
    block: usize,
    /// `--profile-out`: write a wall-clock telemetry snapshot here.
    profile_out: Option<String>,
    /// `profile` options.
    strategy: String,
    rows: usize,
    len: usize,
    pipelines: usize,
    /// Max values fed to the event simulator (0 = no limit).
    limit: usize,
    /// Simulator worker threads (row shards; 1 = serial).
    threads: usize,
    out: Option<String>,
    trace_out: Option<String>,
    /// `observe` options: sampling window in whole cycles (0 = recorder
    /// default).
    window: u64,
    /// Top-K table length in the observe report.
    top: usize,
    json_out: Option<String>,
    csv_out: Option<String>,
    /// `fuzz` options.
    seed: u64,
    cases: u64,
    no_shrink: bool,
    case_seed: Option<u64>,
    /// `lint` options.
    all_strategies: bool,
    /// Whether `--strategy` was passed explicitly (lint sweeps otherwise).
    strategy_explicit: bool,
    /// `lint --analyze`: run the static performance analyzer and
    /// cross-validate its bounds against a flight-recorded simulation.
    analyze: bool,
    /// `lint --json`: emit the machine-readable report on stdout instead of
    /// the text report.
    json: bool,
    /// `compress --recipe`: explicit stage composition (see `Recipe::parse`).
    recipe: Option<String>,
    /// `compress --auto-tune`: pick the recipe per field by sampling.
    auto_tune: bool,
    /// `compress --dims RxC`: 2-D shape hint for the auto-tuner.
    dims: Option<(usize, usize)>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        positional: Vec::new(),
        bound: ErrorBound::Rel(1e-3),
        block: 32,
        profile_out: None,
        strategy: "pipeline".to_owned(),
        rows: 2,
        len: 4,
        pipelines: 2,
        limit: 32 * 512,
        threads: 1,
        out: None,
        trace_out: None,
        window: 0,
        top: 8,
        json_out: None,
        csv_out: None,
        seed: 42,
        cases: 1000,
        no_shrink: false,
        case_seed: None,
        all_strategies: false,
        strategy_explicit: false,
        analyze: false,
        json: false,
        recipe: None,
        auto_tune: false,
        dims: None,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        let flag = &args[*i];
        let v = args
            .get(*i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        *i += 2;
        Ok(v)
    };
    while i < args.len() {
        match args[i].as_str() {
            "--rel" => f.bound = ErrorBound::Rel(parse_num(&value(&mut i)?, "--rel")?),
            "--abs" => f.bound = ErrorBound::Abs(parse_num(&value(&mut i)?, "--abs")?),
            "--block" => f.block = parse_usize(&value(&mut i)?, "--block")?,
            "--profile-out" => f.profile_out = Some(value(&mut i)?),
            "--strategy" => {
                f.strategy = value(&mut i)?;
                f.strategy_explicit = true;
            }
            "--rows" => f.rows = parse_usize(&value(&mut i)?, "--rows")?,
            "--len" => f.len = parse_usize(&value(&mut i)?, "--len")?,
            "--pipelines" => f.pipelines = parse_usize(&value(&mut i)?, "--pipelines")?,
            "--limit" => f.limit = parse_usize(&value(&mut i)?, "--limit")?,
            "--threads" => f.threads = parse_usize(&value(&mut i)?, "--threads")?,
            "--out" => f.out = Some(value(&mut i)?),
            "--trace-out" => f.trace_out = Some(value(&mut i)?),
            "--window" => f.window = parse_u64(&value(&mut i)?, "--window")?,
            "--top" => f.top = parse_usize(&value(&mut i)?, "--top")?,
            "--json-out" => f.json_out = Some(value(&mut i)?),
            "--csv-out" => f.csv_out = Some(value(&mut i)?),
            "--seed" => f.seed = parse_u64(&value(&mut i)?, "--seed")?,
            "--cases" => f.cases = parse_u64(&value(&mut i)?, "--cases")?,
            "--no-shrink" => {
                f.no_shrink = true;
                i += 1;
            }
            "--case-seed" => f.case_seed = Some(parse_u64(&value(&mut i)?, "--case-seed")?),
            "--all-strategies" => {
                f.all_strategies = true;
                i += 1;
            }
            "--analyze" => {
                f.analyze = true;
                i += 1;
            }
            "--json" => {
                f.json = true;
                i += 1;
            }
            "--recipe" => f.recipe = Some(value(&mut i)?),
            "--auto-tune" => {
                f.auto_tune = true;
                i += 1;
            }
            "--dims" => f.dims = Some(parse_dims(&value(&mut i)?)?),
            other => {
                f.positional.push(other.to_owned());
                i += 1;
            }
        }
    }
    Ok(f)
}

/// Parse `--dims RxC` (e.g. `1800x3600`).
fn parse_dims(s: &str) -> Result<(usize, usize), String> {
    let (r, c) = s
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("--dims: expected RxC, got '{s}'"))?;
    Ok((
        parse_usize(r, "--dims rows")?,
        parse_usize(c, "--dims cols")?,
    ))
}

fn parse_num(s: &str, flag: &str) -> Result<f64, String> {
    s.parse().map_err(|e| format!("{flag}: {e}"))
}

fn parse_usize(s: &str, flag: &str) -> Result<usize, String> {
    s.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parse a u64 in decimal or, with an `0x` prefix, hex (the form the fuzz
/// report prints case seeds in).
fn parse_u64(s: &str, flag: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|e| format!("{flag}: {e}"))
}

/// Write `doc` as pretty JSON to `path`.
fn write_json(path: &str, doc: &ceresz::telemetry::json::JsonValue) -> Result<(), String> {
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("writing {path}: {e}"))
}

fn cmd_compress(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args)?;
    let [input, output] = f.positional.as_slice() else {
        return Err("compress needs <in.f32> <out.csz>".into());
    };
    let recorder = if f.profile_out.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let data = {
        let _span = recorder.wall_span("read-input");
        read_f32(input)?
    };
    let mut cfg = CereszConfig::new(f.bound).with_block_size(f.block);
    if f.auto_tune && f.recipe.is_some() {
        return Err("--recipe and --auto-tune are mutually exclusive".into());
    }
    if let Some(spec) = &f.recipe {
        cfg = cfg.with_recipe(Recipe::parse(spec).map_err(|e| e.to_string())?);
    }
    let t0 = std::time::Instant::now();
    let c = {
        let _span = recorder.wall_span("compress");
        if f.auto_tune {
            let (c, report) = ceresz::core::tune::compress_auto(&data, f.dims, &cfg)
                .map_err(|e| e.to_string())?;
            println!(
                "auto-tune: chose [{}] ({:.2}x on the sample, {:.2}x canonical, margin {:.3}x)",
                report.chosen.recipe,
                report.chosen_ratio,
                report.canonical_ratio,
                report.margin()
            );
            c
        } else {
            Codec::new(cfg).compress(&data).map_err(|e| e.to_string())?
        }
    };
    let dt = t0.elapsed();
    {
        let _span = recorder.wall_span("write-output");
        std::fs::write(output, &c.data).map_err(|e| format!("writing {output}: {e}"))?;
    }
    if let Some(path) = &f.profile_out {
        recorder.count("original_bytes", c.stats.original_bytes as u64);
        recorder.count("compressed_bytes", c.stats.compressed_bytes as u64);
        recorder.count("blocks", c.stats.n_blocks as u64);
        write_json(path, &recorder.snapshot().to_json())?;
        println!("wall-clock profile written to {path}");
    }
    println!(
        "{} -> {}: {} -> {} bytes (ratio {:.2}x) in {:.1} ms",
        input,
        output,
        c.stats.original_bytes,
        c.stats.compressed_bytes,
        c.ratio(),
        dt.as_secs_f64() * 1e3
    );
    println!(
        "eps {:.6e}, {} blocks ({} zero), max fixed length {} bits",
        c.stats.eps, c.stats.n_blocks, c.stats.zero_blocks, c.stats.max_fixed_length
    );
    if !c.stats.recipe.is_canonical() {
        println!("recipe:      {}", c.stats.recipe);
    }
    Ok(())
}

fn cmd_decompress(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args)?;
    let [input, output] = f.positional.as_slice() else {
        return Err("decompress needs <in.csz> <out.f32>".into());
    };
    let recorder = if f.profile_out.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let bytes = {
        let _span = recorder.wall_span("read-input");
        std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?
    };
    let restored = {
        let _span = recorder.wall_span("decompress");
        Codec::decompressor()
            .decompress(&bytes)
            .map_err(|e| e.to_string())?
    };
    {
        let _span = recorder.wall_span("write-output");
        let mut out = Vec::with_capacity(restored.len() * 4);
        for v in &restored {
            out.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(Path::new(output.as_str()), &out)
            .map_err(|e| format!("writing {output}: {e}"))?;
    }
    if let Some(path) = &f.profile_out {
        recorder.count("compressed_bytes", bytes.len() as u64);
        recorder.count("restored_values", restored.len() as u64);
        write_json(path, &recorder.snapshot().to_json())?;
        println!("wall-clock profile written to {path}");
    }
    println!("{input} -> {output}: {} values restored", restored.len());
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args)?;
    let [input] = f.positional.as_slice() else {
        return Err("profile needs <in.f32>".into());
    };
    let mut data = read_f32(input)?;
    let total = data.len();
    if f.limit > 0 && data.len() > f.limit {
        data.truncate(f.limit);
        println!(
            "profiling the first {} of {total} values (raise with --limit N, 0 = all)",
            data.len()
        );
    }
    let strategy = flag_strategy(&f)?;
    let cfg = CereszConfig::new(f.bound).with_block_size(f.block);
    let profile = ceresz_profile(&data, &cfg, strategy, f.threads)?;
    print!("{}", profile.report.render_table());
    println!(
        "\n  ratio {:.2}x   simulated throughput {:.2} GB/s",
        profile.run.compressed.ratio(),
        profile.run.throughput_gbps()
    );

    let out = f.out.as_deref().unwrap_or("profile.json");
    let mut doc = profile.report.to_json();
    if let ceresz::telemetry::json::JsonValue::Obj(fields) = &mut doc {
        fields.push(("telemetry".to_owned(), profile.snapshot.to_json()));
    }
    write_json(out, &doc)?;
    let trace_out = f.trace_out.as_deref().unwrap_or("trace.json");
    write_json(trace_out, &profile.trace.to_json())?;
    println!("profile written to {out}, Perfetto trace to {trace_out}");
    Ok(())
}

/// Run [`profile_compression_with`] with CLI-friendly error mapping.
fn ceresz_profile(
    data: &[f32],
    cfg: &CereszConfig,
    strategy: StrategyKind,
    threads: usize,
) -> Result<ceresz::wse::CompressionProfile, String> {
    let options = SimOptions::default().with_threads(threads.max(1));
    profile_compression_with(data, cfg, strategy, &options).map_err(|e| e.to_string())
}

/// The `--all-strategies` observation sweep: all three mappings on 64-row
/// meshes, the pipelined two genuinely 64×64 (the acceptance shape).
fn observe_sweep() -> Vec<StrategyKind> {
    vec![
        StrategyKind::RowParallel { rows: 64 },
        StrategyKind::Pipeline {
            rows: 64,
            pipeline_length: 64,
        },
        StrategyKind::MultiPipeline {
            rows: 64,
            pipeline_length: 8,
            pipelines_per_row: 8,
        },
    ]
}

/// Derive a per-strategy artifact path when one flag serves several runs:
/// `heat.json` + `pipeline rows=64 len=64` → `heat.pipeline-rows-64-len-64.json`.
fn suffixed(path: &str, strategy: StrategyKind, many: bool) -> String {
    if !many {
        return path.to_owned();
    }
    let tag: String = strategy
        .to_string()
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '-' })
        .collect();
    match path.rsplit_once('.') {
        Some((stem, ext)) => format!("{stem}.{tag}.{ext}"),
        None => format!("{path}.{tag}"),
    }
}

fn cmd_observe(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args)?;
    let strategies = if f.all_strategies {
        observe_sweep()
    } else if f.strategy_explicit {
        vec![flag_strategy(&f)?]
    } else {
        // Default acceptance shape: the 64×64-mesh multi-pipeline.
        vec![StrategyKind::MultiPipeline {
            rows: 64,
            pipeline_length: 8,
            pipelines_per_row: 8,
        }]
    };
    let cfg = CereszConfig::new(f.bound).with_block_size(f.block);
    let data = match f.positional.as_slice() {
        [] => {
            // Synthetic smooth signal: several blocks per row of the
            // largest mesh, enough to surface pipeline contention.
            let rows = strategies
                .iter()
                .map(|s| s.mesh_shape().0)
                .max()
                .unwrap_or(1);
            (0..f.block * rows * 8)
                .map(|i| (i as f32 * 0.017).sin() * 8.0 + (i as f32 * 0.0042).cos() * 3.0)
                .collect()
        }
        [input] => {
            let mut data = read_f32(input)?;
            let total = data.len();
            if f.limit > 0 && data.len() > f.limit {
                data.truncate(f.limit);
                println!(
                    "observing the first {} of {total} values (raise with --limit N, 0 = all)",
                    data.len()
                );
            }
            data
        }
        other => return Err(format!("observe takes at most one input file: {other:?}")),
    };
    let mut options = SimOptions::default().with_threads(f.threads.max(1));
    if f.window > 0 {
        options = options.with_flight_window(f.window);
    }
    let many = strategies.len() > 1;
    for (i, &strategy) in strategies.iter().enumerate() {
        if i > 0 {
            println!();
        }
        let report = ceresz::wse::observe(&strategy, &data, &cfg, &options)
            .map_err(|e| format!("{strategy}: {e}"))?;
        print!("{}", report.render(f.top, 32, 96));
        // Static-bound cross-check: the analyzer's bounds over the same
        // mapping must dominate everything the flight recorder just saw.
        let manifest = ceresz::wse::mapping_manifest(&data, &cfg, strategy)
            .map_err(|e| format!("{strategy}: {e}"))?;
        let profile = ceresz::wse::analyze_mapping(&manifest);
        let soundness = ceresz::wse::check_soundness(
            &profile,
            &report.stats,
            &report.flight,
            &report.mem_peak_bytes,
        );
        println!(
            "\nstatic bounds ({} links, {} PEs checked): critical path >= {} cycles \
             vs observed {}, sram peak {} B, deadlock {}",
            soundness.links_checked,
            soundness.pes_checked,
            profile.critical_path,
            soundness.observed_makespan,
            profile.sram_watermark(),
            if profile.is_deadlock_free() {
                "proven free"
            } else {
                "CYCLE FOUND"
            }
        );
        if !soundness.is_sound() {
            for v in &soundness.violations {
                println!("  UNSOUND: {v}");
            }
            return Err(format!(
                "{}: {} static-bound soundness violation(s)",
                manifest.name,
                soundness.violations.len()
            ));
        }
        if let Some(path) = &f.json_out {
            let path = suffixed(path, strategy, many);
            write_json(&path, &report.to_json())?;
            println!("heatmap JSON written to {path}");
        }
        if let Some(path) = &f.csv_out {
            let path = suffixed(path, strategy, many);
            std::fs::write(&path, report.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
            println!("heatmap CSV written to {path}");
        }
    }
    Ok(())
}

fn cmd_fuzz(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args)?;
    if !f.positional.is_empty() {
        return Err(format!(
            "fuzz takes no positional arguments: {:?}",
            f.positional
        ));
    }

    // Replay mode: one case rebuilt from its reported seed.
    if let Some(seed) = f.case_seed {
        let case = ceresz::conformance::Case::from_seed(seed, 0);
        println!(
            "replaying case seed {seed:#018x}: {} values ({:?}), bound {:?}, block {}",
            case.data.len(),
            case.class,
            case.bound,
            case.block_size
        );
        let outcome = ceresz::conformance::run_case(&case);
        for (oracle, message) in &outcome.violations {
            println!("  FAIL [{oracle}]: {message}");
        }
        return if outcome.violations.is_empty() {
            println!("  all oracles passed");
            Ok(())
        } else {
            Err(format!("{} oracle violation(s)", outcome.violations.len()))
        };
    }

    println!(
        "fuzzing {} cases from seed {} (shrink {})",
        f.cases,
        f.seed,
        if f.no_shrink { "off" } else { "on" }
    );
    let t0 = std::time::Instant::now();
    let report = ceresz::conformance::run_fuzz(&ceresz::conformance::FuzzConfig {
        seed: f.seed,
        cases: f.cases,
        shrink: !f.no_shrink,
    });
    print!("{report}");
    println!("done in {:.1} s", t0.elapsed().as_secs_f64());
    if report.all_passed() {
        Ok(())
    } else {
        Err(format!(
            "{} conformance violation(s); replay one with --case-seed <seed>",
            report.failures.len()
        ))
    }
}

/// Mapping strategy parsed from `--strategy`/`--rows`/`--len`/`--pipelines`.
fn flag_strategy(f: &Flags) -> Result<StrategyKind, String> {
    match f.strategy.as_str() {
        "row-parallel" => Ok(StrategyKind::RowParallel { rows: f.rows }),
        "pipeline" => Ok(StrategyKind::Pipeline {
            rows: f.rows,
            pipeline_length: f.len,
        }),
        "multi-pipeline" => Ok(StrategyKind::MultiPipeline {
            rows: f.rows,
            pipeline_length: f.len,
            pipelines_per_row: f.pipelines,
        }),
        other => Err(format!(
            "unknown strategy '{other}' (row-parallel | pipeline | multi-pipeline)"
        )),
    }
}

/// The EXPERIMENTS.md shape sweep: every strategy × mesh shape the
/// reproduction exercises (row counts from Fig. 7, pipeline lengths from
/// Fig. 13, multi-pipeline combinations from Figs. 10–13).
fn lint_sweep() -> Vec<StrategyKind> {
    let mut s = Vec::new();
    for rows in [1usize, 2, 4, 8, 16, 32] {
        s.push(StrategyKind::RowParallel { rows });
    }
    for rows in [1usize, 2] {
        for len in [1usize, 2, 3, 4, 8] {
            s.push(StrategyKind::Pipeline {
                rows,
                pipeline_length: len,
            });
        }
    }
    for (len, p) in [
        (1usize, 1usize),
        (1, 2),
        (1, 4),
        (1, 8),
        (2, 2),
        (2, 3),
        (3, 2),
        (4, 2),
    ] {
        for rows in [1usize, 2] {
            s.push(StrategyKind::MultiPipeline {
                rows,
                pipeline_length: len,
                pipelines_per_row: p,
            });
        }
    }
    s
}

/// One ranked diagnostic as a stable JSON object (field order fixed, absent
/// anchors encoded as `null`).
fn diagnostic_json(d: &ceresz::wse::verify::Diagnostic) -> ceresz::telemetry::json::JsonValue {
    use ceresz::telemetry::json::JsonValue as J;
    J::Obj(vec![
        ("severity".to_owned(), J::Str(d.severity.to_string())),
        ("check".to_owned(), J::Str(d.check.to_string())),
        (
            "pe".to_owned(),
            d.pe.map_or(J::Null, |pe| {
                J::Obj(vec![
                    ("row".to_owned(), J::Num(pe.row as f64)),
                    ("col".to_owned(), J::Num(pe.col as f64)),
                ])
            }),
        ),
        (
            "color".to_owned(),
            d.color.map_or(J::Null, |c| J::Num(f64::from(c.id()))),
        ),
        ("message".to_owned(), J::Str(d.message.clone())),
        (
            "hint".to_owned(),
            d.hint.as_ref().map_or(J::Null, |h| J::Str(h.clone())),
        ),
    ])
}

/// The per-mapping entry of the `lint --json` document.
fn lint_mapping_json(
    name: &str,
    strategy: StrategyKind,
    diags: &[ceresz::wse::verify::Diagnostic],
    analysis: Option<&(
        ceresz::wse::verify::StaticProfile,
        ceresz::wse::SoundnessReport,
    )>,
) -> ceresz::telemetry::json::JsonValue {
    use ceresz::telemetry::json::JsonValue as J;
    let ne = diags
        .iter()
        .filter(|d| d.severity == ceresz::wse::verify::Severity::Error)
        .count();
    let mut fields = vec![
        ("name".to_owned(), J::Str(name.to_owned())),
        ("strategy".to_owned(), J::Str(strategy.to_string())),
        ("pes".to_owned(), J::Num(strategy.pes() as f64)),
        ("errors".to_owned(), J::Num(ne as f64)),
        ("warnings".to_owned(), J::Num((diags.len() - ne) as f64)),
        (
            "diagnostics".to_owned(),
            J::Arr(diags.iter().map(diagnostic_json).collect()),
        ),
    ];
    if let Some((profile, soundness)) = analysis {
        fields.push((
            "static".to_owned(),
            ceresz::wse::profile_json(profile, Some(soundness)),
        ));
    }
    J::Obj(fields)
}

fn cmd_lint(args: &[String]) -> Result<(), String> {
    let f = parse_flags(args)?;
    if !f.positional.is_empty() {
        return Err(format!(
            "lint takes no positional arguments: {:?}",
            f.positional
        ));
    }
    let strategies = if f.strategy_explicit && !f.all_strategies {
        vec![flag_strategy(&f)?]
    } else {
        lint_sweep()
    };
    // Synthetic smooth signal: enough blocks that every row of the widest
    // shape owns several, exercising relay chains and padding.
    let data: Vec<f32> = (0..f.block * 128)
        .map(|i| (i as f32 * 0.013).sin() * 10.0 + (i as f32 * 0.0041).cos() * 3.0)
        .collect();
    let cfg = CereszConfig::new(f.bound).with_block_size(f.block);
    let options = SimOptions::default()
        .with_threads(f.threads.max(1))
        .with_flight_window(if f.window > 0 { f.window } else { 1024 });

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut unsound = 0usize;
    let want_doc = f.json || f.json_out.is_some();
    let mut mapping_docs = Vec::new();
    // Both directions of every shape: the compression mappings, then the
    // decompression mappings of the same data, host-compressed.
    let compressed = Codec::new(cfg)
        .compress(&data)
        .map_err(|e| format!("compressing the lint data: {e}"))?;
    let mappings = [false, true]
        .into_iter()
        .flat_map(|decompress| strategies.iter().map(move |&s| (decompress, s)));
    for (decompress, strategy) in mappings {
        let manifest = if decompress {
            ceresz::wse::decompression_manifest(strategy, &compressed)
        } else {
            ceresz::wse::mapping_manifest(&data, &cfg, strategy)
        }
        .map_err(|e| format!("building {strategy:?}: {e}"))?;
        let report = ceresz::wse::verify::verify(&manifest);
        let mut diags = report.diagnostics.clone();

        // `--analyze`: static bounds plus a flight-recorded run of the same
        // mapping on the same data, cross-checked for soundness.
        let mut analysis = None;
        if f.analyze {
            let profile = ceresz::wse::analyze_mapping(&manifest);
            diags.extend(profile.diagnostics.iter().cloned());
            let observed = if decompress {
                ceresz::wse::observe_decompression(strategy, &compressed, &options)
            } else {
                ceresz::wse::observe(&strategy, &data, &cfg, &options)
            }
            .map_err(|e| format!("simulating {}: {e}", manifest.name))?;
            let soundness = ceresz::wse::check_soundness(
                &profile,
                &observed.stats,
                &observed.flight,
                &observed.mem_peak_bytes,
            );
            unsound += soundness.violations.len();
            analysis = Some((profile, soundness));
        }
        ceresz::wse::verify::rank(&mut diags);
        let ne = diags
            .iter()
            .filter(|d| d.severity == ceresz::wse::verify::Severity::Error)
            .count();
        let nw = diags.len() - ne;
        errors += ne;
        warnings += nw;

        if want_doc {
            mapping_docs.push(lint_mapping_json(
                &manifest.name,
                strategy,
                &diags,
                analysis.as_ref(),
            ));
        }
        if f.json {
            continue;
        }
        if ne == 0 {
            println!(
                "ok   {} ({} PEs{})",
                manifest.name,
                strategy.pes(),
                if nw > 0 {
                    format!(", {nw} warning(s)")
                } else {
                    String::new()
                }
            );
            for d in diags
                .iter()
                .filter(|d| d.severity == ceresz::wse::verify::Severity::Warning)
            {
                println!("     {d}");
            }
        } else {
            println!("FAIL {} ({ne} error(s))", manifest.name);
            for d in &diags {
                println!("     {d}");
            }
        }
        if let Some((profile, soundness)) = &analysis {
            println!(
                "     static: critical path >= {} cycles (observed {}), max link load \
                 {} wavelets, sram peak {} B, deadlock {}",
                profile.critical_path,
                soundness.observed_makespan,
                profile.max_link_wavelets(),
                profile.sram_watermark(),
                if profile.is_deadlock_free() {
                    "proven free"
                } else {
                    "CYCLE FOUND"
                }
            );
            for v in &soundness.violations {
                println!("     UNSOUND: {v}");
            }
        }
    }

    let doc = ceresz::telemetry::json::JsonValue::Obj(vec![
        (
            "mappings".to_owned(),
            ceresz::telemetry::json::JsonValue::Arr(mapping_docs),
        ),
        (
            "errors".to_owned(),
            ceresz::telemetry::json::JsonValue::Num(errors as f64),
        ),
        (
            "warnings".to_owned(),
            ceresz::telemetry::json::JsonValue::Num(warnings as f64),
        ),
        (
            "soundness_violations".to_owned(),
            ceresz::telemetry::json::JsonValue::Num(unsound as f64),
        ),
    ]);
    if f.json {
        println!("{}", doc.to_pretty());
    } else {
        println!(
            "linted {} mapping(s): {errors} error(s), {warnings} warning(s){}",
            2 * strategies.len(),
            if f.analyze {
                format!(", {unsound} soundness violation(s)")
            } else {
                String::new()
            }
        );
    }
    if let Some(path) = &f.json_out {
        write_json(path, &doc)?;
        if !f.json {
            println!("lint JSON written to {path}");
        }
    }
    if errors > 0 {
        Err(format!("{errors} mapping verification error(s)"))
    } else if unsound > 0 {
        Err(format!(
            "{unsound} static-bound soundness violation(s) — the analyzer's bounds \
             failed to dominate the observed run"
        ))
    } else {
        Ok(())
    }
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let [input] = args else {
        return Err("info needs <in.csz>".into());
    };
    let bytes = std::fs::read(input).map_err(|e| format!("reading {input}: {e}"))?;
    let header = StreamHeader::read(&bytes).map_err(|e| e.to_string())?;
    println!("stream:      {input}");
    println!(
        "version:     {}",
        if header.recipe.is_canonical() { 1 } else { 2 }
    );
    println!("recipe:      {}", header.recipe);
    println!("elements:    {}", header.count);
    println!("block size:  {}", header.block_size);
    println!("header width:{} byte(s)", header.header_width.bytes());
    println!("eps (abs):   {:.6e}", header.eps);
    println!("blocks:      {}", header.n_blocks());
    println!(
        "ratio:       {:.2}x",
        header.count as f64 * 4.0 / bytes.len() as f64
    );
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let [orig_path, csz_path] = args else {
        return Err("verify needs <orig.f32> <in.csz>".into());
    };
    let orig = read_f32(orig_path)?;
    let bytes = std::fs::read(csz_path).map_err(|e| format!("reading {csz_path}: {e}"))?;
    let header = StreamHeader::read(&bytes).map_err(|e| e.to_string())?;
    let restored = Codec::decompressor()
        .decompress(&bytes)
        .map_err(|e| e.to_string())?;
    if restored.len() != orig.len() {
        return Err(format!(
            "length mismatch: original {} vs stream {}",
            orig.len(),
            restored.len()
        ));
    }
    let ok = verify_error_bound(&orig, &restored, header.eps);
    println!(
        "max error {:.6e} vs eps {:.6e} -> {}",
        max_abs_error(&orig, &restored),
        header.eps,
        if ok { "BOUND HELD" } else { "BOUND VIOLATED" }
    );
    println!("PSNR {:.2} dB", ceresz::quality::psnr(&orig, &restored));
    if ok {
        Ok(())
    } else {
        Err("error bound violated".into())
    }
}
