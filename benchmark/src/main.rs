//! The CereSZ benchmark: four seeded workloads over the host codec and the
//! event-stepped wafer mapping. An untraced run prints the end-to-end
//! metrics; a traced run (`--trace 1`) prints the per-layer metrics and
//! writes a Chrome trace. The last line of standard output is the result
//! object. See `README.md` for the metrics, workloads and modes.

mod host;
mod layers;
mod report;
mod wafer;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use report::{median, quartiles, Outcome};
use telemetry::json::JsonValue;

const USAGE: &str = "usage:
  ceresz-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  ceresz-benchmark --spread [RUNS] [--workload NAME] [--seed N] [--seconds S]
workloads: host-canonical host-autotune wafer-full-dense wafer-sparse";

/// Every workload, in the order `--spread` runs them.
const WORKLOADS: [&str; 4] = [
    "host-canonical",
    "host-autotune",
    "wafer-full-dense",
    "wafer-sparse",
];

/// Seed used when `--seed` is not given; seed 7 is held out for checking a
/// claimed gain on inputs it was not tuned on.
const DEFAULT_SEED: u64 = 2024;

/// How one workload run is performed.
pub struct Settings {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds of timed passes or rounds (more if the minimum count takes
    /// longer).
    pub seconds: f64,
    /// Tiny inputs and a single iteration, for the guard tests.
    pub smoke: bool,
    /// Where a traced run writes its Chrome trace; `None` runs untraced.
    pub trace: Option<PathBuf>,
}

impl Settings {
    /// The minimum iteration count, or 1 in smoke runs.
    #[must_use]
    pub fn min_iterations(&self, normal: usize) -> usize {
        if self.smoke {
            1
        } else {
            normal
        }
    }
}

fn run_workload(name: &str, s: &Settings) -> Option<Outcome> {
    Some(match name {
        "host-canonical" => host::run(name, &host::CANONICAL, s),
        "host-autotune" => host::run(name, &host::AUTOTUNE, s),
        "wafer-full-dense" => wafer::run(name, &wafer::WaferInput::full_dense(s.seed, s.smoke), s),
        "wafer-sparse" => wafer::run(name, &wafer::WaferInput::sparse(s.seed, s.smoke), s),
        _ => return None,
    })
}

/// The Chrome trace a traced run of `workload` writes, under the
/// benchmark's own `out/` directory.
fn trace_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{workload}.trace.json"))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    spread: Option<usize>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
        spread: None,
    };
    let mut it = args.peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--spread" => {
                let runs = it.next_if(|v| v.parse::<usize>().is_ok());
                a.spread = Some(runs.map_or(5, |v| v.parse().expect("checked by next_if")));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.spread {
        return spread(&args, runs);
    }
    let Some(workload) = args.workload.as_deref() else {
        eprintln!("--workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let settings = Settings {
        seed: args.seed,
        seconds: if args.smoke { 0.0 } else { args.seconds },
        smoke: args.smoke,
        trace: args.trace.then(|| trace_path(workload)),
    };
    let Some(outcome) = run_workload(workload, &settings) else {
        eprintln!("unknown workload {workload}\n{USAGE}");
        return ExitCode::from(2);
    };
    println!(
        "provenance {{\"commit\": \"{}\", \"workload\": \"{workload}\", \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"host_parallelism\": {}, \
         \"sim_effective_threads\": {}, \"rayon_threads\": {}, \"ticks_per_cycle\": {}}}",
        report::commit(),
        settings.seed,
        settings.seconds,
        u8::from(args.trace),
        settings.smoke,
        std::thread::available_parallelism().map_or(1, usize::from),
        outcome.sim_threads,
        rayon::current_num_threads(),
        wse_sim::TICKS_PER_CYCLE,
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("metric {name} {value} {unit}");
    }
    if let Some(path) = &settings.trace {
        println!("trace {}", path.display());
    }
    println!("{}", outcome.result_line());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json`, which sits beside the benchmark's directory.
fn benchmark_json() -> Result<JsonValue, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    telemetry::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(name, bound)` of every metric in the `list` of `BENCHMARK.json`
/// (`bound` is 0 where an entry has none).
fn declared_metrics(list: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = benchmark_json()?;
    let entries = doc
        .get(list)
        .and_then(JsonValue::as_arr)
        .ok_or(format!("BENCHMARK.json has no {list} list"))?;
    entries
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(JsonValue::as_str);
            let bound = m.get("bound").and_then(JsonValue::as_f64).unwrap_or(0.0);
            name.map(|n| (n.to_owned(), bound))
                .ok_or(format!("a {list} entry has no name"))
        })
        .collect()
}

/// The metrics of a run's result line (its last line of output).
fn parse_result(stdout: &[u8]) -> Option<BTreeMap<String, f64>> {
    let text = String::from_utf8_lossy(stdout);
    let doc = telemetry::json::parse(text.lines().last()?).ok()?;
    let metrics = doc.get("metrics")?.as_obj()?;
    metrics
        .iter()
        .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect()
}

/// `--spread`: run each workload `runs` times in fresh processes on seeds
/// `seed, seed+1, …`, and print each end-to-end metric's median and
/// interquartile range. Fails if a run fails or a spread (IQR ÷ median)
/// exceeds the metric's bound. `setup_s` is reported but exempt: its bound
/// limits how far its median may move, not its run-to-run spread.
fn spread(args: &Args, runs: usize) -> ExitCode {
    let bounds = match declared_metrics("end_to_end") {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads: Vec<&str> = args
        .workload
        .as_deref()
        .map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let mut ok = true;
    for w in workloads {
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..runs {
            let seed = (args.seed + i as u64).to_string();
            let seconds = args.seconds.to_string();
            let child = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed, "--seconds", &seconds])
                .args(["--trace", "0"])
                .stderr(Stdio::inherit())
                .output();
            match child {
                Ok(o) if o.status.success() => match parse_result(&o.stdout) {
                    Some(metrics) => {
                        for (name, value) in metrics {
                            samples.entry(name).or_default().push(value);
                        }
                    }
                    None => {
                        ok = false;
                        eprintln!("{w} seed {seed}: no result line");
                    }
                },
                Ok(o) => {
                    ok = false;
                    eprintln!("{w} seed {seed}: exited with {}", o.status);
                }
                Err(e) => {
                    ok = false;
                    eprintln!("{w} seed {seed}: cannot run: {e}");
                }
            }
        }
        for (name, bound) in &bounds {
            let values = samples.get(name).map_or(&[][..], Vec::as_slice);
            let Some((q1, q3)) = quartiles(values) else {
                ok = false;
                println!("spread {w} {name}: too few runs");
                continue;
            };
            let med = median(values);
            let share = (q3 - q1) / med;
            let within = name == "setup_s" || share <= *bound;
            ok &= within;
            println!(
                "spread {w} {name} median={med} iqr={} spread={share:.4} bound={bound} n={} {}",
                q3 - q1,
                values.len(),
                if within { "ok" } else { "OVER" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceresz_core::{CereszConfig, ErrorBound};
    use ceresz_wse::{execute, SimOptions};
    use std::collections::BTreeSet;

    /// The benchmark times `execute`'s steps one by one; if `execute`
    /// changes how it composes them, the decomposition must follow.
    #[test]
    fn decomposed_wafer_path_matches_execute() {
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-4));
        for input in [
            wafer::WaferInput::full_dense(7, true),
            wafer::WaferInput::sparse(7, true),
        ] {
            let (rows, cols) = input.kind.mesh_shape();
            let mesh_cfg = wse_sim::MeshConfig::new(rows, cols);
            let mut off = report::Tracer::new(false);
            let round = wafer::round(input.kind, &input.data, &cfg, mesh_cfg, &mut off)
                .expect("decomposed round runs");
            let options = SimOptions::default();
            let run = execute(input.kind, &input.data, &cfg, &options).expect("execute runs");
            assert_eq!(
                round.compressed.data, run.compressed.data,
                "{:?}",
                input.kind
            );
            assert!(
                round.report == run.report,
                "{:?}: reports differ",
                input.kind
            );
        }
    }

    #[test]
    fn inputs_are_deterministic_per_seed() {
        assert_eq!(host::fields(7, true), host::fields(7, true));
        assert_ne!(host::fields(7, true), host::fields(8, true));
        for make in [wafer::WaferInput::full_dense, wafer::WaferInput::sparse] {
            assert_eq!(make(7, true).data, make(7, true).data);
            assert_ne!(make(7, true).data, make(8, true).data);
        }
    }

    /// Every workload's smoke run passes its checks and prints exactly the
    /// metrics `BENCHMARK.json` declares for its mode; the traced run
    /// writes a trace that parses as a Chrome trace.
    #[test]
    fn smoke_runs_emit_every_declared_metric_and_the_trace() {
        let names = |list: &str| -> BTreeSet<String> {
            declared_metrics(list)
                .expect("BENCHMARK.json lists metrics")
                .into_iter()
                .map(|(n, _)| n)
                .collect()
        };
        let (end_to_end, per_layer) = (names("end_to_end"), names("per_layer"));
        for w in WORKLOADS {
            let trace = trace_path(&format!("smoke-{w}"));
            for (traced, declared) in [(false, &end_to_end), (true, &per_layer)] {
                let s = Settings {
                    seed: 7,
                    seconds: 0.0,
                    smoke: true,
                    trace: traced.then(|| trace.clone()),
                };
                let outcome = run_workload(w, &s).expect("known workload");
                assert_eq!(outcome.failed, 0, "{w} traced={traced}");
                let emitted: BTreeSet<String> =
                    outcome.metrics.iter().map(|(n, _, _)| n.clone()).collect();
                assert_eq!(&emitted, declared, "{w} traced={traced}");
                assert_eq!(
                    emitted.len(),
                    outcome.metrics.len(),
                    "{w}: a metric repeats"
                );
                let line = outcome.result_line();
                assert_eq!(
                    parse_result(line.as_bytes()).map(|m| m.len()),
                    Some(emitted.len())
                );
            }
            let text = std::fs::read_to_string(&trace).expect("traced run wrote its trace");
            let doc = telemetry::json::parse(&text).expect("trace is JSON");
            let events = doc
                .get("traceEvents")
                .and_then(JsonValue::as_arr)
                .expect("traceEvents");
            assert!(events.len() > 10, "{w}: {} trace events", events.len());
        }
    }
}
