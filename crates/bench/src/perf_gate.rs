//! Deterministic perf-regression gating.
//!
//! The simulator's cycle accounting is bit-deterministic: the same input,
//! config, and strategy produce the same `RunReport` on every host at every
//! thread count. That makes *cycle-exact* metrics — finish cycle, busy
//! cycles, wavelet counts, stall-cause breakdowns — gateable in CI the way
//! wall-clock numbers never are (this repo's CI runs on a 1-core host where
//! wall time is noise). This module collects a fixed scenario suite,
//! serializes it to `BENCH_baseline.json`, and diffs a fresh collection
//! against the committed baseline; *any* drift fails the gate unless the
//! baseline is re-committed with an explicit `--reason`.
//!
//! The `perf_gate` binary drives it:
//!
//! ```text
//! perf_gate                      # check against BENCH_baseline.json
//! perf_gate --update --reason "lorenzo kernel now 2 fewer cycles/block"
//! perf_gate --self-test          # verify the gate catches a +1-cycle drift
//! ```

use std::collections::BTreeMap;

use ceresz_core::{CereszConfig, Codec, ErrorBound};
use ceresz_wse::{execute, execute_decompress, SimOptions, StrategyKind};
use datasets::{generate_field, DatasetId};
use telemetry::json::JsonValue;
use wse_sim::RunReport;

/// Artifact tag identifying a baseline document.
pub const BASELINE_ARTIFACT: &str = "ceresz-perf-baseline";

/// Artifact tag identifying a static-analysis bounds document
/// (`BENCH_static.json`).
pub const STATIC_ARTIFACT: &str = "ceresz-static-profile";

/// Tick-exact metrics of one gated scenario, in a deterministic key order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioMetrics {
    /// Scenario name (the strategy's display form).
    pub name: String,
    /// Metric name → value. Every value is an exact integer: tick counts
    /// (`*_ticks`), wavelet/task/byte counts, and flight-recorder stall
    /// totals. Integers make the zero-tolerance comparison trivially exact
    /// — no float equality, no epsilon to tune.
    pub metrics: BTreeMap<String, u64>,
}

/// A metric that moved between baseline and current collection.
#[derive(Debug, Clone)]
pub struct Drift {
    /// Scenario the drift was observed in.
    pub scenario: String,
    /// Which metric moved (or `<scenario>` for a missing/extra scenario).
    pub metric: String,
    /// Baseline value (`None` if the metric is new).
    pub baseline: Option<u64>,
    /// Current value (`None` if the metric disappeared).
    pub current: Option<u64>,
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let show = |v: Option<u64>| v.map_or("<absent>".to_owned(), |v| format!("{v}"));
        write!(
            f,
            "{} / {}: baseline {} -> current {}",
            self.scenario,
            self.metric,
            show(self.baseline),
            show(self.current)
        )
    }
}

/// The gated strategy suite: one scenario per mapping strategy, sized to
/// run in seconds while still exercising relay chains, pipeline frames, and
/// multi-row sharding (so a perf regression in any of those moves a metric).
#[must_use]
pub fn gate_scenarios() -> Vec<StrategyKind> {
    vec![
        StrategyKind::RowParallel { rows: 4 },
        StrategyKind::Pipeline {
            rows: 2,
            pipeline_length: 4,
        },
        StrategyKind::MultiPipeline {
            rows: 4,
            pipeline_length: 4,
            pipelines_per_row: 4,
        },
    ]
}

/// The gated decompression scenarios, run on the gate input host-compressed
/// at block size 32: two rows of three-PE pipelines, whose inter-PE frames
/// are gated, and two rows of two two-PE pipelines, whose heads also relay.
#[must_use]
pub fn decompress_scenarios() -> Vec<StrategyKind> {
    vec![
        StrategyKind::Pipeline {
            rows: 2,
            pipeline_length: 3,
        },
        StrategyKind::MultiPipeline {
            rows: 2,
            pipeline_length: 2,
            pipelines_per_row: 2,
        },
    ]
}

/// The fixed gate input: a seeded synthetic QMCPack field truncated to 256
/// blocks (identical on every host; see `datasets::generate_field`).
#[must_use]
pub fn gate_data(block_size: usize) -> Vec<f32> {
    let field = generate_field(DatasetId::QmcPack, 0, crate::SEED);
    field
        .data
        .iter()
        .copied()
        .cycle()
        .take(block_size * 256)
        .collect()
}

/// Run the scenario suite — every compression strategy, then the
/// decompression scenarios — and collect its cycle-exact metrics. Flight
/// sampling is enabled so the stall-cause breakdown is part of the gated
/// surface — a routing or backpressure regression shows up even when the
/// finish cycle happens to hide it.
pub fn collect() -> Result<Vec<ScenarioMetrics>, String> {
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
    let data = gate_data(cfg.block_size);
    let options = SimOptions::default().with_flight_window(1024);
    let mut scenarios = gate_scenarios()
        .into_iter()
        .map(|kind| {
            let run = execute(kind, &data, &cfg, &options).map_err(|e| format!("{kind}: {e}"))?;
            let bytes = ("compressed_bytes", run.compressed.data.len());
            Ok(run_metrics(kind.to_string(), &run.report, bytes))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let compressed = Codec::new(cfg).compress(&data).map_err(|e| e.to_string())?;
    for kind in decompress_scenarios() {
        let run = execute_decompress(kind, &compressed, &options)
            .map_err(|e| format!("decompress {kind}: {e}"))?;
        let bytes = ("restored_bytes", run.restored.len() * 4);
        scenarios.push(run_metrics(
            format!("decompress {kind}"),
            &run.report,
            bytes,
        ));
    }
    Ok(scenarios)
}

/// The gated metrics of one flight-recorded run, plus its output size.
fn run_metrics(name: String, report: &RunReport, (key, bytes): (&str, usize)) -> ScenarioMetrics {
    let stats = report.stats();
    let mut metrics = BTreeMap::new();
    metrics.insert("finish_ticks".to_owned(), stats.finish_cycle.ticks());
    metrics.insert(
        "total_busy_ticks".to_owned(),
        stats.total_busy_cycles.ticks(),
    );
    metrics.insert("total_tasks".to_owned(), stats.total_tasks);
    metrics.insert("total_wavelets".to_owned(), stats.total_wavelets);
    metrics.insert("active_pes".to_owned(), stats.active_pes as u64);
    metrics.insert("events_processed".to_owned(), stats.events_processed);
    metrics.insert(key.to_owned(), bytes as u64);
    let flight = report.flight().expect("sampling was enabled");
    for (cause, time) in flight.stall_totals() {
        if cause != "compute" {
            // busy is already gated as total_busy_ticks.
            metrics.insert(format!("stall_{cause}_ticks"), time.ticks());
        }
    }
    ScenarioMetrics { name, metrics }
}

/// Run the static performance analyzer over the gated scenario suite and
/// collect its bounds as gateable integer metrics. Each scenario is also
/// executed once with the flight recorder on and the bounds are checked for
/// soundness against the observation — an unsound bound is an error, never a
/// committed artifact. Like [`collect`], the result is bit-deterministic.
pub fn collect_static() -> Result<Vec<ScenarioMetrics>, String> {
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
    let data = gate_data(cfg.block_size);
    let options = SimOptions::default().with_flight_window(1024);
    gate_scenarios()
        .into_iter()
        .map(|kind| {
            let manifest = ceresz_wse::mapping_manifest(&data, &cfg, kind)
                .map_err(|e| format!("{kind}: {e}"))?;
            let profile = ceresz_wse::analyze_mapping(&manifest);
            let run = execute(kind, &data, &cfg, &options).map_err(|e| format!("{kind}: {e}"))?;
            let (rows, cols) = kind.mesh_shape();
            let peaks = ceresz_wse::mem_peaks(&run.report, rows, cols);
            let flight = run.report.flight().expect("sampling was enabled");
            let sound = ceresz_wse::check_soundness(&profile, run.report.stats(), flight, &peaks);
            if !sound.is_sound() {
                return Err(format!(
                    "{kind}: unsound static bounds: {}",
                    sound.violations.join("; ")
                ));
            }
            let mut metrics = BTreeMap::new();
            metrics.insert(
                "critical_path_ticks".to_owned(),
                profile.critical_path.ticks(),
            );
            metrics.insert(
                "observed_makespan_ticks".to_owned(),
                run.stats.finish_cycle.ticks(),
            );
            metrics.insert("max_link_wavelets".to_owned(), profile.max_link_wavelets());
            metrics.insert(
                "total_link_wavelets".to_owned(),
                profile.total_link_wavelets(),
            );
            metrics.insert("sram_watermark_bytes".to_owned(), profile.sram_watermark());
            metrics.insert("links".to_owned(), profile.links.len() as u64);
            metrics.insert("channels".to_owned(), profile.channels.len() as u64);
            metrics.insert(
                "deadlock_proven".to_owned(),
                u64::from(profile.is_deadlock_free()),
            );
            Ok(ScenarioMetrics {
                name: kind.to_string(),
                metrics,
            })
        })
        .collect()
}

/// Diff `current` against `baseline`. Empty result = gate passes. Every
/// metric is compared for exact equality — the whole point of gating
/// deterministic metrics is that there is no tolerance to tune.
#[must_use]
pub fn compare(baseline: &[ScenarioMetrics], current: &[ScenarioMetrics]) -> Vec<Drift> {
    let mut drifts = Vec::new();
    let by_name = |set: &[ScenarioMetrics]| -> BTreeMap<String, BTreeMap<String, u64>> {
        set.iter()
            .map(|s| (s.name.clone(), s.metrics.clone()))
            .collect()
    };
    let base = by_name(baseline);
    let cur = by_name(current);
    for (name, base_metrics) in &base {
        let Some(cur_metrics) = cur.get(name) else {
            drifts.push(Drift {
                scenario: name.clone(),
                metric: "<scenario>".to_owned(),
                baseline: Some(base_metrics.len() as u64),
                current: None,
            });
            continue;
        };
        let keys: std::collections::BTreeSet<&String> =
            base_metrics.keys().chain(cur_metrics.keys()).collect();
        for key in keys {
            let (b, c) = (
                base_metrics.get(key).copied(),
                cur_metrics.get(key).copied(),
            );
            if b != c {
                drifts.push(Drift {
                    scenario: name.clone(),
                    metric: key.clone(),
                    baseline: b,
                    current: c,
                });
            }
        }
    }
    for name in cur.keys() {
        if !base.contains_key(name) {
            drifts.push(Drift {
                scenario: name.clone(),
                metric: "<scenario>".to_owned(),
                baseline: None,
                current: Some(0),
            });
        }
    }
    drifts
}

/// Serialize a collection (plus the human-supplied drift reason) to the
/// baseline document format.
#[must_use]
pub fn to_json(scenarios: &[ScenarioMetrics], reason: &str) -> JsonValue {
    to_tagged_json(scenarios, reason, BASELINE_ARTIFACT)
}

/// Serialize a static-analysis collection to the `BENCH_static.json` format.
#[must_use]
pub fn to_static_json(scenarios: &[ScenarioMetrics], reason: &str) -> JsonValue {
    to_tagged_json(scenarios, reason, STATIC_ARTIFACT)
}

fn to_tagged_json(scenarios: &[ScenarioMetrics], reason: &str, artifact: &str) -> JsonValue {
    let rows = scenarios
        .iter()
        .map(|s| {
            JsonValue::Obj(vec![
                ("name".to_owned(), JsonValue::Str(s.name.clone())),
                (
                    "metrics".to_owned(),
                    JsonValue::Obj(
                        s.metrics
                            .iter()
                            .map(|(k, v)| (k.clone(), JsonValue::Num(*v as f64)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    JsonValue::Obj(vec![
        ("artifact".to_owned(), JsonValue::Str(artifact.to_owned())),
        ("reason".to_owned(), JsonValue::Str(reason.to_owned())),
        (
            "note".to_owned(),
            JsonValue::Str(
                "cycle-exact deterministic metrics; regenerate only via \
                 `cargo run -p ceresz-bench --bin perf_gate -- --update \
                 --reason \"<why the numbers moved>\"`"
                    .to_owned(),
            ),
        ),
        ("scenarios".to_owned(), JsonValue::Arr(rows)),
    ])
}

/// Parse a baseline document. Returns the scenarios and the recorded reason.
pub fn from_json(doc: &JsonValue) -> Result<(Vec<ScenarioMetrics>, String), String> {
    from_tagged_json(doc, BASELINE_ARTIFACT)
}

fn from_tagged_json(
    doc: &JsonValue,
    expected: &str,
) -> Result<(Vec<ScenarioMetrics>, String), String> {
    let artifact = doc
        .get("artifact")
        .and_then(JsonValue::as_str)
        .ok_or("baseline: missing artifact tag")?;
    if artifact != expected {
        return Err(format!(
            "baseline: unexpected artifact '{artifact}' (expected '{expected}')"
        ));
    }
    let reason = doc
        .get("reason")
        .and_then(JsonValue::as_str)
        .unwrap_or("")
        .to_owned();
    let rows = doc
        .get("scenarios")
        .and_then(JsonValue::as_arr)
        .ok_or("baseline: missing scenarios array")?;
    let mut out = Vec::new();
    for row in rows {
        let name = row
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("baseline: scenario missing name")?
            .to_owned();
        let JsonValue::Obj(fields) = row
            .get("metrics")
            .ok_or_else(|| format!("baseline: scenario '{name}' missing metrics"))?
        else {
            return Err(format!("baseline: scenario '{name}' metrics not an object"));
        };
        let mut metrics = BTreeMap::new();
        for (key, value) in fields {
            let v = value
                .as_f64()
                .ok_or_else(|| format!("baseline: {name}/{key} is not a number"))?;
            // The gate's contract: every metric is an exact integer tick or
            // event count. A fractional value means someone hand-edited the
            // baseline or an old float-cycle artifact leaked in — reject it.
            if v < 0.0 || v.fract() != 0.0 {
                return Err(format!(
                    "baseline: {name}/{key} is not an integer count: {v}"
                ));
            }
            metrics.insert(key.clone(), v as u64);
        }
        out.push(ScenarioMetrics { name, metrics });
    }
    Ok((out, reason))
}

/// Parse a baseline from its on-disk text form.
pub fn parse_baseline(text: &str) -> Result<(Vec<ScenarioMetrics>, String), String> {
    let doc = telemetry::json::parse(text).map_err(|e| format!("baseline: {e}"))?;
    from_json(&doc)
}

/// Parse a `BENCH_static.json` document from its on-disk text form.
pub fn parse_static(text: &str) -> Result<(Vec<ScenarioMetrics>, String), String> {
    let doc = telemetry::json::parse(text).map_err(|e| format!("static baseline: {e}"))?;
    from_tagged_json(&doc, STATIC_ARTIFACT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collection_is_deterministic() {
        let a = collect().unwrap();
        let b = collect().unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a.len(),
            gate_scenarios().len() + decompress_scenarios().len()
        );
        for s in &a {
            assert!(s.metrics["finish_ticks"] > 0, "{}", s.name);
            assert!(
                s.metrics.contains_key("stall_recv_waiting_ticks"),
                "{}",
                s.name
            );
        }
    }

    #[test]
    fn identical_collections_pass_the_gate() {
        let a = collect().unwrap();
        assert!(compare(&a, &a).is_empty());
    }

    #[test]
    fn one_tick_of_drift_fails_the_gate() {
        let baseline = collect().unwrap();
        let mut current = baseline.clone();
        *current[0].metrics.get_mut("finish_ticks").unwrap() += 1;
        let drifts = compare(&baseline, &current);
        assert_eq!(drifts.len(), 1);
        assert_eq!(drifts[0].metric, "finish_ticks");
        assert_eq!(drifts[0].scenario, baseline[0].name);
    }

    #[test]
    fn missing_and_extra_scenarios_are_drift() {
        let baseline = collect().unwrap();
        let mut current = baseline.clone();
        let dropped = current.remove(0);
        current.push(ScenarioMetrics {
            name: "made-up".to_owned(),
            metrics: BTreeMap::new(),
        });
        let drifts = compare(&baseline, &current);
        assert!(drifts.iter().any(|d| d.scenario == dropped.name));
        assert!(drifts.iter().any(|d| d.scenario == "made-up"));
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let scenarios = collect().unwrap();
        let text = to_json(&scenarios, "test reason").to_pretty();
        let (parsed, reason) = parse_baseline(&text).unwrap();
        assert_eq!(parsed, scenarios);
        assert_eq!(reason, "test reason");
        assert!(compare(&scenarios, &parsed).is_empty());
    }

    #[test]
    fn static_collection_is_deterministic_and_sound() {
        let a = collect_static().unwrap();
        let b = collect_static().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), gate_scenarios().len());
        for s in &a {
            assert_eq!(s.metrics["deadlock_proven"], 1, "{}", s.name);
            assert!(
                s.metrics["critical_path_ticks"] <= s.metrics["observed_makespan_ticks"],
                "{}: the critical-path lower bound exceeds the observed makespan",
                s.name
            );
            assert!(s.metrics["sram_watermark_bytes"] > 0, "{}", s.name);
        }
    }

    #[test]
    fn static_baseline_round_trips_and_rejects_cross_tagging() {
        let scenarios = collect_static().unwrap();
        let text = to_static_json(&scenarios, "static reason").to_pretty();
        let (parsed, reason) = parse_static(&text).unwrap();
        assert_eq!(parsed, scenarios);
        assert_eq!(reason, "static reason");
        // A perf baseline must never be mistaken for a static artifact and
        // vice versa.
        assert!(parse_baseline(&text).is_err());
        let perf = to_json(&collect().unwrap(), "r").to_pretty();
        assert!(parse_static(&perf).is_err());
    }
}
