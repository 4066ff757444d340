//! Golden end-to-end tests for the observability pipeline: a small
//! simulated run must yield a valid Perfetto/Chrome trace with the expected
//! track and slice counts, and a `profile.json` whose per-stage ticks sum
//! exactly to the run's total busy ticks.

use ceresz::core::{CereszConfig, ErrorBound};
use ceresz::telemetry::json::{self, JsonValue};
use ceresz::telemetry::profile::ProfileReport;
use ceresz::wse::{profile_compression, StrategyKind};

fn wavy(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| (i as f32 * 0.019).sin() * 11.0 + (i as f32 * 0.002).cos() * 3.0)
        .collect()
}

#[test]
fn perfetto_trace_has_expected_tracks_and_slices() {
    let data = wavy(32 * 8); // 8 blocks
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
    let profile = profile_compression(
        &data,
        &cfg,
        StrategyKind::Pipeline {
            rows: 2,
            pipeline_length: 2,
        },
    )
    .unwrap();

    let text = profile.trace.to_json().to_pretty();
    let doc = json::parse(&text).expect("trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents array");

    let metas: Vec<&JsonValue> = events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("M"))
        .collect();
    let slices: Vec<&JsonValue> = events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .collect();

    // One process_name metadata entry plus one thread_name per active PE.
    let stats = &profile.run.stats;
    assert_eq!(metas.len(), 1 + stats.active_pes, "metadata track count");
    // One complete slice per executed task.
    assert_eq!(slices.len() as u64, stats.total_tasks, "slice count");
    // Slices are named by kernel stage; a pipeline run must include the
    // quantization stage on its first PEs.
    assert!(
        slices
            .iter()
            .any(|s| s.get("name").and_then(JsonValue::as_str) == Some("quant-mul")),
        "expected a quant-mul-labelled slice"
    );
}

#[test]
fn profile_json_stage_ticks_sum_to_total_busy_ticks() {
    let data = wavy(32 * 12);
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
    for strategy in [
        StrategyKind::RowParallel { rows: 3 },
        StrategyKind::Pipeline {
            rows: 1,
            pipeline_length: 4,
        },
        StrategyKind::MultiPipeline {
            rows: 1,
            pipeline_length: 1,
            pipelines_per_row: 3,
        },
    ] {
        let profile = profile_compression(&data, &cfg, strategy).unwrap();
        // Round-trip through the JSON document, as consumers would.
        let doc = json::parse(&profile.report.to_json().to_pretty()).unwrap();
        let back = ProfileReport::from_json(&doc).unwrap();
        // Integer ticks survive the JSON round trip exactly, so the stage
        // column sums to the busy total with zero tolerance.
        let attributed = back.attributed_ticks();
        let total = back.total_busy_ticks;
        assert!(total > 0, "{strategy:?}: no busy ticks recorded");
        assert_eq!(
            attributed, total,
            "{strategy:?}: stages sum to {attributed}, busy ticks {total}"
        );
        // Shares in the document likewise sum to 1.
        let share_sum: f64 = doc
            .get("stages")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .map(|s| s.get("share").and_then(JsonValue::as_f64).unwrap())
            .sum();
        assert!(
            (share_sum - 1.0).abs() <= 1e-3,
            "{strategy:?}: shares sum to {share_sum}"
        );
    }
}

#[test]
fn profile_groups_reproduce_paper_ordering() {
    // Tables 1–3: fixed-length encoding dominates, then pre-quantization,
    // then the one-pass Lorenzo predictor.
    let data = wavy(32 * 32);
    let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
    let profile = profile_compression(&data, &cfg, StrategyKind::RowParallel { rows: 4 }).unwrap();
    let groups: std::collections::BTreeMap<&str, u64> =
        profile.report.grouped().into_iter().collect();
    assert!(groups["encode"] > groups["pre-quant"]);
    assert!(groups["pre-quant"] > groups["lorenzo"]);
}
