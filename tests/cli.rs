//! End-to-end tests of the `ceresz` command-line tool.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_ceresz")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ceresz-cli-{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_f32(path: &PathBuf, data: &[f32]) {
    let mut bytes = Vec::with_capacity(data.len() * 4);
    for v in data {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(path, bytes).unwrap();
}

fn read_f32(path: &PathBuf) -> Vec<f32> {
    std::fs::read(path)
        .unwrap()
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

#[test]
fn compress_decompress_verify_roundtrip() {
    let dir = tmpdir("roundtrip");
    let orig_path = dir.join("orig.f32");
    let csz_path = dir.join("data.csz");
    let out_path = dir.join("restored.f32");
    let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.01).sin() * 8.0).collect();
    write_f32(&orig_path, &data);

    let st = Command::new(bin())
        .args([
            "compress",
            orig_path.to_str().unwrap(),
            csz_path.to_str().unwrap(),
            "--rel",
            "1e-3",
        ])
        .status()
        .unwrap();
    assert!(st.success());
    assert!(csz_path.metadata().unwrap().len() < orig_path.metadata().unwrap().len());

    let st = Command::new(bin())
        .args([
            "decompress",
            csz_path.to_str().unwrap(),
            out_path.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    assert!(st.success());
    let restored = read_f32(&out_path);
    assert_eq!(restored.len(), data.len());

    let out = Command::new(bin())
        .args([
            "verify",
            orig_path.to_str().unwrap(),
            csz_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("BOUND HELD"));
}

#[test]
fn info_reports_stream_metadata() {
    let dir = tmpdir("info");
    let orig_path = dir.join("orig.f32");
    let csz_path = dir.join("data.csz");
    write_f32(&orig_path, &vec![1.25f32; 4096]);
    Command::new(bin())
        .args([
            "compress",
            orig_path.to_str().unwrap(),
            csz_path.to_str().unwrap(),
            "--abs",
            "0.01",
        ])
        .status()
        .unwrap();
    let out = Command::new(bin())
        .args(["info", csz_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("elements:    4096"), "{text}");
    assert!(text.contains("block size:  32"), "{text}");
}

#[test]
fn observe_reports_congestion_and_writes_artifacts() {
    let dir = tmpdir("observe");
    let orig_path = dir.join("orig.f32");
    let json_path = dir.join("heat.json");
    let csv_path = dir.join("heat.csv");
    let data: Vec<f32> = (0..32 * 64)
        .map(|i| (i as f32 * 0.02).sin() * 5.0)
        .collect();
    write_f32(&orig_path, &data);

    let out = Command::new(bin())
        .args([
            "observe",
            orig_path.to_str().unwrap(),
            "--strategy",
            "pipeline",
            "--rows",
            "2",
            "--len",
            "4",
            "--top",
            "3",
            "--window",
            "256",
            "--json-out",
            json_path.to_str().unwrap(),
            "--csv-out",
            csv_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stall attribution"), "{text}");
    assert!(text.contains("busy heatmap"), "{text}");
    assert!(text.contains("top 3 PEs by total stall cycles"), "{text}");
    assert!(text.contains("top 3 links by occupancy cycles"), "{text}");

    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"artifact\": \"ceresz-flight-recording\""));
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    assert!(csv.starts_with("row,col,busy_ticks"));
    assert_eq!(csv.lines().count(), 2 * 4 + 1); // header + one row per PE
}

#[test]
fn profile_writes_attributed_profile_and_recorded_trace() {
    use ceresz::telemetry::json::{parse, JsonValue};

    let dir = tmpdir("profile");
    let orig_path = dir.join("orig.f32");
    let profile_path = dir.join("profile.json");
    let trace_path = dir.join("trace.json");
    let data: Vec<f32> = (0..32 * 64)
        .map(|i| (i as f32 * 0.013).sin() * 20.0)
        .collect();
    write_f32(&orig_path, &data);

    let out = Command::new(bin())
        .args([
            "profile",
            orig_path.to_str().unwrap(),
            "--rel",
            "1e-3",
            "--strategy",
            "multi-pipeline",
            "--rows",
            "2",
            "--len",
            "4",
            "--pipelines",
            "2",
            "--out",
            profile_path.to_str().unwrap(),
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Every busy tick is attributed to exactly one stage.
    let profile = parse(&std::fs::read_to_string(&profile_path).unwrap()).unwrap();
    let ticks = |v: &JsonValue, key: &str| v.get(key).and_then(JsonValue::as_f64).unwrap() as u64;
    let stages = profile.get("stages").and_then(JsonValue::as_arr).unwrap();
    assert!(!stages.is_empty());
    let attributed: u64 = stages.iter().map(|s| ticks(s, "ticks")).sum();
    assert_eq!(attributed, ticks(&profile, "total_busy_ticks"));

    // One slice per task, plus the flight recording's counter tracks.
    let trace = parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    let events = trace
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .unwrap();
    let phase = |ph: &'static str| {
        events
            .iter()
            .filter(move |e| e.get("ph").and_then(JsonValue::as_str) == Some(ph))
    };
    assert_eq!(phase("X").count() as u64, ticks(&profile, "total_tasks"));
    assert!(phase("C").count() > 0);
    assert!(phase("C").all(|e| e
        .get("name")
        .and_then(JsonValue::as_str)
        .is_some_and(|n| n.starts_with("flight: "))));
}

#[test]
fn lint_json_sweep_reports_all_mappings() {
    let out = Command::new(bin())
        .args(["lint", "--json"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // One entry per sweep shape and direction, zero errors, and nothing but
    // JSON on stdout.
    assert!(text.trim_start().starts_with('{'), "{text}");
    assert_eq!(text.matches("\"name\":").count(), 2 * 32, "{text}");
    assert!(text.contains("\"errors\": 0"), "{text}");
}

#[test]
fn lint_analyze_json_is_stable_and_sound() {
    let dir = tmpdir("lint-analyze");
    let json_path = dir.join("lint.json");
    let run = || {
        Command::new(bin())
            .args([
                "lint",
                "--strategy",
                "multi-pipeline",
                "--rows",
                "2",
                "--len",
                "2",
                "--pipelines",
                "2",
                "--analyze",
                "--json",
                "--json-out",
                json_path.to_str().unwrap(),
            ])
            .output()
            .unwrap()
    };
    let a = run();
    let b = run();
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert_eq!(a.stdout, b.stdout, "lint --json output must be byte-stable");
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("\"critical_path_ticks\""), "{text}");
    assert!(text.contains("\"deadlock\": \"proven\""), "{text}");
    assert!(text.contains("\"soundness_violations\": 0"), "{text}");
    // --json-out wrote the same document to the file.
    let file = std::fs::read_to_string(&json_path).unwrap();
    assert!(text.contains(file.trim()), "file and stdout disagree");
}

#[test]
fn bad_usage_fails_with_help() {
    let out = Command::new(bin()).args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn corrupt_stream_fails_cleanly() {
    let dir = tmpdir("corrupt");
    let bad = dir.join("bad.csz");
    // Long enough for the header parse to reach the magic check.
    std::fs::write(&bad, b"this is definitely not a ceresz stream").unwrap();
    let out = Command::new(bin())
        .args(["info", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("magic"));
}

#[test]
fn custom_block_size_roundtrips() {
    let dir = tmpdir("block");
    let orig_path = dir.join("orig.f32");
    let csz_path = dir.join("data.csz");
    let data: Vec<f32> = (0..5_000).map(|i| (i % 100) as f32).collect();
    write_f32(&orig_path, &data);
    let st = Command::new(bin())
        .args([
            "compress",
            orig_path.to_str().unwrap(),
            csz_path.to_str().unwrap(),
            "--rel",
            "1e-2",
            "--block",
            "64",
        ])
        .status()
        .unwrap();
    assert!(st.success());
    let out = Command::new(bin())
        .args(["info", csz_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("block size:  64"));
}
