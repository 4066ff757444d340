//! The wafer workloads: one simulated compression round per iteration,
//! decomposed into the layer calls `ceresz_wse::execute` makes (new mesh →
//! map → verify → run → reassemble) so each can be timed on its own.

use ceresz_core::compressor::{CereszConfig, CompressError, Compressed};
use ceresz_core::{verify_error_bound, Codec, ErrorBound};
use ceresz_wse::harness::{assemble_blocks, parse_emitted};
use ceresz_wse::{MapOutcome, MappedMesh, Strategy, StrategyKind};
use datasets::{generate_field, DatasetId};
use wse_sim::{MeshConfig, RunReport, SimStats, CLOCK_HZ};

use crate::layers;
use crate::report::{best, peak_rss_mb, Outcome, Tracer};
use crate::Settings;

/// Both wafer workloads compress at the paper's tightest bound.
const BOUND: ErrorBound = ErrorBound::Rel(1e-4);

/// Flight-recorder window of the traced run's stall accounting.
const FLIGHT_WINDOW_CYCLES: u64 = 1 << 20;

/// Timed rounds below which a run keeps going past `--seconds`.
const MIN_ROUNDS: usize = 3;

/// Host decompressions of each round's stream: one takes tens of
/// milliseconds, too short to time once per multi-second round.
const DECOMPRESS_REPEATS: usize = 5;

/// One wafer workload: a mapping and its input.
pub struct WaferInput {
    pub kind: StrategyKind,
    pub data: Vec<f32>,
}

impl WaferInput {
    /// `wafer-full-dense`: the paper's headline configuration, 142
    /// pipelines of length 7 on every usable row of the 750 × 994 mesh, one
    /// round of HACC positions (`xx‖yy‖zz`, cycled to fill the round).
    /// Dense, rough data: no zero blocks and wide fixed lengths, so kernel
    /// work and the 3.4 GB of simulator state dominate.
    #[must_use]
    pub fn full_dense(seed: u64, smoke: bool) -> Self {
        let (rows, per_row) = if smoke {
            (4, 4)
        } else {
            (wse_sim::CS2_USABLE_ROWS, 142)
        };
        let kind = StrategyKind::MultiPipeline {
            rows,
            pipeline_length: 7,
            pipelines_per_row: per_row,
        };
        let positions: Vec<f32> = (0..3)
            .flat_map(|i| generate_field(DatasetId::Hacc, i, seed).data)
            .collect();
        let n = rows * per_row * ceresz_core::DEFAULT_BLOCK_SIZE;
        let data = positions.iter().copied().cycle().take(n).collect();
        Self { kind, data }
    }

    /// `wafer-sparse`: all three RTM snapshots streamed through 16
    /// pipelines of length 8 on 128 × 128 (about 34 rounds per pipeline).
    /// Most blocks are zero, so the zero-block memo and the event engine's
    /// idle skipping dominate, and the simulator state fits in cache.
    #[must_use]
    pub fn sparse(seed: u64, smoke: bool) -> Self {
        let (rows, per_row) = if smoke { (8, 2) } else { (128, 16) };
        let kind = StrategyKind::MultiPipeline {
            rows,
            pipeline_length: 8,
            pipelines_per_row: per_row,
        };
        let mut data: Vec<f32> = (0..3)
            .flat_map(|i| generate_field(DatasetId::Rtm, i, seed).data)
            .collect();
        if smoke {
            // A slice from the strongest sample on, so it crosses the front.
            let len = 3 * rows * per_row * ceresz_core::DEFAULT_BLOCK_SIZE;
            let peak = (0..data.len())
                .max_by(|&a, &b| data[a].abs().total_cmp(&data[b].abs()))
                .unwrap_or(0);
            let start = peak.min(data.len() - len);
            data = data[start..start + len].to_vec();
        }
        Self { kind, data }
    }

    /// The simulator runs on one worker thread. On a two-vCPU shared host
    /// the sharded engine's per-cycle barriers amplify hypervisor jitter:
    /// over ten alternating runs of wafer-full-dense, `compress_mbps`
    /// spread 18 % with two threads and 9 % with one.
    fn mesh_config(&self, flight: bool) -> MeshConfig {
        let (rows, cols) = self.kind.mesh_shape();
        let cfg = MeshConfig::new(rows, cols);
        if flight {
            cfg.with_flight_window(FLIGHT_WINDOW_CYCLES)
        } else {
            cfg
        }
    }
}

/// One simulated compression round.
pub struct Round {
    pub compressed: Compressed,
    pub report: RunReport,
    pub t: RoundTimes,
}

/// Host seconds of each layer call of a round.
#[derive(Debug, Clone, Copy)]
pub struct RoundTimes {
    pub new_mesh_s: f64,
    pub map_s: f64,
    pub verify_s: f64,
    pub run_s: f64,
    pub assemble_s: f64,
}

impl RoundTimes {
    /// Mesh construction, mapping and static verification.
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        self.new_mesh_s + self.map_s + self.verify_s
    }

    /// Simulation and reassembly: the compression proper.
    #[must_use]
    pub fn compress_s(&self) -> f64 {
        self.run_s + self.assemble_s
    }

    /// The whole round.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.setup_s() + self.compress_s()
    }
}

/// Run one round the way `ceresz_wse::execute` composes it, with each layer
/// call in its own span under a `round` span.
pub fn round(
    kind: StrategyKind,
    data: &[f32],
    cfg: &CereszConfig,
    mesh_cfg: MeshConfig,
    tr: &mut Tracer,
) -> Result<Round, String> {
    kind.validate().map_err(|e| e.to_string())?;
    let (rows, cols) = kind.mesh_shape();
    tr.enter("round");
    let result = (|| {
        let (mut mesh, new_mesh_s) = tr.time("wse.new_mesh", || {
            MappedMesh::new(kind.mesh_name(), mesh_cfg, rows, cols)
        });
        let (outcome, map_s) = tr.time("wse.map", || kind.map(&mut mesh, data, cfg));
        let outcome = outcome.map_err(|e| format!("map: {e}"))?;
        let (verdict, verify_s) = tr.time("verify", || wse_verify::verify(mesh.manifest()));
        if !verdict.is_clean() {
            return Err(format!(
                "static verification rejected the mapping:\n{verdict}"
            ));
        }
        let (report, run_s) = tr.time("sim.run", || mesh.into_sim().run());
        let report = report.map_err(|e| format!("simulation: {e}"))?;
        let (compressed, assemble_s) = tr.time("wse.assemble", || reassemble(&outcome, &report));
        Ok(Round {
            compressed: compressed.map_err(|e| format!("reassembly: {e}"))?,
            report,
            t: RoundTimes {
                new_mesh_s,
                map_s,
                verify_s,
                run_s,
                assemble_s,
            },
        })
    })();
    tr.exit();
    result
}

/// Collect each block's emission through the slot table and concatenate
/// them into the stream, as `execute` does.
fn reassemble(outcome: &MapOutcome, report: &RunReport) -> Result<Compressed, CompressError> {
    let blocks = outcome
        .slots
        .iter()
        .map(|&(pe, i)| parse_emitted(report.outputs(pe).get(i).ok_or(CompressError::Truncated)?))
        .collect::<Result<Vec<_>, _>>()?;
    assemble_blocks(&outcome.header, &blocks)
}

/// A round is correct when its stream is the host codec's, byte for byte,
/// and its simulated statistics repeat those of the warm-up round.
fn check_round(
    round: &Result<Round, String>,
    reference: &[u8],
    warm: Option<&SimStats>,
) -> Result<(), String> {
    let r = round.as_ref().map_err(Clone::clone)?;
    if r.compressed.data != reference {
        return Err("wafer stream differs from Codec::compress".into());
    }
    if warm.is_some_and(|w| w != r.report.stats()) {
        return Err("simulated statistics changed between rounds".into());
    }
    Ok(())
}

/// Host-decompress a round's stream, check it against the input's bound,
/// and return the restored values with the decompression seconds.
fn decompress(
    compressed: &Compressed,
    data: &[f32],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Option<(Vec<f32>, f64)> {
    let cfg = CereszConfig::new(BOUND);
    let (restored, secs) = tr.time("core.decompress", || {
        Codec::new(cfg).decompress(&compressed.data)
    });
    let checked = restored.map_err(|e| e.to_string()).and_then(|r| {
        if r.len() == data.len() && verify_error_bound(data, &r, compressed.stats.eps) {
            Ok(r)
        } else {
            Err("decompressed wafer stream violates the error bound".into())
        }
    });
    match checked {
        Ok(r) => {
            out.op(Ok(()));
            Some((r, secs))
        }
        Err(e) => {
            out.op(Err(e));
            None
        }
    }
}

/// Run a wafer workload: end-to-end metrics untraced, per-layer metrics
/// when `s.trace` is set.
pub fn run(name: &str, input: &WaferInput, s: &Settings) -> Outcome {
    let mut out = Outcome {
        sim_threads: input.mesh_config(false).effective_threads(),
        ..Outcome::default()
    };
    let cfg = CereszConfig::new(BOUND);
    let data = &input.data;
    let reference = match Codec::new(cfg).compress(data) {
        Ok(c) => c,
        Err(e) => {
            out.op(Err(format!("reference compression: {e}")));
            return out;
        }
    };
    out.op(Ok(()));
    let mut off = Tracer::new(false);
    // Warm-up round: the traced run records the flight recorder here,
    // where its cost and memory cannot distort a timed round.
    let warm = round(
        input.kind,
        data,
        &cfg,
        input.mesh_config(s.trace.is_some()),
        &mut off,
    );
    out.op(check_round(&warm, &reference.data, None));
    let Ok(warm) = warm else { return out };
    if let Some(path) = &s.trace {
        traced_run(name, input, &warm, &reference, path, s.seconds, &mut out);
        return out;
    }

    // Only the timings of a round are kept: holding reports would fragment
    // the heap and slow each later round a little more.
    let warm_stats = warm.report.stats().clone();
    drop(warm);
    let mut times: Vec<RoundTimes> = Vec::new();
    let mut decompress_s = Vec::new();
    let mut psnr = None;
    let start = std::time::Instant::now();
    while times.len() < s.min_iterations(MIN_ROUNDS) || start.elapsed().as_secs_f64() < s.seconds {
        let r = round(input.kind, data, &cfg, input.mesh_config(false), &mut off);
        out.op(check_round(&r, &reference.data, Some(&warm_stats)));
        let Ok(r) = r else { break };
        for _ in 0..DECOMPRESS_REPEATS {
            if let Some((restored, secs)) = decompress(&r.compressed, data, &mut off, &mut out) {
                decompress_s.push(secs);
                psnr.get_or_insert_with(|| metrics::psnr(data, &restored));
            }
        }
        times.push(r.t);
    }
    let walls: Vec<f64> = times.iter().map(RoundTimes::wall_s).collect();
    let compress: Vec<f64> = times.iter().map(RoundTimes::compress_s).collect();
    let setups: Vec<f64> = times.iter().map(RoundTimes::setup_s).collect();
    let mb = std::mem::size_of_val(data.as_slice()) as f64 / 1e6;
    out.distribution("round.wall_s", "s", &walls);
    out.distribution("round.setup_s", "s", &setups);
    out.distribution("round.compress_s", "s", &compress);
    out.distribution("decompress_s", "s", &decompress_s);
    out.notes.push(format!(
        "info sim_gbps {} GB/s (simulated at {} MHz, unvalidated against hardware)",
        warm_stats.throughput_gbps(reference.stats.original_bytes, CLOCK_HZ),
        CLOCK_HZ / 1e6
    ));
    out.metric("compress_mbps", mb / best(&compress), "MB/s");
    out.metric("decompress_mbps", mb / best(&decompress_s), "MB/s");
    out.metric("ratio", reference.ratio(), "ratio");
    out.metric("psnr_db", psnr.unwrap_or(f64::NAN), "dB");
    out.metric("setup_s", best(&setups), "s");
    out.metric("wall_s", best(&walls), "s");
    out.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
    out
}

/// The traced run: pairs of an untraced and a traced round until
/// `seconds` have passed (at least one pair), each traced round followed by
/// the host codec calls it is checked against; then the layer replays.
fn traced_run(
    name: &str,
    input: &WaferInput,
    warm: &Round,
    reference: &Compressed,
    path: &std::path::Path,
    seconds: f64,
    out: &mut Outcome,
) {
    let cfg = CereszConfig::new(BOUND);
    let data = &input.data;
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    tr.enter(&format!("workload {name}"));
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = std::time::Instant::now();
    'pairs: while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        // Alternate which side goes first, so drift favours neither.
        let traced_first = traced.len() % 2 == 1;
        for on in [traced_first, !traced_first] {
            let tracer = if on { &mut tr } else { &mut off };
            let r = round(input.kind, data, &cfg, input.mesh_config(false), tracer);
            out.op(check_round(&r, &reference.data, Some(warm.report.stats())));
            let Ok(r) = r else { break 'pairs };
            if !on {
                untraced.push(r.t.wall_s());
                continue;
            }
            let (again, _) = tr.time("core.compress", || Codec::new(cfg).compress(data));
            out.op(match again {
                Ok(c) if c.data == reference.data => Ok(()),
                Ok(_) => Err("Codec::compress is not deterministic".into()),
                Err(e) => Err(format!("compress: {e}")),
            });
            decompress(&r.compressed, data, &mut tr, out);
            traced.push(r.t);
        }
    }
    if !traced.is_empty() {
        let walls: Vec<f64> = traced.iter().map(RoundTimes::wall_s).collect();
        out.metric(
            "trace_overhead_frac",
            best(&walls) / best(&untraced) - 1.0,
            "ratio",
        );
        layer_metrics(input, warm, &traced, &tr, out);
    }
    layers::codec_self_times(&tr, traced.len(), out);
    layers::replay(&[(data, None)], BOUND, &mut tr, out);
    tr.exit();
    if let Err(e) = tr.write_chrome(path, name) {
        out.op(Err(format!("writing {}: {e}", path.display())));
    }
}

/// Per-layer figures: host times as the best over the traced rounds, and
/// everything simulated from the flight-recorded round, whose statistics
/// every traced round was checked to repeat.
fn layer_metrics(
    input: &WaferInput,
    flight: &Round,
    traced: &[RoundTimes],
    tr: &Tracer,
    out: &mut Outcome,
) {
    let stats = flight.report.stats();
    let (rows, cols) = input.kind.mesh_shape();
    let cycles = |t: wse_sim::Time| t.cycles_f64();
    let host = |f: fn(&RoundTimes) -> f64| best(&traced.iter().map(f).collect::<Vec<f64>>());
    let run_s = host(|t| t.run_s);
    out.sim_threads = input.mesh_config(false).effective_threads();
    out.metric("wse.new_mesh_s", host(|t| t.new_mesh_s), "s");
    out.metric("wse.map_s", host(|t| t.map_s), "s");
    out.metric("wse.assemble_s", host(|t| t.assemble_s), "s");
    out.metric(
        "wse.blocks",
        flight.compressed.stats.n_blocks as f64,
        "count",
    );
    out.metric(
        "wse.zero_block_fraction",
        flight.compressed.stats.zero_block_fraction(),
        "ratio",
    );
    let verify_s = host(|t| t.verify_s);
    out.metric("verify.s", verify_s, "s");
    out.metric(
        "verify.ns_per_pe",
        verify_s * 1e9 / (rows * cols) as f64,
        "ns",
    );
    out.metric("sim.run_s", run_s, "s");
    out.metric(
        "sim.ns_per_event",
        run_s * 1e9 / stats.events_processed.max(1) as f64,
        "ns",
    );
    out.metric("sim.events", stats.events_processed as f64, "count");
    out.metric("sim.tasks", stats.total_tasks as f64, "count");
    out.metric("sim.wavelets", stats.total_wavelets as f64, "count");
    out.metric("sim.active_pes", stats.active_pes as f64, "count");
    out.metric("sim.utilization", stats.utilization(), "ratio");
    out.metric("sim.finish_cycles", cycles(stats.finish_cycle), "cycles");
    out.metric("sim.busy_cycles", cycles(stats.total_busy_cycles), "cycles");
    out.metric(
        "sim.gbps",
        stats.throughput_gbps(flight.compressed.stats.original_bytes, CLOCK_HZ),
        "GB/s",
    );
    match flight.report.flight() {
        Some(rec) => {
            for (cause, time) in rec.stall_totals() {
                out.metric(format!("sim.stall.{cause}_cycles"), cycles(time), "cycles");
            }
        }
        None => out.op(Err("the flight round recorded no flight data".into())),
    }
    out.metric(
        "round_unattributed_frac",
        tr.self_seconds("round") / tr.total_seconds("round"),
        "ratio",
    );
}

/// The wafer layers on a host workload: the first blocks of every field,
/// mapped onto a small mesh, one flight-recorded and one traced round.
/// These figures describe the layers on this workload's data; no end-to-end
/// metric of a host workload depends on them.
pub fn sample_layers(
    fields: &[datasets::Field],
    bound: ErrorBound,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    const BLOCKS_PER_FIELD: usize = 64;
    let data: Vec<f32> = fields
        .iter()
        .flat_map(|f| {
            f.data
                .iter()
                .take(BLOCKS_PER_FIELD * ceresz_core::DEFAULT_BLOCK_SIZE)
        })
        .copied()
        .collect();
    let input = WaferInput {
        kind: StrategyKind::MultiPipeline {
            rows: 16,
            pipeline_length: 8,
            pipelines_per_row: 8,
        },
        data,
    };
    let cfg = CereszConfig::new(bound);
    let reference = match Codec::new(cfg).compress(&input.data) {
        Ok(c) => c,
        Err(e) => return out.op(Err(format!("sample reference compression: {e}"))),
    };
    let mut off = Tracer::new(false);
    let flight = round(
        input.kind,
        &input.data,
        &cfg,
        input.mesh_config(true),
        &mut off,
    );
    out.op(check_round(&flight, &reference.data, None));
    let traced = round(input.kind, &input.data, &cfg, input.mesh_config(false), tr);
    let flight_stats = flight.as_ref().ok().map(|f| f.report.stats());
    out.op(check_round(&traced, &reference.data, flight_stats));
    if let (Ok(flight), Ok(traced)) = (flight, traced) {
        layer_metrics(&input, &flight, &[traced.t], tr, out);
    }
}
