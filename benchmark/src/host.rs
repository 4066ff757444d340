//! The host-codec workloads: every synthetic field of the six datasets,
//! compressed and decompressed through `Codec` with the default
//! configuration (the rayon path users get; the vendored rayon runs
//! sequentially, so these figures are single-core).

use ceresz_core::{tune, verify_error_bound, CereszConfig, Codec, ErrorBound};
use datasets::{generate_field, Field, ALL_DATASETS};

use crate::layers;
use crate::report::{best, peak_rss_mb, Outcome, Tracer};
use crate::wafer;
use crate::Settings;

/// Timed passes below which a run keeps going past `--seconds`.
const MIN_PASSES: usize = 3;

/// Input generations whose fastest is `host-canonical`'s set-up time.
const SETUP_REPEATS: usize = 3;

/// Elements kept per field in `--smoke` runs.
const SMOKE_ELEMS: usize = 8192;

/// A host workload: the error bound, and whether each field is tuned first
/// (the `--auto-tune` path).
pub struct HostWorkload {
    pub bound: ErrorBound,
    pub tuned: bool,
}

/// `host-canonical`: the tightest paper bound gives the widest blocks, so
/// the fused path's fixed-length and bit-shuffle steps do the most work.
pub const CANONICAL: HostWorkload = HostWorkload {
    bound: ErrorBound::Rel(1e-4),
    tuned: false,
};

/// `host-autotune`: a loose bound leaves few bit-planes, so the stage
/// interpreter and the Huffman stage the tuner picks do most of the work.
pub const AUTOTUNE: HostWorkload = HostWorkload {
    bound: ErrorBound::Rel(1e-2),
    tuned: true,
};

/// Every synthetic field of the six datasets, generated from `seed`.
#[must_use]
pub fn fields(seed: u64, smoke: bool) -> Vec<Field> {
    ALL_DATASETS
        .iter()
        .flat_map(|&ds| (0..ds.n_fields()).map(move |i| generate_field(ds, i, seed)))
        .map(|f| if smoke { shrink(f) } else { f })
        .collect()
}

/// The leading `SMOKE_ELEMS` elements of a field (whole rows of a 2-D one).
fn shrink(f: Field) -> Field {
    let (keep, dims) = match f.dims.as_slice() {
        [_, cols] => {
            let rows = (SMOKE_ELEMS / cols).max(1);
            (rows * cols, vec![rows, *cols])
        }
        _ => (SMOKE_ELEMS.min(f.len()), vec![SMOKE_ELEMS.min(f.len())]),
    };
    Field::new(f.name, dims, f.data[..keep].to_vec())
}

/// The shape of a row-major 2-D field, which enables the tuner's 2-D
/// candidate (as `ceresz compress --auto-tune --dims RxC` does).
fn dims2(f: &Field) -> Option<(usize, usize)> {
    match f.dims.as_slice() {
        [r, c] => Some((*r, *c)),
        _ => None,
    }
}

/// Totals of one pass over every field.
#[derive(Default)]
struct Pass {
    tune_s: f64,
    compress_s: f64,
    decompress_s: f64,
    bytes_in: usize,
    bytes_out: usize,
    psnr: Vec<f64>,
    compress_ns_per_elem: Vec<f64>,
    decompress_ns_per_elem: Vec<f64>,
}

impl Pass {
    fn wall_s(&self) -> f64 {
        self.tune_s + self.compress_s + self.decompress_s
    }
}

/// Tune (if the workload does), compress, and decompress every field once,
/// checking each restored field against its bound.
fn pass(w: &HostWorkload, fields: &[Field], tr: &mut Tracer, out: &mut Outcome) -> Pass {
    let base = CereszConfig::new(w.bound);
    let mut p = Pass::default();
    tr.enter("pass");
    for f in fields {
        let mut cfg = base;
        if w.tuned {
            let (report, secs) = tr.time("tune", || tune(&f.data, dims2(f), &base));
            p.tune_s += secs;
            match report {
                Ok(r) => cfg = r.chosen,
                Err(e) => {
                    out.op(Err(format!("tune {}: {e}", f.name)));
                    continue;
                }
            }
            out.op(Ok(()));
        }
        let (mut compressed, mut secs) =
            tr.time("core.compress", || Codec::new(cfg).compress(&f.data));
        if compressed.is_err() && cfg.recipe != base.recipe {
            // As `tune::compress_auto` does: a tuned recipe that fails on
            // the whole field falls back to the caller's configuration.
            let (retry, more) = tr.time("core.compress", || Codec::new(base).compress(&f.data));
            (compressed, secs) = (retry, secs + more);
        }
        p.compress_s += secs;
        let c = match compressed {
            Ok(c) => c,
            Err(e) => {
                out.op(Err(format!("compress {}: {e}", f.name)));
                continue;
            }
        };
        out.op(Ok(()));
        let (restored, dsecs) = tr.time("core.decompress", || Codec::new(cfg).decompress(&c.data));
        p.decompress_s += dsecs;
        let restored = restored.map_err(|e| e.to_string()).and_then(|r| {
            if r.len() == f.len() && verify_error_bound(&f.data, &r, c.stats.eps) {
                Ok(r)
            } else {
                Err("restored field violates the error bound".into())
            }
        });
        match restored {
            Ok(r) => {
                out.op(Ok(()));
                p.psnr.push(metrics::psnr(&f.data, &r));
            }
            Err(e) => out.op(Err(format!("decompress {}: {e}", f.name))),
        }
        p.bytes_in += c.stats.original_bytes;
        p.bytes_out += c.stats.compressed_bytes;
        p.compress_ns_per_elem.push(secs * 1e9 / f.len() as f64);
        p.decompress_ns_per_elem.push(dsecs * 1e9 / f.len() as f64);
    }
    tr.exit();
    p
}

/// Run a host workload: end-to-end metrics untraced, per-layer metrics
/// when `s.trace` is set.
pub fn run(name: &str, w: &HostWorkload, s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let mut generate_s = Vec::new();
    let mut inputs = Vec::new();
    let repeats = if w.tuned {
        1
    } else {
        s.min_iterations(SETUP_REPEATS)
    };
    for _ in 0..repeats {
        let t0 = std::time::Instant::now();
        inputs = fields(s.seed, s.smoke);
        generate_s.push(t0.elapsed().as_secs_f64());
    }
    let mut off = Tracer::new(false);
    // Warm-up pass: caches, allocator pools and page faults settle here.
    pass(w, &inputs, &mut off, &mut out);

    if let Some(path) = &s.trace {
        traced_run(name, w, &inputs, path, s.seconds, &mut out);
        return out;
    }

    let mut passes = Vec::new();
    let start = std::time::Instant::now();
    while passes.len() < s.min_iterations(MIN_PASSES) || start.elapsed().as_secs_f64() < s.seconds {
        passes.push(pass(w, &inputs, &mut off, &mut out));
    }
    let series = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let all = |f: fn(&Pass) -> &Vec<f64>| passes.iter().flat_map(f).copied().collect::<Vec<f64>>();
    out.distribution(
        "compress.ns_per_elem",
        "ns",
        &all(|p| &p.compress_ns_per_elem),
    );
    out.distribution(
        "decompress.ns_per_elem",
        "ns",
        &all(|p| &p.decompress_ns_per_elem),
    );
    out.distribution("pass.compress_s", "s", &series(|p| p.compress_s));
    out.distribution("pass.decompress_s", "s", &series(|p| p.decompress_s));
    if w.tuned {
        out.distribution("pass.tune_s", "s", &series(|p| p.tune_s));
    }
    out.distribution("pass.wall_s", "s", &series(Pass::wall_s));
    let first = &passes[0];
    let mb = first.bytes_in as f64 / 1e6;
    out.metric(
        "compress_mbps",
        mb / best(&series(|p| p.compress_s)),
        "MB/s",
    );
    out.metric(
        "decompress_mbps",
        mb / best(&series(|p| p.decompress_s)),
        "MB/s",
    );
    out.metric(
        "ratio",
        first.bytes_in as f64 / first.bytes_out as f64,
        "ratio",
    );
    // A field the tuner stores losslessly has infinite PSNR; the mean is
    // over the lossy ones.
    let lossy: Vec<f64> = first
        .psnr
        .iter()
        .copied()
        .filter(|p| p.is_finite())
        .collect();
    out.metric(
        "psnr_db",
        lossy.iter().sum::<f64>() / lossy.len() as f64,
        "dB",
    );
    let setup = if w.tuned {
        series(|p| p.tune_s)
    } else {
        generate_s
    };
    out.metric("setup_s", best(&setup), "s");
    out.metric("wall_s", best(&series(Pass::wall_s)), "s");
    out.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
    out
}

/// The traced run: pairs of an untraced and a traced pass until `seconds`
/// have passed (at least one pair), then the layer replays over every
/// field and the wafer layers on a sample of them.
fn traced_run(
    name: &str,
    w: &HostWorkload,
    inputs: &[Field],
    path: &std::path::Path,
    seconds: f64,
    out: &mut Outcome,
) {
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    tr.enter(&format!("workload {name}"));
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = std::time::Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        // Alternate which side goes first, so drift favours neither.
        let traced_first = traced.len() % 2 == 1;
        for on in [traced_first, !traced_first] {
            if on {
                traced.push(pass(w, inputs, &mut tr, out).wall_s());
            } else {
                untraced.push(pass(w, inputs, &mut off, out).wall_s());
            }
        }
    }
    out.metric(
        "trace_overhead_frac",
        best(&traced) / best(&untraced) - 1.0,
        "ratio",
    );
    layers::codec_self_times(&tr, traced.len(), out);
    let replay_inputs: Vec<layers::Input<'_>> = inputs
        .iter()
        .map(|f| (f.data.as_slice(), dims2(f)))
        .collect();
    layers::replay(&replay_inputs, w.bound, &mut tr, out);
    wafer::sample_layers(inputs, w.bound, &mut tr, out);
    tr.exit();
    if let Err(e) = tr.write_chrome(path, name) {
        out.op(Err(format!("writing {}: {e}", path.display())));
    }
}
