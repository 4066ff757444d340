//! Per-layer replays for the traced run: each public layer function of
//! `ceresz-core` and `huffman`, and the tuner, timed over every block of the
//! workload's input.

use std::hint::black_box;

use ceresz_core::block::{BlockCodec, BlockScratch};
use ceresz_core::fixed_length::{
    bit_shuffle, bit_unshuffle, effective_bits, max_magnitude, signs_and_magnitudes,
};
use ceresz_core::lorenzo::forward_1d_in_place;
use ceresz_core::quantize::{dequantize, quantize};
use ceresz_core::{
    tune, verify_error_bound, CereszConfig, CompressionStats, ErrorBound, HeaderWidth, Plane,
    StageCtx, StageSpec, DEFAULT_BLOCK_SIZE,
};

use crate::report::{Outcome, Tracer};

/// One input field: values and, for a row-major 2-D grid, its shape (which
/// enables the tuner's 2-D candidate).
pub type Input<'a> = (&'a [f32], Option<(usize, usize)>);

/// Seconds spent in each fused-path function, summed over all fields.
#[derive(Default)]
struct CoreTimes {
    quantize: f64,
    lorenzo: f64,
    sign: f64,
    max: f64,
    getlen: f64,
    shuffle: f64,
    unshuffle: f64,
    dequantize: f64,
    encode: f64,
    decode: f64,
    elems: usize,
    blocks: usize,
    zero_blocks: usize,
    planes: u64,
}

/// Self time of the traced `Codec::compress` and `Codec::decompress` spans,
/// per traced pass or round.
pub fn codec_self_times(tr: &Tracer, iterations: usize, out: &mut Outcome) {
    let per = iterations.max(1) as f64;
    out.metric(
        "core.compress.self_s",
        tr.self_seconds("core.compress") / per,
        "s",
    );
    out.metric(
        "core.decompress.self_s",
        tr.self_seconds("core.decompress") / per,
        "s",
    );
}

/// Replay every layer over `inputs` at `bound` and record the per-layer
/// metrics.
pub fn replay(inputs: &[Input<'_>], bound: ErrorBound, tr: &mut Tracer, out: &mut Outcome) {
    let cfg = CereszConfig::new(bound);
    tr.enter("replay.core");
    let mut core = CoreTimes::default();
    for &(data, _) in inputs {
        let result = cfg
            .resolve_eps(data)
            .map_err(|e| e.to_string())
            .and_then(|eps| core_field(data, eps, &mut core));
        out.op(result);
    }
    tr.exit();
    let per_elem = |s: f64| s * 1e9 / core.elems.max(1) as f64;
    out.metric("core.quantize.ns_per_elem", per_elem(core.quantize), "ns");
    out.metric("core.lorenzo.ns_per_elem", per_elem(core.lorenzo), "ns");
    out.metric("core.fl_sign.ns_per_elem", per_elem(core.sign), "ns");
    out.metric("core.fl_max.ns_per_elem", per_elem(core.max), "ns");
    out.metric(
        "core.fl_getlen.ns_per_block",
        core.getlen * 1e9 / core.blocks.max(1) as f64,
        "ns",
    );
    out.metric("core.fl_shuffle.ns_per_elem", per_elem(core.shuffle), "ns");
    out.metric(
        "core.fl_shuffle.ns_per_plane",
        core.shuffle * 1e9 / core.planes.max(1) as f64,
        "ns",
    );
    out.metric(
        "core.fl_unshuffle.ns_per_elem",
        per_elem(core.unshuffle),
        "ns",
    );
    out.metric(
        "core.dequantize.ns_per_elem",
        per_elem(core.dequantize),
        "ns",
    );
    out.metric("core.encode_block.ns_per_elem", per_elem(core.encode), "ns");
    out.metric("core.decode_block.ns_per_elem", per_elem(core.decode), "ns");
    out.metric(
        "core.mean_fixed_length",
        core.planes as f64 / core.blocks.max(1) as f64,
        "bits",
    );
    out.metric(
        "core.zero_block_fraction",
        core.zero_blocks as f64 / core.blocks.max(1) as f64,
        "ratio",
    );

    tr.enter("replay.stage");
    let mut stages = StageTimes::default();
    for &(data, _) in inputs {
        let result = cfg
            .resolve_eps(data)
            .map_err(|e| e.to_string())
            .and_then(|eps| stage_field(data, eps, &mut stages));
        out.op(result);
    }
    tr.exit();
    let elems = core.elems.max(1) as f64;
    for (i, name) in STAGES.iter().map(|(_, n)| n).enumerate() {
        out.metric(
            format!("stage.{name}.encode_ns_per_elem"),
            stages.encode[i] * 1e9 / elems,
            "ns",
        );
        out.metric(
            format!("stage.{name}.decode_ns_per_elem"),
            stages.decode[i] * 1e9 / elems,
            "ns",
        );
    }
    // The canonical stages (all but Huffman) through the interpreter, over
    // the fused block codec doing the same work.
    let interp: f64 = stages.encode[..3].iter().chain(&stages.decode[..3]).sum();
    out.metric(
        "stage.interp_over_fused",
        interp / (core.encode + core.decode),
        "ratio",
    );
    out.metric(
        "huffman.encode_ns_per_symbol",
        stages.huffman_encode * 1e9 / stages.symbols.max(1) as f64,
        "ns",
    );
    out.metric(
        "huffman.decode_ns_per_symbol",
        stages.huffman_decode * 1e9 / stages.symbols.max(1) as f64,
        "ns",
    );
    out.metric(
        "huffman.bits_per_symbol",
        stages.payload_bits as f64 / stages.symbols.max(1) as f64,
        "bits",
    );

    tr.enter("replay.tune");
    let (mut tune_s, mut scored, mut margins) = (0.0, 0usize, 0.0);
    for &(data, dims) in inputs {
        let (report, secs) = tr.time("tune", || tune(data, dims, &cfg));
        tune_s += secs;
        match report {
            Ok(r) => {
                scored += r.scores.iter().filter(|s| s.ratio.is_some()).count();
                margins += r.margin();
                out.op(Ok(()));
            }
            Err(e) => out.op(Err(format!("tune: {e}"))),
        }
    }
    tr.exit();
    let fields = inputs.len().max(1) as f64;
    out.metric("tune.s_per_field", tune_s / fields, "s");
    out.metric("tune.candidates_scored", scored as f64, "count");
    out.metric("tune.margin_mean", margins / fields, "ratio");
}

/// Time each fused-path function over every block of one field, then check
/// the sub-steps agree with the fused codec and the output holds the bound.
fn core_field(data: &[f32], eps: f64, t: &mut CoreTimes) -> Result<(), String> {
    let bs = DEFAULT_BLOCK_SIZE;
    let pb = bs / 8;
    let nb = data.len().div_ceil(bs);
    let timed = |secs: &mut f64, f: &mut dyn FnMut()| {
        let t0 = std::time::Instant::now();
        f();
        *secs += t0.elapsed().as_secs_f64();
    };

    let mut q = vec![0i64; nb * bs];
    let mut quantize_err = None;
    timed(&mut t.quantize, &mut || {
        for (src, dst) in data.chunks(bs).zip(q.chunks_mut(bs)) {
            if let Err(e) = quantize(src, eps, &mut dst[..src.len()]) {
                quantize_err.get_or_insert(e);
            }
        }
    });
    if let Some(e) = quantize_err {
        return Err(format!("quantize: {e}"));
    }
    let quantized = q.clone();
    timed(&mut t.lorenzo, &mut || {
        q.chunks_exact_mut(bs).for_each(forward_1d_in_place);
    });
    let mut signs = vec![0u8; nb * pb];
    let mut mags = vec![0u32; nb * bs];
    timed(&mut t.sign, &mut || {
        for ((d, s), m) in q
            .chunks_exact(bs)
            .zip(signs.chunks_exact_mut(pb))
            .zip(mags.chunks_exact_mut(bs))
        {
            signs_and_magnitudes(d, s, m);
        }
    });
    let mut maxes = vec![0u32; nb];
    timed(&mut t.max, &mut || {
        for (m, x) in mags.chunks_exact(bs).zip(&mut maxes) {
            *x = max_magnitude(black_box(m));
        }
    });
    let mut lens = vec![0u32; nb];
    timed(&mut t.getlen, &mut || {
        for (&x, f) in maxes.iter().zip(&mut lens) {
            *f = effective_bits(black_box(x));
        }
    });
    let planes_total: u64 = lens.iter().map(|&f| u64::from(f)).sum();
    let mut planes = vec![0u8; planes_total as usize * pb];
    timed(&mut t.shuffle, &mut || {
        let mut off = 0;
        for (m, &f) in mags.chunks_exact(bs).zip(&lens) {
            let n = f as usize * pb;
            bit_shuffle(m, f, &mut planes[off..off + n]);
            off += n;
        }
    });
    let mut back = vec![0u32; nb * bs];
    timed(&mut t.unshuffle, &mut || {
        let mut off = 0;
        for (m, &f) in back.chunks_exact_mut(bs).zip(&lens) {
            let n = f as usize * pb;
            bit_unshuffle(&planes[off..off + n], f, m);
            off += n;
        }
    });
    let mut restored = vec![0f32; nb * bs];
    timed(&mut t.dequantize, &mut || {
        for (qb, ob) in quantized
            .chunks_exact(bs)
            .zip(restored.chunks_exact_mut(bs))
        {
            dequantize(qb, eps, ob);
        }
    });

    let codec = BlockCodec::new(bs, HeaderWidth::W4);
    let mut scratch = BlockScratch::default();
    let mut encoded = Vec::with_capacity(data.len() * 4);
    let mut fused_planes = 0u64;
    let mut codec_err = None;
    timed(&mut t.encode, &mut || {
        for chunk in data.chunks(bs) {
            match codec.encode_block_with(chunk, eps, &mut scratch, &mut encoded) {
                Ok(info) => fused_planes += u64::from(info.fixed_length),
                Err(e) => {
                    codec_err.get_or_insert(format!("encode_block: {e}"));
                }
            }
        }
    });
    let mut decoded = vec![0f32; data.len()];
    timed(&mut t.decode, &mut || {
        let mut pos = 0;
        for out in decoded.chunks_mut(bs) {
            match codec.decode_block_with(&encoded[pos..], eps, &mut scratch, out) {
                Ok(n) => pos += n,
                Err(e) => {
                    codec_err.get_or_insert(format!("decode_block: {e}"));
                    break;
                }
            }
        }
    });

    t.elems += data.len();
    t.blocks += nb;
    t.zero_blocks += lens.iter().filter(|&&f| f == 0).count();
    t.planes += planes_total;
    if let Some(e) = codec_err {
        return Err(e);
    }
    if back != mags {
        return Err("bit_unshuffle did not invert bit_shuffle".into());
    }
    if fused_planes != planes_total {
        return Err("fused encoder and sub-steps disagree on fixed lengths".into());
    }
    if !verify_error_bound(data, &restored[..data.len()], eps)
        || !verify_error_bound(data, &decoded, eps)
    {
        return Err("replayed block codec violates the error bound".into());
    }
    Ok(())
}

/// The stages replayed through the interpreter, in encode order.
const STAGES: [(StageSpec, &str); 4] = [
    (StageSpec::PreQuantize, "quantize"),
    (StageSpec::Lorenzo1d, "lorenzo1"),
    (StageSpec::FixedLength, "fixed"),
    (StageSpec::Huffman, "huffman"),
];

/// Seconds per interpreter stage and the `huffman` crate's own figures.
#[derive(Default)]
struct StageTimes {
    encode: [f64; 4],
    decode: [f64; 4],
    huffman_encode: f64,
    huffman_decode: f64,
    symbols: usize,
    payload_bits: usize,
}

/// Push one field through each stage's `encode` and `decode` in turn,
/// checking each stage inverts itself, then time the Huffman codec directly
/// on the symbols its stage sees (the fixed-length stream's bytes).
fn stage_field(data: &[f32], eps: f64, t: &mut StageTimes) -> Result<(), String> {
    let ctx = StageCtx {
        eps,
        block_size: DEFAULT_BLOCK_SIZE,
        header: HeaderWidth::W4,
        count: data.len(),
    };
    let mut stats = CompressionStats::default();
    let mut plane = Plane::F32(data.to_vec());
    let mut huffman_input = Vec::new();
    for (i, (spec, name)) in STAGES.iter().enumerate() {
        let stage = spec.build();
        let input = plane.clone();
        if let Plane::Bytes(b) = &input {
            huffman_input.clone_from(b);
        }
        let t0 = std::time::Instant::now();
        let encoded = black_box(stage.encode(plane, &ctx, &mut stats))
            .map_err(|e| format!("stage {name} encode: {e}"))?;
        t.encode[i] += t0.elapsed().as_secs_f64();
        let copy = encoded.clone();
        let t0 = std::time::Instant::now();
        let decoded =
            black_box(stage.decode(copy, &ctx)).map_err(|e| format!("stage {name} decode: {e}"))?;
        t.decode[i] += t0.elapsed().as_secs_f64();
        let inverted = match (&input, &decoded) {
            (Plane::F32(a), Plane::F32(b)) => verify_error_bound(a, b, eps),
            _ => input == decoded,
        };
        if !inverted {
            return Err(format!("stage {name} decode does not invert encode"));
        }
        plane = encoded;
    }

    let symbols: Vec<u32> = huffman_input.iter().map(|&b| u32::from(b)).collect();
    let t0 = std::time::Instant::now();
    let encoded =
        black_box(huffman::codec::encode(&symbols)).map_err(|e| format!("huffman: {e}"))?;
    t.huffman_encode += t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let decoded =
        black_box(huffman::codec::decode(&encoded)).map_err(|e| format!("huffman: {e}"))?;
    t.huffman_decode += t0.elapsed().as_secs_f64();
    if decoded != symbols {
        return Err("huffman decode does not invert encode".into());
    }
    t.symbols += encoded.count;
    t.payload_bits += encoded.payload_bits;
    Ok(())
}
