//! Fig. 15: data quality of CereSZ vs cuSZp on NYX `velocity_x` at REL 1e-4.
//!
//! The paper's point: both compressors share the pre-quantization design, so
//! their reconstructions — and hence PSNR (84.77 dB) and SSIM (0.9996) — are
//! *identical* under the same bound; only the compression ratio differs
//! (3.10 vs 3.35). This binary verifies the identity on the synthetic NYX,
//! reports the metrics, and writes grayscale PGM slice renderings (original
//! vs reconstructed) to `bench_out/`.
//!
//! Run: `cargo run --release -p ceresz-bench --bin fig15`

use baselines::cuszp::CuSzp;
use baselines::traits::Codec;
use ceresz_bench::SEED;
use ceresz_core::{CereszConfig, ErrorBound};
use datasets::{generate_field, DatasetId};
use metrics::{psnr, ssim_2d, SsimConfig};
use std::io::Write;
use std::path::Path;

fn main() {
    let field = generate_field(DatasetId::Nyx, 3, SEED); // velocity_x
    let bound = ErrorBound::Rel(1e-4);
    println!(
        "Fig. 15: data quality on NYX {} ({} elements) at REL 1e-4",
        field.name,
        field.len()
    );

    // CereSZ.
    let ceresz = ceresz_core::Codec::new(CereszConfig::new(bound))
        .compress(&field.data)
        .expect("compresses");
    let ceresz_rec = ceresz_core::Codec::decompressor()
        .decompress(&ceresz.data)
        .expect("decompresses");

    // cuSZp.
    let cuszp = CuSzp::default();
    let cuszp_buf = cuszp
        .compress(&field.data, &field.dims, bound)
        .expect("compresses");
    let cuszp_rec = cuszp.decompress(&cuszp_buf).expect("decompresses");

    // Identical reconstruction: the paper's central claim for this figure.
    assert_eq!(
        ceresz_rec, cuszp_rec,
        "CereSZ and cuSZp share pre-quantization: reconstructions must match"
    );

    let p = psnr(&field.data, &ceresz_rec);
    // SSIM over the middle z-slice, as the paper visualizes slices.
    let (nz, ny, nx) = (field.dims[0], field.dims[1], field.dims[2]);
    let mid = nz / 2;
    let slice = &field.data[mid * ny * nx..(mid + 1) * ny * nx];
    let slice_rec = &ceresz_rec[mid * ny * nx..(mid + 1) * ny * nx];
    let s = ssim_2d(slice, slice_rec, ny, nx, &SsimConfig::default());

    println!(
        "CereSZ ratio: {:.2}   cuSZp ratio: {:.2}",
        ceresz.ratio(),
        cuszp_buf.ratio()
    );
    println!("PSNR: {p:.2} dB   SSIM: {s:.4}");
    println!("Paper: ratios 3.10 vs 3.35, PSNR 84.77 dB, SSIM 0.9996 — identical quality");

    let out = Path::new("bench_out");
    std::fs::create_dir_all(out).expect("create bench_out/");
    write_pgm(&out.join("fig15_original.pgm"), slice, ny, nx);
    write_pgm(&out.join("fig15_reconstructed.pgm"), slice_rec, ny, nx);
    println!("Slice renderings written to bench_out/fig15_{{original,reconstructed}}.pgm");
}

/// Render a slice as an 8-bit PGM, range-normalized.
fn write_pgm(path: &Path, slice: &[f32], rows: usize, cols: usize) {
    let min = slice.iter().copied().fold(f32::INFINITY, f32::min);
    let max = slice.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let scale = if max > min { 255.0 / (max - min) } else { 0.0 };
    let mut bytes = format!("P5\n{cols} {rows}\n255\n").into_bytes();
    bytes.extend(slice.iter().map(|&v| ((v - min) * scale) as u8));
    let mut file = std::fs::File::create(path).expect("create PGM");
    file.write_all(&bytes).expect("write PGM");
}
