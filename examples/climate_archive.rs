//! Archiving a climate dataset: sweep error bounds over every CESM-ATM
//! field and print the rate–distortion table (bit rate vs PSNR/SSIM) an
//! archivist would use to pick a bound.
//!
//! Run: `cargo run --release --example climate_archive`

use ceresz::core::{CereszConfig, Codec, ErrorBound};
use ceresz::data::{generate_field, DatasetId};
use ceresz::quality::{psnr, ssim_2d, RateDistortionPoint, SsimConfig};

fn main() {
    let ds = DatasetId::CesmAtm;
    let spec = ds.spec();
    println!(
        "CESM-ATM archive sweep ({} synthetic fields)",
        spec.synthetic_fields.len()
    );
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>10} {:>8}",
        "field", "REL", "bits/val", "ratio", "PSNR dB", "SSIM"
    );
    let (rows, cols) = (spec.synthetic_dims[0], spec.synthetic_dims[1]);
    for field_idx in 0..spec.synthetic_fields.len() {
        let field = generate_field(ds, field_idx, 3);
        for rel in [1e-2, 1e-3, 1e-4] {
            let cfg = CereszConfig::new(ErrorBound::Rel(rel));
            let c = Codec::new(cfg)
                .compress(&field.data)
                .expect("field compresses");
            let r = Codec::decompressor()
                .decompress(&c.data)
                .expect("stream decompresses");
            let point = RateDistortionPoint::new(
                rel,
                field.len(),
                c.stats.compressed_bytes,
                psnr(&field.data, &r),
                ssim_2d(&field.data, &r, rows, cols, &SsimConfig::default()),
            );
            println!(
                "{:<10} {:>8.0e} {:>10.3} {:>10.2} {:>10.2} {:>8.4}",
                field.name, rel, point.bit_rate, point.ratio, point.psnr, point.ssim
            );
        }
    }
    println!("\nHigher REL = fewer bits per value at lower fidelity; pick the knee.");
}
