//! Cross-compressor quality invariants on the synthetic datasets: every
//! codec honors its bound everywhere, and the paper's qualitative ratio
//! ordering holds.

use baselines::cusz::CuSz;
use baselines::cuszp::CuSzp;
use baselines::sz3::Sz3;
use baselines::szp::Szp;
use baselines::traits::Codec;
use ceresz::core::{verify_error_bound, CereszConfig, ErrorBound};
use ceresz::data::{generate_field, DatasetId, ALL_DATASETS};

fn subsample(ds: DatasetId) -> (Vec<f32>, Vec<usize>) {
    let f = generate_field(ds, 0, 42);
    // Keep a prefix with consistent dims: drop to 1-D for speed.
    let n = f.len().min(100_000);
    (f.data[..n].to_vec(), vec![n])
}

#[test]
fn all_codecs_honor_the_bound_on_all_datasets() {
    let szp = Szp::default();
    let cuszp = CuSzp::default();
    let sz3 = Sz3;
    let cusz = CuSz;
    let codecs: [&dyn Codec; 4] = [&szp, &cuszp, &sz3, &cusz];
    for ds in ALL_DATASETS {
        let (data, dims) = subsample(ds);
        for codec in codecs {
            let c = codec.compress(&data, &dims, ErrorBound::Rel(1e-3)).unwrap();
            let r = codec.decompress(&c).unwrap();
            assert_eq!(r.len(), data.len(), "{ds:?} {}", codec.name());
            assert!(
                verify_error_bound(&data, &r, c.eps),
                "{ds:?} {} violated its bound",
                codec.name()
            );
        }
    }
}

#[test]
fn ratio_ordering_matches_the_paper() {
    // Table 5's qualitative findings on multi-dimensional smooth fields:
    // SZ highest; SZp ≥ cuSZp (directory overhead); CereSZ below SZp
    // (4-byte headers); cuSZ competitive with CereSZ.
    let field = generate_field(DatasetId::CesmAtm, 0, 42);
    let bound = ErrorBound::Rel(1e-2);
    let sz = Sz3
        .compress(&field.data, &field.dims, bound)
        .unwrap()
        .ratio();
    let szp = Szp::default()
        .compress(&field.data, &field.dims, bound)
        .unwrap()
        .ratio();
    let cuszp = CuSzp::default()
        .compress(&field.data, &field.dims, bound)
        .unwrap()
        .ratio();
    let ceresz = ceresz::core::Codec::new(CereszConfig::new(bound))
        .compress(&field.data)
        .unwrap()
        .ratio();
    assert!(sz > szp, "SZ {sz} !> SZp {szp}");
    assert!(szp >= cuszp, "SZp {szp} !>= cuSZp {cuszp}");
    assert!(szp > ceresz, "SZp {szp} !> CereSZ {ceresz}");
}

#[test]
fn prequantization_family_shares_reconstructions() {
    // §5.4: CereSZ, SZp, and cuSZp differ only in encoding, so their
    // reconstructions are identical under the same absolute bound.
    let field = generate_field(DatasetId::Nyx, 3, 42);
    let data = &field.data[..32 * 2000];
    let eps = 0.5e3; // absolute, to sidestep range-resolution differences
    let bound = ErrorBound::Abs(eps);
    let ceresz = ceresz::core::Codec::new(CereszConfig::new(bound))
        .compress(data)
        .unwrap();
    let ceresz_rec = ceresz::core::Codec::decompressor()
        .decompress(&ceresz.data)
        .unwrap();
    let szp = Szp::default();
    let szp_rec = szp
        .decompress(&szp.compress(data, &[data.len()], bound).unwrap())
        .unwrap();
    let cuszp = CuSzp::default();
    let cuszp_rec = cuszp
        .decompress(&cuszp.compress(data, &[data.len()], bound).unwrap())
        .unwrap();
    assert_eq!(ceresz_rec, szp_rec);
    assert_eq!(ceresz_rec, cuszp_rec);
}

#[test]
fn zero_block_ceilings_match_header_widths() {
    // CereSZ caps at 32x (4-byte headers), SZp at 128x (1-byte headers) for
    // all-zero data — §5.3's explanation of Table 5's ceilings.
    let data = vec![0f32; 32 * 4096];
    let bound = ErrorBound::Abs(1e-3);
    let ceresz = ceresz::core::Codec::new(CereszConfig::new(bound))
        .compress(&data)
        .unwrap();
    assert!(
        (ceresz.ratio() - 32.0).abs() < 1.0,
        "CereSZ {}",
        ceresz.ratio()
    );
    let szp = Szp::default()
        .compress(&data, &[data.len()], bound)
        .unwrap();
    assert!((szp.ratio() - 128.0).abs() < 4.0, "SZp {}", szp.ratio());
}

#[test]
fn sz_throughput_cost_shows_in_work_done() {
    // Not a wall-clock benchmark (CI-safe): SZ must do strictly more
    // entropy-coding work — its stream on rough data is *smaller*, while
    // block codecs trade ratio for speed. Verifies the rate side of the
    // throughput/ratio trade-off the paper describes.
    let field = generate_field(DatasetId::Hacc, 0, 42);
    let data = &field.data[..200_000];
    let bound = ErrorBound::Rel(1e-3);
    let sz = Sz3.compress(data, &[data.len()], bound).unwrap();
    let szp = Szp::default().compress(data, &[data.len()], bound).unwrap();
    assert!(sz.bytes.len() < szp.bytes.len());
}
