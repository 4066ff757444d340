//! The seven conformance oracles.
//!
//! Each oracle takes a generated [`Case`] and returns `Err(description)` on
//! a conformance violation. Panics are *not* caught here — the runner wraps
//! every oracle in `catch_unwind` so a panic anywhere in the stack is itself
//! reported as a violation (the whole point of the hardening sweep is that
//! adversarial input produces typed errors, never aborts).

use baselines::{Codec as BaselineCodec, CompressedBuf};
use ceresz_core::archive::Archive;
use ceresz_core::{verify_error_bound, Codec, Compressed, HeaderWidth};
use ceresz_wse::{execute, execute_decompress, mapping_manifest, SimOptions, WseError};
use wse_sim::SimError;

use crate::generate::Case;
use crate::mutate::{self, Mutation};
use crate::rng::Rng;

/// Oracle 1 — differential: the host reference `compress` and all three
/// simulated mapping strategies must agree exactly: bit-identical streams on
/// success, the *same* typed
/// [`CompressError`](ceresz_core::CompressError) on failure. Simulated
/// decompression of the host stream through each strategy's shape must
/// restore exactly the host decode's bits, at any pipelines per row, or
/// return `DoesNotFit` for 1-byte block headers. Returns the host stream
/// (None when the case errored everywhere in agreement) for the downstream
/// oracles to reuse.
pub fn oracle_differential(case: &Case) -> Result<Option<Compressed>, String> {
    let cfg = case.config();
    let host = Codec::new(cfg).compress(&case.data);
    for strategy in case.strategies {
        match (
            execute(strategy, &case.data, &cfg, &SimOptions::default()),
            &host,
        ) {
            (Ok(run), Ok(h)) => {
                if run.compressed.data != h.data {
                    return Err(format!("{strategy:?}: simulated stream differs from host"));
                }
            }
            (Err(WseError::Compress(se)), Err(he)) => {
                if se != *he {
                    return Err(format!(
                        "{strategy:?}: error mismatch: host Err({he}) vs sim Err({se})"
                    ));
                }
            }
            (Err(we), Err(he)) => {
                return Err(format!(
                    "{strategy:?}: host Err({he}) but sim failed with a non-compress error: {we}"
                ))
            }
            (Ok(_), Err(he)) => {
                return Err(format!("{strategy:?}: sim Ok but host Err({he})"));
            }
            (Err(we), Ok(_)) => {
                return Err(format!("{strategy:?}: host Ok but sim Err({we})"));
            }
        }
    }
    if let Ok(h) = &host {
        let decoded = Codec::decompressor().decompress(&h.data);
        for strategy in case.strategies {
            let fits = case.header == HeaderWidth::W4;
            match execute_decompress(strategy, h, &SimOptions::default()) {
                Ok(run) if fits => {
                    if decoded.as_ref().is_ok_and(|d| {
                        run.restored
                            .iter()
                            .map(|v| v.to_bits())
                            .ne(d.iter().map(|v| v.to_bits()))
                    }) {
                        return Err(format!(
                            "{strategy:?}: simulated decompression differs from host decode"
                        ));
                    }
                }
                Err(WseError::DoesNotFit { .. }) if !fits => {}
                Ok(_) => {
                    return Err(format!(
                        "{strategy:?}: simulated decompression accepted a stream it cannot map"
                    ))
                }
                Err(e) => return Err(format!("{strategy:?}: simulated decompression failed: {e}")),
            }
        }
    }
    Ok(host.ok())
}

/// Oracle 2 — roundtrip: decoding the host stream restores the original
/// length and honors the resolved ε pointwise.
pub fn oracle_roundtrip(case: &Case, host: &Compressed) -> Result<(), String> {
    let restored = Codec::decompressor()
        .decompress(&host.data)
        .map_err(|e| format!("decompress failed: {e}"))?;
    if restored.len() != case.data.len() {
        return Err(format!(
            "length mismatch: {} in, {} out",
            case.data.len(),
            restored.len()
        ));
    }
    if !verify_error_bound(&case.data, &restored, host.stats.eps) {
        let worst = ceresz_core::max_abs_error(&case.data, &restored);
        return Err(format!(
            "error bound violated: max |err| {worst:.6e} vs eps {:.6e}",
            host.stats.eps
        ));
    }
    Ok(())
}

/// Apply the decoder to a mutated stream and check the mutation contract.
fn check_stream_mutation(m: &Mutation) -> Result<(), String> {
    if Codec::decompressor().decompress(&m.bytes).is_ok() && m.must_fail {
        return Err(format!("{}: decoder accepted a forged stream", m.what));
    }
    Ok(())
}

/// Apply `Archive::from_bytes` to a mutated archive buffer. The parse may
/// accept payload bit flips (it does not decode field streams), but length
/// forgeries and truncations must be rejected, and nothing may panic.
fn check_archive_mutation(m: &Mutation) -> Result<(), String> {
    match Archive::from_bytes(&m.bytes) {
        Ok(a) => {
            if m.must_fail {
                return Err(format!(
                    "{}: archive parser accepted a forged buffer",
                    m.what
                ));
            }
            // Decoding a corrupted field stream may fail — it must do so
            // with a typed error (a panic would propagate to the runner).
            for f in a.fields() {
                let _ = f.decompress();
            }
            Ok(())
        }
        Err(_) => Ok(()),
    }
}

/// Oracle 3 — mutation: every corruption of a valid stream or archive
/// (random bit flips, all-strict-prefix truncations, targeted length-field
/// forgeries) decodes to a typed error or, where the format genuinely cannot
/// detect the flip, to a value. Never a panic, and
/// never an allocation sized by a forged length field.
pub fn oracle_mutation(case: &Case, host: &Compressed) -> Result<(), String> {
    let mut r = Rng::new(case.seed).derive(0xC0FFEE);

    for _ in 0..24 {
        if let Some(m) = mutate::flip_random_bit(&mut r, &host.data) {
            check_stream_mutation(&m)?;
        }
    }
    for m in mutate::truncations(&mut r, &host.data, 8) {
        check_stream_mutation(&m)?;
    }
    for m in mutate::stream_header_forgeries(&host.data, case.block_size) {
        check_stream_mutation(&m)?;
    }

    // The same treatment for the archive container wrapping this stream.
    let mut archive = Archive::new();
    archive
        .add_field("field", &[case.data.len()], &case.data, &case.config())
        .map_err(|e| format!("archive add_field failed on compressible data: {e}"))?;
    let bytes = archive.to_bytes();
    for _ in 0..16 {
        if let Some(m) = mutate::flip_random_bit(&mut r, &bytes) {
            check_archive_mutation(&m)?;
        }
    }
    for m in mutate::truncations(&mut r, &bytes, 8) {
        check_archive_mutation(&m)?;
    }
    for m in mutate::archive_forgeries(&bytes) {
        check_archive_mutation(&m)?;
    }
    Ok(())
}

/// Oracle 5 — verifier soundness: the static mapping verifier's clean bill
/// of health must be *sound*. For every strategy shape in the case, build
/// the mapping's static manifest; the verifier must accept it (the
/// strategies ship only mappings they believe in), and a verifier-accepted
/// mapping simulated with verification opted out must never fail with a
/// machine-level routing, deadlock, or memory error — those are exactly the
/// failures the verifier claims to rule out. Algorithm-level `Compress`
/// errors are fine (they are data properties, not mapping properties).
pub fn oracle_verifier(case: &Case) -> Result<(), String> {
    let cfg = case.config();
    for strategy in case.strategies {
        // Construction can reject the case (bad data, invalid shape) before
        // a manifest exists; error agreement is the differential oracle's
        // job, not this one's.
        let Ok(manifest) = mapping_manifest(&case.data, &cfg, strategy) else {
            continue;
        };
        let report = ceresz_wse::verify::verify(&manifest);
        if !report.is_clean() {
            let first = report.errors().next().expect("unclean report has errors");
            return Err(format!(
                "{strategy:?}: verifier rejects the shipped mapping: {first}"
            ));
        }
        let options = SimOptions::default().with_verify(false);
        if let Err(WseError::Sim(e)) = execute(strategy, &case.data, &cfg, &options) {
            match e {
                SimError::Deadlock { .. }
                | SimError::NoRoute { .. }
                | SimError::RouteMismatch { .. }
                | SimError::MulticastUnsupported { .. }
                | SimError::RouteOffMesh { .. }
                | SimError::RoutingLoop { .. }
                | SimError::OutOfMemory { .. } => {
                    return Err(format!(
                        "{strategy:?}: verifier passed the mapping but simulation failed \
                         with a machine error it should have ruled out: {e}"
                    ));
                }
                // Kernel failures and runaway guards are outside the static
                // contract.
                _ => {}
            }
        }
    }
    Ok(())
}

/// Oracle 6 — static-bound soundness: for every strategy shape in the case,
/// the static performance analyzer's bounds must dominate a flight-recorded
/// run of the same mapping — per-link worst-case load ≥ observed occupancy,
/// critical-path lower bound ≤ simulated makespan, SRAM watermark ≥ observed
/// peak memory — and the channel-dependency check must *prove* every shipped
/// mapping deadlock-free. Cases the mapping builder or simulator rejects are
/// skipped here: error agreement is the differential oracle's job.
pub fn oracle_soundness(case: &Case) -> Result<(), String> {
    let cfg = case.config();
    for strategy in case.strategies {
        let Ok(manifest) = mapping_manifest(&case.data, &cfg, strategy) else {
            continue;
        };
        let profile = ceresz_wse::analyze_mapping(&manifest);
        if !profile.is_deadlock_free() {
            return Err(format!(
                "{strategy:?}: deadlock check failed to prove a shipped mapping free"
            ));
        }
        let options = SimOptions::default().with_flight_window(1024);
        let Ok(run) = execute(strategy, &case.data, &cfg, &options) else {
            continue;
        };
        let mut report = run.report;
        let flight = report
            .take_flight()
            .expect("flight recording was enabled for the soundness run");
        let (rows, cols) = strategy.mesh_shape();
        let peaks = ceresz_wse::mem_peaks(&report, rows, cols);
        let sound = ceresz_wse::check_soundness(&profile, report.stats(), &flight, &peaks);
        if !sound.is_sound() {
            return Err(format!(
                "{strategy:?}: static bounds failed to dominate the observed run: {}",
                sound.violations.join("; ")
            ));
        }
    }
    Ok(())
}

/// Oracle 4 — baselines: every baseline codec either rejects the input with
/// a typed error or honors its own recorded error bound on the roundtrip.
pub fn oracle_baselines(case: &Case) -> Result<(), String> {
    let codecs: [&dyn BaselineCodec; 4] = [
        &baselines::szp::Szp::default(),
        &baselines::cuszp::CuSzp::default(),
        &baselines::sz3::Sz3,
        &baselines::cusz::CuSz,
    ];
    let dims = [case.data.len()];
    for codec in codecs {
        let buf: CompressedBuf = match codec.compress(&case.data, &dims, case.bound) {
            Ok(buf) => buf,
            Err(_) => continue, // A typed rejection satisfies the contract.
        };
        let restored = codec
            .decompress(&buf)
            .map_err(|e| format!("{}: compressed Ok but decompress Err({e})", codec.name()))?;
        if restored.len() != case.data.len() {
            return Err(format!(
                "{}: length mismatch: {} in, {} out",
                codec.name(),
                case.data.len(),
                restored.len()
            ));
        }
        if !verify_error_bound(&case.data, &restored, buf.eps) {
            let worst = ceresz_core::max_abs_error(&case.data, &restored);
            return Err(format!(
                "{}: own error bound violated: max |err| {worst:.6e} vs eps {:.6e}",
                codec.name(),
                buf.eps
            ));
        }
    }
    Ok(())
}

/// Oracle 7 — recipes: compressing under the case's randomly drawn (but
/// well-typed) recipe must behave exactly like the canonical pipeline
/// contract-wise: it either fails with a typed error or its stream is fully
/// self-describing (a fresh decompressor using only the recorded recipe
/// bytes restores the field — bit-exactly for lossless recipes, within ε
/// otherwise), the archive container records the recipe per field, and
/// corrupting the recipe bytes or forging the element count yields a typed
/// error, never a panic.
pub fn oracle_recipes(case: &Case) -> Result<(), String> {
    let cfg = case.recipe_config();
    // A typed rejection is conformant.
    let Ok(c) = Codec::new(cfg).compress(&case.data) else {
        return Ok(());
    };
    if c.stats.recipe != cfg.recipe {
        return Err(format!(
            "recipe {}: stats recorded a different recipe ({})",
            cfg.recipe, c.stats.recipe
        ));
    }

    // Self-description: a decompressor that knows nothing but the bytes.
    let restored = Codec::decompressor()
        .decompress(&c.data)
        .map_err(|e| format!("recipe {}: decompress failed: {e}", cfg.recipe))?;
    if restored.len() != case.data.len() {
        return Err(format!(
            "recipe {}: length mismatch: {} in, {} out",
            cfg.recipe,
            case.data.len(),
            restored.len()
        ));
    }
    if cfg.recipe.is_lossless() {
        if restored
            .iter()
            .map(|v| v.to_bits())
            .ne(case.data.iter().map(|v| v.to_bits()))
        {
            return Err(format!(
                "recipe {}: lossless recipe did not restore exact bits",
                cfg.recipe
            ));
        }
    } else if !verify_error_bound(&case.data, &restored, c.stats.eps) {
        let worst = ceresz_core::max_abs_error(&case.data, &restored);
        return Err(format!(
            "recipe {}: error bound violated: max |err| {worst:.6e} vs eps {:.6e}",
            cfg.recipe, c.stats.eps
        ));
    }

    // The archive container must record the recipe per field and roundtrip.
    let mut archive = Archive::new();
    archive
        .add_field("field", &[case.data.len()], &case.data, &cfg)
        .map_err(|e| format!("recipe {}: archive add_field failed: {e}", cfg.recipe))?;
    let archive = Archive::from_bytes(&archive.to_bytes())
        .map_err(|e| format!("recipe {}: archive re-parse failed: {e}", cfg.recipe))?;
    let f = archive
        .field("field")
        .ok_or_else(|| format!("recipe {}: field lost in archive roundtrip", cfg.recipe))?;
    if f.recipe != cfg.recipe {
        return Err(format!(
            "recipe {}: archive recorded recipe {} instead",
            cfg.recipe, f.recipe
        ));
    }
    let from_archive = f.decompress().map_err(|e| {
        format!(
            "recipe {}: archive field decompress failed: {e}",
            cfg.recipe
        )
    })?;
    if from_archive
        .iter()
        .map(|v| v.to_bits())
        .ne(restored.iter().map(|v| v.to_bits()))
    {
        return Err(format!(
            "recipe {}: archive decode differs from direct decode",
            cfg.recipe
        ));
    }

    // Corrupting the recipe bytes or the element count of a v2 stream must
    // be a typed rejection (a forged count reaches the stage decoders, which
    // canonical streams never run), and the wafer's decompression kernels
    // must refuse the stream.
    if !cfg.recipe.is_canonical() {
        for m in mutate::count_forgeries(&c.data, case.block_size) {
            check_stream_mutation(&m).map_err(|e| format!("recipe {}: {e}", cfg.recipe))?;
        }
        if !matches!(
            execute_decompress(case.strategies[0], &c, &SimOptions::default()),
            Err(WseError::DoesNotFit { .. })
        ) {
            return Err(format!(
                "recipe {}: simulated decompression did not refuse a non-canonical stream",
                cfg.recipe
            ));
        }
        let mut forged = c.data.clone();
        // Stage count byte, then the first stage id.
        for at in [
            ceresz_core::stream::STREAM_HEADER_BYTES,
            ceresz_core::stream::STREAM_HEADER_BYTES + 1,
        ] {
            if at < forged.len() {
                let orig = forged[at];
                forged[at] = 0xFE;
                if Codec::decompressor().decompress(&forged).is_ok() {
                    return Err(format!(
                        "recipe {}: decoder accepted forged recipe byte at {at}",
                        cfg.recipe
                    ));
                }
                forged[at] = orig;
            }
        }
    }
    Ok(())
}
