//! # conformance
//!
//! Deterministic, seed-driven differential fuzzing for the CereSZ workspace.
//!
//! One fuzz *case* is a structured adversarial input (see
//! [`generate::DataClass`]) plus a compression configuration and three WSE
//! mapping shapes. Seven oracles judge it:
//!
//! 1. **Differential** — host `compress` and all three simulated mapping
//!    strategies agree exactly: bit-identical streams on success, the same
//!    typed `CompressError` on failure.
//! 2. **Roundtrip** — decompression restores the original length and honors
//!    the resolved ε pointwise.
//! 3. **Mutation** — every corruption of a valid stream/archive (bit flips,
//!    strict-prefix truncations, length-field forgeries) yields a typed
//!    error or, where the format cannot detect a flip, a value — never a
//!    panic or an allocation sized by a forged length field.
//! 4. **Baselines** — every baseline codec rejects bad input with a typed
//!    error or honors its own recorded error bound.
//! 5. **Verifier** — the static mapping verifier is sound: every mapping it
//!    certifies clean runs to completion (with verification opted out) and
//!    never dies with a deadlock, routing, or memory error — the failure
//!    classes the verifier claims to rule out before simulation.
//! 6. **Soundness** — the static performance analyzer's bounds dominate a
//!    flight-recorded run of every shipped mapping: per-link worst-case load
//!    ≥ observed occupancy, critical-path lower bound ≤ simulated makespan,
//!    SRAM watermark ≥ observed peak, deadlock-freedom proven.
//! 7. **Recipes** — under a randomly drawn well-typed stage recipe,
//!    compression fails with a typed error or yields a stream and archive
//!    that are fully self-describing (decode uses only the recorded recipe
//!    bytes; lossless recipes restore exact bits, lossy ones honor ε), and
//!    corrupted recipe bytes are typed rejections.
//!
//! Everything derives from `(seed, case index)` via a built-in xorshift64*
//! generator — no external crates — so a whole run reproduces with
//! `ceresz fuzz --seed <seed> --cases <n>` and a single failing case with
//! `ceresz fuzz --case-seed <its reported seed>`. On failure a greedy
//! shrinker ([`shrink::shrink_data`]) reduces the input before reporting.

#![forbid(unsafe_code)]
pub mod generate;
pub mod mutate;
pub mod oracles;
pub mod rng;
pub mod shrink;

use std::panic::{catch_unwind, AssertUnwindSafe};

pub use generate::{Case, DataClass};

/// Parameters of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Root seed; every case derives its own seed from this and its index.
    pub seed: u64,
    /// Number of cases to run.
    pub cases: u64,
    /// Shrink failing inputs before reporting (costs extra oracle runs).
    pub shrink: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            cases: 1000,
            shrink: true,
        }
    }
}

/// One conformance violation.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Index of the case within the run.
    pub case_index: u64,
    /// The case's derived seed; `Case::from_seed` (or
    /// `ceresz fuzz --case-seed`) replays this case in isolation.
    pub case_seed: u64,
    /// Which oracle failed: `differential`, `roundtrip`, `mutation`,
    /// `baselines`, `verifier`, `soundness`, or `recipes`.
    pub oracle: &'static str,
    /// What went wrong.
    pub message: String,
    /// Input length as generated.
    pub data_len: usize,
    /// Shrunk failing input, when shrinking was enabled and reproduced the
    /// failure on a smaller input.
    pub shrunk: Option<Vec<f32>>,
}

impl std::fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "case {} (seed {:#018x}, {} values) [{}]: {}",
            self.case_index, self.case_seed, self.data_len, self.oracle, self.message
        )?;
        if let Some(s) = &self.shrunk {
            write!(
                f,
                "\n  shrunk to {} values: {:?}",
                s.len(),
                &s[..s.len().min(16)]
            )?;
        }
        Ok(())
    }
}

/// Outcome of a fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases_run: u64,
    /// Cases whose host compression succeeded (the rest exercised the
    /// error paths — both kinds count as coverage).
    pub compressible_cases: u64,
    /// All conformance violations found.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// True when every case passed every oracle.
    #[must_use]
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl std::fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} cases ({} compressible, {} error-path), {} failure(s)",
            self.cases_run,
            self.compressible_cases,
            self.cases_run - self.compressible_cases,
            self.failures.len()
        )?;
        for failure in &self.failures {
            writeln!(f, "  {failure}")?;
        }
        Ok(())
    }
}

/// The boxed hook type `std::panic::take_hook` returns.
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

/// Restores the previous panic hook on drop.
struct PanicHookGuard {
    prev: Option<PanicHook>,
}

impl PanicHookGuard {
    /// Replace the default hook (which prints a backtrace for every caught
    /// probe panic) with a silent one for the duration of the run. The hook
    /// is process-global; concurrent test threads may interleave, which at
    /// worst un-silences another thread's probe.
    fn silence() -> Self {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        PanicHookGuard { prev: Some(prev) }
    }
}

impl Drop for PanicHookGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            std::panic::set_hook(prev);
        }
    }
}

/// Run `f`, converting a panic into an oracle failure message.
fn probe(f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(format!("panicked: {}", panic_message(&payload))),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// What [`run_case`] observed for one case.
#[derive(Debug, Clone, Default)]
pub struct CaseOutcome {
    /// The host compression path succeeded (error-path cases are coverage
    /// too — the differential oracle checks the errors agree).
    pub compressible: bool,
    /// `(oracle, message)` for every violated oracle.
    pub violations: Vec<(&'static str, String)>,
}

/// Run every oracle against `case`. The differential oracle runs first and
/// its host stream feeds the roundtrip and mutation oracles, mirroring how
/// a real consumer would chain the APIs.
pub fn run_case(case: &Case) -> CaseOutcome {
    let mut out = CaseOutcome::default();
    let mut host = None;
    match catch_unwind(AssertUnwindSafe(|| oracles::oracle_differential(case))) {
        Ok(Ok(h)) => host = h,
        Ok(Err(msg)) => out.violations.push(("differential", msg)),
        Err(payload) => out.violations.push((
            "differential",
            format!("panicked: {}", panic_message(&payload)),
        )),
    }
    if let Some(host) = &host {
        out.compressible = true;
        if let Err(msg) = probe(|| oracles::oracle_roundtrip(case, host)) {
            out.violations.push(("roundtrip", msg));
        }
        if let Err(msg) = probe(|| oracles::oracle_mutation(case, host)) {
            out.violations.push(("mutation", msg));
        }
    }
    if let Err(msg) = probe(|| oracles::oracle_baselines(case)) {
        out.violations.push(("baselines", msg));
    }
    if let Err(msg) = probe(|| oracles::oracle_verifier(case)) {
        out.violations.push(("verifier", msg));
    }
    if let Err(msg) = probe(|| oracles::oracle_soundness(case)) {
        out.violations.push(("soundness", msg));
    }
    if let Err(msg) = probe(|| oracles::oracle_recipes(case)) {
        out.violations.push(("recipes", msg));
    }
    out
}

/// Does `oracle` still fail on `case` with `data` substituted? Used as the
/// shrinker predicate; a panic counts as "still fails".
fn oracle_fails_with(case: &Case, oracle: &'static str, data: &[f32]) -> bool {
    let mut c = case.clone();
    c.data = data.to_vec();
    run_case(&c)
        .violations
        .iter()
        .any(|(name, _)| *name == oracle)
}

/// Execute a full fuzz run.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let _guard = PanicHookGuard::silence();
    let mut report = FuzzReport::default();
    for index in 0..cfg.cases {
        let case = Case::generate(cfg.seed, index);
        report.cases_run += 1;
        let outcome = run_case(&case);
        if outcome.compressible {
            report.compressible_cases += 1;
        }
        for (oracle, message) in outcome.violations {
            let shrunk = if cfg.shrink && !case.data.is_empty() {
                let s =
                    shrink::shrink_data(&case.data, |d| oracle_fails_with(&case, oracle, d), 128);
                (s.len() < case.data.len()).then_some(s)
            } else {
                None
            };
            report.failures.push(FuzzFailure {
                case_index: index,
                case_seed: case.seed,
                oracle,
                message,
                data_len: case.data.len(),
                shrunk,
            });
        }
    }
    report
}
