//! Per-field recipe auto-tuning.
//!
//! The canonical CereSZ pipeline is a good default, but no single stage
//! composition wins on every field: sparse RTM snapshots leave most blocks
//! zero (an entropy pass over the block stream is nearly free ratio), smooth
//! 2-D climate fields reward 2-D Lorenzo prediction, and rough fields can do
//! better skipping prediction entirely. The tuner compresses a small
//! contiguous sample of the field under a fixed candidate slate and picks the
//! recipe with the best realized ratio *at the configured bound* — candidates
//! that cannot honor the bound (bf16 on tight ε) or error for any other
//! reason are simply skipped. Ties go to the canonical recipe, which keeps
//! the WSE-mappable fast path.
//!
//! Scoring runs the real [`Codec`] on the sample, so the score is the actual
//! on-wire ratio including headers, not a proxy estimate.

use crate::codec::Codec;
use crate::compressor::{CereszConfig, CompressError, Compressed};
use crate::recipe::{Recipe, StageSpec};

/// Elements sampled from the head of the field for scoring. Large enough to
/// amortize stream headers and feed the Huffman table, small enough that
/// tuning stays cheap next to the full compression pass.
pub const SAMPLE_ELEMS: usize = 64 * 1024;

/// Tile side used by the 2-D candidate (64-element tiles, matching the
/// `ablation_predictor` bench configuration).
const TUNE_2D_TILE: u16 = 8;

/// One scored candidate.
#[derive(Debug, Clone, Copy)]
pub struct CandidateScore {
    /// The recipe that was scored.
    pub recipe: Recipe,
    /// Realized compression ratio on the sample, or `None` if the candidate
    /// errored (e.g. [`CompressError::BoundExceeded`]) and was skipped.
    pub ratio: Option<f64>,
}

/// Outcome of a tuning run: the winning configuration plus the evidence.
#[derive(Debug, Clone)]
pub struct TunerReport {
    /// Configuration to compress the full field with (recipe and, for the
    /// 2-D candidate, the matching block size are already applied).
    pub chosen: CereszConfig,
    /// Sample ratio of the winning recipe.
    pub chosen_ratio: f64,
    /// Sample ratio of the canonical recipe (the baseline being beaten).
    pub canonical_ratio: f64,
    /// Every candidate that was scored, in slate order.
    pub scores: Vec<CandidateScore>,
}

impl TunerReport {
    /// Multiplicative win over the canonical pipeline on the sample
    /// (`1.0` = no win; the canonical recipe itself always reports `1.0`).
    #[must_use]
    pub fn margin(&self) -> f64 {
        if self.canonical_ratio > 0.0 {
            self.chosen_ratio / self.canonical_ratio
        } else {
            1.0
        }
    }
}

/// The candidate slate for a field of `len` elements with optional 2-D shape.
///
/// The first entry is always the caller's own configuration (normally
/// canonical); later entries are alternative compositions. The 2-D candidate
/// appears only when `dims` names a genuine `rows × cols` field, tiled over
/// the *sampled* leading rows.
fn candidates(
    cfg: &CereszConfig,
    sample_len: usize,
    dims: Option<(usize, usize)>,
) -> Vec<CereszConfig> {
    let r = |stages: &[StageSpec]| Recipe::new(stages).expect("static slate recipes are valid");
    let mut out = vec![
        *cfg,
        cfg.with_recipe(r(&[StageSpec::PreQuantize, StageSpec::FixedLength])),
        cfg.with_recipe(r(&[
            StageSpec::PreQuantize,
            StageSpec::Lorenzo1d,
            StageSpec::FixedLength,
            StageSpec::Huffman,
        ])),
        cfg.with_recipe(r(&[
            StageSpec::PreQuantize,
            StageSpec::FixedLength,
            StageSpec::Huffman,
        ])),
        cfg.with_recipe(r(&[StageSpec::MantissaSplit, StageSpec::Huffman])),
        cfg.with_recipe(r(&[StageSpec::Bf16, StageSpec::Huffman])),
    ];
    if let Some((rows, cols)) = dims {
        // The sample is the leading `sample_len / cols` full rows.
        let sample_rows = sample_len / cols.max(1);
        if rows >= 2 && cols >= 2 && sample_rows >= 2 {
            let t = usize::from(TUNE_2D_TILE);
            out.push(
                cfg.with_recipe(r(&[
                    StageSpec::PreQuantize,
                    StageSpec::Lorenzo2d {
                        rows: sample_rows as u32,
                        cols: cols as u32,
                        tile: TUNE_2D_TILE,
                    },
                    StageSpec::FixedLength,
                ]))
                .with_block_size(t * t),
            );
        }
    }
    out
}

/// Re-target a chosen sample configuration at the full field: the 2-D recipe
/// was scored on the leading sample rows, so its row count must be restored.
fn retarget(chosen: &CereszConfig, dims: Option<(usize, usize)>) -> CereszConfig {
    let Some((rows, cols)) = dims else {
        return *chosen;
    };
    let mut stages: Vec<StageSpec> = chosen.recipe.stages().to_vec();
    let mut changed = false;
    for s in &mut stages {
        if let StageSpec::Lorenzo2d { tile, .. } = *s {
            *s = StageSpec::Lorenzo2d {
                rows: rows as u32,
                cols: cols as u32,
                tile,
            };
            changed = true;
        }
    }
    if changed {
        chosen.with_recipe(Recipe::new(&stages).expect("retiled recipe stays valid"))
    } else {
        *chosen
    }
}

/// Pick the best recipe for `data` by compressing a sample under every
/// candidate.
///
/// `dims` optionally gives the field's `rows × cols` shape (enabling the
/// 2-D Lorenzo candidate); pass `None` for 1-D fields. `dims`, when given,
/// must satisfy `rows * cols == data.len()` or the 2-D candidate is skipped.
///
/// # Errors
///
/// Fails only if the *canonical* baseline itself cannot compress the sample
/// (bad bound, non-finite input, …); alternative candidates that error are
/// skipped, never fatal.
pub fn tune(
    data: &[f32],
    dims: Option<(usize, usize)>,
    cfg: &CereszConfig,
) -> Result<TunerReport, CompressError> {
    let dims = dims.filter(|(r, c)| r.checked_mul(*c) == Some(data.len()));
    // Sample whole rows for 2-D fields so the 2-D candidate sees real shape.
    let sample_len = match dims {
        Some((_, cols)) if cols > 0 && cols <= SAMPLE_ELEMS => {
            let rows = (SAMPLE_ELEMS / cols).max(1);
            (rows * cols).min(data.len())
        }
        _ => SAMPLE_ELEMS.min(data.len()),
    };
    let sample = &data[..sample_len];

    let mut scores = Vec::new();
    let mut canonical_ratio = None;
    let mut best: Option<(CereszConfig, f64)> = None;
    for cand in candidates(cfg, sample_len, dims) {
        let ratio = match Codec::new(cand).compress(sample) {
            Ok(c) => {
                let r = c.ratio();
                // Strict `>` keeps the earliest (canonical-first) winner on
                // ties.
                if best.as_ref().is_none_or(|(_, b)| r > *b) {
                    best = Some((cand, r));
                }
                Some(r)
            }
            Err(e) if canonical_ratio.is_none() => return Err(e),
            Err(_) => None,
        };
        if canonical_ratio.is_none() {
            canonical_ratio = Some(ratio.unwrap_or(0.0));
        }
        scores.push(CandidateScore {
            recipe: cand.recipe,
            ratio,
        });
    }
    let (chosen, chosen_ratio) = best.expect("canonical candidate scored or tune returned early");
    Ok(TunerReport {
        chosen: retarget(&chosen, dims),
        chosen_ratio,
        canonical_ratio: canonical_ratio.unwrap_or(0.0),
        scores,
    })
}

/// Tune, then compress the full field with the winning recipe.
///
/// The returned stats carry the tuner's win margin in
/// [`crate::CompressionStats::tune_margin`].
///
/// # Errors
///
/// Propagates tuning errors and compression errors. If the tuned recipe
/// fails on the full field where it succeeded on the sample (e.g. bf16
/// exceeding the bound in an unsampled region), compression falls back to
/// the caller's original configuration rather than failing.
pub fn compress_auto(
    data: &[f32],
    dims: Option<(usize, usize)>,
    cfg: &CereszConfig,
) -> Result<(Compressed, TunerReport), CompressError> {
    let report = tune(data, dims, cfg)?;
    let mut compressed = match Codec::new(report.chosen).compress(data) {
        Ok(c) => c,
        Err(_) if report.chosen.recipe != cfg.recipe => Codec::new(*cfg).compress(data)?,
        Err(e) => return Err(e),
    };
    compressed.stats.tune_margin = Some(report.margin());
    Ok((compressed, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::ErrorBound;
    use crate::verify::verify_error_bound;

    #[test]
    fn tuner_prefers_canonical_on_ties_and_smooth_1d() {
        let data: Vec<f32> = (0..80_000).map(|i| (i as f32 * 0.001).sin()).collect();
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let report = tune(&data, None, &cfg).unwrap();
        assert!(report.chosen_ratio >= report.canonical_ratio);
        assert!(report.margin() >= 1.0);
        assert_eq!(report.scores.len(), 6, "no 2-D candidate without dims");
    }

    #[test]
    fn tuner_finds_huffman_win_on_sparse_fields() {
        // Mostly-zero field: canonical leaves long runs of zero-block headers
        // that an entropy pass compresses further.
        let data: Vec<f32> = (0..100_000)
            .map(|i| {
                if i % 97 == 0 {
                    (i as f32 * 0.1).sin() * 50.0
                } else {
                    0.0
                }
            })
            .collect();
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let report = tune(&data, None, &cfg).unwrap();
        assert!(
            report.margin() > 1.0,
            "expected an entropy-stage win on sparse data, margin {}",
            report.margin()
        );
        assert!(report.chosen.recipe.stages().contains(&StageSpec::Huffman));
    }

    #[test]
    fn tuner_uses_2d_candidate_on_smooth_2d_fields() {
        let (rows, cols) = (300usize, 256usize);
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| {
                let r = (i / cols) as f32;
                let c = (i % cols) as f32;
                (r * 0.05).sin() * 40.0 + (c * 0.04).cos() * 25.0
            })
            .collect();
        let cfg = CereszConfig::new(ErrorBound::Rel(1e-3));
        let report = tune(&data, Some((rows, cols)), &cfg).unwrap();
        assert_eq!(report.scores.len(), 7, "2-D candidate joins the slate");
        // Whatever wins, the chosen recipe must compress the *full* field
        // within bound (the 2-D recipe is re-targeted from sample rows).
        let (c, _) = compress_auto(&data, Some((rows, cols)), &cfg).unwrap();
        let restored = Codec::decompressor().decompress(&c.data).unwrap();
        assert!(verify_error_bound(&data, &restored, c.stats.eps));
        assert_eq!(c.stats.tune_margin, Some(report.margin()));
    }

    #[test]
    fn compress_auto_roundtrips_and_records_margin() {
        let data: Vec<f32> = (0..70_000)
            .map(|i| {
                if i % 11 == 0 {
                    (i as f32 * 0.02).cos() * 3.0
                } else {
                    0.0
                }
            })
            .collect();
        let cfg = CereszConfig::new(ErrorBound::Abs(1e-4));
        let (c, report) = compress_auto(&data, None, &cfg).unwrap();
        assert!(c.stats.tune_margin.is_some());
        assert_eq!(c.stats.recipe, report.chosen.recipe);
        let restored = Codec::decompressor().decompress(&c.data).unwrap();
        assert!(verify_error_bound(&data, &restored, c.stats.eps));
    }

    #[test]
    fn bad_bound_is_fatal_not_skipped() {
        let data = vec![1.0f32; 1000];
        let cfg = CereszConfig::new(ErrorBound::Abs(0.0));
        assert!(tune(&data, None, &cfg).is_err());
    }
}
