//! Structured adversarial case generation.
//!
//! A [`Case`] is everything one fuzz iteration needs: the input field, the
//! compression configuration, and the WSE mapping shapes to differentially
//! test. Cases are derived purely from `(root seed, case index)` so any
//! failure is reproducible with `ceresz fuzz --seed <root> --cases <i+1>`
//! (or by re-running just that case from its recorded `case_seed`).

use ceresz_core::{CereszConfig, ErrorBound, HeaderWidth, Recipe, StageSpec};
use ceresz_wse::StrategyKind;

use crate::rng::Rng;

/// Lengths that historically break block codecs: empty, single element,
/// primes, one-off-a-block-boundary, and non-multiples of the block size.
pub const HOSTILE_LENGTHS: &[usize] = &[0, 1, 2, 7, 31, 32, 33, 63, 97, 127, 255, 256, 1009];

/// Longest generated input. Kept small enough that three event-simulator
/// runs per case stay cheap, large enough to span many blocks.
pub const MAX_LEN: usize = 1100;

/// The shape of data a case carries — each class targets a failure mode the
/// compression pipeline has to survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataClass {
    /// Slowly varying sine mixture (the paper's friendly case).
    Smooth,
    /// Every element identical (zero Lorenzo deltas, REL bound resolves to 0).
    Constant,
    /// All zeros (zero-block fast path everywhere).
    AllZero,
    /// Subnormal f32 values (quantization near underflow).
    Denormal,
    /// Magnitudes spanning ~60 decades in one field.
    HugeRange,
    /// Finite base with NaN / ±Inf injected.
    NanInf,
    /// Random walk (small deltas, large absolute values).
    RandomWalk,
    /// Values near `f32::MAX` (quantization overflow territory).
    LargeMagnitude,
    /// Raw random bit patterns (any f32, including NaN payloads).
    RawBits,
}

const ALL_CLASSES: &[DataClass] = &[
    DataClass::Smooth,
    DataClass::Constant,
    DataClass::AllZero,
    DataClass::Denormal,
    DataClass::HugeRange,
    DataClass::NanInf,
    DataClass::RandomWalk,
    DataClass::LargeMagnitude,
    DataClass::RawBits,
];

/// One self-contained fuzz case.
#[derive(Debug, Clone)]
pub struct Case {
    /// Index within the run.
    pub index: u64,
    /// Derived seed — sufficient to regenerate this case alone.
    pub seed: u64,
    /// The input field.
    pub data: Vec<f32>,
    /// What kind of data it is.
    pub class: DataClass,
    /// Error bound under test (~10 % of cases draw an *invalid* bound).
    pub bound: ErrorBound,
    /// Block size (weighted toward the paper's 32).
    pub block_size: usize,
    /// Per-block header width.
    pub header: HeaderWidth,
    /// One shape of each mapping strategy to differentially test.
    pub strategies: [StrategyKind; 3],
    /// A randomly drawn (always well-typed) stage recipe, exercised by the
    /// recipe oracle. The canonical [`Self::config`] is untouched so the
    /// WSE differential oracle keeps testing the wafer-mappable pipeline.
    pub recipe: Recipe,
}

impl Case {
    /// The compression configuration for this case.
    #[must_use]
    pub fn config(&self) -> CereszConfig {
        CereszConfig::new(self.bound)
            .with_block_size(self.block_size)
            .with_header(self.header)
    }

    /// [`Self::config`] with the case's drawn recipe applied.
    #[must_use]
    pub fn recipe_config(&self) -> CereszConfig {
        self.config().with_recipe(self.recipe)
    }

    /// Generate case `index` of the run seeded with `root_seed`.
    #[must_use]
    pub fn generate(root_seed: u64, index: u64) -> Self {
        let seed = Rng::new(root_seed).derive(index).next_u64();
        Self::from_seed(seed, index)
    }

    /// Rebuild a case from its derived seed alone — this is what
    /// `ceresz fuzz --case-seed <seed>` uses to replay one failure without
    /// re-running the whole campaign it came from.
    #[must_use]
    pub fn from_seed(seed: u64, index: u64) -> Self {
        let mut r = Rng::new(seed);

        let len = if r.chance(0.5) {
            *r.pick(HOSTILE_LENGTHS)
        } else {
            r.below(MAX_LEN)
        };
        let class = *r.pick(ALL_CLASSES);
        let data = gen_data(&mut r, class, len);
        let bound = gen_bound(&mut r);
        let block_size = *r.pick(&[8usize, 16, 32, 32, 32, 64]);
        let header = if r.chance(0.5) {
            HeaderWidth::W1
        } else {
            HeaderWidth::W4
        };
        let recipe = gen_recipe(&mut r);
        let strategies = [
            StrategyKind::RowParallel {
                rows: 1 + r.below(3),
            },
            StrategyKind::Pipeline {
                rows: 1 + r.below(3),
                pipeline_length: 1 + r.below(4),
            },
            StrategyKind::MultiPipeline {
                rows: 1 + r.below(2),
                pipeline_length: 1 + r.below(3),
                pipelines_per_row: 1 + r.below(3),
            },
        ];
        Self {
            index,
            seed,
            data,
            class,
            bound,
            block_size,
            header,
            strategies,
            recipe,
        }
    }
}

/// Draw a valid recipe: every composition here satisfies the plane-kind
/// chain, so `Recipe::new` cannot fail — the fuzzer explores *behavior*
/// under well-typed recipes (ill-typed ones are rejected at construction,
/// pinned by unit tests).
fn gen_recipe(r: &mut Rng) -> Recipe {
    let slates: &[&[StageSpec]] = &[
        &[
            StageSpec::PreQuantize,
            StageSpec::Lorenzo1d,
            StageSpec::FixedLength,
        ],
        &[StageSpec::PreQuantize, StageSpec::FixedLength],
        &[
            StageSpec::PreQuantize,
            StageSpec::Lorenzo1d,
            StageSpec::FixedLength,
            StageSpec::Huffman,
        ],
        &[
            StageSpec::PreQuantize,
            StageSpec::FixedLength,
            StageSpec::Huffman,
        ],
        &[StageSpec::MantissaSplit, StageSpec::Huffman],
        &[StageSpec::Bf16, StageSpec::Huffman],
    ];
    let at = r.below(slates.len());
    Recipe::new(slates[at]).expect("slate recipes are well-typed")
}

fn gen_bound(r: &mut Rng) -> ErrorBound {
    if r.chance(0.10) {
        // Invalid bounds: the whole stack must reject these with a typed
        // error, on every path, including through the simulated fabric.
        *r.pick(&[
            ErrorBound::Abs(0.0),
            ErrorBound::Abs(-1.0),
            ErrorBound::Abs(f64::NAN),
            ErrorBound::Rel(0.0),
            ErrorBound::Rel(-3.0),
            ErrorBound::Rel(f64::INFINITY),
        ])
    } else if r.chance(0.5) {
        ErrorBound::Abs(r.log_uniform(1e-7, 1.0))
    } else {
        ErrorBound::Rel(r.log_uniform(1e-7, 1e-1))
    }
}

fn gen_data(r: &mut Rng, class: DataClass, len: usize) -> Vec<f32> {
    match class {
        DataClass::Smooth => {
            let amp = r.log_uniform(1e-3, 1e3) as f32;
            let f1 = 0.001 + r.unit_f64() as f32 * 0.1;
            let f2 = 0.001 + r.unit_f64() as f32 * 0.02;
            (0..len)
                .map(|i| {
                    let x = i as f32;
                    amp * ((x * f1).sin() + 0.3 * (x * f2).cos())
                })
                .collect()
        }
        DataClass::Constant => {
            let v = pick_scalar(r);
            vec![v; len]
        }
        DataClass::AllZero => vec![0.0; len],
        DataClass::Denormal => (0..len)
            .map(|_| {
                // Bits below 0x0080_0000 are subnormal (or zero); random sign.
                let bits = (r.next_u64() as u32) & 0x007F_FFFF | ((r.next_u64() as u32) << 31);
                f32::from_bits(bits)
            })
            .collect(),
        DataClass::HugeRange => (0..len)
            .map(|_| {
                let mag = r.log_uniform(1e-30, 1e30) as f32;
                if r.chance(0.5) {
                    mag
                } else {
                    -mag
                }
            })
            .collect(),
        DataClass::NanInf => {
            let mut v: Vec<f32> = (0..len).map(|i| (i as f32 * 0.05).sin() * 10.0).collect();
            for x in &mut v {
                if r.chance(0.02) {
                    *x = *r.pick(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
                }
            }
            if !v.is_empty() {
                let at = r.below(v.len());
                v[at] = f32::NAN; // Guarantee at least one.
            }
            v
        }
        DataClass::RandomWalk => {
            let mut acc = 0.0f32;
            (0..len)
                .map(|_| {
                    acc += (r.unit_f64() as f32 - 0.5) * 2.0;
                    acc
                })
                .collect()
        }
        DataClass::LargeMagnitude => (0..len)
            .map(|_| {
                let v = (r.unit_f64() as f32) * f32::MAX;
                if r.chance(0.5) {
                    v
                } else {
                    -v
                }
            })
            .collect(),
        DataClass::RawBits => (0..len)
            .map(|_| f32::from_bits(r.next_u64() as u32))
            .collect(),
    }
}

/// A scalar drawn from the interesting corners of the f32 range.
fn pick_scalar(r: &mut Rng) -> f32 {
    *r.pick(&[
        0.0,
        -0.0,
        1.0,
        -1.5,
        f32::MIN_POSITIVE,
        f32::MIN_POSITIVE / 4.0, // subnormal
        1e30,
        -1e-30,
        f32::MAX / 2.0,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Case::generate(42, 7);
        let b = Case::generate(42, 7);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.block_size, b.block_size);
        assert_eq!(a.data.len(), b.data.len());
        assert_eq!(
            a.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn different_indices_differ() {
        let a = Case::generate(42, 0);
        let b = Case::generate(42, 1);
        assert_ne!(a.seed, b.seed);
    }

    #[test]
    fn case_seed_alone_reproduces_the_case() {
        let a = Case::generate(42, 17);
        let b = Case::from_seed(a.seed, a.index);
        assert_eq!(a.block_size, b.block_size);
        assert_eq!(a.class, b.class);
        assert_eq!(
            a.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn strategies_are_always_valid_shapes() {
        for i in 0..200 {
            let case = Case::generate(1, i);
            for s in case.strategies {
                s.validate().unwrap();
            }
        }
    }

    #[test]
    fn nan_class_always_contains_nan() {
        let mut seen = 0;
        for i in 0..400 {
            let case = Case::generate(3, i);
            if case.class == DataClass::NanInf && !case.data.is_empty() {
                seen += 1;
                assert!(case.data.iter().any(|v| v.is_nan()));
            }
        }
        assert!(seen > 0, "generator never produced a NanInf case");
    }
}
