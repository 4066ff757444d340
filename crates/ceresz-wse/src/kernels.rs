//! Per-PE compute kernels: the compression/decompression sub-stages operating
//! on real block data while charging calibrated cycle costs.
//!
//! A block moves through the pipeline as a [`CompressState`] /
//! [`DecompressState`]; each sub-stage consumes one state and produces the
//! next, charging its operations to a [`Charger`] (the simulator's `TaskCtx`
//! inside a PE program, or a [`HostCharger`] when the analytic engine
//! accounts cycles without event-stepping). States serialize to wavelets so
//! pipeline PEs can stream partially-processed blocks to their successors.
//!
//! The kernels are written against `ceresz-core`'s primitives, so a block
//! pushed through *all* stages produces bytes **identical** to
//! `BlockCodec::encode_block` — the property the integration tests pin down.

use ceresz_core::block::BlockCodec;
use ceresz_core::compressor::CompressError;
use ceresz_core::fixed_length::{
    apply_signs, bit_shuffle_one_plane, effective_bits, max_magnitude, signs_and_magnitudes,
};
use ceresz_core::plan::SubStageKind;
use ceresz_core::quantize::QuantizeError;
use ceresz_core::QUANT_MAX;
use wse_sim::{CostModel, Op, TaskCtx, Time};

use crate::harness::{parse_raw_block, reuse_for};
use crate::wire::{WaveletReader, WaveletWriter, WireTruncated};

/// Sink for cycle charges, so kernels run identically inside the simulator
/// and in host-side accounting.
pub trait Charger {
    /// Charge `n` repetitions of `op`.
    fn charge_op(&mut self, op: Op, n: u64);

    /// Mark that subsequent charges belong to kernel sub-stage `stage`.
    ///
    /// The kernels call this at the top of every stage application, which is
    /// how simulated runs get per-stage cycle attribution (the shape of the
    /// paper's Tables 1–3) without the mapping strategies doing anything.
    /// The default is a no-op, so host-side chargers are unaffected.
    fn begin_stage(&mut self, stage: SubStageKind) {
        let _ = stage;
    }
}

impl Charger for TaskCtx<'_> {
    fn charge_op(&mut self, op: Op, n: u64) {
        self.charge(op, n);
    }

    fn begin_stage(&mut self, stage: SubStageKind) {
        // Guard before building the name: `SubStageKind::name` allocates,
        // and runs without the flight recorder must stay on the
        // zero-overhead path.
        if self.attribution_enabled() {
            TaskCtx::begin_stage(self, &stage.name());
        }
    }
}

/// Host-side cycle accumulator using a [`CostModel`]. Accumulates integer
/// ticks ([`Time`]), exactly like the simulator's per-task charging, so
/// host-side accounting and simulated runs can never drift apart.
#[derive(Debug, Clone)]
pub struct HostCharger {
    /// Time accumulated so far (integer ticks).
    pub time: Time,
    model: CostModel,
}

impl HostCharger {
    /// New accumulator over `model`.
    #[must_use]
    pub fn new(model: CostModel) -> Self {
        Self {
            time: Time::ZERO,
            model,
        }
    }

    /// Accumulated time in cycles (exact: every tick count below 2^53
    /// converts without rounding).
    #[must_use]
    pub fn cycles(&self) -> f64 {
        self.time.cycles_f64()
    }
}

impl Charger for HostCharger {
    fn charge_op(&mut self, op: Op, n: u64) {
        self.time += self.model.cost(op, n);
    }
}

/// A no-op charger for correctness-only runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullCharger;

impl Charger for NullCharger {
    fn charge_op(&mut self, _op: Op, _n: u64) {}
}

/// One recorded item of a kernel's charge stream (see [`MemoEntry`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ChargeCall {
    /// A `begin_stage` marker.
    Stage(SubStageKind),
    /// A `charge_op` call.
    Op(Op, u64),
}

/// Charger adaptor that forwards every call to an inner charger while
/// logging it, so a block computation can later be replayed
/// charge-for-charge against a different (or the same) sink.
pub(crate) struct RecordingCharger<'a, C: Charger> {
    inner: &'a mut C,
    log: Vec<ChargeCall>,
}

impl<'a, C: Charger> RecordingCharger<'a, C> {
    pub(crate) fn new(inner: &'a mut C) -> Self {
        Self {
            inner,
            log: Vec::new(),
        }
    }

    /// Release the inner borrow and hand back the recorded call log.
    pub(crate) fn into_log(self) -> Vec<ChargeCall> {
        self.log
    }
}

impl<C: Charger> Charger for RecordingCharger<'_, C> {
    fn charge_op(&mut self, op: Op, n: u64) {
        self.log.push(ChargeCall::Op(op, n));
        self.inner.charge_op(op, n);
    }

    fn begin_stage(&mut self, stage: SubStageKind) {
        self.log.push(ChargeCall::Stage(stage));
        self.inner.begin_stage(stage);
    }
}

/// One recorded per-block kernel computation: the exact input words, the
/// charge stream the kernels emitted, and the output words they produced.
///
/// Pipeline PE programs are stateless per block, so two tasks that receive
/// identical input words perform the identical computation: same charge
/// stream (every kernel charge is a function of the state being
/// transformed), same output words. Replaying an entry is therefore
/// bit-identical to re-running the kernels, but skips the arithmetic.
pub(crate) struct MemoEntry {
    input: Vec<u32>,
    charges: Vec<ChargeCall>,
    output: Vec<u32>,
}

impl MemoEntry {
    /// Assemble an entry from the charge log a [`RecordingCharger`] captured
    /// while computing `output` from `input`.
    pub(crate) fn record(
        input: Vec<u32>,
        recorder: RecordingCharger<'_, impl Charger>,
        output: Vec<u32>,
    ) -> Self {
        Self {
            input,
            charges: recorder.into_log(),
            output,
        }
    }

    /// If `words` is the recorded input, replay the recorded charge stream
    /// into `charger` — the same trait calls, in the same order, as the
    /// recorded computation made — and return the recorded output, copied
    /// into `words`' allocation where that leaves no slack. Otherwise hand
    /// `words` back untouched.
    pub(crate) fn replay<C: Charger>(
        &self,
        words: Vec<u32>,
        charger: &mut C,
    ) -> Result<Vec<u32>, Vec<u32>> {
        if self.input != words {
            return Err(words);
        }
        for call in &self.charges {
            match *call {
                ChargeCall::Stage(stage) => charger.begin_stage(stage),
                ChargeCall::Op(op, n) => charger.charge_op(op, n),
            }
        }
        let mut out = reuse_for(words, self.output.len());
        out.extend_from_slice(&self.output);
        Ok(out)
    }
}

/// Vectors of finished compression states, kept per thread for the next
/// states the kernels build there: a steady stream of blocks reuses the same
/// few allocations instead of allocating (and fragmenting the heap with)
/// new ones at every stage. Each pool keeps at most [`SPARES_PER_TYPE`].
#[derive(Default)]
pub(crate) struct Spares {
    f32s: Vec<Vec<f32>>,
    f64s: Vec<Vec<f64>>,
    i64s: Vec<Vec<i64>>,
    u32s: Vec<Vec<u32>>,
    u8s: Vec<Vec<u8>>,
}

/// Enough for every vector one state holds at a time.
const SPARES_PER_TYPE: usize = 4;

thread_local! {
    static SPARES: std::cell::RefCell<Spares> = std::cell::RefCell::default();
}

/// An element type of state vectors, with its pool in [`Spares`].
pub(crate) trait Spare: Sized + 'static {
    fn pool(spares: &mut Spares) -> &mut Vec<Vec<Self>>;
}

impl Spare for f32 {
    fn pool(spares: &mut Spares) -> &mut Vec<Vec<Self>> {
        &mut spares.f32s
    }
}

impl Spare for f64 {
    fn pool(spares: &mut Spares) -> &mut Vec<Vec<Self>> {
        &mut spares.f64s
    }
}

impl Spare for i64 {
    fn pool(spares: &mut Spares) -> &mut Vec<Vec<Self>> {
        &mut spares.i64s
    }
}

impl Spare for u32 {
    fn pool(spares: &mut Spares) -> &mut Vec<Vec<Self>> {
        &mut spares.u32s
    }
}

impl Spare for u8 {
    fn pool(spares: &mut Spares) -> &mut Vec<Vec<Self>> {
        &mut spares.u8s
    }
}

/// An empty vector with room for `n` elements: a spare of this thread when
/// there is one.
pub(crate) fn spare_vec<T: Spare>(n: usize) -> Vec<T> {
    let mut v = SPARES
        .with_borrow_mut(|s| T::pool(s).pop())
        .unwrap_or_default();
    v.reserve(n);
    v
}

/// Free every spare of this thread (nothing once the thread is exiting).
pub(crate) fn drop_spares() {
    let _ = SPARES.try_with(std::cell::RefCell::take);
}

/// Keep `v`'s allocation as a spare of this thread.
pub(crate) fn recycle<T: Spare>(mut v: Vec<T>) {
    if v.capacity() == 0 {
        return;
    }
    v.clear();
    SPARES.with_borrow_mut(|s| {
        let pool = T::pool(s);
        if pool.len() < SPARES_PER_TYPE {
            pool.push(v);
        }
    });
}

/// Intermediate state of one block moving through the compression pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CompressState {
    /// Raw input values.
    Raw(Vec<f32>),
    /// After *Multiplication*: `e · 1/2ε` (carried in f64; see crate docs).
    Scaled(Vec<f64>),
    /// After *Addition*: quantized integers.
    Quantized(Vec<i64>),
    /// After Lorenzo: residuals.
    Deltas(Vec<i64>),
    /// After *Sign*: packed sign bits + magnitudes.
    SignMag {
        /// Packed sign plane.
        signs: Vec<u8>,
        /// Absolute values.
        mags: Vec<u32>,
    },
    /// After *Max*.
    WithMax {
        /// Packed sign plane.
        signs: Vec<u8>,
        /// Absolute values.
        mags: Vec<u32>,
        /// Block maximum magnitude.
        max: u32,
    },
    /// After *GetLength*: ready for bit-shuffling.
    Shuffling {
        /// Packed sign plane.
        signs: Vec<u8>,
        /// Absolute values (still needed for remaining planes).
        mags: Vec<u32>,
        /// Fixed length of this block.
        f: u32,
        /// Next plane index to shuffle (`== f` means done).
        next_plane: u32,
        /// Shuffled planes so far (`next_plane · plane_bytes` bytes).
        planes: Vec<u8>,
    },
}

impl CompressState {
    /// The block's element count.
    #[must_use]
    pub fn block_size(&self) -> usize {
        match self {
            CompressState::Raw(v) => v.len(),
            CompressState::Scaled(v) => v.len(),
            CompressState::Quantized(v) | CompressState::Deltas(v) => v.len(),
            CompressState::SignMag { mags, .. }
            | CompressState::WithMax { mags, .. }
            | CompressState::Shuffling { mags, .. } => mags.len(),
        }
    }

    /// True once every shuffle plane has been produced.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, CompressState::Shuffling { f, next_plane, .. } if next_plane == f)
    }

    /// Apply one sub-stage, charging its cost.
    ///
    /// Shuffle stages beyond the block's actual fixed length are no-ops (a
    /// pipeline planned for the sampled maximum `f` passes shorter blocks
    /// through unchanged). Applying a stage to the wrong state is a mapping
    /// bug and panics.
    pub fn apply<C: Charger>(
        self,
        stage: SubStageKind,
        eps: f64,
        charger: &mut C,
    ) -> Result<CompressState, CompressError> {
        charger.begin_stage(stage);
        let l = self.block_size() as u64;
        match (stage, self) {
            (SubStageKind::QuantMul, CompressState::Raw(vals)) => {
                charger.charge_op(Op::F32Mul, l);
                let recip = 1.0 / (2.0 * eps);
                let mut scaled = spare_vec(vals.len());
                for (i, &v) in vals.iter().enumerate() {
                    if !v.is_finite() {
                        return Err(CompressError::Quantize(QuantizeError::NonFinite {
                            index: i,
                        }));
                    }
                    scaled.push(f64::from(v) * recip);
                }
                recycle(vals);
                Ok(CompressState::Scaled(scaled))
            }
            (SubStageKind::QuantAdd, CompressState::Scaled(scaled)) => {
                charger.charge_op(Op::F32AddRound, l);
                let mut q = spare_vec(scaled.len());
                for (i, &x) in scaled.iter().enumerate() {
                    let p = (x + 0.5).floor() as i64;
                    if p.abs() > QUANT_MAX {
                        return Err(CompressError::Quantize(QuantizeError::Overflow {
                            index: i,
                        }));
                    }
                    q.push(p);
                }
                recycle(scaled);
                Ok(CompressState::Quantized(q))
            }
            (SubStageKind::Lorenzo, CompressState::Quantized(mut q)) => {
                charger.charge_op(Op::I32Sub, l);
                ceresz_core::lorenzo::forward_1d_in_place(&mut q);
                Ok(CompressState::Deltas(q))
            }
            (SubStageKind::Sign, CompressState::Deltas(deltas)) => {
                charger.charge_op(Op::SignAbs, l);
                let mut signs = spare_vec(deltas.len().div_ceil(8));
                signs.resize(deltas.len().div_ceil(8), 0);
                let mut mags = spare_vec(deltas.len());
                mags.resize(deltas.len(), 0);
                signs_and_magnitudes(&deltas, &mut signs, &mut mags);
                recycle(deltas);
                Ok(CompressState::SignMag { signs, mags })
            }
            (SubStageKind::Max, CompressState::SignMag { signs, mags }) => {
                charger.charge_op(Op::MaxStep, l);
                let max = max_magnitude(&mags);
                Ok(CompressState::WithMax { signs, mags, max })
            }
            (SubStageKind::GetLength, CompressState::WithMax { signs, mags, max }) => {
                charger.charge_op(Op::Clz, 1);
                let f = effective_bits(max);
                let planes = spare_vec(f as usize * mags.len().div_ceil(8));
                Ok(CompressState::Shuffling {
                    signs,
                    mags,
                    f,
                    next_plane: 0,
                    planes,
                })
            }
            (
                SubStageKind::ShufflePlane(k),
                CompressState::Shuffling {
                    signs,
                    mags,
                    f,
                    next_plane,
                    mut planes,
                },
            ) => {
                if k >= f {
                    // Planned for a longer block; nothing to do here.
                    return Ok(CompressState::Shuffling {
                        signs,
                        mags,
                        f,
                        next_plane,
                        planes,
                    });
                }
                assert_eq!(k, next_plane, "shuffle planes must be applied in order");
                charger.charge_op(Op::ShuffleBit, l);
                let pb = mags.len().div_ceil(8);
                let off = planes.len();
                planes.resize(off + pb, 0);
                bit_shuffle_one_plane(&mags, k, &mut planes[off..]);
                Ok(CompressState::Shuffling {
                    signs,
                    mags,
                    f,
                    next_plane: next_plane + 1,
                    planes,
                })
            }
            (stage, state) => panic!("stage {stage:?} cannot apply to state {state:?}"),
        }
    }

    /// Apply exactly the next canonical stage (test/diagnostic helper).
    pub fn step_once(self, eps: f64) -> Result<CompressState, CompressError> {
        let stage = match &self {
            CompressState::Raw(_) => SubStageKind::QuantMul,
            CompressState::Scaled(_) => SubStageKind::QuantAdd,
            CompressState::Quantized(_) => SubStageKind::Lorenzo,
            CompressState::Deltas(_) => SubStageKind::Sign,
            CompressState::SignMag { .. } => SubStageKind::Max,
            CompressState::WithMax { .. } => SubStageKind::GetLength,
            CompressState::Shuffling { next_plane, .. } => SubStageKind::ShufflePlane(*next_plane),
        };
        self.apply(stage, eps, &mut NullCharger)
    }

    /// Apply any shuffle planes still missing (used by the last pipeline PE
    /// as a safety net when sampling under-estimated the fixed length).
    pub fn finish<C: Charger>(
        mut self,
        eps: f64,
        charger: &mut C,
    ) -> Result<CompressState, CompressError> {
        loop {
            match &self {
                CompressState::Shuffling { f, next_plane, .. } => {
                    if next_plane == f {
                        return Ok(self);
                    }
                    let k = *next_plane;
                    self = self.apply(SubStageKind::ShufflePlane(k), eps, charger)?;
                }
                _ => {
                    // Earlier stages missing: run the canonical order.
                    let stage = match &self {
                        CompressState::Raw(_) => SubStageKind::QuantMul,
                        CompressState::Scaled(_) => SubStageKind::QuantAdd,
                        CompressState::Quantized(_) => SubStageKind::Lorenzo,
                        CompressState::Deltas(_) => SubStageKind::Sign,
                        CompressState::SignMag { .. } => SubStageKind::Max,
                        CompressState::WithMax { .. } => SubStageKind::GetLength,
                        CompressState::Shuffling { .. } => unreachable!(),
                    };
                    self = self.apply(stage, eps, charger)?;
                }
            }
        }
    }

    /// Encode the finished block to bytes, byte-identical to
    /// [`BlockCodec::encode_deltas`] with a matching codec.
    ///
    /// # Panics
    /// If the state is not complete (see [`CompressState::finish`]).
    #[must_use]
    pub fn into_encoded(self, codec: &BlockCodec) -> Vec<u8> {
        match self {
            CompressState::Shuffling {
                signs,
                mags,
                f,
                next_plane,
                planes,
            } => {
                assert_eq!(next_plane, f, "block not fully shuffled");
                let mut out = spare_vec(codec.encoded_size(f));
                match codec.header() {
                    ceresz_core::HeaderWidth::W1 => out.push(f as u8),
                    ceresz_core::HeaderWidth::W4 => out.extend_from_slice(&f.to_le_bytes()),
                }
                if f > 0 {
                    out.extend_from_slice(&signs);
                    out.extend_from_slice(&planes);
                }
                recycle(signs);
                recycle(mags);
                recycle(planes);
                out
            }
            other => panic!("block in state {other:?} is not encoded"),
        }
    }

    /// Keep the state's vectors as spares of this thread.
    pub(crate) fn recycle(self) {
        match self {
            CompressState::Raw(v) => recycle(v),
            CompressState::Scaled(v) => recycle(v),
            CompressState::Quantized(v) | CompressState::Deltas(v) => recycle(v),
            CompressState::SignMag { signs, mags } | CompressState::WithMax { signs, mags, .. } => {
                recycle(signs);
                recycle(mags);
            }
            CompressState::Shuffling {
                signs,
                mags,
                planes,
                ..
            } => {
                recycle(signs);
                recycle(mags);
                recycle(planes);
            }
        }
    }

    /// Whether a serialized frame (see [`Self::to_wavelets`]) carries a
    /// block that is already complete: tag 6 (`Shuffling`) with every plane
    /// produced. A pipeline PE can forward such a frame verbatim — no stage
    /// applies to a complete state (and so nothing is charged), and
    /// deserializing then re-serializing reproduces the identical words
    /// (signs and planes round-trip unchanged; magnitudes are no longer on
    /// the wire once shuffling is done) — so skipping the round trip changes
    /// neither the bytes nor the simulated timing.
    #[must_use]
    pub fn frame_is_complete(words: &[u32]) -> bool {
        words.len() > 2 && words[0] == 6 && words[1] == words[2]
    }

    /// Wavelets of the serialized state (see [`Self::to_wavelets`]).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        let words = |bytes: &[u8]| bytes.len().div_ceil(4);
        match self {
            CompressState::Raw(v) => 1 + v.len(),
            CompressState::Scaled(v) => 1 + 2 * v.len(),
            CompressState::Quantized(v) | CompressState::Deltas(v) => 1 + v.len(),
            CompressState::SignMag { signs, mags } => 1 + words(signs) + mags.len(),
            CompressState::WithMax { signs, mags, .. } => 2 + words(signs) + mags.len(),
            CompressState::Shuffling {
                signs,
                mags,
                f,
                next_plane,
                planes,
            } => {
                let mags = if next_plane < f { mags.len() } else { 0 };
                3 + words(signs) + mags + words(planes)
            }
        }
    }

    /// Serialize for transfer to the next pipeline PE.
    #[must_use]
    pub fn to_wavelets(&self) -> Vec<u32> {
        self.write_wavelets(Vec::with_capacity(self.wire_len()))
    }

    /// Serialize into `buf`, cleared first: a PE owns the block it received,
    /// so its allocation carries the state on.
    #[must_use]
    pub fn write_wavelets(&self, buf: Vec<u32>) -> Vec<u32> {
        let mut w = WaveletWriter::reuse(buf);
        match self {
            CompressState::Raw(vals) => {
                w.put_u32(0);
                for &v in vals {
                    w.put_f32(v);
                }
            }
            CompressState::Scaled(vals) => {
                w.put_u32(1);
                for &v in vals {
                    w.put_f64(v);
                }
            }
            CompressState::Quantized(vals) => {
                w.put_u32(2);
                for &v in vals {
                    w.put_i32(v as i32);
                }
            }
            CompressState::Deltas(vals) => {
                w.put_u32(3);
                for &v in vals {
                    w.put_i32(v as i32);
                }
            }
            CompressState::SignMag { signs, mags } => {
                w.put_u32(4);
                w.put_bytes(signs);
                for &m in mags {
                    w.put_u32(m);
                }
            }
            CompressState::WithMax { signs, mags, max } => {
                w.put_u32(5);
                w.put_u32(*max);
                w.put_bytes(signs);
                for &m in mags {
                    w.put_u32(m);
                }
            }
            CompressState::Shuffling {
                signs,
                mags,
                f,
                next_plane,
                planes,
            } => {
                w.put_u32(6);
                w.put_u32(*f);
                w.put_u32(*next_plane);
                w.put_bytes(signs);
                if next_plane < f {
                    // Magnitudes still needed downstream.
                    for &m in mags {
                        w.put_u32(m);
                    }
                }
                w.put_bytes(planes);
            }
        }
        w.finish()
    }

    /// Deserialize a state for an `l`-element block. Every vector is read
    /// from an exact slice of `words`, so each is allocated once at its
    /// size; the planes of a shuffling state get room for all `f` planes
    /// (at most 31), so the shuffle stages append without reallocating.
    pub fn from_wavelets(words: &[u32], l: usize) -> Result<CompressState, WireTruncated> {
        let pb = l.div_ceil(8);
        let ints = |slice: &[u32]| {
            let mut out = spare_vec(slice.len());
            out.extend(slice.iter().map(|&w| i64::from(w as i32)));
            out
        };
        let u32s = |slice: &[u32]| {
            let mut out = spare_vec(slice.len());
            out.extend_from_slice(slice);
            out
        };
        let bytes = |r: &mut WaveletReader<'_>, n: usize| {
            let mut out = spare_vec(n);
            r.read_bytes_into(n, &mut out).map(|()| out)
        };
        let mut r = WaveletReader::new(words);
        let tag = r.get_u32()?;
        Ok(match tag {
            0 => CompressState::Raw(parse_raw_block(r.take(l)?)),
            1 => {
                let mut scaled = spare_vec(l);
                scaled.extend(
                    r.take(2 * l)?
                        .chunks_exact(2)
                        .map(|w| f64::from_bits(u64::from(w[0]) | (u64::from(w[1]) << 32))),
                );
                CompressState::Scaled(scaled)
            }
            2 => CompressState::Quantized(ints(r.take(l)?)),
            3 => CompressState::Deltas(ints(r.take(l)?)),
            4 => {
                let signs = bytes(&mut r, pb)?;
                let mags = u32s(r.take(l)?);
                CompressState::SignMag { signs, mags }
            }
            5 => {
                let max = r.get_u32()?;
                let signs = bytes(&mut r, pb)?;
                let mags = u32s(r.take(l)?);
                CompressState::WithMax { signs, mags, max }
            }
            6 => {
                let f = r.get_u32()?;
                let next_plane = r.get_u32()?;
                let signs = bytes(&mut r, pb)?;
                let mags = if next_plane < f {
                    u32s(r.take(l)?)
                } else {
                    let mut zeros = spare_vec(l);
                    zeros.resize(l, 0);
                    zeros
                };
                let all = f.min(BlockCodec::MAX_FIXED_LENGTH) as usize * pb;
                let mut planes = spare_vec(all);
                r.read_bytes_into(next_plane as usize * pb, &mut planes)?;
                CompressState::Shuffling {
                    signs,
                    mags,
                    f,
                    next_plane,
                    planes,
                }
            }
            _ => return Err(WireTruncated),
        })
    }
}

/// Intermediate state of one block moving through the decompression pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum DecompressState {
    /// Parsed encoded block, planes not yet unshuffled.
    Unshuffling {
        /// Fixed length from the header.
        f: u32,
        /// Packed sign plane.
        signs: Vec<u8>,
        /// All `f` bit-planes.
        planes: Vec<u8>,
        /// Magnitudes reconstructed so far.
        mags: Vec<u32>,
        /// Next plane index to unshuffle.
        next_plane: u32,
    },
    /// After *ApplySign*: signed residuals.
    Residuals(Vec<i64>),
    /// After *PrefixSum*: quantized values.
    Quantized(Vec<i64>),
    /// After *DequantMul*: reconstructed values.
    Restored(Vec<f32>),
}

impl DecompressState {
    /// Parse an encoded block (consuming `codec.encoded_size(f)` bytes) into
    /// the initial decompression state. Zero blocks go straight to
    /// [`DecompressState::Restored`], charging only the zero-fill.
    pub fn from_encoded<C: Charger>(
        bytes: &[u8],
        codec: &BlockCodec,
        eps: f64,
        charger: &mut C,
    ) -> Result<(DecompressState, usize), CompressError> {
        let _ = eps;
        let l = codec.block_size();
        let hb = codec.header().bytes();
        if bytes.len() < hb {
            return Err(CompressError::Truncated);
        }
        let f = match codec.header() {
            ceresz_core::HeaderWidth::W1 => u32::from(bytes[0]),
            ceresz_core::HeaderWidth::W4 => {
                u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
            }
        };
        if f > BlockCodec::MAX_FIXED_LENGTH {
            return Err(CompressError::CorruptHeader { fixed_length: f });
        }
        let need = codec.encoded_size(f);
        if bytes.len() < need {
            return Err(CompressError::Truncated);
        }
        if f == 0 {
            charger.charge_op(Op::MemSet, l as u64);
            return Ok((DecompressState::Restored(vec![0.0; l]), need));
        }
        let pb = codec.plane_bytes();
        let signs = bytes[hb..hb + pb].to_vec();
        let planes = bytes[hb + pb..need].to_vec();
        Ok((
            DecompressState::Unshuffling {
                f,
                signs,
                planes,
                mags: vec![0u32; l],
                next_plane: 0,
            },
            need,
        ))
    }

    /// Apply one decompression sub-stage.
    pub fn apply<C: Charger>(
        self,
        stage: SubStageKind,
        eps: f64,
        charger: &mut C,
    ) -> Result<DecompressState, CompressError> {
        charger.begin_stage(stage);
        match (stage, self) {
            (
                SubStageKind::UnshufflePlane(k),
                DecompressState::Unshuffling {
                    f,
                    signs,
                    planes,
                    mut mags,
                    next_plane,
                },
            ) => {
                if k >= f {
                    return Ok(DecompressState::Unshuffling {
                        f,
                        signs,
                        planes,
                        mags,
                        next_plane,
                    });
                }
                assert_eq!(k, next_plane, "unshuffle planes must be applied in order");
                charger.charge_op(Op::UnshuffleBit, mags.len() as u64);
                let pb = mags.len().div_ceil(8);
                let plane = &planes[k as usize * pb..(k as usize + 1) * pb];
                for (i, m) in mags.iter_mut().enumerate() {
                    let bit = (plane[i / 8] >> (i % 8)) & 1;
                    *m |= u32::from(bit) << k;
                }
                Ok(DecompressState::Unshuffling {
                    f,
                    signs,
                    planes,
                    mags,
                    next_plane: next_plane + 1,
                })
            }
            (
                SubStageKind::ApplySign,
                DecompressState::Unshuffling {
                    f,
                    signs,
                    mags,
                    next_plane,
                    ..
                },
            ) => {
                assert_eq!(next_plane, f, "apply-sign before all planes unshuffled");
                charger.charge_op(Op::SignAbs, mags.len() as u64);
                let mut out = vec![0i64; mags.len()];
                apply_signs(&signs, &mags, &mut out);
                Ok(DecompressState::Residuals(out))
            }
            (SubStageKind::PrefixSum, DecompressState::Residuals(mut r)) => {
                charger.charge_op(Op::I32Add, r.len() as u64);
                ceresz_core::lorenzo::inverse_1d_in_place(&mut r);
                Ok(DecompressState::Quantized(r))
            }
            (SubStageKind::DequantMul, DecompressState::Quantized(q)) => {
                charger.charge_op(Op::F32Mul, q.len() as u64);
                let mut out = vec![0f32; q.len()];
                ceresz_core::quantize::dequantize(&q, eps, &mut out);
                Ok(DecompressState::Restored(out))
            }
            // A zero block is already Restored: every stage passes it through.
            (_, s @ DecompressState::Restored(_)) => Ok(s),
            (stage, state) => panic!("stage {stage:?} cannot apply to state {state:?}"),
        }
    }

    /// Whether `stage` can run on the current state (pipeline PEs planned
    /// for the sampled maximum fixed length skip stages a shorter block has
    /// already passed, and leave stages an unexpectedly long block still
    /// needs to the final PE's `finish`).
    #[must_use]
    pub fn can_apply(&self, stage: SubStageKind) -> bool {
        match (stage, self) {
            (SubStageKind::UnshufflePlane(_), DecompressState::Unshuffling { .. }) => true,
            (SubStageKind::ApplySign, DecompressState::Unshuffling { f, next_plane, .. }) => {
                next_plane == f
            }
            (SubStageKind::PrefixSum, DecompressState::Residuals(_)) => true,
            (SubStageKind::DequantMul, DecompressState::Quantized(_)) => true,
            (_, DecompressState::Restored(_)) => true, // pass-through
            _ => false,
        }
    }

    /// Run all remaining stages to completion.
    pub fn finish<C: Charger>(
        mut self,
        eps: f64,
        charger: &mut C,
    ) -> Result<Vec<f32>, CompressError> {
        loop {
            match self {
                DecompressState::Restored(v) => return Ok(v),
                DecompressState::Unshuffling { f, next_plane, .. } if next_plane < f => {
                    self = self.apply(SubStageKind::UnshufflePlane(next_plane), eps, charger)?;
                }
                DecompressState::Unshuffling { .. } => {
                    self = self.apply(SubStageKind::ApplySign, eps, charger)?;
                }
                DecompressState::Residuals(_) => {
                    self = self.apply(SubStageKind::PrefixSum, eps, charger)?;
                }
                DecompressState::Quantized(_) => {
                    self = self.apply(SubStageKind::DequantMul, eps, charger)?;
                }
            }
        }
    }

    /// Wavelets of the serialized state (see [`Self::to_wavelets`]).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        match self {
            DecompressState::Unshuffling {
                signs,
                planes,
                mags,
                next_plane,
                ..
            } => {
                let consumed = *next_plane as usize * mags.len().div_ceil(8);
                let rest = planes.len().saturating_sub(consumed);
                3 + signs.len().div_ceil(4) + rest.div_ceil(4) + mags.len()
            }
            DecompressState::Residuals(v) | DecompressState::Quantized(v) => 1 + v.len(),
            DecompressState::Restored(v) => 1 + v.len(),
        }
    }

    /// Serialize for transfer to the next pipeline PE.
    #[must_use]
    pub fn to_wavelets(&self) -> Vec<u32> {
        self.write_wavelets(Vec::with_capacity(self.wire_len()))
    }

    /// Serialize into `buf`, cleared first: a PE owns the block it received,
    /// so its allocation carries the state on.
    #[must_use]
    pub fn write_wavelets(&self, buf: Vec<u32>) -> Vec<u32> {
        let mut w = WaveletWriter::reuse(buf);
        match self {
            DecompressState::Unshuffling {
                f,
                signs,
                planes,
                mags,
                next_plane,
            } => {
                w.put_u32(0);
                w.put_u32(*f);
                w.put_u32(*next_plane);
                w.put_bytes(signs);
                // Planes already consumed are not forwarded.
                let pb = mags.len().div_ceil(8);
                w.put_bytes(&planes[*next_plane as usize * pb..]);
                for &m in mags {
                    w.put_u32(m);
                }
            }
            DecompressState::Residuals(v) => {
                w.put_u32(1);
                for &x in v {
                    w.put_i32(x as i32);
                }
            }
            DecompressState::Quantized(v) => {
                w.put_u32(2);
                for &x in v {
                    w.put_i32(x as i32);
                }
            }
            DecompressState::Restored(v) => {
                w.put_u32(3);
                for &x in v {
                    w.put_f32(x);
                }
            }
        }
        w.finish()
    }

    /// Deserialize a state for an `l`-element block, each vector read from
    /// an exact slice of `words`. A frame whose fixed length exceeds 31 or
    /// whose next plane lies past it is malformed and reads as truncated.
    pub fn from_wavelets(words: &[u32], l: usize) -> Result<DecompressState, WireTruncated> {
        let pb = l.div_ceil(8);
        let mut r = WaveletReader::new(words);
        let ints = |slice: &[u32]| slice.iter().map(|&w| i64::from(w as i32)).collect();
        let tag = r.get_u32()?;
        Ok(match tag {
            0 => {
                let f = r.get_u32()?;
                let next_plane = r.get_u32()?;
                if next_plane > f || f > BlockCodec::MAX_FIXED_LENGTH {
                    return Err(WireTruncated);
                }
                let signs = r.get_bytes(pb)?;
                let mut planes = Vec::with_capacity(f as usize * pb);
                planes.resize(next_plane as usize * pb, 0);
                r.read_bytes_into((f - next_plane) as usize * pb, &mut planes)?;
                let mags = r.take(l)?.to_vec();
                DecompressState::Unshuffling {
                    f,
                    signs,
                    planes,
                    mags,
                    next_plane,
                }
            }
            1 => DecompressState::Residuals(ints(r.take(l)?)),
            2 => DecompressState::Quantized(ints(r.take(l)?)),
            3 => DecompressState::Restored(r.take(l)?.iter().map(|&w| f32::from_bits(w)).collect()),
            _ => return Err(WireTruncated),
        })
    }
}

/// Compress one raw block through all stages on the host, returning its
/// encoded bytes and charging `charger`.
pub fn compress_block<C: Charger>(
    data: &[f32],
    codec: &BlockCodec,
    eps: f64,
    charger: &mut C,
) -> Result<Vec<u8>, CompressError> {
    let mut padded = data.to_vec();
    padded.resize(codec.block_size(), 0.0);
    let state = CompressState::Raw(padded).finish(eps, charger)?;
    Ok(state.into_encoded(codec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceresz_core::HeaderWidth;

    fn codec() -> BlockCodec {
        BlockCodec::new(32, HeaderWidth::W4)
    }

    fn sample_block() -> Vec<f32> {
        (0..32).map(|i| (i as f32 * 0.3).sin() * 5.0).collect()
    }

    #[test]
    fn kernel_matches_reference_codec() {
        let data = sample_block();
        let eps = 1e-3;
        let mut reference = Vec::new();
        codec().encode_block(&data, eps, &mut reference).unwrap();
        let bytes = compress_block(&data, &codec(), eps, &mut NullCharger).unwrap();
        assert_eq!(bytes, reference);
    }

    #[test]
    fn zero_block_kernel_matches_reference() {
        let data = vec![1e-9f32; 32];
        let eps = 1e-2;
        let mut reference = Vec::new();
        codec().encode_block(&data, eps, &mut reference).unwrap();
        let bytes = compress_block(&data, &codec(), eps, &mut NullCharger).unwrap();
        assert_eq!(bytes, reference);
        assert_eq!(bytes.len(), 4);
    }

    #[test]
    fn charged_cycles_match_stage_model() {
        // Pushing one block through all stages must cost what the planning
        // model predicts (ops only; task overheads are charged by the sim).
        let data = sample_block();
        let eps = 1e-3;
        let mut charger = HostCharger::new(CostModel::calibrated());
        let bytes = compress_block(&data, &codec(), eps, &mut charger).unwrap();
        let f = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        let model = ceresz_core::plan::StageCostModel::calibrated();
        let expected: f64 = ceresz_core::plan::compression_sub_stages(32, f, &model)
            .iter()
            .map(|s| s.cycles - model.task_overhead)
            .sum();
        assert!(
            (charger.cycles() - expected).abs() < 1e-6,
            "{} vs {expected}",
            charger.cycles()
        );
    }

    #[test]
    fn wavelet_roundtrip_all_compress_states() {
        let data = sample_block();
        let eps = 1e-3;
        let mut state = CompressState::Raw(data);
        let model = ceresz_core::plan::StageCostModel::calibrated();
        let stages = ceresz_core::plan::compression_sub_stages(32, 31, &model);
        for stage in stages {
            let w = state.to_wavelets();
            let back = CompressState::from_wavelets(&w, 32).unwrap();
            assert_eq!(back, state, "roundtrip failed before {:?}", stage.kind);
            state = state.apply(stage.kind, eps, &mut NullCharger).unwrap();
            if state.is_complete() {
                break;
            }
        }
    }

    #[test]
    fn every_state_round_trips_at_every_block_size() {
        // Every state of a dense and of a zero block, at block sizes whose
        // sign plane fills one to eight bytes (only the eight a whole
        // number of wavelets): the serialization is exactly `wire_len` wavelets in an
        // exact allocation, writing over a used buffer gives the same words,
        // and parsing restores the state (a complete state leaves its
        // magnitudes off the wire).
        for l in [8, 16, 24, 40, 64] {
            let dense: Vec<f32> = (0..l).map(|i| (i as f32 * 0.7).sin() * 900.0).collect();
            for data in [dense, vec![0.0; l]] {
                let mut state = CompressState::Raw(data);
                loop {
                    let words = state.to_wavelets();
                    assert_eq!(words.len(), state.wire_len(), "{l}: {state:?}");
                    assert_eq!(words.capacity(), words.len(), "{l}: {state:?}");
                    assert_eq!(state.write_wavelets(vec![7; 300]), words, "{l}");
                    let mut expected = state.clone();
                    if let CompressState::Shuffling { mags, .. } = &mut expected {
                        if state.is_complete() {
                            mags.fill(0);
                        }
                    }
                    let back = CompressState::from_wavelets(&words, l).unwrap();
                    assert_eq!(back, expected, "{l}");
                    if state.is_complete() {
                        break;
                    }
                    state = state.step_once(1e-3).unwrap();
                }
            }
        }
    }

    #[test]
    fn malformed_decompression_frames_read_as_truncated() {
        // A next plane past the fixed length, or a fixed length past 31:
        // typed errors, never an overflow or an outsized allocation.
        for (f, next) in [(3, 4), (0, 1), (32, 0), (u32::MAX, u32::MAX)] {
            let words = [0, f, next, 0, 0, 0, 0, 0, 0, 0, 0, 0];
            assert_eq!(
                DecompressState::from_wavelets(&words, 8),
                Err(WireTruncated),
                "f {f}, next plane {next}"
            );
        }
    }

    #[test]
    fn decompress_kernel_roundtrips() {
        let data = sample_block();
        let eps = 1e-3;
        let bytes = compress_block(&data, &codec(), eps, &mut NullCharger).unwrap();
        let (state, consumed) =
            DecompressState::from_encoded(&bytes, &codec(), eps, &mut NullCharger).unwrap();
        assert_eq!(consumed, bytes.len());
        let restored = state.finish(eps, &mut NullCharger).unwrap();
        for (a, b) in data.iter().zip(&restored) {
            assert!((a - b).abs() <= 1e-3 + 1e-6);
        }
    }

    #[test]
    fn decompress_wavelet_roundtrip() {
        let data = sample_block();
        let eps = 1e-3;
        let bytes = compress_block(&data, &codec(), eps, &mut NullCharger).unwrap();
        let (mut state, _) =
            DecompressState::from_encoded(&bytes, &codec(), eps, &mut NullCharger).unwrap();
        // Step through a few stages checking wire stability at each point.
        // Consumed planes are intentionally dropped from the wire, so zero
        // them in the expectation before comparing.
        for _ in 0..3 {
            let w = state.to_wavelets();
            let back = DecompressState::from_wavelets(&w, 32).unwrap();
            let mut expected = state.clone();
            if let DecompressState::Unshuffling {
                planes,
                next_plane,
                mags,
                ..
            } = &mut expected
            {
                let pb = mags.len().div_ceil(8);
                for b in &mut planes[..*next_plane as usize * pb] {
                    *b = 0;
                }
            }
            assert_eq!(back, expected);
            state = match state {
                DecompressState::Unshuffling { f, next_plane, .. } if next_plane < f => state
                    .apply(
                        SubStageKind::UnshufflePlane(next_plane),
                        eps,
                        &mut NullCharger,
                    )
                    .unwrap(),
                other => other,
            };
        }
    }

    #[test]
    fn finish_from_any_intermediate_state() {
        let data = sample_block();
        let eps = 1e-3;
        let mut reference = Vec::new();
        codec().encode_block(&data, eps, &mut reference).unwrap();
        // Stop after each prefix of stages, then finish; always identical.
        let model = ceresz_core::plan::StageCostModel::calibrated();
        let stages = ceresz_core::plan::compression_sub_stages(32, 31, &model);
        for cut in 0..stages.len() {
            let mut state = CompressState::Raw(data.clone());
            for s in &stages[..cut] {
                if state.is_complete() {
                    break;
                }
                state = state.apply(s.kind, eps, &mut NullCharger).unwrap();
            }
            let done = state.finish(eps, &mut NullCharger).unwrap();
            assert_eq!(done.into_encoded(&codec()), reference, "cut at {cut}");
        }
    }

    #[test]
    fn nan_surfaces_as_error_not_panic() {
        let mut data = sample_block();
        data[5] = f32::NAN;
        let err = compress_block(&data, &codec(), 1e-3, &mut NullCharger).unwrap_err();
        assert!(matches!(err, CompressError::Quantize(_)));
    }
}
