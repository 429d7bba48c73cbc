//! The Adam optimizer, with global-norm gradient clipping fused into its
//! step.
//!
//! [`Adam::clip_and_step`] scales the gradient of a parameter set to a
//! global L2 norm and applies one Adam update in the same pass;
//! [`Adam::step`] is the same body without the clip. Either consumes the
//! gradients: they read `+0.0` afterwards.
//!
//! # Live runs
//!
//! Every [`Param`] is stored input-major: one contiguous *run* of `rows`
//! values per input column (see the storage-order rule in
//! [`crate::param`]). Next to each parameter's moments the optimizer keeps
//! one flag per run, set the first time any gradient value in the run has
//! bits other than `+0.0` and never cleared. A step
//!
//! 1. tests only the runs that are not yet live;
//! 2. folds the clip norm over the live runs, per parameter in logical
//!    order, row by row from `+0.0` (as [`Param::grad_norm_squared`]
//!    does), then sums the parameters' folds in order;
//! 3. runs the Adam arithmetic over the live runs only, scaling each
//!    gradient element by the clip factor first when the norm exceeds the
//!    bound.
//!
//! A parameter with no live run is not touched at all: its gradient is not
//! materialised and its values are not un-shared from their clones. Most of
//! an LSTM's input columns never see a non-zero feature, so most of its
//! input matrix is never walked.
//!
//! # Why skipping is bit-identical
//!
//! The reference is the dense loop: every element of every parameter, every
//! step. Preconditions: a finite learning rate `lr >= +0.0` (checked in
//! [`Adam::try_new`]; `-0.0` is refused), `ε > 0` and `0 <= β < 1` (constants
//! below).
//!
//! Take a run that is not live after this step's test. Then every gradient
//! value in it is `+0.0` now, and by induction over the steps, the dense
//! loop has kept its moments at `m = v = +0.0` (where they start) and its
//! weights where they were. On such a run the dense loop computes:
//!
//! * the clipped gradient `g·s`: `±0.0` (`-0.0` when a negative bound makes
//!   `s < 0`);
//! * `m = β₁·(+0.0) + (1−β₁)·(±0.0) = +0.0 + ±0.0 = +0.0`, and likewise
//!   `v = +0.0 + (1−β₂)·(±0.0)·(±0.0) = +0.0`;
//! * `m̂ = m / (1−β₁ᵗ) = +0.0` and `v̂ = +0.0`, since `1−βᵗ > 0`; then
//!   `√v̂ + ε = ε > 0`, so the step is `lr·(+0.0)/ε = +0.0` (it would be
//!   NaN for an infinite or NaN `lr` and `-0.0` for a negative one), and
//!   `w − (+0.0) = w` for every `w`: `-0.0`, infinities and NaN included;
//! * the cleared gradient `+0.0`, which the run already holds.
//!
//! So the dense loop writes back exactly what the run holds. Its clip norm
//! adds `g·g = +0.0` once per element of the run. That fold starts at
//! `+0.0` and adds only squares (`>= +0.0` or NaN), so its accumulator is
//! never `-0.0` and `acc + (+0.0) = acc` bit for bit: dropping those terms
//! leaves every partial sum, and the order of the rest, unchanged. The test
//! is on bits, not `== 0.0`: a run holding `-0.0` keeps its moments and
//! weights too, but the dense loop clears its gradient to `+0.0`, so it must
//! be walked.
//!
//! # Tiny moments
//!
//! A run that goes idle keeps its moments and multiplies them by β every
//! step: after some 6 600 steps its `m` falls below the smallest normal
//! number, and every vector `mul` or `div` whose operand or result is
//! subnormal takes a microcode assist that costs far more than the
//! arithmetic. A lane is *tiny* when its `m` or `v` is non-zero with
//! `|x| <= 2⁻¹⁰⁰⁰`. The vector loop ORs that test over the moments it
//! writes, so each parameter knows whether its last update left a tiny
//! lane (moments change only there, and a run that goes live starts at
//! `+0.0`). Only then does the next update scan each span for the tiny
//! lanes, save their `(w, g, m, v)`, and let the vector loop read `+0.0`
//! for their moments (no assist; its results for those lanes are
//! discarded). Each saved lane is then recomputed from the saved values:
//!
//! * A *dormant* lane — gradient bits `+0.0`, `|m| <= 2⁻¹⁰⁰⁰`, a finite
//!   `w` with `|w| >= 2⁻⁸⁰⁰`, and `lr <= 2²⁰` — keeps `w`, and its moments
//!   decay as `β·x`, the product formed exactly in `u128` and rounded to
//!   nearest, ties to even (the hardware product's bits, without the
//!   assist). The `(1−β)·clip(g)` term is added in hardware only when that
//!   product is `±0`.
//! * Every other saved lane runs the plain formula, in the same expression
//!   as the vector loop.
//!
//! Why a dormant lane is bit-identical to the dense loop. Its clipped
//! gradient is `gc = (+0.0)·s = ±0.0` for the finite clip factor `s`, so
//! `(1−β₁)·gc` is `±0.0`, and `(1−β₂)·gc·gc` is `+0.0`. The dense loop's
//! new moment is `fl(β·x) + (±0.0)`: that is `fl(β·x)` itself when the
//! product is not zero, and the signed-zero sum the hardware computes
//! otherwise — exactly what the fix-up does. The dense step is
//! `Δ = lr·m̂/(√v̂ + ε)` with `m̂ = m/(1−β₁ᵗ)`, `1−β₁ᵗ >= fl(1−β₁) > 2⁻³·⁴`,
//! `√v̂ >= +0.0` (or `+∞`, which only shrinks `Δ`) and the new
//! `|m| <= 2⁻¹⁰⁰⁰`, so
//! `|Δ| <= lr·|m|/fl(1−β₁)/ε < 2²⁰·2⁻¹⁰⁰⁰·2³·⁴·2²⁶·⁶ < 2⁻⁹⁴⁸`, rounding
//! included. Half an ulp of a finite `|w| >= 2⁻⁸⁰⁰` is at least `2⁻⁸⁵⁴`
//! (`2⁻⁸⁰⁰⁻⁵⁴` below a power of two), so `w − Δ` rounds back to `w`. A
//! zero, tiny, infinite or NaN `w` is not dormant: there the step could
//! move it or change a NaN's bits, and the plain formula runs.
//!
//! The dense loop is kept in this module's tests as the oracle every step
//! is compared against, bit for bit.

use std::ops::Range;

use crate::param::Param;

/// Exponential decay of the first moment (β₁).
const BETA1: f64 = 0.9;
/// Exponential decay of the second moment (β₂).
const BETA2: f64 = 0.999;
/// Numerical-stability constant (ε).
const EPSILON: f64 = 1e-8;

/// The sign bit of an `f64`.
const SIGN: u64 = 1 << 63;
/// The bits of `2⁻¹⁰⁰⁰`: a non-zero moment at most this large is tiny.
const TINY: u64 = (1023 - 1000) << 52;
/// The bits of `2⁻⁸⁰⁰`: a dormant lane's weight is at least this large.
const WEIGHT_FLOOR: u64 = (1023 - 800) << 52;
/// `2²⁰`: a dormant lane's learning rate is at most this large.
const RATE_CEILING: f64 = 1_048_576.0;
/// The 52 stored fraction bits of an `f64`.
const FRACTION: u64 = (1 << 52) - 1;
/// The implicit leading bit of a normal `f64`'s significand.
const IMPLICIT: u64 = 1 << 52;

/// Adam optimizer state (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
///
/// The optimizer is created once for a fixed set of parameters and stepped
/// with the *same parameters in the same order* every time (the per-tensor
/// state is keyed by position).
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    learning_rate: f64,
    step: u64,
    state: Vec<Moments>,
}

/// One parameter's optimizer state, in the parameter's storage order.
#[derive(Debug, Clone, PartialEq)]
struct Moments {
    m: Vec<f64>,
    v: Vec<f64>,
    /// One flag per run: set once a gradient value in the run has had bits
    /// other than `+0.0`, never cleared.
    live: Vec<bool>,
    /// The live runs as maximal ranges of adjacent runs, ascending;
    /// rebuilt whenever a flag is set.
    spans: Vec<Range<usize>>,
    /// Whether the last update left a tiny `m` or `v` in some lane (a
    /// summary of its outputs; a run that goes live starts at `+0.0`).
    tiny: bool,
}

impl Moments {
    fn new(p: &Param) -> Self {
        Self {
            m: vec![0.0; p.len()],
            v: vec![0.0; p.len()],
            live: vec![false; runs(p)],
            spans: Vec::new(),
            tiny: false,
        }
    }

    /// Sets the flag of every run not yet live that holds a gradient value
    /// whose bits are not `+0.0`.
    fn mark_live(&mut self, p: &Param) {
        let grad = p.grad();
        if grad.is_empty() {
            return;
        }
        let mut woke = false;
        for (run, live) in grad.chunks_exact(p.rows).zip(&mut self.live) {
            if !*live && run.iter().fold(0, |bits, g| bits | g.to_bits()) != 0 {
                *live = true;
                woke = true;
            }
        }
        if woke {
            self.spans.clear();
            let mut start = None;
            for (run, &live) in self.live.iter().chain([&false]).enumerate() {
                match (start, live) {
                    (None, true) => start = Some(run),
                    (Some(first), false) => {
                        self.spans.push(first..run);
                        start = None;
                    }
                    _ => {}
                }
            }
        }
    }

    /// The squared gradient norm over the live runs, folded like
    /// [`Param::grad_norm_squared`]: logical order, row by row, from
    /// `+0.0`.
    fn norm_squared(&self, p: &Param) -> f64 {
        if self.spans.is_empty() {
            return 0.0;
        }
        let (grad, rows) = (p.grad(), p.rows);
        let mut acc = 0.0;
        for row in 0..rows {
            for span in &self.spans {
                for col in span.clone() {
                    let g = grad[col * rows + row];
                    acc += g * g;
                }
            }
        }
        acc
    }

    /// One Adam update of the live runs of `value` (`rows` values per run),
    /// reading each gradient element through `clip`, each first moment's
    /// bias correction through `unbias`, and clearing the gradient. When
    /// the last update left a tiny lane, the tiny lanes are set aside and
    /// recomputed after each span's vector loop (module docs, "Tiny
    /// moments").
    fn update(
        &mut self,
        value: &mut [f64],
        grad: &mut [f64],
        rows: usize,
        rates: (f64, f64),
        clip: impl Fn(f64) -> f64,
        unbias: impl Fn(f64) -> f64 + Copy,
    ) {
        let mut saved = Vec::new();
        let mut left_tiny = false;
        for span in &self.spans {
            let at = span.start * rows..span.end * rows;
            let (m, v) = (&mut self.m[at.clone()], &mut self.v[at.clone()]);
            let (value, grad) = (&mut value[at.clone()], &mut grad[at]);
            if self.tiny {
                for lane in 0..m.len() {
                    if tiny(m[lane]) || tiny(v[lane]) {
                        saved.push((lane, value[lane], grad[lane], m[lane], v[lane]));
                        (m[lane], v[lane]) = (0.0, 0.0);
                    }
                }
            }
            let weights = value.iter_mut().zip(grad.iter_mut());
            for ((w, g), (m, v)) in weights.zip(m.iter_mut().zip(v.iter_mut())) {
                adam_lane(w, clip(*g), m, v, rates, unbias);
                *g = 0.0;
                left_tiny |= tiny(*m) | tiny(*v);
            }
            for (lane, w, g, m_old, v_old) in saved.drain(..) {
                let g_clipped = clip(g);
                let dormant = g.to_bits() == 0
                    && m_old.to_bits() & !SIGN <= TINY
                    && w.is_finite()
                    && w.to_bits() & !SIGN >= WEIGHT_FLOOR
                    && rates.0 <= RATE_CEILING;
                (value[lane], m[lane], v[lane]) = (w, m_old, v_old);
                if dormant {
                    m[lane] = decay(BETA1, m_old, (1.0 - BETA1) * g_clipped);
                    v[lane] = decay(BETA2, v_old, (1.0 - BETA2) * g_clipped * g_clipped);
                } else {
                    adam_lane(
                        &mut value[lane],
                        g_clipped,
                        &mut m[lane],
                        &mut v[lane],
                        rates,
                        unbias,
                    );
                }
                left_tiny |= tiny(m[lane]) | tiny(v[lane]);
            }
        }
        self.tiny = left_tiny;
    }
}

/// One lane of the Adam arithmetic: both moments, then the weight.
#[inline(always)]
fn adam_lane(
    w: &mut f64,
    g_clipped: f64,
    m: &mut f64,
    v: &mut f64,
    (learning_rate, bias2): (f64, f64),
    unbias: impl Fn(f64) -> f64,
) {
    *m = BETA1 * *m + (1.0 - BETA1) * g_clipped;
    *v = BETA2 * *v + (1.0 - BETA2) * g_clipped * g_clipped;
    let m_hat = unbias(*m);
    let v_hat = *v / bias2;
    *w -= learning_rate * m_hat / (v_hat.sqrt() + EPSILON);
}

/// Whether `x` is non-zero with `|x| <= 2⁻¹⁰⁰⁰`.
#[inline(always)]
fn tiny(x: f64) -> bool {
    (x.to_bits() & !SIGN).wrapping_sub(1) < TINY
}

/// A dormant lane's new moment, `β·x + addend` with `addend` a signed
/// zero: the exact product's bits, and the hardware sum only when the
/// product is `±0`.
fn decay(beta: f64, x: f64, addend: f64) -> f64 {
    let product = scale_exactly(beta, x);
    if product == 0.0 {
        product + addend
    } else {
        product
    }
}

/// `beta · x` rounded to nearest, ties to even — the hardware product's
/// bits — from integer arithmetic, for a normal `beta` in `[2⁻⁶⁴, 1)` and a
/// finite `x`. Neither operand nor the result takes a subnormal assist.
fn scale_exactly(beta: f64, x: f64) -> f64 {
    debug_assert!(beta < 1.0 && beta >= 2f64.powi(-64) && x.is_finite());
    let (beta_bits, x_bits) = (beta.to_bits(), x.to_bits());
    let magnitude = x_bits & !SIGN;
    if magnitude == 0 {
        return x;
    }
    // x = significand · 2^exponent, with no implicit bit when subnormal.
    let (x_significand, x_exponent) = match (magnitude >> 52) as i32 {
        0 => (magnitude, -1074),
        biased => ((magnitude & FRACTION) | IMPLICIT, biased - 1075),
    };
    let beta_significand = (beta_bits & FRACTION) | IMPLICIT;
    let exponent = (beta_bits >> 52) as i32 - 1075 + x_exponent;
    let product = u128::from(beta_significand) * u128::from(x_significand);
    let length = 128 - product.leading_zeros() as i32;
    // Keep 53 significant bits, but none below 2⁻¹⁰⁷⁴; `length >= 53`
    // because `beta` is normal, so the shift is never negative.
    let shift = (length - 53).max(-1074 - exponent) as u32;
    let mut kept = (product >> shift) as u64;
    if shift > 0 {
        let rest = product & ((1u128 << shift) - 1);
        let half = 1u128 << (shift - 1);
        if rest > half || (rest == half && kept & 1 == 1) {
            kept += 1;
        }
    }
    let mut exponent = exponent + shift as i32;
    if kept == IMPLICIT << 1 {
        kept >>= 1;
        exponent += 1;
    }
    // A significand below 2⁵² only occurs at exponent -1074: subnormal.
    let bits = if kept >= IMPLICIT {
        (((exponent + 1075) as u64) << 52) | (kept & FRACTION)
    } else {
        kept
    };
    f64::from_bits((x_bits & SIGN) | bits)
}

/// Number of runs (input columns) of `p`; none for an empty parameter.
fn runs(p: &Param) -> usize {
    if p.is_empty() {
        0
    } else {
        p.cols
    }
}

impl Adam {
    /// Creates an Adam optimizer with learning rate `learning_rate`.
    ///
    /// # Panics
    ///
    /// Panics if [`Adam::try_new`] refuses the rate.
    pub fn new(learning_rate: f64) -> Self {
        Self::try_new(learning_rate).unwrap_or_else(|problem| panic!("{problem}"))
    }

    /// Like [`Adam::new`], but a refused rate becomes an error.
    ///
    /// # Errors
    ///
    /// Refuses a rate that is not finite and `>= +0.0` (`-0.0` is
    /// refused): the skip of never-live runs is bit-identical only for such
    /// a rate (module docs).
    pub fn try_new(learning_rate: f64) -> Result<Self, String> {
        if !(learning_rate.is_finite() && learning_rate.is_sign_positive()) {
            return Err(format!(
                "Adam learning rate must be finite and >= +0.0, got {learning_rate}"
            ));
        }
        Ok(Self {
            learning_rate,
            step: 0,
            state: Vec::new(),
        })
    }

    /// Number of update steps taken so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Applies one Adam update to the parameters, consuming their gradients
    /// (gradients are cleared afterwards).
    ///
    /// # Panics
    ///
    /// Panics if the number of parameters or a parameter's shape changes
    /// between calls.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        self.mark_live(params);
        self.apply(params, None);
    }

    /// Clips the global gradient norm of `params` to `max_norm` and applies
    /// one Adam update with the clipped gradients, consuming them. Returns
    /// the norm before clipping.
    ///
    /// # Panics
    ///
    /// As [`Adam::step`].
    pub fn clip_and_step(&mut self, params: &mut [&mut Param], max_norm: f64) -> f64 {
        self.mark_live(params);
        let norm = params
            .iter()
            .zip(&self.state)
            .map(|(p, state)| state.norm_squared(p))
            .sum::<f64>()
            .sqrt();
        let scale = (norm > max_norm && norm > 0.0).then(|| max_norm / norm);
        self.apply(params, scale);
        norm
    }

    /// Allocates the state on the first call, checks the parameter set
    /// against it, and flags the runs that went live.
    fn mark_live(&mut self, params: &[&mut Param]) {
        if self.state.is_empty() {
            self.state = params.iter().map(|p| Moments::new(p)).collect();
        }
        assert_eq!(
            self.state.len(),
            params.len(),
            "parameter set changed between optimizer steps"
        );
        for (p, state) in params.iter().zip(&mut self.state) {
            assert_eq!(
                (state.m.len(), state.live.len()),
                (p.len(), runs(p)),
                "parameter shape changed"
            );
            state.mark_live(p);
        }
    }

    /// One update over the live runs, each gradient element multiplied by
    /// `scale` first if there is one. Once `1−β₁ᵗ` rounds to exactly `1.0`
    /// (from step 356 on) the first moment's division by it is skipped:
    /// `m / 1.0` is `m`, bit for bit, for every value a moment can hold
    /// (arithmetic never yields a signalling NaN).
    fn apply(&mut self, params: &mut [&mut Param], scale: Option<f64>) {
        self.step += 1;
        let t = self.step as f64;
        let bias1 = 1.0 - BETA1.powf(t);
        let rates = (self.learning_rate, 1.0 - BETA2.powf(t));
        let biased = bias1 != 1.0;
        for (p, state) in params.iter_mut().zip(&mut self.state) {
            if state.spans.is_empty() {
                continue;
            }
            let rows = p.rows;
            // Resolved once per parameter: the value accessor un-shares the
            // weights, which must not be paid per element.
            let (value, grad) = p.value_and_grad_mut();
            match scale {
                Some(s) if biased => {
                    state.update(value, grad, rows, rates, |g| g * s, |m| m / bias1)
                }
                Some(s) => state.update(value, grad, rows, rates, |g| g * s, |m| m),
                None if biased => state.update(value, grad, rows, rates, |g| g, |m| m / bias1),
                None => state.update(value, grad, rows, rates, |g| g, |m| m),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The dense loop: every element of every parameter, every step — what
    /// `Adam` computed before it walked live runs only.
    #[derive(Default)]
    struct Reference {
        step: u64,
        m: Vec<Vec<f64>>,
        v: Vec<Vec<f64>>,
    }

    impl Reference {
        fn step(&mut self, params: &mut [&mut Param], learning_rate: f64) {
            if self.m.is_empty() {
                self.m = params.iter().map(|p| vec![0.0; p.len()]).collect();
                self.v = params.iter().map(|p| vec![0.0; p.len()]).collect();
            }
            self.step += 1;
            let t = self.step as f64;
            let bias1 = 1.0 - BETA1.powf(t);
            let bias2 = 1.0 - BETA2.powf(t);
            for (idx, p) in params.iter_mut().enumerate() {
                let (value, grad) = p.value_and_grad_mut();
                let moments = self.m[idx].iter_mut().zip(&mut self.v[idx]);
                for ((w, g), (m, v)) in value.iter_mut().zip(grad).zip(moments) {
                    *m = BETA1 * *m + (1.0 - BETA1) * *g;
                    *v = BETA2 * *v + (1.0 - BETA2) * *g * *g;
                    let m_hat = *m / bias1;
                    let v_hat = *v / bias2;
                    *w -= learning_rate * m_hat / (v_hat.sqrt() + EPSILON);
                    *g = 0.0;
                }
            }
        }
    }

    /// The dense clip: the norm over every element, then every element
    /// scaled (a never-materialised gradient stays so).
    fn clip_grad_norm(params: &mut [&mut Param], max_norm: f64) -> f64 {
        let norm: f64 = params
            .iter()
            .map(|p| p.grad_norm_squared())
            .sum::<f64>()
            .sqrt();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for p in params.iter_mut().filter(|p| !p.grad().is_empty()) {
                p.grad_mut().iter_mut().for_each(|g| *g *= scale);
            }
        }
        norm
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The gradient's bits, a never-materialised one read as its `+0.0`s.
    fn grad_bits(p: &Param) -> Vec<u64> {
        match p.grad() {
            [] => vec![0; p.len()],
            grad => bits(grad),
        }
    }

    #[test]
    fn adam_minimizes_a_quadratic() {
        // Minimize f(x) = (x - 3)^2 with Adam.
        let mut x = Param::zeros(1, 1);
        let mut adam = Adam::new(0.1);
        for _ in 0..500 {
            let grad = 2.0 * (x.value()[0] - 3.0);
            x.grad_mut()[0] = grad;
            adam.step(&mut [&mut x]);
        }
        assert!((x.value()[0] - 3.0).abs() < 1e-2, "x = {}", x.value()[0]);
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn adam_handles_multiple_parameters() {
        let mut a = Param::zeros(2, 1);
        let mut b = Param::zeros(1, 1);
        let mut adam = Adam::new(0.05);
        for _ in 0..800 {
            // f = (a0 - 1)^2 + (a1 + 2)^2 + (b - 0.5)^2
            a.grad_mut()[0] = 2.0 * (a.value()[0] - 1.0);
            a.grad_mut()[1] = 2.0 * (a.value()[1] + 2.0);
            b.grad_mut()[0] = 2.0 * (b.value()[0] - 0.5);
            adam.step(&mut [&mut a, &mut b]);
        }
        assert!((a.value()[0] - 1.0).abs() < 0.05);
        assert!((a.value()[1] + 2.0).abs() < 0.05);
        assert!((b.value()[0] - 0.5).abs() < 0.05);
    }

    #[test]
    fn step_clears_gradients() {
        for clip in [None, Some(1e-3)] {
            let mut x = Param::zeros(1, 2);
            x.grad_mut().copy_from_slice(&[1.0, -0.0]);
            let mut adam = Adam::new(0.01);
            if let Some(max_norm) = clip {
                adam.clip_and_step(&mut [&mut x], max_norm);
            } else {
                adam.step(&mut [&mut x]);
            }
            assert_eq!(bits(x.grad()), [0, 0], "clip {clip:?}");
        }
    }

    #[test]
    fn clip_and_step_scales_large_gradients() {
        // The first Adam step moves each weight by lr * g / (|g| + ε): with
        // the gradient scaled to norm 1, the moment reads the scaled value.
        let mut a = Param::zeros(1, 2);
        a.grad_mut().copy_from_slice(&[3.0, 4.0]);
        let mut adam = Adam::new(0.1);
        let norm = adam.clip_and_step(&mut [&mut a], 1.0);
        assert!((norm - 5.0).abs() < 1e-12);
        let m = &adam.state[0].m;
        assert!((m[0] - 0.1 * 0.6).abs() < 1e-12 && (m[1] - 0.1 * 0.8).abs() < 1e-12);
        assert!(a.value().iter().all(|w| (w + 0.1).abs() < 1e-6));
    }

    #[test]
    fn clip_and_step_leaves_small_gradients_alone() {
        let mut a = Param::zeros(1, 2);
        a.grad_mut().copy_from_slice(&[0.1, 0.2]);
        let mut clipped = Adam::new(0.01);
        let norm = clipped.clip_and_step(&mut [&mut a], 10.0);
        assert_eq!(norm.to_bits(), (0.1f64 * 0.1 + 0.2 * 0.2).sqrt().to_bits());
        let mut b = Param::zeros(1, 2);
        b.grad_mut().copy_from_slice(&[0.1, 0.2]);
        let mut plain = Adam::new(0.01);
        plain.step(&mut [&mut b]);
        assert_eq!(bits(a.value()), bits(b.value()));
        assert_eq!(clipped, plain);
    }

    #[test]
    #[should_panic(expected = "parameter set changed")]
    fn changing_parameter_count_panics() {
        let mut a = Param::zeros(1, 1);
        let mut b = Param::zeros(1, 1);
        let mut adam = Adam::new(0.01);
        adam.step(&mut [&mut a]);
        adam.step(&mut [&mut a, &mut b]);
    }

    #[test]
    fn a_rate_that_breaks_the_proof_is_refused() {
        for rate in [f64::NAN, f64::INFINITY, -1e-3, -0.0] {
            assert!(Adam::try_new(rate).is_err(), "rate {rate}");
        }
        assert!(std::panic::catch_unwind(|| Adam::new(-1e-3)).is_err());
        assert_eq!(Adam::new(0.0).steps(), 0);
    }

    /// How one input column's gradient behaves over a run of steps.
    #[derive(Debug, Clone, Copy)]
    enum Column {
        /// `+0.0` on every step.
        Dead,
        /// `+0.0` until the given step, random after.
        Late(usize),
        /// `-0.0` on every step.
        NegativeZero,
        /// Random on every step, zeros of both signs included.
        Live,
    }

    /// Steps per case.
    const STEPS: usize = 24;

    /// One parameter of a case: its rows, its columns' behaviour, and
    /// whether its gradient is never written at all. Shapes are `n x 1`,
    /// `1 x n` or general, in equal shares.
    struct Spec {
        rows: usize,
        columns: Vec<Column>,
        unwritten: bool,
    }

    fn spec(rng: &mut ChaCha8Rng) -> Spec {
        let (rows, cols) = match rng.gen_range(0..3) {
            0 => (rng.gen_range(1..6), 1),
            1 => (1, rng.gen_range(1..9)),
            _ => (rng.gen_range(1..6), rng.gen_range(1..9)),
        };
        let columns = (0..cols)
            .map(|_| match rng.gen_range(0..8) {
                0..=2 => Column::Dead,
                3 | 4 => Column::Late(rng.gen_range(0..STEPS)),
                5 => Column::NegativeZero,
                _ => Column::Live,
            })
            .collect();
        Spec {
            rows,
            columns,
            unwritten: rng.gen_range(0..6) == 0,
        }
    }

    /// Writes step `step`'s gradient of `spec` into `p`.
    fn write_gradient(p: &mut Param, spec: &Spec, step: usize, rng: &mut ChaCha8Rng) {
        let rows = spec.rows;
        let grad = p.grad_mut();
        for (c, kind) in spec.columns.iter().enumerate() {
            for slot in &mut grad[c * rows..(c + 1) * rows] {
                let random = match rng.gen_range(0..8) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-3.0..3.0),
                };
                *slot = match *kind {
                    Column::Dead => 0.0,
                    Column::Late(from) if step < from => 0.0,
                    Column::NegativeZero => -0.0,
                    Column::Late(_) | Column::Live => random,
                };
            }
        }
    }

    #[test]
    fn scale_exactly_is_the_hardware_product() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let min_normal = f64::MIN_POSITIVE.to_bits();
        let mut inputs: Vec<u64> =
            vec![0, 1, 2, 3, 5, 7, FRACTION - 1, FRACTION, TINY, WEIGHT_FLOOR];
        // Both sides of the subnormal boundary and of 2⁻¹⁰⁰⁰.
        for centre in [min_normal, TINY] {
            inputs.extend((centre - 4)..=(centre + 4));
        }
        inputs.extend((0..4096).map(|_| rng.gen_range(1..min_normal)));
        inputs.extend((0..4096).map(|_| rng.gen_range(1..TINY + 1)));
        inputs.extend((0..4096).map(|_| rng.gen_range(1..f64::MAX.to_bits())));
        // `0.5` and `0.75` halve an odd subnormal significand: exact ties.
        let betas = [
            BETA1,
            BETA2,
            0.5,
            0.75,
            1.0 - f64::EPSILON / 2.0,
            2f64.powi(-64),
        ];
        let mut ties = 0;
        for &beta in &betas {
            for &magnitude in &inputs {
                for x in [f64::from_bits(magnitude), -f64::from_bits(magnitude)] {
                    let hardware = beta * x;
                    assert_eq!(
                        scale_exactly(beta, x).to_bits(),
                        hardware.to_bits(),
                        "{beta:e} * {x:e}"
                    );
                    ties +=
                        usize::from(beta == 0.5 && magnitude < min_normal && magnitude & 1 == 1);
                    for addend in [0.0, -0.0] {
                        let dense = beta * x + addend;
                        assert_eq!(
                            decay(beta, x, addend).to_bits(),
                            dense.to_bits(),
                            "{beta:e} * {x:e} + {addend}"
                        );
                    }
                }
            }
        }
        assert!(ties > 1000, "{ties} ties");
    }

    /// How one column of the long oracle run behaves.
    #[derive(Debug, Clone, Copy)]
    enum Phase {
        /// Random gradients until the given step, `+0.0` after.
        LiveUntil(usize),
        /// `±1e-156` gradients until the given step, `+0.0` after: the
        /// second moment is subnormal at once, also when clipped.
        FaintUntil(usize),
        /// Random gradients before the first step given and from the
        /// second on, `+0.0` between.
        Pause(usize, usize),
        /// `+0.0` on every step.
        Dead,
    }

    /// Steps of the long oracle run: past the ~6 600 steps after which an
    /// idle first moment turns subnormal, and the ~500 more after which it
    /// decays to zero.
    const LONG_STEPS: usize = 8_200;

    #[test]
    fn idle_moments_through_the_subnormal_range_equal_the_dense_loop() {
        use Phase::*;
        let columns = [
            [
                LiveUntil(LONG_STEPS),
                LiveUntil(40),
                LiveUntil(300),
                FaintUntil(20),
            ],
            [Pause(10, 7_400), LiveUntil(5), Dead, FaintUntil(1)],
        ];
        // Weights overwritten at a step, as (step, (parameter, column),
        // weight): a faint column's, small enough for its normal first
        // moment to move it while the second is subnormal; then, once the
        // idle columns' moments are tiny, a zero weight, one below the
        // dormancy floor and one just above it.
        let overwrites = [
            (100, (0, 3), 1e-200),
            (7_000, (0, 1), 0.0),
            (7_000, (1, 1), 1e-250),
            (7_000, (0, 2), 2f64.powi(-799)),
        ];
        for max_norm in [None, Some(0.5), Some(-1.0)] {
            let mut rng = ChaCha8Rng::seed_from_u64(8);
            let mut params: Vec<Param> = (0..2).map(|_| Param::xavier(3, 4, &mut rng)).collect();
            let mut dense = params.clone();
            let (mut fused_adam, mut dense_adam) = (Adam::new(0.01), Reference::default());
            let (mut tiny_m, mut tiny_v, mut zeroed_m) = (0usize, 0usize, 0usize);
            for step in 0..LONG_STEPS {
                for (p, phases) in params.iter_mut().zip(&columns) {
                    let grad = p.grad_mut();
                    for (c, phase) in phases.iter().enumerate() {
                        for slot in &mut grad[c * 3..(c + 1) * 3] {
                            let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                            *slot = match *phase {
                                LiveUntil(end) if step < end => rng.gen_range(-3.0..3.0),
                                FaintUntil(end) if step < end => sign * 1e-156,
                                Pause(from, to) if step < from || step >= to => {
                                    rng.gen_range(-3.0..3.0)
                                }
                                _ => 0.0,
                            };
                        }
                    }
                }
                for &(_, (idx, col), w) in overwrites.iter().filter(|o| o.0 == step) {
                    for p in [&mut params[idx], &mut dense[idx]] {
                        p.value_mut()[col * 3] = w;
                    }
                }
                for (d, p) in dense.iter_mut().zip(&params) {
                    d.grad_mut().copy_from_slice(p.grad());
                }
                let mut fused_set: Vec<&mut Param> = params.iter_mut().collect();
                let mut dense_set: Vec<&mut Param> = dense.iter_mut().collect();
                let (norm, dense_norm) = match max_norm {
                    Some(bound) => (
                        fused_adam.clip_and_step(&mut fused_set, bound),
                        clip_grad_norm(&mut dense_set, bound),
                    ),
                    None => {
                        fused_adam.step(&mut fused_set);
                        (0.0, 0.0)
                    }
                };
                dense_adam.step(&mut dense_set, 0.01);
                assert_eq!(norm.to_bits(), dense_norm.to_bits(), "norm at step {step}");
                for (idx, (p, d)) in params.iter().zip(&dense).enumerate() {
                    let state = &fused_adam.state[idx];
                    let case = format!("parameter {idx} at step {step}, clip {max_norm:?}");
                    assert_eq!(bits(p.value()), bits(d.value()), "weights of {case}");
                    assert_eq!(bits(&state.m), bits(&dense_adam.m[idx]), "m of {case}");
                    assert_eq!(bits(&state.v), bits(&dense_adam.v[idx]), "v of {case}");
                    let tiny_lanes = state.m.iter().chain(&state.v).filter(|x| tiny(**x)).count();
                    // The summary the next update reads: a tiny lane the
                    // flag missed would take the slow vector loop.
                    assert!(
                        state.tiny || tiny_lanes == 0,
                        "unflagged tiny lane in {case}"
                    );
                    tiny_m += state.m.iter().filter(|m| tiny(**m)).count();
                    tiny_v += state.v.iter().filter(|v| tiny(**v)).count();
                    if step + 1 == LONG_STEPS {
                        zeroed_m += state.m.iter().filter(|m| **m == 0.0).count();
                    }
                }
            }
            // The run reached every branch: tiny first and second moments,
            // and first moments that decayed all the way to zero.
            assert!(
                tiny_m > 1_000 && tiny_v > 1_000,
                "{tiny_m} tiny m, {tiny_v} tiny v"
            );
            assert!(zeroed_m >= 3, "{zeroed_m} first moments reached zero");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `step` and `clip_and_step` equal the dense loop bit for bit after
        /// every step — weights, both moments, gradients, the returned norm
        /// and the step count — over columns that stay `+0.0`, go live
        /// late, hold only `-0.0` or are live throughout, gradients never
        /// materialised, a NaN or infinity in some cases, and bounds that
        /// clip, do not clip, or (negative) flip the scale's sign.
        #[test]
        fn fused_steps_equal_the_dense_loop_bit_for_bit(
            seed in 0u64..1 << 32,
            count in 1usize..5,
            bound in 0usize..6,
            poison in 0usize..4,
        ) {
            let max_norm = [None, Some(1e-3), Some(0.5), Some(1e6), Some(f64::INFINITY), Some(-1.0)][bound];
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let set: Vec<Spec> = (0..count).map(|_| spec(&mut rng)).collect();
            let mut params: Vec<Param> = set
                .iter()
                .map(|spec| Param::xavier(spec.rows, spec.columns.len(), &mut rng))
                .collect();
            let mut dense = params.clone();
            let (mut fused_adam, mut dense_adam) = (Adam::new(0.01), Reference::default());
            // In half the cases one element is poisoned once: NaN or infinity.
            let poisoned = (poison > 1).then(|| (rng.gen_range(0..count), rng.gen_range(0..STEPS)));
            for step in 0..STEPS {
                for (idx, (spec, p)) in set.iter().zip(&mut params).enumerate() {
                    if spec.unwritten {
                        continue;
                    }
                    write_gradient(p, spec, step, &mut rng);
                    if poisoned == Some((idx, step)) {
                        p.grad_mut()[0] = if poison == 2 { f64::NAN } else { f64::INFINITY };
                    }
                }
                for (d, p) in dense.iter_mut().zip(&params) {
                    if !p.grad().is_empty() {
                        d.grad_mut().copy_from_slice(p.grad());
                    }
                }
                let mut fused_set: Vec<&mut Param> = params.iter_mut().collect();
                let mut dense_set: Vec<&mut Param> = dense.iter_mut().collect();
                let (norm, dense_norm) = match max_norm {
                    Some(bound) => (
                        fused_adam.clip_and_step(&mut fused_set, bound),
                        clip_grad_norm(&mut dense_set, bound),
                    ),
                    None => {
                        fused_adam.step(&mut fused_set);
                        (0.0, 0.0)
                    }
                };
                dense_adam.step(&mut dense_set, 0.01);
                prop_assert_eq!(norm.to_bits(), dense_norm.to_bits(), "norm at step {}", step);
                prop_assert_eq!(fused_adam.steps(), dense_adam.step);
                for (idx, (p, d)) in params.iter().zip(&dense).enumerate() {
                    let state = &fused_adam.state[idx];
                    prop_assert_eq!(bits(p.value()), bits(d.value()), "weights {} at step {}", idx, step);
                    prop_assert_eq!(bits(&state.m), bits(&dense_adam.m[idx]), "m {} at step {}", idx, step);
                    prop_assert_eq!(bits(&state.v), bits(&dense_adam.v[idx]), "v {} at step {}", idx, step);
                    prop_assert_eq!(grad_bits(p), grad_bits(d), "gradient {} at step {}", idx, step);
                    if set[idx].unwritten {
                        prop_assert!(p.grad().is_empty(), "an unwritten gradient stays unmaterialised");
                    }
                }
            }
        }
    }
}
