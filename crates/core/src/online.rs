//! Online normalizer calculation for softmax (Milakov & Gimelshein, 2018),
//! plus the Softermax modification that makes it hardware-friendly.
//!
//! The classic numerically-stable softmax needs an extra pass over the
//! input just to find the maximum. The online algorithm fuses that pass
//! into the exponential/summation pass by keeping a *running* maximum `m`
//! and running sum `d`; whenever a new maximum appears, the sum accumulated
//! so far is renormalized by `b^(m_old - m_new)`:
//!
//! ```text
//! m_new = max(m, x_i)
//! d     = d * b^(m - m_new) + b^(x_i - m_new)
//! ```
//!
//! Softermax's co-design tweak ([`OnlineNormalizer::with_integer_max`])
//! replaces `max` with an *integer* max (`max(m, ceil(x_i))`), so with base
//! `b = 2` the renormalization factor `2^(m_old - m_new)` always has an
//! integer exponent and the multiply becomes a bare shift in hardware.
//!
//! This module is the full-precision (`f64`) model of those recurrences;
//! the bit-accurate fixed-point pipeline lives in [`crate::softermax`].
//!
//! [`OnlineNormalizer`] is the scalar oracle: its division pass evaluates
//! every term `b^(x_i - m)` a second time. The kernels' fast paths keep
//! each first-pass term instead, as the paper's hardware keeps its
//! unnormed exponentials, and reuse it from the last strict raise of the
//! running max on. Reuse is exact, not approximate: the max does not
//! change after its last raise, so those first-pass terms were computed
//! from the very operands `x_i` and `m` the second pass would use, and
//! the same `f64` operations on the same operands give the same bits.
//! Terms before the last raise were taken against a smaller max and are
//! recomputed. An input whose max settles early thus costs one `exp` per
//! element instead of two.
//!
//! The fast paths also test for a raise before they compute the
//! candidate: `x > m` instead of the oracle's `max(m, c) > m`, where `c`
//! is `x`, or `ceil(x)` under the integer max. The two tests agree on
//! every input. Under the float max `c = x`, and `f64::max` skips a NaN
//! `x`, which fails `x > m` too. Under the integer max the running max is
//! always an integer or `±∞`, since it starts at `-∞` and only ever
//! becomes a `ceil`. For such an `m`, `ceil(x) > m` holds exactly when
//! `x > m`: `ceil(x) ≥ x`, and `ceil(x)` is the least integer at or above
//! `x`, so `x ≤ m` gives `ceil(x) ≤ m`. The running max is only written
//! on a strict raise, so a `±0` tie leaves it as it was in both. The libm
//! `ceil` thus runs once per raise instead of once per element, and the
//! running max is no longer carried through a NaN-aware `max` from one
//! element to the next.

use crate::{Result, SoftmaxError};

/// Running state of the online softmax normalizer.
///
/// Feed values with [`push`](Self::push) (or slices with
/// [`extend`](Self::extend)); read the running maximum and normalizer at any
/// time; call [`finalize`](Self::finalize) against the stored inputs to
/// produce probabilities in a single extra pass.
///
/// # Example
///
/// ```
/// use softermax::online::OnlineNormalizer;
///
/// let x = [2.0, 1.0, 3.0];
/// let mut norm = OnlineNormalizer::base2();
/// norm.extend(x.iter().copied());
/// // The worked example from the paper: d = 2^-1 + 2^-2 + 2^0 = 1.75.
/// assert_eq!(norm.normalizer(), 1.75);
/// assert_eq!(norm.running_max(), 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct OnlineNormalizer {
    base: f64,
    ln_base: f64,
    integer_max: bool,
    running_max: f64,
    normalizer: f64,
    count: usize,
}

impl OnlineNormalizer {
    /// Creates an online normalizer for base-*e* softmax (the original
    /// Milakov–Gimelshein formulation).
    #[must_use]
    pub fn new() -> Self {
        Self::with_base(std::f64::consts::E)
    }

    /// Creates an online normalizer for base-2 softmax.
    #[must_use]
    pub fn base2() -> Self {
        Self::with_base(2.0)
    }

    /// Creates an online normalizer with an arbitrary base `b > 1`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not a finite number greater than 1.
    #[must_use]
    pub fn with_base(b: f64) -> Self {
        assert!(b.is_finite() && b > 1.0, "base must be finite and > 1");
        Self {
            base: b,
            ln_base: b.ln(),
            integer_max: false,
            running_max: f64::NEG_INFINITY,
            normalizer: 0.0,
            count: 0,
        }
    }

    /// Switches the running max to the Softermax *integer* max: the running
    /// maximum only ever takes values `ceil(x_i)`, so every renormalization
    /// exponent is an integer (a shift, in base-2 hardware).
    #[must_use]
    pub fn with_integer_max(mut self) -> Self {
        self.integer_max = true;
        self
    }

    /// The softmax base this normalizer uses.
    #[must_use]
    pub fn base(&self) -> f64 {
        self.base
    }

    /// The current running maximum (`-inf` before any value is pushed).
    #[must_use]
    pub fn running_max(&self) -> f64 {
        self.running_max
    }

    /// The current normalizer `d = Σ b^(x_i - running_max)`.
    #[must_use]
    pub fn normalizer(&self) -> f64 {
        self.normalizer
    }

    /// Number of values absorbed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether any value has been absorbed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn pow(&self, e: f64) -> f64 {
        (e * self.ln_base).exp()
    }

    /// Absorbs one value, updating the running max and renormalizing the
    /// running sum if the max changed.
    pub fn push(&mut self, x: f64) {
        let candidate = if self.integer_max { x.ceil() } else { x };
        let new_max = self.running_max.max(candidate);
        // b^(m_old - m_new) is 1.0 when the max is unchanged; the explicit
        // branch also handles the initial -inf max without producing NaN.
        if new_max > self.running_max {
            if self.running_max.is_finite() {
                self.normalizer *= self.pow(self.running_max - new_max);
            }
            self.running_max = new_max;
        }
        let term = self.pow(x - self.running_max);
        // When the sum and the term are both NaN, which of the two an add
        // returns depends on the operand order code generation picks; the
        // select returns the term's, whatever the order.
        self.normalizer = if term.is_nan() {
            term
        } else {
            self.normalizer + term
        };
        self.count += 1;
    }

    /// Absorbs a sequence of values.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.push(v);
        }
    }

    /// Merges another normalizer into this one (the Reduction-unit step:
    /// combine a slice-local max/sum pair with the running row state).
    ///
    /// Both sides must use the same base and max mode.
    ///
    /// # Panics
    ///
    /// Panics if bases or max modes differ.
    pub fn merge(&mut self, other: &OnlineNormalizer) {
        assert_eq!(self.base, other.base, "cannot merge different bases");
        assert_eq!(
            self.integer_max, other.integer_max,
            "cannot merge different max modes"
        );
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let new_max = self.running_max.max(other.running_max);
        let own = self.normalizer * self.pow(self.running_max - new_max);
        let later = other.normalizer * self.pow(other.running_max - new_max);
        // As in `push`: a NaN from the later values wins, whatever operand
        // order code generation picks for the add.
        self.normalizer = if later.is_nan() { later } else { own + later };
        self.running_max = new_max;
        self.count += other.count;
    }

    /// Produces the final probabilities for the values that built this
    /// normalizer (a second pass over the caller-retained inputs).
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::EmptyInput`] when no value was pushed, or
    /// when `x` is inconsistent with the number of pushed values.
    pub fn finalize(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; x.len()];
        self.finalize_into(x, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`finalize`](Self::finalize): writes the
    /// probabilities into the caller-provided buffer.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::EmptyInput`] when no value was pushed or
    /// when `x` is inconsistent with the number of pushed values.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != x.len()`.
    pub fn finalize_into(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        assert_eq!(out.len(), x.len(), "output buffer length mismatch");
        if self.count == 0 || x.len() != self.count {
            return Err(SoftmaxError::EmptyInput);
        }
        for (o, &v) in out.iter_mut().zip(x) {
            *o = self.pow(v - self.running_max) / self.normalizer;
        }
        Ok(())
    }
}

impl Default for OnlineNormalizer {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-row state of the online kernels' fast paths (`forward_into`, and
/// through it `forward_batch_into`, and the streaming session): the
/// recurrence of [`OnlineNormalizer`], plus the index of the last max
/// raise, so the division pass can reuse the terms of the first pass.
///
/// [`push`](Self::push) performs exactly [`OnlineNormalizer::push`]'s
/// operations and returns the term `b^(x_i - m_i)`, where `m_i` is the
/// running max after element `i`; the caller keeps the terms. The running
/// max changes only at a strict raise, so every term from the last raise
/// on was computed against the final max `m`, from the same operands the
/// division pass of [`OnlineNormalizer::finalize_into`] uses.
/// [`finish_in_place`](Self::finish_in_place) therefore divides those
/// terms and recomputes `b^(x_i - m)` only before the last raise: the
/// result is bit-identical with `push` + `finalize_into`, NaN, signed
/// zeros and infinities included, with one `exp` per element instead of
/// two once the max has settled.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OnlineRow {
    ln_base: f64,
    integer_max: bool,
    running_max: f64,
    normalizer: f64,
    count: usize,
    last_raise: usize,
}

impl OnlineRow {
    /// A fresh row for base `b` (validated by the kernel constructors),
    /// with the integer max when `integer_max` is set.
    pub(crate) fn new(base: f64, integer_max: bool) -> Self {
        Self {
            ln_base: base.ln(),
            integer_max,
            running_max: f64::NEG_INFINITY,
            normalizer: 0.0,
            count: 0,
            last_raise: 0,
        }
    }

    /// Clears the running state for a new row.
    pub(crate) fn reset(&mut self) {
        *self = Self {
            running_max: f64::NEG_INFINITY,
            normalizer: 0.0,
            count: 0,
            last_raise: 0,
            ..*self
        };
    }

    /// Pass 1 for the next element of the row: advances the running max
    /// and normalizer exactly as [`OnlineNormalizer::push`] does and
    /// returns the element's term `b^(x - m)` against the updated max.
    #[inline]
    pub(crate) fn push(&mut self, x: f64) -> f64 {
        let ln_b = self.ln_base;
        // `x > m` is exactly the oracle's `max(m, candidate) > m` (see the
        // module docs), so the candidate is taken only on a raise.
        if x > self.running_max {
            let new_max = if self.integer_max { x.ceil() } else { x };
            if self.running_max.is_finite() {
                self.normalizer *= ((self.running_max - new_max) * ln_b).exp();
            }
            self.running_max = new_max;
            self.last_raise = self.count;
        }
        let term = ((x - self.running_max) * ln_b).exp();
        // The same select as the oracle's: when the sum and the term are
        // both NaN, the term's NaN wins whatever the operand order (the
        // golden online checksum pins it).
        self.normalizer = if term.is_nan() {
            term
        } else {
            self.normalizer + term
        };
        self.count += 1;
        term
    }

    /// Pass 2: turns the terms [`push`](Self::push) returned, in order in
    /// `out`, into probabilities, given the whole row `xs`.
    ///
    /// # Errors
    ///
    /// Returns [`SoftmaxError::EmptyInput`] when no element was pushed or
    /// `xs` is not the pushed row's length, like
    /// [`OnlineNormalizer::finalize_into`].
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != xs.len()`.
    #[inline]
    pub(crate) fn finish_in_place(&self, xs: &[f64], out: &mut [f64]) -> Result<()> {
        assert_eq!(out.len(), xs.len(), "output buffer length mismatch");
        if self.count == 0 || xs.len() != self.count {
            return Err(SoftmaxError::EmptyInput);
        }
        let (m, d) = (self.running_max, self.normalizer);
        let (before, after) = out.split_at_mut(self.last_raise);
        for (o, &x) in before.iter_mut().zip(xs) {
            *o = ((x - m) * self.ln_base).exp() / d;
        }
        for o in after {
            *o /= d;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    /// One-shot softmax through `n`: one pass for max and normalizer,
    /// one more for the division.
    fn online_softmax_with(mut n: OnlineNormalizer, x: &[f64]) -> Result<Vec<f64>> {
        n.extend(x.iter().copied());
        n.finalize(x)
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn paper_worked_example() {
        // Processing [2, 1, 3] in base 2 (paper §III-C): after the first two
        // elements d = 1.5 with max 2; the new max 3 renormalizes to
        // d = 1.5 * 2^-1 + 2^0 = 1.75.
        let mut n = OnlineNormalizer::base2();
        n.push(2.0);
        assert_eq!(n.normalizer(), 1.0);
        n.push(1.0);
        assert_eq!(n.normalizer(), 1.5);
        n.push(3.0);
        assert_eq!(n.normalizer(), 1.75);
        assert_eq!(n.running_max(), 3.0);
    }

    #[test]
    fn online_matches_three_pass_base_e() {
        let x = [0.4, -2.0, 1.7, 1.69, -0.1, 3.3];
        assert_close(
            &online_softmax_with(OnlineNormalizer::new(), &x).unwrap(),
            &reference::softmax(&x).unwrap(),
            1e-12,
        );
    }

    #[test]
    fn online_matches_three_pass_base_2() {
        let x = [5.0, 4.0, -31.0, 0.0, 4.99];
        assert_close(
            &online_softmax_with(OnlineNormalizer::base2(), &x).unwrap(),
            &reference::softmax_base2(&x).unwrap(),
            1e-12,
        );
    }

    #[test]
    fn integer_max_does_not_change_the_distribution() {
        let x = [0.3, -1.2, 4.6, 0.2, 2.9];
        assert_close(
            &online_softmax_with(OnlineNormalizer::base2().with_integer_max(), &x).unwrap(),
            &reference::softmax_base2(&x).unwrap(),
            1e-12,
        );
    }

    #[test]
    fn integer_max_keeps_renorm_exponent_integral() {
        // With integer max, the running max is always integral, so
        // (old - new) is always an integer — the shifter guarantee.
        let mut n = OnlineNormalizer::base2().with_integer_max();
        for &v in &[0.25, -3.75, 2.5, 2.75, 7.25] {
            n.push(v);
            assert_eq!(n.running_max().fract(), 0.0);
        }
    }

    #[test]
    fn descending_input_never_renormalizes() {
        let mut n = OnlineNormalizer::base2();
        n.push(5.0);
        let d1 = n.normalizer();
        n.push(4.0);
        // No new max: old contribution unchanged.
        assert_eq!(n.normalizer(), d1 + 2f64.powf(-1.0));
    }

    #[test]
    fn merge_equals_sequential() {
        let x = [0.1, 3.0, -2.0, 7.5, 7.4, 0.0, 1.0, 2.0];
        let mut seq = OnlineNormalizer::base2();
        seq.extend(x.iter().copied());

        let mut left = OnlineNormalizer::base2();
        left.extend(x[..3].iter().copied());
        let mut right = OnlineNormalizer::base2();
        right.extend(x[3..].iter().copied());
        left.merge(&right);

        assert!((left.normalizer() - seq.normalizer()).abs() < 1e-12);
        assert_eq!(left.running_max(), seq.running_max());
        assert_eq!(left.len(), seq.len());
    }

    /// A NaN sum meeting a NaN term of the other sign keeps the term's
    /// bits, in `push` and in `merge`, whatever operand order the add is
    /// compiled with.
    #[test]
    fn a_nan_term_replaces_a_nan_sum_of_the_other_sign() {
        let mut n = OnlineNormalizer::base2();
        n.push(1.0);
        let term = n.pow(f64::NAN - n.running_max());
        assert!(term.is_nan());
        n.normalizer = -term;
        n.push(f64::NAN);
        assert_eq!(n.normalizer().to_bits(), term.to_bits());

        let mut later = OnlineNormalizer::base2();
        later.push(1.0);
        later.normalizer = -f64::NAN;
        let mut own = OnlineNormalizer::base2();
        own.push(1.0);
        own.normalizer = f64::NAN;
        own.merge(&later);
        assert_eq!(own.normalizer().to_bits(), (-f64::NAN).to_bits());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineNormalizer::base2();
        a.extend([1.0, 2.0]);
        let before = a.normalizer();
        a.merge(&OnlineNormalizer::base2());
        assert_eq!(a.normalizer(), before);

        let mut empty = OnlineNormalizer::base2();
        let b = a.clone();
        empty.merge(&b);
        assert_eq!(empty.normalizer(), a.normalizer());
    }

    #[test]
    fn finalize_checks_length() {
        let mut n = OnlineNormalizer::new();
        n.extend([1.0, 2.0]);
        assert!(n.finalize(&[1.0]).is_err());
        assert!(n.finalize(&[1.0, 2.0]).is_ok());
        let empty = OnlineNormalizer::new();
        assert_eq!(empty.finalize(&[]), Err(SoftmaxError::EmptyInput));
    }

    #[test]
    fn handles_extreme_ranges_without_overflow() {
        let x = [1000.0, -1000.0, 999.5];
        let p = online_softmax_with(OnlineNormalizer::new(), &x).unwrap();
        assert!(p.iter().all(|v| v.is_finite()));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn default_is_base_e() {
        let n = OnlineNormalizer::default();
        assert_eq!(n.base(), std::f64::consts::E);
    }
}
