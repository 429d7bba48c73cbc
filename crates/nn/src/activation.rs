//! Element-wise activations and (masked) softmax utilities.

/// ReLU forward: `max(0, x)` element-wise.
pub fn relu(x: &[f64]) -> Vec<f64> {
    x.iter().map(|v| v.max(0.0)).collect()
}

/// ReLU applied in place (bit-identical to [`relu`], without allocating).
pub fn relu_in_place(x: &mut [f64]) {
    for v in x {
        *v = v.max(0.0);
    }
}

/// Sigmoid forward.
pub fn sigmoid(x: &[f64]) -> Vec<f64> {
    x.iter().map(|v| 1.0 / (1.0 + (-v).exp())).collect()
}

/// Sigmoid applied in place (bit-identical to [`sigmoid`], without
/// allocating).
pub fn sigmoid_in_place(x: &mut [f64]) {
    for v in x {
        *v = 1.0 / (1.0 + (-*v).exp());
    }
}

/// Tanh forward.
pub fn tanh(x: &[f64]) -> Vec<f64> {
    x.iter().map(|v| v.tanh()).collect()
}

/// Tanh applied in place (bit-identical to [`tanh`], without allocating).
pub fn tanh_in_place(x: &mut [f64]) {
    for v in x {
        *v = v.tanh();
    }
}

/// Numerically stable softmax.
///
/// Returns a uniform distribution for an empty input.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut exps: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter_mut().for_each(|e| *e /= sum);
    exps
}

/// Softmax restricted to the positions where `mask` is `true`; masked-out
/// positions get probability exactly 0.
///
/// # Panics
///
/// Panics if `mask.len() != logits.len()` or if no position is allowed.
pub fn masked_softmax(logits: &[f64], mask: &[bool]) -> Vec<f64> {
    assert_eq!(logits.len(), mask.len(), "mask length mismatch");
    assert!(
        mask.iter().any(|m| *m),
        "masked_softmax requires at least one allowed position"
    );
    let max = logits
        .iter()
        .zip(mask)
        .filter(|(_, m)| **m)
        .map(|(l, _)| *l)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut exps: Vec<f64> = logits
        .iter()
        .zip(mask)
        .map(|(l, m)| if *m { (l - max).exp() } else { 0.0 })
        .collect();
    let sum: f64 = exps.iter().sum();
    exps.iter_mut().for_each(|e| *e /= sum);
    exps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::MaskedCategorical;

    /// Gradient of a scalar loss with respect to the logits, given the
    /// softmax probabilities and the gradient with respect to the
    /// probabilities: `dL/dlogit_i = p_i * (dL/dp_i - sum_j p_j dL/dp_j)`.
    fn softmax_backward(probs: &[f64], grad_probs: &[f64]) -> Vec<f64> {
        let dot: f64 = probs.iter().zip(grad_probs).map(|(p, g)| p * g).sum();
        probs
            .iter()
            .zip(grad_probs)
            .map(|(p, g)| p * (g - dot))
            .collect()
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn relu_zeroes_the_negatives() {
        let x = [-1.0, 0.0, 2.0];
        assert_eq!(relu(&x), vec![0.0, 0.0, 2.0]);
    }

    #[test]
    fn sigmoid_and_tanh_shapes() {
        let x = [0.0, 1.0, -1.0];
        let s = sigmoid(&x);
        assert_close(s[0], 0.5);
        assert!(s[1] > 0.7 && s[2] < 0.3);
        let t = tanh(&x);
        assert_close(t[0], 0.0);
        assert!(t[1] > 0.7 && t[2] < -0.7);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&[1000.0, 1000.0, 1000.0]);
        assert_close(p.iter().sum::<f64>(), 1.0);
        assert_close(p[0], 1.0 / 3.0);
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn masked_softmax_zeroes_masked_entries() {
        let p = masked_softmax(&[1.0, 2.0, 3.0], &[true, false, true]);
        assert_eq!(p[1], 0.0);
        assert_close(p.iter().sum::<f64>(), 1.0);
        assert!(p[2] > p[0]);
    }

    #[test]
    #[should_panic(expected = "at least one allowed")]
    fn masked_softmax_requires_an_allowed_position() {
        masked_softmax(&[1.0, 2.0], &[false, false]);
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        // Loss = -log p[target]; compare analytic gradient with finite
        // differences through the softmax.
        let logits = [0.5, -1.0, 2.0, 0.0];
        let target = 2;
        let eps = 1e-6;
        let probs = softmax(&logits);
        // dL/dp_i = -1/p_target at i == target else 0.
        let mut grad_probs = vec![0.0; logits.len()];
        grad_probs[target] = -1.0 / probs[target];
        let grad_logits = softmax_backward(&probs, &grad_probs);
        // The policy's own gradient is the negated loss gradient.
        let mut log_prob_grad = Vec::new();
        MaskedCategorical::from_logits(&logits).log_prob_grad(target, &mut log_prob_grad);
        for (analytic, policy) in grad_logits.iter().zip(&log_prob_grad) {
            assert_close(*analytic, -policy);
        }
        for i in 0..logits.len() {
            let mut lp = logits.to_vec();
            lp[i] += eps;
            let loss_p = -softmax(&lp)[target].ln();
            let loss = -probs[target].ln();
            let fd = (loss_p - loss) / eps;
            assert!(
                (fd - grad_logits[i]).abs() < 1e-4,
                "index {i}: fd {fd} vs analytic {}",
                grad_logits[i]
            );
        }
    }
}
