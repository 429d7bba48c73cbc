//! Masked categorical distributions over action logits.
//!
//! The multi-discrete policy of the paper samples one sub-action per head
//! from a categorical distribution; invalid sub-actions are removed with an
//! action mask (Sec. IV-A-2). This module provides sampling, log-probability,
//! entropy and the gradients of those quantities with respect to the logits,
//! which is everything PPO needs.

use rand::Rng;

use crate::activation::{masked_softmax, softmax};

/// A categorical distribution over `n` choices, with an optional mask of
/// allowed choices that it borrows.
#[derive(Debug, Clone, PartialEq)]
pub struct MaskedCategorical<'m> {
    probs: Vec<f64>,
    /// `None` when every choice is allowed.
    mask: Option<&'m [bool]>,
}

impl<'m> MaskedCategorical<'m> {
    /// Builds the distribution from raw logits and a mask of allowed
    /// entries.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or every entry is masked out.
    pub fn new(logits: &[f64], mask: &'m [bool]) -> Self {
        Self {
            probs: masked_softmax(logits, mask),
            mask: Some(mask),
        }
    }

    /// Builds the distribution from raw logits with every entry allowed
    /// (the same probabilities, bit for bit, as an all-`true` mask).
    ///
    /// # Panics
    ///
    /// Panics if `logits` is empty.
    pub fn from_logits(logits: &[f64]) -> Self {
        assert!(!logits.is_empty(), "a distribution needs a category");
        Self {
            probs: softmax(logits),
            mask: None,
        }
    }

    fn allows(&self, index: usize) -> bool {
        self.mask.is_none_or(|mask| mask[index])
    }

    /// The probabilities (masked entries have probability 0).
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True if the distribution has no categories.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Samples a category index.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        let mut acc = 0.0;
        for (i, p) in self.probs.iter().enumerate() {
            acc += p;
            if u < acc {
                return i;
            }
        }
        // Floating-point slack: return the last allowed entry.
        self.probs
            .iter()
            .enumerate()
            .rev()
            .find(|(_, p)| **p > 0.0)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// The most probable category (greedy action).
    pub fn argmax(&self) -> usize {
        self.probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probabilities"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Natural log-probability of a category.
    ///
    /// Returns a very negative value (`-1e9`) for masked-out categories so
    /// that importance ratios involving them vanish instead of producing
    /// NaNs.
    pub fn log_prob(&self, index: usize) -> f64 {
        let p = self.probs.get(index).copied().unwrap_or(0.0);
        if p <= 0.0 {
            -1.0e9
        } else {
            p.ln()
        }
    }

    /// Entropy of the distribution (masked entries contribute zero).
    pub fn entropy(&self) -> f64 {
        -self
            .probs
            .iter()
            .filter(|p| **p > 0.0)
            .map(|p| p * p.ln())
            .sum::<f64>()
    }

    /// Appends to `out` the gradient of `log_prob(index)` with respect to
    /// the *logits*: `d log p_a / d logit_i = 1[i == a] - p_i`, `+0.0` on
    /// masked entries.
    pub fn log_prob_grad(&self, index: usize, out: &mut Vec<f64>) {
        out.extend(self.probs.iter().enumerate().map(|(i, p)| {
            if !self.allows(i) {
                0.0
            } else if i == index {
                1.0 - p
            } else {
                -p
            }
        }));
    }

    /// Appends to `out` the gradient of the entropy with respect to the
    /// logits, `dH/dlogit_i = -p_i * (log p_i + H)` on allowed entries
    /// (`+0.0` elsewhere), given `entropy`, this distribution's
    /// [`MaskedCategorical::entropy`].
    pub fn entropy_grad(&self, entropy: f64, out: &mut Vec<f64>) {
        out.extend(self.probs.iter().enumerate().map(|(i, p)| {
            if !self.allows(i) || *p <= 0.0 {
                0.0
            } else {
                -p * (p.ln() + entropy)
            }
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn probabilities_sum_to_one_and_respect_mask() {
        let d = MaskedCategorical::new(&[1.0, 2.0, 3.0, 4.0], &[true, false, true, true]);
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert!((d.probs().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(d.probs()[1], 0.0);
        assert_eq!(d.argmax(), 3);
    }

    #[test]
    fn sampling_respects_mask_and_distribution() {
        let d = MaskedCategorical::new(&[0.0, 5.0, 0.0], &[true, false, true]);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut counts = [0usize; 3];
        for _ in 0..1000 {
            counts[d.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "masked action must never be sampled");
        // The two allowed actions have equal logits, so roughly 50/50.
        assert!(counts[0] > 350 && counts[2] > 350);
    }

    #[test]
    fn log_prob_matches_softmax() {
        let logits = [0.5, -1.0, 2.0];
        let d = MaskedCategorical::from_logits(&logits);
        let probs = softmax(&logits);
        for (i, p) in probs.iter().enumerate() {
            assert!((d.log_prob(i) - p.ln()).abs() < 1e-12);
        }
        // Unmasked is an all-`true` mask, bit for bit, gradients included.
        let all = MaskedCategorical::new(&logits, &[true; 3]);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(d.probs()), bits(all.probs()));
        let [mut unmasked, mut masked] = [(); 2].map(|()| Vec::new());
        d.log_prob_grad(2, &mut unmasked);
        d.entropy_grad(d.entropy(), &mut unmasked);
        all.log_prob_grad(2, &mut masked);
        all.entropy_grad(all.entropy(), &mut masked);
        assert_eq!(bits(&unmasked), bits(&masked));
        // Masked category has an extremely low log-prob but no NaN.
        let dm = MaskedCategorical::new(&logits, &[true, false, true]);
        assert!(dm.log_prob(1) < -1.0e8);
    }

    #[test]
    fn entropy_is_maximal_for_uniform() {
        let uniform = MaskedCategorical::from_logits(&[1.0; 4]);
        let peaked = MaskedCategorical::from_logits(&[10.0, 0.0, 0.0, 0.0]);
        assert!(uniform.entropy() > peaked.entropy());
        assert!((uniform.entropy() - (4.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn log_prob_grad_matches_finite_difference() {
        let logits = [0.2, -0.3, 0.8, 0.0];
        let mask = [true, true, false, true];
        let target = 0;
        let d = MaskedCategorical::new(&logits, &mask);
        let mut grad = vec![7.0];
        d.log_prob_grad(target, &mut grad);
        assert_eq!(grad.remove(0), 7.0, "appended after what the buffer held");
        let eps = 1e-6;
        for i in 0..logits.len() {
            let mut lp = logits.to_vec();
            lp[i] += eps;
            let dp = MaskedCategorical::new(&lp, &mask);
            let fd = (dp.log_prob(target) - d.log_prob(target)) / eps;
            if mask[i] {
                assert!((fd - grad[i]).abs() < 1e-4, "i={i}: {fd} vs {}", grad[i]);
            } else {
                assert_eq!(grad[i].to_bits(), 0.0f64.to_bits());
            }
        }
        // An allowed entry whose probability underflowed keeps `-p`.
        let peaked = MaskedCategorical::new(&[0.0, -1.0e4], &[true, true]);
        let mut grad = Vec::new();
        peaked.log_prob_grad(0, &mut grad);
        assert_eq!(peaked.probs()[1], 0.0);
        assert_eq!(grad[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn entropy_grad_matches_finite_difference() {
        let logits = [0.1, 0.9, -0.5];
        let mask = [true, true, true];
        let d = MaskedCategorical::new(&logits, &mask);
        let mut grad = vec![7.0];
        d.entropy_grad(d.entropy(), &mut grad);
        assert_eq!(grad.remove(0), 7.0, "appended after what the buffer held");
        let eps = 1e-6;
        for i in 0..logits.len() {
            let mut lp = logits.to_vec();
            lp[i] += eps;
            let fd = (MaskedCategorical::new(&lp, &mask).entropy() - d.entropy()) / eps;
            assert!((fd - grad[i]).abs() < 1e-4, "i={i}: {fd} vs {}", grad[i]);
        }
    }

    #[test]
    fn argmax_of_masked_distribution() {
        let d = MaskedCategorical::new(&[5.0, 10.0, 1.0], &[true, false, true]);
        assert_eq!(d.argmax(), 0);
    }
}
