//! The Adam optimizer and global-norm gradient clipping.

use serde::{Deserialize, Serialize};

use crate::param::Param;

/// Adam optimizer state.
///
/// The optimizer is created once for a fixed set of parameters and stepped
/// with the *same parameters in the same order* every time (the per-tensor
/// first/second-moment state is keyed by position).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub learning_rate: f64,
    /// Exponential decay for the first moment.
    pub beta1: f64,
    /// Exponential decay for the second moment.
    pub beta2: f64,
    /// Numerical-stability constant.
    pub epsilon: f64,
    step: u64,
    m: Vec<Vec<f64>>,
    v: Vec<Vec<f64>>,
}

impl Adam {
    /// Creates an Adam optimizer with the usual β₁=0.9, β₂=0.999, ε=1e-8.
    pub fn new(learning_rate: f64) -> Self {
        Self {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
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
    /// Panics if the number of parameters changes between calls.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.is_empty() {
            self.m = params.iter().map(|p| vec![0.0; p.len()]).collect();
            self.v = params.iter().map(|p| vec![0.0; p.len()]).collect();
        }
        assert_eq!(
            self.m.len(),
            params.len(),
            "parameter set changed between optimizer steps"
        );
        self.step += 1;
        let t = self.step as f64;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        for (idx, p) in params.iter_mut().enumerate() {
            assert_eq!(self.m[idx].len(), p.len(), "parameter shape changed");
            // Resolved once per parameter: the value accessor un-shares the
            // weights, which must not be paid per element.
            let (value, grad) = p.value_and_grad_mut();
            let moments = self.m[idx].iter_mut().zip(&mut self.v[idx]);
            for ((w, g), (m, v)) in value.iter_mut().zip(grad).zip(moments) {
                *m = self.beta1 * *m + (1.0 - self.beta1) * *g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * *g * *g;
                let m_hat = *m / bias1;
                let v_hat = *v / bias2;
                *w -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
                *g = 0.0;
            }
        }
    }
}

/// Clips the global gradient norm of a parameter set to `max_norm`,
/// returning the norm before clipping.
pub fn clip_grad_norm(params: &mut [&mut Param], max_norm: f64) -> f64 {
    let norm: f64 = params
        .iter()
        .map(|p| p.grad_norm_squared())
        .sum::<f64>()
        .sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params.iter_mut() {
            p.scale_grad(scale);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut x = Param::zeros(1, 1);
        x.grad_mut()[0] = 1.0;
        let mut adam = Adam::new(0.01);
        adam.step(&mut [&mut x]);
        assert_eq!(x.grad()[0], 0.0);
    }

    #[test]
    fn clip_grad_norm_scales_large_gradients() {
        let mut a = Param::zeros(1, 2);
        a.grad_mut().copy_from_slice(&[3.0, 4.0]);
        let norm = clip_grad_norm(&mut [&mut a], 1.0);
        assert!((norm - 5.0).abs() < 1e-12);
        let new_norm = a.grad_norm_squared().sqrt();
        assert!((new_norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clip_grad_norm_leaves_small_gradients_alone() {
        let mut a = Param::zeros(1, 2);
        a.grad_mut().copy_from_slice(&[0.1, 0.2]);
        clip_grad_norm(&mut [&mut a], 10.0);
        assert_eq!(a.grad(), [0.1, 0.2]);
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
}
