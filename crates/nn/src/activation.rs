//! Element-wise activation functions.

/// Supported activation functions for dense layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Activation {
    /// Identity (linear) activation.
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation to a single value.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Self::Identity => x,
            Self::Relu => x.max(0.0),
            Self::Tanh => x.tanh(),
            Self::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Derivative of the activation expressed as a function of the
    /// *pre-activation* input `x`.
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Self::Identity => 1.0,
            Self::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Self::Tanh => 1.0 - x.tanh().powi(2),
            Self::Sigmoid => {
                let s = Self::Sigmoid.apply(x);
                s * (1.0 - s)
            }
        }
    }

    /// Applies the activation to every element of a vector.
    pub fn apply_vec(self, values: &[f64]) -> Vec<f64> {
        values.iter().map(|&v| self.apply(v)).collect()
    }

    /// Applies the activation to every element in place (the
    /// allocation-free counterpart of [`Activation::apply_vec`]).
    pub fn apply_slice(self, values: &mut [f64]) {
        for value in values {
            *value = self.apply(*value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Activation; 4] =
        [Activation::Identity, Activation::Relu, Activation::Tanh, Activation::Sigmoid];

    #[test]
    fn relu_clamps_negative_values() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.5), 2.5);
        assert_eq!(Activation::Relu.derivative(-1.0), 0.0);
        assert_eq!(Activation::Relu.derivative(1.0), 1.0);
    }

    #[test]
    fn sigmoid_is_bounded_and_centered() {
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!(Activation::Sigmoid.apply(50.0) <= 1.0);
        assert!(Activation::Sigmoid.apply(-50.0) >= 0.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-6;
        for activation in ALL {
            for &x in &[-1.3, -0.2, 0.4, 2.1] {
                let numeric = (activation.apply(x + eps) - activation.apply(x - eps)) / (2.0 * eps);
                let analytic = activation.derivative(x);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "{activation:?} derivative mismatch at {x}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn apply_vec_preserves_length() {
        let out = Activation::Tanh.apply_vec(&[0.0, 1.0, -1.0]);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], 0.0);
    }
}
