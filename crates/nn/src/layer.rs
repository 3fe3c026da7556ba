//! Fully connected (dense) layers.

use crate::activation::Activation;
use crate::tensor::Matrix;

/// A dense layer computing `activation(W * x + b)`.
#[derive(Debug, PartialEq)]
pub struct Dense {
    weights: Matrix,
    biases: Vec<f64>,
    activation: Activation,
}

/// `clone_from` reuses the target's storage (see [`Matrix`]).
impl Clone for Dense {
    fn clone(&self) -> Self {
        Self { weights: self.weights.clone(), biases: self.biases.clone(), ..*self }
    }

    fn clone_from(&mut self, source: &Self) {
        self.weights.clone_from(&source.weights);
        self.biases.clone_from(&source.biases);
        self.activation = source.activation;
    }
}

/// Cached intermediate values of one layer's forward pass, required for
/// back-propagation.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCache {
    /// The layer input.
    pub input: Vec<f64>,
    /// Pre-activation values `W * x + b`.
    pub pre_activation: Vec<f64>,
    /// Post-activation output.
    pub output: Vec<f64>,
}

/// Gradients of one layer's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGradients {
    /// Gradient of the loss with respect to the weights.
    pub weights: Matrix,
    /// Gradient of the loss with respect to the biases.
    pub biases: Vec<f64>,
}

impl Dense {
    /// Creates a layer with Xavier-initialised weights and zero biases.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(input_dim: usize, output_dim: usize, activation: Activation, seed: u64) -> Self {
        assert!(input_dim > 0 && output_dim > 0, "layer dimensions must be positive");
        Self {
            weights: Matrix::xavier(output_dim, input_dim, seed),
            biases: vec![0.0; output_dim],
            activation,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.weights.rows()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Immutable access to the weights (for inspection).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Mutable access to the weights (used by the optimizer).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// Immutable access to the biases.
    pub fn biases(&self) -> &[f64] {
        &self.biases
    }

    /// Mutable access to the biases (used by the optimizer).
    pub fn biases_mut(&mut self) -> &mut [f64] {
        &mut self.biases
    }

    /// Forward pass into a caller-provided buffer, reusing its storage.
    /// Bit-identical to [`Dense::forward_cached`]'s output (same matvec
    /// summation order, bias add and activation).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_dim()`.
    pub fn forward_into(&self, input: &[f64], out: &mut Vec<f64>) {
        assert_eq!(input.len(), self.input_dim(), "dense layer input dimension mismatch");
        self.weights.matvec_into(input, out);
        for (z, b) in out.iter_mut().zip(&self.biases) {
            *z += b;
        }
        self.activation.apply_slice(out);
    }

    /// Forward pass that keeps the intermediate values needed by
    /// [`Dense::backward`].
    pub fn forward_cached(&self, input: &[f64]) -> LayerCache {
        assert_eq!(input.len(), self.input_dim(), "dense layer input dimension mismatch");
        let mut pre_activation = Vec::with_capacity(self.output_dim());
        self.weights.matvec_into(input, &mut pre_activation);
        for (z, b) in pre_activation.iter_mut().zip(&self.biases) {
            *z += b;
        }
        let output = self.activation.apply_vec(&pre_activation);
        LayerCache { input: input.to_vec(), pre_activation, output }
    }

    /// Back-propagates `output_gradient` (dL/d output) through the layer,
    /// returning the parameter gradients and the gradient with respect to
    /// the layer input.
    pub fn backward(
        &self,
        cache: &LayerCache,
        output_gradient: &[f64],
    ) -> (LayerGradients, Vec<f64>) {
        assert_eq!(output_gradient.len(), self.output_dim(), "gradient dimension mismatch");
        // delta = dL/d pre_activation
        let delta: Vec<f64> = output_gradient
            .iter()
            .zip(&cache.pre_activation)
            .map(|(g, z)| g * self.activation.derivative(*z))
            .collect();
        let mut weight_grad = Matrix::zeros(self.output_dim(), self.input_dim());
        weight_grad.add_outer(&delta, &cache.input, 1.0);
        let input_gradient = self.weights.matvec_transposed(&delta);
        (LayerGradients { weights: weight_grad, biases: delta }, input_gradient)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{mse, mse_gradient};

    fn forward(layer: &Dense, input: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        layer.forward_into(input, &mut out);
        out
    }

    #[test]
    fn forward_dimensions() {
        let layer = Dense::new(3, 2, Activation::Identity, 1);
        let out = forward(&layer, &[1.0, 0.0, -1.0]);
        assert_eq!(out.len(), 2);
        assert_eq!(layer.input_dim(), 3);
        assert_eq!(layer.output_dim(), 2);
    }

    #[test]
    fn backward_matches_numerical_gradient() {
        let mut layer = Dense::new(4, 3, Activation::Tanh, 7);
        let input = [0.3, -0.7, 0.5, 0.1];
        let target = [0.1, 0.2, -0.3];
        let cache = layer.forward_cached(&input);
        let grad_out = mse_gradient(&cache.output, &target);
        let (grads, _input_grad) = layer.backward(&cache, &grad_out);

        let eps = 1e-6;
        for row in 0..3 {
            for col in 0..4 {
                let original = layer.weights().get(row, col);
                *layer.weights_mut().get_mut(row, col) = original + eps;
                let plus = mse(&forward(&layer, &input), &target);
                *layer.weights_mut().get_mut(row, col) = original - eps;
                let minus = mse(&forward(&layer, &input), &target);
                *layer.weights_mut().get_mut(row, col) = original;
                let numeric = (plus - minus) / (2.0 * eps);
                let analytic = grads.weights.get(row, col);
                assert!(
                    (numeric - analytic).abs() < 1e-5,
                    "weight gradient mismatch at ({row},{col}): {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn input_gradient_matches_numerical_gradient() {
        let layer = Dense::new(3, 2, Activation::Sigmoid, 5);
        let input = [0.2, -0.4, 0.9];
        let target = [0.0, 1.0];
        let cache = layer.forward_cached(&input);
        let grad_out = mse_gradient(&cache.output, &target);
        let (_, input_grad) = layer.backward(&cache, &grad_out);
        let eps = 1e-6;
        for i in 0..3 {
            let mut plus = input;
            plus[i] += eps;
            let mut minus = input;
            minus[i] -= eps;
            let numeric = (mse(&forward(&layer, &plus), &target)
                - mse(&forward(&layer, &minus), &target))
                / (2.0 * eps);
            assert!((numeric - input_grad[i]).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_input_size_panics() {
        let layer = Dense::new(3, 2, Activation::Identity, 1);
        let _ = forward(&layer, &[1.0]);
    }
}
