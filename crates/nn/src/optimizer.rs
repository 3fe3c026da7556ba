//! The Adam gradient-descent optimizer.

use crate::network::{Gradients, Mlp};
use crate::tensor::Matrix;

#[derive(Debug, Clone, PartialEq)]
struct AdamSlot {
    m_weights: Matrix,
    v_weights: Matrix,
    m_biases: Vec<f64>,
    v_biases: Vec<f64>,
}

/// The Adam optimizer (Kingma & Ba), used by the paper to train the
/// autoencoder's reconstruction error.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    /// Learning rate.
    pub learning_rate: f64,
    /// Exponential decay rate of the first moment.
    pub beta1: f64,
    /// Exponential decay rate of the second moment.
    pub beta2: f64,
    /// Numerical-stability epsilon.
    pub epsilon: f64,
    timestep: u64,
    slots: Vec<AdamSlot>,
}

impl Adam {
    /// Creates an Adam optimizer with the conventional defaults
    /// (`beta1 = 0.9`, `beta2 = 0.999`, `epsilon = 1e-8`).
    pub fn new(learning_rate: f64) -> Self {
        Self {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            timestep: 0,
            slots: Vec::new(),
        }
    }

    fn ensure_slots(&mut self, network: &Mlp) {
        if self.slots.len() == network.layers().len() {
            return;
        }
        self.slots = network
            .layers()
            .iter()
            .map(|layer| AdamSlot {
                m_weights: Matrix::zeros(layer.output_dim(), layer.input_dim()),
                v_weights: Matrix::zeros(layer.output_dim(), layer.input_dim()),
                m_biases: vec![0.0; layer.output_dim()],
                v_biases: vec![0.0; layer.output_dim()],
            })
            .collect();
    }

    /// Applies one update step to `network` using `gradients`.
    pub fn step(&mut self, network: &mut Mlp, gradients: &Gradients) {
        self.ensure_slots(network);
        self.timestep += 1;
        let t = self.timestep as f64;
        let bias_correction1 = 1.0 - self.beta1.powf(t);
        let bias_correction2 = 1.0 - self.beta2.powf(t);

        for ((layer, grads), slot) in
            network.layers_mut().iter_mut().zip(&gradients.layers).zip(&mut self.slots)
        {
            let weights = layer.weights_mut().as_mut_slice();
            let grad_weights = grads.weights.as_slice();
            let m = slot.m_weights.as_mut_slice();
            let v = slot.v_weights.as_mut_slice();
            for i in 0..weights.len() {
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * grad_weights[i];
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * grad_weights[i] * grad_weights[i];
                let m_hat = m[i] / bias_correction1;
                let v_hat = v[i] / bias_correction2;
                weights[i] -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
            }
            let biases = layer.biases_mut();
            for (((bias, &g), m), v) in
                biases.iter_mut().zip(&grads.biases).zip(&mut slot.m_biases).zip(&mut slot.v_biases)
            {
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let m_hat = *m / bias_correction1;
                let v_hat = *v / bias_correction2;
                *bias -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;

    fn tiny_network(seed: u64) -> Mlp {
        Mlp::builder(2).layer(4, Activation::Tanh).layer(2, Activation::Identity).build(seed)
    }

    fn train(mut network: Mlp, optimizer: &mut Adam, steps: usize) -> f64 {
        let samples =
            [([0.0, 0.0], [0.0, 0.0]), ([1.0, 0.0], [0.0, 1.0]), ([0.0, 1.0], [1.0, 0.0])];
        let mut last = f64::INFINITY;
        for _ in 0..steps {
            let mut total = 0.0;
            for (input, target) in &samples {
                let (loss, grads) = network.loss_and_gradients(input, target);
                optimizer.step(&mut network, &grads);
                total += loss;
            }
            last = total / samples.len() as f64;
        }
        last
    }

    #[test]
    fn adam_reaches_low_loss() {
        let loss = train(tiny_network(3), &mut Adam::new(0.02), 500);
        assert!(loss < 1e-2, "Adam should fit the toy dataset, got {loss}");
    }
}
