//! The autoencoder model used by MAVFI's autoencoder-based anomaly
//! detection (AAD).

use crate::activation::Activation;
use crate::loss::mse;
use crate::network::{Gradients, Mlp, MlpScratch};

/// An autoencoder: an MLP trained to reproduce its own input, whose
/// reconstruction error serves as an anomaly score.
///
/// The paper's AAD autoencoder has an encoder of fully connected layers with
/// 13, 6 and 3 neurons and a decoder expanding back from the 3-neuron
/// bottleneck to the 13-dimensional input; we realise that as the layer
/// stack `13 → 6 → 3 → 13`.
///
/// # Examples
///
/// ```
/// use mavfi_nn::autoencoder::Autoencoder;
///
/// let model = Autoencoder::paper_architecture(42);
/// let input = vec![0.0; 13];
/// assert_eq!(model.reconstruct(&input).len(), 13);
/// assert!(model.reconstruction_error(&input) >= 0.0);
/// ```
#[derive(Debug, PartialEq)]
pub struct Autoencoder {
    network: Mlp,
    latent_dim: usize,
}

/// `clone_from` reuses the target's storage (see
/// [`Matrix`](crate::tensor::Matrix)).
impl Clone for Autoencoder {
    fn clone(&self) -> Self {
        Self { network: self.network.clone(), ..*self }
    }

    fn clone_from(&mut self, source: &Self) {
        self.network.clone_from(&source.network);
        self.latent_dim = source.latent_dim;
    }
}

/// Number of monitored inter-kernel state inputs in the paper's autoencoder.
pub const PAPER_INPUT_DIM: usize = 13;
/// Bottleneck width of the paper's autoencoder.
pub const PAPER_LATENT_DIM: usize = 3;

impl Autoencoder {
    /// Creates an autoencoder with an explicit layer plan.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is empty or `input_dim` is zero.
    pub fn new(input_dim: usize, hidden: &[usize], seed: u64) -> Self {
        assert!(input_dim > 0, "input dimension must be positive");
        assert!(!hidden.is_empty(), "autoencoder needs at least one hidden layer");
        let mut builder = Mlp::builder(input_dim);
        for &width in hidden {
            builder = builder.layer(width, Activation::Tanh);
        }
        builder = builder.layer(input_dim, Activation::Identity);
        let latent_dim = *hidden.last().expect("hidden not empty");
        Self { network: builder.build(seed), latent_dim }
    }

    /// Creates the paper's 13-6-3-13 architecture.
    pub fn paper_architecture(seed: u64) -> Self {
        Self::new(PAPER_INPUT_DIM, &[6, PAPER_LATENT_DIM], seed)
    }

    /// Input (and output) dimension.
    pub fn input_dim(&self) -> usize {
        self.network.input_dim()
    }

    /// Width of the bottleneck layer.
    pub fn latent_dim(&self) -> usize {
        self.latent_dim
    }

    /// The underlying network.
    pub fn network(&self) -> &Mlp {
        &self.network
    }

    /// Mutable access to the underlying network (used during training).
    pub fn network_mut(&mut self) -> &mut Mlp {
        &mut self.network
    }

    /// Reconstructs an input vector.
    pub fn reconstruct(&self, input: &[f64]) -> Vec<f64> {
        self.network.forward_into(input, &mut MlpScratch::new()).to_vec()
    }

    /// Mean-squared reconstruction error of `input`, the anomaly score used
    /// by AAD.
    pub fn reconstruction_error(&self, input: &[f64]) -> f64 {
        self.reconstruction_error_with(input, &mut MlpScratch::new())
    }

    /// [`Autoencoder::reconstruction_error`] through reusable scratch
    /// buffers: zero heap allocations in steady state.  This is the
    /// per-tick scoring path of the AAD detector.
    pub fn reconstruction_error_with(&self, input: &[f64], scratch: &mut MlpScratch) -> f64 {
        mse(self.network.forward_into(input, scratch), input)
    }

    /// Loss and gradients for one training sample (the target is the input
    /// itself — unsupervised reconstruction).
    pub fn loss_and_gradients(&self, input: &[f64]) -> (f64, Gradients) {
        self.network.loss_and_gradients(input, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_architecture_shape() {
        let model = Autoencoder::paper_architecture(0);
        assert_eq!(model.input_dim(), 13);
        assert_eq!(model.latent_dim(), 3);
        // encoder 13->6, 6->3, decoder 3->13
        assert_eq!(model.network().layers().len(), 3);
        assert_eq!(model.network().output_dim(), 13);
    }

    #[test]
    fn reconstruction_error_is_zero_only_for_perfect_reconstruction() {
        let model = Autoencoder::paper_architecture(1);
        let input = vec![0.5; 13];
        let error = model.reconstruction_error(&input);
        assert!(error > 0.0, "an untrained model should not reconstruct perfectly");
    }

    #[test]
    fn custom_architecture_respects_hidden_sizes() {
        let model = Autoencoder::new(5, &[4, 2], 3);
        assert_eq!(model.latent_dim(), 2);
        assert_eq!(model.reconstruct(&[0.0; 5]).len(), 5);
    }

    #[test]
    #[should_panic(expected = "hidden layer")]
    fn empty_hidden_panics() {
        let _ = Autoencoder::new(5, &[], 0);
    }
}
