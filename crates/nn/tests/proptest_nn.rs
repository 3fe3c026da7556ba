//! Property-based tests of the neural-network substrate: forward passes
//! and gradients.

use mavfi_nn::autoencoder::Autoencoder;
use mavfi_nn::layer::Dense;
use mavfi_nn::network::{Mlp, MlpScratch};
use mavfi_nn::tensor::Matrix;
use mavfi_nn::Activation;
use proptest::prelude::*;

fn finite_inputs(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-10.0f64..10.0, dim)
}

proptest! {
    /// `matvec_into` a dirty, differently-sized buffer is bit-identical to
    /// `matvec_into` a fresh one, and so is a second call into the reused
    /// buffer.
    #[test]
    fn matvec_into_dirty_buffer_matches_fresh_buffer(
        input in finite_inputs(4),
        seed in any::<u64>(),
        rows in 1usize..6,
    ) {
        let matrix = Matrix::xavier(rows, 4, seed);
        let mut fresh = Vec::new();
        matrix.matvec_into(&input, &mut fresh);
        // A dirty, differently-sized buffer must not influence the result.
        let mut reused = vec![f64::NAN; 9];
        matrix.matvec_into(&input, &mut reused);
        prop_assert_eq!(&fresh, &reused);
        // Second call into the now-correctly-sized buffer.
        matrix.matvec_into(&input, &mut reused);
        prop_assert_eq!(&fresh, &reused);
    }

    /// The scratch-buffer forward pass is bit-identical to the
    /// `Dense::forward_cached` chain that training back-propagates through,
    /// for both a fresh and a reused scratch.
    #[test]
    fn forward_into_matches_the_forward_cached_chain(
        input in finite_inputs(5),
        seed in any::<u64>(),
    ) {
        let network = Mlp::builder(5)
            .layer(7, Activation::Tanh)
            .layer(2, Activation::Sigmoid)
            .layer(5, Activation::Identity)
            .build(seed);
        let cached = network
            .layers()
            .iter()
            .fold(input.clone(), |current, layer: &Dense| layer.forward_cached(&current).output);
        let mut scratch = MlpScratch::new();
        prop_assert_eq!(&cached, &network.forward_into(&input, &mut scratch).to_vec());
        // Reuse the warm scratch: still identical.
        prop_assert_eq!(&cached, &network.forward_into(&input, &mut scratch).to_vec());
    }
    /// Forward passes produce finite outputs of the declared dimension.
    #[test]
    fn mlp_forward_has_declared_shape(input in finite_inputs(5), seed in any::<u64>()) {
        let network = Mlp::builder(5)
            .layer(4, Activation::Tanh)
            .layer(3, Activation::Identity)
            .build(seed);
        prop_assert_eq!(network.input_dim(), 5);
        prop_assert_eq!(network.output_dim(), 3);
        let mut scratch = MlpScratch::new();
        let output = network.forward_into(&input, &mut scratch);
        prop_assert_eq!(output.len(), 3);
        prop_assert!(output.iter().all(|v| v.is_finite()));
    }

    /// The analytic gradients agree with central finite differences.
    #[test]
    fn gradients_match_finite_differences(input in finite_inputs(4), seed in any::<u64>()) {
        let autoencoder = Autoencoder::new(4, &[3, 2], seed);
        let (_, gradients) = autoencoder.loss_and_gradients(&input);
        let epsilon = 1e-5;
        // Check a handful of weights of the first layer.
        let mut checked = 0;
        'outer: for row in 0..3 {
            for col in 0..4 {
                let mut plus = autoencoder.clone();
                let mut minus = autoencoder.clone();
                *plus.network_mut().layers_mut()[0].weights_mut().get_mut(row, col) += epsilon;
                *minus.network_mut().layers_mut()[0].weights_mut().get_mut(row, col) -= epsilon;
                let numeric = (plus.reconstruction_error(&input)
                    - minus.reconstruction_error(&input))
                    / (2.0 * epsilon);
                let analytic = gradients.layers[0].weights.get(row, col);
                let scale = analytic.abs().max(numeric.abs()).max(1e-3);
                prop_assert!(
                    (analytic - numeric).abs() / scale < 2e-2,
                    "({row},{col}): analytic {analytic} vs numeric {numeric}"
                );
                checked += 1;
                if checked >= 4 {
                    break 'outer;
                }
            }
        }
    }

    /// Reconstruction errors are non-negative and zero-input reconstruction
    /// is finite.
    #[test]
    fn reconstruction_error_is_non_negative(input in finite_inputs(6), seed in any::<u64>()) {
        let autoencoder = Autoencoder::new(6, &[4, 2], seed);
        prop_assert!(autoencoder.reconstruction_error(&input) >= 0.0);
        let reconstruction = autoencoder.reconstruct(&input);
        prop_assert_eq!(reconstruction.len(), 6);
        prop_assert!(reconstruction.iter().all(|v| v.is_finite()));
    }

    /// Parameter counts match the dense-layer dimensions.
    #[test]
    fn parameter_count_matches_architecture(hidden in 1usize..8, bottleneck in 1usize..8) {
        let autoencoder = Autoencoder::new(13, &[hidden, bottleneck], 1);
        let expected: usize = autoencoder
            .network()
            .layers()
            .iter()
            .map(|layer| layer.input_dim() * layer.output_dim() + layer.output_dim())
            .sum();
        prop_assert_eq!(autoencoder.network().parameter_count(), expected);
    }
}
