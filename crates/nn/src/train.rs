//! Unsupervised training of autoencoders on error-free telemetry.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::autoencoder::Autoencoder;
use crate::optimizer::Adam;

/// Hyper-parameters for autoencoder training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// RNG seed controlling sample shuffling.
    pub shuffle_seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 30, learning_rate: 0.005, shuffle_seed: 0 }
    }
}

/// Result of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Largest reconstruction error observed on the training data with the
    /// final weights — the paper uses this as the AAD alarm threshold ("the
    /// upper bound of the reconstruction error in the error-free run").
    pub max_reconstruction_error: f64,
}

impl TrainReport {
    /// Final epoch's mean loss, or infinity when no epoch ran.
    pub fn final_loss(&self) -> f64 {
        self.epoch_losses.last().copied().unwrap_or(f64::INFINITY)
    }
}

/// Trains `model` in place on `samples` (each of the model's input
/// dimension) with Adam + MSE, the configuration the paper uses.
///
/// # Panics
///
/// Panics if `samples` is empty or any sample has the wrong dimension.
pub fn train_autoencoder(
    model: &mut Autoencoder,
    samples: &[Vec<f64>],
    config: &TrainConfig,
) -> TrainReport {
    assert!(!samples.is_empty(), "training requires at least one sample");
    for sample in samples {
        assert_eq!(sample.len(), model.input_dim(), "training sample dimension mismatch");
    }

    let mut optimizer = Adam::new(config.learning_rate);
    let mut rng = StdRng::seed_from_u64(config.shuffle_seed);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut epoch_losses = Vec::with_capacity(config.epochs);

    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut total = 0.0;
        for &index in &order {
            let (loss, grads) = model.loss_and_gradients(&samples[index]);
            optimizer.step(model.network_mut(), &grads);
            total += loss;
        }
        epoch_losses.push(total / samples.len() as f64);
    }

    let max_reconstruction_error =
        samples.iter().map(|sample| model.reconstruction_error(sample)).fold(0.0_f64, f64::max);

    TrainReport { epoch_losses, max_reconstruction_error }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Synthetic correlated telemetry: the 13 state deltas lie close to a
    /// low-dimensional manifold, like the inter-kernel states of a smoothly
    /// moving MAV.
    fn correlated_samples(count: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let a: f64 = rng.gen_range(-1.0..1.0);
                let b: f64 = rng.gen_range(-1.0..1.0);
                (0..13)
                    .map(|i| {
                        let weight = (i as f64 + 1.0) / 13.0;
                        weight * a + (1.0 - weight) * b
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn training_reduces_loss() {
        let samples = correlated_samples(200, 1);
        let mut model = Autoencoder::paper_architecture(7);
        let config = TrainConfig { epochs: 20, ..TrainConfig::default() };
        let report = train_autoencoder(&mut model, &samples, &config);
        assert!(report.epoch_losses.len() == 20);
        assert!(
            report.final_loss() < report.epoch_losses[0],
            "loss should decrease: {:?}",
            report.epoch_losses
        );
        assert!(report.max_reconstruction_error.is_finite());
    }

    #[test]
    fn trained_model_flags_out_of_distribution_inputs() {
        let samples = correlated_samples(300, 2);
        let mut model = Autoencoder::paper_architecture(3);
        let report = train_autoencoder(&mut model, &samples, &TrainConfig::default());
        // A wildly out-of-distribution vector (as produced by an exponent
        // bit flip) must have a much larger reconstruction error than the
        // training threshold.
        let mut anomaly = samples[0].clone();
        anomaly[4] = 1.0e6;
        assert!(model.reconstruction_error(&anomaly) > report.max_reconstruction_error * 10.0);
    }

    #[test]
    fn training_is_deterministic() {
        let samples = correlated_samples(50, 3);
        let config = TrainConfig { epochs: 5, ..TrainConfig::default() };
        let mut a = Autoencoder::paper_architecture(9);
        let mut b = Autoencoder::paper_architecture(9);
        let ra = train_autoencoder(&mut a, &samples, &config);
        let rb = train_autoencoder(&mut b, &samples, &config);
        assert_eq!(ra, rb);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_training_set_panics() {
        let mut model = Autoencoder::paper_architecture(0);
        let _ = train_autoencoder(&mut model, &[], &TrainConfig::default());
    }
}
