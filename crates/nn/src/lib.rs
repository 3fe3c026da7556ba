//! `mavfi-nn` is a deliberately small dense-neural-network library: just
//! enough machinery (matrices, dense layers, MSE, Adam) to train and run the
//! 13-6-3-13 autoencoder that powers MAVFI's autoencoder-based anomaly
//! detection, without any external ML framework.
//!
//! # Examples
//!
//! ```
//! use mavfi_nn::prelude::*;
//!
//! // Train a tiny autoencoder on correlated 4-dimensional data.
//! let samples: Vec<Vec<f64>> = (0..100)
//!     .map(|i| {
//!         let t = i as f64 / 100.0;
//!         vec![t, 2.0 * t, -t, 0.5 * t]
//!     })
//!     .collect();
//! let mut model = Autoencoder::new(4, &[2], 7);
//! let report = train_autoencoder(&mut model, &samples, &TrainConfig::default());
//! assert!(report.final_loss() < report.epoch_losses[0]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod activation;
pub mod autoencoder;
pub mod layer;
pub mod loss;
pub mod network;
pub mod optimizer;
pub mod tensor;
pub mod train;

pub use activation::Activation;
pub use autoencoder::Autoencoder;
pub use layer::{Dense, LayerCache, LayerGradients};
pub use network::{Gradients, Mlp, MlpBuilder, MlpScratch};
pub use optimizer::Adam;
pub use tensor::Matrix;
pub use train::{train_autoencoder, TrainConfig, TrainReport};

/// Commonly used items, suitable for glob import.
pub mod prelude {
    pub use crate::activation::Activation;
    pub use crate::autoencoder::Autoencoder;
    pub use crate::network::Mlp;
    pub use crate::optimizer::Adam;
    pub use crate::train::{train_autoencoder, TrainConfig, TrainReport};
}
