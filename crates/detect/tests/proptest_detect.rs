//! Property-based tests of the detection substrate: preprocessing codes,
//! online statistics and detector invariants.

use mavfi_detect::gad::{Cgad, CgadConfig};
use mavfi_detect::preprocess::{magnitude_code, sign_exponent};
use mavfi_detect::welford::Welford;
use mavfi_ppc::states::StateField;
use proptest::prelude::*;

proptest! {
    /// The magnitude code is odd in its argument: code(-v) == -code(v).
    #[test]
    fn magnitude_code_is_antisymmetric(value in -1.0e300f64..1.0e300) {
        prop_assume!(value.is_finite());
        let positive = magnitude_code(value);
        let negative = magnitude_code(-value);
        prop_assert_eq!(positive, -negative);
    }

    /// The magnitude code grows (weakly) with the magnitude of its argument.
    #[test]
    fn magnitude_code_is_monotone_in_magnitude(a in 0.0f64..1.0e300, b in 0.0f64..1.0e300) {
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(magnitude_code(small) <= magnitude_code(large));
    }

    /// Mantissa-level perturbations move the code by only a few units while
    /// exponent-scale changes move it by hundreds.
    #[test]
    fn magnitude_code_contrast(value in 0.1f64..1.0e4) {
        let nearby = magnitude_code(value * 1.01);
        let far = magnitude_code(value * 1.0e40);
        let base = magnitude_code(value);
        prop_assert!((i32::from(nearby) - i32::from(base)).abs() <= 8);
        prop_assert!((i32::from(far) - i32::from(base)).abs() >= 1000);
    }

    /// The raw sign+exponent transform ignores the mantissa entirely.
    #[test]
    fn sign_exponent_ignores_mantissa(value in 1.0f64..1.0e300, mantissa_scale in 1.0f64..1.999) {
        prop_assume!((value * mantissa_scale).is_finite());
        // Scaling by < 2 within the same binade keeps the exponent unless the
        // product crosses a power of two; pick the case where it does not.
        let scaled = value * mantissa_scale;
        if scaled.log2().floor() == value.log2().floor() {
            prop_assert_eq!(sign_exponent(value), sign_exponent(scaled));
        }
    }

    /// Welford's online estimator matches the two-pass batch computation.
    #[test]
    fn welford_matches_batch(samples in proptest::collection::vec(-1.0e6f64..1.0e6, 2..200)) {
        let mut online = Welford::new();
        for &sample in &samples {
            online.push(sample);
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let variance = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
            / (samples.len() - 1) as f64;
        let scale = mean.abs().max(1.0);
        prop_assert!((online.mean() - mean).abs() / scale < 1e-9);
        prop_assert!((online.std_dev() - variance.sqrt()).abs() / scale.max(variance.sqrt()) < 1e-6);
    }

    /// A Gaussian detector never alarms on a value closer to its baseline
    /// mean than the configured minimum deviation.
    #[test]
    fn cgad_respects_min_deviation(
        baseline in proptest::collection::vec(-10.0f64..10.0, 30..120),
        wiggle in -30.0f64..30.0,
    ) {
        let config = CgadConfig { min_deviation: 48.0, ..CgadConfig::default() };
        let mut cgad = Cgad::new(StateField::CommandVx, config);
        for &sample in &baseline {
            cgad.prime(sample);
        }
        // |wiggle| < 48 relative to a mean in [-10, 10] keeps the deviation
        // under the minimum.
        let mean = baseline.iter().sum::<f64>() / baseline.len() as f64;
        let probe = mean + wiggle.clamp(-40.0, 40.0);
        prop_assert!(!cgad.observe(probe));
    }
}
