//! Data preprocessing for the anomaly detectors (paper §IV-B): compact
//! 16-bit magnitude codes and per-state temporal deltas.
//!
//! The paper transforms the sign and exponent bits of each monitored
//! `float64` into a 16-bit integer and then takes per-state deltas.  The raw
//! sign+exponent code ([`sign_exponent`]) is provided for reference, but it
//! is discontinuous around zero: a velocity smoothly crossing 0 m/s jumps by
//! thousands of code units, which both widens the Gaussian detectors'
//! baselines and saturates the autoencoder.  The operational
//! [`Preprocessor`] therefore uses [`magnitude_code`], a smooth
//! sign-and-log-magnitude 16-bit code that keeps the properties the paper
//! relies on — insensitivity to mantissa-level noise, large response to
//! sign/exponent corruption — while remaining continuous through zero.
//! `docs/ARCHITECTURE.md` ("Deviations from the paper") records this
//! substitution and its reason.

use mavfi_ppc::states::MonitoredStates;

/// Extracts the sign and exponent bits of a double as a 16-bit integer (the
/// paper's literal transformation).
///
/// # Examples
///
/// ```
/// use mavfi_detect::preprocess::sign_exponent;
///
/// assert_eq!(sign_exponent(0.0), 0);
/// assert!(sign_exponent(-1.0) > sign_exponent(1.0));
/// assert!(sign_exponent(1.0e100) > sign_exponent(1.0));
/// ```
pub fn sign_exponent(value: f64) -> i16 {
    // Top 12 bits: 1 sign bit + 11 exponent bits.
    (value.to_bits() >> 52) as i16
}

/// Quantisation factor of [`magnitude_code`]: code units per doubling of
/// magnitude.
const CODE_UNITS_PER_OCTAVE: f64 = 32.0;

/// Smooth 16-bit sign-and-magnitude code: `sign(v) * 32 * log2(1 + |v|)`,
/// saturated to the `i16` range.
///
/// Mantissa-level noise moves the code by a few units; a sign or exponent
/// bit flip moves it by hundreds to thousands, exactly the contrast the
/// detectors need.
///
/// # Examples
///
/// ```
/// use mavfi_detect::preprocess::magnitude_code;
///
/// assert_eq!(magnitude_code(0.0), 0);
/// assert!((magnitude_code(2.0) - magnitude_code(2.1)).abs() < 5);
/// assert!((magnitude_code(2.0) - magnitude_code(2.0e100)).unsigned_abs() > 1000);
/// ```
pub fn magnitude_code(value: f64) -> i16 {
    if value == 0.0 || !value.is_finite() && value.is_nan() {
        return 0;
    }
    let magnitude = if value.is_finite() { value.abs() } else { f64::MAX };
    let code = value.signum() * CODE_UNITS_PER_OCTAVE * (1.0 + magnitude).log2();
    // Saturate symmetrically (to -32767, not i16::MIN) so the code stays an
    // odd function even at the extreme end of the double range.
    code.clamp(-f64::from(i16::MAX), f64::from(i16::MAX)) as i16
}

/// Computes the 13-dimensional preprocessed feature vector: the change of
/// each monitored state's magnitude code since the previous observation
/// ("delta" in the paper).
///
/// The delta distribution of normal flight is narrow and close to Gaussian,
/// which is exactly what the Gaussian detector models and what makes
/// corrupted values stand out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Preprocessor {
    previous: Option<[i16; MonitoredStates::DIM]>,
}

impl Preprocessor {
    /// Creates a preprocessor with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the history; the next observation produces an all-zero delta.
    /// Called by the recovery path after a recomputation so the corrupted
    /// sample does not poison the baseline.
    pub fn reset(&mut self) {
        self.previous = None;
    }

    /// Transforms one raw monitored-state snapshot into its delta vector.
    pub fn process(&mut self, states: &MonitoredStates) -> [f64; MonitoredStates::DIM] {
        let raw = states.as_array();
        let transformed: [i16; MonitoredStates::DIM] =
            std::array::from_fn(|i| magnitude_code(raw[i]));
        let deltas = match self.previous {
            Some(previous) => {
                std::array::from_fn(|i| f64::from(transformed[i]) - f64::from(previous[i]))
            }
            None => [0.0; MonitoredStates::DIM],
        };
        self.previous = Some(transformed);
        deltas
    }

    /// Returns `true` when at least one observation has been processed.
    pub fn has_history(&self) -> bool {
        self.previous.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mavfi_ppc::states::StateField;

    #[test]
    fn sign_exponent_orders_magnitudes() {
        assert!(sign_exponent(1.0e10) > sign_exponent(1.0));
        assert!(sign_exponent(1.0) > sign_exponent(1.0e-10));
        // Negative values land in a disjoint (higher, sign-bit-set) band.
        assert!(sign_exponent(-1.0) > sign_exponent(1.0e300));
        // The mantissa is invisible to the raw transform.
        assert_eq!(sign_exponent(1.5), sign_exponent(1.9));
    }

    #[test]
    fn magnitude_code_is_smooth_near_zero_and_sensitive_to_exponent_flips() {
        // Crossing zero changes the code only slightly.
        assert!((magnitude_code(0.3) - magnitude_code(-0.3)).abs() < 40);
        // Mantissa-level changes are a handful of units.
        assert!((magnitude_code(3.0) - magnitude_code(3.1)).abs() < 4);
        // Exponent corruption shifts the code by thousands.
        assert!((i32::from(magnitude_code(3.0)) - i32::from(magnitude_code(3.0e120))).abs() > 1000);
        // Sign corruption of a large value is also visible.
        assert!((i32::from(magnitude_code(30.0)) - i32::from(magnitude_code(-30.0))).abs() > 200);
        // Non-finite inputs stay bounded, and saturation is symmetric so
        // the code remains an odd function of its input.
        assert_eq!(magnitude_code(f64::NAN), 0);
        assert_eq!(magnitude_code(f64::INFINITY), i16::MAX);
        assert_eq!(magnitude_code(f64::NEG_INFINITY), -i16::MAX);
    }

    #[test]
    fn first_observation_yields_zero_deltas() {
        let mut preprocessor = Preprocessor::new();
        let deltas = preprocessor.process(&MonitoredStates::default());
        assert_eq!(deltas, [0.0; 13]);
        assert!(preprocessor.has_history());
    }

    #[test]
    fn smooth_flight_produces_small_deltas_and_corruption_large_ones() {
        let mut preprocessor = Preprocessor::new();
        let mut states = MonitoredStates::default();
        states.set_field(StateField::CommandVx, 2.0);
        preprocessor.process(&states);

        // Smooth change: 2.0 -> 2.3 moves the code only slightly.
        states.set_field(StateField::CommandVx, 2.3);
        let smooth = preprocessor.process(&states);
        assert!(smooth[StateField::CommandVx.index()].abs() < 10.0);

        // Corruption: exponent flip to a huge value.
        states.set_field(StateField::CommandVx, 2.3e150);
        let corrupted = preprocessor.process(&states);
        assert!(corrupted[StateField::CommandVx.index()].abs() > 1000.0);
    }

    #[test]
    fn reset_clears_history() {
        let mut preprocessor = Preprocessor::new();
        preprocessor.process(&MonitoredStates::default());
        preprocessor.reset();
        assert!(!preprocessor.has_history());
        let deltas = preprocessor.process(&MonitoredStates::default());
        assert_eq!(deltas, [0.0; 13]);
    }
}
