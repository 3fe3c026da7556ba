//! Flight power and mission-energy accounting.
//!
//! The paper reports *mission energy* as a quality-of-flight metric and uses
//! the cyber-physical observation that extra compute power (for example from
//! DMR/TMR redundancy) raises total power draw and lowers achievable
//! velocity, inflating both flight time and energy.  This module provides
//! the flight-side power model; the compute-side is in `mavfi-platform`.

/// Simple quadrotor electrical power model.
///
/// Instantaneous power is `hover + k_v * v² + compute`, a standard quadratic
/// approximation of induced plus parasitic drag power around hover.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Power required to hover (W).
    pub hover_power: f64,
    /// Velocity-dependent coefficient (W per (m/s)²).
    pub velocity_coeff: f64,
    /// Constant power drawn by the onboard compute platform (W).
    pub compute_power: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        // Loosely modelled on a small MAV similar to the DJI Spark class.
        Self { hover_power: 120.0, velocity_coeff: 2.0, compute_power: 15.0 }
    }
}

impl PowerModel {
    /// Creates a power model.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient is negative or non-finite.
    pub fn new(hover_power: f64, velocity_coeff: f64, compute_power: f64) -> Self {
        for value in [hover_power, velocity_coeff, compute_power] {
            assert!(value >= 0.0 && value.is_finite(), "power coefficients must be non-negative");
        }
        Self { hover_power, velocity_coeff, compute_power }
    }

    /// Instantaneous electrical power at the given speed (W).
    pub fn instantaneous_power(&self, speed: f64) -> f64 {
        self.hover_power + self.velocity_coeff * speed * speed + self.compute_power
    }

    /// Returns a copy with the compute power replaced, used when comparing
    /// compute platforms or redundancy schemes.
    pub fn with_compute_power(mut self, compute_power: f64) -> Self {
        assert!(compute_power >= 0.0 && compute_power.is_finite());
        self.compute_power = compute_power;
        self
    }
}

/// Integrates power over time into mission energy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyMeter {
    joules: f64,
}

impl EnergyMeter {
    /// Creates a meter reading zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates `power` watts applied for `dt` seconds.
    pub fn add(&mut self, power: f64, dt: f64) {
        debug_assert!(power >= 0.0 && dt >= 0.0);
        self.joules += power * dt;
    }

    /// Total accumulated energy in joules.
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// Total accumulated energy in kilojoules.
    pub fn kilojoules(&self) -> f64 {
        self.joules / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_grows_with_speed() {
        let model = PowerModel::default();
        assert!(model.instantaneous_power(5.0) > model.instantaneous_power(0.0));
        let hover_only = model.instantaneous_power(0.0);
        assert_eq!(hover_only, model.hover_power + model.compute_power);
    }

    #[test]
    fn energy_integrates_power_over_time() {
        let mut meter = EnergyMeter::new();
        meter.add(100.0, 10.0);
        meter.add(50.0, 2.0);
        assert_eq!(meter.joules(), 1100.0);
        assert!((meter.kilojoules() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn compute_power_override() {
        let base = PowerModel::default();
        let heavy = base.with_compute_power(60.0);
        assert!(heavy.instantaneous_power(3.0) > base.instantaneous_power(3.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_coefficient_panics() {
        let _ = PowerModel::new(-1.0, 0.0, 0.0);
    }
}
