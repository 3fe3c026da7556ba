//! Airframe specifications for the two UAVs of the paper's Fig. 8 (the
//! AirSim default quadrotor and the DJI Spark), following the cyber-physical
//! parameterisation of the visual performance model.

/// A UAV airframe description.
#[derive(Debug, Clone, PartialEq)]
pub struct UavSpec {
    /// Airframe name.
    pub name: String,
    /// Take-off mass without the companion computer (kg).
    pub base_mass_kg: f64,
    /// Mass of one companion-computer board (kg); redundancy multiplies it.
    pub compute_board_mass_kg: f64,
    /// Electrical hover power at base mass (W).
    pub hover_power_w: f64,
    /// Additional power per (m/s)² of forward flight (W·s²/m²).
    pub drag_power_coeff: f64,
    /// Maximum acceleration the airframe can command (m/s²).
    pub max_acceleration: f64,
    /// Hard ceiling on velocity from the airframe itself (m/s).
    pub max_velocity: f64,
}

impl UavSpec {
    /// The AirSim default quadrotor used in the simulator experiments.
    pub fn airsim_uav() -> Self {
        Self {
            name: "AirSim UAV".to_owned(),
            base_mass_kg: 1.0,
            compute_board_mass_kg: 0.25,
            hover_power_w: 150.0,
            drag_power_coeff: 2.5,
            max_acceleration: 5.0,
            max_velocity: 12.0,
        }
    }

    /// The DJI Spark, the small consumer airframe of Fig. 8c.
    pub fn dji_spark() -> Self {
        Self {
            name: "DJI Spark".to_owned(),
            base_mass_kg: 0.3,
            compute_board_mass_kg: 0.09,
            hover_power_w: 55.0,
            drag_power_coeff: 1.2,
            max_acceleration: 4.0,
            max_velocity: 13.9,
        }
    }

    /// Both airframes of the paper's Fig. 8, in paper order.
    pub fn paper_uavs() -> Vec<Self> {
        vec![Self::airsim_uav(), Self::dji_spark()]
    }

    /// Hover power at a given total mass, scaling with mass^1.5 as for an
    /// ideal rotor in hover.
    pub fn hover_power_at_mass(&self, total_mass_kg: f64) -> f64 {
        assert!(total_mass_kg > 0.0, "mass must be positive");
        self.hover_power_w * (total_mass_kg / self.base_mass_kg).powf(1.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spark_is_smaller_than_airsim_uav() {
        let spark = UavSpec::dji_spark();
        let airsim = UavSpec::airsim_uav();
        assert!(spark.base_mass_kg < airsim.base_mass_kg);
        assert!(spark.hover_power_w < airsim.hover_power_w);
        assert_eq!(UavSpec::paper_uavs().len(), 2);
    }

    #[test]
    fn extra_mass_increases_hover_power_superlinearly() {
        let uav = UavSpec::airsim_uav();
        let base = uav.hover_power_at_mass(uav.base_mass_kg);
        let heavy = uav.hover_power_at_mass(uav.base_mass_kg * 1.5);
        assert!((base - uav.hover_power_w).abs() < 1e-9);
        assert!(heavy > base * 1.5, "hover power should grow faster than mass");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mass_panics() {
        let _ = UavSpec::dji_spark().hover_power_at_mass(0.0);
    }
}
