//! Property-based tests for the platform models: the visual performance
//! model and the redundancy schemes.

use mavfi_platform::prelude::*;
use proptest::prelude::*;

fn arbitrary_uav() -> impl Strategy<Value = UavSpec> {
    (0.2f64..3.0, 0.05f64..0.5, 30.0f64..300.0, 0.5f64..5.0, 2.0f64..8.0, 5.0f64..20.0).prop_map(
        |(mass, board, hover, drag, accel, vmax)| UavSpec {
            name: "prop UAV".to_owned(),
            base_mass_kg: mass,
            compute_board_mass_kg: board,
            hover_power_w: hover,
            drag_power_coeff: drag,
            max_acceleration: accel,
            max_velocity: vmax,
        },
    )
}

fn arbitrary_platform() -> impl Strategy<Value = ComputePlatform> {
    (1u32..32, 0.5f64..4.0, 5.0f64..200.0, 1.0f64..6.0).prop_map(|(cores, freq, power, scale)| {
        ComputePlatform {
            name: "prop platform".to_owned(),
            core_count: cores,
            core_frequency_ghz: freq,
            power_watts: power,
            latency_scale: scale,
        }
    })
}

proptest! {
    /// A longer end-to-end response time can never raise the safe velocity,
    /// and the velocity always respects the airframe ceiling.
    #[test]
    fn safe_velocity_is_monotone_in_response_time(
        uav in arbitrary_uav(),
        t_fast in 0.05f64..1.0,
        extra in 0.0f64..3.0,
    ) {
        let model = VisualPerformanceModel::default();
        let fast = model.max_safe_velocity(&uav, t_fast);
        let slow = model.max_safe_velocity(&uav, t_fast + extra);
        prop_assert!(slow <= fast + 1e-9);
        prop_assert!(fast <= uav.max_velocity + 1e-9);
        prop_assert!(slow > 0.0);
    }

    /// Carrying more redundant boards never shortens the mission and never
    /// saves energy, for any airframe/platform combination.
    #[test]
    fn redundancy_never_improves_flight_time_or_energy(
        uav in arbitrary_uav(),
        platform in arbitrary_platform(),
    ) {
        let model = VisualPerformanceModel::default();
        let anomaly = model.evaluate(&uav, &platform, ProtectionScheme::AnomalyDetection);
        let dmr = model.evaluate(&uav, &platform, ProtectionScheme::Dmr);
        let tmr = model.evaluate(&uav, &platform, ProtectionScheme::Tmr);
        prop_assert!(dmr.flight_time_s + 1e-9 >= anomaly.flight_time_s);
        prop_assert!(tmr.flight_time_s + 1e-9 >= dmr.flight_time_s);
        prop_assert!(dmr.energy_j + 1e-9 >= anomaly.energy_j);
        prop_assert!(tmr.energy_j + 1e-9 >= dmr.energy_j);
        prop_assert!(tmr.total_mass_kg > anomaly.total_mass_kg);
    }

    /// All flight estimates are finite and positive regardless of the
    /// configuration.
    #[test]
    fn flight_estimates_are_finite_and_positive(
        uav in arbitrary_uav(),
        platform in arbitrary_platform(),
    ) {
        let model = VisualPerformanceModel::default();
        for scheme in ProtectionScheme::FIG8_SCHEMES {
            let est = model.evaluate(&uav, &platform, scheme);
            prop_assert!(est.flight_time_s.is_finite() && est.flight_time_s > 0.0);
            prop_assert!(est.energy_j.is_finite() && est.energy_j > 0.0);
            prop_assert!(est.cruise_power_w.is_finite() && est.cruise_power_w > 0.0);
            prop_assert!(est.max_velocity.is_finite() && est.max_velocity > 0.0);
        }
    }
}
