//! Fig. 7: flight-trajectory visualisation in the Dense environment —
//! golden run, run with a planning/perception fault, and run with the fault
//! plus detection & recovery.

use mavfi_fault::bitflip::BitField;
use mavfi_fault::injector::FaultSpec;
use mavfi_fault::model::FaultModel;
use mavfi_fault::target::InjectionTarget;
use mavfi_ppc::states::{Stage, StateField};
use mavfi_sim::env::EnvironmentKind;
use mavfi_sim::geometry::Vec3;
use mavfi_sim::world::MissionStatus;
use std::fmt::Write as _;

use crate::config::{MissionSpec, Protection};
use crate::error::MavfiError;
use crate::report::{percent, seconds, TextTable};
use crate::runner::{MissionRunner, TrainedDetectors};

/// Configuration of the Fig. 7 trajectory study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Config {
    /// Environment (the paper uses Dense).
    pub environment: EnvironmentKind,
    /// Mission seed.
    pub seed: u64,
    /// Pipeline tick at which the fault fires.
    pub trigger_tick: u64,
    /// Which stage the fault targets (the paper shows perception and
    /// planning variants).
    pub fault_stage: Stage,
    /// Mission time budget (s).
    pub mission_time_budget: f64,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Self {
            environment: EnvironmentKind::Dense,
            seed: 5,
            trigger_tick: 80,
            fault_stage: Stage::Planning,
            mission_time_budget: 400.0,
        }
    }
}

/// One flown trajectory with its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryRun {
    /// Setting label ("Golden", "Fault", "Fault + D&R").
    pub label: String,
    /// Sampled positions along the flight.
    pub trail: Vec<Vec3>,
    /// Flight time (s).
    pub flight_time_s: f64,
    /// Terminal status.
    pub status: MissionStatus,
}

impl TrajectoryRun {
    /// Renders the trajectory as `x,y,z` CSV lines (one per sample) for
    /// plotting.
    pub fn to_csv(&self) -> String {
        let mut csv = String::from("x,y,z\n");
        for point in &self.trail {
            let _ = writeln!(csv, "{:.3},{:.3},{:.3}", point.x, point.y, point.z);
        }
        csv
    }
}

/// Full Fig. 7 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// Error-free flight.
    pub golden: TrajectoryRun,
    /// Flight with the injected fault and no protection.
    pub faulty: TrajectoryRun,
    /// Flight with the fault and autoencoder-based detection & recovery.
    pub recovered: TrajectoryRun,
}

impl Fig7Result {
    /// Summary table comparing the three flights.
    pub fn to_table(&self) -> String {
        let mut table =
            TextTable::new(["Run", "Status", "Flight time", "Inflation vs golden", "Trail points"]);
        for run in [&self.golden, &self.faulty, &self.recovered] {
            let inflation = if self.golden.flight_time_s > 0.0 {
                (run.flight_time_s - self.golden.flight_time_s) / self.golden.flight_time_s
            } else {
                0.0
            };
            table.push_row([
                run.label.clone(),
                format!("{:?}", run.status),
                seconds(run.flight_time_s),
                percent(inflation),
                run.trail.len().to_string(),
            ]);
        }
        table.render()
    }
}

/// Runs the Fig. 7 trajectory study.  The same one-time fault is injected in
/// the "faulty" and "recovered" flights; the recovered flight additionally
/// runs the autoencoder detection & recovery scheme.
///
/// # Errors
///
/// Propagates mission-runner errors.
pub fn run(config: &Fig7Config, detectors: &TrainedDetectors) -> Result<Fig7Result, MavfiError> {
    let spec = MissionSpec::new(config.environment, config.seed)
        .with_time_budget(config.mission_time_budget);
    let runner = MissionRunner::new(spec);

    // A sign/exponent corruption of a way-point coordinate (or the perceived
    // time-to-collision) reliably produces the detour the paper illustrates.
    let field = match config.fault_stage {
        Stage::Perception => StateField::TimeToCollision,
        Stage::Planning => StateField::WaypointX,
        Stage::Control => StateField::CommandVx,
    };
    let fault = FaultSpec {
        target: InjectionTarget::State(field),
        model: FaultModel::single_bit_in(BitField::Exponent),
        trigger_tick: config.trigger_tick,
        seed: config.seed ^ 0xf1_67,
    };

    let golden = runner.run_golden();
    let faulty = runner.run(Some(fault), Protection::None, None)?;
    let recovered = runner.run(Some(fault), Protection::Autoencoder, Some(detectors))?;

    Ok(Fig7Result {
        golden: TrajectoryRun {
            label: "Golden".to_owned(),
            trail: golden.trail,
            flight_time_s: golden.qof.flight_time_s,
            status: golden.qof.status,
        },
        faulty: TrajectoryRun {
            label: "Fault".to_owned(),
            trail: faulty.trail,
            flight_time_s: faulty.qof.flight_time_s,
            status: faulty.qof.status,
        },
        recovered: TrajectoryRun {
            label: "Fault + D&R".to_owned(),
            trail: recovered.trail,
            flight_time_s: recovered.qof.flight_time_s,
            status: recovered.qof.status,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_run(label: &str, time: f64) -> TrajectoryRun {
        TrajectoryRun {
            label: label.to_owned(),
            trail: vec![Vec3::ZERO, Vec3::new(1.0, 2.0, 3.0)],
            flight_time_s: time,
            status: MissionStatus::Succeeded,
        }
    }

    #[test]
    fn csv_has_one_line_per_point_plus_header() {
        let run = fake_run("Golden", 100.0);
        let csv = run.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("x,y,z"));
        assert!(csv.contains("1.000,2.000,3.000"));
    }

    #[test]
    fn table_reports_inflation_relative_to_golden() {
        let result = Fig7Result {
            golden: fake_run("Golden", 100.0),
            faulty: fake_run("Fault", 125.0),
            recovered: fake_run("Fault + D&R", 105.0),
        };
        let table = result.to_table();
        assert!(table.contains("25.0%"));
        assert!(table.contains("5.0%"));
    }
}
