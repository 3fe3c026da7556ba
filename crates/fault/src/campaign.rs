//! Campaign planning: builds the lists of fault-injection experiments the
//! paper's evaluation runs (100 injections per kernel / state / stage).

use mavfi_ppc::states::Stage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::injector::FaultSpec;
use crate::model::FaultModel;
use crate::target::InjectionTarget;

/// A planned set of fault-injection experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    specs: Vec<FaultSpec>,
}

/// Range of pipeline ticks (inclusive-exclusive) in which the one-time
/// injection may fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriggerWindow {
    /// Earliest candidate trigger tick.
    pub start: u64,
    /// One past the latest candidate trigger tick.
    pub end: u64,
}

impl Default for TriggerWindow {
    fn default() -> Self {
        // With a 10 Hz pipeline this covers roughly the first 40 seconds of
        // the mission, after a short warm-up so the trajectory exists.
        Self { start: 10, end: 400 }
    }
}

impl TriggerWindow {
    /// Creates a window.
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(end > start, "trigger window must be non-empty");
        Self { start, end }
    }

    fn sample(&self, rng: &mut StdRng) -> u64 {
        rng.gen_range(self.start..self.end)
    }
}

impl CampaignPlan {
    /// Builds a plan with `runs_per_target` experiments for every target.
    pub fn new(
        targets: &[InjectionTarget],
        runs_per_target: usize,
        model: FaultModel,
        window: TriggerWindow,
        base_seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(base_seed);
        let mut specs = Vec::with_capacity(targets.len() * runs_per_target);
        for &target in targets {
            for _ in 0..runs_per_target {
                specs.push(FaultSpec {
                    target,
                    model,
                    trigger_tick: window.sample(&mut rng),
                    seed: rng.gen(),
                });
            }
        }
        Self { specs }
    }

    /// The Table I / Fig. 6 campaign: `runs_per_stage` injections into each
    /// PPC stage.
    pub fn per_stage(runs_per_stage: usize, base_seed: u64) -> Self {
        let targets: Vec<InjectionTarget> =
            Stage::ALL.into_iter().map(InjectionTarget::Stage).collect();
        Self::new(
            &targets,
            runs_per_stage,
            FaultModel::default(),
            TriggerWindow::default(),
            base_seed,
        )
    }

    /// The planned experiments.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Number of planned experiments.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Returns `true` when the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

impl IntoIterator for CampaignPlan {
    type Item = FaultSpec;
    type IntoIter = std::vec::IntoIter<FaultSpec>;

    fn into_iter(self) -> Self::IntoIter {
        self.specs.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mavfi_ppc::states::StateField;

    #[test]
    fn per_state_and_per_stage_plans() {
        let states: Vec<_> = StateField::ALL.into_iter().map(InjectionTarget::State).collect();
        let state_plan =
            CampaignPlan::new(&states, 10, FaultModel::default(), TriggerWindow::default(), 2);
        assert_eq!(state_plan.len(), 13 * 10);
        let stage_plan = CampaignPlan::per_stage(100, 3);
        assert_eq!(stage_plan.len(), 300);
        assert!(!stage_plan.is_empty());
        for stage in Stage::ALL {
            let in_stage = stage_plan.specs().iter().filter(|spec| spec.target.stage() == stage);
            assert_eq!(in_stage.count(), 100, "{stage:?}");
        }
    }

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        assert_eq!(CampaignPlan::per_stage(5, 9), CampaignPlan::per_stage(5, 9));
        assert_ne!(CampaignPlan::per_stage(5, 9), CampaignPlan::per_stage(5, 10));
    }

    #[test]
    fn trigger_ticks_stay_inside_the_window() {
        let window = TriggerWindow::new(50, 60);
        let plan = CampaignPlan::new(
            &[InjectionTarget::Stage(Stage::Control)],
            200,
            FaultModel::default(),
            window,
            4,
        );
        for spec in plan.specs() {
            assert!((50..60).contains(&spec.trigger_tick));
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_panics() {
        let _ = TriggerWindow::new(5, 5);
    }
}
