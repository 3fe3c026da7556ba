//! Mission planner: sequences high-level goals (the paper's package-delivery
//! mission).

use mavfi_sim::geometry::Vec3;

/// A high-level mission expressed as an ordered list of goal positions.
///
/// The paper's evaluation mission is package delivery: fly to a drop-off
/// point (optionally via a pick-up point) and report completion.  The
/// mission planner hands the *current* goal to the motion planner and
/// advances when the vehicle arrives.
///
/// # Examples
///
/// ```
/// use mavfi_ppc::planning::MissionPlan;
/// use mavfi_sim::geometry::Vec3;
///
/// let mut plan = MissionPlan::package_delivery(Vec3::ZERO, Vec3::new(10.0, 0.0, 2.0));
/// assert_eq!(plan.current_goal(), Some(Vec3::new(10.0, 0.0, 2.0)));
/// assert!(!plan.advance_if_reached(Vec3::ZERO, 1.0));
/// assert!(plan.advance_if_reached(Vec3::new(9.6, 0.0, 2.0), 1.0));
/// assert!(plan.is_complete());
/// ```
#[derive(Debug, PartialEq)]
pub struct MissionPlan {
    goals: Vec<Vec3>,
    next_index: usize,
}

/// `clone_from` reuses the target's storage (see `PpcPipeline`'s `Clone`).
impl Clone for MissionPlan {
    fn clone(&self) -> Self {
        Self { goals: self.goals.clone(), ..*self }
    }

    fn clone_from(&mut self, source: &Self) {
        self.goals.clone_from(&source.goals);
        self.next_index = source.next_index;
    }
}

impl MissionPlan {
    /// Creates a mission from an ordered goal list.
    ///
    /// # Panics
    ///
    /// Panics if `goals` is empty.
    pub fn new(goals: Vec<Vec3>) -> Self {
        assert!(!goals.is_empty(), "a mission needs at least one goal");
        Self { goals, next_index: 0 }
    }

    /// Single-leg package delivery from `start` to `dropoff`.  The start
    /// position is kept only for reporting; the single goal is the drop-off
    /// point.
    pub fn package_delivery(start: Vec3, dropoff: Vec3) -> Self {
        let _ = start;
        Self::new(vec![dropoff])
    }

    /// The goal the vehicle should currently fly to, or `None` when the
    /// mission is complete.
    pub fn current_goal(&self) -> Option<Vec3> {
        self.goals.get(self.next_index).copied()
    }

    /// Number of goals not yet reached.
    pub fn remaining(&self) -> usize {
        self.goals.len() - self.next_index
    }

    /// Returns `true` once every goal has been reached.
    pub fn is_complete(&self) -> bool {
        self.next_index >= self.goals.len()
    }

    /// Advances to the next goal if `position` is within `tolerance` of the
    /// current one.  Returns `true` when the whole mission is complete after
    /// this call.
    pub fn advance_if_reached(&mut self, position: Vec3, tolerance: f64) -> bool {
        if let Some(goal) = self.current_goal() {
            if position.distance(goal) <= tolerance {
                self.next_index += 1;
            }
        }
        self.is_complete()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_leg_mission_advances_in_order() {
        let pickup = Vec3::new(5.0, 0.0, 2.0);
        let dropoff = Vec3::new(10.0, 10.0, 2.0);
        let mut plan = MissionPlan::new(vec![pickup, dropoff]);
        assert_eq!(plan.remaining(), 2);
        assert_eq!(plan.current_goal(), Some(pickup));
        assert!(!plan.advance_if_reached(pickup, 0.5));
        assert_eq!(plan.current_goal(), Some(dropoff));
        assert!(plan.advance_if_reached(dropoff, 0.5));
        assert!(plan.is_complete());
        assert_eq!(plan.current_goal(), None);
    }

    #[test]
    fn far_position_does_not_advance() {
        let mut plan = MissionPlan::package_delivery(Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0));
        assert!(!plan.advance_if_reached(Vec3::new(5.0, 0.0, 0.0), 1.0));
        assert_eq!(plan.remaining(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one goal")]
    fn empty_mission_panics() {
        let _ = MissionPlan::new(vec![]);
    }
}
