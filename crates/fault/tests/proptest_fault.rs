//! Property-based tests of the fault-injection substrate: bit flips, fault
//! models, severity classification and campaign planning.

use mavfi_fault::bitflip::{flip_bit, BitField};
use mavfi_fault::campaign::{CampaignPlan, TriggerWindow};
use mavfi_fault::model::FaultModel;
use mavfi_fault::severity::{classify, FlipSurvey, Severity, SeverityThresholds};
use mavfi_fault::target::InjectionTarget;
use mavfi_ppc::states::Stage;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Flipping the same bit twice restores the original bit pattern.
    #[test]
    fn bit_flips_are_involutions(value in any::<f64>(), bit in 0u8..64) {
        let flipped = flip_bit(value, bit);
        prop_assert_eq!(flip_bit(flipped, bit).to_bits(), value.to_bits());
        // A flip always changes exactly one bit of the representation.
        prop_assert_eq!((flipped.to_bits() ^ value.to_bits()).count_ones(), 1);
    }

    /// Every bit index belongs to exactly the field whose range contains it.
    #[test]
    fn bit_field_classification_matches_ranges(bit in 0u8..64) {
        let field = BitField::of_bit(bit);
        prop_assert!(field.bit_range().contains(&bit));
        for other in BitField::ALL {
            if other != field {
                prop_assert!(!other.bit_range().contains(&bit));
            }
        }
    }

    /// The single-bit-flip model is deterministic per seed and restricted
    /// selections stay inside their field.
    #[test]
    fn in_field_selection_is_honoured(value in -1.0e12f64..1.0e12, seed in any::<u64>()) {
        for field in BitField::ALL {
            let model = FaultModel::single_bit_in(field);
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let (corrupted_a, detail_a) = model.apply(value, &mut rng_a);
            let (corrupted_b, _) = model.apply(value, &mut rng_b);
            prop_assert_eq!(corrupted_a.to_bits(), corrupted_b.to_bits());
            prop_assert_eq!(detail_a.field, Some(field));
            prop_assert!(field.bit_range().contains(&detail_a.bit.unwrap()));
        }
    }

    /// Severity classification is total, and `Identical` appears exactly when
    /// the bit patterns agree.
    #[test]
    fn severity_is_total_and_identical_is_exact(
        original in any::<f64>(),
        corrupted in any::<f64>(),
    ) {
        prop_assume!(original.is_finite());
        let severity = classify(original, corrupted, SeverityThresholds::default());
        prop_assert!(Severity::ALL.contains(&severity));
        if corrupted.to_bits() == original.to_bits() {
            prop_assert_eq!(severity, Severity::Identical);
        } else {
            prop_assert_ne!(severity, Severity::Identical);
        }
        if corrupted.is_nan() || corrupted.is_infinite() {
            prop_assert_eq!(severity, Severity::NonFinite);
        }
    }

    /// A flip survey counts every flip of every value exactly once and its
    /// per-field fractions are proper probabilities.
    #[test]
    fn flip_survey_is_complete(values in proptest::collection::vec(-1.0e6f64..1.0e6, 1..30)) {
        let survey = FlipSurvey::over_values(&values, SeverityThresholds::default());
        prop_assert_eq!(survey.total(), values.len() as u64 * 64);
        let mut per_field_total = 0;
        for field in BitField::ALL {
            per_field_total += survey.total_in_field(field);
            prop_assert!((0.0..=1.0).contains(&survey.harmful_fraction(field)));
            prop_assert!((0.0..=1.0).contains(&survey.masked_fraction(field)));
        }
        prop_assert_eq!(per_field_total, survey.total());
    }

    /// Campaign plans have exactly runs-per-target experiments per target,
    /// all trigger ticks inside the window, and are seed-deterministic.
    #[test]
    fn campaign_plans_are_well_formed(
        runs in 1usize..20,
        start in 0u64..100,
        width in 1u64..200,
        seed in any::<u64>(),
    ) {
        let window = TriggerWindow::new(start, start + width);
        let targets = [
            InjectionTarget::Stage(Stage::Perception),
            InjectionTarget::Stage(Stage::Planning),
            InjectionTarget::Stage(Stage::Control),
        ];
        let plan = CampaignPlan::new(&targets, runs, FaultModel::default(), window, seed);
        prop_assert_eq!(plan.len(), targets.len() * runs);
        for spec in plan.specs() {
            prop_assert!((start..start + width).contains(&spec.trigger_tick));
        }
        for stage in Stage::ALL {
            let in_stage = plan.specs().iter().filter(|spec| spec.target.stage() == stage);
            prop_assert_eq!(in_stage.count(), runs);
        }
        let again = CampaignPlan::new(&targets, runs, FaultModel::default(), window, seed);
        prop_assert_eq!(plan, again);
    }
}
