//! The fault model: what kind of corruption is injected.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::bitflip::{flip_bit, BitField};

/// How the bit to flip is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BitSelection {
    /// Uniformly random over all 64 bits (the paper's default
    /// instruction-level model).
    UniformRandom,
    /// Uniformly random within one field (used for the sign/exponent
    /// sensitivity analysis).
    InField(BitField),
    /// A specific bit index (deterministic reproduction of a single fault).
    Exact(u8),
}

/// A fault model applied to one floating-point value.
///
/// MAVFI emulates instruction-level single-bit upsets manifesting as
/// corrupted kernel outputs / inter-kernel states (memory and caches are
/// assumed ECC-protected, control logic fault-free; see §II-B).  It stays
/// an enum with one variant because its serialised shape is part of every
/// recorded trace header.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FaultModel {
    /// Flip a single bit of the target value.
    SingleBitFlip {
        /// How the bit index is selected.
        selection: BitSelection,
    },
}

impl Default for FaultModel {
    fn default() -> Self {
        Self::SingleBitFlip { selection: BitSelection::UniformRandom }
    }
}

impl FaultModel {
    /// A single-bit flip restricted to the given field.
    pub fn single_bit_in(field: BitField) -> Self {
        Self::SingleBitFlip { selection: BitSelection::InField(field) }
    }

    /// Applies the fault to `value`, returning the corrupted value and a
    /// description of the corruption.
    pub fn apply<R: Rng>(&self, value: f64, rng: &mut R) -> (f64, CorruptionDetail) {
        let Self::SingleBitFlip { selection } = *self;
        let bit = match selection {
            BitSelection::UniformRandom => rng.gen_range(0..64),
            BitSelection::InField(field) => field.random_bit(rng),
            BitSelection::Exact(bit) => bit,
        };
        let corrupted = flip_bit(value, bit);
        (
            corrupted,
            CorruptionDetail {
                original: value,
                corrupted,
                bit: Some(bit),
                field: Some(BitField::of_bit(bit)),
            },
        )
    }
}

/// Record of one applied corruption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionDetail {
    /// Value before corruption.
    pub original: f64,
    /// Value after corruption.
    pub corrupted: f64,
    /// Bit index flipped, if the model was a bit flip.
    pub bit: Option<u8>,
    /// Bit field of the flipped bit, if the model was a bit flip.
    pub field: Option<BitField>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exact_bit_flip_is_reproducible() {
        let model = FaultModel::SingleBitFlip { selection: BitSelection::Exact(63) };
        let mut rng = StdRng::seed_from_u64(0);
        let (corrupted, detail) = model.apply(4.0, &mut rng);
        assert_eq!(corrupted, -4.0);
        assert_eq!(detail.bit, Some(63));
        assert_eq!(detail.field, Some(BitField::Sign));
    }

    #[test]
    fn in_field_selection_respects_field() {
        let model = FaultModel::single_bit_in(BitField::Exponent);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let (_, detail) = model.apply(1.5, &mut rng);
            assert_eq!(detail.field, Some(BitField::Exponent));
        }
    }

    #[test]
    fn random_model_is_deterministic_per_seed() {
        let model = FaultModel::default();
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(model.apply(2.0, &mut a), model.apply(2.0, &mut b));
    }
}
