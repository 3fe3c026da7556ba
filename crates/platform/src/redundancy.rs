//! Hardware redundancy schemes (DMR / TMR) compared against MAVFI's
//! software anomaly detection in the paper's Fig. 8.

/// Protection scheme applied to the companion computer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ProtectionScheme {
    /// No protection at all (baseline).
    Unprotected,
    /// MAVFI's software anomaly detection and recovery (negligible compute
    /// overhead, no extra hardware).
    AnomalyDetection,
    /// Dual modular redundancy: two lock-stepped companion computers.
    Dmr,
    /// Triple modular redundancy: three companion computers with voting.
    Tmr,
}

impl ProtectionScheme {
    /// The schemes compared in Fig. 8, in plot order.
    pub const FIG8_SCHEMES: [Self; 3] = [Self::AnomalyDetection, Self::Dmr, Self::Tmr];

    /// Number of companion-computer boards carried.
    pub fn board_count(self) -> u32 {
        match self {
            Self::Unprotected | Self::AnomalyDetection => 1,
            Self::Dmr => 2,
            Self::Tmr => 3,
        }
    }

    /// Multiplier on compute power draw.
    pub fn compute_power_multiplier(self) -> f64 {
        f64::from(self.board_count())
    }

    /// Fractional compute-time overhead added on top of the baseline
    /// pipeline (the anomaly-detection figure is the worst case of the
    /// paper's Table II; the redundancy voting overhead is small but
    /// non-zero).
    pub fn compute_time_overhead(self) -> f64 {
        match self {
            Self::Unprotected => 0.0,
            Self::AnomalyDetection => 0.000_062,
            Self::Dmr => 0.02,
            Self::Tmr => 0.03,
        }
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Unprotected => "Unprotected",
            Self::AnomalyDetection => "Anomaly D&R",
            Self::Dmr => "DMR",
            Self::Tmr => "TMR",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn board_counts_and_power_multipliers() {
        assert_eq!(ProtectionScheme::AnomalyDetection.board_count(), 1);
        assert_eq!(ProtectionScheme::Dmr.board_count(), 2);
        assert_eq!(ProtectionScheme::Tmr.board_count(), 3);
        assert_eq!(ProtectionScheme::Tmr.compute_power_multiplier(), 3.0);
    }

    #[test]
    fn anomaly_detection_overhead_is_negligible() {
        assert!(ProtectionScheme::AnomalyDetection.compute_time_overhead() < 1e-4);
        assert!(
            ProtectionScheme::Tmr.compute_time_overhead()
                > ProtectionScheme::AnomalyDetection.compute_time_overhead()
        );
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<&str> = [
            ProtectionScheme::Unprotected,
            ProtectionScheme::AnomalyDetection,
            ProtectionScheme::Dmr,
            ProtectionScheme::Tmr,
        ]
        .iter()
        .map(|s| s.label())
        .collect();
        assert_eq!(labels.len(), 4);
    }
}
