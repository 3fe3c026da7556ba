//! Compute-platform specifications (the paper's Intel i9 companion computer
//! and the NVIDIA TX2's ARM Cortex-A57 cluster).

/// A companion-computer platform.
///
/// `latency_scale` expresses how much slower the platform executes the PPC
/// kernels relative to the i9 baseline; it is calibrated so that the
/// end-to-end flight times reproduce the ratio reported in the paper's
/// Fig. 9 table (115 s on the i9 versus 322 s on the Cortex-A57).
#[derive(Debug, Clone, PartialEq)]
pub struct ComputePlatform {
    /// Platform name.
    pub name: String,
    /// Number of CPU cores used by the pipeline.
    pub core_count: u32,
    /// Core frequency in GHz.
    pub core_frequency_ghz: f64,
    /// Compute power draw in watts.
    pub power_watts: f64,
    /// Kernel latency multiplier relative to the i9 baseline.
    pub latency_scale: f64,
}

impl ComputePlatform {
    /// The paper's desktop-class companion computer (Intel i9-9940X).
    pub fn i9_9940x() -> Self {
        Self {
            name: "i9-9940X".to_owned(),
            core_count: 14,
            core_frequency_ghz: 3.3,
            power_watts: 165.0,
            latency_scale: 1.0,
        }
    }

    /// The embedded ARM Cortex-A57 cluster of the NVIDIA TX2.
    pub fn cortex_a57() -> Self {
        Self {
            name: "Cortex-A57".to_owned(),
            core_count: 4,
            core_frequency_ghz: 2.0,
            power_watts: 15.0,
            latency_scale: 2.8,
        }
    }

    /// Both platforms compared in the paper's Fig. 9, in paper order.
    pub fn paper_platforms() -> Vec<Self> {
        vec![Self::i9_9940x(), Self::cortex_a57()]
    }

    /// Latency of one kernel invocation on this platform, in milliseconds,
    /// given its nominal i9 latency.
    pub fn kernel_latency_ms(&self, nominal_i9_ms: f64) -> f64 {
        nominal_i9_ms * self.latency_scale
    }

    /// End-to-end latency of one pipeline response (perception + planning +
    /// control) on this platform, in milliseconds, given the nominal i9
    /// total.
    pub fn response_time_ms(&self, nominal_total_i9_ms: f64) -> f64 {
        self.kernel_latency_ms(nominal_total_i9_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_numbers_match_fig9_table() {
        let i9 = ComputePlatform::i9_9940x();
        assert_eq!(i9.core_count, 14);
        assert_eq!(i9.core_frequency_ghz, 3.3);
        assert_eq!(i9.power_watts, 165.0);
        let a57 = ComputePlatform::cortex_a57();
        assert_eq!(a57.core_count, 4);
        assert_eq!(a57.core_frequency_ghz, 2.0);
        assert!(a57.power_watts < 15.0 + 1e-9);
    }

    #[test]
    fn embedded_platform_is_slower_but_lower_power() {
        let i9 = ComputePlatform::i9_9940x();
        let a57 = ComputePlatform::cortex_a57();
        assert!(a57.kernel_latency_ms(100.0) > i9.kernel_latency_ms(100.0));
        assert!(a57.power_watts < i9.power_watts);
        assert_eq!(ComputePlatform::paper_platforms().len(), 2);
    }

    #[test]
    fn latency_scaling_is_linear() {
        let a57 = ComputePlatform::cortex_a57();
        assert_eq!(a57.kernel_latency_ms(10.0) * 2.0, a57.kernel_latency_ms(20.0));
    }
}
