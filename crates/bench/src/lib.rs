//! `mavfi-bench` hosts the Criterion benchmark harnesses that regenerate
//! every table and figure of the MAVFI paper's evaluation.  The library
//! itself only provides small helpers shared by the bench targets; run the
//! experiments with `cargo bench -p mavfi-bench`.

#![warn(missing_docs)]

/// Reads the `MAVFI_RUNS` environment variable controlling how many runs
/// per target the simulation-backed benches execute.
///
/// The paper-scale value is 100; the default keeps `cargo bench` runnable in
/// minutes rather than days.
pub fn runs_per_target(default: usize) -> usize {
    std::env::var("MAVFI_RUNS").ok().and_then(|value| value.parse().ok()).unwrap_or(default)
}

/// The worker count the campaign engine will fan missions out over,
/// honouring `MAVFI_WORKERS` and falling back to the available cores.
///
/// Every simulation-backed experiment driver (Table I/II, Figs. 3, 4, 6, 7)
/// runs its missions through [`mavfi::exec::CampaignExecutor`], which reads
/// the same configuration; this helper only exists so bench banners can
/// report the fan-out that will be used.
pub fn campaign_workers() -> usize {
    mavfi::exec::CampaignExecutor::new(0).workers()
}

/// Prints a banner followed by a pre-rendered table, so every bench target
/// reports its paper-shaped rows in one recognisable block.
pub fn print_experiment(title: &str, table: &str) {
    println!();
    println!("================================================================");
    println!("{title}");
    println!("================================================================");
    println!("{table}");
}

/// [`print_experiment`] for benches whose missions fan out through
/// [`mavfi::exec::CampaignExecutor`]: the banner additionally reports the
/// worker count so recorded output can be matched to its fan-out.  Benches
/// that never run a campaign (pure performance-model or fault-model math)
/// use plain [`print_experiment`] — their numbers do not depend on
/// `MAVFI_WORKERS`.
pub fn print_campaign_experiment(title: &str, table: &str) {
    print_experiment(&format!("{title} [campaign workers: {}]", campaign_workers()), table);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_per_target_falls_back_to_default() {
        std::env::remove_var("MAVFI_RUNS");
        assert_eq!(runs_per_target(7), 7);
    }

    #[test]
    fn print_experiment_does_not_panic() {
        print_experiment("title", "| a |\n");
    }

    #[test]
    fn campaign_workers_is_at_least_one() {
        assert!(campaign_workers() >= 1);
    }
}
