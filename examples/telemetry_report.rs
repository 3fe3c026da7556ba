//! Telemetry report: fly an instrumented mission and an instrumented
//! campaign, and print kernel latency percentiles, the fault → detect →
//! recover timeline and the campaign-wide rollup.
//!
//! Run with: `cargo run --release --example telemetry_report`
//!
//! Everything printed under "deterministic" is bit-identical across runs
//! and worker counts; only the wall-clock histograms vary with the machine.
//! See `docs/OBSERVABILITY.md` for the design rules.

use mavfi::prelude::*;

fn main() -> Result<(), MavfiError> {
    // --- One instrumented mission with a fault under the AAD scheme ---
    let training =
        TrainingSpec { missions: 1, base_seed: 77, mission_time_budget: 25.0, epochs: 5 };
    let scheme = SchemeConfig::cached(EnvironmentKind::Randomized, training);
    let detectors = scheme.detectors();

    let spec = MissionSpec::new(EnvironmentKind::Sparse, 33).with_time_budget(120.0);
    let fault = FaultSpec {
        target: InjectionTarget::State(StateField::WaypointX),
        model: FaultModel::single_bit_in(BitField::Exponent),
        trigger_tick: 50,
        seed: 9,
    };
    let mut sink = MissionTelemetry::new();
    let outcome = MissionRunner::new(spec).run_instrumented(
        Some(fault),
        Protection::Autoencoder,
        Some(&detectors),
        &mut sink,
    )?;

    println!("=== Instrumented mission (Sparse, WaypointX exponent flip, D&R(A)) ===");
    println!("status {:?} in {:.1} s", outcome.qof.status, outcome.qof.flight_time_s);
    if let Some(ticks) = sink.detection_latency_ticks() {
        println!("detection latency: {ticks} ticks after injection");
    }
    if let Some(ticks) = sink.recovery_latency_ticks() {
        println!("recovery latency:  {ticks} ticks after injection");
    }

    println!("\nper-kernel wall-clock latency (ns), once warm:");
    println!(
        "{:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "kernel", "calls", "p50", "p90", "p99", "max"
    );
    for kernel in KernelId::ALL {
        let histogram = sink.kernel_latency(kernel);
        if histogram.count() == 0 {
            continue;
        }
        println!(
            "{:<24} {:>8} {:>10} {:>10} {:>10} {:>10}",
            format!("{kernel:?}"),
            histogram.count(),
            histogram.p50(),
            histogram.p90(),
            histogram.p99(),
            histogram.max_ns(),
        );
    }

    println!("\nfirst timeline events (tick @ sim seconds):");
    for event in sink.timeline().events().iter().take(12) {
        println!("  tick {:>5} @ {:>7.2} s  {:?}", event.tick, event.sim_time_s, event.event);
    }

    let report = sink.into_report(&outcome.pipeline);
    println!(
        "\nmission report: {} events ({} dropped), cache hit rate {:.1}%",
        report.events.len(),
        report.events_dropped,
        report.counters.cache_hit_rate() * 100.0,
    );

    // --- A small instrumented campaign, merged into one rollup ---
    let config = CampaignConfig {
        environment: EnvironmentKind::Sparse,
        golden_runs: 1,
        injections_per_stage: 1,
        base_seed: 7,
        mission_time_budget: 60.0,
    };
    let (campaign, rollup) = run_campaign_instrumented(&config, &scheme, 0)?;

    println!("\n=== Campaign rollup (1 golden + 3 injections x 3 settings) ===");
    println!(
        "deterministic: {} missions, {} ticks, {} replans, digest {:#018x}",
        rollup.missions, rollup.counters.ticks, rollup.counters.replans, rollup.timeline_digest,
    );
    for stage in Stage::ALL {
        let detection = rollup.detection_latency[stage.index()];
        if detection.samples > 0 {
            println!(
                "  {stage:?}: mean detection latency {:.1} ticks over {} faults",
                detection.mean(),
                detection.samples,
            );
        }
    }
    let trunks = rollup.trunks;
    println!(
        "trunks: {} ticks flown, {} shared; branches D&R(G) {} / D&R(A) {}; \
         {} faults never fired",
        trunks.ticks_flown,
        trunks.ticks_shared,
        trunks.gaussian_branches,
        trunks.autoencoder_branches,
        trunks.faults_never_fired,
    );
    println!(
        "wall clock: {} workers used, jobs per worker {:?}, fold stalls {}",
        rollup.wall_clock.worker_jobs.len(),
        rollup.wall_clock.worker_jobs,
        rollup.wall_clock.fold_stalls,
    );
    println!(
        "campaign D&R(A) success rate: {:.0}%",
        campaign.autoencoder.summary.success_rate * 100.0
    );

    // The full rollup serialises to JSON for offline analysis.
    println!(
        "\nserialised rollup is {} bytes of JSON",
        serde_json::to_string(&rollup).unwrap().len()
    );
    Ok(())
}
