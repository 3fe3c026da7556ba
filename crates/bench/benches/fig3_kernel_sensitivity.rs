//! Fig. 3: per-kernel fault sensitivity (flight time + success rate when a
//! single bit flip lands in each PPC kernel, Sparse environment).
//!
//! Prints the paper-shaped table, then benchmarks a single fault-injected
//! mission with Criterion.  Set `MAVFI_RUNS=100` for paper-scale counts.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use mavfi::experiments::fig3::{self, Fig3Config};
use mavfi::prelude::*;
use mavfi_bench::{print_campaign_experiment, runs_per_target};

/// Measures steady-state closed-loop throughput (pipeline ticks per second
/// of wall time) over golden missions in the Sparse environment and prints
/// it.
fn measure_tick_throughput() {
    let specs: Vec<MissionSpec> = (0..3)
        .map(|seed| MissionSpec::new(EnvironmentKind::Sparse, 3 + seed).with_time_budget(200.0))
        .collect();
    // Warm-up flight (primes caches and the lazy parts of the allocator).
    let _ = MissionRunner::new(specs[0]).run_golden();
    let start = Instant::now();
    let mut ticks = 0u64;
    for spec in &specs {
        ticks += MissionRunner::new(*spec).run_golden().pipeline.ticks;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let ticks_per_sec = ticks as f64 / elapsed.max(1e-9);
    println!(
        "golden Sparse seeds 3-5: {ticks_per_sec:.0} ticks/s ({:.0} ns/tick)",
        1.0e9 / ticks_per_sec.max(1e-9)
    );
}

/// Flies one instrumented golden mission and prints each kernel's p99
/// wall-clock latency.
fn measure_kernel_latency_p99() {
    let spec = MissionSpec::new(EnvironmentKind::Sparse, 3).with_time_budget(200.0);
    let mut sink = MissionTelemetry::new();
    let _ = MissionRunner::new(spec).run_golden_instrumented(&mut sink);
    for kernel in KernelId::ALL {
        let histogram = sink.kernel_latency(kernel);
        if histogram.count() == 0 {
            continue;
        }
        println!("golden Sparse seed 3: {kernel:?} p99 {} ns", histogram.p99());
    }
}

fn run_experiment() {
    let runs = runs_per_target(3);
    let config = Fig3Config {
        runs_per_kernel: runs,
        golden_runs: runs,
        mission_time_budget: 300.0,
        ..Fig3Config::default()
    };
    let result = fig3::run(&config).expect("fig3 experiment");
    print_campaign_experiment(
        &format!("Fig. 3 — per-kernel fault sensitivity ({runs} runs/kernel, Sparse)"),
        &result.to_table(),
    );
    println!(
        "Planning/control kernels inflate worst-case flight time {:+.1}% more than perception kernels.",
        result.planning_control_excess_inflation() * 100.0
    );
}

fn bench(c: &mut Criterion) {
    measure_tick_throughput();
    measure_kernel_latency_p99();
    run_experiment();
    let mut group = c.benchmark_group("fig3");
    group.sample_size(10);
    group.bench_function("single_planning_fault_mission", |b| {
        b.iter(|| {
            let spec = MissionSpec::new(EnvironmentKind::Sparse, 3).with_time_budget(200.0);
            let fault = FaultSpec::new(InjectionTarget::Kernel(KernelId::RrtStar), 30, 5);
            MissionRunner::new(spec).run(Some(fault), Protection::None, None).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
