//! Microbenchmarks of the mission record/replay path: closed-loop
//! throughput with and without trace capture (the recording overhead), the
//! ppc-only throughput of replaying a captured trace without the sim in
//! the loop, and the compressed size of the trace itself.
//!
//! Records `ticks/s`, `ns/tick` and `bytes/tick` entries to the bench log
//! (`BENCH_10.json` by default).  `record_overhead_ns_per_tick` is a *signed*
//! difference of two noisy means: a small negative value is ordinary jitter
//! evidence that recording is free, and clamping it to zero would hide
//! exactly the regime the metric exists to document.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use mavfi::prelude::*;
use mavfi_bench::bench_log;

/// The benchmark mission: the Dense seed-8 flight the golden-trace store
/// and the replan bench also use, so numbers line up across benches.
fn spec() -> MissionSpec {
    MissionSpec::new(EnvironmentKind::Dense, 8).with_time_budget(150.0)
}

/// Times `iters` runs of `job`, returning (mean seconds, ticks) where
/// `ticks` is the tick count `job` reports (identical across runs — every
/// mode here is deterministic).
fn time_runs(iters: u32, mut job: impl FnMut() -> u64) -> (f64, u64) {
    let mut ticks = job(); // warm-up (plans, caches, page-in)
    let begin = Instant::now();
    for _ in 0..iters {
        ticks = std::hint::black_box(job());
    }
    (begin.elapsed().as_secs_f64() / f64::from(iters), ticks)
}

fn measure_record_replay() -> MissionTrace {
    const ITERS: u32 = 3;
    let runner = MissionRunner::new(spec());
    let note = bench_log::note_or("Dense seed-8 mission, 150 s budget");

    // Closed-loop baseline: sim in the loop, no trace capture.
    let (golden_secs, ticks) = time_runs(ITERS, || runner.run_golden().pipeline.ticks);
    bench_log::record(
        "replay_micro",
        "golden_ticks_per_sec",
        ticks as f64 / golden_secs.max(1e-9),
        "ticks/s",
        &note,
    );

    // Same loop with every topic captured into the binary trace stream.
    let (recorded_secs, _) =
        time_runs(ITERS, || runner.run_golden_recorded().unwrap().0.pipeline.ticks);
    bench_log::record(
        "replay_micro",
        "recorded_ticks_per_sec",
        ticks as f64 / recorded_secs.max(1e-9),
        "ticks/s",
        &note,
    );
    bench_log::record(
        "replay_micro",
        "record_overhead_ns_per_tick",
        (recorded_secs - golden_secs) * 1e9 / ticks as f64,
        "ns/tick",
        &note,
    );

    // Replay: ppc pipeline re-driven from the trace, sim out of the loop.
    let (_, trace) = runner.run_golden_recorded().unwrap();
    let (replay_secs, replay_ticks) = time_runs(ITERS, || {
        let report = ReplayHarness::new(&trace).replay().unwrap();
        assert!(report.is_match(), "replay diverged mid-bench: {:?}", report.divergence);
        report.ticks
    });
    bench_log::record(
        "replay_micro",
        "replay_ticks_per_sec",
        replay_ticks as f64 / replay_secs.max(1e-9),
        "ticks/s",
        &note,
    );
    bench_log::record(
        "replay_micro",
        "replay_ns_per_tick",
        replay_secs * 1e9 / replay_ticks as f64,
        "ns/tick",
        &note,
    );
    bench_log::record(
        "replay_micro",
        "trace_bytes_per_tick",
        trace.to_bytes().len() as f64 / ticks as f64,
        "bytes/tick",
        &note,
    );
    trace
}

fn bench(c: &mut Criterion) {
    let trace = measure_record_replay();
    // MAVFI_BENCH_QUICK=1 records the metrics above and skips the Criterion
    // group (used by scripts/bench.sh).
    if std::env::var("MAVFI_BENCH_QUICK").is_ok() {
        return;
    }
    let mut group = c.benchmark_group("replay");
    group.sample_size(10);
    group.bench_function("replay_dense_seed8_trace", |b| {
        b.iter(|| {
            let report = ReplayHarness::new(&trace).replay().unwrap();
            std::hint::black_box(report.ticks)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
