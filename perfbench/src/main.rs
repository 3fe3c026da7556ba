//! MAVFI benchmark: three closed-loop workloads, end-to-end metrics with
//! tracing off and a separate traced run that breaks the same work into
//! layers.  See `perfbench/README.md`.
//!
//! ```text
//! mavfi-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod campaign;
mod dense;
mod farm;
mod flight;
mod report;
mod setup;
mod spans;
mod sparse;

use std::collections::HashMap;

use mavfi_ppc::KernelId;

use crate::flight::FlightCounts;
use crate::report::{pct, per, Json, Outcome};
use crate::spans::{Tracer, Tree};

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["dense_campaign", "sparse_cruise", "farm_served"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let parsed = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.is_finite() && parsed > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Every per-layer metric, in the order a traced run prints them.  A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.capture_us", "us"),
    ("sim.step_us", "us"),
    ("ppc.pointcloud_us", "us"),
    ("ppc.octomap_us", "us"),
    ("ppc.collision_us", "us"),
    ("ppc.collision_cache_hit_pct", "%"),
    ("ppc.control_us", "us"),
    ("ppc.plan_ms", "ms"),
    ("ppc.replans", "count"),
    ("ppc.recompute_ms", "ms"),
    ("ppc.recomputes", "count"),
    ("fault.tap_us", "us"),
    ("fault.fired", "count"),
    ("detect.tap_us", "us"),
    ("detect.overhead_pct", "%"),
    ("detect.alarms", "count"),
    ("detect.useful_recompute_pct", "%"),
    ("mission.p50_ms", "ms"),
    ("mission.tail_ms", "ms"),
    ("trace.record_overhead_pct", "%"),
    ("trace.encode_us", "us"),
    ("trace.decode_us", "us"),
    ("trace.bytes_per_tick", "B"),
    ("trace.record_ticks_per_s", "1/s"),
    ("replay.tick_us", "us"),
    ("replay.ticks_per_s", "1/s"),
    ("exec.chunks", "count"),
    ("exec.chunk_s_max", "s"),
    ("exec.chunk_s_mean", "s"),
    ("exec.efficiency_pct", "%"),
    ("serve.submit_us", "us"),
    ("serve.status_us", "us"),
    ("serve.stride_ms", "ms"),
    ("serve.checkpoint_bytes", "B"),
    ("serve.overhead_pct", "%"),
    ("training.collect_s", "s"),
    ("training.fit_s", "s"),
    ("tracing.overhead_pct", "%"),
    ("tracing.tree_gap_pct", "%"),
];

/// Per-layer values a traced run fills in.
#[derive(Default)]
pub struct Layers(HashMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(known, _)| *known == name), "unlisted layer metric {name}");
        self.0.insert(name, value);
    }

    /// Layers measured by the traced mission loop.  `counts` covers every
    /// traced flight; the work counts are reported per `repetitions`.
    pub fn flights(
        &mut self,
        tracer: &Tracer,
        tree: &Tree,
        counts: &FlightCounts,
        repetitions: u64,
    ) {
        let once = |count: u64| (count / repetitions.max(1)) as f64;
        let us_per_tick = |name: &str, ticks: u64| per(tree.layer(name).total as f64 / 1e3, ticks);
        self.set("sim.capture_us", us_per_tick("sim.capture", counts.ticks));
        self.set("sim.step_us", us_per_tick("sim.step", counts.ticks));
        self.set("ppc.pointcloud_us", us_per_tick("ppc.pointcloud", counts.ticks));
        self.set("ppc.octomap_us", us_per_tick("ppc.octomap", counts.ticks));
        self.set("ppc.collision_us", us_per_tick("ppc.collision", counts.ticks));
        self.set(
            "ppc.collision_cache_hit_pct",
            pct(counts.cache_hits as f64, counts.cache_lookups as f64),
        );
        self.set("ppc.control_us", us_per_tick("ppc.control", counts.ticks));
        self.set("ppc.plan_ms", per(counts.replan_ns as f64 / 1e6, counts.replans));
        self.set("ppc.replans", once(counts.replans));
        self.set("ppc.recompute_ms", per(counts.recompute_ns as f64 / 1e6, counts.recomputes));
        self.set("ppc.recomputes", once(counts.recomputes));
        self.set("fault.tap_us", us_per_tick("fault.tap", counts.injected_ticks));
        self.set("fault.fired", once(counts.faults_fired));
        self.set("detect.tap_us", us_per_tick("detect.tap", counts.protected_ticks));
        self.set(
            "detect.overhead_pct",
            pct(tree.layer("detect.tap").total as f64, counts.protected_flight_ns as f64),
        );
        self.set("detect.alarms", once(counts.alarms));
        self.set(
            "detect.useful_recompute_pct",
            pct(counts.useful_recompute_requests as f64, counts.recompute_requests as f64),
        );
        let missions: Vec<f64> =
            tracer.durations("mission").iter().map(|&nanos| nanos as f64 / 1e6).collect();
        self.set("mission.p50_ms", report::median(&missions));
        let tail = report::tail(&missions)
            .map_or_else(|| missions.iter().copied().fold(0.0, f64::max), |(value, _, _)| value);
        self.set("mission.tail_ms", tail);
    }

    fn report(&self, outcome: &mut Outcome) {
        for (name, unit) in PER_LAYER {
            outcome.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// The run record: host, workload shape and deterministic counts, printed
/// as one JSON line before the result so a degenerate run (no alarms, one
/// core) cannot pass for a result.
pub struct Record {
    pub workers: usize,
    shape: Vec<(String, Json)>,
    counts: Vec<(String, Json)>,
    notes: Vec<(String, Json)>,
}

impl Record {
    pub fn shape(&mut self, name: &str, value: u64) {
        self.shape.push((name.to_owned(), Json::Int(value)));
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_owned(), Json::Int(value)));
    }

    pub fn note(&mut self, name: &str, value: Json) {
        self.notes.push((name.to_owned(), value));
    }

    /// The shape and counts of flights through the traced loop, per
    /// repetition of the same flights.
    pub fn flights(&mut self, counts: &FlightCounts, repetitions: u64) {
        let once = |count: u64| count / repetitions.max(1);
        self.shape("flights", once(counts.flights));
        self.shape("ticks", once(counts.ticks));
        self.shape("replans", once(counts.replans));
        self.shape("alarms", once(counts.alarms));
        self.shape("recomputations", once(counts.recomputes));
        for (kernel, invocations) in KernelId::ALL.iter().zip(counts.kernel_invocations) {
            self.count(&format!("kernel.{kernel:?}"), once(invocations));
        }
        self.count("collision_cache.hits", once(counts.cache_hits));
        self.count("collision_cache.misses", once(counts.cache_lookups - counts.cache_hits));
        self.count("detector.alarms", once(counts.alarms));
        self.count("detector.recompute_requests", once(counts.recompute_requests));
        self.count("detector.useful_recompute_requests", once(counts.useful_recompute_requests));
        self.count("detector.abandonments", once(counts.abandonments));
        self.count("faults_fired", once(counts.faults_fired));
    }

    fn line(self, args: &Args) -> String {
        Json::obj(vec![
            ("host", Json::obj(vec![("available_parallelism", Json::Int(self.workers as u64))])),
            ("workload", Json::Str(args.workload.clone())),
            ("seed", Json::Int(args.seed)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("shape", Json::Obj(self.shape)),
            ("counts", Json::Obj(self.counts)),
            ("notes", Json::Obj(self.notes)),
        ])
        .to_string()
    }
}

/// Ends a traced run: prints the self-time tree, writes the spans out and
/// reports the tree's largest parent-versus-children gap.
pub fn finish_trace(
    tracer: &Tracer,
    tree: &Tree,
    args: &Args,
    layers: &mut Layers,
    record: &mut Record,
) {
    eprint!("{}", tree.render());
    layers.set("tracing.tree_gap_pct", tree.max_gap_pct());
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    match tracer.write_tsv(&path) {
        Ok(()) => record.note("spans_file", Json::Str(path.display().to_string())),
        Err(error) => eprintln!("could not write {}: {error}", path.display()),
    }
    record.count("spans", tracer.len() as u64);
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("error: {error}");
            eprintln!(
                "usage: mavfi-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let mut record = Record { workers, shape: Vec::new(), counts: Vec::new(), notes: Vec::new() };
    let mut outcome = Outcome::default();
    let mut layers = Layers::default();
    match args.workload.as_str() {
        "dense_campaign" => dense::run(&args, &mut outcome, &mut layers, &mut record),
        "sparse_cruise" => sparse::run(&args, &mut outcome, &mut layers, &mut record),
        _ => farm::run(&args, &mut outcome, &mut layers, &mut record),
    }
    if args.trace {
        layers.report(&mut outcome);
    }
    println!("record: {}", record.line(&args));
    println!("{}", outcome.result_line());
}
