//! `sparse_cruise`: a stream of Sparse missions whose straight start→goal
//! segment is clear, flown by one closed-loop client per core.  Each client
//! flies every mission in all four settings through `MissionRunner::run`,
//! then records, serialises, reads back and replays it.

use std::time::Instant;

use mavfi::{
    DetectorProvenance, MavfiError, MissionOutcome, MissionRunner, MissionSpec, MissionTrace,
    Protection, ReplayHarness, TrainedDetectors,
};
use mavfi_fault::campaign::{CampaignPlan, TriggerWindow};
use mavfi_fault::injector::FaultSpec;
use mavfi_fault::model::FaultModel;
use mavfi_fault::target::InjectionTarget;
use mavfi_ppc::states::Stage;
use mavfi_sim::EnvironmentKind;

use crate::flight::{fly, Flight, FlightCounts};
use crate::report::{mean, median, pct, per, tail_json, Json, Outcome};
use crate::spans::{Clock, Tracer};
use crate::{setup, Args, Layers, Record};

/// Missions in the stream.  Flight cost varies about twofold between
/// Sparse maps, so the stream is long enough for its mean to settle.
const MISSIONS: usize = 36;

/// Clearance the straight start→goal segment must keep (m).
const CLEAR_MARGIN: f64 = 1.0;

/// Mission time budget (s).  A clear-path flight lands in about 18 s; the
/// budget keeps a fault that leaves the vehicle hovering from flying the
/// default 400 s.
const TIME_BUDGET: f64 = 30.0;

/// The four settings each mission flies in: golden (no fault, no
/// protection), injected, D&R(G) and D&R(A).
const SETTINGS: [(bool, Protection); 4] = [
    (false, Protection::None),
    (true, Protection::None),
    (true, Protection::Gaussian),
    (true, Protection::Autoencoder),
];

/// The stream's inputs: the first `MISSIONS` Sparse seeds from
/// `100 + 1000 * seed` on whose map the straight start→goal segment is
/// clear, each with one planned bit flip (a third per PPC stage) that fires
/// within the mission's first 17 s.
fn inputs(seed: u64) -> Vec<(MissionSpec, FaultSpec)> {
    let targets = Stage::ALL.map(InjectionTarget::Stage);
    let plan = CampaignPlan::new(
        &targets,
        MISSIONS / targets.len(),
        FaultModel::default(),
        TriggerWindow::new(10, 170),
        seed ^ 0x5ca1_ab1e,
    );
    let mut mission_seed = seed.wrapping_mul(1000).wrapping_add(100);
    let mut specs = Vec::with_capacity(MISSIONS);
    while specs.len() < MISSIONS {
        let environment = EnvironmentKind::Sparse.build(mission_seed);
        if environment.segment_clear(environment.start(), environment.goal(), CLEAR_MARGIN) {
            specs.push(
                MissionSpec::new(EnvironmentKind::Sparse, mission_seed)
                    .with_time_budget(TIME_BUDGET),
            );
        }
        mission_seed = mission_seed.wrapping_add(1);
    }
    specs.into_iter().zip(plan.specs().iter().copied()).collect()
}

fn flight(spec: MissionSpec, fault: FaultSpec, setting: (bool, Protection)) -> Flight {
    Flight { spec, fault: setting.0.then_some(fault), protection: setting.1 }
}

fn run_plain(flight: &Flight, detectors: &TrainedDetectors) -> Result<MissionOutcome, MavfiError> {
    let trained = (flight.protection != Protection::None).then_some(detectors);
    MissionRunner::new(flight.spec).run(flight.fault, flight.protection, trained)
}

fn provenance() -> DetectorProvenance {
    DetectorProvenance { environment: setup::TRAINING_ENVIRONMENT, training: setup::TRAINING }
}

/// One recorded cycle's clock stamps (ns) and sizes.
struct Recording {
    /// Start, then the end of recording, encoding, decoding and replay.
    stamps: [u64; 5],
    bytes: usize,
    ticks: u64,
}

impl Recording {
    const STEPS: [&'static str; 4] = ["trace.record", "trace.encode", "trace.decode", "replay"];

    /// Duration of step `step` (an index into [`Recording::STEPS`]), ns.
    fn step_ns(&self, step: usize) -> u64 {
        self.stamps[step + 1] - self.stamps[step]
    }
}

/// Records the D&R(A) flight, serialises the trace, reads it back and
/// replays it; checks the recorded outcome against `plain` and the replay.
fn record_and_replay(
    spec: MissionSpec,
    fault: FaultSpec,
    detectors: &TrainedDetectors,
    plain: &MissionOutcome,
    clock: Clock,
    outcome: &mut Outcome,
) -> Option<Recording> {
    let runner = MissionRunner::new(spec);
    let mut stamps = [clock.now(); 5];
    let recorded = runner.run_recorded(
        Some(fault),
        Protection::Autoencoder,
        Some(detectors),
        Some(provenance()),
    );
    stamps[1] = clock.now();
    let (recorded, trace) = match recorded {
        Ok(pair) => pair,
        Err(error) => {
            outcome.error(format!("run_recorded: {error}"));
            return None;
        }
    };
    let bytes = trace.to_bytes();
    stamps[2] = clock.now();
    let back = MissionTrace::from_bytes(&bytes);
    stamps[3] = clock.now();
    let back = match back {
        Ok(trace) => trace,
        Err(error) => {
            outcome.error(format!("from_bytes: {error}"));
            return None;
        }
    };
    let report = ReplayHarness::new(&back).replay();
    stamps[4] = clock.now();
    outcome.check(recorded == *plain, || format!("seed {}: recorded outcome differs", spec.seed));
    match report {
        Ok(report) => outcome
            .check(report.is_match() && report.ticks == plain.pipeline.ticks, || {
                format!("seed {}: replay diverged: {:?}", spec.seed, report.divergence)
            }),
        Err(error) => outcome.error(format!("replay: {error}")),
    }
    Some(Recording { stamps, bytes: bytes.len(), ticks: plain.pipeline.ticks })
}

/// What one closed-loop client of the stream measured.
#[derive(Default)]
struct Client {
    /// The first pass's outcomes, against which every later pass is checked.
    reference: Vec<[MissionOutcome; 4]>,
    cycle_ms: Vec<f64>,
    flight_ms: Vec<f64>,
    record_ns: u64,
    replay_ns: u64,
    recorded_ticks: u64,
    /// Complete passes over the stream.
    passes: u64,
    outcome: Outcome,
}

impl Client {
    /// Flies the stream's missions in order, pass after pass, until
    /// `seconds` after `start`; the first pass is always complete.
    fn run(
        inputs: &[(MissionSpec, FaultSpec)],
        detectors: &TrainedDetectors,
        start: Instant,
        seconds: f64,
    ) -> Self {
        let mut client = Client::default();
        let outcome = &mut client.outcome;
        let clock = Clock::start();
        'passes: for pass in 0u64.. {
            for (index, &(spec, fault)) in inputs.iter().enumerate() {
                if pass > 0 && start.elapsed().as_secs_f64() >= seconds {
                    break 'passes;
                }
                let cycle = Instant::now();
                let mut outcomes = Vec::with_capacity(SETTINGS.len());
                for setting in SETTINGS {
                    let begin = Instant::now();
                    let result = run_plain(&flight(spec, fault, setting), detectors);
                    client.flight_ms.push(begin.elapsed().as_secs_f64() * 1e3);
                    match result {
                        Ok(mission) => outcomes.push(mission),
                        Err(error) => {
                            outcome.error(format!("run: {error}"));
                            break 'passes;
                        }
                    }
                }
                let recording =
                    record_and_replay(spec, fault, detectors, &outcomes[3], clock, outcome);
                if let Some(recording) = recording {
                    client.record_ns += recording.step_ns(0) + recording.step_ns(1);
                    client.replay_ns += recording.step_ns(2) + recording.step_ns(3);
                    client.recorded_ticks += recording.ticks;
                }
                client.cycle_ms.push(cycle.elapsed().as_secs_f64() * 1e3);
                let outcomes: [MissionOutcome; 4] = outcomes.try_into().expect("four settings");
                match client.reference.get(index) {
                    Some(first) => outcome.check(*first == outcomes, || {
                        format!("seed {}: outcomes differ between passes", spec.seed)
                    }),
                    None => {
                        outcome.check(true, String::new);
                        client.reference.push(outcomes);
                    }
                }
            }
            client.passes += 1;
        }
        client
    }
}

pub fn run(args: &Args, outcome: &mut Outcome, layers: &mut Layers, record: &mut Record) {
    let (detectors, setup_s) = setup::train(outcome);
    let inputs = inputs(args.seed);
    record.shape("missions", MISSIONS as u64);
    record.note(
        "mission_seeds",
        Json::Str(
            inputs.iter().map(|(spec, _)| spec.seed.to_string()).collect::<Vec<_>>().join(","),
        ),
    );
    if args.trace {
        traced(args, &inputs, &detectors, outcome, layers, record);
        return;
    }

    // One client per core, each flying the whole stream.  The host's cores
    // change speed independently of each other, in spells of seconds: a
    // lone client measured whichever core it landed on, and its figures
    // moved by a quarter between runs of the same code.
    let start = Instant::now();
    let clients: Vec<Client> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..record.workers)
            .map(|_| scope.spawn(|| Client::run(&inputs, &detectors, start, args.seconds)))
            .collect();
        handles.into_iter().map(|handle| handle.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();

    let reference = &clients[0].reference;
    for client in &clients {
        outcome.merge(&client.outcome);
        for ((spec, _), (first, own)) in inputs.iter().zip(reference.iter().zip(&client.reference))
        {
            outcome.check(first == own, || {
                format!("seed {}: outcomes differ between clients", spec.seed)
            });
        }
    }
    let flight_ms: Vec<f64> = clients.iter().flat_map(|c| c.flight_ms.iter().copied()).collect();
    let cycle_ms: Vec<f64> = clients.iter().flat_map(|c| c.cycle_ms.iter().copied()).collect();
    let sum = |field: fn(&Client) -> u64| clients.iter().map(field).sum::<u64>();
    let recorded_ticks = sum(|c| c.recorded_ticks) as f64;
    // A cycle flies the four settings and the recorded flight.
    let flights = flight_ms.len() + cycle_ms.len();
    record.shape("clients", clients.len() as u64);
    record.shape("passes", sum(|c| c.passes));
    record.shape("cycles", cycle_ms.len() as u64);
    record.shape("flights", flights as u64);
    shape_from_outcomes(record, reference);
    record.note("flight_p50_ms", Json::Num(median(&flight_ms)));
    if let Some(tail) = tail_json(&flight_ms) {
        record.note("flight_tail_ms", tail);
    }
    record.note("request_p50_ms", Json::Num(median(&cycle_ms)));
    if let Some(tail) = tail_json(&cycle_ms) {
        record.note("request_tail_ms", tail);
    }
    let ticks_per_s = |nanos: u64| Json::Num(recorded_ticks / (nanos as f64 / 1e9));
    record.note("record_ticks_per_s", ticks_per_s(sum(|c| c.record_ns)));
    record.note("replay_ticks_per_s", ticks_per_s(sum(|c| c.replay_ns)));

    let success = |setting: usize| {
        let successes = reference.iter().filter(|outcomes| outcomes[setting].is_success()).count();
        pct(successes as f64, reference.len() as f64)
    };
    outcome.metric("setup_s", setup_s, "s");
    outcome.metric("missions_per_s", flights as f64 / wall, "1/s");
    outcome.metric("request_ms", mean(&cycle_ms), "ms");
    outcome.metric("golden_success_pct", success(0), "%");
    outcome.metric("aad_success_pct", success(3), "%");
}

/// Records the shape and counts of one pass from its outcomes.
fn shape_from_outcomes(record: &mut Record, reference: &[[MissionOutcome; 4]]) {
    let all = || reference.iter().flat_map(|outcomes| outcomes.iter());
    record.shape("ticks_per_pass", all().map(|o| o.pipeline.ticks).sum());
    record.shape("replans_per_pass", all().map(|o| o.pipeline.replans).sum());
    record.shape("recomputations_per_pass", all().map(|o| o.pipeline.total_recomputations()).sum());
    let detector = || all().filter_map(|o| o.detector.as_ref());
    record.shape("alarms_per_pass", detector().map(|d| d.total_alarms()).sum());
    record.count("detector.abandonments_per_pass", detector().map(|d| d.abandonments).sum());
    record.count("faults_fired_per_pass", all().filter(|o| o.fault.is_some()).count() as u64);
    for kernel in mavfi_ppc::KernelId::ALL {
        record.count(
            &format!("kernel.{kernel:?}_per_pass"),
            all().map(|o| o.pipeline.invocations(kernel)).sum(),
        );
    }
}

fn traced(
    args: &Args,
    inputs: &[(MissionSpec, FaultSpec)],
    detectors: &TrainedDetectors,
    outcome: &mut Outcome,
    layers: &mut Layers,
    record: &mut Record,
) {
    let mut tracer = Tracer::new();
    let root = tracer.open("sparse_cruise", None);
    let (collect_s, fit_s) = setup::train_traced(detectors, &mut tracer, root, outcome);
    let flights: Vec<Flight> = inputs
        .iter()
        .flat_map(|&(spec, fault)| SETTINGS.map(|setting| flight(spec, fault, setting)))
        .collect();

    // Every flight through MissionRunner::run (the untraced twin), then
    // through the traced loop, which must reproduce its outcome.
    let mut counts = FlightCounts::default();
    let mut plain: Vec<MissionOutcome> = Vec::with_capacity(flights.len());
    let flights_span = tracer.open("flights", Some(root));
    let mut plain_ns = 0;
    for flight in &flights {
        let begin = tracer.now();
        let result = run_plain(flight, detectors);
        let end = tracer.now();
        tracer.record("mission.untraced", Some(flights_span), begin, end);
        let mission = match result {
            Ok(mission) => mission,
            Err(error) => {
                outcome.error(format!("run: {error}"));
                return;
            }
        };
        let traced = fly(flight, Some(detectors), &mut tracer, flights_span, &mut counts);
        outcome.check(traced == mission, || {
            format!("seed {}: traced loop differs from MissionRunner::run", flight.spec.seed)
        });
        plain_ns += end - begin;
        plain.push(mission);
    }
    let traced_ns: u64 = tracer.durations("mission").iter().sum();
    tracer.close(flights_span);

    // Record, serialise, read back and replay each mission's D&R(A) flight,
    // right after a plain run of the same flight: the record overhead
    // compares the two.
    let section = tracer.open("trace", Some(root));
    let mut recordings = Vec::new();
    let (mut recorded_sum, mut twin_sum) = (0.0, 0.0);
    for (mission, &(spec, fault)) in inputs.iter().enumerate() {
        let plain_a = &plain[mission * SETTINGS.len() + 3];
        let begin = tracer.now();
        let twin = run_plain(&flight(spec, fault, SETTINGS[3]), detectors);
        let end = tracer.now();
        tracer.record("trace.plain_twin", Some(section), begin, end);
        outcome.check(twin.as_ref().ok() == Some(plain_a), || {
            format!("seed {}: D&R(A) flight differs between runs", spec.seed)
        });
        let clock = tracer.clock();
        if let Some(recording) = record_and_replay(spec, fault, detectors, plain_a, clock, outcome)
        {
            for (step, name) in Recording::STEPS.iter().enumerate() {
                tracer.record(
                    name,
                    Some(section),
                    recording.stamps[step],
                    recording.stamps[step + 1],
                );
            }
            recorded_sum += recording.step_ns(0) as f64;
            twin_sum += (end - begin) as f64;
            recordings.push(recording);
        }
    }
    tracer.close(section);
    tracer.close(root);

    let step_total =
        |step: usize| -> f64 { recordings.iter().map(|r| r.step_ns(step) as f64).sum() };
    let ticks: f64 = recordings.iter().map(|r| r.ticks as f64).sum();
    let bytes: f64 = recordings.iter().map(|r| r.bytes as f64).sum();
    let count = recordings.len() as u64;

    let tree = tracer.tree();
    let mission = tree.layer("mission").total as f64;
    let planning = (tree.layer("ppc.plan").total + tree.layer("ppc.recompute").total) as f64;
    let capture_and_perception = ["sim.capture", "ppc.pointcloud", "ppc.octomap", "ppc.collision"]
        .iter()
        .map(|name| tree.layer(name).total as f64)
        .sum::<f64>();
    record.note("planning_share_of_mission_pct", Json::Num(pct(planning, mission)));
    record.note(
        "capture_and_perception_share_of_mission_pct",
        Json::Num(pct(capture_and_perception, mission)),
    );
    record.flights(&counts, 1);

    layers.flights(&tracer, &tree, &counts, 1);
    layers.set("trace.record_overhead_pct", pct(recorded_sum - twin_sum, twin_sum));
    layers.set("trace.encode_us", per(step_total(1) / 1e3, count));
    layers.set("trace.decode_us", per(step_total(2) / 1e3, count));
    layers.set("trace.bytes_per_tick", bytes / ticks);
    layers.set("trace.record_ticks_per_s", ticks / ((step_total(0) + step_total(1)) / 1e9));
    layers.set("replay.tick_us", step_total(3) / 1e3 / ticks);
    layers.set("replay.ticks_per_s", ticks / ((step_total(2) + step_total(3)) / 1e9));
    layers.set("training.collect_s", collect_s);
    layers.set("training.fit_s", fit_s);
    layers.set("tracing.overhead_pct", pct(traced_ns as f64 - plain_ns as f64, plain_ns as f64));
    crate::finish_trace(&tracer, &tree, args, layers, record);
}
