//! `dense_campaign`: Dense fault-injection campaigns through library
//! `CampaignExecutor::run_campaign` on every core, one after another.

use std::time::Instant;

use mavfi::exec::{CampaignExecutor, CampaignFoldState, SchemeConfig};
use mavfi::{CampaignConfig, EnvironmentCampaign};
use mavfi_ppc::states::Stage;
use mavfi_sim::EnvironmentKind;

use crate::campaign::{self, Fold};
use crate::flight::FlightCounts;
use crate::report::{another, mean, median, pct, Json, Outcome};
use crate::spans::Tracer;
use crate::{setup, Args, Layers, Record};

/// Base seed of the campaign every run flies.  Dense campaign cost and
/// success rates swing widely with the base seed: over base seeds 1–20 a
/// campaign took 15–45 s on two cores and its golden success ranged from
/// 25% to 100%, more than any affordable run length averages out.  So this
/// workload flies one representative campaign and does not vary it with
/// the run's seed: 40 missions over 12 Dense environments, about 20 s on two
/// cores, with 75% golden, 83% injected, 75% D&R(G) and 75% D&R(A) success.
const BASE_SEED: u64 = 9;

/// The campaign for a base seed: 4 golden runs and 4 injections per stage,
/// each injection flown unprotected, with D&R(G) and with D&R(A).
fn config(base_seed: u64) -> CampaignConfig {
    CampaignConfig {
        environment: EnvironmentKind::Dense,
        golden_runs: 4,
        injections_per_stage: 4,
        base_seed,
        mission_time_budget: 60.0,
    }
}

/// Records the detectors' recomputation counts of the first campaign (all
/// repetitions fly the same campaign).
fn record_campaign(record: &mut Record, campaign: &EnvironmentCampaign) {
    let total = |per_stage: &[(Stage, u64)]| per_stage.iter().map(|(_, count)| count).sum();
    record.count("gaussian_recomputations", total(&campaign.gaussian_recomputations));
    record.count("autoencoder_recomputations", total(&campaign.autoencoder_recomputations));
}

pub fn run(args: &Args, outcome: &mut Outcome, layers: &mut Layers, record: &mut Record) {
    let (detectors, setup_s) = setup::train(outcome);
    let scheme = SchemeConfig::shared(detectors.clone());
    let executor = CampaignExecutor::new(record.workers);
    let config = config(BASE_SEED);
    let missions = campaign::missions(&config);
    record.shape("base_seed", config.base_seed);
    record.shape("missions_per_campaign", missions as u64);
    record.shape("chunks_per_campaign", executor.campaign_chunk_count(&config) as u64);

    if !args.trace {
        let mut campaigns: Vec<EnvironmentCampaign> = Vec::new();
        let mut latencies = Vec::new();
        let start = Instant::now();
        while another(latencies.len(), start.elapsed().as_secs_f64(), args.seconds) {
            let begin = Instant::now();
            let result = executor.run_campaign(&config, &scheme);
            latencies.push(begin.elapsed().as_secs_f64() * 1e3);
            match result {
                Ok(campaign) => {
                    if let Some(first) = campaigns.first() {
                        outcome.check(*first == campaign, || {
                            "campaign differs between repetitions".to_owned()
                        });
                    } else {
                        outcome.check(true, String::new);
                    }
                    campaigns.push(campaign);
                }
                Err(error) => {
                    outcome.error(format!("run_campaign: {error}"));
                    break;
                }
            }
        }
        let wall = start.elapsed().as_secs_f64();
        record.shape("campaigns", latencies.len() as u64);
        record.shape("missions", (missions * latencies.len()) as u64);
        if let Some(first) = campaigns.first() {
            record_campaign(record, first);
        }
        outcome.metric("setup_s", setup_s, "s");
        record.note("mean_missions_per_s", Json::Num((missions * latencies.len()) as f64 / wall));
        if let Some(first) = campaigns.first() {
            record.note("golden_mean_ticks", Json::Num(first.golden_mean_ticks));
        }
        record.note("request_p50_ms", Json::Num(median(&latencies)));
        let request_ms = mean(&latencies);
        outcome.metric("missions_per_s", missions as f64 / (request_ms / 1e3), "1/s");
        outcome.metric("request_ms", request_ms, "ms");
        outcome.metric(
            "golden_success_pct",
            campaign::success_pct(campaigns.iter().map(|c| &c.golden)),
            "%",
        );
        outcome.metric(
            "aad_success_pct",
            campaign::success_pct(campaigns.iter().map(|c| &c.autoencoder)),
            "%",
        );
        return;
    }

    // Traced run: the library campaign once on every worker, each chunk
    // alone, then every mission through the traced loop.
    let mut tracer = Tracer::new();
    let root = tracer.open("dense_campaign", None);
    let (collect_s, fit_s) = setup::train_traced(&detectors, &mut tracer, root, outcome);

    let (library, library_ns) =
        tracer.time("exec.run_campaign", Some(root), || executor.run_campaign(&config, &scheme));
    let library = match library {
        Ok(campaign) => campaign,
        Err(error) => {
            outcome.error(format!("run_campaign: {error}"));
            return;
        }
    };
    outcome.check(true, String::new);

    let chunks = executor.campaign_chunk_count(&config);
    let mut chunk_s = Vec::with_capacity(chunks);
    let mut state = CampaignFoldState::new(&config);
    let alone = tracer.open("exec.chunks_alone", Some(root));
    for chunk in 0..chunks {
        let (result, nanos) = tracer.time("exec.chunk", Some(alone), || {
            executor.run_campaign_chunks(&config, &scheme, chunk..chunk + 1, &mut state)
        });
        chunk_s.push(nanos as f64 / 1e9);
        if let Err(error) = result {
            outcome.error(format!("run_campaign_chunks({chunk}): {error}"));
        }
    }
    let alone_ns = tracer.close(alone);
    outcome.check(state.finish(&config) == library, || {
        "chunks run alone fold to a different campaign".to_owned()
    });

    let mut counts = FlightCounts::default();
    let flights = tracer.open("flights", Some(root));
    let fold: Fold = campaign::fly_traced(&config, &detectors, &mut tracer, flights, &mut counts);
    let traced_ns = tracer.close(flights);
    outcome.check(fold.matches(&config, &library), || {
        "the traced loop's fold differs from run_campaign".to_owned()
    });
    tracer.close(root);

    let tree = tracer.tree();
    let mission = tree.layer("mission");
    let planning = tree.layer("ppc.plan").total + tree.layer("ppc.recompute").total;
    record.note(
        "plan_and_recompute_share_of_mission_pct",
        Json::Num(pct(planning as f64, mission.total as f64)),
    );
    record_campaign(record, &library);
    record.flights(&counts, 1);

    let chunk_total: f64 = chunk_s.iter().sum();
    layers.flights(&tracer, &tree, &counts, 1);
    layers.set("exec.chunks", chunks as f64);
    layers.set("exec.chunk_s_max", chunk_s.iter().copied().fold(0.0, f64::max));
    layers.set("exec.chunk_s_mean", chunk_total / chunks.max(1) as f64);
    layers.set(
        "exec.efficiency_pct",
        pct(chunk_total, record.workers as f64 * library_ns as f64 / 1e9),
    );
    layers.set("training.collect_s", collect_s);
    layers.set("training.fit_s", fit_s);
    // The untraced twin of the traced loop: the same missions, chunk by
    // chunk on one worker.
    layers.set("tracing.overhead_pct", pct(traced_ns as f64 - alone_ns as f64, alone_ns as f64));
    crate::finish_trace(&tracer, &tree, args, layers, record);
}
