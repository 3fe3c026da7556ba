//! The per-mission telemetry sink: owned by the runner, fed once per tick.
//!
//! The sink is **allocation-free after construction** (histograms and
//! counters are inline arrays, the timeline is preallocated) and **inert
//! w.r.t. results**: it only *reads* pipeline/detector/injector state, so a
//! mission produces bit-identical outcomes with the sink attached or not —
//! `tests/telemetry_determinism.rs` asserts exactly that.

use mavfi_detect::DetectorStats;
use mavfi_fault::FaultRecord;
use mavfi_ppc::perception::CollisionCacheStats;
use mavfi_ppc::pipeline::{PipelineStats, PpcPipeline, PpcTick};
use mavfi_ppc::states::Stage;
use mavfi_ppc::KernelId;
use serde::{Deserialize, Serialize};

use crate::histogram::LatencyHistogram;
use crate::report::MissionReport;
use crate::timeline::{EventTimeline, TelemetryEvent, TimelineEvent};

/// Deterministic activity counters of one mission (or, merged, of a whole
/// campaign).  Every field is a pure function of the mission's execution —
/// no wall clock anywhere — so counters are bit-identical across runs and
/// worker counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryCounters {
    /// Pipeline ticks observed.
    pub ticks: u64,
    /// Replans performed.
    pub replans: u64,
    /// Detector alarms, indexed by [`Stage::index`].
    pub alarms: [u64; Stage::COUNT],
    /// Stage recomputations actually performed, indexed by
    /// [`Stage::index`].
    pub recomputations: [u64; Stage::COUNT],
    /// Corrupted states abandoned in place by the autoencoder scheme.
    pub abandonments: u64,
    /// Collision-check velocity-ray cache hits.
    pub ray_hits: u64,
    /// Collision-check velocity-ray cache misses.
    pub ray_misses: u64,
    /// Collision-check way-point-scan cache hits.
    pub scan_hits: u64,
    /// Collision-check way-point-scan cache misses.
    pub scan_misses: u64,
}

impl TelemetryCounters {
    /// Adds `other` into `self`, field-wise.  Associative and commutative.
    pub fn merge(&mut self, other: &Self) {
        self.ticks += other.ticks;
        self.replans += other.replans;
        for stage in Stage::ALL {
            self.alarms[stage.index()] += other.alarms[stage.index()];
            self.recomputations[stage.index()] += other.recomputations[stage.index()];
        }
        self.abandonments += other.abandonments;
        self.ray_hits += other.ray_hits;
        self.ray_misses += other.ray_misses;
        self.scan_hits += other.scan_hits;
        self.scan_misses += other.scan_misses;
    }

    /// Collision-cache hit rate across both halves (0.0 when no lookups).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.ray_hits + self.scan_hits;
        let lookups = hits + self.ray_misses + self.scan_misses;
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }
}

/// The runtime-toggleable per-mission telemetry sink.
///
/// Construct it (allocating its fixed buffers once), hand it to the runner,
/// and call [`MissionTelemetry::observe_tick`] after every pipeline tick.
/// Wall-clock kernel histograms fill only while the pipeline's timing knob
/// is on; everything else is deterministic counting.
#[derive(Debug)]
pub struct MissionTelemetry {
    kernel_latency: [LatencyHistogram; KernelId::COUNT],
    timeline: EventTimeline,
    counters: TelemetryCounters,
    // Snapshots for per-tick delta derivation.
    last_alarms: [u64; Stage::COUNT],
    last_abandonments: u64,
    last_cache: CollisionCacheStats,
    // Fault → detect → recover latency bookkeeping, in ticks.
    fault_tick: Option<u64>,
    fault_stage: Option<Stage>,
    first_alarm_tick: Option<u64>,
    first_recovery_tick: Option<u64>,
}

/// `clone_from` reuses the target's timeline storage, so a mid-mission
/// flight checkpoint carrying the sink refreshes without allocating.
impl Clone for MissionTelemetry {
    fn clone(&self) -> Self {
        Self { timeline: self.timeline.clone(), ..*self }
    }

    fn clone_from(&mut self, source: &Self) {
        let mut timeline = std::mem::replace(&mut self.timeline, EventTimeline::with_capacity(0));
        timeline.clone_from(&source.timeline);
        *self = Self { timeline, ..*source };
    }
}

impl MissionTelemetry {
    /// Creates a sink with the default timeline capacity.
    pub fn new() -> Self {
        Self::with_timeline_capacity(EventTimeline::DEFAULT_CAPACITY)
    }

    /// Creates a sink whose timeline retains at most `capacity` events.
    pub fn with_timeline_capacity(capacity: usize) -> Self {
        Self {
            kernel_latency: [LatencyHistogram::default(); KernelId::COUNT],
            timeline: EventTimeline::with_capacity(capacity),
            counters: TelemetryCounters::default(),
            last_alarms: [0; Stage::COUNT],
            last_abandonments: 0,
            last_cache: CollisionCacheStats::default(),
            fault_tick: None,
            fault_stage: None,
            first_alarm_tick: None,
            first_recovery_tick: None,
        }
    }

    /// The accumulated deterministic counters.
    pub fn counters(&self) -> &TelemetryCounters {
        &self.counters
    }

    /// The event timeline recorded so far.
    pub fn timeline(&self) -> &EventTimeline {
        &self.timeline
    }

    /// The wall-clock latency histogram of `kernel`.
    pub fn kernel_latency(&self, kernel: KernelId) -> &LatencyHistogram {
        &self.kernel_latency[kernel.index()]
    }

    /// Ticks from fault injection to the first detector alarm, when both
    /// happened.
    pub fn detection_latency_ticks(&self) -> Option<u64> {
        Some(self.first_alarm_tick? - self.fault_tick?)
    }

    /// Ticks from fault injection to the first recovery action
    /// (recomputation or abandonment), when both happened.
    pub fn recovery_latency_ticks(&self) -> Option<u64> {
        Some(self.first_recovery_tick? - self.fault_tick?)
    }

    fn push(&mut self, tick: u64, sim_time_s: f64, event: TelemetryEvent) {
        self.timeline.push(TimelineEvent { tick, sim_time_s, event });
    }

    /// Feeds one completed pipeline tick into the sink.
    ///
    /// Allocation-free: everything lands in preallocated storage.  The sink
    /// only reads its arguments, so calling (or not calling) this cannot
    /// change mission results.
    ///
    /// `tick_index` is the 0-based pipeline tick counter and `sim_time_s`
    /// the simulation clock *after* the tick — the only timestamps that
    /// ever reach the timeline.
    pub fn observe_tick(
        &mut self,
        tick_index: u64,
        sim_time_s: f64,
        tick: &PpcTick,
        pipeline: &PpcPipeline,
        detector: Option<&DetectorStats>,
        fault: Option<&FaultRecord>,
    ) {
        self.counters.ticks += 1;

        // Wall-clock kernel latencies (empty unless pipeline timing is on).
        for (kernel, nanos) in pipeline.last_tick_timings().iter() {
            self.kernel_latency[kernel.index()].record(nanos);
        }

        // Fault injection: the injector's record appears on the tick it
        // fires and stays for the rest of the mission.
        if self.fault_tick.is_none() {
            if let Some(record) = fault {
                self.fault_tick = Some(tick_index);
                self.fault_stage = record.field.map(|field| field.stage());
                self.push(
                    tick_index,
                    sim_time_s,
                    TelemetryEvent::FaultInjected { stage: self.fault_stage },
                );
            }
        }

        // Detector activity, derived from the cumulative stats delta.
        if let Some(stats) = detector {
            for stage in Stage::ALL {
                let alarms = stats.alarms_of(stage);
                let previous = self.last_alarms[stage.index()];
                if alarms > previous {
                    self.counters.alarms[stage.index()] += alarms - previous;
                    self.last_alarms[stage.index()] = alarms;
                    self.push(tick_index, sim_time_s, TelemetryEvent::DetectorAlarm { stage });
                    if self.fault_tick.is_some() && self.first_alarm_tick.is_none() {
                        self.first_alarm_tick = Some(tick_index);
                    }
                }
            }
            if stats.abandonments > self.last_abandonments {
                self.counters.abandonments += stats.abandonments - self.last_abandonments;
                self.last_abandonments = stats.abandonments;
                self.push(tick_index, sim_time_s, TelemetryEvent::Abandonment);
                if self.fault_tick.is_some() && self.first_recovery_tick.is_none() {
                    self.first_recovery_tick = Some(tick_index);
                }
            }
        }

        // Recovery actions the pipeline actually performed this tick.
        for stage in tick.recomputed_stages.iter() {
            self.counters.recomputations[stage.index()] += 1;
            self.push(tick_index, sim_time_s, TelemetryEvent::Recovery { stage });
            if self.fault_tick.is_some() && self.first_recovery_tick.is_none() {
                self.first_recovery_tick = Some(tick_index);
            }
        }

        if tick.replanned {
            self.counters.replans += 1;
            self.push(tick_index, sim_time_s, TelemetryEvent::Replan);
        }

        // Collision-cache counters track the checker's cumulative totals;
        // on recovery/replan ticks the delta also lands on the timeline
        // (that is where the "perception recovery becomes a cache hit"
        // claim is visible).
        let cache = pipeline.collision_cache_stats();
        if (tick.replanned || !tick.recomputed_stages.is_empty()) && cache != self.last_cache {
            self.push(
                tick_index,
                sim_time_s,
                TelemetryEvent::CacheActivity {
                    ray_hits: (cache.ray_hits - self.last_cache.ray_hits) as u32,
                    ray_misses: (cache.ray_misses - self.last_cache.ray_misses) as u32,
                    scan_hits: (cache.scan_hits - self.last_cache.scan_hits) as u32,
                    scan_misses: (cache.scan_misses - self.last_cache.scan_misses) as u32,
                },
            );
        }
        self.counters.ray_hits = cache.ray_hits;
        self.counters.ray_misses = cache.ray_misses;
        self.counters.scan_hits = cache.scan_hits;
        self.counters.scan_misses = cache.scan_misses;
        self.last_cache = cache;
    }

    /// Finalises the mission into a serialisable [`MissionReport`],
    /// folding in the pipeline's per-kernel invocation counts.
    pub fn into_report(self, pipeline_stats: &PipelineStats) -> MissionReport {
        let mut kernel_invocations = [0u64; KernelId::COUNT];
        for kernel in KernelId::ALL {
            kernel_invocations[kernel.index()] = pipeline_stats.invocations(kernel);
        }
        MissionReport {
            counters: self.counters,
            kernel_invocations,
            fault_stage: self.fault_stage,
            detection_latency_ticks: self.detection_latency_ticks(),
            recovery_latency_ticks: self.recovery_latency_ticks(),
            events: self.timeline.events().to_vec(),
            events_dropped: self.timeline.dropped(),
            kernel_latency_ns: self.kernel_latency,
        }
    }
}

impl Default for MissionTelemetry {
    fn default() -> Self {
        Self::new()
    }
}
