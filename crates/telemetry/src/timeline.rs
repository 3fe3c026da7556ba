//! The deterministic mission event timeline.
//!
//! Events are stamped with the **tick index and simulation time** — never
//! wall-clock time — so a timeline is a pure function of the mission's
//! deterministic execution: bit-identical across runs, worker counts and
//! telemetry-capable machines of any speed.  Detection and recovery latency
//! is therefore reported *in ticks*, exactly as the paper frames it.

use mavfi_ppc::states::Stage;
use serde::{Deserialize, Serialize};

/// What happened at a timeline point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TelemetryEvent {
    /// The fault injector corrupted a state (`stage` is the producing
    /// stage when the corrupted scalar is one of the 13 monitored fields).
    FaultInjected {
        /// Stage of the corrupted state, when attributable.
        stage: Option<Stage>,
    },
    /// The anomaly detector raised an alarm against `stage`'s states.
    DetectorAlarm {
        /// Stage of the offending state.
        stage: Stage,
    },
    /// The pipeline recomputed `stage` at a tap's request (recovery).
    Recovery {
        /// The recomputed stage.
        stage: Stage,
    },
    /// The autoencoder scheme abandoned a corrupted state in place.
    Abandonment,
    /// The planning stage regenerated the trajectory.
    Replan,
    /// Collision-check cache activity during a recovery/replan tick (the
    /// per-tick hit/miss delta; steady-state activity lives in the
    /// counters instead of flooding the timeline).
    CacheActivity {
        /// Velocity-ray cache hits this tick.
        ray_hits: u32,
        /// Velocity-ray recomputations this tick.
        ray_misses: u32,
        /// Way-point-scan cache hits this tick.
        scan_hits: u32,
        /// Way-point-scan recomputations this tick.
        scan_misses: u32,
    },
}

impl TelemetryEvent {
    fn discriminant(self) -> u64 {
        match self {
            Self::FaultInjected { .. } => 1,
            Self::DetectorAlarm { .. } => 2,
            Self::Recovery { .. } => 3,
            Self::Abandonment => 4,
            Self::Replan => 5,
            Self::CacheActivity { .. } => 6,
        }
    }

    fn payload(self) -> u64 {
        match self {
            Self::FaultInjected { stage } => stage.map_or(u64::MAX, |s| s.index() as u64),
            Self::DetectorAlarm { stage } | Self::Recovery { stage } => stage.index() as u64,
            Self::Abandonment | Self::Replan => 0,
            Self::CacheActivity { ray_hits, ray_misses, scan_hits, scan_misses } => {
                (u64::from(ray_hits) << 48)
                    | (u64::from(ray_misses) << 32)
                    | (u64::from(scan_hits) << 16)
                    | u64::from(scan_misses)
            }
        }
    }
}

/// One timeline entry: an event stamped with deterministic time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimelineEvent {
    /// Pipeline tick index at which the event was observed (0-based).
    pub tick: u64,
    /// Simulation time at the event (s) — sim time, never wall clock.
    pub sim_time_s: f64,
    /// The event itself.
    pub event: TelemetryEvent,
}

impl TimelineEvent {
    /// Folds this event into an FNV-1a style digest.  Campaign rollups
    /// digest events in deterministic merge order instead of storing every
    /// mission's full timeline.
    pub fn fold_digest(&self, digest: u64) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = digest;
        for word in
            [self.tick, self.sim_time_s.to_bits(), self.event.discriminant(), self.event.payload()]
        {
            hash ^= word;
            hash = hash.wrapping_mul(PRIME);
        }
        hash
    }

    /// The FNV-1a offset basis: the seed for [`TimelineEvent::fold_digest`]
    /// chains.
    pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;
}

/// A bounded, preallocated event timeline.
///
/// `push` never allocates: the backing `Vec` is reserved once at
/// construction.  When the capacity is exhausted the timeline keeps the
/// events recorded *first* and counts the rest in [`EventTimeline::dropped`]
/// — the fault → detect → recover prefix of a mission is the part the
/// paper's latency analysis needs, and "keep earliest" is deterministic by
/// construction (eviction depends only on event order, not timing).
#[derive(Debug, PartialEq)]
pub struct EventTimeline {
    events: Vec<TimelineEvent>,
    capacity: usize,
    dropped: u64,
}

/// Copies keep the full capacity reserved, so `push` stays allocation-free
/// on a copy too; `clone_from` reuses the target's storage.
impl Clone for EventTimeline {
    fn clone(&self) -> Self {
        let mut events = Vec::with_capacity(self.capacity);
        events.extend_from_slice(&self.events);
        Self { events, ..*self }
    }

    fn clone_from(&mut self, source: &Self) {
        self.events.clone_from(&source.events);
        self.events.reserve(source.capacity.saturating_sub(self.events.len()));
        self.capacity = source.capacity;
        self.dropped = source.dropped;
    }
}

impl EventTimeline {
    /// Default capacity: generous for a mission (events are emitted only on
    /// fault/alarm/recovery/replan ticks) at ~160 KiB of preallocation.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a timeline with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a timeline retaining at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { events: Vec::with_capacity(capacity), capacity, dropped: 0 }
    }

    /// Appends an event; allocation-free.  Events beyond the capacity are
    /// counted in [`EventTimeline::dropped`] instead of stored.
    pub fn push(&mut self, event: TimelineEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> &[TimelineEvent] {
        &self.events
    }

    /// Number of events that did not fit in the capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events observed (recorded plus dropped).
    pub fn total(&self) -> u64 {
        self.events.len() as u64 + self.dropped
    }

    /// Digest of the recorded events in order, seeded with
    /// [`TimelineEvent::DIGEST_SEED`].
    pub fn digest(&self) -> u64 {
        self.events.iter().fold(TimelineEvent::DIGEST_SEED, |acc, event| event.fold_digest(acc))
    }
}

impl Default for EventTimeline {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(tick: u64) -> TimelineEvent {
        TimelineEvent { tick, sim_time_s: tick as f64 * 0.1, event: TelemetryEvent::Replan }
    }

    #[test]
    fn capacity_keeps_earliest_events_and_counts_the_rest() {
        let mut timeline = EventTimeline::with_capacity(3);
        for tick in 0..5 {
            timeline.push(event(tick));
        }
        assert_eq!(timeline.events().len(), 3);
        assert_eq!(timeline.events()[2].tick, 2);
        assert_eq!(timeline.dropped(), 2);
        assert_eq!(timeline.total(), 5);
    }

    #[test]
    fn digest_is_order_sensitive_and_reproducible() {
        let mut a = EventTimeline::with_capacity(8);
        let mut b = EventTimeline::with_capacity(8);
        let mut c = EventTimeline::with_capacity(8);
        for tick in 0..4 {
            a.push(event(tick));
            b.push(event(tick));
            c.push(event(3 - tick));
        }
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn events_round_trip_through_serde() {
        let entry = TimelineEvent {
            tick: 41,
            sim_time_s: 4.1,
            event: TelemetryEvent::DetectorAlarm { stage: Stage::Planning },
        };
        let json = serde_json::to_string(&entry).unwrap();
        let back: TimelineEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, entry);
    }
}
