//! Named counters and percentile histograms.
//!
//! The simulator already counts messages, bytes and hash operations
//! ([`snd_sim::metrics::Metrics`]); the [`MetricsRegistry`] layers a
//! string-keyed registry on top so experiments can mix those transport
//! counters with their own domain metrics (per-phase sim-time, validation
//! accept/reject tallies, …) and export everything uniformly in a run
//! report. Dotted key paths (`sim.unicasts_sent`, `phase.hello.us`) keep
//! the namespace self-describing.

use std::collections::BTreeMap;

use parking_lot::Mutex;
use serde::Serialize;
use snd_sim::ledger::CommLedger;
use snd_sim::metrics::Metrics;
use snd_sim::time::SimTime;

use crate::event::{Event, EventRecord, Phase};

/// A distribution of `u64` samples with nearest-rank percentiles.
///
/// Reads (`percentile`, `summary`, …) take `&self`: the sample buffer sits
/// behind a mutex and is sorted lazily on first read after a write, so
/// snapshotting never needs a mutable registry. Writes (`record`, `merge`)
/// still take `&mut self` and go through `Mutex::get_mut`, which is
/// lock-free.
#[derive(Debug, Default)]
pub struct Histogram {
    inner: Mutex<HistogramInner>,
}

#[derive(Debug, Clone, Default)]
struct HistogramInner {
    samples: Vec<u64>,
    sorted: bool,
}

impl HistogramInner {
    /// Sorts lazily; afterwards `samples` is ascending.
    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        Histogram {
            inner: Mutex::new(self.inner.lock().clone()),
        }
    }
}

impl PartialEq for Histogram {
    /// Distribution equality: same samples regardless of insertion order.
    fn eq(&self, other: &Histogram) -> bool {
        if std::ptr::eq(self, other) {
            return true;
        }
        let mut a = self.inner.lock();
        a.ensure_sorted();
        let mut b = other.inner.lock();
        b.ensure_sorted();
        a.samples == b.samples
    }
}

impl Eq for Histogram {}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        let inner = self.inner.get_mut();
        inner.samples.push(value);
        inner.sorted = false;
    }

    /// Absorbs every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        let theirs = other.inner.lock();
        let inner = self.inner.get_mut();
        inner.samples.extend_from_slice(&theirs.samples);
        inner.sorted = false;
    }

    /// The samples recorded so far, in unspecified order.
    pub fn samples(&self) -> Vec<u64> {
        self.inner.lock().samples.clone()
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.inner.lock().samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().samples.is_empty()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.inner.lock().samples.iter().sum()
    }

    /// Arithmetic mean, 0 when empty.
    pub fn mean(&self) -> f64 {
        let inner = self.inner.lock();
        if inner.samples.is_empty() {
            0.0
        } else {
            inner.samples.iter().sum::<u64>() as f64 / inner.samples.len() as f64
        }
    }

    /// Nearest-rank percentile: the smallest sample such that at least
    /// `p` percent of samples are ≤ it. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 100.0`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        let mut inner = self.inner.lock();
        if inner.samples.is_empty() {
            return None;
        }
        inner.ensure_sorted();
        Some(nearest_rank(&inner.samples, p))
    }

    /// Smallest sample, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        self.inner.lock().samples.iter().copied().min()
    }

    /// Largest sample, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.inner.lock().samples.iter().copied().max()
    }

    /// The exportable five-number-ish summary.
    pub fn summary(&self) -> HistogramSummary {
        let mut inner = self.inner.lock();
        if inner.samples.is_empty() {
            return HistogramSummary::default();
        }
        inner.ensure_sorted();
        let s = &inner.samples;
        let sum: u64 = s.iter().sum();
        HistogramSummary {
            count: s.len() as u64,
            sum,
            mean: sum as f64 / s.len() as f64,
            min: s[0],
            max: s[s.len() - 1],
            p50: nearest_rank(s, 50.0),
            p90: nearest_rank(s, 90.0),
            p99: nearest_rank(s, 99.0),
        }
    }
}

/// Nearest-rank lookup over an ascending, non-empty slice:
/// rank = ceil(p/100 · n), clamped to [1, n].
fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Percentile summary of one [`Histogram`], as exported in run reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median (nearest rank).
    pub p50: u64,
    /// 90th percentile (nearest rank).
    pub p90: u64,
    /// 99th percentile (nearest rank).
    pub p99: u64,
}

/// String-keyed counters and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to the named counter, creating it at zero first.
    pub fn inc(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets the named counter to an absolute value.
    pub fn set(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Reads a counter, 0 if never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Adds one sample to the named histogram, creating it empty first.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// The named histogram, if any sample was ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Folds another registry into this one: counters add, histograms
    /// concatenate their samples. The workhorse of multi-trial merges —
    /// each trial aggregates its own events locally (see
    /// [`crate::recorder::RingRecorder`]) and the row registry absorbs
    /// them here.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, &value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, histogram) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_default()
                .merge(histogram);
        }
    }

    /// Absorbs a simulator's cost metrics under the `sim.` prefix:
    /// aggregate counters (`sim.unicasts_sent`, `sim.bytes_sent`,
    /// `sim.hash_ops`, `sim.drops.<Reason>`, …) and per-node distributions
    /// (`sim.node.unicasts_sent` holds one sample per touched node).
    pub fn ingest_sim(&mut self, metrics: Metrics<'_>) {
        let totals = metrics.totals();
        self.set("sim.unicasts_sent", totals.unicasts_sent);
        self.set("sim.broadcasts_sent", totals.broadcasts_sent);
        self.set("sim.received", totals.received);
        self.set("sim.bytes_sent", totals.bytes_sent);
        self.set("sim.bytes_received", totals.bytes_received);
        self.set("sim.hash_ops", metrics.hash_ops());
        self.set("sim.drops", metrics.total_drops());
        for (reason, count) in metrics.drop_counts() {
            self.set(&format!("sim.drops.{reason:?}"), count);
        }
        if metrics.total_faults() > 0 {
            self.set("sim.faults", metrics.total_faults());
        }
        for (kind, count) in metrics.fault_counts() {
            self.set(&format!("sim.faults.{kind:?}"), count);
        }
        for (_, c) in metrics.per_node() {
            self.observe("sim.node.unicasts_sent", c.unicasts_sent);
            self.observe("sim.node.broadcasts_sent", c.broadcasts_sent);
            self.observe("sim.node.received", c.received);
            self.observe("sim.node.bytes_sent", c.bytes_sent);
            self.observe("sim.node.bytes_received", c.bytes_received);
        }
    }

    /// Absorbs a simulator's communication ledger under the `comm.`
    /// prefix (DESIGN.md §13): aggregate message/frame/energy totals,
    /// drop reasons (`comm.drops.<Reason>`), per-phase and per-kind
    /// breakdowns, the top-3 talkers by radio bytes, a per-mille load
    /// imbalance ratio, and per-node distributions
    /// (`comm.node.tx_bytes` holds one sample per node the ledger saw).
    ///
    /// Everything exported here is derived from seed-deterministic
    /// ledger state, so `comm.*` is byte-identical across `SND_THREADS`
    /// (DESIGN.md §9).
    pub fn ingest_ledger(&mut self, ledger: &CommLedger) {
        let t = ledger.totals();
        self.set("comm.tx_msgs", t.tx_msgs);
        self.set("comm.tx_bytes", t.tx_bytes);
        self.set("comm.tx_frames", t.tx_frames);
        self.set("comm.tx_frame_bytes", t.tx_frame_bytes);
        self.set("comm.rx_msgs", t.rx_msgs);
        self.set("comm.rx_bytes", t.rx_bytes);
        self.set("comm.delivered_frames", t.delivered_frames);
        self.set("comm.delivered_bytes", t.delivered_bytes);
        self.set("comm.dropped_frames", t.dropped_frames);
        self.set("comm.dropped_bytes", t.dropped_bytes);
        self.set("comm.retransmissions", t.retransmissions);
        self.set("comm.tx_energy_nj", t.tx_energy_nj);
        self.set("comm.rx_energy_nj", t.rx_energy_nj);
        self.set("comm.msg_ids_issued", ledger.issued());
        for (&reason, &count) in &t.drops {
            self.set(&format!("comm.drops.{reason:?}"), count);
        }
        for (phase, agg) in ledger.phases() {
            self.set(&format!("comm.phase.{phase}.tx_msgs"), agg.tx_msgs);
            self.set(&format!("comm.phase.{phase}.tx_bytes"), agg.tx_bytes);
            self.set(&format!("comm.phase.{phase}.rx_msgs"), agg.rx_msgs);
            self.set(&format!("comm.phase.{phase}.rx_bytes"), agg.rx_bytes);
            self.set(
                &format!("comm.phase.{phase}.dropped_frames"),
                agg.dropped_frames,
            );
            self.set(
                &format!("comm.phase.{phase}.retransmissions"),
                agg.retransmissions,
            );
            self.set(
                &format!("comm.phase.{phase}.tx_energy_nj"),
                agg.tx_energy_nj,
            );
            self.set(
                &format!("comm.phase.{phase}.rx_energy_nj"),
                agg.rx_energy_nj,
            );
        }
        for (kind, agg) in ledger.kinds() {
            self.set(&format!("comm.kind.{kind}.tx_msgs"), agg.tx_msgs);
            self.set(&format!("comm.kind.{kind}.tx_bytes"), agg.tx_bytes);
        }
        let mut loads: Vec<(snd_topology::NodeId, u64, u64)> = ledger
            .per_node()
            .map(|(id, c)| (id, c.bytes(), c.tx_bytes))
            .collect();
        for (_, comm) in ledger.per_node() {
            self.observe("comm.node.tx_bytes", comm.tx_bytes);
            self.observe("comm.node.rx_bytes", comm.rx_bytes);
            self.observe("comm.node.bytes", comm.bytes());
            self.observe("comm.node.tx_msgs", comm.tx_msgs);
            self.observe("comm.node.energy_nj", comm.energy_nj());
        }
        if !loads.is_empty() {
            // Hottest radios first; ties break on node id so the export
            // is stable.
            loads.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            for (i, (id, bytes, tx_bytes)) in loads.iter().take(3).enumerate() {
                self.set(&format!("comm.top_talker.{i}.node"), id.0);
                self.set(&format!("comm.top_talker.{i}.bytes"), *bytes);
                self.set(&format!("comm.top_talker.{i}.tx_bytes"), *tx_bytes);
            }
            let total: u64 = loads.iter().map(|(_, b, _)| b).sum();
            let mean = total as f64 / loads.len() as f64;
            if mean > 0.0 {
                let imbalance = (loads[0].1 as f64 / mean * 1000.0).round() as u64;
                self.set("comm.imbalance_x1000", imbalance);
            }
        }
    }

    /// Distills a recorded event stream into registry metrics; see
    /// [`EventIngester::ingest`] for the per-event mapping.
    pub fn ingest_events(&mut self, events: &[EventRecord]) {
        let mut ingester = EventIngester::new();
        for rec in events {
            ingester.ingest(self, rec);
        }
        ingester.flush(self);
    }

    /// Freezes the registry into its exportable form.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self.counters.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
        }
    }
}

/// Incremental event-stream aggregation.
///
/// [`MetricsRegistry::ingest_events`] needs the whole stream in memory;
/// this is the streaming form: feed it one [`EventRecord`] at a time (it
/// keeps the open-phase state between calls) and, after a final
/// [`EventIngester::flush`], the registry holds exactly what a batch
/// ingest of the full stream would have produced.
/// [`crate::recorder::RingRecorder`] runs one of these on every recorded
/// event so aggregate metrics stay full-fidelity even when the retained
/// raw stream is bounded.
///
/// The hot counters (one bump per *message* at 100k+ nodes) accumulate in
/// plain `u64` fields rather than going through the string-keyed registry
/// each time — `MetricsRegistry::inc` allocates its key — and are
/// published wholesale by `flush`. Only the rare per-phase span histogram
/// writes straight through.
#[derive(Debug, Clone, Default)]
pub struct EventIngester {
    open: BTreeMap<(u64, Phase), SimTime>,
    tallies: EventTallies,
}

/// Buffered event counters; field order mirrors the flush table below.
#[derive(Debug, Clone, Copy, Default)]
struct EventTallies {
    validation_accepted: u64,
    validation_rejected: u64,
    tentative_added: u64,
    records_collected: u64,
    records_rejected: u64,
    commitments_ok: u64,
    commitments_bad: u64,
    evidence_buffered: u64,
    key_erasures: u64,
    compromises: u64,
    replicas: u64,
    sybil_claims: u64,
    far_links: u64,
    radio_drops: u64,
    faults_injected: u64,
    msg_sent: u64,
    msg_delivered: u64,
    msg_dropped: u64,
}

impl EventIngester {
    /// A fresh ingester with no open phases.
    pub fn new() -> Self {
        EventIngester::default()
    }

    /// Folds one event into the ingester (and, for phase spans, straight
    /// into `registry`): per-phase sim-time histograms (`phase.<name>.us`,
    /// one sample per completed span), validation accept/reject counters,
    /// per-step protocol forensics tallies (tentative adds, record
    /// collections, commitment checks, evidence) and counts of erasures,
    /// adversary actions and traced drops. Counter tallies buffer
    /// internally until [`EventIngester::flush`].
    pub fn ingest(&mut self, registry: &mut MetricsRegistry, rec: &EventRecord) {
        let t = &mut self.tallies;
        match &rec.event {
            Event::PhaseStart {
                wave,
                phase,
                sim_time,
            } => {
                self.open.insert((*wave, *phase), *sim_time);
            }
            Event::PhaseEnd {
                wave,
                phase,
                sim_time,
            } => {
                if let Some(start) = self.open.remove(&(*wave, *phase)) {
                    let us = (*sim_time - start).as_micros();
                    registry.observe(&format!("phase.{}.us", phase.name()), us);
                }
            }
            Event::ValidationDecision { accepted: true, .. } => t.validation_accepted += 1,
            Event::ValidationDecision {
                accepted: false, ..
            } => t.validation_rejected += 1,
            Event::TentativeAdded { .. } => t.tentative_added += 1,
            Event::RecordCollected {
                authenticated: true,
                ..
            } => t.records_collected += 1,
            Event::RecordCollected {
                authenticated: false,
                ..
            } => t.records_rejected += 1,
            Event::CommitmentChecked { ok: true, .. } => t.commitments_ok += 1,
            Event::CommitmentChecked { ok: false, .. } => t.commitments_bad += 1,
            Event::EvidenceBuffered { .. } => t.evidence_buffered += 1,
            Event::MasterKeyErased { .. } => t.key_erasures += 1,
            Event::NodeCompromised { .. } => t.compromises += 1,
            Event::ReplicaPlaced { .. } => t.replicas += 1,
            Event::SybilClaimed { .. } => t.sybil_claims += 1,
            Event::FarLinkPlanted { .. } => t.far_links += 1,
            Event::RadioDrop { .. } => t.radio_drops += 1,
            Event::FaultInjected { .. } => t.faults_injected += 1,
            Event::MsgSent { .. } => t.msg_sent += 1,
            Event::MsgDelivered { .. } => t.msg_delivered += 1,
            Event::MsgDropped { .. } => t.msg_dropped += 1,
            Event::WaveStart { .. } | Event::WaveEnd { .. } => {}
        }
    }

    /// Publishes the buffered counter tallies into `registry` and resets
    /// them. Keys that never fired are not created, matching the
    /// per-event `inc` behavior this replaces.
    pub fn flush(&mut self, registry: &mut MetricsRegistry) {
        let t = std::mem::take(&mut self.tallies);
        for (key, n) in [
            ("validation.accepted", t.validation_accepted),
            ("validation.rejected", t.validation_rejected),
            ("protocol.tentative_added", t.tentative_added),
            ("protocol.records_collected", t.records_collected),
            ("protocol.records_rejected", t.records_rejected),
            ("protocol.commitments_ok", t.commitments_ok),
            ("protocol.commitments_bad", t.commitments_bad),
            ("protocol.evidence_buffered", t.evidence_buffered),
            ("protocol.key_erasures", t.key_erasures),
            ("adversary.compromises", t.compromises),
            ("adversary.replicas", t.replicas),
            ("adversary.sybil_claims", t.sybil_claims),
            ("adversary.far_links", t.far_links),
            ("trace.radio_drops", t.radio_drops),
            ("trace.faults_injected", t.faults_injected),
            ("trace.msg_sent", t.msg_sent),
            ("trace.msg_delivered", t.msg_delivered),
            ("trace.msg_dropped", t.msg_dropped),
        ] {
            if n > 0 {
                registry.inc(key, n);
            }
        }
    }
}

/// Serializable snapshot of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use snd_topology::NodeId;

    #[test]
    fn percentiles_nearest_rank() {
        let mut h = Histogram::new();
        for v in [15, 20, 35, 40, 50] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), Some(15));
        assert_eq!(h.percentile(30.0), Some(20));
        assert_eq!(h.percentile(40.0), Some(20));
        assert_eq!(h.percentile(50.0), Some(35));
        assert_eq!(h.percentile(100.0), Some(50));
        assert_eq!(h.min(), Some(15));
        assert_eq!(h.max(), Some(50));
        assert_eq!(h.mean(), 32.0);
    }

    #[test]
    fn percentile_of_empty_is_none() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), None);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn histograms_merge_and_compare_as_distributions() {
        let mut a = Histogram::new();
        a.record(3);
        a.record(1);
        let mut b = Histogram::new();
        b.record(1);
        b.record(3);
        assert_eq!(a, b, "insertion order must not matter");
        let mut c = Histogram::new();
        c.record(2);
        a.merge(&c);
        assert_eq!(a.count(), 3);
        assert_eq!(a.percentile(50.0), Some(2));
        // Reads leave the observable distribution intact.
        assert_eq!(a.sum(), 6);
    }

    #[test]
    fn percentile_single_sample() {
        let mut h = Histogram::new();
        h.record(7);
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(7));
        }
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_rejects_out_of_range() {
        let mut h = Histogram::new();
        h.record(1);
        h.percentile(101.0);
    }

    #[test]
    fn recording_after_percentile_resorts() {
        let mut h = Histogram::new();
        h.record(10);
        assert_eq!(h.percentile(50.0), Some(10));
        h.record(1);
        assert_eq!(h.percentile(50.0), Some(1));
    }

    #[test]
    fn counters_aggregate() {
        let mut r = MetricsRegistry::new();
        r.inc("a", 2);
        r.inc("a", 3);
        r.inc("b", 1);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("b"), 1);
        assert_eq!(r.counter("missing"), 0);
        r.set("a", 9);
        assert_eq!(r.counter("a"), 9);
        let names: Vec<&str> = r.counters().map(|(k, _)| k).collect();
        assert_eq!(names, ["a", "b"]);
    }

    /// Nodes 1 and 2 within radio range of each other, node 3 far away.
    fn small_sim() -> snd_sim::network::Simulator {
        use snd_topology::unit_disk::RadioSpec;
        use snd_topology::{Deployment, Field, Point};

        let mut d = Deployment::empty(Field::square(200.0));
        d.place(NodeId(1), Point::new(10.0, 10.0));
        d.place(NodeId(2), Point::new(20.0, 10.0));
        d.place(NodeId(3), Point::new(190.0, 190.0));
        snd_sim::network::Simulator::new(d, RadioSpec::uniform(50.0), 42)
    }

    #[test]
    fn ingest_sim_mirrors_totals() {
        let mut sim = small_sim();
        for _ in 0..4 {
            sim.unicast(NodeId(1), NodeId(2), vec![0u8; 25]);
        }
        sim.unicast(NodeId(2), NodeId(1), Vec::new());
        sim.unicast(NodeId(2), NodeId(3), Vec::new()); // out of range
        sim.advance(snd_sim::time::SimDuration::from_millis(5));
        sim.metrics().hash_counter().add(11);

        let mut r = MetricsRegistry::new();
        r.ingest_sim(sim.metrics());
        assert_eq!(r.counter("sim.unicasts_sent"), 6);
        assert_eq!(r.counter("sim.bytes_sent"), 100);
        assert_eq!(r.counter("sim.received"), 5);
        assert_eq!(r.counter("sim.hash_ops"), 11);
        assert_eq!(r.counter("sim.drops"), 1);
        assert_eq!(r.counter("sim.drops.OutOfRange"), 1);
        let h = r.histogram("sim.node.unicasts_sent").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(100.0), Some(4));
    }

    #[test]
    fn ingest_ledger_exports_comm_counters() {
        use snd_sim::ledger::TxMeta;
        use snd_sim::network::Simulator;
        use snd_sim::time::SimDuration;
        use snd_topology::unit_disk::RadioSpec;
        use snd_topology::{Deployment, Field, Point};

        let mut d = Deployment::empty(Field::square(100.0));
        d.place(NodeId(1), Point::new(10.0, 10.0));
        d.place(NodeId(2), Point::new(20.0, 10.0));
        let mut sim = Simulator::new(d, RadioSpec::uniform(50.0), 42);
        sim.set_comm_phase("hello");
        sim.broadcast_meta(NodeId(1), vec![0u8; 9], TxMeta::of("hello"));
        sim.advance(SimDuration::from_millis(10));

        let mut r = MetricsRegistry::new();
        r.ingest_ledger(sim.ledger());
        assert_eq!(r.counter("comm.tx_msgs"), 1);
        assert_eq!(r.counter("comm.tx_bytes"), 9);
        assert_eq!(r.counter("comm.rx_msgs"), 1);
        assert_eq!(r.counter("comm.rx_bytes"), 9);
        assert_eq!(r.counter("comm.tx_frames"), 1);
        assert_eq!(r.counter("comm.delivered_frames"), 1);
        assert_eq!(r.counter("comm.dropped_frames"), 0);
        assert_eq!(r.counter("comm.msg_ids_issued"), 1);
        assert_eq!(r.counter("comm.phase.hello.tx_bytes"), 9);
        assert_eq!(r.counter("comm.kind.hello.tx_msgs"), 1);
        assert!(r.counter("comm.tx_energy_nj") > 0, "energy is estimated");
        assert_eq!(r.counter("comm.top_talker.0.node"), 1);
        assert_eq!(r.counter("comm.top_talker.0.tx_bytes"), 9);
        // Both radios moved 9 bytes, so the load is perfectly balanced.
        assert_eq!(r.counter("comm.imbalance_x1000"), 1000);
        assert_eq!(r.histogram("comm.node.bytes").unwrap().count(), 2);
    }

    #[test]
    fn ingest_events_counts_ledger_lifecycle() {
        let events = vec![
            EventRecord {
                seq: 0,
                event: Event::MsgSent {
                    id: 1,
                    parent: None,
                    from: NodeId(1),
                    to: None,
                    kind: "hello",
                    phase: "hello",
                    bytes: 9,
                    retransmission: false,
                },
            },
            EventRecord {
                seq: 1,
                event: Event::MsgDelivered {
                    id: 1,
                    from: NodeId(1),
                    to: NodeId(2),
                },
            },
            EventRecord {
                seq: 2,
                event: Event::MsgDropped {
                    id: 1,
                    from: NodeId(1),
                    to: NodeId(3),
                    reason: snd_sim::metrics::DropReason::LinkLoss,
                },
            },
        ];
        let mut r = MetricsRegistry::new();
        r.ingest_events(&events);
        assert_eq!(r.counter("trace.msg_sent"), 1);
        assert_eq!(r.counter("trace.msg_delivered"), 1);
        assert_eq!(r.counter("trace.msg_dropped"), 1);
    }

    #[test]
    fn registries_merge_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        a.inc("x", 2);
        a.observe("h", 1);
        let mut b = MetricsRegistry::new();
        b.inc("x", 3);
        b.inc("y", 1);
        b.observe("h", 5);
        b.observe("g", 7);
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.counter("y"), 1);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.histogram("h").unwrap().sum(), 6);
        assert_eq!(a.histogram("g").unwrap().count(), 1);
    }

    #[test]
    fn streaming_ingester_matches_batch_ingest() {
        let events = vec![
            EventRecord {
                seq: 0,
                event: Event::PhaseStart {
                    wave: 1,
                    phase: Phase::Commit,
                    sim_time: SimTime::from_millis(1),
                },
            },
            EventRecord {
                seq: 1,
                event: Event::TentativeAdded {
                    node: NodeId(1),
                    peer: NodeId(2),
                },
            },
            EventRecord {
                seq: 2,
                event: Event::RecordCollected {
                    node: NodeId(1),
                    from: NodeId(2),
                    authenticated: true,
                },
            },
            EventRecord {
                seq: 3,
                event: Event::CommitmentChecked {
                    node: NodeId(2),
                    from: NodeId(1),
                    ok: false,
                },
            },
            EventRecord {
                seq: 4,
                event: Event::EvidenceBuffered {
                    node: NodeId(2),
                    from: NodeId(3),
                },
            },
            EventRecord {
                seq: 5,
                event: Event::PhaseEnd {
                    wave: 1,
                    phase: Phase::Commit,
                    sim_time: SimTime::from_millis(4),
                },
            },
        ];
        let mut batch = MetricsRegistry::new();
        batch.ingest_events(&events);
        let mut streamed = MetricsRegistry::new();
        let mut ingester = EventIngester::new();
        for rec in &events {
            ingester.ingest(&mut streamed, rec);
        }
        ingester.flush(&mut streamed);
        assert_eq!(batch.snapshot(), streamed.snapshot());
        assert_eq!(streamed.counter("protocol.tentative_added"), 1);
        assert_eq!(streamed.counter("protocol.records_collected"), 1);
        assert_eq!(streamed.counter("protocol.commitments_bad"), 1);
        assert_eq!(streamed.counter("protocol.evidence_buffered"), 1);
        assert_eq!(streamed.histogram("phase.commit.us").unwrap().count(), 1);
    }

    #[test]
    fn ingest_sim_exports_fault_counters() {
        use snd_sim::faults::{FaultPlan, FaultSpec};
        use snd_sim::time::{SimDuration, SimTime};

        // Every scheduled frame is duplicated; every node gets a crash
        // window, all of them long after the traffic below.
        let spec = FaultSpec {
            duplicate: 1.0,
            crash: 1.0,
            crash_from: SimTime::from_millis(100),
            crash_until: SimTime::from_millis(100),
            ..FaultSpec::default()
        };
        let mut sim = small_sim();
        sim.set_fault_plan(FaultPlan::new(spec, 7));
        sim.unicast(NodeId(1), NodeId(2), vec![1u8; 4]);
        sim.unicast(NodeId(2), NodeId(1), vec![2u8; 4]);
        sim.advance(SimDuration::from_millis(5));

        let mut r = MetricsRegistry::new();
        r.ingest_sim(sim.metrics());
        assert_eq!(r.counter("sim.faults"), 5);
        assert_eq!(r.counter("sim.faults.Duplicated"), 2);
        assert_eq!(r.counter("sim.faults.NodeCrash"), 3);

        // Fault-free runs export no fault keys at all (schema-neutral).
        let mut clean = MetricsRegistry::new();
        clean.ingest_sim(small_sim().metrics());
        assert!(!clean.counters().any(|(k, _)| k.starts_with("sim.faults")));
    }

    #[test]
    fn ingest_events_counts_fault_injections() {
        use snd_sim::faults::FaultKind;
        let events = vec![EventRecord {
            seq: 0,
            event: Event::FaultInjected {
                kind: FaultKind::Reordered,
                from: NodeId(1),
                to: NodeId(2),
            },
        }];
        let mut r = MetricsRegistry::new();
        r.ingest_events(&events);
        assert_eq!(r.counter("trace.faults_injected"), 1);
    }

    #[test]
    fn ingest_events_builds_phase_histograms() {
        let events = vec![
            EventRecord {
                seq: 0,
                event: Event::PhaseStart {
                    wave: 1,
                    phase: Phase::Hello,
                    sim_time: SimTime::from_millis(2),
                },
            },
            EventRecord {
                seq: 1,
                event: Event::PhaseEnd {
                    wave: 1,
                    phase: Phase::Hello,
                    sim_time: SimTime::from_millis(6),
                },
            },
            EventRecord {
                seq: 2,
                event: Event::ValidationDecision {
                    node: NodeId(9),
                    peer: NodeId(1),
                    shared: 3,
                    required: 2,
                    accepted: true,
                },
            },
            EventRecord {
                seq: 3,
                event: Event::ValidationDecision {
                    node: NodeId(9),
                    peer: NodeId(2),
                    shared: 1,
                    required: 2,
                    accepted: false,
                },
            },
            EventRecord {
                seq: 4,
                event: Event::MasterKeyErased { node: NodeId(9) },
            },
        ];
        let mut r = MetricsRegistry::new();
        r.ingest_events(&events);
        let h = r.histogram("phase.hello.us").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile(50.0), Some(4_000));
        assert_eq!(r.counter("validation.accepted"), 1);
        assert_eq!(r.counter("validation.rejected"), 1);
        assert_eq!(r.counter("protocol.key_erasures"), 1);
    }

    #[test]
    fn snapshot_serializes() {
        let mut r = MetricsRegistry::new();
        r.inc("x", 1);
        r.observe("h", 5);
        let json = serde::json::to_string(&r.snapshot());
        assert!(json.contains(r#""counters":{"x":1}"#), "{json}");
        assert!(json.contains(r#""p50":5"#), "{json}");
    }
}
