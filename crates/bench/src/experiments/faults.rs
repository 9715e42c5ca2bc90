//! Loss-sweep reliability experiment (E9-comparable overhead under
//! faults): discovery completeness, false-edge rate, 2R-safety
//! preservation and message overhead across a loss-rate × retry-budget
//! grid, with duplication, reordering and corruption injected alongside
//! the loss.
//!
//! Every cell runs `trials` paired runs: a clean legacy baseline and a
//! faulty run on the *same* deployment seed. Completeness and false edges
//! are measured against the baseline's functional topology; then the
//! faulty engine is attacked (two compromised nodes replicated across the
//! field, a victim wave beside the replicas) and Definition 6's 2R bound
//! is checked on the degraded graph. Cells fan out over the executor;
//! trials within a cell merge in trial order, so every statistic is
//! byte-identical at any `SND_THREADS`.

use snd_core::model::safety::check_d_safety;
use snd_core::protocol::{DiscoveryEngine, ProtocolConfig, ReliabilityConfig};
use snd_exec::{stream_seed, trial_seed, Executor};
use snd_observe::report::{RawJson, RunReport};
use snd_sim::faults::{FaultPlan, FaultSpec};
use snd_sim::metrics::NodeCounters;
use snd_sim::time::SimDuration;
use snd_topology::unit_disk::RadioSpec;
use snd_topology::{Field, NodeId, Point};
use std::collections::{BTreeMap, BTreeSet};

use crate::report::mirror_totals_into_registry;
use crate::scenario::{paper_scenario, PaperScenario};

/// Stream tag separating the fault plan's seed from every other RNG a
/// trial owns (DESIGN.md §9: streams derive from the trial seed, never
/// share it).
const FAULT_STREAM: u64 = 0xFA;

/// Scenario knobs for the loss sweep. Defaults reproduce the paper-scale
/// grid; tests shrink the scenario for speed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultsConfig {
    /// Field/population/radio parameters (defaults to Section 4.5.1).
    pub scenario: PaperScenario,
    /// Uniform frame-loss rates to sweep.
    pub losses: Vec<f64>,
    /// Retry budgets to sweep (0 = acknowledged but never retransmitted).
    pub retry_budgets: Vec<u32>,
    /// Validation threshold `t`.
    pub threshold: usize,
    /// Paired (baseline, faulty) runs per cell.
    pub trials: usize,
    /// Base seed; each cell derives its own, each trial its own from that.
    pub base_seed: u64,
}

impl Default for FaultsConfig {
    fn default() -> Self {
        FaultsConfig {
            scenario: paper_scenario(),
            losses: vec![0.0, 0.1, 0.3],
            retry_budgets: vec![0, 3, 9],
            threshold: 15,
            trials: 3,
            base_seed: 17,
        }
    }
}

impl FaultsConfig {
    /// The non-loss fault mix injected in every cell: light duplication,
    /// visible reordering, and a trickle of corruption (half detectable at
    /// the CRC, half reaching the protocol's authentication checks).
    pub fn fault_spec(&self, loss: f64) -> FaultSpec {
        FaultSpec {
            loss,
            duplicate: 0.05,
            reorder: 0.10,
            corrupt: 0.02,
            corrupt_detectable: 0.5,
            ..FaultSpec::default()
        }
    }

    /// The ARQ policy for one retry budget: budget+1 Hello rounds, 4→32 ms
    /// exponential backoff, 400 ms per-phase budget (budget 9 reproduces
    /// [`ReliabilityConfig::default`]).
    pub fn reliability(&self, retry_budget: u32) -> ReliabilityConfig {
        ReliabilityConfig {
            enabled: true,
            retry_budget,
            hello_rounds: retry_budget + 1,
            base_backoff: SimDuration::from_millis(4),
            max_backoff: SimDuration::from_millis(32),
            phase_timeout: SimDuration::from_millis(400),
        }
    }

    fn protocol(&self) -> ProtocolConfig {
        ProtocolConfig::with_threshold(self.threshold).without_updates()
    }
}

/// One cell of the loss × retry-budget grid, merged over its trials.
#[derive(Debug, Clone)]
pub struct FaultsRow {
    /// Injected uniform loss rate.
    pub loss: f64,
    /// Retry budget of the ARQ policy.
    pub retry_budget: u32,
    /// Mean fraction of the clean baseline's functional edges the faulty
    /// run recovered.
    pub completeness: f64,
    /// Functional edges present under faults but absent from the clean
    /// baseline, summed over trials. Faults must only *remove* edges.
    pub false_edges: u64,
    /// Whether every trial's degraded post-attack graph held the 2R bound.
    pub safety_ok: bool,
    /// Worst victim containment radius over all trials, meters.
    pub worst_radius: f64,
    /// Messages per node in the faulty runs (E9-comparable).
    pub msgs_per_node: f64,
    /// Reliability-layer resends, summed over trials and waves.
    pub retransmissions: u64,
    /// Links the degraded waves reported unconfirmed, summed over trials.
    pub unconfirmed_links: u64,
    /// Faults the plan actually injected, summed over trials.
    pub faults_injected: u64,
    /// Machine-readable row report.
    pub report: RunReport,
}

/// What one paired trial measured, before merging.
struct Trial {
    completeness: f64,
    false_edges: u64,
    safe: bool,
    radius: f64,
    totals: NodeCounters,
    hash_ops: u64,
    cache_hits: u64,
    retransmissions: u64,
    acks_received: u64,
    duplicates_ignored: u64,
    timed_out_phases: u64,
    unconfirmed: u64,
    faults: u64,
    /// Tier-1 `mem.*` counters of the *faulty* engine (the measured run;
    /// the clean baseline engine is reference-only).
    mem: BTreeMap<String, u64>,
}

/// The full grid: one row per (loss, retry budget) cell, cells fanned out
/// over `exec`, trials merged in order inside each cell.
pub fn fault_rows(cfg: &FaultsConfig, exec: &Executor) -> Vec<FaultsRow> {
    let cells: Vec<(f64, u32)> = cfg
        .losses
        .iter()
        .flat_map(|&l| cfg.retry_budgets.iter().map(move |&b| (l, b)))
        .collect();
    exec.run_over(cfg.base_seed, &cells, |_, &(loss, budget), cell_seed| {
        let trials: Vec<Trial> = (0..cfg.trials)
            .map(|i| cell_trial(cfg, loss, budget, trial_seed(cell_seed, i as u64)))
            .collect();
        merge(cfg, loss, budget, cell_seed, exec, &trials)
    })
}

/// One paired trial: clean baseline and faulty run on the same seed.
fn cell_trial(cfg: &FaultsConfig, loss: f64, budget: u32, seed: u64) -> Trial {
    let s = cfg.scenario;
    let build = || {
        DiscoveryEngine::new(
            Field::square(s.side),
            RadioSpec::uniform(s.range),
            cfg.protocol(),
            seed,
        )
    };

    // Clean legacy baseline: the ground-truth functional topology.
    let mut clean = build();
    let ids = clean.deploy_uniform(s.nodes);
    clean.run_wave(&ids);
    let baseline: BTreeSet<(NodeId, NodeId)> = clean.functional_topology().edges().collect();

    // Faulty run on the identical deployment.
    let mut eng = build();
    eng.set_reliability(cfg.reliability(budget));
    let ids = eng.deploy_uniform(s.nodes);
    eng.sim_mut().set_fault_plan(FaultPlan::new(
        cfg.fault_spec(loss),
        stream_seed(seed, FAULT_STREAM),
    ));
    let r1 = eng.run_wave(&ids);

    let wave1: BTreeSet<NodeId> = ids.iter().copied().collect();
    let degraded: BTreeSet<(NodeId, NodeId)> = eng
        .functional_topology()
        .edges()
        .filter(|(u, v)| wave1.contains(u) && wave1.contains(v))
        .collect();
    let recovered = degraded.intersection(&baseline).count();
    let completeness = if baseline.is_empty() {
        1.0
    } else {
        recovered as f64 / baseline.len() as f64
    };
    let false_edges = degraded.difference(&baseline).count() as u64;

    // Attack under the same fault plan: two compromised neighbors
    // replicated at the far corner, a victim wave deployed beside the
    // replicas. Theorem 3's 2R bound must survive the degraded wave.
    let anchor_at = Point::new(0.15 * s.side, 0.15 * s.side);
    let anchor = eng.deployment().nearest(anchor_at).expect("populated").0;
    let anchor_pos = eng.deployment().position(anchor).expect("placed");
    let second = eng
        .deployment()
        .iter()
        .filter(|(id, _)| *id != anchor)
        .min_by(|a, b| {
            let da = a.1.distance(&anchor_pos);
            let db = b.1.distance(&anchor_pos);
            da.partial_cmp(&db).expect("finite")
        })
        .expect("more than one node")
        .0;
    let site = Point::new(s.side - 10.0, s.side - 10.0);
    for id in [anchor, second] {
        eng.compromise(id).expect("operational after degraded wave");
        eng.place_replica(id, site).expect("compromised");
    }
    let mut victims = Vec::new();
    let next = eng.deployment().next_id().raw();
    for k in 0..4u64 {
        let id = NodeId(next + k);
        eng.deploy_at(id, Point::new(site.x - 6.0 + 4.0 * k as f64, site.y - 4.0));
        victims.push(id);
    }
    let r2 = eng.run_wave(&victims);

    let safety = check_d_safety(
        &eng.functional_topology(),
        eng.deployment(),
        &eng.adversary().compromised_set(),
        2.0 * s.range,
    );
    let radius = safety.worst_radius();

    Trial {
        completeness,
        false_edges,
        safe: radius <= 2.0 * s.range,
        radius,
        totals: eng.sim().metrics().totals(),
        hash_ops: eng.hash_ops(),
        cache_hits: eng.key_cache_hits(),
        retransmissions: r1.retransmissions + r2.retransmissions,
        acks_received: r1.acks_received + r2.acks_received,
        duplicates_ignored: r1.duplicates_ignored + r2.duplicates_ignored,
        timed_out_phases: r1.timed_out_phases + r2.timed_out_phases,
        unconfirmed: (r1.unconfirmed_links.len() + r2.unconfirmed_links.len()) as u64,
        faults: eng.sim().metrics().total_faults(),
        mem: eng.mem_table().counters(),
    }
}

/// Folds a cell's trials (in trial order) into its row and report.
fn merge(
    cfg: &FaultsConfig,
    loss: f64,
    budget: u32,
    seed: u64,
    exec: &Executor,
    trials: &[Trial],
) -> FaultsRow {
    let s = cfg.scenario;
    let n = trials.len().max(1) as f64;
    let mut completeness = 0.0;
    let mut worst_radius: f64 = 0.0;
    let mut safety_ok = true;
    let mut false_edges = 0u64;
    let mut totals = NodeCounters::default();
    let mut hash_ops = 0u64;
    let mut cache_hits = 0u64;
    let mut retransmissions = 0u64;
    let mut acks = 0u64;
    let mut duplicates = 0u64;
    let mut timeouts = 0u64;
    let mut unconfirmed = 0u64;
    let mut faults = 0u64;
    let mut mem: BTreeMap<String, u64> = BTreeMap::new();
    for t in trials {
        completeness += t.completeness / n;
        worst_radius = worst_radius.max(t.radius);
        safety_ok &= t.safe;
        false_edges += t.false_edges;
        totals.unicasts_sent += t.totals.unicasts_sent;
        totals.broadcasts_sent += t.totals.broadcasts_sent;
        totals.received += t.totals.received;
        totals.bytes_sent += t.totals.bytes_sent;
        totals.bytes_received += t.totals.bytes_received;
        hash_ops += t.hash_ops;
        cache_hits += t.cache_hits;
        retransmissions += t.retransmissions;
        acks += t.acks_received;
        duplicates += t.duplicates_ignored;
        timeouts += t.timed_out_phases;
        unconfirmed += t.unconfirmed;
        faults += t.faults;
        for (key, bytes) in &t.mem {
            *mem.entry(key.clone()).or_insert(0) += bytes;
        }
    }
    let nodes_total = n * (s.nodes + 4) as f64;
    let msgs_per_node = (totals.unicasts_sent + totals.broadcasts_sent) as f64 / nodes_total;

    let mut report = RunReport::new("faults", format!("loss={loss},budget={budget}"), seed);
    report.config = RawJson::of(&cfg.protocol());
    report.set_param("nodes", &(s.nodes as u64));
    report.set_param("side_m", &s.side);
    report.set_param("range_m", &s.range);
    report.set_param("threshold", &(cfg.threshold as u64));
    report.set_param("trials", &(cfg.trials as u64));
    report.set_param("loss", &loss);
    report.set_param("retry_budget", &u64::from(budget));
    report.set_param("threads", &(exec.threads() as u64));
    report.totals = totals;
    report.hash_ops = hash_ops;
    mirror_totals_into_registry(&mut report);
    report.registry.counters.extend(mem);
    report.set_outcome("completeness", &completeness);
    report.set_outcome("false_edges", &false_edges);
    report.set_outcome("safety_ok", &safety_ok);
    report.set_outcome("worst_radius_m", &worst_radius);
    report.set_outcome("msgs_per_node", &msgs_per_node);
    report.set_outcome("bytes_per_node", &(totals.bytes_sent as f64 / nodes_total));
    report.set_outcome("hashes_per_node", &(hash_ops as f64 / nodes_total));
    report.set_outcome("retransmissions", &retransmissions);
    report.set_outcome("acks_received", &acks);
    report.set_outcome("duplicates_ignored", &duplicates);
    report.set_outcome("timed_out_phases", &timeouts);
    report.set_outcome("unconfirmed_links", &unconfirmed);
    report.set_outcome("key_cache_hits", &cache_hits);
    report.set_outcome("faults_injected", &faults);

    FaultsRow {
        loss,
        retry_budget: budget,
        completeness,
        false_edges,
        safety_ok,
        worst_radius,
        msgs_per_node,
        retransmissions,
        unconfirmed_links: unconfirmed,
        faults_injected: faults,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FaultsConfig {
        FaultsConfig {
            scenario: PaperScenario {
                nodes: 60,
                ..paper_scenario()
            },
            losses: vec![0.2],
            retry_budgets: vec![9],
            threshold: 3,
            trials: 1,
            base_seed: 23,
        }
    }

    #[test]
    fn lossy_cell_recovers_and_stays_safe() {
        let rows = fault_rows(&small(), &Executor::serial());
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(
            row.completeness > 0.95,
            "budget 9 at 20% loss: completeness {}",
            row.completeness
        );
        assert_eq!(row.false_edges, 0, "faults must only remove edges");
        assert!(row.safety_ok, "2R bound on the degraded graph");
        assert!(row.retransmissions > 0);
        assert!(row.faults_injected > 0);
        assert_eq!(row.report.experiment, "faults");
    }

    #[test]
    fn acceptance_loss_030_default_budget() {
        // The PR's acceptance bar on the E9 reference scenario: loss 0.3
        // with the default retry budget must recover ≥ 99% of the clean
        // functional topology with zero false edges and 2R-safety intact.
        let cfg = FaultsConfig {
            losses: vec![0.3],
            retry_budgets: vec![9],
            trials: 1,
            ..FaultsConfig::default()
        };
        let rows = fault_rows(&cfg, &Executor::from_env());
        let row = &rows[0];
        assert!(
            row.completeness >= 0.99,
            "completeness {} < 0.99",
            row.completeness
        );
        assert_eq!(row.false_edges, 0);
        assert!(row.safety_ok, "worst radius {}", row.worst_radius);
    }

    #[test]
    fn rows_are_thread_count_invariant() {
        let mut cfg = small();
        cfg.losses = vec![0.0, 0.3];
        cfg.trials = 2;
        let baseline = fault_rows(&cfg, &Executor::new(1));
        for threads in [2usize, 8] {
            let rows = fault_rows(&cfg, &Executor::new(threads));
            assert_eq!(baseline.len(), rows.len());
            for (a, b) in baseline.iter().zip(&rows) {
                assert_eq!(a.completeness.to_bits(), b.completeness.to_bits());
                assert_eq!(a.false_edges, b.false_edges);
                assert_eq!(a.faults_injected, b.faults_injected);
                let mut ra = a.report.clone();
                let mut rb = b.report.clone();
                ra.params.remove("threads");
                rb.params.remove("threads");
                assert_eq!(ra.to_json(), rb.to_json(), "threads={threads}");
            }
        }
    }

    #[test]
    fn retry_budget_buys_completeness() {
        let mut cfg = small();
        cfg.losses = vec![0.3];
        cfg.retry_budgets = vec![0, 9];
        let rows = fault_rows(&cfg, &Executor::serial());
        assert!(
            rows[1].completeness >= rows[0].completeness,
            "budget 9 ({}) must not trail budget 0 ({})",
            rows[1].completeness,
            rows[0].completeness
        );
    }

    #[test]
    fn key_cache_cuts_hashes_in_the_overhead_measurement() {
        // Satellite check: under a duplication-heavy channel the neighbor
        // key memo must convert re-deliveries into cache hits and strictly
        // cut the hash-op overhead column.
        let s = PaperScenario {
            nodes: 60,
            ..paper_scenario()
        };
        let spec = FaultSpec {
            duplicate: 1.0,
            dedup_window: 0,
            ..FaultSpec::default()
        };
        let run = |cache: bool| {
            let mut eng = DiscoveryEngine::new(
                Field::square(s.side),
                RadioSpec::uniform(s.range),
                ProtocolConfig::with_threshold(3).without_updates(),
                31,
            );
            eng.set_key_cache(cache);
            let ids = eng.deploy_uniform(s.nodes);
            eng.sim_mut()
                .set_fault_plan(FaultPlan::new(spec.clone(), 37));
            eng.run_wave(&ids);
            (eng.hash_ops(), eng.key_cache_hits())
        };
        let (ops_on, hits_on) = run(true);
        let (ops_off, hits_off) = run(false);
        assert_eq!(hits_off, 0);
        assert!(hits_on > 0);
        assert!(ops_on < ops_off, "{ops_on} vs {ops_off}");
    }
}
