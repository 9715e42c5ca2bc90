//! Output checks: every wave and every campaign grid the benchmark runs
//! is held to the paper's definitions or the campaign's own bars.
//!
//! The checks read plain facts extracted from the program's output, so
//! the self-tests can corrupt those facts and watch each check fire.

use std::collections::BTreeSet;

use snd_campaign::{CampaignSpec, CellOutcome, CellRow, EnvironmentSpec};
use snd_core::protocol::NodeState;
use snd_topology::{DiGraph, NodeId};

/// How a wave's functional topology must relate to the oracle
/// `functional_topology(CommonNeighborRule(t), unit_disk_graph(..))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OracleBar {
    /// Fault-free transport: equal edge for edge, every link confirmed.
    Exact,
    /// Lossy transport: no edge outside the oracle, and at least this
    /// share of the oracle's edges found.
    Subset {
        /// Lowest acceptable completeness.
        min_completeness: f64,
    },
}

/// One node's end-of-wave state, as far as the checks need it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFacts {
    pub id: NodeId,
    pub state: NodeState,
    pub holds_master_key: bool,
}

/// What one wave produced.
#[derive(Debug, Clone)]
pub struct WaveFacts {
    pub functional: DiGraph,
    pub tentative: DiGraph,
    pub nodes: Vec<NodeFacts>,
    /// `WaveReport::unconfirmed_links.len()`.
    pub unconfirmed_links: usize,
}

/// Figures the wave checks derive; reported, never a failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaveVerdict {
    /// `|functional ∩ oracle| / |oracle|`.
    pub completeness: f64,
    /// Functional edges `(u, v)` with `v` not among `u`'s tentative
    /// neighbors.
    pub functional_not_tentative: u64,
}

/// Checks one wave against the oracle and §4.3 erasure.
///
/// # Errors
///
/// The first violated bar, with counts.
pub fn check_wave(
    facts: &WaveFacts,
    oracle: &DiGraph,
    bar: OracleBar,
) -> Result<WaveVerdict, String> {
    let found: BTreeSet<(NodeId, NodeId)> = facts.functional.edges().collect();
    let truth: BTreeSet<(NodeId, NodeId)> = oracle.edges().collect();
    let hit = found.intersection(&truth).count();
    let extra = found.len() - hit;
    let missing = truth.len() - hit;
    let completeness = if truth.is_empty() {
        1.0
    } else {
        hit as f64 / truth.len() as f64
    };
    if extra > 0 {
        return Err(format!(
            "{extra} functional edges outside the oracle (found {}, oracle {})",
            found.len(),
            truth.len()
        ));
    }
    match bar {
        OracleBar::Exact => {
            if missing > 0 {
                return Err(format!(
                    "{missing} oracle edges missing from the functional topology"
                ));
            }
            if facts.unconfirmed_links > 0 {
                return Err(format!(
                    "{} links unconfirmed on a fault-free wave",
                    facts.unconfirmed_links
                ));
            }
        }
        OracleBar::Subset { min_completeness } => {
            if completeness < min_completeness {
                return Err(format!(
                    "completeness {completeness} below {min_completeness} ({missing} of {} oracle edges missing)",
                    truth.len()
                ));
            }
        }
    }
    if let Some(n) = facts
        .nodes
        .iter()
        .find(|n| n.state != NodeState::Operational || n.holds_master_key)
    {
        return Err(format!(
            "node {} ended the wave {:?} with master key held: {} (§4.3 erasure)",
            n.id.0, n.state, n.holds_master_key
        ));
    }
    let functional_not_tentative = found
        .iter()
        .filter(|&&(u, v)| !facts.tentative.has_edge(u, v))
        .count() as u64;
    Ok(WaveVerdict {
        completeness,
        functional_not_tentative,
    })
}

/// Deterministic counters of one wave. Telemetry and executor size must
/// not move any of them (DESIGN.md §9).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveCounters {
    pub functional_edges: usize,
    pub tentative_edges: usize,
    pub tx_msgs: u64,
    pub tx_bytes: u64,
    pub rx_msgs: u64,
    pub dropped_frames: u64,
    pub retransmissions: u64,
    pub hash_ops: u64,
    pub mem_nodes: u64,
    pub mem_inboxes: u64,
    pub mem_ledger: u64,
}

/// Checks that a repeated run of the same input reproduced `reference`.
///
/// # Errors
///
/// Both counter sets, when they differ.
pub fn check_same<T: PartialEq + std::fmt::Debug>(reference: &T, rerun: &T) -> Result<(), String> {
    if reference == rerun {
        Ok(())
    } else {
        Err(format!(
            "deterministic counters differ: {reference:?} vs {rerun:?}"
        ))
    }
}

/// The scored part of a grid, for comparing reruns of the same spec.
pub fn grid_fingerprint(rows: &[CellRow]) -> Vec<(String, String, String, CellOutcome)> {
    rows.iter()
        .map(|r| {
            (
                r.attacker.clone(),
                r.environment.clone(),
                r.defense.clone(),
                r.outcome.clone(),
            )
        })
        .collect()
}

/// Whether `env` injects faults that leave some nodes with impoverished
/// binding records (jamming, loss bursts, crash windows). The t+1 rule
/// then rejects some benign pairs by design, so the zero-false-positive
/// bar does not apply there; those false positives are counted instead.
pub fn starves_records(env: &EnvironmentSpec) -> bool {
    env.jam || env.burst > 0.0 || env.crash > 0.0
}

/// The campaign's own bars (the `snd-campaign` binary's smoke gate): the
/// paper rule posts zero false positives on every no-attack cell, and
/// detects at least as well as either Parno baseline on every
/// replication cell of the same attacker and environment. The first bar
/// applies to environments that do not [starve records](starves_records).
///
/// Returns the paper rule's false positives on no-attack cells of
/// record-starving environments.
///
/// # Errors
///
/// The first violating cell.
pub fn check_grid(rows: &[CellRow], spec: &CampaignSpec) -> Result<u64, String> {
    if rows.len() != spec.cell_count() {
        return Err(format!(
            "{} cells, expected {}",
            rows.len(),
            spec.cell_count()
        ));
    }
    let mut starved_fps = 0;
    for row in rows {
        if row.attacker != "none" || row.defense != "paper" || row.outcome.false_positives == 0 {
            continue;
        }
        let env = spec
            .environments
            .iter()
            .find(|e| e.name == row.environment)
            .ok_or_else(|| format!("cell names unknown environment {}", row.environment))?;
        if starves_records(env) {
            starved_fps += row.outcome.false_positives;
        } else {
            return Err(format!(
                "paper rule posted {} false positives on no-attack cell {}",
                row.outcome.false_positives, row.environment
            ));
        }
    }
    for paper in rows
        .iter()
        .filter(|r| r.attacker.starts_with("repl-") && r.defense == "paper")
    {
        for parno in rows.iter().filter(|r| {
            r.attacker == paper.attacker
                && r.environment == paper.environment
                && r.defense.starts_with("parno")
        }) {
            if paper.outcome.detection_rate < parno.outcome.detection_rate - 1e-12 {
                return Err(format!(
                    "paper rule detection {} below {} {} on {}/{}",
                    paper.outcome.detection_rate,
                    parno.defense,
                    parno.outcome.detection_rate,
                    paper.attacker,
                    paper.environment
                ));
            }
        }
    }
    Ok(starved_fps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snd_campaign::run_campaign;
    use snd_exec::Executor;

    use crate::campaign::toy_spec;
    use crate::wave::{oracle, run_wave_once, Telemetry, WaveSpec};

    /// A clean toy wave's facts and oracle.
    fn clean_toy() -> (WaveFacts, DiGraph) {
        let spec = WaveSpec::clean_at(200);
        let rep = run_wave_once(&spec, 11, Executor::serial(), Telemetry::Off);
        let oracle = oracle(&spec, rep.engine.deployment());
        (rep.facts, oracle)
    }

    #[test]
    fn clean_toy_wave_passes_exactly() {
        let (facts, oracle) = clean_toy();
        assert!(oracle.edge_count() > 0);
        let verdict = check_wave(&facts, &oracle, OracleBar::Exact).expect("clean wave passes");
        assert_eq!(verdict.completeness, 1.0);
    }

    #[test]
    fn an_out_of_range_edge_fails_both_bars() {
        let (mut facts, oracle) = clean_toy();
        let ids: Vec<NodeId> = facts.functional.nodes().collect();
        let (u, v) = ids
            .iter()
            .flat_map(|&u| ids.iter().map(move |&v| (u, v)))
            .find(|&(u, v)| u != v && !oracle.has_edge(u, v))
            .expect("some pair is out of range");
        facts.functional.add_edge(u, v);
        assert!(check_wave(&facts, &oracle, OracleBar::Exact).is_err());
        let lossy = OracleBar::Subset {
            min_completeness: 0.0,
        };
        assert!(check_wave(&facts, &oracle, lossy).is_err());
    }

    #[test]
    fn a_missing_edge_fails_exact_and_a_low_completeness_fails_subset() {
        let (mut facts, oracle) = clean_toy();
        let (u, v) = oracle.edges().next().expect("an edge");
        facts.functional.remove_edge(u, v);
        assert!(check_wave(&facts, &oracle, OracleBar::Exact).is_err());
        let tolerant = OracleBar::Subset {
            min_completeness: 0.5,
        };
        assert!(check_wave(&facts, &oracle, tolerant).is_ok());
        let strict = OracleBar::Subset {
            min_completeness: 1.0,
        };
        assert!(check_wave(&facts, &oracle, strict).is_err());
    }

    #[test]
    fn a_node_still_holding_its_master_key_fails() {
        let (facts, oracle) = clean_toy();
        let mut held = facts.clone();
        held.nodes[3].holds_master_key = true;
        assert!(check_wave(&held, &oracle, OracleBar::Exact).is_err());
        let mut stuck = facts;
        stuck.nodes[0].state = NodeState::Committed;
        assert!(check_wave(&stuck, &oracle, OracleBar::Exact).is_err());
    }

    #[test]
    fn unconfirmed_links_fail_a_clean_wave() {
        let (mut facts, oracle) = clean_toy();
        facts.unconfirmed_links = 1;
        assert!(check_wave(&facts, &oracle, OracleBar::Exact).is_err());
    }

    #[test]
    fn functional_edges_outside_the_tentative_topology_are_counted() {
        let (mut facts, oracle) = clean_toy();
        let (u, v) = facts.functional.edges().next().expect("an edge");
        facts.tentative.remove_edge(u, v);
        let verdict = check_wave(&facts, &oracle, OracleBar::Exact).expect("still passes");
        assert_eq!(verdict.functional_not_tentative, 1);
    }

    #[test]
    fn a_changed_counter_fails_the_rerun_check() {
        let spec = WaveSpec::clean_at(200);
        let a = run_wave_once(&spec, 5, Executor::serial(), Telemetry::Off);
        let b = run_wave_once(&spec, 5, Executor::new(2), Telemetry::On);
        check_same(&a.counters, &b.counters).expect("telemetry and threads move no counter");
        let mut c = b.counters.clone();
        c.hash_ops += 1;
        assert!(check_same(&a.counters, &c).is_err());
    }

    #[test]
    fn grid_bars_fire_on_a_corrupted_grid() {
        let spec = toy_spec(3);
        let rows = run_campaign(&spec, &Executor::serial());
        assert_eq!(check_grid(&rows, &spec), Ok(0));
        assert!(check_grid(&rows[1..], &spec).is_err());

        let mut fp = rows.clone();
        let cell = fp
            .iter_mut()
            .find(|r| r.attacker == "none" && r.defense == "paper")
            .expect("a no-attack paper cell");
        cell.outcome.false_positives = 1;
        assert!(check_grid(&fp, &spec).is_err());

        let mut weak = rows.clone();
        let cell = weak
            .iter_mut()
            .find(|r| r.attacker.starts_with("repl-") && r.defense == "paper")
            .expect("a replication paper cell");
        cell.outcome.detection_rate = -1.0;
        assert!(check_grid(&weak, &spec).is_err());

        let mut moved = rows.clone();
        moved[0].outcome.msgs_per_node += 1.0;
        assert!(check_same(&grid_fingerprint(&rows), &grid_fingerprint(&moved)).is_err());
    }

    #[test]
    fn false_positives_under_record_starving_faults_are_counted() {
        let mut spec = toy_spec(3);
        let rows = run_campaign(&spec, &Executor::serial());
        let mut fp = rows.clone();
        let cell = fp
            .iter_mut()
            .find(|r| r.attacker == "none" && r.defense == "paper")
            .expect("a no-attack paper cell");
        cell.outcome.false_positives = 2;
        assert!(check_grid(&fp, &spec).is_err());
        spec.environments[0].jam = true;
        assert_eq!(check_grid(&fp, &spec), Ok(2));
    }
}
