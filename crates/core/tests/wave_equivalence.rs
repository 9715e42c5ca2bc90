//! Equivalence suite for the engine's single delivery pump.
//!
//! `tests/golden/wave_fingerprints.txt` pins, per scenario, the SHA-256
//! of a wave's full fingerprint: the `WaveReport`, the complete `comm.*`
//! ledger (totals, per-node rows, per-phase and per-kind aggregates), the
//! functional and tentative topologies, the hash-op counter, and the
//! structured event stream including every `MsgSent` with its
//! seed-derived ledger id. That last one is the strongest claim — it pins
//! the exact global *send order*, which the deterministic msg-id and
//! fault-RNG streams hang off (DESIGN.md §9/§14).
//!
//! The digests were taken from the message-at-a-time serial dispatcher
//! the pump replaced, so they are its behavior, frozen. Every scenario
//! must reproduce its digest at `SND_THREADS ∈ {1, 2, 8}`. The grid spans
//! loss, hello re-rounds, duplication + reordering, four fixed
//! delivery-order permutation seeds, compromised incumbents, and a
//! three-wave attack (replica, Sybil identity, far link, malicious
//! updates) that drives the adversary handler at its merge position.
//! After an intentional behavior change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p snd-core --test wave_equivalence
//! ```

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use snd_core::adversary::AdversaryBehavior;
use snd_core::protocol::{DiscoveryEngine, ProtocolConfig, ReliabilityConfig, WaveReport};
use snd_crypto::sha256::Sha256;
use snd_exec::Executor;
use snd_observe::event::EventRecord;
use snd_observe::recorder::MemoryRecorder;
use snd_sim::faults::{FaultPlan, FaultSpec};
use snd_sim::ledger::{CellComm, NodeComm, PhaseComm};
use snd_sim::radio::{AnyLinkModel, LossyDisk};
use snd_sim::time::SimDuration;
use snd_topology::unit_disk::RadioSpec;
use snd_topology::{DiGraph, Field, NodeId, Point};

const RANGE: f64 = 50.0;

/// One pinned scenario.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    n: usize,
    /// Independent per-frame loss probability on the radio link.
    loss: f64,
    hello_rounds: u32,
    /// Transport fault injection, pushing cross-phase stragglers and
    /// duplicates into every pump.
    faults: Faults,
    /// What the attacker does after the first wave (nothing: a single
    /// wave runs). The fingerprint's report is the last wave's.
    attack: Attack,
    seed: u64,
}

/// Transport fault plan of a scenario.
#[derive(Debug, Clone, Copy)]
enum Faults {
    None,
    /// Duplication + reordering, seeded by the scenario seed.
    DupReorder,
    /// The loss-free delivery-order permutation plan (heavy duplication
    /// and extra delays), seeded independently of the deployment.
    Permutation {
        plan_seed: u64,
    },
}

/// Attacker activity after the first wave.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Attack {
    /// One wave, no attacker.
    None,
    /// Compromise a few first-wave nodes, then run a second wave.
    Compromise,
    /// As `Compromise`, plus a far-away replica, a Sybil identity, a far
    /// link between two colluders and the aggressive behavior profile,
    /// then a third wave, so the adversary handler sees every message
    /// kind and the update pair (malicious requests included) runs.
    Arsenal,
}

/// Everything a wave externalizes, captured for byte-comparison.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    wave: WaveReport,
    functional: DiGraph,
    tentative: DiGraph,
    hash_ops: u64,
    ledger_totals: NodeComm,
    ledger_per_node: BTreeMap<NodeId, NodeComm>,
    ledger_phases: Vec<(&'static str, PhaseComm)>,
    ledger_kinds: Vec<(&'static str, CellComm)>,
    events: Vec<EventRecord>,
}

fn reliability(hello_rounds: u32) -> ReliabilityConfig {
    ReliabilityConfig {
        enabled: true,
        retry_budget: 2,
        hello_rounds,
        base_backoff: SimDuration::from_millis(4),
        max_backoff: SimDuration::from_millis(32),
        phase_timeout: SimDuration::from_millis(400),
    }
}

/// Runs one full scenario on a `threads`-wide executor and captures its
/// externally visible output.
fn run_case(scn: Scenario, threads: usize) -> Fingerprint {
    let mut engine = DiscoveryEngine::new(
        Field::square(220.0),
        RadioSpec::uniform(RANGE),
        ProtocolConfig::with_threshold(2),
        scn.seed,
    );
    engine.set_reliability(reliability(scn.hello_rounds));
    engine.set_executor(Executor::new(threads));
    let recorder = MemoryRecorder::shared();
    engine.set_recorder(Arc::clone(&recorder) as Arc<_>);
    if scn.loss > 0.0 {
        engine
            .sim_mut()
            .set_link_model(AnyLinkModel::LossyDisk(LossyDisk::new(scn.loss)));
    }
    match scn.faults {
        Faults::None => {}
        Faults::DupReorder => {
            let spec = FaultSpec {
                duplicate: 0.25,
                reorder: 0.25,
                max_extra_delay: SimDuration::from_millis(3),
                dedup_window: 4,
                ..FaultSpec::default()
            };
            engine
                .sim_mut()
                .set_fault_plan(FaultPlan::new(spec, scn.seed));
        }
        Faults::Permutation { plan_seed } => {
            let spec = FaultSpec {
                duplicate: 0.3,
                reorder: 0.5,
                max_extra_delay: SimDuration::from_millis(5),
                dedup_window: 4,
                ..FaultSpec::default()
            };
            engine
                .sim_mut()
                .set_fault_plan(FaultPlan::new(spec, plan_seed));
        }
    }

    let ids = engine.deploy_uniform(scn.n);
    let mut wave = engine.run_wave(&ids);
    if scn.attack != Attack::None {
        let picked: Vec<NodeId> = ids
            .iter()
            .step_by((scn.n / 4).max(1))
            .take(4)
            .copied()
            .collect();
        for &id in &picked {
            let _ = engine.compromise(id);
        }
        if scn.attack == Attack::Arsenal {
            engine
                .place_replica(picked[0], Point::new(200.0, 200.0))
                .expect("compromised");
            engine
                .claim_sybil_identities(picked[1], &[NodeId(9_000)])
                .expect("fresh id");
            engine
                .plant_far_link(picked[2], picked[3])
                .expect("colluders compromised");
            engine
                .adversary_mut()
                .set_behavior(AdversaryBehavior::aggressive());
        }
        let late = engine.deploy_uniform(scn.n / 3);
        wave = engine.run_wave(&late);
        if scn.attack == Attack::Arsenal {
            // A third wave: evidence buffered during the second now
            // drives benign and malicious update requests.
            let later = engine.deploy_uniform(scn.n / 4);
            wave = engine.run_wave(&later);
        }
    }

    let ledger = engine.sim().ledger();
    Fingerprint {
        functional: engine.functional_topology(),
        tentative: engine.tentative_topology(),
        hash_ops: engine.hash_ops(),
        wave,
        ledger_totals: ledger.totals().clone(),
        ledger_per_node: ledger
            .per_node()
            .map(|(id, comm)| (id, comm.clone()))
            .collect(),
        ledger_phases: ledger
            .phases()
            .map(|(phase, agg)| (phase, agg.clone()))
            .collect(),
        ledger_kinds: ledger.kinds(),
        events: recorder.take(),
    }
}

fn grid() -> Vec<Scenario> {
    vec![
        // Clean dense wave, default rounds.
        Scenario {
            n: 80,
            loss: 0.0,
            hello_rounds: 3,
            faults: Faults::None,
            attack: Attack::None,
            seed: 11,
        },
        // Lossy link: ARQ retransmissions and degraded hello coverage.
        Scenario {
            n: 120,
            loss: 0.25,
            hello_rounds: 3,
            faults: Faults::None,
            attack: Attack::None,
            seed: 12,
        },
        // Heavier loss, fewer hello rounds.
        Scenario {
            n: 90,
            loss: 0.4,
            hello_rounds: 2,
            faults: Faults::None,
            attack: Attack::None,
            seed: 13,
        },
        // Extra hello rounds re-assert known relations (idempotence).
        Scenario {
            n: 70,
            loss: 0.1,
            hello_rounds: 4,
            faults: Faults::None,
            attack: Attack::None,
            seed: 14,
        },
        // Duplication + reordering: cross-phase stragglers land in hello
        // pumps next to hello traffic.
        Scenario {
            n: 80,
            loss: 0.15,
            hello_rounds: 3,
            faults: Faults::DupReorder,
            attack: Attack::None,
            seed: 15,
        },
        // Second wave with compromised incumbents: attacker-controlled
        // receivers replay through the adversary handler.
        Scenario {
            n: 80,
            loss: 0.1,
            hello_rounds: 3,
            faults: Faults::None,
            attack: Attack::Compromise,
            seed: 16,
        },
    ]
}

/// Lossy wave under duplication + reordering, the send-order case.
fn send_order_scenario() -> Scenario {
    Scenario {
        n: 100,
        loss: 0.2,
        hello_rounds: 3,
        faults: Faults::DupReorder,
        attack: Attack::None,
        seed: 21,
    }
}

/// Every scenario whose fingerprint digest is pinned in
/// `tests/golden/wave_fingerprints.txt`, with its line label.
fn pinned_scenarios() -> Vec<(String, Scenario)> {
    let mut out: Vec<(String, Scenario)> = grid()
        .into_iter()
        .enumerate()
        .map(|(i, scn)| (format!("grid-{i}"), scn))
        .collect();
    out.push(("send-order".into(), send_order_scenario()));
    // Fixed delivery-order permutation seeds over a small loss-free wave.
    for (i, plan_seed) in [3u64, 0x5eed, 0xdead_beef, u64::MAX - 7]
        .into_iter()
        .enumerate()
    {
        out.push((
            format!("permutation-{i}"),
            Scenario {
                n: 45,
                loss: 0.0,
                hello_rounds: 3,
                faults: Faults::Permutation { plan_seed },
                attack: Attack::None,
                seed: 31 + i as u64,
            },
        ));
    }
    // Later waves against a replica, a Sybil identity and a far link.
    out.push((
        "arsenal".into(),
        Scenario {
            n: 80,
            loss: 0.1,
            hello_rounds: 3,
            faults: Faults::None,
            attack: Attack::Arsenal,
            seed: 41,
        },
    ));
    out
}

/// SHA-256 (hex) over a fingerprint's `Debug` form.
fn digest(fp: &Fingerprint) -> String {
    Sha256::digest(format!("{fp:?}")).to_hex()
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wave_fingerprints.txt")
}

/// `label digest` lines of the committed golden file.
fn pinned_digests() -> BTreeMap<String, String> {
    let text = fs::read_to_string(golden_path()).unwrap_or_else(|e| {
        panic!(
            "missing {}: {e}\nregenerate with UPDATE_GOLDEN=1 \
             cargo test -p snd-core --test wave_equivalence",
            golden_path().display()
        )
    });
    text.lines()
        .filter(|line| !line.starts_with('#') && !line.is_empty())
        .map(|line| {
            let (label, hex) = line.split_once(' ').expect("`label digest` line");
            (label.to_string(), hex.to_string())
        })
        .collect()
}

/// Every pinned scenario reproduces its digest at 1, 2 and 8 threads.
#[test]
fn single_pump_matches_pinned_digests() {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let mut text = String::from(
            "# SHA-256 of each scenario's wave fingerprint (Debug form), \
             crates/core/tests/wave_equivalence.rs\n",
        );
        for (label, scn) in pinned_scenarios() {
            text.push_str(&format!("{label} {}\n", digest(&run_case(scn, 1))));
        }
        fs::create_dir_all(golden_path().parent().expect("has parent")).expect("mkdir");
        fs::write(golden_path(), text).expect("write golden");
        return;
    }
    let pinned = pinned_digests();
    let scenarios = pinned_scenarios();
    assert_eq!(
        pinned.len(),
        scenarios.len(),
        "one pinned digest per scenario"
    );
    for (label, scn) in scenarios {
        for threads in [1usize, 2, 8] {
            assert_eq!(
                pinned.get(&label),
                Some(&digest(&run_case(scn, threads))),
                "{label} drifted from its pinned digest at {threads} threads: {scn:?}"
            );
        }
    }
}

/// The strongest single-scenario claim spelled out: the exact `MsgSent`
/// order (and thus every seed-derived ledger id) is independent of the
/// executor width.
#[test]
fn msg_send_order_and_ledger_ids_are_identical() {
    let one = run_case(send_order_scenario(), 1);
    let eight = run_case(send_order_scenario(), 8);
    assert!(!one.events.is_empty());
    assert_eq!(one.events, eight.events);
}
