//! Golden record of the simulator's cost counters (`Simulator::metrics`).
//!
//! Each scenario drives a small simulator through one of the places
//! where the per-node cost counters and the communication ledger see a
//! frame differently — the unicast/broadcast split, out-of-range
//! broadcast targets, jamming, frames silently lost to a receiver that
//! died while they were in flight, every injected fault kind under
//! receiver dedup, and a battery death in the middle of one delivery
//! bucket — and writes what `Metrics` reports: totals, per-node
//! counters, drop and fault counts, the touched-node count and the mean
//! sends per node. The committed file pins those figures byte for byte.
//!
//! After an intentional change to what the counters mean, regenerate
//! with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p snd-sim --test metrics_golden
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use snd_sim::energy::EnergyModel;
use snd_sim::faults::{FaultKind, FaultPlan, FaultSpec, LossBurst};
use snd_sim::jamming::JamZone;
use snd_sim::ledger::TxMeta;
use snd_sim::metrics::DropReason;
use snd_sim::network::Simulator;
use snd_sim::time::{SimDuration, SimTime};
use snd_topology::unit_disk::RadioSpec;
use snd_topology::{Circle, Deployment, Field, NodeId, Point};

fn n(i: u64) -> NodeId {
    NodeId(i)
}

/// A 3 × 3 grid at 20 m spacing (every node hears its grid neighbours
/// and most of the grid), plus two nodes far outside radio range.
fn grid(seed: u64) -> Simulator {
    let mut deployment = Deployment::empty(Field::square(400.0));
    for k in 0..9u64 {
        let (row, col) = (k / 3, k % 3);
        deployment.place(
            n(k),
            Point::new(40.0 + col as f64 * 20.0, 40.0 + row as f64 * 20.0),
        );
    }
    deployment.place(n(9), Point::new(300.0, 300.0));
    deployment.place(n(10), Point::new(380.0, 20.0));
    Simulator::new(deployment, RadioSpec::uniform(50.0), seed)
}

fn step(sim: &mut Simulator) {
    sim.advance(SimDuration::from_millis(1));
}

fn settle(sim: &mut Simulator) {
    for _ in 0..16 {
        step(sim);
    }
    assert_eq!(sim.in_flight(), 0, "scenario left frames in flight");
}

/// Unicasts and broadcasts mixed, with out-of-range broadcast targets
/// (the far nodes), an out-of-range unicast and a unicast to an id that
/// was never deployed.
fn mixed() -> Simulator {
    let mut sim = grid(11);
    for round in 0..3u64 {
        for k in 0..9u64 {
            let bytes = 8 + ((k + round) % 5) as usize * 7;
            if (k + round) % 3 == 0 {
                sim.broadcast_meta(n(k), vec![k as u8; bytes], TxMeta::of("hello"));
            } else {
                let to = n((k * 4 + round) % 9);
                sim.unicast_meta(n(k), to, vec![0u8; bytes], TxMeta::of("record_request"));
            }
        }
        sim.broadcast(n(9), vec![9u8; 12]);
        sim.unicast(n(0), n(9), vec![1u8; 20]);
        sim.unicast(n(4), n(42), vec![2u8; 5]);
        step(&mut sim);
    }
    settle(&mut sim);
    sim
}

/// A permanent jammer over node 4 plus a timed one over node 8: both
/// directions of every frame touching a jammed radio die as `Jammed`.
fn jammed() -> Simulator {
    let mut sim = grid(12);
    sim.add_jammer(JamZone::permanent(Circle::new(Point::new(60.0, 60.0), 5.0)));
    sim.add_jammer(JamZone::timed(
        Circle::new(Point::new(80.0, 80.0), 5.0),
        SimTime::ZERO,
        SimTime::from_millis(2),
    ));
    for round in 0..4u64 {
        for k in [0u64, 4, 8] {
            sim.broadcast(n(k), vec![round as u8; 16]);
            sim.unicast(n(k), n((k + 1) % 9), vec![0u8; 10]);
        }
        sim.unicast(n(2), n(4), vec![3u8; 9]);
        step(&mut sim);
    }
    settle(&mut sim);
    sim
}

/// Frames to node 5 are still in flight when it is killed: the ledger
/// books them as `NoSuchNode` drops, the radio never saw them fail. A
/// unicast sent to the corpse afterwards is a drop the radio does see.
fn killed_in_flight() -> Simulator {
    let mut sim = grid(13);
    for k in [1u64, 2, 4, 7] {
        sim.unicast(n(k), n(5), vec![k as u8; 24]);
    }
    sim.broadcast(n(4), vec![4u8; 30]);
    sim.broadcast(n(5), vec![5u8; 11]);
    assert!(sim.kill(n(5)));
    step(&mut sim);
    sim.unicast(n(8), n(5), vec![8u8; 14]);
    sim.broadcast(n(3), vec![3u8; 17]);
    settle(&mut sim);
    sim
}

/// A fault plan that injects every `FaultKind` — duplicates, reordering,
/// detectable and undetectable corruption, crash windows — plus uniform
/// and burst loss, with receiver dedup on.
fn faulted() -> Simulator {
    let mut sim = grid(14);
    let spec = FaultSpec {
        loss: 0.1,
        bursts: vec![LossBurst {
            from: SimTime::from_millis(3),
            until: SimTime::from_millis(5),
            loss: 0.6,
        }],
        duplicate: 0.35,
        reorder: 0.3,
        max_extra_delay: SimDuration::from_millis(3),
        corrupt: 0.25,
        corrupt_detectable: 0.5,
        crash: 0.3,
        crash_from: SimTime::from_millis(2),
        crash_until: SimTime::from_millis(6),
        crash_len: SimDuration::from_millis(2),
        dedup_window: 4,
        ..FaultSpec::default()
    };
    sim.set_fault_plan(FaultPlan::new(spec, 0xFA17));
    for round in 0..8u64 {
        for k in 0..9u64 {
            if (k + round) % 4 == 0 {
                sim.broadcast(n(k), vec![k as u8; 12 + round as usize]);
            } else {
                sim.unicast(n(k), n((k + 1 + round) % 9), vec![round as u8; 18]);
            }
        }
        step(&mut sim);
    }
    settle(&mut sim);
    sim
}

/// Energy accounting on. Node 4 hears several frames due in the same
/// delivery bucket but can pay for only two receptions, so it dies
/// partway through the bucket; node 0 runs out of battery while sending.
fn battery_death() -> Simulator {
    let mut sim = grid(15);
    let model = EnergyModel::default();
    sim.enable_energy(model);
    sim.set_battery(n(4), 2.5 * model.rx_cost(20));
    sim.set_battery(n(0), 2.5 * model.tx_cost(20));
    for k in [1u64, 3, 5, 7] {
        sim.unicast(n(k), n(4), vec![k as u8; 20]);
    }
    sim.broadcast(n(2), vec![2u8; 20]);
    sim.unicast(n(6), n(4), vec![6u8; 20]);
    for _ in 0..3 {
        sim.broadcast(n(0), vec![0u8; 20]);
    }
    step(&mut sim);
    sim.unicast(n(8), n(4), vec![8u8; 20]);
    sim.broadcast(n(0), vec![0u8; 20]);
    settle(&mut sim);
    sim
}

fn scenarios() -> Vec<(&'static str, Simulator)> {
    vec![
        ("mixed", mixed()),
        ("jammed", jammed()),
        ("killed-in-flight", killed_in_flight()),
        ("faulted", faulted()),
        ("battery-death", battery_death()),
    ]
}

/// The scenarios really reach the points they are named for.
fn assert_coverage(label: &str, sim: &Simulator) {
    let m = sim.metrics();
    let ledger_drops = &sim.ledger().totals().drops;
    match label {
        "mixed" => {
            let t = m.totals();
            assert!(t.unicasts_sent > 0 && t.broadcasts_sent > 0);
            assert!(m.drops(DropReason::OutOfRange) > 0);
            assert!(m.drops(DropReason::NoSuchNode) > 0);
        }
        "jammed" => assert!(m.drops(DropReason::Jammed) > 0),
        "killed-in-flight" => {
            let silent = ledger_drops[&DropReason::NoSuchNode] - m.drops(DropReason::NoSuchNode);
            assert!(silent > 0, "no frame died silently in flight");
            assert!(m.drops(DropReason::NoSuchNode) > 0);
        }
        "faulted" => {
            for kind in [
                FaultKind::Duplicated,
                FaultKind::Reordered,
                FaultKind::Corrupted,
                FaultKind::NodeCrash,
            ] {
                assert!(m.faults(kind) > 0, "{kind:?} never injected");
            }
            for reason in [
                DropReason::LinkLoss,
                DropReason::BurstLoss,
                DropReason::NodeDown,
                DropReason::Corrupted,
                DropReason::DuplicateSuppressed,
            ] {
                assert!(m.drops(reason) > 0, "{reason:?} never dropped");
            }
        }
        "battery-death" => {
            assert_eq!(sim.battery_deaths(), &[n(0), n(4)]);
            let silent = ledger_drops[&DropReason::NoSuchNode] - m.drops(DropReason::NoSuchNode);
            assert!(silent > 0, "node 4 died after the last frame of its bucket");
        }
        _ => unreachable!("unknown scenario {label}"),
    }
}

fn render(label: &str, sim: &Simulator) -> String {
    let m = sim.metrics();
    let mut out = String::new();
    writeln!(out, "== {label}").unwrap();
    writeln!(out, "totals: {:?}", m.totals()).unwrap();
    writeln!(out, "touched_nodes: {}", m.touched_nodes()).unwrap();
    writeln!(out, "mean_sent_per_node: {:?}", m.mean_sent_per_node()).unwrap();
    writeln!(out, "drop_counts: {:?}", m.drop_counts()).unwrap();
    writeln!(out, "fault_counts: {:?}", m.fault_counts()).unwrap();
    for (id, c) in m.per_node() {
        writeln!(out, "  {id:?} {c:?}").unwrap();
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics.txt")
}

#[test]
fn metrics_match_the_pinned_counters() {
    let mut text =
        String::from("# Simulator::metrics() per scenario, crates/sim/tests/metrics_golden.rs\n");
    for (label, sim) in scenarios() {
        assert_coverage(label, &sim);
        text.push_str(&render(label, &sim));
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(golden_path().parent().expect("has parent")).expect("mkdir");
        fs::write(golden_path(), &text).expect("write golden");
        return;
    }
    let pinned = fs::read_to_string(golden_path()).unwrap_or_else(|e| {
        panic!(
            "missing {}: {e}\nregenerate with UPDATE_GOLDEN=1 \
             cargo test -p snd-sim --test metrics_golden",
            golden_path().display()
        )
    });
    for (want, got) in pinned.lines().zip(text.lines()) {
        assert_eq!(want, got, "metrics drifted from the pinned counters");
    }
    assert_eq!(pinned, text, "metrics drifted from the pinned counters");
}
