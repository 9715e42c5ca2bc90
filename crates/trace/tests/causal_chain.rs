//! End-to-end ledger forensics: `causal --edge` on a real lossy wave.
//!
//! Runs one full discovery wave on a 3×3 grid with the reliability layer
//! on and a 30% injected loss rate, records every ledger event with a
//! full-fidelity [`MemoryRecorder`], then asks the `causal` view for an
//! edge that provably suffered a retransmitted reliable envelope. The
//! rendered tree must reconstruct the complete causal chain — the hello
//! broadcast at the root, the record exchange in the middle, the reliable
//! commitment with its drop fork and flagged retransmission at the leaf —
//! exactly the acceptance shape of the communication-ledger tentpole.

use std::sync::Arc;

use snd_core::prelude::*;
use snd_core::protocol::ReliabilityConfig;
use snd_observe::event::Event;
use snd_observe::json::parse;
use snd_observe::recorder::{MemoryRecorder, Recorder};
use snd_observe::report::RunReport;
use snd_sim::faults::{FaultPlan, FaultSpec};
use snd_topology::unit_disk::RadioSpec;
use snd_topology::{Field, NodeId, Point};
use snd_trace::causal::{causal, CausalOptions};
use snd_trace::input::Row;

const SEED: u64 = 42;

/// `(from, to, parent, retransmission, kind)` of one recorded unicast.
type UnicastSend = (u64, u64, Option<u64>, bool, String);

/// One lossy reliable wave; returns the report row plus the recorder's
/// raw snapshot for picking an interesting edge.
fn lossy_wave() -> (Row, Vec<UnicastSend>) {
    let mut engine = DiscoveryEngine::new(
        Field::square(100.0),
        RadioSpec::uniform(50.0),
        ProtocolConfig::with_threshold(0),
        SEED,
    );
    engine.set_reliability(ReliabilityConfig::default());
    engine.sim_mut().set_fault_plan(FaultPlan::new(
        FaultSpec {
            loss: 0.3,
            ..FaultSpec::default()
        },
        7,
    ));
    let recorder = MemoryRecorder::shared();
    engine.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);

    let ids: Vec<NodeId> = (0..9).map(NodeId).collect();
    for (k, &id) in ids.iter().enumerate() {
        let (row, col) = (k as u64 / 3, k as u64 % 3);
        engine.deploy_at(
            id,
            Point::new(20.0 + col as f64 * 30.0, 20.0 + row as f64 * 30.0),
        );
    }
    let wave = engine.run_wave(&ids);
    assert!(
        wave.retransmissions > 0,
        "30% loss must force at least one resend"
    );

    // (from, to, parent, retransmission, kind) of every unicast send.
    let unicasts: Vec<UnicastSend> = recorder
        .snapshot()
        .iter()
        .filter_map(|r| match &r.event {
            Event::MsgSent {
                from,
                to: Some(to),
                parent,
                retransmission,
                kind,
                ..
            } => Some((from.0, to.0, *parent, *retransmission, kind.to_string())),
            _ => None,
        })
        .collect();

    let mut report = RunReport::new("causal", "lossy-grid", SEED);
    report.set_events(recorder.take());
    let value = parse(&report.to_json()).expect("report serializes");
    (
        Row {
            label: "causal/lossy-grid".to_string(),
            value,
        },
        unicasts,
    )
}

#[test]
fn causal_reconstructs_the_full_chain_with_retransmissions_under_loss() {
    let (row, unicasts) = lossy_wave();

    // Pick an edge whose reliable commitment was retransmitted.
    let (u, v) = unicasts
        .iter()
        .find(|(_, _, _, retx, kind)| *retx && kind.starts_with("reliable"))
        .map(|(from, to, _, _, _)| (*from, *to))
        .expect("some reliable envelope was resent");

    let out = causal(&[&row], &CausalOptions { edge: (u, v) }).expect("events present");

    // The complete chain, root to leaf: the hello broadcast opened it,
    // the record exchange carried it, the reliable commitment closed it —
    // with the resend flagged and its loss fork visible.
    assert!(out.contains("hello #"), "chain roots at a hello: {out}");
    assert!(
        out.contains("record_request #") || out.contains("record_reply #"),
        "chain passes through the record exchange: {out}"
    );
    assert!(
        out.contains("reliable.relation_commit #"),
        "chain reaches the commitment envelope: {out}"
    );
    assert!(out.contains(" RETX"), "the resend is flagged: {out}");
    assert!(
        out.contains("DROPPED->") || out.contains("elsewhere"),
        "loss forks are rendered: {out}"
    );

    // The tree nests root-to-leaf: the hello column is strictly left of
    // the retransmitted envelope's column.
    let hello_col = out
        .lines()
        .filter_map(|l| l.find("hello #"))
        .min()
        .expect("hello line");
    let retx_col = out
        .lines()
        .filter(|l| l.contains(" RETX"))
        .filter_map(|l| l.find("reliable"))
        .min()
        .expect("retransmitted reliable line");
    assert!(
        retx_col > hello_col,
        "resend renders deeper than the root hello: {out}"
    );

    // Every resend rendered on this edge cites an original that is also
    // rendered (the tree is closed over ancestors — no dangling parents).
    let rendered_ids: Vec<u64> = out
        .lines()
        .filter_map(|l| {
            let hash = l.find(" #")?;
            l[hash + 2..].split_whitespace().next()?.parse().ok()
        })
        .collect();
    assert!(!rendered_ids.is_empty(), "at least one send rendered");
    for (from, to, parent, retx, _) in &unicasts {
        let on_edge = (*from == u && *to == v) || (*from == v && *to == u);
        if on_edge && *retx {
            let original = parent.expect("resends always cite an original");
            // Ids roundtrip through the report's JSON as f64, so compare
            // through the same (consistent) rounding the view renders.
            let rendered = original as f64 as u64;
            assert!(
                rendered_ids.contains(&rendered),
                "resend's original #{rendered} is in the tree: {out}"
            );
        }
    }

    // A full-fidelity recorder leaves no retention gap to warn about.
    assert!(!out.contains("chains may be truncated"), "{out}");
}
