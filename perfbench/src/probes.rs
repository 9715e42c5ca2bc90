//! Layer probes: timed calls into one layer's public functions, fed with
//! the workload's own deployment, message mix and sizes.

use std::hint::black_box;

use snd_core::protocol::{BindingRecord, DiscoveryEngine, Message, RelationEvidence};
use snd_crypto::sha256::{Digest, Sha256};
use snd_sim::envelope::Envelope;
use snd_sim::faults::{FaultPlan, FaultSpec};
use snd_sim::ledger::TxMeta;
use snd_sim::network::Simulator;
use snd_sim::time::SimDuration;
use snd_topology::unit_disk::RadioSpec;
use snd_topology::{Deployment, FrozenGraph, NodeId};

use crate::metrics::{median, ns_per_item, timed};

/// Repetitions of the transport probe.
const SIM_ROUNDS: usize = 3;
/// Messages in the wire probe's mix.
const WIRE_MIX: usize = 4096;
/// Wall-clock budget of each micro-probe, seconds.
const PROBE_BUDGET_S: f64 = 0.3;

/// `sim.deliver_ns`: a fresh `Simulator` over `deployment` (with the
/// workload's fault plan) broadcasts one Hello-sized frame from every
/// node, advances past every due frame and drains all inboxes. Returns
/// the median wall nanoseconds per delivered frame over a few rounds.
///
/// # Errors
///
/// Frames left in flight or no frame delivered.
pub fn sim_deliver_ns(
    deployment: &Deployment,
    range: f64,
    faults: Option<&FaultSpec>,
    seed: u64,
) -> Result<f64, String> {
    let hellos: Vec<(NodeId, Envelope)> = deployment
        .ids()
        .map(|from| (from, Envelope::from(Message::Hello { from }.encode())))
        .collect();
    let mut samples = Vec::with_capacity(SIM_ROUNDS);
    for round in 0..SIM_ROUNDS as u64 {
        let mut sim = Simulator::new(deployment.clone(), RadioSpec::uniform(range), seed ^ round);
        if let Some(spec) = faults {
            sim.set_fault_plan(FaultPlan::new(spec.clone(), seed ^ round));
        }
        let frames = hellos.clone();
        let (inboxes, s) = timed(|| {
            for (from, payload) in frames {
                sim.broadcast_meta(from, payload, TxMeta::of("hello"));
            }
            sim.advance(SimDuration::from_millis(10));
            sim.drain_all_inboxes()
        });
        let delivered: usize = inboxes.iter().map(|(_, frames)| frames.len()).sum();
        if sim.in_flight() > 0 {
            return Err(format!("{} frames still in flight", sim.in_flight()));
        }
        if delivered == 0 {
            return Err("no frame delivered".into());
        }
        samples.push(s * 1e9 / delivered as f64);
    }
    Ok(median(&samples))
}

/// A message of ledger kind `kind`, built from real records and ids, or
/// `None` for a kind the probe does not model.
fn sample_message(
    kind: &str,
    i: usize,
    ids: &[NodeId],
    records: &[BindingRecord],
) -> Option<Message> {
    let from = ids[i % ids.len()];
    let to = ids[(i + 1) % ids.len()];
    let record = records[i % records.len()].clone();
    let digest = Digest([i as u8; 32]);
    let evidence = RelationEvidence {
        from,
        to,
        version: 0,
        digest,
    };
    let nonce = i as u64;
    Some(match kind {
        "hello" => Message::Hello { from },
        "hello_ack" => Message::HelloAck { from },
        "record_request" => Message::RecordRequest { from },
        "record_reply" => Message::RecordReply { record },
        "relation_commit" => Message::RelationCommit { from, to, digest },
        "evidence" => Message::Evidence { evidence },
        "update_request" => Message::UpdateRequest {
            record,
            evidences: vec![evidence],
        },
        "update_reply" => Message::UpdateReply { record },
        "ack" => Message::Ack { from, nonce },
        "reliable.relation_commit" => Message::Reliable {
            nonce,
            inner: Box::new(Message::RelationCommit { from, to, digest }),
        },
        "reliable.evidence" => Message::Reliable {
            nonce,
            inner: Box::new(Message::Evidence { evidence }),
        },
        _ => return None,
    })
}

/// `wire.encode_ns` and `wire.decode_ns`: nanoseconds per message over
/// the wave's per-kind message mix (the ledger's `tx_msgs` by kind),
/// with binding records taken from the wave's nodes.
///
/// # Errors
///
/// An empty ledger, or a message that does not survive a round trip.
pub fn wire_ns(engine: &DiscoveryEngine) -> Result<(f64, f64), String> {
    let kinds = engine.sim().ledger().kinds();
    let sent: u64 = kinds.iter().map(|(_, cell)| cell.tx_msgs).sum();
    if sent == 0 {
        return Err("the ledger recorded no sends".into());
    }
    let ids: Vec<NodeId> = engine.node_ids().take(64).collect();
    let records: Vec<BindingRecord> = ids
        .iter()
        .map(|&id| engine.node(id).expect("deployed").record().clone())
        .collect();
    let mut mix = Vec::with_capacity(WIRE_MIX);
    for (kind, cell) in &kinds {
        let share = (cell.tx_msgs as f64 * WIRE_MIX as f64 / sent as f64).round() as usize;
        let count = if cell.tx_msgs > 0 { share.max(1) } else { 0 };
        mix.extend((0..count).filter_map(|i| sample_message(kind, i, &ids, &records)));
    }
    let encoded: Vec<Vec<u8>> = mix.iter().map(Message::encode).collect();
    for (msg, bytes) in mix.iter().zip(&encoded) {
        if Message::decode(bytes).as_ref() != Ok(msg) {
            return Err(format!("{} does not survive a wire round trip", msg.kind()));
        }
    }
    let mut buf = Vec::new();
    let encode = ns_per_item(mix.len(), PROBE_BUDGET_S, || {
        for msg in &mix {
            buf.clear();
            msg.encode_into(&mut buf);
            black_box(&buf);
        }
    });
    let decode = ns_per_item(encoded.len(), PROBE_BUDGET_S, || {
        for bytes in &encoded {
            let _ = black_box(Message::decode(black_box(bytes)));
        }
    });
    Ok((encode, decode))
}

/// `crypto.sha256_ns`: nanoseconds per digest, the mean of the
/// protocol's two input shapes — a key or relation commitment
/// (`label ‖ K ‖ id`, 47–48 B) and a binding commitment over a
/// neighbor list of the wave's mean tentative degree.
pub fn sha256_ns(mean_degree: f64) -> f64 {
    const BATCH: usize = 1024;
    let label = *b"snd/rel/";
    let key = [0x5Au8; 32];
    let neighbors = mean_degree.round() as usize;
    let binding = vec![0xA5u8; 9 + 32 + 4 + 4 + 8 * neighbors + 8];
    let short = ns_per_item(BATCH, PROBE_BUDGET_S, || {
        for i in 0..BATCH as u64 {
            black_box(Sha256::digest_parts(&[&label, &key, &i.to_be_bytes()]));
        }
    });
    let long = ns_per_item(BATCH, PROBE_BUDGET_S, || {
        for _ in 0..BATCH {
            black_box(Sha256::digest(black_box(&binding)));
        }
    });
    (short + long) / 2.0
}

/// `topology.functional_s` and `topology.freeze_s`: seconds per
/// `engine.functional_topology()` and per `FrozenGraph::freeze` of its
/// result.
pub fn topology_s(engine: &DiscoveryEngine) -> (f64, f64) {
    let functional = engine.functional_topology();
    let functional_ns = ns_per_item(1, PROBE_BUDGET_S, || {
        black_box(engine.functional_topology());
    });
    let freeze_ns = ns_per_item(1, PROBE_BUDGET_S, || {
        black_box(FrozenGraph::freeze(&functional));
    });
    (functional_ns * 1e-9, freeze_ns * 1e-9)
}
