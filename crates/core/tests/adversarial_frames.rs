//! Adversarial bytes must never panic a node.
//!
//! Frames are injected straight into the radio fabric
//! (`sim_mut().unicast`) just before a second discovery wave, addressed to
//! benign incumbents, benign newcomers, a compromised node and a Sybil
//! identity. A reordering fault plan spreads their arrival over the
//! wave's pumps, so they meet receivers in every protocol state. The
//! payloads are arbitrary bytes, `Reliable` envelopes around garbage, and
//! well-formed messages of every kind with arbitrary contents — including
//! out-of-phase `UpdateRequest`, `RelationCommit` and `Evidence`.
//!
//! Three properties: no panic; every undecodable frame (and every
//! misaddressed commitment to an honest receiver) is counted in
//! `WaveReport::malformed_frames`, exactly; and the outcome at 1 and 8
//! executor threads is identical.

use std::collections::BTreeSet;

use proptest::prelude::*;

use snd_core::protocol::{
    BindingRecord, DiscoveryEngine, Message, ProtocolConfig, RelationEvidence, ReliabilityConfig,
    WaveReport,
};
use snd_crypto::sha256::Digest;
use snd_exec::Executor;
use snd_sim::faults::{FaultPlan, FaultSpec};
use snd_sim::ledger::NodeComm;
use snd_sim::time::SimDuration;
use snd_topology::unit_disk::RadioSpec;
use snd_topology::{DiGraph, Field, NodeId};

/// First-wave size; the 35 m field keeps every pair within the 50 m
/// range, so any injector reaches any receiver.
const FIRST: u64 = 30;
const SYBIL: NodeId = NodeId(500);

/// Raw ingredients of one injected frame: (receiver class, payload shape,
/// two id seeds, (version, nonce), bytes, neighbor-id set).
type Recipe = (u8, u8, (u64, u64), (u32, u64), Vec<u8>, BTreeSet<u64>);

fn recipe() -> impl Strategy<Value = Recipe> {
    (
        0u8..4,
        0u8..12,
        (0u64..64, 0u64..64),
        (0u32..3, any::<u64>()),
        prop::collection::vec(any::<u8>(), 0..120),
        prop::collection::btree_set(0u64..64, 0..8),
    )
}

/// Small seeds name real nodes; the top few name ids nobody holds.
fn id(seed: u64) -> NodeId {
    if seed >= 60 {
        NodeId(u64::MAX - seed)
    } else {
        NodeId(seed)
    }
}

/// The first 32 bytes of `bytes`, zero-padded, as a digest.
fn digest(bytes: &[u8]) -> Digest {
    let mut d = [0u8; 32];
    let n = bytes.len().min(32);
    d[..n].copy_from_slice(&bytes[..n]);
    Digest(d)
}

/// A well-formed message of kind `shape` (0..8) with arbitrary contents.
fn message(shape: u8, recipe: &Recipe) -> Message {
    let (_, _, (a, b), (version, nonce), bytes, set) = recipe;
    let record = BindingRecord {
        node: id(*a),
        version: *version,
        neighbors: set.iter().map(|&x| id(x)).collect(),
        commitment: digest(bytes),
    };
    let evidence = RelationEvidence {
        from: id(*a),
        to: id(*b),
        version: *version,
        digest: digest(bytes),
    };
    match shape % 8 {
        0 => Message::Hello { from: id(*a) },
        1 => Message::HelloAck { from: id(*a) },
        2 => Message::RecordRequest { from: id(*a) },
        3 => Message::RecordReply { record },
        4 => Message::RelationCommit {
            from: id(*a),
            to: id(*b),
            digest: digest(bytes),
        },
        5 => Message::Evidence { evidence },
        6 => Message::UpdateRequest {
            record,
            evidences: vec![evidence],
        },
        _ => Message::Ack {
            from: id(*a),
            nonce: *nonce,
        },
    }
}

/// The frame bytes a recipe describes.
fn payload(recipe: &Recipe) -> Vec<u8> {
    let (_, shape, (a, _), (_, nonce), bytes, _) = recipe;
    match shape {
        0 => bytes.clone(),
        // A reliability envelope header followed by garbage.
        1 => {
            let mut frame = Message::Reliable {
                nonce: *nonce,
                inner: Box::new(Message::Hello { from: NodeId(0) }),
            }
            .encode();
            frame.truncate(1 + 8);
            frame.extend_from_slice(bytes);
            frame
        }
        2 => Message::UpdateReply {
            record: BindingRecord {
                node: id(*a),
                version: 1,
                neighbors: BTreeSet::new(),
                commitment: digest(bytes),
            },
        }
        .encode(),
        // An envelope around any well-formed, non-framing message.
        3 => Message::Reliable {
            nonce: *nonce,
            inner: Box::new(message((*nonce % 7) as u8, recipe)),
        }
        .encode(),
        s => message(s - 4, recipe).encode(),
    }
}

/// Whether an honest receiver counts this frame as malformed: it does not
/// decode, or it is a (possibly enveloped) commitment addressed elsewhere.
fn counts_as_malformed(bytes: &[u8], receiver: NodeId, honest: bool) -> bool {
    let msg = match Message::decode(bytes) {
        Err(_) => return true,
        Ok(Message::Reliable { inner, .. }) => *inner,
        Ok(other) => other,
    };
    honest && matches!(msg, Message::RelationCommit { to, .. } if to != receiver)
}

/// What the wave externalizes, compared across thread counts.
#[derive(Debug, PartialEq)]
struct Outcome {
    waves: Vec<WaveReport>,
    functional: DiGraph,
    tentative: DiGraph,
    hash_ops: u64,
    ledger_totals: NodeComm,
}

/// Runs the scenario with `recipes` injected before the second wave.
/// Returns the outcome and the exact number of frames that must be
/// counted malformed.
fn run(seed: u64, recipes: &[Recipe], threads: usize) -> (Outcome, u64) {
    let mut engine = DiscoveryEngine::new(
        Field::square(35.0),
        RadioSpec::uniform(50.0),
        ProtocolConfig::with_threshold(2),
        seed,
    );
    engine.set_reliability(ReliabilityConfig {
        enabled: true,
        retry_budget: 2,
        hello_rounds: 3,
        base_backoff: SimDuration::from_millis(4),
        max_backoff: SimDuration::from_millis(32),
        phase_timeout: SimDuration::from_millis(400),
    });
    engine.set_executor(Executor::new(threads));
    let first = engine.deploy_uniform(FIRST as usize);
    let mut waves = vec![engine.run_wave(&first)];
    let compromised = first[0];
    engine.compromise(compromised).expect("operational");
    engine
        .claim_sybil_identities(compromised, &[SYBIL])
        .expect("fresh id");
    // Reordering only: no loss, duplication or corruption, so every
    // injected frame arrives exactly once, somewhere inside the wave.
    let spec = FaultSpec {
        reorder: 0.5,
        max_extra_delay: SimDuration::from_millis(20),
        ..FaultSpec::default()
    };
    engine.sim_mut().set_fault_plan(FaultPlan::new(spec, seed));
    let late = engine.deploy_uniform(10);

    let mut expected_malformed = 0u64;
    for recipe in recipes {
        let (class, _, (a, b), ..) = recipe;
        let receiver = match class {
            0 => first[1 + (*b % (FIRST - 1)) as usize],
            1 => late[(*b % late.len() as u64) as usize],
            2 => compromised,
            _ => SYBIL,
        };
        let mut sender = first[1 + (*a % (FIRST - 1)) as usize];
        if sender == receiver {
            sender = late[0];
        }
        let bytes = payload(recipe);
        let honest = !engine.adversary().controls(receiver);
        if engine
            .sim_mut()
            .unicast(sender, receiver, bytes.clone())
            .is_scheduled()
            && counts_as_malformed(&bytes, receiver, honest)
        {
            expected_malformed += 1;
        }
    }
    waves.push(engine.run_wave(&late));
    // A trailing empty wave drains anything delayed past the last pump.
    waves.push(engine.run_wave(&[]));

    let outcome = Outcome {
        functional: engine.functional_topology(),
        tentative: engine.tentative_topology(),
        hash_ops: engine.hash_ops(),
        ledger_totals: engine.sim().ledger().totals().clone(),
        waves,
    };
    (outcome, expected_malformed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn injected_frames_never_panic_are_counted_and_thread_invariant(
        seed in 1u64..1000,
        recipes in prop::collection::vec(recipe(), 1..40),
    ) {
        let (one, expected_malformed) = run(seed, &recipes, 1);
        let malformed: u64 = one.waves.iter().map(|w| w.malformed_frames).sum();
        prop_assert_eq!(malformed, expected_malformed);
        let (eight, _) = run(seed, &recipes, 8);
        prop_assert_eq!(one, eight);
    }
}

/// Direct verification checks the claimed sender of the message inside a
/// `Reliable` envelope, not the envelope: a radio that wraps a Hello
/// claiming another identity in reliability framing must not plant that
/// identity as a tentative neighbor (it gets its envelope acked, nothing
/// more). The bare Hello is the control.
#[test]
fn enveloped_hello_cannot_claim_another_sender() {
    const PHANTOM: NodeId = NodeId(9_999);
    for wrapped in [false, true] {
        let mut engine = DiscoveryEngine::new(
            Field::square(35.0),
            RadioSpec::uniform(50.0),
            ProtocolConfig::with_threshold(2),
            7,
        );
        engine.set_reliability(ReliabilityConfig {
            enabled: true,
            retry_budget: 2,
            hello_rounds: 1,
            base_backoff: SimDuration::from_millis(4),
            max_backoff: SimDuration::from_millis(32),
            phase_timeout: SimDuration::from_millis(400),
        });
        let first = engine.deploy_uniform(8);
        engine.run_wave(&first);
        let late = engine.deploy_uniform(3);
        let (injector, victim) = (first[0], late[0]);
        let hello = Message::Hello { from: PHANTOM };
        let frame = if wrapped {
            Message::Reliable {
                nonce: 42,
                inner: Box::new(hello),
            }
        } else {
            hello
        };
        assert!(engine
            .sim_mut()
            .unicast(injector, victim, frame.encode())
            .is_scheduled());
        engine.run_wave(&late);
        let node = engine.node(victim).expect("deployed");
        assert!(
            !node.tentative_neighbors().contains(&PHANTOM),
            "{injector:?} planted {PHANTOM:?} at {victim:?} (wrapped: {wrapped})"
        );
        assert!(node.tentative_neighbors().contains(&injector));
    }
}
