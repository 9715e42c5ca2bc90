//! The structured event taxonomy.
//!
//! Every observable action in the discovery stack maps to one [`Event`]
//! variant. Events are plain data — no formatting, no I/O — so the same
//! stream can drive a human-readable timeline, a JSONL export, or an
//! assertion in a test. Variants serialize externally tagged:
//! `{"PhaseStart": {"wave": 1, "phase": "Hello", "sim_time": 4000}}`.

use serde::Serialize;
use snd_sim::faults::FaultKind;
use snd_sim::metrics::DropReason;
use snd_sim::time::SimTime;
use snd_topology::{NodeId, Point};

/// The five engine phases of one discovery wave, in protocol order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Phase {
    /// Phase 1: Hello broadcasts and acks build tentative lists.
    Hello,
    /// Phase 2a: tentative lists frozen into binding records.
    Commit,
    /// Phase 2b: binding records collected and authenticated.
    Collect,
    /// Phase 3: binding-record updates against the still-trusted wave.
    Update,
    /// Phase 4: threshold validation, commitments, evidence, K erasure.
    Finalize,
}

impl Phase {
    /// All phases in protocol order (the `Update` phase only runs when the
    /// configuration allows record updates).
    pub const ALL: [Phase; 5] = [
        Phase::Hello,
        Phase::Commit,
        Phase::Collect,
        Phase::Update,
        Phase::Finalize,
    ];

    /// Stable lowercase name, usable as a metrics-registry key segment.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Hello => "hello",
            Phase::Commit => "commit",
            Phase::Collect => "collect",
            Phase::Update => "update",
            Phase::Finalize => "finalize",
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured event from the discovery stack.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Event {
    /// A discovery wave began for the listed newly deployed nodes.
    WaveStart {
        /// 1-based wave index within the engine's lifetime.
        wave: u64,
        /// The nodes starting discovery in this wave.
        new_nodes: Vec<NodeId>,
        /// Simulator clock at wave start.
        sim_time: SimTime,
    },
    /// The wave finished; all its nodes finalized.
    WaveEnd {
        /// 1-based wave index.
        wave: u64,
        /// Simulator clock at wave end.
        sim_time: SimTime,
    },
    /// A protocol phase began.
    PhaseStart {
        /// Enclosing wave.
        wave: u64,
        /// Which phase.
        phase: Phase,
        /// Simulator clock at phase start.
        sim_time: SimTime,
    },
    /// A protocol phase completed.
    PhaseEnd {
        /// Enclosing wave.
        wave: u64,
        /// Which phase.
        phase: Phase,
        /// Simulator clock at phase end.
        sim_time: SimTime,
    },
    /// Phase-1 forensics: a hello (or hello ack) from `peer` survived
    /// direct verification and entered `node`'s tentative neighbor list.
    TentativeAdded {
        /// The node growing its tentative list.
        node: NodeId,
        /// The tentative neighbor just recorded.
        peer: NodeId,
    },
    /// Phase-2b forensics: `node` received `from`'s binding record and
    /// either authenticated it into its collected set or rejected it.
    RecordCollected {
        /// The collecting node.
        node: NodeId,
        /// The record's claimed origin.
        from: NodeId,
        /// Whether the one-way authenticator checked out.
        authenticated: bool,
    },
    /// Phase-4 forensics: `node` checked the relation commitment `from`
    /// sent after accepting (or claiming to accept) the functional edge.
    CommitmentChecked {
        /// The commitment's addressee.
        node: NodeId,
        /// The committing neighbor.
        from: NodeId,
        /// Whether the commitment verified against the verification key.
        ok: bool,
    },
    /// Phase-4 forensics: `node` buffered relation evidence issued by
    /// `from` for a future record update (duplicates are not re-buffered
    /// and emit nothing).
    EvidenceBuffered {
        /// The old node holding the evidence.
        node: NodeId,
        /// The newly deployed issuer.
        from: NodeId,
    },
    /// A finalizing node judged one collected binding record against the
    /// `t + 1` shared-neighbor rule.
    ValidationDecision {
        /// The validating (newly deployed) node.
        node: NodeId,
        /// The tentative neighbor being judged.
        peer: NodeId,
        /// Shared tentative neighbors found (`|N(u) ∩ N(v)|`).
        shared: u64,
        /// Overlap needed to accept (`t + 1`).
        required: u64,
        /// Whether `peer` entered the functional neighbor list.
        accepted: bool,
    },
    /// A node destroyed its copy of the master key.
    MasterKeyErased {
        /// The erasing node.
        node: NodeId,
    },
    /// The adversary physically captured a node.
    NodeCompromised {
        /// The captured node.
        node: NodeId,
        /// Whether the capture leaked the master key (trust-window
        /// violation — the catastrophic case).
        master_key_leaked: bool,
    },
    /// The adversary placed a replica transceiver of a compromised node.
    ReplicaPlaced {
        /// The cloned identity.
        node: NodeId,
        /// Where the replica radio sits.
        at: Point,
    },
    /// A compromised radio claimed a fabricated Sybil identity: `node`
    /// does not exist as a sensor, but `owner`'s transceiver now speaks
    /// (and is spoken to) under that name.
    SybilClaimed {
        /// The fabricated identity.
        node: NodeId,
        /// The compromised radio claiming it.
        owner: NodeId,
    },
    /// The adversary planted an out-of-band far link between two
    /// colluding compromised radios (a node-anchored wormhole).
    FarLinkPlanted {
        /// One colluding radio.
        a: NodeId,
        /// The other colluding radio.
        b: NodeId,
    },
    /// The transport dropped a frame (mirrors the simulator's drop
    /// counters: best-effort broadcast fade-outs are not drops).
    RadioDrop {
        /// Sending identity.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Why the frame died.
        reason: DropReason,
    },
    /// A fault plan tampered with a frame without dropping it, or
    /// scheduled a node-level event (mirrors the simulator's fault
    /// counters; plan-induced *drops* arrive as [`Event::RadioDrop`]).
    FaultInjected {
        /// What was injected.
        kind: FaultKind,
        /// Sending identity (equal to `to` for node-level faults).
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
    },
    /// Ledger forensics: one logical send (a unicast, or a whole
    /// broadcast) left `from`'s radio. `id` is the seed-derived ledger
    /// message id; `parent` links replies and retransmissions to their
    /// cause, forming the causal chains `snd-trace causal` reconstructs.
    MsgSent {
        /// Seed-derived ledger message id.
        id: u64,
        /// Causal parent message id (`null` for a root send).
        parent: Option<u64>,
        /// Sender.
        from: NodeId,
        /// Unicast destination; `null` for a broadcast.
        to: Option<NodeId>,
        /// Message-kind bucket (`hello`, `record_reply`, …).
        kind: &'static str,
        /// Protocol phase the send is billed to.
        phase: &'static str,
        /// Payload size in bytes.
        bytes: u64,
        /// Whether the send repeats an earlier message.
        retransmission: bool,
    },
    /// Ledger forensics: one frame copy of message `id` reached `to`'s
    /// inbox (a broadcast emits one per receiver).
    MsgDelivered {
        /// The delivered message's ledger id.
        id: u64,
        /// Sending identity.
        from: NodeId,
        /// The receiver.
        to: NodeId,
    },
    /// Ledger forensics: one frame copy of message `id` died en route.
    /// Unlike [`Event::RadioDrop`] this also covers frames lost to a
    /// receiver that no longer exists, so causal chains never dangle.
    MsgDropped {
        /// The dropped message's ledger id.
        id: u64,
        /// Sending identity.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Why the frame died.
        reason: DropReason,
    },
}

/// An [`Event`] stamped with its position in the recorded stream.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EventRecord {
    /// 0-based sequence number within the recorder's stream.
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_ordered_and_named() {
        assert!(Phase::Hello < Phase::Finalize);
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["hello", "commit", "collect", "update", "finalize"]);
    }

    #[test]
    fn events_serialize_externally_tagged() {
        let ev = Event::PhaseStart {
            wave: 1,
            phase: Phase::Hello,
            sim_time: SimTime::from_millis(4),
        };
        assert_eq!(
            serde::json::to_string(&ev),
            r#"{"PhaseStart":{"wave":1,"phase":"Hello","sim_time":4000}}"#
        );
        let ev = Event::ValidationDecision {
            node: NodeId(9),
            peer: NodeId(0),
            shared: 1,
            required: 2,
            accepted: false,
        };
        assert_eq!(
            serde::json::to_string(&ev),
            r#"{"ValidationDecision":{"node":9,"peer":0,"shared":1,"required":2,"accepted":false}}"#
        );
    }

    #[test]
    fn fault_injections_serialize_externally_tagged() {
        let ev = Event::FaultInjected {
            kind: FaultKind::Duplicated,
            from: NodeId(3),
            to: NodeId(4),
        };
        assert_eq!(
            serde::json::to_string(&ev),
            r#"{"FaultInjected":{"kind":"Duplicated","from":3,"to":4}}"#
        );
    }

    #[test]
    fn ledger_events_serialize_externally_tagged() {
        let ev = Event::MsgSent {
            id: 7,
            parent: None,
            from: NodeId(1),
            to: None,
            kind: "hello",
            phase: "hello",
            bytes: 9,
            retransmission: false,
        };
        assert_eq!(
            serde::json::to_string(&ev),
            r#"{"MsgSent":{"id":7,"parent":null,"from":1,"to":null,"kind":"hello","phase":"hello","bytes":9,"retransmission":false}}"#
        );
        let ev = Event::MsgDropped {
            id: 7,
            from: NodeId(1),
            to: NodeId(2),
            reason: DropReason::LinkLoss,
        };
        assert_eq!(
            serde::json::to_string(&ev),
            r#"{"MsgDropped":{"id":7,"from":1,"to":2,"reason":"LinkLoss"}}"#
        );
    }

    #[test]
    fn event_records_carry_sequence() {
        let rec = EventRecord {
            seq: 3,
            event: Event::MasterKeyErased { node: NodeId(5) },
        };
        assert_eq!(
            serde::json::to_string(&rec),
            r#"{"seq":3,"event":{"MasterKeyErased":{"node":5}}}"#
        );
    }
}
