//! Cost accounting.
//!
//! Section 4.3 of the paper argues the protocol is cheap by counting three
//! things: storage items, messages "transmitted between neighboring sensor
//! nodes", and "a few efficient one-way hash operations". [`Metrics`]
//! reports all three (bytes too) per node and in aggregate, so the overhead
//! experiment (E9 in DESIGN.md) is a straight read-out.
//!
//! `Metrics` owns no transport counters: it is a read-only view over the
//! simulator's [`CommLedger`], where every frame is booked once (DESIGN.md
//! §13). Hash operations are protocol cost, not transport, so they live
//! in a separate [`HashCounter`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::Serialize;
use snd_topology::NodeId;

use crate::faults::FaultKind;
use crate::ledger::{CommLedger, NodeComm};

/// Why a transmission failed to reach a receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum DropReason {
    /// Receiver outside the sender's radio range.
    OutOfRange,
    /// Stochastic link loss.
    LinkLoss,
    /// Receiver inside an active jamming zone.
    Jammed,
    /// Destination does not exist (or died).
    NoSuchNode,
    /// Injected loss burst (fault plan).
    BurstLoss,
    /// Sender or receiver radio inside a crash/reboot window (fault plan).
    NodeDown,
    /// Payload failed the receiver's CRC after injected corruption.
    Corrupted,
    /// Re-delivered frame id suppressed by the receiver's dedup window.
    DuplicateSuppressed,
}

/// Per-node transmission/reception counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct NodeCounters {
    /// Unicast frames sent.
    pub unicasts_sent: u64,
    /// Broadcast frames sent (counted once per broadcast).
    pub broadcasts_sent: u64,
    /// Frames received.
    pub received: u64,
    /// Payload bytes sent (unicast counts once; broadcast counts once).
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
}

/// Read-only view of a simulator's cost counters, derived from its
/// communication ledger; obtained from
/// [`Simulator::metrics`](crate::network::Simulator::metrics).
#[derive(Debug, Clone, Copy)]
pub struct Metrics<'a> {
    pub(crate) ledger: &'a CommLedger,
    pub(crate) hash_ops: &'a HashCounter,
}

/// A node's cost counters from its ledger totals and broadcast count.
fn counters(comm: &NodeComm, broadcasts: u64) -> NodeCounters {
    NodeCounters {
        unicasts_sent: comm.tx_msgs - broadcasts,
        broadcasts_sent: broadcasts,
        received: comm.rx_msgs,
        bytes_sent: comm.tx_bytes,
        bytes_received: comm.rx_bytes,
    }
}

impl<'a> Metrics<'a> {
    /// Counters for `id`, zeroed if never touched.
    pub fn node(&self, id: NodeId) -> NodeCounters {
        self.ledger
            .entry(id)
            .map(|e| counters(&e.comm, e.broadcasts))
            .unwrap_or_default()
    }

    /// Number of drops for `reason`.
    pub fn drops(&self, reason: DropReason) -> u64 {
        self.drop_counts().get(&reason).copied().unwrap_or(0)
    }

    /// Total drops across all reasons.
    pub fn total_drops(&self) -> u64 {
        self.ledger.totals().dropped_frames - self.ledger.silent_drops()
    }

    /// Iterates every touched node's counters, in id order.
    pub fn per_node(&self) -> impl Iterator<Item = (NodeId, NodeCounters)> + 'a {
        self.ledger
            .entries()
            .map(|(id, e)| (id, counters(&e.comm, e.broadcasts)))
    }

    /// Number of nodes with at least one recorded counter: every node
    /// that sent a frame or received a delivered one.
    pub fn touched_nodes(&self) -> usize {
        self.ledger.entries().count()
    }

    /// Every drop reason the radio observed, with its count. Frames lost
    /// to a receiver that died while they were in flight are left out.
    pub fn drop_counts(&self) -> BTreeMap<DropReason, u64> {
        let mut drops = self.ledger.totals().drops.clone();
        if let Some(count) = drops.get_mut(&DropReason::NoSuchNode) {
            *count -= self.ledger.silent_drops();
        }
        drops.retain(|_, count| *count > 0);
        drops
    }

    /// Number of injected faults of `kind`.
    pub fn faults(&self, kind: FaultKind) -> u64 {
        self.ledger.faults()[kind as usize]
    }

    /// Total injected (non-drop) faults across all kinds.
    pub fn total_faults(&self) -> u64 {
        self.ledger.faults().iter().sum()
    }

    /// Every fault kind observed, with its count.
    pub fn fault_counts(&self) -> BTreeMap<FaultKind, u64> {
        FaultKind::ALL
            .into_iter()
            .zip(self.ledger.faults())
            .filter(|&(_, count)| count > 0)
            .collect()
    }

    /// A shareable counter for hash operations; protocol code clones the
    /// handle and bumps it on every hash invocation.
    pub fn hash_counter(&self) -> HashCounter {
        self.hash_ops.clone()
    }

    /// Total hash operations recorded so far.
    pub fn hash_ops(&self) -> u64 {
        self.hash_ops.get()
    }

    /// Sums counters over all nodes.
    pub fn totals(&self) -> NodeCounters {
        let broadcasts = self.ledger.entries().map(|(_, e)| e.broadcasts).sum();
        counters(self.ledger.totals(), broadcasts)
    }

    /// Mean frames sent (unicast + broadcast) per touched node.
    pub fn mean_sent_per_node(&self) -> f64 {
        let touched = self.touched_nodes();
        if touched == 0 {
            return 0.0;
        }
        self.ledger.totals().tx_msgs as f64 / touched as f64
    }
}

/// A cloneable handle onto a shared hash-operation counter.
#[derive(Debug, Clone)]
pub struct HashCounter(Arc<AtomicU64>);

impl HashCounter {
    /// A fresh counter at zero, shared with nothing yet.
    pub fn detached() -> Self {
        HashCounter(Arc::new(AtomicU64::new(0)))
    }

    /// Records `n` hash invocations.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::TxMeta;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    fn view<'a>(ledger: &'a CommLedger, hash_ops: &'a HashCounter) -> Metrics<'a> {
        Metrics { ledger, hash_ops }
    }

    #[test]
    fn counters_accumulate() {
        let mut ledger = CommLedger::new(1);
        let (_, k) = ledger.begin_tx(n(1), TxMeta::raw(), false, 60, 0.0);
        ledger.begin_tx(n(1), TxMeta::raw(), false, 40, 0.0);
        ledger.begin_tx(n(2), TxMeta::raw(), true, 8, 0.0);
        ledger.record_rx(n(3), n(1), k, 60, 0.0);
        let ops = HashCounter::detached();
        let m = view(&ledger, &ops);
        assert_eq!(
            m.node(n(1)),
            NodeCounters {
                unicasts_sent: 2,
                bytes_sent: 100,
                ..NodeCounters::default()
            }
        );
        let t = m.totals();
        assert_eq!((t.unicasts_sent, t.broadcasts_sent), (2, 1));
        assert_eq!((t.bytes_sent, t.received, t.bytes_received), (108, 1, 60));
        assert_eq!(m.touched_nodes(), 3);
        assert_eq!(m.mean_sent_per_node(), 1.0);
        let ids: Vec<NodeId> = m.per_node().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![n(1), n(2), n(3)]);
    }

    #[test]
    fn untouched_node_is_zero() {
        let ledger = CommLedger::new(1);
        let ops = HashCounter::detached();
        let m = view(&ledger, &ops);
        assert_eq!(m.node(n(9)), NodeCounters::default());
        assert_eq!(m.mean_sent_per_node(), 0.0);
    }

    #[test]
    fn drop_reasons_tracked_separately() {
        let mut ledger = CommLedger::new(1);
        let (_, k) = ledger.begin_tx(n(1), TxMeta::raw(), true, 4, 0.0);
        ledger.record_drop(n(1), k, DropReason::OutOfRange, 4, true);
        ledger.record_drop(n(1), k, DropReason::OutOfRange, 4, true);
        ledger.record_drop(n(1), k, DropReason::Jammed, 4, true);
        ledger.record_drop(n(1), k, DropReason::NoSuchNode, 4, false);
        let ops = HashCounter::detached();
        let m = view(&ledger, &ops);
        assert_eq!(m.drops(DropReason::OutOfRange), 2);
        assert_eq!(m.drops(DropReason::Jammed), 1);
        assert_eq!(m.drops(DropReason::NoSuchNode), 0);
        assert_eq!(m.total_drops(), 3);
        assert_eq!(m.drop_counts().len(), 2, "silent-only reason is absent");
        ledger.record_drop(n(1), k, DropReason::NoSuchNode, 4, true);
        let m = view(&ledger, &ops);
        assert_eq!(m.drops(DropReason::NoSuchNode), 1);
        assert_eq!(m.total_drops(), 4);
    }

    #[test]
    fn fault_kinds_tracked_separately() {
        let mut ledger = CommLedger::new(1);
        ledger.record_fault(FaultKind::Duplicated);
        ledger.record_fault(FaultKind::Duplicated);
        ledger.record_fault(FaultKind::Corrupted);
        let ops = HashCounter::detached();
        let m = view(&ledger, &ops);
        assert_eq!(m.faults(FaultKind::Duplicated), 2);
        assert_eq!(m.faults(FaultKind::Corrupted), 1);
        assert_eq!(m.faults(FaultKind::Reordered), 0);
        assert_eq!(m.total_faults(), 3);
        assert_eq!(
            m.fault_counts().into_iter().collect::<Vec<_>>(),
            vec![(FaultKind::Duplicated, 2), (FaultKind::Corrupted, 1)]
        );
    }

    #[test]
    fn hash_counter_shared() {
        let ledger = CommLedger::new(1);
        let ops = HashCounter::detached();
        let m = view(&ledger, &ops);
        let h1 = m.hash_counter();
        let h2 = m.hash_counter();
        h1.add(3);
        h2.add(4);
        assert_eq!(m.hash_ops(), 7);
        assert_eq!(h1.get(), 7);
    }

    #[test]
    fn detached_counter_is_isolated() {
        let ledger = CommLedger::new(1);
        let ops = HashCounter::detached();
        let m = view(&ledger, &ops);
        let d = HashCounter::detached();
        d.add(5);
        assert_eq!(m.hash_ops(), 0);
        assert_eq!(d.get(), 5);
    }
}
