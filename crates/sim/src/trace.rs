//! Transport-level trace hook.
//!
//! The simulator sits at the bottom of the crate stack, so it cannot
//! depend on the observability layer (`snd-observe` depends on this
//! crate). Instead it exposes a minimal [`TraceHook`] trait; higher
//! layers install an adapter that forwards transport events into their
//! recorder of choice.
//!
//! The hook only forwards: counting is the communication ledger's job
//! (`crate::ledger`), and [`Metrics`](crate::metrics::Metrics) is a view
//! over that ledger.
//!
//! [`TraceHook::radio_drop`] fires only for drops the radio saw — exactly
//! those [`Metrics::drop_counts`](crate::metrics::Metrics::drop_counts)
//! reports. In particular, out-of-range receivers during a broadcast are
//! not drops (broadcast is best-effort by definition) and do not fire it.
//! The ledger-level message hooks ([`TraceHook::msg_sent`] /
//! [`msg_delivered`](TraceHook::msg_delivered) /
//! [`msg_dropped`](TraceHook::msg_dropped)) instead follow every frame
//! copy to its end, including the silent dead-receiver losses `Metrics`
//! leaves out — they are the event source for causal message tracing.

use snd_topology::NodeId;

use crate::faults::FaultKind;
use crate::metrics::DropReason;

/// Ledger metadata for one logical send, handed to
/// [`TraceHook::msg_sent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgSend {
    /// Seed-derived message id (see `crate::ledger`).
    pub id: u64,
    /// Causal parent message id, if this send replies to or retransmits
    /// an earlier message.
    pub parent: Option<u64>,
    /// Sender.
    pub from: NodeId,
    /// Unicast destination; `None` for a broadcast.
    pub to: Option<NodeId>,
    /// Message-kind bucket.
    pub kind: &'static str,
    /// Protocol phase the send is billed to.
    pub phase: &'static str,
    /// Payload size in bytes.
    pub bytes: usize,
    /// Whether the send repeats an earlier message.
    pub retransmission: bool,
}

/// Observer for transport events the simulator would otherwise only
/// aggregate into counters.
///
/// Implementations must be cheap: the hook is called on the send path.
pub trait TraceHook: Send + Sync + std::fmt::Debug {
    /// A frame from `from` addressed to `to` was dropped for `reason`.
    fn radio_drop(&self, from: NodeId, to: NodeId, reason: DropReason);

    /// A fault plan tampered with (but did not drop) a frame from `from`
    /// to `to`, or scheduled a node-level event (`from == to` for
    /// [`FaultKind::NodeCrash`]). Fires once per fault
    /// [`Metrics::fault_counts`](crate::metrics::Metrics::fault_counts)
    /// counts. Default: ignore.
    fn fault_injected(&self, _kind: FaultKind, _from: NodeId, _to: NodeId) {}

    /// A logical send left a node's radio. Fires once per unicast or
    /// broadcast, before fault/delivery resolution. Default: ignore.
    fn msg_sent(&self, _msg: &MsgSend) {}

    /// One frame copy of message `id` reached `to`'s inbox. A broadcast
    /// fires this once per receiver. Default: ignore.
    fn msg_delivered(&self, _id: u64, _from: NodeId, _to: NodeId) {}

    /// One frame copy of message `id` addressed to `to` died for
    /// `reason`. Unlike [`TraceHook::radio_drop`] this also fires for
    /// frames silently lost to a dead receiver. Default: ignore.
    fn msg_dropped(&self, _id: u64, _from: NodeId, _to: NodeId, _reason: DropReason) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[derive(Debug, Default)]
    struct CountingHook(Mutex<Vec<(NodeId, NodeId, DropReason)>>);

    impl TraceHook for CountingHook {
        fn radio_drop(&self, from: NodeId, to: NodeId, reason: DropReason) {
            self.0.lock().push((from, to, reason));
        }
    }

    #[test]
    fn hook_object_is_usable_through_dyn() {
        let hook = Arc::new(CountingHook::default());
        let dynamic: Arc<dyn TraceHook> = Arc::clone(&hook) as Arc<dyn TraceHook>;
        dynamic.radio_drop(NodeId(1), NodeId(2), DropReason::LinkLoss);
        assert_eq!(
            hook.0.lock().as_slice(),
            &[(NodeId(1), NodeId(2), DropReason::LinkLoss)]
        );
    }
}
