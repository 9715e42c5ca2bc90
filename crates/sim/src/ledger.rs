//! The communication ledger: per-node × per-phase × per-kind accounting
//! of everything that crosses the simulated radio (DESIGN.md §13).
//!
//! It is the simulator's only per-frame transport account:
//! [`Metrics`](crate::metrics::Metrics) is a read-only view over it.
//!
//! Every *logical send* (one unicast, or one broadcast regardless of how
//! many receivers hear it) is assigned a deterministic, seed-derived
//! message id. The ledger tracks two complementary views of the traffic:
//!
//! * **message counters** — a broadcast counts once, bytes are charged to
//!   the sender per logical send. With each node's broadcast count kept
//!   beside them, they are what `Metrics` reports, so the E9 check
//!   (`comm.tx_msgs == sim.unicasts_sent + sim.broadcasts_sent`,
//!   `comm.tx_bytes == sim.bytes_sent`) holds by construction;
//! * **frame counters** count directed on-air copies — one per unicast
//!   attempt, one per in-range broadcast receiver, one per injected
//!   duplicate — and every frame ends its life as exactly one delivery or
//!   one attributed drop, which is the conservation law the proptest in
//!   `crates/sim/tests/conservation.rs` pins:
//!   `tx_frames == delivered_frames + dropped_frames`, per node (as
//!   sender) and in aggregate, for counts and for bytes.
//!
//! For the `Metrics` view the ledger also counts injected faults and
//! *silent* drops: frames that reached a receiver which died while they
//! were in flight (booked as `NoSuchNode`, but no failure the radio saw).
//!
//! Energy is the *estimated* radio cost in integer nanojoules, computed
//! from the installed [`EnergyModel`](crate::energy::EnergyModel) or the
//! default model when energy accounting is off, so overhead analysis can
//! always speak µJ even in runs that do not simulate battery death.
//!
//! Everything in here is a pure function of the simulation seed and the
//! frame sequence, so ledger output is byte-identical across
//! `SND_THREADS` (DESIGN.md §9).

use std::collections::BTreeMap;

use snd_exec::{splitmix64, stream_seed};
use snd_topology::NodeId;

use crate::faults::FaultKind;
use crate::metrics::DropReason;

/// Stream label for message-id derivation, distinct from the fault plan's
/// frame (0xFA01) and crash (0xFA02) streams.
const LEDGER_STREAM: u64 = 0xFA03;

/// Phase label used before a protocol layer announces one.
pub const PHASE_SETUP: &str = "setup";

/// Caller-supplied metadata for one logical send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxMeta {
    /// Message-kind bucket (see `Message::kind()` in `snd-core`).
    pub kind: &'static str,
    /// Causal parent: the message id this send replies to or retransmits.
    pub parent: Option<u64>,
    /// Whether this send repeats an earlier one (ARQ resend, hello
    /// re-round); counted under `retransmissions`.
    pub retransmission: bool,
}

impl TxMeta {
    /// Metadata for an unclassified send (legacy `unicast`/`broadcast`
    /// callers that predate the ledger).
    pub fn raw() -> TxMeta {
        TxMeta::of("raw")
    }

    /// A fresh, parentless send of `kind`.
    pub fn of(kind: &'static str) -> TxMeta {
        TxMeta {
            kind,
            parent: None,
            retransmission: false,
        }
    }

    /// A reply of `kind` caused by message `parent`.
    pub fn reply(kind: &'static str, parent: u64) -> TxMeta {
        TxMeta {
            kind,
            parent: Some(parent),
            retransmission: false,
        }
    }

    /// A retransmission of `kind` whose original was message `parent`.
    pub fn retx(kind: &'static str, parent: u64) -> TxMeta {
        TxMeta {
            kind,
            parent: Some(parent),
            retransmission: true,
        }
    }
}

impl Default for TxMeta {
    fn default() -> Self {
        TxMeta::raw()
    }
}

/// One node's communication totals. Frame/drop fields are attributed to
/// the node *as sender*; `rx_*` to the node as receiver.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeComm {
    /// Logical sends (unicasts + broadcasts, each counted once).
    pub tx_msgs: u64,
    /// Payload bytes across logical sends.
    pub tx_bytes: u64,
    /// Directed on-air frame copies attempted (unicast attempts, per-
    /// receiver broadcast copies, injected duplicates).
    pub tx_frames: u64,
    /// Payload bytes across those frame copies.
    pub tx_frame_bytes: u64,
    /// Frames this node sent that reached an inbox (or died of the
    /// receiver's battery *after* being heard).
    pub delivered_frames: u64,
    /// Bytes across delivered frames.
    pub delivered_bytes: u64,
    /// Frames this node sent that were dropped anywhere on the path.
    pub dropped_frames: u64,
    /// Bytes across dropped frames.
    pub dropped_bytes: u64,
    /// Dropped frames by reason.
    pub drops: BTreeMap<DropReason, u64>,
    /// Frames heard by this node.
    pub rx_msgs: u64,
    /// Bytes heard by this node.
    pub rx_bytes: u64,
    /// Logical sends flagged as retransmissions.
    pub retransmissions: u64,
    /// Estimated transmit energy, nanojoules.
    pub tx_energy_nj: u64,
    /// Estimated receive energy, nanojoules.
    pub rx_energy_nj: u64,
}

impl NodeComm {
    /// Total estimated radio energy, nanojoules.
    pub fn energy_nj(&self) -> u64 {
        self.tx_energy_nj + self.rx_energy_nj
    }

    /// Total bytes moved through this node's radio (sent + heard).
    pub fn bytes(&self) -> u64 {
        self.tx_bytes + self.rx_bytes
    }
}

/// One cell of the node × phase × kind cube.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellComm {
    /// Logical sends from this node of this kind in this phase.
    pub tx_msgs: u64,
    /// Bytes across those sends.
    pub tx_bytes: u64,
    /// Frames of this kind heard by this node in this phase.
    pub rx_msgs: u64,
    /// Bytes across those frames.
    pub rx_bytes: u64,
    /// Dropped frames of this kind attributed to this node as sender.
    pub drops: u64,
    /// Retransmitted logical sends.
    pub retransmissions: u64,
}

/// Per-phase aggregates over all nodes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseComm {
    /// Logical sends begun in this phase.
    pub tx_msgs: u64,
    /// Bytes across those sends.
    pub tx_bytes: u64,
    /// Frames delivered while this phase was active.
    pub rx_msgs: u64,
    /// Bytes across delivered frames.
    pub rx_bytes: u64,
    /// Frames dropped while this phase was active.
    pub dropped_frames: u64,
    /// Retransmitted logical sends.
    pub retransmissions: u64,
    /// Estimated transmit energy, nanojoules.
    pub tx_energy_nj: u64,
    /// Estimated receive energy, nanojoules.
    pub rx_energy_nj: u64,
}

/// The ledger itself; owned by the [`Simulator`](crate::network::Simulator),
/// always on.
#[derive(Debug)]
pub struct CommLedger {
    /// Base for the seed-derived message-id stream.
    base: u64,
    /// Logical sends so far; `next_id` input.
    issued: u64,
    phase: &'static str,
    /// Index of `phase` in `phases`, kept in sync by `set_phase` so the
    /// hot paths never re-intern the current label.
    phase_idx: u8,
    /// Interned phase labels; cell keys index into this.
    phases: Vec<&'static str>,
    /// Interned kind labels; cell keys index into this.
    kinds: Vec<&'static str>,
    /// Per-node totals plus that node's (phase, kind) cells, stored
    /// densely: deployments number nodes `0..n`, so indexing by id makes
    /// every hot-path charge a bounds check and a direct load, and the
    /// ascending-id order every export needs is the natural iteration
    /// order (§9 determinism). `touched` marks slots the ledger actually
    /// charged, so exports skip never-seen ids.
    per_node: Vec<NodeEntry>,
    touched: Vec<bool>,
    /// Per-phase aggregates, indexed by interned phase id.
    phase_agg: Vec<PhaseComm>,
    totals: NodeComm,
    /// Dropped frames the radio never saw fail (all `NoSuchNode`).
    silent_drops: u64,
    /// Injected faults, indexed by `FaultKind as usize`.
    faults: [u64; FaultKind::ALL.len()],
}

/// One node's ledger state: its totals, how many of its logical sends
/// were broadcasts, and its slice of the node × phase × kind cube. The
/// cell list is sorted by packed `(phase << 8) | kind` key and stays tiny
/// (≤ phases × kinds), so a binary search beats any map.
#[derive(Debug, Default)]
pub(crate) struct NodeEntry {
    pub(crate) comm: NodeComm,
    pub(crate) broadcasts: u64,
    cells: Vec<(u16, CellComm)>,
}

impl NodeEntry {
    fn cell(&mut self, phase: u8, kind: u8) -> &mut CellComm {
        let key = u16::from(phase) << 8 | u16::from(kind);
        match self.cells.binary_search_by_key(&key, |(k, _)| *k) {
            Ok(i) => &mut self.cells[i].1,
            Err(i) => {
                self.cells.insert(i, (key, CellComm::default()));
                &mut self.cells[i].1
            }
        }
    }
}

/// The dense slot for `id`, created (and marked touched) on demand. A
/// free function over the two fields so callers can still borrow the
/// ledger's other fields (e.g. `totals`) simultaneously.
fn ent<'a>(
    per_node: &'a mut Vec<NodeEntry>,
    touched: &mut Vec<bool>,
    id: NodeId,
) -> &'a mut NodeEntry {
    let idx = id.0 as usize;
    if idx >= per_node.len() {
        per_node.resize_with(idx + 1, NodeEntry::default);
        touched.resize(idx + 1, false);
    }
    touched[idx] = true;
    &mut per_node[idx]
}

impl CommLedger {
    pub(crate) fn new(seed: u64) -> Self {
        CommLedger {
            base: stream_seed(seed, LEDGER_STREAM),
            issued: 0,
            phase: PHASE_SETUP,
            phase_idx: 0,
            phases: vec![PHASE_SETUP],
            kinds: Vec::new(),
            per_node: Vec::new(),
            touched: Vec::new(),
            phase_agg: vec![PhaseComm::default()],
            totals: NodeComm::default(),
            silent_drops: 0,
            faults: [0; FaultKind::ALL.len()],
        }
    }

    /// Announces the protocol phase subsequent traffic is billed to.
    pub(crate) fn set_phase(&mut self, phase: &'static str) {
        self.phase = phase;
        self.phase_idx = self.intern_phase(phase);
    }

    /// The phase currently being billed.
    pub fn phase(&self) -> &'static str {
        self.phase
    }

    fn intern_phase(&mut self, phase: &'static str) -> u8 {
        let idx = intern(&mut self.phases, phase);
        if self.phase_agg.len() <= idx as usize {
            self.phase_agg
                .resize(idx as usize + 1, PhaseComm::default());
        }
        idx
    }

    fn intern_kind(&mut self, kind: &'static str) -> u8 {
        intern(&mut self.kinds, kind)
    }

    /// Opens a logical send (a unicast, or one whole `broadcast`):
    /// assigns the next seed-derived message id and charges the
    /// message-level counters. Returns `(id, kind index)`; the kind index
    /// travels with each frame copy so deliveries and drops land in the
    /// right cube cell.
    pub(crate) fn begin_tx(
        &mut self,
        from: NodeId,
        meta: TxMeta,
        broadcast: bool,
        bytes: usize,
        energy_uj: f64,
    ) -> (u64, u8) {
        self.issued += 1;
        let id = splitmix64(self.base.wrapping_add(self.issued));
        let kind = self.intern_kind(meta.kind);
        let phase = self.phase_idx;
        let nj = to_nj(energy_uj);
        let retx = u64::from(meta.retransmission);
        let entry = ent(&mut self.per_node, &mut self.touched, from);
        entry.broadcasts += u64::from(broadcast);
        for comm in [&mut entry.comm, &mut self.totals] {
            comm.tx_msgs += 1;
            comm.tx_bytes += bytes as u64;
            comm.retransmissions += retx;
            comm.tx_energy_nj += nj;
        }
        let cell = entry.cell(phase, kind);
        cell.tx_msgs += 1;
        cell.tx_bytes += bytes as u64;
        cell.retransmissions += retx;
        let agg = &mut self.phase_agg[phase as usize];
        agg.tx_msgs += 1;
        agg.tx_bytes += bytes as u64;
        agg.retransmissions += retx;
        agg.tx_energy_nj += nj;
        (id, kind)
    }

    /// Charges one directed on-air frame copy to the sender.
    pub(crate) fn frame_attempt(&mut self, from: NodeId, bytes: usize) {
        for comm in [
            &mut ent(&mut self.per_node, &mut self.touched, from).comm,
            &mut self.totals,
        ] {
            comm.tx_frames += 1;
            comm.tx_frame_bytes += bytes as u64;
        }
    }

    /// Closes one frame copy as dropped, attributed to the sender. A drop
    /// the radio never `heard` fail (a dead receiver) is also counted as
    /// silent.
    pub(crate) fn record_drop(
        &mut self,
        from: NodeId,
        kind: u8,
        reason: DropReason,
        bytes: usize,
        heard: bool,
    ) {
        self.silent_drops += u64::from(!heard);
        let phase = self.phase_idx;
        let entry = ent(&mut self.per_node, &mut self.touched, from);
        for comm in [&mut entry.comm, &mut self.totals] {
            comm.dropped_frames += 1;
            comm.dropped_bytes += bytes as u64;
            *comm.drops.entry(reason).or_default() += 1;
        }
        entry.cell(phase, kind).drops += 1;
        self.phase_agg[phase as usize].dropped_frames += 1;
    }

    /// Closes one frame copy as delivered: receive side billed to `to`,
    /// the delivery credited back to sender `from`.
    pub(crate) fn record_rx(
        &mut self,
        to: NodeId,
        from: NodeId,
        kind: u8,
        bytes: usize,
        energy_uj: f64,
    ) {
        let nj = to_nj(energy_uj);
        let phase = self.phase_idx;
        {
            let sender = &mut ent(&mut self.per_node, &mut self.touched, from).comm;
            sender.delivered_frames += 1;
            sender.delivered_bytes += bytes as u64;
        }
        self.totals.delivered_frames += 1;
        self.totals.delivered_bytes += bytes as u64;
        let entry = ent(&mut self.per_node, &mut self.touched, to);
        for comm in [&mut entry.comm, &mut self.totals] {
            comm.rx_msgs += 1;
            comm.rx_bytes += bytes as u64;
            comm.rx_energy_nj += nj;
        }
        let cell = entry.cell(phase, kind);
        cell.rx_msgs += 1;
        cell.rx_bytes += bytes as u64;
        let agg = &mut self.phase_agg[phase as usize];
        agg.rx_msgs += 1;
        agg.rx_bytes += bytes as u64;
        agg.rx_energy_nj += nj;
    }

    /// Counts one injected fault.
    pub(crate) fn record_fault(&mut self, kind: FaultKind) {
        self.faults[kind as usize] += 1;
    }

    /// Injected faults, indexed by `FaultKind as usize`.
    pub(crate) fn faults(&self) -> [u64; FaultKind::ALL.len()] {
        self.faults
    }

    /// Dropped frames the radio never saw fail (all `NoSuchNode`).
    pub(crate) fn silent_drops(&self) -> u64 {
        self.silent_drops
    }

    /// Message ids issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Aggregate totals over all nodes.
    pub fn totals(&self) -> &NodeComm {
        &self.totals
    }

    /// Logical heap bytes the ledger retains: the dense per-node entries,
    /// their (phase, kind) cell lists and drop maps, the interned label
    /// tables and the phase aggregates. Length-based (never capacity),
    /// so the figure is a pure function of the frame sequence and stays
    /// byte-identical across `SND_THREADS` — tier-1 memory telemetry,
    /// DESIGN.md §17.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        // Per-entry B-tree overhead estimate; matches snd-observe's
        // `mem::BTREE_ENTRY_SLACK` (kept local: the dependency points
        // the other way).
        const BTREE_SLACK: u64 = 16;
        let drops_heap = |c: &NodeComm| {
            c.drops.len() as u64 * (size_of::<(DropReason, u64)>() as u64 + BTREE_SLACK)
        };
        let mut bytes = (self.per_node.len() * size_of::<NodeEntry>()) as u64
            + self.touched.len() as u64
            + (self.phase_agg.len() * size_of::<PhaseComm>()) as u64
            + ((self.phases.len() + self.kinds.len()) * size_of::<&'static str>()) as u64
            + drops_heap(&self.totals);
        for entry in &self.per_node {
            bytes += (entry.cells.len() * size_of::<(u16, CellComm)>()) as u64;
            bytes += drops_heap(&entry.comm);
        }
        bytes
    }

    /// One node's totals (zeroes for a node the ledger never saw).
    pub fn node(&self, id: NodeId) -> NodeComm {
        self.entry(id).map(|e| e.comm.clone()).unwrap_or_default()
    }

    /// `id`'s dense slot, if the table reaches that far.
    pub(crate) fn entry(&self, id: NodeId) -> Option<&NodeEntry> {
        self.per_node.get(id.0 as usize)
    }

    /// Every slot the ledger charged, ordered by node id (the natural
    /// order of the dense storage).
    pub(crate) fn entries(&self) -> impl Iterator<Item = (NodeId, &NodeEntry)> + '_ {
        self.per_node
            .iter()
            .zip(self.touched.iter())
            .enumerate()
            .filter(|(_, (_, &touched))| touched)
            .map(|(idx, (e, _))| (NodeId(idx as u64), e))
    }

    /// Per-node totals, ordered by node id.
    pub fn per_node(&self) -> impl Iterator<Item = (NodeId, &NodeComm)> + '_ {
        self.entries().map(|(id, e)| (id, &e.comm))
    }

    /// Per-phase aggregates, in phase announcement order (phases that
    /// never saw traffic are omitted, matching the pre-flat layout).
    pub fn phases(&self) -> impl Iterator<Item = (&'static str, &PhaseComm)> + '_ {
        self.phase_agg
            .iter()
            .enumerate()
            .filter(|(_, agg)| **agg != PhaseComm::default())
            .map(|(idx, agg)| (self.phases[idx], agg))
    }

    /// The full node × phase × kind cube, ordered by (node, phase, kind).
    pub fn cells(
        &self,
    ) -> impl Iterator<Item = (NodeId, &'static str, &'static str, &CellComm)> + '_ {
        self.per_node
            .iter()
            .enumerate()
            .flat_map(move |(idx, entry)| {
                entry.cells.iter().map(move |(key, cell)| {
                    (
                        NodeId(idx as u64),
                        self.phases[(key >> 8) as usize],
                        self.kinds[(key & 0xFF) as usize],
                        cell,
                    )
                })
            })
    }

    /// Per-kind aggregates over all nodes and phases, ordered by kind
    /// label (stable across thread counts).
    pub fn kinds(&self) -> Vec<(&'static str, CellComm)> {
        let mut by_kind: BTreeMap<&'static str, CellComm> = BTreeMap::new();
        for entry in &self.per_node {
            for (key, cell) in &entry.cells {
                let agg = by_kind
                    .entry(self.kinds[(key & 0xFF) as usize])
                    .or_default();
                agg.tx_msgs += cell.tx_msgs;
                agg.tx_bytes += cell.tx_bytes;
                agg.rx_msgs += cell.rx_msgs;
                agg.rx_bytes += cell.rx_bytes;
                agg.drops += cell.drops;
                agg.retransmissions += cell.retransmissions;
            }
        }
        by_kind.into_iter().collect()
    }
}

/// Interns `label` into `table`, returning its index. Tables stay tiny
/// (≤ a dozen kinds, five phases), so a linear scan beats hashing.
fn intern(table: &mut Vec<&'static str>, label: &'static str) -> u8 {
    if let Some(idx) = table
        .iter()
        .position(|&l| std::ptr::eq(l, label) || l == label)
    {
        return idx as u8;
    }
    assert!(table.len() < u8::MAX as usize, "label table overflow");
    table.push(label);
    (table.len() - 1) as u8
}

/// Micro- to integer nanojoules; rounding keeps the ledger integral (and
/// therefore trivially byte-identical across thread counts).
fn to_nj(uj: f64) -> u64 {
    (uj * 1_000.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn ids_are_seed_derived_unique_and_deterministic() {
        let mut a = CommLedger::new(42);
        let mut b = CommLedger::new(42);
        let mut c = CommLedger::new(43);
        let ids_a: Vec<u64> = (0..100)
            .map(|_| a.begin_tx(n(1), TxMeta::raw(), false, 9, 0.0).0)
            .collect();
        let ids_b: Vec<u64> = (0..100)
            .map(|_| b.begin_tx(n(1), TxMeta::raw(), false, 9, 0.0).0)
            .collect();
        let ids_c: Vec<u64> = (0..100)
            .map(|_| c.begin_tx(n(1), TxMeta::raw(), false, 9, 0.0).0)
            .collect();
        assert_eq!(ids_a, ids_b, "same seed, same ids");
        assert_ne!(ids_a, ids_c, "different seeds diverge");
        let mut unique = ids_a.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids_a.len(), "ids never collide");
    }

    #[test]
    fn cube_cells_split_by_phase_and_kind() {
        let mut ledger = CommLedger::new(7);
        ledger.set_phase("hello");
        let (_, hello) = ledger.begin_tx(n(1), TxMeta::of("hello"), true, 9, 10.0);
        ledger.record_rx(n(2), n(1), hello, 9, 11.0);
        ledger.set_phase("collect");
        let (req_id, req) = ledger.begin_tx(n(2), TxMeta::of("record_request"), false, 9, 10.0);
        ledger.record_drop(n(2), req, DropReason::LinkLoss, 9, true);
        let retx = TxMeta::retx("record_request", req_id);
        ledger.begin_tx(n(2), retx, false, 9, 10.0);

        let cells: Vec<(NodeId, &str, &str, u64, u64)> = ledger
            .cells()
            .map(|(id, phase, kind, c)| (id, phase, kind, c.tx_msgs, c.rx_msgs))
            .collect();
        assert_eq!(
            cells,
            vec![
                (n(1), "hello", "hello", 1, 0),
                (n(2), "hello", "hello", 0, 1),
                (n(2), "collect", "record_request", 2, 0),
            ]
        );
        assert_eq!(ledger.node(n(2)).retransmissions, 1);
        assert_eq!(ledger.node(n(2)).drops[&DropReason::LinkLoss], 1);
        let phases: Vec<&str> = ledger.phases().map(|(p, _)| p).collect();
        assert_eq!(phases, vec!["hello", "collect"]);
        assert_eq!(ledger.kinds().len(), 2);
    }

    #[test]
    fn energy_is_integral_nanojoules() {
        let mut ledger = CommLedger::new(1);
        let (_, k) = ledger.begin_tx(n(1), TxMeta::raw(), false, 100, 70.0);
        ledger.record_rx(n(2), n(1), k, 100, 77.0);
        assert_eq!(ledger.node(n(1)).tx_energy_nj, 70_000);
        assert_eq!(ledger.node(n(2)).rx_energy_nj, 77_000);
        assert_eq!(ledger.totals().energy_nj(), 147_000);
    }
}
