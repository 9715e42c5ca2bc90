//! The network simulator: message fabric, clock, and delivery semantics.
//!
//! [`Simulator`] owns node positions (including attacker-placed *replica*
//! transceivers sharing a compromised node's identity), a radio/link model,
//! jamming zones, an event queue of in-flight frames, per-node inboxes, and
//! cost [`Metrics`]. Protocol layers drive it in rounds: send frames, advance
//! the clock, drain inboxes.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use snd_topology::unit_disk::RadioSpec;
use snd_topology::{Deployment, NodeId, Point};

use crate::energy::{Battery, EnergyModel};
use crate::envelope::Envelope;
use crate::faults::{FaultKind, FaultPlan, FrameFaults};
use crate::jamming::JamZone;
use crate::ledger::{CommLedger, TxMeta};
use crate::metrics::{DropReason, HashCounter, Metrics};
use crate::radio::{AnyLinkModel, LinkModel};
use crate::time::{SimDuration, SimTime};
use crate::trace::{MsgSend, TraceHook};

/// A frame delivered into a node's inbox.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivered {
    /// Delivery time.
    pub at: SimTime,
    /// Claimed sender identity (the radio's ID; replicas share the
    /// compromised node's ID).
    pub from: NodeId,
    /// Payload bytes (inline below 25 bytes, `Arc`-shared above — see
    /// [`crate::envelope::Envelope`]). Byte-transparent via `Deref`.
    pub payload: Envelope,
    /// Whether the frame was part of a broadcast.
    pub broadcast: bool,
    /// Physical path length the frame actually traveled, in meters. Over a
    /// wormhole this includes the tunnel, which is exactly what RTT-based
    /// direct verification measures (packet leashes \[9\]\[10\]).
    pub distance: f64,
    /// The ledger's seed-derived id of the logical send this frame
    /// belongs to (shared by every copy of a broadcast and by injected
    /// duplicates). Protocol layers cite it as the causal parent of the
    /// messages they send in response.
    pub msg_id: u64,
}

#[derive(Debug, Clone)]
struct InFlight {
    deliver_at: SimTime,
    to: NodeId,
    frame: Delivered,
    /// Ledger kind index, so deliveries and drops land in the right
    /// ledger cell without re-deriving the message kind.
    kind: u8,
    /// Injected corruption the receiver's CRC will catch at delivery.
    crc_failed: bool,
}

/// Outcome of a unicast attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The frame was scheduled for delivery.
    Scheduled,
    /// The frame was dropped.
    Dropped(DropReason),
}

impl SendOutcome {
    /// Whether the frame will arrive.
    pub fn is_scheduled(&self) -> bool {
        matches!(self, SendOutcome::Scheduled)
    }
}

/// A deterministic discrete-event sensor-network simulator.
///
/// # Examples
///
/// ```
/// use snd_sim::network::Simulator;
/// use snd_sim::time::SimDuration;
/// use snd_topology::unit_disk::RadioSpec;
/// use snd_topology::{Deployment, Field, NodeId, Point};
///
/// let mut d = Deployment::empty(Field::square(100.0));
/// d.place(NodeId(1), Point::new(10.0, 10.0));
/// d.place(NodeId(2), Point::new(20.0, 10.0));
/// let mut sim = Simulator::new(d, RadioSpec::uniform(50.0), 42);
///
/// sim.unicast(NodeId(1), NodeId(2), b"hello".to_vec());
/// sim.advance(SimDuration::from_millis(10));
/// let inbox = sim.drain_inbox(NodeId(2));
/// assert_eq!(inbox[0].payload, b"hello");
/// ```
#[derive(Debug)]
pub struct Simulator {
    time: SimTime,
    /// Dense per-node state, indexed by node id (deployments number
    /// nodes `0..n`). One slot holds everything the per-frame hot paths
    /// touch about a node — transceiver positions, inbox, dedup ring —
    /// so a delivery costs direct indexing instead of several hash
    /// probes, and ascending-id iteration (the determinism contract's
    /// canonical order) is the natural scan order. A node with no
    /// transceivers left (killed / battery death) keeps its slot with
    /// `positions` empty; its inbox survives, exactly as the old
    /// side-table layout behaved.
    nodes: Vec<NodeState>,
    radio: RadioSpec,
    link: AnyLinkModel,
    jammers: Vec<JamZone>,
    /// In-flight frames bucketed by delivery time. Within a bucket,
    /// frames sit in enqueue order — which is exactly ascending global
    /// send sequence, so popping buckets in key order and replaying each
    /// in push order reproduces the old `(deliver_at, seq)` heap order
    /// frame for frame. Few buckets exist at once (latency is uniform and
    /// injected extra delays span 0–3 ms), so entry/pop stay cheap.
    queue: BTreeMap<SimTime, Vec<InFlight>>,
    /// Receivers whose inbox gained frames since the last bulk drain, in
    /// delivery order with duplicates; sorted + deduped at drain time so
    /// [`Simulator::drain_all_inboxes`] is O(active) instead of O(nodes).
    dirty_inboxes: Vec<NodeId>,
    /// Logical bytes currently queued across all inboxes
    /// (`size_of::<Delivered>()` per frame plus shared-payload heap), and
    /// the highest such figure ever observed. Maintained at delivery and
    /// drain time because phase-boundary memory samples always see
    /// drained (empty) inboxes — the peak is the number that matters.
    /// Deliveries and drains are serial and seed-determined, so both are
    /// thread-invariant (DESIGN.md §9/§17).
    inbox_bytes: u64,
    inbox_bytes_peak: u64,
    /// Protocol hash operations (not transport; see [`Metrics`]).
    hash_ops: HashCounter,
    rng: StdRng,
    latency: SimDuration,
    energy: Option<EnergyModel>,
    batteries: BTreeMap<NodeId, Battery>,
    deaths: Vec<NodeId>,
    wormholes: Vec<Wormhole>,
    /// Attacker-planted far links between pairs of colluding radios:
    /// frames heard by one endpoint are re-emitted by the other (see
    /// [`Simulator::add_far_link`]).
    far_links: Vec<(NodeId, NodeId)>,
    trace: Option<Arc<dyn TraceHook>>,
    faults: Option<FaultPlan>,
    /// The communication ledger: per-node × per-phase × per-kind
    /// accounting of every frame, always on, and the only per-frame
    /// transport account ([`Simulator::metrics`] is a view over it). Also
    /// issues the message ids used for duplicate suppression.
    ledger: CommLedger,
    /// Lazily built spatial shortlist for broadcast receivers, dropped on
    /// any position mutation. `None` means stale/absent.
    bcast_index: Option<BroadcastIndex>,
}

/// Logical heap bytes one queued frame costs its inbox: the inline
/// `Delivered` plus any shared payload heap (inline payloads add none).
fn frame_heap_bytes(frame: &Delivered) -> u64 {
    let payload = match &frame.payload {
        Envelope::Inline { .. } => 0,
        Envelope::Shared(v) => v.len() as u64,
    };
    std::mem::size_of::<Delivered>() as u64 + payload
}

/// Everything the simulator tracks per node, stored densely by id.
#[derive(Debug, Default)]
struct NodeState {
    /// Transceiver positions (original first, replicas after). Empty
    /// means the node does not exist (never deployed, killed, or dead).
    positions: Vec<Point>,
    /// Frames delivered but not yet drained by the protocol layer.
    inbox: Vec<Delivered>,
    /// Ring of recently delivered message ids (dedup window).
    recent: VecDeque<u64>,
}

/// A uniform grid over every live transceiver position, used to shortlist
/// broadcast candidates in O(neighborhood) instead of scanning all nodes.
///
/// The shortlist is a *superset* filter: a query returns every node with a
/// transceiver inside the axis-aligned boxes around the sender's
/// transceivers, in ascending id order. Callers still run the full
/// [`Simulator::check_delivery`] per candidate, so delivery decisions (and
/// the RNG stream they consume) are exactly those of a full scan — nodes
/// outside the box are precisely those the scan would have skipped as
/// out-of-range without consuming randomness or ledger entries.
#[derive(Debug)]
struct BroadcastIndex {
    cell: f64,
    min_x: f64,
    min_y: f64,
    cols: usize,
    rows: usize,
    /// One bucket per grid cell; a node appears once per transceiver.
    cells: Vec<Vec<NodeId>>,
}

impl BroadcastIndex {
    fn build(nodes: &[NodeState], cell: f64) -> Self {
        let cell = cell.max(1e-6);
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for st in nodes {
            for p in &st.positions {
                min_x = min_x.min(p.x);
                min_y = min_y.min(p.y);
                max_x = max_x.max(p.x);
                max_y = max_y.max(p.y);
            }
        }
        if min_x > max_x {
            // No transceivers at all: a single empty cell.
            (min_x, min_y, max_x, max_y) = (0.0, 0.0, 0.0, 0.0);
        }
        let cols = (((max_x - min_x) / cell) as usize) + 1;
        let rows = (((max_y - min_y) / cell) as usize) + 1;
        let mut cells = vec![Vec::new(); cols * rows];
        let mut index = BroadcastIndex {
            cell,
            min_x,
            min_y,
            cols,
            rows,
            cells: Vec::new(),
        };
        for (idx, st) in nodes.iter().enumerate() {
            for p in &st.positions {
                cells[index.cell_of(p)].push(NodeId(idx as u64));
            }
        }
        index.cells = cells;
        index
    }

    fn cell_of(&self, p: &Point) -> usize {
        let col = (((p.x - self.min_x) / self.cell) as usize).min(self.cols - 1);
        let row = (((p.y - self.min_y) / self.cell) as usize).min(self.rows - 1);
        row * self.cols + col
    }

    /// Appends every node with a transceiver within `radius` (in the
    /// box metric, a superset of the disk) of any of `centers` to `out`.
    /// May contain duplicates; the caller sorts and dedups.
    fn candidates(&self, centers: &[Point], radius: f64, out: &mut Vec<NodeId>) {
        for c in centers {
            let col_lo = (((c.x - radius - self.min_x) / self.cell).floor().max(0.0) as usize)
                .min(self.cols - 1);
            let col_hi = (((c.x + radius - self.min_x) / self.cell).floor().max(0.0) as usize)
                .min(self.cols - 1);
            let row_lo = (((c.y - radius - self.min_y) / self.cell).floor().max(0.0) as usize)
                .min(self.rows - 1);
            let row_hi = (((c.y + radius - self.min_y) / self.cell).floor().max(0.0) as usize)
                .min(self.rows - 1);
            for row in row_lo..=row_hi {
                for col in col_lo..=col_hi {
                    out.extend_from_slice(&self.cells[row * self.cols + col]);
                }
            }
        }
    }
}

/// An out-of-band tunnel between two field positions \[8\]–\[10\]: frames
/// heard within `radius` of one end are re-emitted at the other. The
/// classic wormhole attack needs **no compromised nodes** — it simply
/// relays traffic — but it stretches the physical path length, which is
/// what RTT-based direct verification detects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wormhole {
    /// One tunnel mouth.
    pub a: Point,
    /// The other tunnel mouth.
    pub b: Point,
    /// Pickup/re-emission radius at each mouth.
    pub radius: f64,
}

impl Simulator {
    /// Builds a simulator over `deployment` with an ideal unit-disk link
    /// model and 1 ms frame latency.
    pub fn new(deployment: Deployment, radio: RadioSpec, seed: u64) -> Self {
        let mut nodes: Vec<NodeState> = Vec::new();
        for (id, p) in deployment.iter() {
            let idx = id.0 as usize;
            if idx >= nodes.len() {
                nodes.resize_with(idx + 1, NodeState::default);
            }
            nodes[idx].positions.push(p);
        }
        Simulator {
            time: SimTime::ZERO,
            nodes,
            radio,
            link: AnyLinkModel::default(),
            jammers: Vec::new(),
            queue: BTreeMap::new(),
            dirty_inboxes: Vec::new(),
            inbox_bytes: 0,
            inbox_bytes_peak: 0,
            hash_ops: HashCounter::detached(),
            rng: StdRng::seed_from_u64(seed),
            latency: SimDuration::from_millis(1),
            energy: None,
            batteries: BTreeMap::new(),
            deaths: Vec::new(),
            wormholes: Vec::new(),
            far_links: Vec::new(),
            trace: None,
            faults: None,
            ledger: CommLedger::new(seed),
            bcast_index: None,
        }
    }

    /// Read access to the communication ledger.
    pub fn ledger(&self) -> &CommLedger {
        &self.ledger
    }

    /// Announces the protocol phase subsequent ledger traffic is billed
    /// to (one of the `snd-observe` phase names, or any static label).
    pub fn set_comm_phase(&mut self, phase: &'static str) {
        self.ledger.set_phase(phase);
    }

    /// Estimated radio energy of one frame in µJ, from the installed
    /// model or the default one when energy accounting is off. The ledger
    /// always books energy; batteries only drain when accounting is on.
    fn est_energy_uj(&self, bytes: usize, receiving: bool) -> f64 {
        let model = self.energy.unwrap_or_default();
        if receiving {
            model.rx_cost(bytes)
        } else {
            model.tx_cost(bytes)
        }
    }

    /// Installs a deterministic fault plan.
    ///
    /// The plan's jam zones are added to the simulator, each node with a
    /// scheduled crash window is announced as a [`FaultKind::NodeCrash`]
    /// fault, and from here on every scheduled frame passes through the
    /// plan. Crash windows also apply to nodes added later (they are pure
    /// functions of the plan seed), but those gain no announcement.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        for zone in plan.spec().jams.clone() {
            self.jammers.push(zone);
        }
        let ids: Vec<NodeId> = self.node_ids().collect();
        for id in ids {
            if plan.crash_window(id).is_some() {
                self.note_fault(FaultKind::NodeCrash, id, id);
            }
        }
        self.faults = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Notes an injected fault in both the ledger and the trace hook.
    fn note_fault(&mut self, kind: FaultKind, from: NodeId, to: NodeId) {
        self.ledger.record_fault(kind);
        if let Some(hook) = &self.trace {
            hook.fault_injected(kind, from, to);
        }
    }

    /// Installs a transport trace hook, fired at every recorded drop.
    pub fn set_trace_hook(&mut self, hook: Arc<dyn TraceHook>) {
        self.trace = Some(hook);
    }

    /// Closes one frame copy of message `id` as dropped: books it in the
    /// ledger and, when the radio `heard` the failure, fires the
    /// `radio_drop` hook. The one unheard site is a frame arriving at a
    /// receiver that no longer exists: the ledger books it as silent
    /// (left out of [`Metrics`]' drop counts) but still closes the frame
    /// (otherwise frame conservation would leak).
    #[allow(clippy::too_many_arguments)]
    fn drop_msg(
        &mut self,
        id: u64,
        kind: u8,
        from: NodeId,
        to: NodeId,
        reason: DropReason,
        bytes: usize,
        heard: bool,
    ) {
        self.ledger.record_drop(from, kind, reason, bytes, heard);
        if let Some(hook) = &self.trace {
            if heard {
                hook.radio_drop(from, to, reason);
            }
            hook.msg_dropped(id, from, to, reason);
        }
    }

    /// Installs a wormhole tunnel.
    pub fn add_wormhole(&mut self, wormhole: Wormhole) {
        assert!(wormhole.radius > 0.0, "wormhole radius must be positive");
        self.wormholes.push(wormhole);
    }

    /// Plants a far link between two colluding radios: frames any of
    /// `a`'s transceivers can hear are re-emitted by `b` (and vice
    /// versa), regardless of the physical distance between `a` and `b`.
    ///
    /// This is the node-anchored cousin of [`Simulator::add_wormhole`]:
    /// the tunnel mouths follow the colluders' transceivers instead of
    /// sitting at fixed field positions. Like a wormhole, the reported
    /// frame distance includes the tunnel span, so RTT-based direct
    /// verification still sees the stretched path.
    pub fn add_far_link(&mut self, a: NodeId, b: NodeId) {
        assert!(a != b, "a far link needs two distinct endpoints");
        self.far_links.push((a, b));
    }

    /// The planted far links, in insertion order.
    pub fn far_links(&self) -> &[(NodeId, NodeId)] {
        &self.far_links
    }

    /// Whether the lazy broadcast spatial index is currently built.
    /// Observability hook for the determinism contract: the index must
    /// never exist while wormholes, jammers or far links are active
    /// (those force the full-scan slow path).
    pub fn broadcast_index_built(&self) -> bool {
        self.bcast_index.is_some()
    }

    /// Enables radio energy accounting. Nodes without an explicit battery
    /// (see [`Simulator::set_battery`]) are treated as mains-powered.
    pub fn enable_energy(&mut self, model: EnergyModel) {
        self.energy = Some(model);
    }

    /// Installs (or replaces) a battery with `capacity` µJ for `id`. When
    /// energy accounting is enabled, the node dies once it is exhausted.
    pub fn set_battery(&mut self, id: NodeId, capacity: f64) {
        self.batteries.insert(id, Battery::new(capacity));
    }

    /// The battery state of `id`, if it has one.
    pub fn battery(&self, id: NodeId) -> Option<&Battery> {
        self.batteries.get(&id)
    }

    /// Nodes that died of battery exhaustion, in order of death.
    pub fn battery_deaths(&self) -> &[NodeId] {
        &self.deaths
    }

    /// Draws transmit/receive energy; kills the node on exhaustion.
    fn charge(&mut self, id: NodeId, bytes: usize, receiving: bool) {
        let Some(model) = self.energy else { return };
        let Some(battery) = self.batteries.get_mut(&id) else {
            return;
        };
        let cost = if receiving {
            model.rx_cost(bytes)
        } else {
            model.tx_cost(bytes)
        };
        if battery.draw(cost) {
            self.deaths.push(id);
            self.state_mut(id).positions.clear();
            self.bcast_index = None;
        }
    }

    /// Replaces the link model.
    pub fn set_link_model(&mut self, link: AnyLinkModel) {
        self.link = link;
    }

    /// Sets the per-frame latency.
    pub fn set_latency(&mut self, latency: SimDuration) {
        self.latency = latency;
    }

    /// Adds a jamming zone.
    pub fn add_jammer(&mut self, zone: JamZone) {
        self.jammers.push(zone);
    }

    /// The dense slot for `id`, growing the table on demand.
    fn state_mut(&mut self, id: NodeId) -> &mut NodeState {
        let idx = id.0 as usize;
        if idx >= self.nodes.len() {
            self.nodes.resize_with(idx + 1, NodeState::default);
        }
        &mut self.nodes[idx]
    }

    /// `id`'s transceiver positions, `None` when the node doesn't exist.
    fn pos(&self, id: NodeId) -> Option<&Vec<Point>> {
        self.nodes
            .get(id.0 as usize)
            .map(|s| &s.positions)
            .filter(|v| !v.is_empty())
    }

    /// Adds a node at `p` (e.g. a newly deployed sensor).
    pub fn add_node(&mut self, id: NodeId, p: Point) {
        self.state_mut(id).positions.push(p);
        self.bcast_index = None;
    }

    /// Installs an attacker-controlled replica transceiver that shares
    /// `id`'s identity at position `p`.
    pub fn add_replica(&mut self, id: NodeId, p: Point) {
        self.add_node(id, p);
    }

    /// Removes a node (battery death / physical destruction) and its
    /// replicas; pending frames to it are silently dropped on delivery.
    pub fn kill(&mut self, id: NodeId) -> bool {
        self.bcast_index = None;
        match self.nodes.get_mut(id.0 as usize) {
            Some(st) if !st.positions.is_empty() => {
                st.positions.clear();
                true
            }
            _ => false,
        }
    }

    /// Whether `id` currently exists.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.pos(id).is_some()
    }

    /// All transceiver positions for `id` (original first).
    pub fn positions_of(&self, id: NodeId) -> &[Point] {
        self.nodes
            .get(id.0 as usize)
            .map_or(&[], |s| s.positions.as_slice())
    }

    /// IDs of all live nodes, ascending (the dense table's natural scan
    /// order).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.positions.is_empty())
            .map(|(idx, _)| NodeId(idx as u64))
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// The cost counters, as a read-only view over the ledger.
    pub fn metrics(&self) -> Metrics<'_> {
        Metrics {
            ledger: &self.ledger,
            hash_ops: &self.hash_ops,
        }
    }

    /// Finds the best (closest) transceiver pair between two nodes, if both
    /// exist.
    fn best_link(&self, from: NodeId, to: NodeId) -> Option<(Point, Point, f64)> {
        let fps = self.pos(from)?;
        let tps = self.pos(to)?;
        let mut best: Option<(Point, Point, f64)> = None;
        for fp in fps {
            for tp in tps {
                let d = fp.distance(tp);
                if best.as_ref().is_none_or(|(_, _, bd)| d < *bd) {
                    best = Some((*fp, *tp, d));
                }
            }
        }
        best
    }

    /// Decides whether a frame gets through, returning the physical path
    /// length it traveled (direct, or via a wormhole tunnel).
    fn check_delivery(&mut self, from: NodeId, to: NodeId) -> Result<f64, DropReason> {
        let Some((fp, tp, dist)) = self.best_link(from, to) else {
            return Err(DropReason::NoSuchNode);
        };
        let jam_hit = self
            .jammers
            .iter()
            .any(|z| z.jams(&fp, self.time) || z.jams(&tp, self.time));
        if jam_hit {
            return Err(DropReason::Jammed);
        }
        let range = self.radio.range(from);
        if dist <= range {
            if self.link.delivers(dist, range, &mut self.rng) {
                return Ok(dist);
            }
            return Err(DropReason::LinkLoss);
        }
        // Direct reach failed: try wormhole tunnels. The sender must be
        // within its range of one mouth AND within the mouth's pickup
        // radius; the far mouth must reach the receiver.
        if let Some(path) = self.wormhole_path(from, to) {
            return Ok(path);
        }
        if let Some(path) = self.far_link_path(from, to) {
            return Ok(path);
        }
        Err(DropReason::OutOfRange)
    }

    /// Shortest wormhole-assisted path length from `from` to `to`, if any
    /// tunnel carries the frame (link loss applies to both radio hops).
    fn wormhole_path(&mut self, from: NodeId, to: NodeId) -> Option<f64> {
        let wormholes = self.wormholes.clone();
        if wormholes.is_empty() {
            return None;
        }
        let fps = self.pos(from)?.clone();
        let tps = self.pos(to)?.clone();
        let range = self.radio.range(from);
        let mut best: Option<f64> = None;
        for w in &wormholes {
            for (near, far) in [(w.a, w.b), (w.b, w.a)] {
                let d_in = fps
                    .iter()
                    .map(|p| p.distance(&near))
                    .fold(f64::INFINITY, f64::min);
                let d_out = tps
                    .iter()
                    .map(|p| p.distance(&far))
                    .fold(f64::INFINITY, f64::min);
                if d_in <= range.min(w.radius) && d_out <= w.radius {
                    let total = d_in + near.distance(&far) + d_out;
                    if best.is_none_or(|b| total < b) {
                        // Both radio hops must survive the link model.
                        if self.link.delivers(d_in, range, &mut self.rng)
                            && self.link.delivers(d_out, w.radius, &mut self.rng)
                        {
                            best = Some(total);
                        }
                    }
                }
            }
        }
        best
    }

    /// Shortest far-link-assisted path length from `from` to `to`, if any
    /// planted colluder pair carries the frame. Mirrors
    /// [`Simulator::wormhole_path`]: the sender must reach the near
    /// colluder's radio, the far colluder must reach the receiver, and
    /// both radio hops face the link model (two RNG draws per carrying
    /// candidate, tried in insertion × orientation order).
    fn far_link_path(&mut self, from: NodeId, to: NodeId) -> Option<f64> {
        let links = self.far_links.clone();
        if links.is_empty() {
            return None;
        }
        let fps = self.pos(from)?.clone();
        let tps = self.pos(to)?.clone();
        let range = self.radio.range(from);
        let mut best: Option<f64> = None;
        for (a, b) in &links {
            for (near, far) in [(*a, *b), (*b, *a)] {
                let Some(nps) = self.pos(near).cloned() else {
                    continue;
                };
                let Some(gps) = self.pos(far).cloned() else {
                    continue;
                };
                let d_in = fps
                    .iter()
                    .flat_map(|p| nps.iter().map(move |q| p.distance(q)))
                    .fold(f64::INFINITY, f64::min);
                let out_range = self.radio.range(far);
                let d_out = gps
                    .iter()
                    .flat_map(|p| tps.iter().map(move |q| p.distance(q)))
                    .fold(f64::INFINITY, f64::min);
                if d_in <= range && d_out <= out_range {
                    let span = nps
                        .iter()
                        .flat_map(|p| gps.iter().map(move |q| p.distance(q)))
                        .fold(f64::INFINITY, f64::min);
                    let total = d_in + span + d_out;
                    if best.is_none_or(|b| total < b) {
                        // Both radio hops must survive the link model.
                        if self.link.delivers(d_in, range, &mut self.rng)
                            && self.link.delivers(d_out, out_range, &mut self.rng)
                        {
                            best = Some(total);
                        }
                    }
                }
            }
        }
        best
    }

    #[allow(clippy::too_many_arguments)]
    fn enqueue_frame(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: Envelope,
        broadcast: bool,
        distance: f64,
        id: u64,
        kind: u8,
        crc_failed: bool,
        extra_delay: SimDuration,
    ) {
        let frame = Delivered {
            at: self.time + self.latency + extra_delay,
            from,
            payload,
            broadcast,
            distance,
            msg_id: id,
        };
        self.queue.entry(frame.at).or_default().push(InFlight {
            deliver_at: frame.at,
            to,
            frame,
            kind,
            crc_failed,
        });
    }

    /// Schedules a frame that already cleared [`Simulator::check_delivery`],
    /// applying the fault plan (if any) on the way. `id`/`kind` are the
    /// ledger identity of the logical send this copy belongs to.
    #[allow(clippy::too_many_arguments)]
    fn schedule(
        &mut self,
        from: NodeId,
        to: NodeId,
        mut payload: Envelope,
        broadcast: bool,
        distance: f64,
        id: u64,
        kind: u8,
    ) -> SendOutcome {
        if self.faults.is_none() {
            self.enqueue_frame(
                from,
                to,
                payload,
                broadcast,
                distance,
                id,
                kind,
                false,
                SimDuration::ZERO,
            );
            return SendOutcome::Scheduled;
        }
        let now = self.time;
        let plan = self.faults.as_mut().expect("checked above");
        // A frame from/to a crashed radio never makes it onto the air,
        // so no per-frame randomness is consumed for it (down-ness is a
        // pure function of the plan seed — determinism is preserved).
        let decision = if plan.is_down(from, now) || plan.is_down(to, now) {
            FrameFaults {
                drop: Some(DropReason::NodeDown),
                ..FrameFaults::CLEAN
            }
        } else {
            plan.decide_frame(now)
        };
        if let Some(reason) = decision.drop {
            self.drop_msg(id, kind, from, to, reason, payload.len(), true);
            return SendOutcome::Dropped(reason);
        }
        if decision.corrupt {
            // Corruption is rare: round-trip through a Vec (mangling may
            // grow an empty payload) instead of complicating the envelope.
            let mut bytes = payload.to_vec();
            self.faults
                .as_mut()
                .expect("checked above")
                .mangle(&mut bytes);
            payload = Envelope::from(bytes);
            self.note_fault(FaultKind::Corrupted, from, to);
        }
        if decision.extra_delay > SimDuration::ZERO {
            self.note_fault(FaultKind::Reordered, from, to);
        }
        if decision.duplicate.is_some() {
            self.note_fault(FaultKind::Duplicated, from, to);
        }
        let crc_failed = decision.corrupt && decision.corrupt_detectable;
        if let Some(dup_delay) = decision.duplicate {
            // The injected copy is one more on-air frame the ledger must
            // see end its life (delivered or suppressed).
            self.ledger.frame_attempt(from, payload.len());
            self.enqueue_frame(
                from,
                to,
                payload.clone(),
                broadcast,
                distance,
                id,
                kind,
                crc_failed,
                dup_delay,
            );
        }
        self.enqueue_frame(
            from,
            to,
            payload,
            broadcast,
            distance,
            id,
            kind,
            crc_failed,
            decision.extra_delay,
        );
        SendOutcome::Scheduled
    }

    /// Fires the `msg_sent` hook for a freshly opened logical send.
    fn note_sent(&self, id: u64, meta: TxMeta, from: NodeId, to: Option<NodeId>, bytes: usize) {
        if let Some(hook) = &self.trace {
            hook.msg_sent(&MsgSend {
                id,
                parent: meta.parent,
                from,
                to,
                kind: meta.kind,
                phase: self.ledger.phase(),
                bytes,
                retransmission: meta.retransmission,
            });
        }
    }

    /// Sends `payload` from `from` to `to`.
    ///
    /// Accounting: the attempt is always charged to the sender; drops are
    /// recorded with their reason.
    pub fn unicast(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: impl Into<Envelope>,
    ) -> SendOutcome {
        self.unicast_meta(from, to, payload, TxMeta::raw()).1
    }

    /// [`Simulator::unicast`] with ledger metadata: assigns the send a
    /// deterministic message id (returned alongside the outcome) and
    /// books it under `meta`'s kind, causal parent and retransmission
    /// flag.
    pub fn unicast_meta(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: impl Into<Envelope>,
        meta: TxMeta,
    ) -> (u64, SendOutcome) {
        let payload = payload.into();
        let bytes = payload.len();
        self.charge(from, bytes, false);
        let tx_uj = self.est_energy_uj(bytes, false);
        let (id, kind) = self.ledger.begin_tx(from, meta, false, bytes, tx_uj);
        self.note_sent(id, meta, from, Some(to), bytes);
        self.ledger.frame_attempt(from, bytes);
        let outcome = match self.check_delivery(from, to) {
            Ok(distance) => self.schedule(from, to, payload, false, distance, id, kind),
            Err(reason) => {
                self.drop_msg(id, kind, from, to, reason, bytes, true);
                SendOutcome::Dropped(reason)
            }
        };
        (id, outcome)
    }

    /// Broadcasts `payload` from `from` to every node in range of any of its
    /// transceivers. Returns the number of receivers scheduled.
    pub fn broadcast(&mut self, from: NodeId, payload: impl Into<Envelope>) -> usize {
        self.broadcast_meta(from, payload, TxMeta::raw()).1
    }

    /// [`Simulator::broadcast`] with ledger metadata. The whole broadcast
    /// is one logical send: every per-receiver copy shares the returned
    /// message id.
    pub fn broadcast_meta(
        &mut self,
        from: NodeId,
        payload: impl Into<Envelope>,
        meta: TxMeta,
    ) -> (u64, usize) {
        let payload = payload.into();
        let bytes = payload.len();
        self.charge(from, bytes, false);
        let tx_uj = self.est_energy_uj(bytes, false);
        let (id, kind) = self.ledger.begin_tx(from, meta, true, bytes, tx_uj);
        self.note_sent(id, meta, from, None, bytes);
        let targets = self.broadcast_targets(from);
        let mut delivered = 0usize;
        for to in targets {
            match self.check_delivery(from, to) {
                Ok(distance) => {
                    self.ledger.frame_attempt(from, bytes);
                    if self
                        .schedule(from, to, payload.clone(), true, distance, id, kind)
                        .is_scheduled()
                    {
                        delivered += 1;
                    }
                }
                Err(DropReason::OutOfRange) => {
                    // Out-of-range nodes are not an error for broadcast;
                    // don't pollute drop stats (and the ledger never
                    // opens a frame for them, so conservation holds).
                }
                Err(reason) => {
                    self.ledger.frame_attempt(from, bytes);
                    self.drop_msg(id, kind, from, to, reason, bytes, true);
                }
            }
        }
        (id, delivered)
    }

    /// The receivers a broadcast from `from` must consider, ascending by
    /// id, `from` excluded.
    ///
    /// The spatial index prunes this to nodes near the sender whenever
    /// pruning is provably invisible: it must skip exactly the nodes a
    /// full scan would have dropped as `OutOfRange` — silently, with no
    /// RNG draw and no ledger frame. Wormholes and planted far links
    /// deliver beyond direct range and jam zones drop (with a ledger
    /// entry) before the range check, so any such feature forces the
    /// full scan; so does a sender with no transceivers left (every
    /// target then drops as `NoSuchNode`, which the scan must record).
    fn broadcast_targets(&mut self, from: NodeId) -> Vec<NodeId> {
        let prunable = self.wormholes.is_empty()
            && self.far_links.is_empty()
            && self.jammers.is_empty()
            && self.pos(from).is_some();
        if !prunable {
            // The per-target loss RNG draws happen in target order; the
            // dense scan is ascending by construction, matching the old
            // ordered-map walk.
            return self.node_ids().filter(|&node| node != from).collect();
        }
        if self.bcast_index.is_none() {
            self.bcast_index = Some(BroadcastIndex::build(&self.nodes, self.radio.max_range()));
        }
        let index = self.bcast_index.as_ref().expect("just built");
        let centers = self.pos(from).expect("checked above");
        let mut targets = Vec::new();
        index.candidates(centers, self.radio.range(from), &mut targets);
        targets.sort_unstable();
        targets.dedup();
        targets.retain(|&node| node != from);
        targets
    }

    /// Advances the clock by `dt`, delivering every frame that comes due.
    pub fn advance(&mut self, dt: SimDuration) {
        self.time += dt;
        self.deliver_due();
    }

    fn deliver_due(&mut self) {
        while let Some((&due, _)) = self.queue.first_key_value() {
            if due > self.time {
                break;
            }
            let (_, mut bucket) = self.queue.pop_first().expect("peeked");
            // Nothing in the delivery body enqueues, so draining the
            // bucket by value is safe; push order within it is ascending
            // send sequence (see the `queue` field docs).
            //
            // Receiver-sorted sweep: a hello-round bucket at n = 100k
            // holds ~1.5M frames whose send order visits receivers at
            // random, and once the per-node tables outgrow the cache
            // every charge is a miss. All per-frame bookkeeping is
            // commutative counter arithmetic and, with energy accounting
            // off, no delivery can change which nodes are alive, so the
            // sort changes no counter, and the *stable* sort keeps each
            // receiver's inbox order. It is still observable: the trace
            // hook's `msg_delivered`/`msg_dropped` events fire in this
            // loop's order, so every recorded event stream (and the
            // pinned wave fingerprints built from it) carries the
            // receiver-sorted order. Removing the sort changes output.
            // With energy on, a mid-bucket battery death makes order
            // matter for delivery too (later frames to the dead node
            // must drop), so the historical send-order walk stays.
            if self.energy.is_none() {
                bucket.sort_by_key(|inflight| inflight.to);
            }
            for inflight in bucket {
                self.deliver_one(inflight);
            }
        }
    }

    /// Delivers (or drops) one due frame.
    fn deliver_one(&mut self, inflight: InFlight) {
        let (id, kind) = (inflight.frame.msg_id, inflight.kind);
        let (from, to) = (inflight.frame.from, inflight.to);
        let bytes = inflight.frame.payload.len();
        if let Some((reason, heard)) = self.receive_drop(&inflight) {
            self.drop_msg(id, kind, from, to, reason, bytes, heard);
            return;
        }
        let rx_uj = self.est_energy_uj(bytes, true);
        self.ledger.record_rx(to, from, kind, bytes, rx_uj);
        if let Some(hook) = &self.trace {
            hook.msg_delivered(id, from, to);
        }
        self.charge(to, bytes, true);
        // The receive itself may have exhausted the battery; the alive
        // re-check shares the slot access that enqueues the frame.
        if let Some(st) = self.nodes.get_mut(to.0 as usize) {
            if !st.positions.is_empty() {
                self.inbox_bytes += frame_heap_bytes(&inflight.frame);
                self.inbox_bytes_peak = self.inbox_bytes_peak.max(self.inbox_bytes);
                st.inbox.push(inflight.frame);
                self.dirty_inboxes.push(to);
            }
        }
    }

    /// Why a due frame dies at its receiver, if it does, and whether the
    /// radio saw it fail. Updates the receiver's dedup ring on the way.
    fn receive_drop(&mut self, inflight: &InFlight) -> Option<(DropReason, bool)> {
        // Dead receivers silently lose frames: the radio saw no failure,
        // but the ledger still closes the frame so conservation holds.
        if self.pos(inflight.to).is_none() {
            return Some((DropReason::NoSuchNode, false));
        }
        let plan = self.faults.as_ref()?;
        // A crashed radio hears nothing while its window is open.
        if plan.is_down(inflight.to, inflight.deliver_at) {
            return Some((DropReason::NodeDown, true));
        }
        // Detected corruption dies at the receiver's CRC check.
        if inflight.crc_failed {
            return Some((DropReason::Corrupted, true));
        }
        // Duplicate suppression: a message id already seen within the
        // receiver's dedup window is discarded.
        let window = plan.spec().dedup_window;
        if window > 0 {
            let id = inflight.frame.msg_id;
            let ring = &mut self.state_mut(inflight.to).recent;
            if ring.contains(&id) {
                return Some((DropReason::DuplicateSuppressed, true));
            }
            ring.push_back(id);
            while ring.len() > window {
                ring.pop_front();
            }
        }
        None
    }

    /// Removes and returns everything in `id`'s inbox, oldest first.
    pub fn drain_inbox(&mut self, id: NodeId) -> Vec<Delivered> {
        let drained = self
            .nodes
            .get_mut(id.0 as usize)
            .map(|s| std::mem::take(&mut s.inbox))
            .unwrap_or_default();
        self.inbox_bytes -= drained.iter().map(frame_heap_bytes).sum::<u64>();
        drained
    }

    /// Drains every live node's inbox at once, ascending by id, skipping
    /// nodes with nothing pending. Equivalent to calling
    /// [`Simulator::drain_inbox`] for each live id in order — dead nodes'
    /// leftover frames stay queued, exactly as a per-id loop over
    /// [`Simulator::node_ids`] would leave them. This is the bulk intake
    /// of the engine's delivery pump.
    pub fn drain_all_inboxes(&mut self) -> Vec<(NodeId, Vec<Delivered>)> {
        let mut dirty = std::mem::take(&mut self.dirty_inboxes);
        dirty.sort_unstable();
        dirty.dedup();
        let mut out = Vec::with_capacity(dirty.len());
        for id in dirty {
            if self.pos(id).is_none() {
                // Dead receiver: its leftover frames stay queued (matching
                // the per-id loop over live ids), and the marker survives
                // so nothing is orphaned if the node's inbox is drained
                // explicitly later.
                if self
                    .nodes
                    .get(id.0 as usize)
                    .is_some_and(|s| !s.inbox.is_empty())
                {
                    self.dirty_inboxes.push(id);
                }
                continue;
            }
            let frames = self.drain_inbox(id);
            if !frames.is_empty() {
                out.push((id, frames));
            }
        }
        out
    }

    /// Number of frames waiting in `id`'s inbox.
    pub fn inbox_len(&self, id: NodeId) -> usize {
        self.nodes.get(id.0 as usize).map_or(0, |s| s.inbox.len())
    }

    /// Logical bytes currently queued across all inboxes.
    pub fn inbox_bytes(&self) -> u64 {
        self.inbox_bytes
    }

    /// Highest inbox byte load ever observed — the tier-1 `inboxes`
    /// subsystem figure (DESIGN.md §17), deterministic per seed.
    pub fn inbox_peak_bytes(&self) -> u64 {
        self.inbox_bytes_peak
    }

    /// Number of frames still in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snd_topology::{Circle, Field};

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    fn three_node_sim() -> Simulator {
        let mut d = Deployment::empty(Field::square(200.0));
        d.place(n(1), Point::new(10.0, 10.0));
        d.place(n(2), Point::new(40.0, 10.0));
        d.place(n(3), Point::new(150.0, 10.0));
        Simulator::new(d, RadioSpec::uniform(50.0), 7)
    }

    #[test]
    fn unicast_in_range_delivers() {
        let mut sim = three_node_sim();
        assert!(sim.unicast(n(1), n(2), b"ping".to_vec()).is_scheduled());
        assert_eq!(sim.inbox_len(n(2)), 0, "latency defers delivery");
        sim.advance(SimDuration::from_millis(2));
        let inbox = sim.drain_inbox(n(2));
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].from, n(1));
        assert_eq!(inbox[0].payload, b"ping");
        assert!(!inbox[0].broadcast);
    }

    #[test]
    fn unicast_out_of_range_drops() {
        let mut sim = three_node_sim();
        assert_eq!(
            sim.unicast(n(1), n(3), b"far".to_vec()),
            SendOutcome::Dropped(DropReason::OutOfRange)
        );
        sim.advance(SimDuration::from_secs(1));
        assert!(sim.drain_inbox(n(3)).is_empty());
        assert_eq!(sim.metrics().drops(DropReason::OutOfRange), 1);
    }

    #[test]
    fn unicast_to_missing_node() {
        let mut sim = three_node_sim();
        assert_eq!(
            sim.unicast(n(1), n(99), vec![]),
            SendOutcome::Dropped(DropReason::NoSuchNode)
        );
    }

    #[test]
    fn broadcast_reaches_only_in_range() {
        let mut sim = three_node_sim();
        let delivered = sim.broadcast(n(1), b"hello".to_vec());
        assert_eq!(delivered, 1, "only node 2 is in range");
        sim.advance(SimDuration::from_millis(2));
        assert_eq!(sim.drain_inbox(n(2)).len(), 1);
        assert!(sim.drain_inbox(n(3)).is_empty());
        // Out-of-range broadcast receivers are not counted as drops.
        assert_eq!(sim.metrics().total_drops(), 0);
    }

    #[test]
    fn metrics_charge_sender() {
        let mut sim = three_node_sim();
        sim.unicast(n(1), n(2), vec![0u8; 10]);
        sim.broadcast(n(1), vec![0u8; 4]);
        let c = sim.metrics().node(n(1));
        assert_eq!(c.unicasts_sent, 1);
        assert_eq!(c.broadcasts_sent, 1);
        assert_eq!(c.bytes_sent, 14);
    }

    #[test]
    fn replica_extends_reach() {
        let mut sim = three_node_sim();
        // Node 1 cannot reach node 3...
        assert!(!sim.unicast(n(1), n(3), vec![1]).is_scheduled());
        // ...until the attacker places a replica of node 1 next to node 3.
        sim.add_replica(n(1), Point::new(140.0, 10.0));
        assert!(sim.unicast(n(1), n(3), vec![2]).is_scheduled());
        sim.advance(SimDuration::from_millis(2));
        let inbox = sim.drain_inbox(n(3));
        assert_eq!(inbox.len(), 1);
        assert_eq!(
            inbox[0].from,
            n(1),
            "replica speaks with the stolen identity"
        );
    }

    #[test]
    fn killed_node_loses_pending_frames() {
        let mut sim = three_node_sim();
        sim.unicast(n(1), n(2), b"doomed".to_vec());
        assert!(sim.kill(n(2)));
        sim.advance(SimDuration::from_secs(1));
        assert_eq!(sim.inbox_len(n(2)), 0);
        assert!(!sim.is_alive(n(2)));
        assert!(!sim.kill(n(2)), "double kill reports false");
        // Sending to the dead node now fails.
        assert_eq!(
            sim.unicast(n(1), n(2), vec![]),
            SendOutcome::Dropped(DropReason::NoSuchNode)
        );
    }

    #[test]
    fn jamming_blocks_both_endpoints() {
        let mut sim = three_node_sim();
        sim.add_jammer(JamZone::permanent(Circle::new(Point::new(40.0, 10.0), 5.0)));
        // Receiver inside the zone.
        assert_eq!(
            sim.unicast(n(1), n(2), vec![1]),
            SendOutcome::Dropped(DropReason::Jammed)
        );
        // Sender inside the zone.
        assert_eq!(
            sim.unicast(n(2), n(1), vec![2]),
            SendOutcome::Dropped(DropReason::Jammed)
        );
    }

    #[test]
    fn timed_jammer_expires() {
        let mut sim = three_node_sim();
        sim.add_jammer(JamZone::timed(
            Circle::new(Point::new(40.0, 10.0), 5.0),
            SimTime::ZERO,
            SimTime::from_secs(1),
        ));
        assert!(!sim.unicast(n(1), n(2), vec![1]).is_scheduled());
        sim.advance(SimDuration::from_secs(2));
        assert!(sim.unicast(n(1), n(2), vec![2]).is_scheduled());
    }

    #[test]
    fn lossy_link_drops_some() {
        let mut sim = three_node_sim();
        sim.set_link_model(AnyLinkModel::LossyDisk(crate::radio::LossyDisk::new(0.5)));
        let mut scheduled = 0;
        for _ in 0..200 {
            if sim.unicast(n(1), n(2), vec![0]).is_scheduled() {
                scheduled += 1;
            }
        }
        assert!(scheduled > 50 && scheduled < 150, "scheduled {scheduled}");
        assert_eq!(sim.metrics().drops(DropReason::LinkLoss) + scheduled, 200);
    }

    #[test]
    fn delivery_order_is_fifo_per_time() {
        let mut sim = three_node_sim();
        sim.unicast(n(1), n(2), vec![1]);
        sim.unicast(n(1), n(2), vec![2]);
        sim.unicast(n(1), n(2), vec![3]);
        sim.advance(SimDuration::from_millis(5));
        let inbox = sim.drain_inbox(n(2));
        let payloads: Vec<u8> = inbox.iter().map(|d| d.payload[0]).collect();
        assert_eq!(payloads, vec![1, 2, 3]);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut d = Deployment::empty(Field::square(100.0));
            for i in 0..20 {
                d.place(n(i), Point::new(i as f64 * 4.0, 50.0));
            }
            let mut sim = Simulator::new(d, RadioSpec::uniform(30.0), seed);
            sim.set_link_model(AnyLinkModel::LossyDisk(crate::radio::LossyDisk::new(0.3)));
            let mut outcomes = Vec::new();
            for i in 0..19 {
                outcomes.push(sim.unicast(n(i), n(i + 1), vec![i as u8]).is_scheduled());
            }
            outcomes
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn wormhole_carries_frames_across_the_field() {
        let mut sim = three_node_sim(); // node 1 at (10,10), node 3 at (150,10)
        assert!(!sim.unicast(n(1), n(3), vec![1]).is_scheduled());
        sim.add_wormhole(Wormhole {
            a: Point::new(12.0, 10.0),
            b: Point::new(148.0, 10.0),
            radius: 20.0,
        });
        assert!(sim.unicast(n(1), n(3), vec![2]).is_scheduled());
        sim.advance(SimDuration::from_millis(2));
        let inbox = sim.drain_inbox(n(3));
        assert_eq!(inbox.len(), 1);
        // The physical path length betrays the tunnel.
        assert!(
            inbox[0].distance > 130.0,
            "tunnel distance {} must reflect the true path",
            inbox[0].distance
        );
    }

    #[test]
    fn direct_frames_report_direct_distance() {
        let mut sim = three_node_sim();
        sim.unicast(n(1), n(2), vec![0]);
        sim.advance(SimDuration::from_millis(2));
        let inbox = sim.drain_inbox(n(2));
        assert!((inbox[0].distance - 30.0).abs() < 1e-9);
    }

    #[test]
    fn wormhole_respects_mouth_radius() {
        let mut sim = three_node_sim();
        // Mouth too far from the sender: no pickup.
        sim.add_wormhole(Wormhole {
            a: Point::new(80.0, 10.0),
            b: Point::new(148.0, 10.0),
            radius: 20.0,
        });
        assert!(!sim.unicast(n(1), n(3), vec![1]).is_scheduled());
    }

    #[test]
    fn wormhole_extends_broadcasts_too() {
        let mut sim = three_node_sim();
        sim.add_wormhole(Wormhole {
            a: Point::new(12.0, 10.0),
            b: Point::new(148.0, 10.0),
            radius: 20.0,
        });
        let delivered = sim.broadcast(n(1), b"hi".to_vec());
        assert_eq!(delivered, 2, "node 2 direct + node 3 through the tunnel");
    }

    #[test]
    fn far_link_carries_frames_between_colluders_neighborhoods() {
        let mut sim = three_node_sim(); // node 1 at (10,10), node 3 at (150,10)
        assert!(!sim.unicast(n(1), n(3), vec![1]).is_scheduled());
        // Colluding radios near each endpoint, linked out-of-band.
        let mut d = Deployment::empty(Field::square(200.0));
        d.place(n(4), Point::new(12.0, 10.0));
        d.place(n(5), Point::new(148.0, 10.0));
        sim.add_node(n(4), Point::new(12.0, 10.0));
        sim.add_node(n(5), Point::new(148.0, 10.0));
        sim.add_far_link(n(4), n(5));
        assert!(sim.unicast(n(1), n(3), vec![2]).is_scheduled());
        sim.advance(SimDuration::from_millis(2));
        let inbox = sim.drain_inbox(n(3));
        assert_eq!(inbox.len(), 1);
        // The physical path length betrays the planted link.
        assert!(
            inbox[0].distance > 130.0,
            "far-link distance {} must reflect the true path",
            inbox[0].distance
        );
        assert_eq!(sim.far_links(), &[(n(4), n(5))]);
    }

    #[test]
    fn far_link_requires_reaching_a_colluder() {
        let mut sim = three_node_sim();
        // Colluders sit out of everyone's radio range: no pickup.
        sim.add_node(n(4), Point::new(10.0, 190.0));
        sim.add_node(n(5), Point::new(150.0, 190.0));
        sim.add_far_link(n(4), n(5));
        assert!(!sim.unicast(n(1), n(3), vec![1]).is_scheduled());
    }

    #[test]
    fn far_link_disables_broadcast_fast_path() {
        let mut sim = three_node_sim();
        sim.broadcast(n(1), b"warm".to_vec());
        assert!(
            sim.broadcast_index_built(),
            "plain broadcasts build the spatial index"
        );
        sim.add_node(n(4), Point::new(148.0, 10.0));
        sim.add_far_link(n(2), n(4));
        // Index invalidated by add_node; the far link must keep it off.
        let delivered = sim.broadcast(n(1), b"hi".to_vec());
        assert!(
            !sim.broadcast_index_built(),
            "far links must force the full-scan slow path"
        );
        assert_eq!(
            delivered, 3,
            "node 2 direct, nodes 3 and 4 through the planted link"
        );
    }

    /// The slow path a far link forces must consume the RNG in exactly
    /// full-scan order. A reference sim is pushed onto the slow path by a
    /// geometrically inert jammer (far from every radio, so it never
    /// drops a frame and never draws randomness); the far-link sim plants
    /// a link between two isolated colluders no sender can reach (no
    /// candidate path, so zero extra draws). Under a lossy link model
    /// every delivery decision then depends on draw order, and the two
    /// runs must agree frame for frame.
    #[test]
    fn far_link_slow_path_preserves_rng_draw_order() {
        let build = |mode: u8| {
            let mut d = Deployment::empty(Field::square(400.0));
            for i in 0..12 {
                d.place(n(i), Point::new(20.0 + 10.0 * i as f64, 50.0));
            }
            // Isolated colluders in the far corner, out of everyone's range.
            d.place(n(20), Point::new(380.0, 380.0));
            d.place(n(21), Point::new(300.0, 380.0));
            let mut sim = Simulator::new(d, RadioSpec::uniform(35.0), 4242);
            sim.set_link_model(AnyLinkModel::LossyDisk(crate::radio::LossyDisk::new(0.4)));
            match mode {
                0 => sim.add_far_link(n(20), n(21)),
                _ => sim.add_jammer(JamZone::permanent(Circle::new(
                    Point::new(-500.0, -500.0),
                    1.0,
                ))),
            }
            sim
        };
        let run = |mut sim: Simulator| {
            let mut log = Vec::new();
            for round in 0..6u8 {
                for i in 0..12 {
                    sim.broadcast(n(i), vec![round, i as u8]);
                }
                sim.advance(SimDuration::from_millis(2));
                for (id, frames) in sim.drain_all_inboxes() {
                    for f in frames {
                        log.push((id, f.from, f.payload.to_vec()));
                    }
                }
            }
            assert!(!sim.broadcast_index_built(), "slow path must stay on");
            log
        };
        assert_eq!(
            run(build(0)),
            run(build(1)),
            "far-link slow path must replay the full-scan RNG draw order"
        );
    }

    #[test]
    fn energy_disabled_means_immortal() {
        let mut sim = three_node_sim();
        sim.set_battery(n(1), 1.0); // tiny battery, but accounting is off
        for _ in 0..100 {
            sim.unicast(n(1), n(2), vec![0u8; 100]);
        }
        assert!(sim.is_alive(n(1)));
        assert!(sim.battery_deaths().is_empty());
    }

    #[test]
    fn transmit_energy_depletes_battery() {
        let mut sim = three_node_sim();
        sim.enable_energy(crate::energy::EnergyModel::default());
        // Default model: tx of 100 bytes costs 10 + 60 = 70 µJ.
        sim.set_battery(n(1), 100.0);
        sim.unicast(n(1), n(2), vec![0u8; 100]);
        let b = sim.battery(n(1)).expect("battery installed");
        assert!(
            (b.remaining() - 30.0).abs() < 1e-9,
            "remaining {}",
            b.remaining()
        );
        assert!(sim.is_alive(n(1)));

        sim.unicast(n(1), n(2), vec![0u8; 100]);
        assert!(!sim.is_alive(n(1)), "second frame exhausts the battery");
        assert_eq!(sim.battery_deaths(), &[n(1)]);
    }

    #[test]
    fn receive_energy_charges_receiver() {
        let mut sim = three_node_sim();
        sim.enable_energy(crate::energy::EnergyModel::default());
        sim.set_battery(n(2), 1_000.0);
        sim.unicast(n(1), n(2), vec![0u8; 100]);
        sim.advance(SimDuration::from_millis(2));
        let b = sim.battery(n(2)).expect("battery installed");
        // rx cost = 10 + 0.67*100 = 77 µJ.
        assert!(
            (b.remaining() - 923.0).abs() < 1e-9,
            "remaining {}",
            b.remaining()
        );
    }

    #[test]
    fn death_by_reception_drops_the_frame() {
        let mut sim = three_node_sim();
        sim.enable_energy(crate::energy::EnergyModel::default());
        sim.set_battery(n(2), 5.0); // cannot even afford one rx
        sim.unicast(n(1), n(2), vec![0u8; 10]);
        sim.advance(SimDuration::from_millis(2));
        assert!(!sim.is_alive(n(2)));
        assert_eq!(
            sim.inbox_len(n(2)),
            0,
            "the killing frame is never readable"
        );
    }

    #[test]
    fn mains_powered_nodes_never_die() {
        let mut sim = three_node_sim();
        sim.enable_energy(crate::energy::EnergyModel::default());
        // No battery installed for node 1: mains powered.
        for _ in 0..1000 {
            sim.unicast(n(1), n(2), vec![0u8; 100]);
        }
        assert!(sim.is_alive(n(1)));
    }

    #[test]
    fn in_flight_and_advance() {
        let mut sim = three_node_sim();
        sim.unicast(n(1), n(2), vec![0]);
        assert_eq!(sim.in_flight(), 1);
        sim.advance(SimDuration::from_millis(2));
        assert_eq!(sim.in_flight(), 0);
        assert_eq!(sim.now(), SimTime::from_millis(2));
    }

    use crate::faults::FaultSpec;

    fn plan(spec: FaultSpec) -> FaultPlan {
        FaultPlan::new(spec, 99)
    }

    #[test]
    fn inert_plan_changes_nothing() {
        let mut sim = three_node_sim();
        sim.set_fault_plan(plan(FaultSpec::default()));
        assert!(sim.unicast(n(1), n(2), b"ok".to_vec()).is_scheduled());
        sim.advance(SimDuration::from_millis(2));
        assert_eq!(sim.drain_inbox(n(2)).len(), 1);
        assert_eq!(sim.metrics().total_drops(), 0);
        assert_eq!(sim.metrics().total_faults(), 0);
    }

    #[test]
    fn injected_loss_drops_as_link_loss() {
        let mut sim = three_node_sim();
        sim.set_fault_plan(plan(FaultSpec {
            loss: 1.0,
            ..FaultSpec::default()
        }));
        assert_eq!(
            sim.unicast(n(1), n(2), vec![1]),
            SendOutcome::Dropped(DropReason::LinkLoss)
        );
        assert_eq!(sim.metrics().drops(DropReason::LinkLoss), 1);
    }

    #[test]
    fn burst_loss_has_its_own_reason() {
        let mut sim = three_node_sim();
        sim.set_fault_plan(plan(FaultSpec {
            bursts: vec![crate::faults::LossBurst {
                from: SimTime::ZERO,
                until: SimTime::from_secs(1),
                loss: 1.0,
            }],
            ..FaultSpec::default()
        }));
        assert_eq!(
            sim.unicast(n(1), n(2), vec![1]),
            SendOutcome::Dropped(DropReason::BurstLoss)
        );
        // After the burst window the link is clean again.
        sim.advance(SimDuration::from_secs(2));
        assert!(sim.unicast(n(1), n(2), vec![2]).is_scheduled());
    }

    #[test]
    fn duplicates_are_suppressed_within_the_window() {
        let mut sim = three_node_sim();
        sim.set_fault_plan(plan(FaultSpec {
            duplicate: 1.0,
            ..FaultSpec::default() // dedup_window = 16
        }));
        assert!(sim.unicast(n(1), n(2), b"once".to_vec()).is_scheduled());
        assert_eq!(sim.in_flight(), 2, "copy scheduled alongside original");
        sim.advance(SimDuration::from_millis(10));
        assert_eq!(sim.drain_inbox(n(2)).len(), 1, "window eats the copy");
        assert_eq!(sim.metrics().drops(DropReason::DuplicateSuppressed), 1);
        assert_eq!(sim.metrics().faults(FaultKind::Duplicated), 1);
    }

    #[test]
    fn duplicates_reach_the_protocol_when_dedup_disabled() {
        let mut sim = three_node_sim();
        sim.set_fault_plan(plan(FaultSpec {
            duplicate: 1.0,
            dedup_window: 0,
            ..FaultSpec::default()
        }));
        sim.unicast(n(1), n(2), b"twice".to_vec());
        sim.advance(SimDuration::from_millis(10));
        let inbox = sim.drain_inbox(n(2));
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox[0].payload, inbox[1].payload);
        assert_eq!(sim.metrics().total_drops(), 0);
    }

    #[test]
    fn detectable_corruption_dies_at_the_crc() {
        let mut sim = three_node_sim();
        sim.set_fault_plan(plan(FaultSpec {
            corrupt: 1.0,
            corrupt_detectable: 1.0,
            ..FaultSpec::default()
        }));
        assert!(sim.unicast(n(1), n(2), b"data".to_vec()).is_scheduled());
        sim.advance(SimDuration::from_millis(10));
        assert!(sim.drain_inbox(n(2)).is_empty());
        assert_eq!(sim.metrics().drops(DropReason::Corrupted), 1);
        assert_eq!(sim.metrics().faults(FaultKind::Corrupted), 1);
        assert_eq!(sim.metrics().node(n(2)).received, 0);
    }

    #[test]
    fn undetectable_corruption_delivers_mangled_bytes() {
        let mut sim = three_node_sim();
        sim.set_fault_plan(plan(FaultSpec {
            corrupt: 1.0,
            corrupt_detectable: 0.0,
            ..FaultSpec::default()
        }));
        sim.unicast(n(1), n(2), b"data".to_vec());
        sim.advance(SimDuration::from_millis(10));
        let inbox = sim.drain_inbox(n(2));
        assert_eq!(inbox.len(), 1);
        assert_ne!(inbox[0].payload, b"data", "payload must arrive mangled");
        assert_eq!(inbox[0].payload.len(), 4);
    }

    #[test]
    fn reordered_frames_arrive_late_but_arrive() {
        let mut sim = three_node_sim();
        sim.set_fault_plan(plan(FaultSpec {
            reorder: 1.0,
            max_extra_delay: SimDuration::from_millis(10),
            ..FaultSpec::default()
        }));
        sim.unicast(n(1), n(2), vec![7]);
        sim.advance(SimDuration::from_millis(1));
        // Base latency alone is not enough: the extra delay holds it back.
        assert_eq!(sim.inbox_len(n(2)), 0);
        sim.advance(SimDuration::from_millis(11));
        assert_eq!(sim.drain_inbox(n(2)).len(), 1);
        assert_eq!(sim.metrics().faults(FaultKind::Reordered), 1);
        assert_eq!(sim.metrics().total_drops(), 0);
    }

    #[test]
    fn crashed_node_neither_sends_nor_receives() {
        let mut sim = three_node_sim();
        sim.set_fault_plan(plan(FaultSpec {
            crash: 1.0,
            crash_from: SimTime::ZERO,
            crash_until: SimTime::ZERO,
            crash_len: SimDuration::from_millis(50),
            ..FaultSpec::default()
        }));
        // Every node crashes over [0, 50ms): nothing moves.
        assert_eq!(
            sim.unicast(n(1), n(2), vec![1]),
            SendOutcome::Dropped(DropReason::NodeDown)
        );
        // Crash scheduling itself was announced per node.
        assert_eq!(sim.metrics().faults(FaultKind::NodeCrash), 3);
        // After every reboot the link works again.
        sim.advance(SimDuration::from_millis(60));
        assert!(sim.unicast(n(1), n(2), vec![2]).is_scheduled());
        sim.advance(SimDuration::from_millis(2));
        assert_eq!(sim.drain_inbox(n(2)).len(), 1);
    }

    #[test]
    fn frame_in_flight_into_a_crash_window_is_lost() {
        let mut sim = three_node_sim();
        sim.set_fault_plan(plan(FaultSpec {
            crash: 1.0,
            crash_from: SimTime::from_millis(1),
            crash_until: SimTime::from_millis(1),
            crash_len: SimDuration::from_millis(5),
            ..FaultSpec::default()
        }));
        // Sent at t=0 (everyone up), due at t=1ms (receiver just crashed).
        assert!(sim.unicast(n(1), n(2), vec![1]).is_scheduled());
        sim.advance(SimDuration::from_millis(2));
        assert!(sim.drain_inbox(n(2)).is_empty());
        assert_eq!(sim.metrics().drops(DropReason::NodeDown), 1);
    }

    #[test]
    fn plan_jam_zones_are_installed() {
        let mut sim = three_node_sim();
        sim.set_fault_plan(plan(FaultSpec {
            jams: vec![JamZone::permanent(Circle::new(Point::new(40.0, 10.0), 5.0))],
            ..FaultSpec::default()
        }));
        assert_eq!(
            sim.unicast(n(1), n(2), vec![1]),
            SendOutcome::Dropped(DropReason::Jammed)
        );
    }

    use crate::ledger::TxMeta;

    #[test]
    fn ledger_mirrors_metrics_message_counters() {
        let mut sim = three_node_sim();
        sim.unicast(n(1), n(2), vec![0u8; 10]);
        sim.broadcast(n(1), vec![0u8; 4]);
        sim.unicast(n(1), n(3), vec![0u8; 6]); // out of range: dropped
        sim.advance(SimDuration::from_millis(5));
        let totals = sim.ledger().totals();
        let m = sim.metrics().totals();
        assert_eq!(totals.tx_msgs, m.unicasts_sent + m.broadcasts_sent);
        assert_eq!(totals.tx_bytes, m.bytes_sent);
        assert_eq!(totals.rx_msgs, m.received);
        assert_eq!(totals.rx_bytes, m.bytes_received);
    }

    #[test]
    fn ledger_frames_are_conserved() {
        let mut sim = three_node_sim();
        sim.unicast(n(1), n(2), vec![0u8; 10]);
        sim.broadcast(n(1), vec![0u8; 4]); // node 2 in range, node 3 not
        sim.unicast(n(1), n(3), vec![0u8; 6]); // dropped out of range
        sim.unicast(n(2), n(1), vec![0u8; 8]);
        sim.kill(n(1)); // pending frame to 1 dies silently at delivery
        sim.advance(SimDuration::from_millis(5));
        let t = sim.ledger().totals();
        assert_eq!(t.tx_frames, t.delivered_frames + t.dropped_frames);
        assert_eq!(t.tx_frame_bytes, t.delivered_bytes + t.dropped_bytes);
        assert_eq!(t.delivered_frames, t.rx_msgs);
        // The dead-receiver loss is a silent drop: the metrics view
        // reports one drop (the out-of-range unicast), the ledger two.
        assert_eq!(sim.metrics().total_drops(), 1);
        assert_eq!(t.dropped_frames, 2);
        for (id, c) in sim.ledger().per_node() {
            assert_eq!(
                c.tx_frames,
                c.delivered_frames + c.dropped_frames,
                "node {id:?} leaks frames"
            );
        }
    }

    #[test]
    fn broadcast_copies_share_one_message_id() {
        let mut d = Deployment::empty(Field::square(100.0));
        d.place(n(1), Point::new(10.0, 10.0));
        d.place(n(2), Point::new(20.0, 10.0));
        d.place(n(3), Point::new(30.0, 10.0));
        let mut sim = Simulator::new(d, RadioSpec::uniform(50.0), 7);
        let (id, delivered) = sim.broadcast_meta(n(1), b"hi".to_vec(), TxMeta::of("hello"));
        assert_eq!(delivered, 2);
        sim.advance(SimDuration::from_millis(5));
        let a = sim.drain_inbox(n(2));
        let b = sim.drain_inbox(n(3));
        assert_eq!(a[0].msg_id, id);
        assert_eq!(b[0].msg_id, id);
        assert_eq!(sim.ledger().totals().tx_msgs, 1, "one logical send");
        assert_eq!(sim.ledger().totals().tx_frames, 2, "two on-air copies");
    }

    #[test]
    fn ledger_phase_and_kind_buckets_follow_the_announcements() {
        let mut sim = three_node_sim();
        sim.set_comm_phase("hello");
        let (hello_id, _) = sim.broadcast_meta(n(1), vec![0u8; 9], TxMeta::of("hello"));
        sim.advance(SimDuration::from_millis(5));
        sim.set_comm_phase("collect");
        let (_, outcome) = sim.unicast_meta(
            n(2),
            n(1),
            vec![0u8; 9],
            TxMeta::reply("record_request", hello_id),
        );
        assert!(outcome.is_scheduled());
        sim.advance(SimDuration::from_millis(5));
        let phases: Vec<(&str, u64, u64)> = sim
            .ledger()
            .phases()
            .map(|(p, agg)| (p, agg.tx_msgs, agg.rx_msgs))
            .collect();
        assert_eq!(phases, vec![("hello", 1, 1), ("collect", 1, 1)]);
        let kinds: Vec<&str> = sim.ledger().kinds().iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds, vec!["hello", "record_request"]);
    }

    #[test]
    fn ledger_energy_is_booked_even_without_energy_accounting() {
        let mut sim = three_node_sim();
        sim.unicast(n(1), n(2), vec![0u8; 100]);
        sim.advance(SimDuration::from_millis(5));
        // Default model: tx 10 + 0.6·100 = 70 µJ, rx 10 + 0.67·100 = 77 µJ.
        assert_eq!(sim.ledger().node(n(1)).tx_energy_nj, 70_000);
        assert_eq!(sim.ledger().node(n(2)).rx_energy_nj, 77_000);
        assert!(sim.battery_deaths().is_empty(), "estimation drains nothing");
    }

    #[test]
    fn injected_duplicate_is_conserved_and_shares_its_id() {
        let mut sim = three_node_sim();
        sim.set_fault_plan(plan(FaultSpec {
            duplicate: 1.0,
            ..FaultSpec::default() // dedup_window = 16
        }));
        sim.unicast(n(1), n(2), b"once".to_vec());
        sim.advance(SimDuration::from_millis(10));
        let t = sim.ledger().totals();
        assert_eq!(t.tx_msgs, 1);
        assert_eq!(t.tx_frames, 2, "original + injected copy");
        assert_eq!(t.rx_msgs, 1, "window ate the copy");
        assert_eq!(t.dropped_frames, 1);
        assert_eq!(t.drops[&DropReason::DuplicateSuppressed], 1);
        assert_eq!(t.tx_frames, t.delivered_frames + t.dropped_frames);
    }

    /// The broadcast index must be invisible: same deliveries, same
    /// ledger, same RNG consumption as the full scan it replaces. The
    /// full scan is forced by installing a far-away jammer (which
    /// disables pruning without touching any frame in this geometry).
    #[test]
    fn broadcast_index_matches_full_scan() {
        let run = |force_full_scan: bool, lossy: bool| {
            let mut d = Deployment::empty(Field::square(300.0));
            for i in 0..40 {
                let (row, col) = (i / 8, i % 8);
                d.place(n(i), Point::new(col as f64 * 35.0, row as f64 * 35.0));
            }
            let mut sim = Simulator::new(d, RadioSpec::uniform(50.0), 9);
            if lossy {
                sim.set_link_model(AnyLinkModel::LossyDisk(crate::radio::LossyDisk::new(0.3)));
            }
            if force_full_scan {
                // A zone that jams nothing (far outside the field) still
                // disqualifies the index.
                sim.add_jammer(JamZone::permanent(Circle::new(
                    Point::new(-1000.0, -1000.0),
                    1.0,
                )));
            }
            let mut counts = Vec::new();
            for i in 0..40 {
                counts.push(sim.broadcast(n(i), vec![i as u8]));
            }
            sim.advance(SimDuration::from_millis(5));
            let inboxes: Vec<Vec<Delivered>> = (0..40).map(|i| sim.drain_inbox(n(i))).collect();
            let totals = sim.ledger().totals().clone();
            (counts, inboxes, totals)
        };
        for lossy in [false, true] {
            let pruned = run(false, lossy);
            let full = run(true, lossy);
            assert_eq!(pruned.0, full.0, "delivered counts (lossy={lossy})");
            assert_eq!(pruned.1, full.1, "inboxes (lossy={lossy})");
            assert_eq!(pruned.2, full.2, "ledger totals (lossy={lossy})");
        }
    }

    #[test]
    fn broadcast_index_sees_replicas_and_late_nodes() {
        let mut sim = three_node_sim(); // 1 at (10,10), 2 at (40,10), 3 at (150,10)
        assert_eq!(sim.broadcast(n(1), vec![0]), 1, "only node 2 in range");
        // A replica of node 1 near node 3 must be picked up after the
        // index was already built.
        sim.add_replica(n(1), Point::new(140.0, 10.0));
        assert_eq!(sim.broadcast(n(1), vec![1]), 2, "replica reaches node 3");
        // Killing a node invalidates the shortlist too.
        sim.kill(n(2));
        assert_eq!(sim.broadcast(n(1), vec![2]), 1, "only node 3 remains");
    }

    #[test]
    fn drain_all_inboxes_matches_per_id_drains() {
        let mut sim = three_node_sim();
        sim.broadcast(n(1), vec![1]);
        sim.broadcast(n(2), vec![2]);
        sim.advance(SimDuration::from_millis(5));
        let all = sim.drain_all_inboxes();
        let ids: Vec<NodeId> = all.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![n(1), n(2)], "ascending, empties skipped");
        assert_eq!(all[0].1.len(), 1, "node 1 heard node 2");
        assert_eq!(all[1].1.len(), 1, "node 2 heard node 1");
        assert!(sim.drain_inbox(n(1)).is_empty(), "drained for real");
    }

    #[test]
    fn faulty_runs_replay_identically() {
        let run = |plan_seed: u64| {
            let mut d = Deployment::empty(Field::square(100.0));
            for i in 0..20 {
                d.place(n(i), Point::new(i as f64 * 4.0, 50.0));
            }
            let mut sim = Simulator::new(d, RadioSpec::uniform(30.0), 5);
            sim.set_fault_plan(FaultPlan::new(
                FaultSpec {
                    loss: 0.2,
                    duplicate: 0.2,
                    reorder: 0.2,
                    corrupt: 0.1,
                    crash: 0.1,
                    crash_until: SimTime::from_millis(10),
                    ..FaultSpec::default()
                },
                plan_seed,
            ));
            let mut outcomes = Vec::new();
            for round in 0..5 {
                for i in 0..19 {
                    outcomes.push(sim.unicast(n(i), n(i + 1), vec![round, i as u8]));
                }
                sim.advance(SimDuration::from_millis(5));
            }
            let inboxes: Vec<Vec<Delivered>> = (0..20).map(|i| sim.drain_inbox(n(i))).collect();
            (outcomes, inboxes, sim.metrics().total_drops())
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).0, run(4).0, "different plan seeds diverge");
    }
}
