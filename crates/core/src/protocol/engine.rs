//! The discovery engine: runs the protocol over the network simulator.
//!
//! [`DiscoveryEngine`] owns the deployment, the simulator, every node's
//! [`ProtocolNode`] state machine and the [`Adversary`]. Nodes are deployed
//! in *waves*; [`DiscoveryEngine::run_wave`] drives one wave through the
//! protocol's phases, with every byte crossing the simulated radio:
//!
//! 1. new nodes broadcast `Hello`; everyone in range (including compromised
//!    replicas) acks — the direct-verification layer asserts tentative
//!    relations;
//! 2. new nodes commit their binding records, then collect and authenticate
//!    the records of all tentative neighbors;
//! 3. old nodes (and, if the attacker enables it, compromised nodes) run
//!    the Section 4.4 update flow against the still-trusted new nodes;
//! 4. new nodes finalize: threshold validation, relation commitments,
//!    evidence issuance, **master-key erasure**;
//! 5. commitments and evidence are delivered and verified.
//!
//! The engine is the single integration point for attack experiments:
//! compromise nodes, place replicas, rerun waves, and measure the
//! functional topology that results.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use snd_crypto::keys::SymmetricKey;
use snd_exec::Executor;
use snd_observe::event::{Event, Phase};
use snd_observe::mem::{MemScope, MemScopeId, MemTable};
use snd_observe::profile::Profiler;
use snd_observe::recorder::{NullRecorder, Recorder, SimTraceBridge, Span};
use snd_sim::envelope::{Envelope, PayloadPool, MAX_INLINE};
use snd_sim::fasthash::FastMap;
use snd_sim::ledger::TxMeta;
use snd_sim::metrics::HashCounter;
use snd_sim::network::{Delivered, Simulator};
use snd_sim::time::SimDuration;
use snd_topology::unit_disk::RadioSpec;
use snd_topology::{Deployment, DiGraph, Field, NodeId, Point};

use super::config::ProtocolConfig;
use super::node::{NodeState, ProtocolNode};
use super::records::BindingRecord;
use super::reliability::ReliabilityConfig;
use super::wire::Message;
use crate::adversary::Adversary;
use crate::errors::ProtocolError;

/// Statistics from one discovery wave.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaveReport {
    /// Nodes deployed in this wave.
    pub wave_nodes: Vec<NodeId>,
    /// Binding records that failed authentication.
    pub rejected_records: u64,
    /// Relation commitments that failed verification.
    pub rejected_commitments: u64,
    /// Binding-record updates applied.
    pub updates_applied: u64,
    /// Update requests refused (cap, forgery, version).
    pub updates_rejected: u64,
    /// Undecodable frames dropped.
    pub malformed_frames: u64,
    /// Frames re-sent by the reliability layer (Hello re-rounds, record
    /// re-pulls, commitment/evidence re-sends). Zero with reliability off.
    pub retransmissions: u64,
    /// Acknowledgements consumed for outstanding reliable unicasts.
    pub acks_received: u64,
    /// Re-deliveries recognized and discarded idempotently: already
    /// collected records, already buffered evidence, already served
    /// updates, acks for no-longer-outstanding nonces.
    pub duplicates_ignored: u64,
    /// Phases that hit their wall-clock budget (or retry cap) with work
    /// still missing and degraded gracefully instead of stalling.
    pub timed_out_phases: u64,
    /// Directed links the wave could not confirm: binding records never
    /// collected and relation commitments / evidence never acknowledged.
    /// `(u, v)` means `u` is missing confirmation about/from `v`. Sorted,
    /// deduplicated. Empty on a fully converged wave.
    pub unconfirmed_links: Vec<(NodeId, NodeId)>,
}

/// One unacknowledged reliable unicast, kept until its ack arrives.
#[derive(Debug, Clone)]
struct OutstandingFrame {
    from: NodeId,
    to: NodeId,
    /// Encoded envelope, ready for retransmission (an ARQ resend
    /// clones the `Arc` backing store, never the bytes).
    frame: Envelope,
    /// Ledger id of the original send; resends cite it as causal parent.
    msg_id: u64,
    /// Ledger kind of the envelope (`reliable.relation_commit`, …).
    kind: &'static str,
}

/// Send metadata for a reply whose cause may be unknown (e.g. the
/// provenance map was cleared, or the causal frame predates the ledger).
fn meta_reply(kind: &'static str, parent: Option<u64>) -> TxMeta {
    TxMeta {
        kind,
        parent,
        retransmission: false,
    }
}

/// Send metadata for a retransmission whose original may be unknown.
fn meta_retx(kind: &'static str, parent: Option<u64>) -> TxMeta {
    TxMeta {
        kind,
        parent,
        retransmission: true,
    }
}

/// Shared-borrow lookup into the engine's dense node table. A macro
/// rather than a method so the borrow stays scoped to the `nodes` field
/// and the call sites keep their disjoint borrows of `sim`, `recorder`,
/// `adversary`, etc.
macro_rules! node_ref {
    ($engine:expr, $id:expr) => {
        $engine.nodes.get($id.0 as usize).and_then(Option::as_ref)
    };
}

/// Mutable-borrow twin of [`node_ref!`].
macro_rules! node_mut {
    ($engine:expr, $id:expr) => {
        $engine
            .nodes
            .get_mut($id.0 as usize)
            .and_then(Option::as_mut)
    };
}

/// The protocol engine. See the module docs for the lifecycle.
#[derive(Debug)]
pub struct DiscoveryEngine {
    config: ProtocolConfig,
    master: SymmetricKey,
    sim: Simulator,
    deployment: Deployment,
    radio: RadioSpec,
    /// Per-node protocol state, dense by node id (deployments number
    /// nodes `0..n`; `None` = never deployed). Direct indexing replaces
    /// the old ordered-map lookups on the per-message dispatch path, and
    /// ascending-id iteration — the order the determinism contract fixes
    /// everywhere — is the natural scan order.
    nodes: Vec<Option<ProtocolNode>>,
    adversary: Adversary,
    rng: StdRng,
    ops: HashCounter,
    /// Old node → a new node it heard in the current wave (update target).
    wave_contacts: FastMap<NodeId, NodeId>,
    report: WaveReport,
    /// ARQ policy; [`ReliabilityConfig::legacy`] (fire-and-forget) unless
    /// [`DiscoveryEngine::set_reliability`] is called.
    reliability: ReliabilityConfig,
    /// Monotonic nonce source for reliable envelopes.
    next_nonce: u64,
    /// Unacknowledged reliable unicasts, by nonce.
    outstanding: FastMap<u64, OutstandingFrame>,
    /// Causal provenance, cleared per wave: ledger msg id of each node's
    /// round-0 `Hello` broadcast (re-rounds cite it as their original).
    hello_broadcast: FastMap<NodeId, u64>,
    /// `(node, peer)` → msg id of the `Hello`/`HelloAck` frame that first
    /// asserted the tentative relation (or made `peer` an update contact);
    /// parents the `RecordRequest`/`UpdateRequest` that follow.
    hello_origin: FastMap<(NodeId, NodeId), u64>,
    /// `(requester, target)` → msg id of the first `RecordRequest`, so an
    /// ARQ re-pull cites the original it repeats.
    request_origin: FastMap<(NodeId, NodeId), u64>,
    /// `(collector, origin)` → msg id of the `RecordReply` that delivered
    /// the authenticated record; parents the commitments and evidence the
    /// record's validation later produces.
    record_origin: FastMap<(NodeId, NodeId), u64>,
    /// `(server, requester)` update pairs already counted this wave, so a
    /// retransmitted request is re-served (the re-mint is deterministic)
    /// without double-counting `updates_applied`.
    served_updates: BTreeSet<(NodeId, NodeId)>,
    /// Whether per-node neighbor-key caches are enabled on deploy.
    key_cache: bool,
    /// Structured-event sink; [`NullRecorder`] (free) unless installed.
    recorder: Arc<dyn Recorder>,
    /// Wall-clock profiler; disabled (spans inert) unless installed.
    profiler: Profiler,
    /// Tier-1 memory telemetry: per-(subsystem, phase) peak logical
    /// bytes, sampled at phase boundaries (DESIGN.md §17). Always on —
    /// one O(nodes) length scan per phase — and deterministic, unlike
    /// the tier-2 `memrt.*` allocator view.
    mem: MemTable,
    /// Worker pool for the per-node steps of every delivery pump. Sized
    /// from `SND_THREADS` unless overridden; thread count never changes
    /// results (DESIGN.md §9/§14).
    exec: Executor,
    /// Reusable encode scratch for the engine's own sends (phase drivers,
    /// `HelloAck` replay, reliable unicasts): payloads that inline (hello
    /// family, acks, requests) cost no allocation at all.
    pool: PayloadPool,
    /// Waves completed, for event numbering (first wave is 1).
    waves_run: u64,
    /// Whether benign old nodes automatically request record updates.
    pub auto_update_benign: bool,
    /// Whether the direct-verification layer (RTT bounding / packet
    /// leashes \[8\]–\[10\]) is active. When on (the default, matching the
    /// paper's assumption that "the direct neighbor verification mechanism
    /// can always correctly verify the neighbor relation between two benign
    /// nodes"), tentative relations are only asserted for frames whose
    /// physical path length fits in the radio range — which kills wormhole
    /// relays but, crucially, NOT replicas. Turn off to study an
    /// unprotected network.
    pub direct_verification: bool,
}

impl DiscoveryEngine {
    /// Creates an engine over an empty field.
    pub fn new(field: Field, radio: RadioSpec, config: ProtocolConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let master = SymmetricKey::random_insecure(&mut rng);
        let deployment = Deployment::empty(field);
        let sim = Simulator::new(deployment.clone(), radio.clone(), seed.wrapping_add(1));
        let ops = sim.metrics().hash_counter();
        DiscoveryEngine {
            config,
            master,
            sim,
            deployment,
            radio,
            nodes: Vec::new(),
            adversary: Adversary::new(),
            rng,
            ops,
            wave_contacts: FastMap::default(),
            report: WaveReport::default(),
            reliability: ReliabilityConfig::legacy(),
            next_nonce: 0,
            outstanding: FastMap::default(),
            hello_broadcast: FastMap::default(),
            hello_origin: FastMap::default(),
            request_origin: FastMap::default(),
            record_origin: FastMap::default(),
            served_updates: BTreeSet::new(),
            key_cache: true,
            recorder: Arc::new(NullRecorder),
            profiler: Profiler::disabled(),
            mem: MemTable::new(),
            exec: Executor::from_env(),
            pool: PayloadPool::new(),
            waves_run: 0,
            auto_update_benign: true,
            direct_verification: true,
        }
    }

    /// Installs a structured-event recorder and bridges the simulator's
    /// transport drops into it. Protocol, adversary and transport events
    /// flow into `recorder` from here on.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.sim
            .set_trace_hook(Arc::new(SimTraceBridge(Arc::clone(&recorder))));
        self.recorder = recorder;
    }

    /// The installed recorder (a [`NullRecorder`] by default).
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// Installs a wall-clock profiler (clone of the caller's handle, so
    /// both sides read the same accumulator). Waves then time their phases
    /// and ARQ work under the span tree documented in DESIGN.md §12.
    ///
    /// Wall-clock data is inherently non-deterministic: keep it out of any
    /// byte-compared output (DESIGN.md §9).
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// The installed profiler (disabled by default).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The tier-1 memory table: per-subsystem peak logical bytes by
    /// phase, sampled at phase boundaries (DESIGN.md §17). Export it
    /// into a report registry with
    /// [`MemTable::export_into`](snd_observe::mem::MemTable::export_into).
    pub fn mem_table(&self) -> &MemTable {
        &self.mem
    }

    /// Samples every subsystem's logical heap bytes under `phase`.
    /// Cells keep their maximum across samples, so each cell reads as
    /// "the most bytes this subsystem held at this phase boundary".
    /// The `inboxes` figure is the simulator's running peak (inboxes
    /// are empty *at* boundaries by construction).
    fn sample_memory(&self, phase: &'static str) {
        let mut nodes = 0u64;
        let mut keys = 0u64;
        for node in self.nodes.iter().flatten() {
            nodes += node.heap_bytes();
            keys += node.key_cache_bytes();
        }
        self.mem.record("nodes", phase, nodes);
        self.mem.record("key_cache", phase, keys);
        self.mem
            .record("envelope_pool", phase, self.pool.idle_bytes());
        self.mem
            .record("inboxes", phase, self.sim.inbox_peak_bytes());
        self.mem
            .record("ledger", phase, self.sim.ledger().heap_bytes());
        self.mem
            .record("recorder", phase, self.recorder.heap_bytes());
    }

    /// Emits an event without constructing it when tracing is off.
    fn emit(&self, build: impl FnOnce() -> Event) {
        if self.recorder.enabled() {
            self.recorder.record(build());
        }
    }

    /// Opens a phase span at the current simulator clock.
    fn phase_span(&self, wave: u64, phase: Phase) -> Span {
        Span::open(Arc::clone(&self.recorder), wave, phase, self.sim.now())
    }

    /// The protocol configuration.
    pub fn config(&self) -> ProtocolConfig {
        self.config
    }

    /// The radio specification (the paper's `R` is `radio().max_range()`).
    pub fn radio(&self) -> &RadioSpec {
        &self.radio
    }

    /// Original deployment points.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The underlying simulator (metrics, jamming, link model).
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Mutable simulator access (install jammers, change link models).
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// The adversary's state.
    pub fn adversary(&self) -> &Adversary {
        &self.adversary
    }

    /// Mutable adversary access (set behavior profiles).
    pub fn adversary_mut(&mut self) -> &mut Adversary {
        &mut self.adversary
    }

    /// The hash-operation counter shared with the simulator metrics.
    pub fn hash_ops(&self) -> u64 {
        self.ops.get()
    }

    /// Installs an ARQ policy for subsequent waves. The default is
    /// [`ReliabilityConfig::legacy`] — fire-and-forget, byte-identical to
    /// the engine's historical behavior.
    pub fn set_reliability(&mut self, reliability: ReliabilityConfig) {
        self.reliability = reliability;
    }

    /// The active ARQ policy.
    pub fn reliability(&self) -> ReliabilityConfig {
        self.reliability
    }

    /// Installs the worker pool for in-wave parallel stages. The default
    /// is [`Executor::from_env`] (`SND_THREADS`); any size produces
    /// byte-identical waves — this only changes wall-clock time.
    pub fn set_executor(&mut self, exec: Executor) {
        self.exec = exec;
    }

    /// The in-wave worker pool.
    pub fn executor(&self) -> Executor {
        self.exec
    }

    /// Enables or disables the per-node neighbor-key memo caches, for all
    /// already-deployed nodes and everything deployed later. On by default;
    /// turning it off forces every derivation back through SHA-256
    /// (useful for measuring what the memoization saves).
    pub fn set_key_cache(&mut self, enabled: bool) {
        self.key_cache = enabled;
        for node in self.nodes.iter_mut().flatten() {
            node.set_key_cache(enabled);
        }
    }

    /// Total neighbor-key/commitment derivations answered from node-local
    /// caches instead of re-hashing, across all deployed nodes.
    pub fn key_cache_hits(&self) -> u64 {
        self.nodes
            .iter()
            .flatten()
            .map(|n| n.key_cache_hits())
            .sum()
    }

    /// A node's protocol state, if deployed.
    pub fn node(&self, id: NodeId) -> Option<&ProtocolNode> {
        node_ref!(self, id)
    }

    /// All deployed node IDs, ascending.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.is_some())
            .map(|(idx, _)| NodeId(idx as u64))
    }

    /// IDs of benign (non-compromised) nodes.
    pub fn benign_ids(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|id| !self.adversary.controls(*id))
            .collect()
    }

    /// Provisions and places a node; it joins the protocol on the next
    /// [`DiscoveryEngine::run_wave`] that includes it.
    pub fn deploy_at(&mut self, id: NodeId, at: Point) {
        // Crypto-bound: provisioning derives the node's key material.
        let _prof = self.profiler.span("provision");
        let _mem_scope = MemScope::enter(MemScopeId::Provision);
        let mut node = ProtocolNode::provision(id, &self.master, self.config, &self.ops);
        node.set_key_cache(self.key_cache);
        let idx = id.0 as usize;
        if idx >= self.nodes.len() {
            self.nodes.resize_with(idx + 1, || None);
        }
        self.nodes[idx] = Some(node);
        self.deployment.place(id, at);
        self.sim.add_node(id, at);
    }

    /// Deploys `n` nodes uniformly at random, returning their IDs.
    pub fn deploy_uniform(&mut self, n: usize) -> Vec<NodeId> {
        let field = self.deployment.field();
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            let id = self.deployment.next_id();
            let p = field.sample(&mut self.rng);
            self.deploy_at(id, p);
            ids.push(id);
        }
        ids
    }

    /// Runs the full discovery protocol for the given newly deployed nodes.
    ///
    /// # Panics
    ///
    /// Panics if any `new_ids` entry was never deployed.
    pub fn run_wave(&mut self, new_ids: &[NodeId]) -> WaveReport {
        self.report = WaveReport {
            wave_nodes: new_ids.to_vec(),
            ..WaveReport::default()
        };
        self.wave_contacts.clear();
        self.outstanding.clear();
        self.served_updates.clear();
        self.hello_broadcast.clear();
        self.hello_origin.clear();
        self.request_origin.clear();
        self.record_origin.clear();
        self.waves_run += 1;
        let wave = self.waves_run;
        let rel = self.reliability;
        self.emit(|| Event::WaveStart {
            wave,
            new_nodes: new_ids.to_vec(),
            sim_time: self.sim.now(),
        });
        let prof_wave = self.profiler.span("wave");
        // The pre-wave sample: what provisioning/deployment left resident.
        self.sample_memory("provision");

        // Phase 1: Hello broadcasts. With reliability on, each new node
        // re-broadcasts for up to `hello_rounds` rounds (bounded by the
        // phase budget), so a lost Hello or ack gets fresh chances to
        // assert the tentative relation; `add_tentative` is idempotent.
        self.sim.set_comm_phase(Phase::Hello.name());
        let span = self.phase_span(wave, Phase::Hello);
        let prof = self.profiler.span("hello");
        let mem_scope = MemScope::enter(MemScopeId::Hello);
        let hello_deadline = self.sim.now() + rel.phase_timeout;
        let rounds = if rel.enabled {
            rel.hello_rounds.max(1)
        } else {
            1
        };
        for round in 0..rounds {
            if round > 0 && self.sim.now() >= hello_deadline {
                self.report.timed_out_phases += 1;
                break;
            }
            for &id in new_ids {
                let payload = self
                    .pool
                    .build(|b| Message::Hello { from: id }.encode_into(b));
                if round == 0 {
                    let node = node_mut!(self, id).expect("node deployed");
                    node.begin_discovery().expect("fresh node enters discovery");
                    let (msg_id, _) = self.sim.broadcast_meta(id, payload, TxMeta::of("hello"));
                    self.hello_broadcast.insert(id, msg_id);
                } else {
                    self.report.retransmissions += 1;
                    let original = self.hello_broadcast.get(&id).copied();
                    self.sim
                        .broadcast_meta(id, payload, meta_retx("hello", original));
                }
            }
            self.pump(); // deliver Hellos; acks queued
            self.pump(); // deliver acks; tentative lists complete
        }
        mem_scope.close();
        self.sample_memory(Phase::Hello.name());
        prof.close();
        span.close(self.sim.now());

        // Phase 2a: commit binding records (and, in the fast-erasure
        // variant, erase the master key right here). Crypto-bound: every
        // commit derives the record key family and mints the commitment.
        self.sim.set_comm_phase(Phase::Commit.name());
        let span = self.phase_span(wave, Phase::Commit);
        let prof = self.profiler.span("commit");
        let mem_scope = MemScope::enter(MemScopeId::Commit);
        for &id in new_ids {
            let node = node_mut!(self, id).expect("node deployed");
            node.commit_record(&mut self.rng, &self.ops)
                .expect("commit after discovery");
            if self.config.fast_erase {
                self.emit(|| Event::MasterKeyErased { node: id });
            }
        }
        mem_scope.close();
        self.sample_memory(Phase::Commit.name());
        prof.close();
        span.close(self.sim.now());

        // Phase 2b: record collection. The requester knows exactly which
        // records it still lacks, so reliability here is a pull-based ARQ:
        // re-request only the missing ones, with exponential backoff,
        // until the retry budget or the phase clock runs out.
        self.sim.set_comm_phase(Phase::Collect.name());
        let span = self.phase_span(wave, Phase::Collect);
        let prof = self.profiler.span("collect");
        let mem_scope = MemScope::enter(MemScopeId::Collect);
        for &id in new_ids {
            let targets: Vec<NodeId> = node_ref!(self, id)
                .expect("node deployed")
                .tentative_neighbors()
                .iter()
                .copied()
                .collect();
            for v in targets {
                let cause = self.hello_origin.get(&(id, v)).copied();
                let payload = self
                    .pool
                    .build(|b| Message::RecordRequest { from: id }.encode_into(b));
                let (msg_id, _) =
                    self.sim
                        .unicast_meta(id, v, payload, meta_reply("record_request", cause));
                self.request_origin.insert((id, v), msg_id);
            }
        }
        self.pump(); // deliver requests; replies queued
        self.pump(); // deliver replies; records collected
        if rel.enabled {
            let _prof_arq = self.profiler.span("arq_repull");
            let deadline = self.sim.now() + rel.phase_timeout;
            for attempt in 0..=rel.retry_budget {
                let mut any_missing = false;
                for &id in new_ids {
                    for v in node_ref!(self, id)
                        .expect("node deployed")
                        .missing_records()
                    {
                        any_missing = true;
                        let original = self.request_origin.get(&(id, v)).copied();
                        let payload = self
                            .pool
                            .build(|b| Message::RecordRequest { from: id }.encode_into(b));
                        self.sim.unicast_meta(
                            id,
                            v,
                            payload,
                            meta_retx("record_request", original),
                        );
                        self.report.retransmissions += 1;
                    }
                }
                if !any_missing {
                    break;
                }
                // Wait out the backoff (the request/reply round trip needs
                // at least two pump steps), then re-check.
                self.pump_for(rel.backoff(attempt).max(SimDuration::from_millis(4)));
                let exhausted = attempt == rel.retry_budget || self.sim.now() >= deadline;
                if exhausted {
                    let still_missing = new_ids.iter().any(|id| {
                        !node_ref!(self, *id)
                            .expect("node deployed")
                            .missing_records()
                            .is_empty()
                    });
                    if still_missing {
                        self.report.timed_out_phases += 1;
                    }
                    break;
                }
            }
        }
        // Records that never arrived degrade the wave: the pair is named
        // unconfirmed and the peer simply cannot validate this wave.
        for &id in new_ids {
            for v in node_ref!(self, id)
                .expect("node deployed")
                .missing_records()
            {
                self.report.unconfirmed_links.push((id, v));
            }
        }
        mem_scope.close();
        self.sample_memory(Phase::Collect.name());
        prof.close();
        span.close(self.sim.now());

        // Phase 3: binding-record updates against the still-trusted wave.
        if self.config.max_updates > 0 {
            self.sim.set_comm_phase(Phase::Update.name());
            let span = self.phase_span(wave, Phase::Update);
            let _prof = self.profiler.span("update");
            let mem_scope = MemScope::enter(MemScopeId::Update);
            let mut contacts: Vec<(NodeId, NodeId)> = self
                .wave_contacts
                .iter()
                .map(|(old, new)| (*old, *new))
                .collect();
            // Update requests are sends; keep the ascending (old, new)
            // order the ordered map used to provide.
            contacts.sort_unstable();
            for (old, new) in contacts {
                let is_compromised = self.adversary.controls(old);
                let wants = if is_compromised {
                    self.adversary.behavior().request_updates
                } else {
                    self.auto_update_benign
                };
                let Some(node) = node_ref!(self, old) else {
                    continue;
                };
                if !wants
                    || node.state() != NodeState::Operational
                    || node.usable_evidence().is_empty()
                {
                    continue;
                }
                if let Ok((record, evidences)) = node.build_update_request() {
                    let cause = self.hello_origin.get(&(old, new)).copied();
                    self.sim.unicast_meta(
                        old,
                        new,
                        Message::UpdateRequest { record, evidences }.encode(),
                        meta_reply("update_request", cause),
                    );
                }
            }
            self.pump(); // new nodes process updates; replies queued
            self.pump(); // requesters install refreshed records
            mem_scope.close();
            self.sample_memory(Phase::Update.name());
            span.close(self.sim.now());
        }

        // Phase 4: finalize — validation, commitments, evidence, K erasure.
        self.sim.set_comm_phase(Phase::Finalize.name());
        let span = self.phase_span(wave, Phase::Finalize);
        let prof = self.profiler.span("finalize");
        let mem_scope = MemScope::enter(MemScopeId::Finalize);
        let prof_validate = self.profiler.span("validate");
        for &id in new_ids {
            let node = node_mut!(self, id).expect("node deployed");
            let out = node
                .finalize_discovery(&mut self.rng, &self.ops)
                .expect("committed node finalizes");
            if self.recorder.enabled() {
                for d in &out.decisions {
                    self.recorder.record(Event::ValidationDecision {
                        node: id,
                        peer: d.peer,
                        shared: d.shared as u64,
                        required: d.required as u64,
                        accepted: d.accepted,
                    });
                }
                if !self.config.fast_erase {
                    self.recorder.record(Event::MasterKeyErased { node: id });
                }
            }
            for (v, digest) in out.commitments {
                let cause = self
                    .record_origin
                    .get(&(id, v))
                    .or_else(|| self.hello_origin.get(&(id, v)))
                    .copied();
                self.send_reliable(
                    id,
                    v,
                    Message::RelationCommit {
                        from: id,
                        to: v,
                        digest,
                    },
                    cause,
                );
            }
            for ev in out.evidence {
                let to = ev.to;
                let cause = self
                    .record_origin
                    .get(&(id, to))
                    .or_else(|| self.hello_origin.get(&(id, to)))
                    .copied();
                self.send_reliable(id, to, Message::Evidence { evidence: ev }, cause);
            }
        }
        prof_validate.close();
        self.pump(); // deliver commitments & evidence
        if rel.enabled {
            let _prof_arq = self.profiler.span("arq_resend");
            // Acknowledged unicast: resend whatever has not been acked,
            // backing off exponentially, until everything is confirmed or
            // the budget/deadline runs out. Receivers handle re-delivery
            // idempotently, so a lost *ack* cannot corrupt state.
            self.pump(); // deliver the acks the first pump provoked
            let deadline = self.sim.now() + rel.phase_timeout;
            for attempt in 0..rel.retry_budget {
                if self.outstanding.is_empty() || self.sim.now() >= deadline {
                    break;
                }
                let mut resend: Vec<(u64, OutstandingFrame)> = self
                    .outstanding
                    .iter()
                    .map(|(&nonce, o)| (nonce, o.clone()))
                    .collect();
                // Resends are sends; keep the ascending-nonce order the
                // ordered map used to provide.
                resend.sort_unstable_by_key(|(nonce, _)| *nonce);
                for (_, o) in resend {
                    self.sim
                        .unicast_meta(o.from, o.to, o.frame, TxMeta::retx(o.kind, o.msg_id));
                    self.report.retransmissions += 1;
                }
                self.pump_for(rel.backoff(attempt).max(SimDuration::from_millis(4)));
            }
            if !self.outstanding.is_empty() {
                self.report.timed_out_phases += 1;
                for o in self.outstanding.values() {
                    self.report.unconfirmed_links.push((o.from, o.to));
                }
            }
        }
        self.report.unconfirmed_links.sort_unstable();
        self.report.unconfirmed_links.dedup();
        mem_scope.close();
        self.sample_memory(Phase::Finalize.name());
        prof.close();
        span.close(self.sim.now());

        prof_wave.close();
        self.emit(|| Event::WaveEnd {
            wave,
            sim_time: self.sim.now(),
        });
        self.report.clone()
    }

    /// Sends `inner` as an acknowledged unicast when reliability is on
    /// (wrapped in a nonce-carrying envelope and tracked until acked), or
    /// as a plain fire-and-forget unicast when it is off. `parent` is the
    /// ledger msg id that caused this send (the record reply the
    /// commitment answers, usually).
    fn send_reliable(&mut self, from: NodeId, to: NodeId, inner: Message, parent: Option<u64>) {
        if self.reliability.enabled {
            self.next_nonce += 1;
            let nonce = self.next_nonce;
            let msg = Message::Reliable {
                nonce,
                inner: Box::new(inner),
            };
            let kind = msg.kind();
            let frame = self.pool.build(|b| msg.encode_into(b));
            let (msg_id, _) =
                self.sim
                    .unicast_meta(from, to, frame.clone(), meta_reply(kind, parent));
            self.outstanding.insert(
                nonce,
                OutstandingFrame {
                    from,
                    to,
                    frame,
                    msg_id,
                    kind,
                },
            );
        } else {
            let kind = inner.kind();
            let payload = self.pool.build(|b| inner.encode_into(b));
            self.sim
                .unicast_meta(from, to, payload, meta_reply(kind, parent));
        }
    }

    /// Pumps repeatedly until at least `d` of simulated time has passed
    /// (each pump advances the clock one 2 ms delivery step). Used by the
    /// collect/finalize ARQ loops.
    fn pump_for(&mut self, d: SimDuration) {
        let mut remaining = d.as_micros();
        loop {
            self.pump();
            remaining = remaining.saturating_sub(2_000);
            if remaining == 0 {
                break;
            }
        }
    }

    /// Advances the clock one 2 ms delivery step and lets every receiver
    /// react to what it was delivered.
    ///
    /// Inboxes are drained all at once and [`step`] — the one per-node
    /// handler, covering every message kind — fans out across
    /// [`Executor::map_mut`]: each worker owns exactly one receiver's node
    /// state, so nothing it mutates is shared. Every engine-global
    /// consequence (sends with their order-sensitive ledger ids, ARQ
    /// settlement, provenance maps, report counters, recorder events and
    /// the attacker's logic) comes back as an ordered [`Effect`] list and
    /// is replayed in (receiver ascending, frame order) — the order a
    /// message-at-a-time dispatcher would produce, which is what keeps
    /// every wave byte-identical at any `SND_THREADS` (DESIGN.md §14).
    fn pump(&mut self) {
        self.sim.advance(SimDuration::from_millis(2));
        let inboxes = self.sim.drain_all_inboxes();
        if inboxes.is_empty() {
            return;
        }
        let ctx = StepContext {
            direct_verification: self.direct_verification,
            max_range: self.radio.max_range(),
            ops: &self.ops,
        };

        // Pair each inbox with exclusive access to its receiver's state.
        // `inboxes` is ascending with distinct ids, so each slot is carved
        // off the dense node table with O(1) split_at_mut steps.
        let mut work: Vec<Inbox<'_>> = Vec::with_capacity(inboxes.len());
        let mut remaining = self.nodes.as_mut_slice();
        let mut offset = 0usize;
        for (id, frames) in inboxes {
            let idx = id.0 as usize;
            let node = if idx < offset || idx - offset >= remaining.len() {
                None
            } else {
                let tail = std::mem::take(&mut remaining).split_at_mut(idx - offset).1;
                let (slot, rest) = tail.split_first_mut().expect("tail non-empty");
                remaining = rest;
                offset = idx + 1;
                slot.as_mut()
            };
            let role = if self.adversary.controls(id) {
                Role::Adversary
            } else {
                Role::Benign(node)
            };
            work.push(Inbox { id, frames, role });
        }

        let reactions = self
            .exec
            .map_mut(&mut work, |_, w| step(w.id, &mut w.role, &w.frames, &ctx));
        // Drop the node borrows (and the frames); only ids travel onward.
        let receivers: Vec<NodeId> = work.into_iter().map(|w| w.id).collect();
        for (receiver, reaction) in receivers.into_iter().zip(reactions) {
            self.replay(receiver, reaction);
        }
    }

    /// Applies one receiver's [`Reaction`] to the engine, effect by
    /// effect, in frame order.
    fn replay(&mut self, receiver: NodeId, reaction: Reaction) {
        let mut payloads = reaction.payloads.into_iter();
        let mut captured = reaction.captured.into_iter();
        for effect in reaction.effects {
            match effect {
                Effect::Send { peer, cause } => {
                    let (payload, kind) = payloads.next().expect("one payload per send");
                    self.sim
                        .unicast_meta(receiver, peer, payload, TxMeta::reply(kind, cause));
                }
                Effect::HelloAck { peer, cause } => {
                    let payload = self
                        .pool
                        .build(|b| Message::HelloAck { from: receiver }.encode_into(b));
                    self.sim.unicast_meta(
                        receiver,
                        peer,
                        payload,
                        TxMeta::reply("hello_ack", cause),
                    );
                }
                Effect::AckSettle { nonce } => {
                    if self.outstanding.remove(&nonce).is_some() {
                        self.report.acks_received += 1;
                    } else {
                        // Duplicate ack for a frame already confirmed.
                        self.report.duplicates_ignored += 1;
                    }
                }
                Effect::Tentative { peer, cause, fresh } => {
                    self.hello_origin.entry((receiver, peer)).or_insert(cause);
                    if fresh {
                        self.emit(|| Event::TentativeAdded {
                            node: receiver,
                            peer,
                        });
                    }
                }
                Effect::Contact { peer, cause } => {
                    self.wave_contacts.entry(receiver).or_insert(peer);
                    self.hello_origin.entry((receiver, peer)).or_insert(cause);
                }
                Effect::Collected {
                    origin,
                    cause,
                    authenticated,
                } => {
                    if authenticated {
                        self.record_origin
                            .entry((receiver, origin))
                            .or_insert(cause);
                    } else {
                        self.report.rejected_records += 1;
                    }
                    self.emit(|| Event::RecordCollected {
                        node: receiver,
                        from: origin,
                        authenticated,
                    });
                }
                Effect::Commitment {
                    from,
                    ok,
                    emit_event,
                } => {
                    if !ok {
                        self.report.rejected_commitments += 1;
                    }
                    if emit_event {
                        self.emit(|| Event::CommitmentChecked {
                            node: receiver,
                            from,
                            ok,
                        });
                    }
                }
                Effect::Evidence { from } => self.emit(|| Event::EvidenceBuffered {
                    node: receiver,
                    from,
                }),
                Effect::UpdateServed { requester } => {
                    // Re-minting the same request is deterministic, so
                    // serving a retransmission is idempotent — but it must
                    // not double-count as a distinct update.
                    if self.served_updates.insert((receiver, requester)) {
                        self.report.updates_applied += 1;
                    } else {
                        self.report.duplicates_ignored += 1;
                    }
                }
                Effect::UpdateRejected => self.report.updates_rejected += 1,
                Effect::DuplicateIgnored => self.report.duplicates_ignored += 1,
                Effect::Malformed => self.report.malformed_frames += 1,
                Effect::Adversary { cause } => {
                    let msg = captured.next().expect("one message per adversary effect");
                    self.dispatch_compromised(receiver, msg, cause);
                }
            }
        }
    }

    /// Attacker-controlled handling for compromised nodes and Sybil
    /// identities, run by [`DiscoveryEngine::replay`] at the frame's merge
    /// position (it reads engine-global state, so it never runs in a
    /// worker). The ledger traces attacker traffic like any other —
    /// `cause` chains survive compromise, which is exactly what forensics
    /// wants.
    fn dispatch_compromised(&mut self, receiver: NodeId, msg: Message, cause: u64) {
        let behavior = self.adversary.behavior();
        match msg {
            Message::Hello { from } => {
                if behavior.answer_hellos {
                    self.sim.unicast_meta(
                        receiver,
                        from,
                        Message::HelloAck { from: receiver }.encode(),
                        TxMeta::reply("hello_ack", cause),
                    );
                }
                // The attacker tracks new arrivals for malicious updates.
                self.wave_contacts.entry(receiver).or_insert(from);
            }
            Message::RecordRequest { from } => {
                let forged = behavior
                    .forge_records_with_master
                    .then(|| self.adversary.master_key().cloned())
                    .flatten()
                    .map(|stolen| {
                        // Total break: mint a record claiming every node in
                        // the network as a neighbor — guaranteed overlap.
                        let everyone = self.node_ids().filter(|&x| x != receiver);
                        BindingRecord::create(&stolen, receiver, 0, everyone.collect(), &self.ops)
                    });
                let record = match forged {
                    Some(r) => Some(r),
                    None if behavior.replay_records => {
                        if let Some(owner) = self.adversary.sybil_owner(receiver) {
                            // A Sybil identity holds no real credentials:
                            // it fabricates a verification key and claims
                            // the requester (plus its owner) as neighbors,
                            // so its record flows through the genuine
                            // collect traffic but can never authenticate
                            // against `F(K, receiver)`.
                            let mut kb = [0u8; snd_crypto::keys::KEY_LEN];
                            kb[..8].copy_from_slice(&receiver.0.to_le_bytes());
                            kb[8..16].copy_from_slice(&owner.0.to_le_bytes());
                            let fake_key = SymmetricKey::from_bytes(kb);
                            let mut claimed = BTreeSet::new();
                            claimed.insert(from);
                            claimed.insert(owner);
                            Some(BindingRecord::create(
                                &fake_key, receiver, 0, claimed, &self.ops,
                            ))
                        } else {
                            self.adversary
                                .captured(receiver)
                                .map(|c| c.record.clone())
                                .or_else(|| node_ref!(self, receiver).map(|n| n.record().clone()))
                        }
                    }
                    None => None,
                };
                if let Some(record) = record {
                    self.sim.unicast_meta(
                        receiver,
                        from,
                        Message::RecordReply { record }.encode(),
                        TxMeta::reply("record_reply", cause),
                    );
                }
            }
            Message::RelationCommit { from, to, digest } => {
                // The attacker knows K_receiver and happily verifies —
                // functional edges into the compromised node are its yield.
                if to == receiver {
                    if let Some(node) = node_mut!(self, receiver) {
                        let _ = node.accept_relation_commitment(from, &digest, &self.ops);
                    }
                }
            }
            Message::Evidence { evidence } => {
                // Buffered: ammunition for malicious update requests.
                if let Some(node) = node_mut!(self, receiver) {
                    let _ = node.buffer_evidence(evidence.clone());
                }
                if let Some(c) = self.adversary.captured_mut(receiver) {
                    c.evidence.push(evidence);
                }
            }
            Message::UpdateReply { record } => {
                if let Some(node) = node_mut!(self, receiver) {
                    if node.install_updated_record(record.clone()).is_ok() {
                        if let Some(c) = self.adversary.captured_mut(receiver) {
                            c.record = record;
                            c.evidence.clear();
                        }
                    }
                }
            }
            // Compromised nodes never serve honest updates or care about
            // acks/record replies (they do not run discovery again).
            // Transport framing never reaches here (consumed in `step`).
            Message::HelloAck { .. }
            | Message::RecordReply { .. }
            | Message::UpdateRequest { .. }
            | Message::Ack { .. }
            | Message::Reliable { .. } => {}
        }
    }

    /// Compromises an operational node, transferring its secrets to the
    /// adversary.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::UnknownNode`] if never deployed.
    /// * [`ProtocolError::WrongState`] if the node is still inside its
    ///   deployment trust window — the paper's deployment assumption says
    ///   this cannot happen; use
    ///   [`DiscoveryEngine::compromise_violating_window`] to model the
    ///   assumption failing.
    pub fn compromise(&mut self, id: NodeId) -> Result<(), ProtocolError> {
        let node = node_ref!(self, id).ok_or(ProtocolError::UnknownNode { node: id })?;
        if node.state() != NodeState::Operational {
            return Err(ProtocolError::WrongState {
                operation: "compromise inside trust window",
            });
        }
        let leaked = node.holds_master_key();
        self.adversary.absorb(node.compromise());
        self.emit(|| Event::NodeCompromised {
            node: id,
            master_key_leaked: leaked,
        });
        Ok(())
    }

    /// Compromises a node *inside* its trust window, leaking the master key
    /// — the catastrophic deployment-security failure of Section 4.5.3's
    /// closing caveat.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownNode`] if never deployed.
    pub fn compromise_violating_window(&mut self, id: NodeId) -> Result<(), ProtocolError> {
        let node = node_ref!(self, id).ok_or(ProtocolError::UnknownNode { node: id })?;
        let leaked = node.holds_master_key();
        self.adversary.absorb(node.compromise());
        self.emit(|| Event::NodeCompromised {
            node: id,
            master_key_leaked: leaked,
        });
        Ok(())
    }

    /// Places a replica transceiver of a compromised node.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownNode`] when `id` is not compromised (the
    /// attacker can only clone nodes whose secrets it holds).
    pub fn place_replica(&mut self, id: NodeId, at: Point) -> Result<(), ProtocolError> {
        if !self.adversary.controls(id) {
            return Err(ProtocolError::UnknownNode { node: id });
        }
        self.sim.add_replica(id, at);
        self.adversary.note_replica(id, at);
        self.emit(|| Event::ReplicaPlaced { node: id, at });
        Ok(())
    }

    /// Claims fabricated Sybil identities for the compromised radio
    /// `owner` \[Newsome et al.; Vora et al.\]: each `fake` id gains a
    /// transceiver co-located with every one of `owner`'s transceivers,
    /// so the fabricated identities answer Hellos, serve (forged) binding
    /// records and receive traffic through the real radio fabric — no
    /// protocol state, no key material, no deployment position.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::UnknownNode`] when `owner` is not a compromised
    ///   node (Sybil identities cannot chain off other Sybil identities).
    /// * [`ProtocolError::WrongState`] when a `fake` id is already in use
    ///   by a deployed node, a live radio, or the adversary itself.
    pub fn claim_sybil_identities(
        &mut self,
        owner: NodeId,
        fakes: &[NodeId],
    ) -> Result<(), ProtocolError> {
        if self.adversary.captured(owner).is_none() {
            return Err(ProtocolError::UnknownNode { node: owner });
        }
        for &fake in fakes {
            if self.node(fake).is_some() || self.sim.is_alive(fake) || self.adversary.controls(fake)
            {
                return Err(ProtocolError::WrongState {
                    operation: "claim a sybil identity already in use",
                });
            }
        }
        for &fake in fakes {
            let positions: Vec<Point> = self.sim.positions_of(owner).to_vec();
            for p in positions {
                self.sim.add_node(fake, p);
            }
            self.adversary.note_sybil(fake, owner);
            self.emit(|| Event::SybilClaimed { node: fake, owner });
        }
        Ok(())
    }

    /// Plants an out-of-band far link between two colluding compromised
    /// radios: frames either can hear are re-emitted by the other,
    /// regardless of the distance between them (the node-anchored
    /// wormhole of \[8\]–\[10\]). The reported frame distance includes the
    /// tunnel span, so direct verification still measures the true path.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownNode`] when either endpoint is not
    /// attacker-controlled.
    pub fn plant_far_link(&mut self, a: NodeId, b: NodeId) -> Result<(), ProtocolError> {
        for id in [a, b] {
            if !self.adversary.controls(id) {
                return Err(ProtocolError::UnknownNode { node: id });
            }
        }
        self.sim.add_far_link(a, b);
        self.adversary.note_far_link(a, b);
        self.emit(|| Event::FarLinkPlanted { a, b });
        Ok(())
    }

    /// The functional topology: edge `(u, v)` iff `v` is in `u`'s
    /// functional neighbor list.
    pub fn functional_topology(&self) -> DiGraph {
        let mut g = DiGraph::new();
        for (idx, node) in self.nodes.iter().enumerate() {
            let Some(node) = node else { continue };
            let id = NodeId(idx as u64);
            g.add_node(id);
            for &v in node.functional_neighbors() {
                g.add_edge(id, v);
            }
        }
        g
    }

    /// The tentative topology as asserted by the direct-verification layer
    /// during discovery.
    pub fn tentative_topology(&self) -> DiGraph {
        let mut g = DiGraph::new();
        for (idx, node) in self.nodes.iter().enumerate() {
            let Some(node) = node else { continue };
            let id = NodeId(idx as u64);
            g.add_node(id);
            for &v in node.tentative_neighbors() {
                g.add_edge(id, v);
            }
        }
        g
    }
}

/// One receiver's share of a delivery step: its drained inbox and who
/// reacts to it.
struct Inbox<'a> {
    id: NodeId,
    frames: Vec<Delivered>,
    role: Role<'a>,
}

/// Who reacts to a receiver's frames.
enum Role<'a> {
    /// An honest receiver with exclusive access to its protocol state
    /// (`None` when the id has none).
    Benign(Option<&'a mut ProtocolNode>),
    /// An attacker-controlled id — a compromised node (and its replica
    /// radios) or a Sybil identity. Its transport framing runs in the
    /// step like anyone's; each inner message reaches
    /// `DiscoveryEngine::dispatch_compromised` at its replay position.
    Adversary,
}

/// What every receiver's step reads besides its own node.
struct StepContext<'a> {
    direct_verification: bool,
    max_range: f64,
    ops: &'a HashCounter,
}

/// An engine-global consequence of one frame, replayed in (receiver
/// ascending, frame order) by [`DiscoveryEngine::replay`]. Payloads live
/// in the [`Reaction`]'s side vectors, consumed in order, so an effect
/// stays three words even though a wave replays millions of them.
enum Effect {
    /// Send the next [`Reaction::payloads`] entry to `peer`, citing the
    /// delivered frame `cause`: a transport `Ack` (queued *before* its
    /// envelope's inner message is handled), a `RecordReply` or an
    /// `UpdateReply`.
    Send { peer: NodeId, cause: u64 },
    /// Send `HelloAck` to `peer`, encoded at replay from the ids.
    HelloAck { peer: NodeId, cause: u64 },
    /// `outstanding.remove(nonce)`: `acks_received` on a hit,
    /// `duplicates_ignored` on a re-delivered ack.
    AckSettle { nonce: u64 },
    /// A tentative relation asserted: `hello_origin`, plus
    /// `Event::TentativeAdded` when `peer` is genuinely new (Hello
    /// re-rounds re-assert known relations).
    Tentative {
        peer: NodeId,
        cause: u64,
        fresh: bool,
    },
    /// An operational receiver noting a reachable wave member as its
    /// potential record updater: `wave_contacts` and `hello_origin`.
    Contact { peer: NodeId, cause: u64 },
    /// A first-time record: `record_origin` if it authenticated,
    /// `rejected_records` if not, and `Event::RecordCollected`.
    Collected {
        origin: NodeId,
        cause: u64,
        authenticated: bool,
    },
    /// A verified/rejected relation commitment: `rejected_commitments`
    /// on failure, `Event::CommitmentChecked` unless it is an ARQ
    /// re-verification of an already-functional edge.
    Commitment {
        from: NodeId,
        ok: bool,
        emit_event: bool,
    },
    /// Fresh evidence buffered: `Event::EvidenceBuffered`.
    Evidence { from: NodeId },
    /// An update request served: `updates_applied`, or
    /// `duplicates_ignored` for a retransmitted request.
    UpdateServed { requester: NodeId },
    /// An update request refused (cap, forgery, version).
    UpdateRejected,
    /// Idempotently discarded re-delivery.
    DuplicateIgnored,
    /// Undecodable frame or misaddressed commitment.
    Malformed,
    /// Hand the next [`Reaction::captured`] message to the attacker.
    Adversary { cause: u64 },
}

// The replay traffic at n = 20 000 is ~1 M effects per hello pump; keep
// every variant within three words.
const _: () = assert!(std::mem::size_of::<Effect>() <= 24);

/// Everything one receiver's step hands back to the engine.
#[derive(Default)]
struct Reaction {
    /// Global effects, in frame order.
    effects: Vec<Effect>,
    /// Encoded payloads and ledger kinds of the `Send` effects, in order.
    payloads: Vec<(Envelope, &'static str)>,
    /// Inner messages of the `Adversary` effects, in order.
    captured: Vec<Message>,
}

impl Reaction {
    /// Queues `msg` for `peer` as an [`Effect::Send`].
    fn send(&mut self, peer: NodeId, cause: u64, msg: &Message, scratch: &mut Vec<u8>) {
        self.payloads
            .push((encode_scratch(msg, scratch), msg.kind()));
        self.effects.push(Effect::Send { peer, cause });
    }
}

/// Serializes `msg` into worker-local scratch and freezes it, reusing
/// the scratch allocation whenever the payload inlines (the
/// [`PayloadPool`] logic, without sharing a pool across workers).
fn encode_scratch(msg: &Message, scratch: &mut Vec<u8>) -> Envelope {
    scratch.clear();
    msg.encode_into(scratch);
    if scratch.len() <= MAX_INLINE {
        Envelope::from_slice(scratch)
    } else {
        Envelope::from(std::mem::take(scratch))
    }
}

/// Asserts a tentative relation to `from` after a verified Hello/HelloAck.
fn assert_tentative(
    node: &mut ProtocolNode,
    receiver: NodeId,
    from: NodeId,
    cause: u64,
    effects: &mut Vec<Effect>,
) {
    let fresh = from != receiver && !node.tentative_neighbors().contains(&from);
    if node.add_tentative(from).is_ok() {
        effects.push(Effect::Tentative {
            peer: from,
            cause,
            fresh,
        });
    }
}

/// The protocol's per-node reaction to one delivery step: decodes every
/// frame, runs the transport framing, and for an honest receiver the
/// protocol logic of every message kind. Mutates only the receiver's own
/// node; everything else comes back as a [`Reaction`] in frame order.
/// Each frame's ledger id is the causal parent of whatever it provokes.
fn step(
    receiver: NodeId,
    role: &mut Role<'_>,
    frames: &[Delivered],
    ctx: &StepContext<'_>,
) -> Reaction {
    let mut out = Reaction {
        effects: Vec::with_capacity(frames.len() * 2),
        ..Reaction::default()
    };
    let mut scratch = Vec::new();
    for frame in frames {
        let Ok(msg) = Message::decode(&frame.payload) else {
            out.effects.push(Effect::Malformed);
            continue;
        };
        let cause = frame.msg_id;
        // The reliability envelope is transport framing, shared by benign
        // and compromised receivers alike: ack the nonce (an attacker that
        // refused would only draw retransmissions, never gain anything),
        // then process the payload. Re-delivered envelopes are re-acked —
        // a lost ack must provoke a fresh one — and the inner message is
        // handled idempotently below. Decode depth is bounded: nested
        // envelopes are rejected at the wire layer.
        let msg = match msg {
            Message::Reliable { nonce, inner } => {
                let ack = Message::Ack {
                    from: receiver,
                    nonce,
                };
                out.send(frame.from, cause, &ack, &mut scratch);
                *inner
            }
            Message::Ack { nonce, .. } => {
                out.effects.push(Effect::AckSettle { nonce });
                continue;
            }
            other => other,
        };
        // Direct verification: a tentative relation may only be asserted
        // over a frame whose measured path length fits in the radio range
        // AND whose claimed sender is the radio-layer transmitter — u
        // verifies that *v itself* sent the Hello, so a corrupted frame
        // claiming a mangled identity cannot plant a phantom tentative
        // neighbor. Wormhole-relayed Hellos/acks fail the distance check;
        // replica frames pass both (the replica radio genuinely is nearby
        // and transmits under the captured identity). The check runs on the
        // unwrapped message, so a `Reliable` envelope cannot smuggle a
        // Hello past it.
        let claims_sender_honestly = match &msg {
            Message::Hello { from } | Message::HelloAck { from } => *from == frame.from,
            _ => true,
        };
        let direct_ok = !ctx.direct_verification
            || (frame.distance <= ctx.max_range * (1.0 + 1e-9) && claims_sender_honestly);
        let node = match role {
            Role::Adversary => {
                out.captured.push(msg);
                out.effects.push(Effect::Adversary { cause });
                continue;
            }
            Role::Benign(node) => node.as_deref_mut(),
        };
        if let Message::RelationCommit { to, .. } = &msg {
            if *to != receiver {
                out.effects.push(Effect::Malformed);
                continue;
            }
        }
        let Some(node) = node else {
            continue;
        };
        match msg {
            // Direct verification rejects the relation.
            Message::Hello { .. } | Message::HelloAck { .. } if !direct_ok => {}
            Message::Hello { from } => {
                match node.state() {
                    // Another wave member: record it and ack.
                    NodeState::Discovering => {
                        assert_tentative(node, receiver, from, cause, &mut out.effects);
                    }
                    // An old node notes a reachable new node as its
                    // potential record updater.
                    NodeState::Operational => {
                        out.effects.push(Effect::Contact { peer: from, cause })
                    }
                    _ => {}
                }
                out.effects.push(Effect::HelloAck { peer: from, cause });
            }
            Message::HelloAck { from } => {
                assert_tentative(node, receiver, from, cause, &mut out.effects);
            }
            Message::RecordRequest { from } => {
                let reply = Message::RecordReply {
                    record: node.record().clone(),
                };
                out.send(from, cause, &reply, &mut scratch);
            }
            Message::RecordReply { record } => {
                // A record that already authenticated must not be
                // re-verified (wasted hashes) or double-counted toward the
                // ≥ t+1 overlap: the collected map is keyed by origin, so
                // re-delivery is recognized and dropped.
                let origin = record.node;
                if node.has_collected(origin) {
                    out.effects.push(Effect::DuplicateIgnored);
                } else {
                    let authenticated = node.accept_record(record, ctx.ops).is_ok();
                    out.effects.push(Effect::Collected {
                        origin,
                        cause,
                        authenticated,
                    });
                }
            }
            Message::RelationCommit { from, digest, .. } => {
                // ARQ re-delivers commitments; a re-verified success is
                // not a fresh forensic event, but every failure is.
                let already = node.functional_neighbors().contains(&from);
                let ok = node
                    .accept_relation_commitment(from, &digest, ctx.ops)
                    .is_ok();
                out.effects.push(Effect::Commitment {
                    from,
                    ok,
                    emit_event: !(ok && already),
                });
            }
            Message::Evidence { evidence } => {
                let issuer = evidence.from;
                match node.buffer_evidence(evidence) {
                    Ok(true) => out.effects.push(Effect::Evidence { from: issuer }),
                    // Same token already buffered: a retransmission, not
                    // new ammunition.
                    Ok(false) => out.effects.push(Effect::DuplicateIgnored),
                    Err(_) => {}
                }
            }
            Message::UpdateRequest { record, evidences } => {
                // Only a node still holding K can serve updates.
                match node.process_update_request(&record, &evidences, ctx.ops) {
                    Ok(refreshed) => {
                        out.effects.push(Effect::UpdateServed {
                            requester: record.node,
                        });
                        let reply = Message::UpdateReply { record: refreshed };
                        out.send(record.node, cause, &reply, &mut scratch);
                    }
                    Err(_) => out.effects.push(Effect::UpdateRejected),
                }
            }
            Message::UpdateReply { record } => {
                let _ = node.install_updated_record(record);
            }
            // Nested framing is rejected at decode; nothing reaches here.
            Message::Ack { .. } | Message::Reliable { .. } => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    /// A 3x3 grid with 30 m spacing and 50 m radio: everyone has 2-5
    /// geometric neighbors (orthogonal + diagonal at ~42.4 m).
    fn grid_engine(t: usize) -> DiscoveryEngine {
        grid_engine_in(t, 100.0)
    }

    /// Same grid in a larger field, leaving room for victims beyond the
    /// 2R safety radius of every grid node.
    fn grid_engine_in(t: usize, side: f64) -> DiscoveryEngine {
        let mut eng = DiscoveryEngine::new(
            Field::square(side),
            RadioSpec::uniform(50.0),
            ProtocolConfig::with_threshold(t),
            42,
        );
        for row in 0..3u64 {
            for col in 0..3u64 {
                eng.deploy_at(
                    n(row * 3 + col),
                    Point::new(20.0 + col as f64 * 30.0, 20.0 + row as f64 * 30.0),
                );
            }
        }
        eng
    }

    #[test]
    fn single_wave_benign_discovery() {
        let mut eng = grid_engine(0);
        let ids: Vec<NodeId> = (0..9).map(n).collect();
        let report = eng.run_wave(&ids);
        assert_eq!(report.rejected_records, 0);
        assert_eq!(report.rejected_commitments, 0);
        assert_eq!(report.malformed_frames, 0);

        // Every node ends operational with K erased.
        for id in &ids {
            let node = eng.node(*id).unwrap();
            assert_eq!(node.state(), NodeState::Operational);
            assert!(!node.holds_master_key());
        }

        // The center node (id 4) hears all 8 others (max distance ~42.4m).
        let center = eng.node(n(4)).unwrap();
        assert_eq!(center.tentative_neighbors().len(), 8);
        // t=0 needs 1 shared neighbor: with a 3x3 grid every pair shares
        // several, so all 8 validate.
        assert_eq!(center.functional_neighbors().len(), 8);
    }

    #[test]
    fn functional_topology_is_symmetric_in_benign_field() {
        let mut eng = grid_engine(0);
        let ids: Vec<NodeId> = (0..9).map(n).collect();
        eng.run_wave(&ids);
        let f = eng.functional_topology();
        for (u, v) in f.edges() {
            assert!(f.has_edge(v, u), "functional edge ({u},{v}) not mutual");
        }
    }

    #[test]
    fn threshold_too_high_rejects_everyone() {
        let mut eng = grid_engine(20);
        let ids: Vec<NodeId> = (0..9).map(n).collect();
        eng.run_wave(&ids);
        let f = eng.functional_topology();
        assert_eq!(f.edge_count(), 0);
        // Tentative edges still exist.
        assert!(eng.tentative_topology().edge_count() > 0);
    }

    #[test]
    fn two_wave_deployment_joins_via_commitments() {
        let mut eng = grid_engine(0);
        let first: Vec<NodeId> = (0..9).map(n).collect();
        eng.run_wave(&first);

        // Deploy a tenth node near the center.
        eng.deploy_at(n(9), Point::new(52.0, 52.0));
        eng.run_wave(&[n(9)]);

        let newbie = eng.node(n(9)).unwrap();
        assert_eq!(newbie.state(), NodeState::Operational);
        assert!(
            !newbie.functional_neighbors().is_empty(),
            "new node must validate old neighbors"
        );
        // Old nodes accepted the newcomer through its relation commitment.
        let f = eng.functional_topology();
        for &v in newbie.functional_neighbors() {
            assert!(f.has_edge(v, n(9)), "{v} should have accepted n9");
        }
    }

    #[test]
    fn compromise_requires_operational_state() {
        let mut eng = grid_engine(0);
        eng.deploy_at(n(50), Point::new(10.0, 10.0));
        // Not yet discovered: trust window conceptually open.
        assert!(matches!(
            eng.compromise(n(50)),
            Err(ProtocolError::WrongState { .. })
        ));
        assert!(matches!(
            eng.compromise(n(99)),
            Err(ProtocolError::UnknownNode { .. })
        ));
    }

    #[test]
    fn window_violation_leaks_master_key() {
        let mut eng = grid_engine(0);
        eng.deploy_at(n(50), Point::new(10.0, 10.0));
        eng.compromise_violating_window(n(50)).unwrap();
        assert!(eng.adversary().has_total_break());
    }

    #[test]
    fn replica_requires_compromise_first() {
        let mut eng = grid_engine(0);
        let ids: Vec<NodeId> = (0..9).map(n).collect();
        eng.run_wave(&ids);
        assert!(eng.place_replica(n(0), Point::new(90.0, 90.0)).is_err());
        eng.compromise(n(0)).unwrap();
        eng.place_replica(n(0), Point::new(90.0, 90.0)).unwrap();
        assert_eq!(eng.adversary().replicas_of(n(0)).len(), 1);
    }

    #[test]
    fn replica_attack_is_blocked_by_threshold() {
        // One compromised node replicated across the field cannot fool a
        // new node far from its original neighborhood: the binding record
        // is unforgeable and shares no neighbors with the victim.
        let mut eng = grid_engine(0);
        let ids: Vec<NodeId> = (0..9).map(n).collect();
        eng.run_wave(&ids);

        eng.compromise(n(0)).unwrap(); // corner node at (20, 20)
        eng.place_replica(n(0), Point::new(95.0, 95.0)).unwrap();

        // Victim deployed far from n0's original spot but near the replica.
        eng.deploy_at(n(9), Point::new(97.0, 97.0));
        let report = eng.run_wave(&[n(9)]);

        let victim = eng.node(n(9)).unwrap();
        assert!(
            victim.tentative_neighbors().contains(&n(0)),
            "direct verification is fooled by the replica"
        );
        assert!(
            !victim.functional_neighbors().contains(&n(0)),
            "threshold validation must reject the replica"
        );
        assert_eq!(
            report.rejected_records, 0,
            "record replays authenticate fine"
        );
    }

    #[test]
    fn sybil_identities_are_tentative_but_never_functional() {
        // One compromised radio claims k fabricated IDs. At honest
        // density the fakes answer Hellos through the real radio fabric
        // (k tentative identities at the victim), but their forged
        // binding records can never authenticate, so the paper's rule
        // leaves zero functional edges to any fabricated identity.
        let k = 3;
        let fakes = [n(100), n(101), n(102)];
        let mut eng = grid_engine(1);
        let ids: Vec<NodeId> = (0..9).map(n).collect();
        eng.run_wave(&ids);

        eng.compromise(n(4)).unwrap(); // center node at (50, 50)
        eng.claim_sybil_identities(n(4), &fakes).unwrap();
        assert_eq!(eng.adversary().sybil_ids().len(), k);

        eng.deploy_at(n(9), Point::new(52.0, 52.0));
        let report = eng.run_wave(&[n(9)]);

        let victim = eng.node(n(9)).unwrap();
        let tentative_fakes: Vec<NodeId> = victim
            .tentative_neighbors()
            .iter()
            .copied()
            .filter(|id| eng.adversary().sybil_owner(*id).is_some())
            .collect();
        assert_eq!(
            tentative_fakes, fakes,
            "k claimed IDs must yield exactly k tentative identities"
        );
        assert!(
            report.rejected_records >= k as u64,
            "each fabricated record must flow through collect and fail \
             authentication (rejected {})",
            report.rejected_records
        );
        for (idx, node) in eng.nodes.iter().enumerate() {
            let Some(node) = node else { continue };
            for &v in node.functional_neighbors() {
                assert!(
                    eng.adversary().sybil_owner(v).is_none(),
                    "node {idx} accepted a functional edge to sybil {v}"
                );
            }
        }
    }

    #[test]
    fn sybil_claims_are_guarded() {
        let mut eng = grid_engine(0);
        let ids: Vec<NodeId> = (0..9).map(n).collect();
        eng.run_wave(&ids);
        // Owner must be a compromised node.
        assert!(matches!(
            eng.claim_sybil_identities(n(0), &[n(100)]),
            Err(ProtocolError::UnknownNode { .. })
        ));
        eng.compromise(n(0)).unwrap();
        // Fabricated IDs must be unused.
        assert!(matches!(
            eng.claim_sybil_identities(n(0), &[n(1)]),
            Err(ProtocolError::WrongState { .. })
        ));
        eng.claim_sybil_identities(n(0), &[n(100)]).unwrap();
        // A sybil identity cannot claim further identities…
        assert!(matches!(
            eng.claim_sybil_identities(n(100), &[n(101)]),
            Err(ProtocolError::UnknownNode { .. })
        ));
        // …and an already claimed identity cannot be re-claimed.
        assert!(matches!(
            eng.claim_sybil_identities(n(0), &[n(100)]),
            Err(ProtocolError::WrongState { .. })
        ));
    }

    #[test]
    fn far_link_needs_compromised_colluders_and_dv_blocks_it() {
        // Two compromised radios in opposite corners collude over a
        // planted far link. Direct verification measures the stretched
        // path, so victims near one colluder never assert tentative
        // relations with identities across the tunnel; switching DV off
        // (the Parno baselines' position) lets the wormhole through.
        let run = |direct_verification: bool| {
            let mut eng = grid_engine_in(0, 300.0);
            eng.direct_verification = direct_verification;
            let ids: Vec<NodeId> = (0..9).map(n).collect();
            eng.run_wave(&ids);
            // A remote cluster around (270, 270), out of radio reach.
            for (i, (dx, dy)) in [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0)].iter().enumerate() {
                eng.deploy_at(n(20 + i as u64), Point::new(250.0 + dx, 250.0 + dy));
            }
            eng.run_wave(&[n(20), n(21), n(22)]);
            assert!(eng.plant_far_link(n(0), n(20)).is_err(), "not compromised");
            eng.compromise(n(0)).unwrap();
            eng.compromise(n(20)).unwrap();
            eng.plant_far_link(n(0), n(20)).unwrap();
            assert_eq!(eng.adversary().far_links(), &[(n(0), n(20))]);
            // A fresh victim next to colluder n0 runs discovery; its
            // Hello crosses the tunnel, and remote identities answer.
            eng.deploy_at(n(9), Point::new(22.0, 22.0));
            eng.run_wave(&[n(9)]);
            let victim = eng.node(n(9)).unwrap();
            victim
                .tentative_neighbors()
                .iter()
                .any(|&v| v == n(21) || v == n(22))
        };
        assert!(
            !run(true),
            "direct verification must reject tunnel-stretched relations"
        );
        assert!(
            run(false),
            "without direct verification the far link plants remote relations"
        );
    }

    #[test]
    fn total_break_defeats_validation() {
        // If the attacker captures K (deployment assumption violated), the
        // forged records share every neighbor and the replica is accepted.
        let mut eng = grid_engine(0);
        let ids: Vec<NodeId> = (0..9).map(n).collect();
        eng.run_wave(&ids);

        eng.compromise_violating_window(n(0)).unwrap();
        // n0 finished discovery before being compromised here, so the
        // master key was NOT captured; force the violation by compromising
        // a provisioned-but-undiscovered node instead.
        eng.deploy_at(n(70), Point::new(5.0, 5.0));
        eng.compromise_violating_window(n(70)).unwrap();
        assert!(eng.adversary().has_total_break());
        let mut behavior = crate::adversary::AdversaryBehavior::aggressive();
        behavior.request_updates = false;
        eng.adversary_mut().set_behavior(behavior);

        eng.place_replica(n(70), Point::new(95.0, 95.0)).unwrap();
        eng.deploy_at(n(9), Point::new(97.0, 97.0));
        eng.run_wave(&[n(9)]);

        let victim = eng.node(n(9)).unwrap();
        assert!(
            victim.functional_neighbors().contains(&n(70)),
            "with the stolen master key the forged record must pass"
        );
    }

    #[test]
    fn collusion_beyond_threshold_succeeds() {
        // c compromised mutual neighbors replicated together defeat
        // threshold t when c - 1 >= t + 1 (Theorem 3's boundary).
        let t = 1usize;
        let c = t + 2; // 3 compromised: overlap c-1 = 2 = t+1 → accepted
                       // Victim placed far beyond 2R of every colluder's neighborhood, so
                       // only the collusion itself can produce overlap.
        let mut eng = grid_engine_in(t, 300.0);
        let ids: Vec<NodeId> = (0..9).map(n).collect();
        eng.run_wave(&ids);

        // Compromise nodes 0, 1, 3 (corner cluster: mutually tentative).
        for &id in &[n(0), n(1), n(3)][..c] {
            eng.compromise(id).unwrap();
            eng.place_replica(id, Point::new(278.0, 278.0)).unwrap();
        }
        eng.deploy_at(n(9), Point::new(280.0, 280.0));
        eng.run_wave(&[n(9)]);

        let victim = eng.node(n(9)).unwrap();
        assert!(
            victim.functional_neighbors().contains(&n(0)),
            "collusion past the threshold must defeat validation"
        );
    }

    #[test]
    fn collusion_within_threshold_fails() {
        // With t = 2, three colluders give overlap 2 < t + 1 = 3: rejected.
        let t = 2usize;
        let mut eng = grid_engine_in(t, 300.0);
        let ids: Vec<NodeId> = (0..9).map(n).collect();
        eng.run_wave(&ids);

        for &id in &[n(0), n(1), n(3)] {
            eng.compromise(id).unwrap();
            eng.place_replica(id, Point::new(278.0, 278.0)).unwrap();
        }
        eng.deploy_at(n(9), Point::new(280.0, 280.0));
        eng.run_wave(&[n(9)]);

        let victim = eng.node(n(9)).unwrap();
        for &id in &[n(0), n(1), n(3)] {
            assert!(
                !victim.functional_neighbors().contains(&id),
                "{id} must be rejected when colluders <= t"
            );
        }
    }

    #[test]
    fn messages_are_counted() {
        let mut eng = grid_engine(0);
        let ids: Vec<NodeId> = (0..9).map(n).collect();
        eng.run_wave(&ids);
        let totals = eng.sim().metrics().totals();
        assert_eq!(totals.broadcasts_sent, 9, "one Hello per node");
        assert!(totals.unicasts_sent > 0);
        assert!(eng.hash_ops() > 0);
    }

    #[test]
    fn legacy_wave_reports_no_reliability_activity() {
        let mut eng = grid_engine(0);
        let ids: Vec<NodeId> = (0..9).map(n).collect();
        let report = eng.run_wave(&ids);
        assert_eq!(report.retransmissions, 0);
        assert_eq!(report.acks_received, 0);
        assert_eq!(report.duplicates_ignored, 0);
        assert_eq!(report.timed_out_phases, 0);
        assert!(report.unconfirmed_links.is_empty());
    }

    #[test]
    fn reliable_wave_on_a_clean_channel_matches_legacy_topology() {
        let mut legacy = grid_engine(0);
        let mut reliable = grid_engine(0);
        reliable.set_reliability(ReliabilityConfig::default());
        let ids: Vec<NodeId> = (0..9).map(n).collect();
        legacy.run_wave(&ids);
        let report = reliable.run_wave(&ids);
        assert_eq!(
            legacy.functional_topology(),
            reliable.functional_topology(),
            "ARQ must be invisible on a lossless channel"
        );
        assert!(report.unconfirmed_links.is_empty());
        assert_eq!(report.timed_out_phases, 0);
        // Every commitment/evidence unicast was acknowledged.
        assert!(report.acks_received > 0);
    }

    #[test]
    fn reliable_wave_converges_through_heavy_loss() {
        use snd_sim::faults::{FaultPlan, FaultSpec};
        let mut eng = grid_engine(0);
        eng.set_reliability(ReliabilityConfig::default());
        let spec = FaultSpec {
            loss: 0.3,
            ..FaultSpec::default()
        };
        eng.sim_mut().set_fault_plan(FaultPlan::new(spec, 7));
        let ids: Vec<NodeId> = (0..9).map(n).collect();
        let report = eng.run_wave(&ids);
        assert!(report.retransmissions > 0, "loss must force resends");
        assert!(report.acks_received > 0);
        assert!(
            report.unconfirmed_links.is_empty(),
            "30% loss is well within the default retry budget: {:?}",
            report.unconfirmed_links
        );
        // Full convergence: the center node validates all 8 neighbors.
        let center = eng.node(n(4)).unwrap();
        assert_eq!(center.functional_neighbors().len(), 8);
        for id in &ids {
            assert_eq!(eng.node(*id).unwrap().state(), NodeState::Operational);
        }
    }

    #[test]
    fn blacked_out_collect_phase_degrades_gracefully() {
        use snd_sim::faults::{FaultPlan, FaultSpec, LossBurst};
        use snd_sim::time::SimTime;
        let mut eng = grid_engine(0);
        // One Hello round keeps the phase clock simple: Hellos and acks
        // are all settled by t = 4 ms; everything after is blacked out.
        eng.set_reliability(ReliabilityConfig {
            enabled: true,
            retry_budget: 2,
            hello_rounds: 1,
            base_backoff: SimDuration::from_millis(4),
            max_backoff: SimDuration::from_millis(8),
            phase_timeout: SimDuration::from_millis(100),
        });
        let spec = FaultSpec {
            bursts: vec![LossBurst {
                from: SimTime::from_millis(4),
                until: SimTime::from_micros(u64::MAX),
                loss: 1.0,
            }],
            ..FaultSpec::default()
        };
        eng.sim_mut().set_fault_plan(FaultPlan::new(spec, 3));
        let ids: Vec<NodeId> = (0..9).map(n).collect();
        let report = eng.run_wave(&ids);

        // The wave must terminate (not stall) and name what it lost.
        assert!(report.timed_out_phases >= 1, "collect must time out");
        assert!(
            !report.unconfirmed_links.is_empty(),
            "every uncollected record is an unconfirmed link"
        );
        for id in &ids {
            let node = eng.node(*id).unwrap();
            // Tentative topology survived (hello phase was clean)...
            assert!(!node.tentative_neighbors().is_empty());
            // ...but nothing validated, and the node still finished its
            // lifecycle: operational, master key erased.
            assert!(node.functional_neighbors().is_empty());
            assert_eq!(node.state(), NodeState::Operational);
            assert!(!node.holds_master_key());
        }
    }

    #[test]
    fn duplicated_frames_do_not_double_count() {
        use snd_sim::faults::{FaultPlan, FaultSpec};
        let mut clean = grid_engine(0);
        let mut dup = grid_engine(0);
        // Every frame duplicated, receiver-side dedup disabled: the raw
        // duplicates reach the protocol, which must stay idempotent.
        let spec = FaultSpec {
            duplicate: 1.0,
            dedup_window: 0,
            ..FaultSpec::default()
        };
        dup.sim_mut().set_fault_plan(FaultPlan::new(spec, 11));
        let ids: Vec<NodeId> = (0..9).map(n).collect();
        clean.run_wave(&ids);
        let report = dup.run_wave(&ids);
        assert!(report.duplicates_ignored > 0, "re-deliveries recognized");
        assert_eq!(report.rejected_records, 0);
        assert_eq!(report.rejected_commitments, 0);
        assert_eq!(
            clean.functional_topology(),
            dup.functional_topology(),
            "duplicate delivery must not change the outcome"
        );
    }

    #[test]
    fn ledger_bills_traffic_to_engine_phases() {
        let mut eng = grid_engine(0);
        let ids: Vec<NodeId> = (0..9).map(n).collect();
        eng.run_wave(&ids);
        let ledger = eng.sim().ledger();
        // Commit sends nothing and update has no old-node contacts in a
        // first wave, so exactly three phases carry traffic.
        let phases: Vec<&str> = ledger.phases().map(|(p, _)| p).collect();
        assert_eq!(phases, ["hello", "collect", "finalize"]);
        // Ledger message counters mirror the transport metrics (E9).
        let totals = eng.sim().metrics().totals();
        assert_eq!(
            ledger.totals().tx_msgs,
            totals.unicasts_sent + totals.broadcasts_sent
        );
        assert_eq!(ledger.totals().tx_bytes, totals.bytes_sent);
        assert_eq!(ledger.totals().rx_msgs, totals.received);
        // Every kind the wave uses shows up in the cube.
        let kinds: Vec<&str> = ledger.kinds().iter().map(|(k, _)| *k).collect();
        assert!(kinds.contains(&"hello"));
        assert!(kinds.contains(&"hello_ack"));
        assert!(kinds.contains(&"record_request"));
        assert!(kinds.contains(&"record_reply"));
        assert!(kinds.contains(&"relation_commit"));
    }

    #[test]
    fn causal_parents_chain_hello_to_commitment() {
        use snd_observe::recorder::MemoryRecorder;
        let mut eng = grid_engine(0);
        eng.set_reliability(ReliabilityConfig::default());
        let rec = MemoryRecorder::shared();
        eng.set_recorder(Arc::clone(&rec) as Arc<dyn Recorder>);
        let ids: Vec<NodeId> = (0..9).map(n).collect();
        eng.run_wave(&ids);

        let sent: BTreeMap<u64, (Option<u64>, &str)> = rec
            .snapshot()
            .iter()
            .filter_map(|r| match &r.event {
                Event::MsgSent {
                    id, parent, kind, ..
                } => Some((*id, (*parent, *kind))),
                _ => None,
            })
            .collect();
        assert!(!sent.is_empty());
        // Every cited parent resolves to a recorded send: no dangling ids.
        for (id, (parent, kind)) in &sent {
            if let Some(p) = parent {
                assert!(sent.contains_key(p), "dangling parent {p} of {id} ({kind})");
            }
        }
        // Walk a relation commitment's ancestry: it must pass through the
        // record exchange and bottom out at a root hello broadcast.
        let mut verified = 0;
        for (parent, kind) in sent.values() {
            if *kind != "reliable.relation_commit" {
                continue;
            }
            let mut chain = Vec::new();
            let mut cur = *parent;
            while let Some(p) = cur {
                let (next, k) = sent[&p];
                chain.push(k);
                cur = next;
            }
            assert!(chain.contains(&"record_reply"), "chain {chain:?}");
            assert!(chain.contains(&"record_request"), "chain {chain:?}");
            assert_eq!(chain.last(), Some(&"hello"), "chain {chain:?}");
            verified += 1;
        }
        assert!(verified > 0, "wave must commit at least one relation");
        // Acks parent the reliable envelope they confirm.
        let ack_parents_resolve = sent
            .values()
            .filter(|(_, kind)| *kind == "ack")
            .all(|(parent, _)| parent.is_some_and(|p| sent[&p].1.starts_with("reliable")));
        assert!(ack_parents_resolve);
    }

    #[test]
    fn retransmissions_cite_their_originals() {
        use snd_observe::recorder::MemoryRecorder;
        use snd_sim::faults::{FaultPlan, FaultSpec};
        let mut eng = grid_engine(0);
        eng.set_reliability(ReliabilityConfig::default());
        let spec = FaultSpec {
            loss: 0.3,
            ..FaultSpec::default()
        };
        eng.sim_mut().set_fault_plan(FaultPlan::new(spec, 7));
        let rec = MemoryRecorder::shared();
        eng.set_recorder(Arc::clone(&rec) as Arc<dyn Recorder>);
        let ids: Vec<NodeId> = (0..9).map(n).collect();
        let report = eng.run_wave(&ids);
        assert!(report.retransmissions > 0);

        let sent: BTreeMap<u64, (Option<u64>, &str, bool)> = rec
            .snapshot()
            .iter()
            .filter_map(|r| match &r.event {
                Event::MsgSent {
                    id,
                    parent,
                    kind,
                    retransmission,
                    ..
                } => Some((*id, (*parent, *kind, *retransmission))),
                _ => None,
            })
            .collect();
        let retx: Vec<_> = sent.values().filter(|(_, _, r)| *r).collect();
        assert_eq!(
            retx.len() as u64,
            report.retransmissions,
            "every reported resend is a flagged ledger send"
        );
        for (parent, kind, _) in &retx {
            let p = parent.expect("retransmissions cite an original");
            let (_, orig_kind, orig_retx) = sent[&p];
            assert_eq!(*kind, orig_kind, "resend repeats its original's kind");
            assert!(!orig_retx, "the cited original is not itself a resend");
        }
        assert_eq!(
            eng.sim().ledger().totals().retransmissions,
            report.retransmissions
        );
    }

    #[test]
    fn key_cache_cuts_hash_ops_under_redelivery() {
        use snd_sim::faults::{FaultPlan, FaultSpec};
        let spec = FaultSpec {
            duplicate: 1.0,
            dedup_window: 0,
            ..FaultSpec::default()
        };
        let run = |cache: bool| {
            let mut eng = grid_engine(0);
            eng.set_key_cache(cache);
            eng.sim_mut()
                .set_fault_plan(FaultPlan::new(spec.clone(), 13));
            let ids: Vec<NodeId> = (0..9).map(n).collect();
            eng.run_wave(&ids);
            (
                eng.hash_ops(),
                eng.key_cache_hits(),
                eng.functional_topology(),
            )
        };
        let (ops_on, hits_on, topo_on) = run(true);
        let (ops_off, hits_off, topo_off) = run(false);
        assert_eq!(topo_on, topo_off, "memoization must not change results");
        assert_eq!(hits_off, 0);
        assert!(hits_on > 0, "duplicated commitments must hit the memo");
        assert!(
            ops_on < ops_off,
            "cache on must hash strictly less: {ops_on} vs {ops_off}"
        );
    }

    #[test]
    fn mem_table_samples_every_phase_and_shows_finalize_hygiene() {
        // Fast-erase mode: the neighbor-key cache is populated at commit
        // time (it replaces the master key), so its weight is visible to
        // the sampler until finalize clears it.
        let mut eng = DiscoveryEngine::new(
            Field::square(100.0),
            RadioSpec::uniform(50.0),
            ProtocolConfig::with_threshold(0).with_fast_erase(),
            42,
        );
        for row in 0..3u64 {
            for col in 0..3u64 {
                eng.deploy_at(
                    n(row * 3 + col),
                    Point::new(20.0 + col as f64 * 30.0, 20.0 + row as f64 * 30.0),
                );
            }
        }
        let ids: Vec<NodeId> = (0..9).map(n).collect();
        eng.run_wave(&ids);
        let cells = eng.mem_table().cells();
        for sub in [
            "nodes",
            "key_cache",
            "envelope_pool",
            "inboxes",
            "ledger",
            "recorder",
        ] {
            for phase in ["provision", "hello", "commit", "collect", "finalize"] {
                assert!(cells.contains_key(&(sub, phase)), "missing {sub}/{phase}");
            }
        }
        // Mid-wave the nodes hold collected records and cached neighbor
        // keys; transport state is visibly nonzero.
        let nodes_collect = cells[&("nodes", "collect")];
        let keys_collect = cells[&("key_cache", "collect")];
        assert!(nodes_collect > 0, "collected records must weigh something");
        assert!(keys_collect > 0, "neighbor-key cache must weigh something");
        assert!(cells[&("inboxes", "hello")] > 0, "inbox peak must register");
        assert!(cells[&("ledger", "hello")] > 0);
        // Section 4.3 storage hygiene at the finalize boundary: the
        // per-wave collected stores and the neighbor-key cache are
        // dropped, so both subsystems must shrink from their collect-time
        // footprint.
        let nodes_final = cells[&("nodes", "finalize")];
        let keys_final = cells[&("key_cache", "finalize")];
        assert!(
            nodes_final < nodes_collect,
            "finalize must shed collected records: {nodes_final} vs {nodes_collect}"
        );
        assert!(
            keys_final < keys_collect,
            "finalize must shed the key cache: {keys_final} vs {keys_collect}"
        );
    }

    #[test]
    fn mem_table_is_identical_across_reruns() {
        let run = || {
            let mut eng = grid_engine(1);
            let ids: Vec<NodeId> = (0..9).map(n).collect();
            eng.run_wave(&ids);
            eng.mem_table().cells()
        };
        assert_eq!(run(), run(), "tier-1 sampling must be deterministic");
    }
}
