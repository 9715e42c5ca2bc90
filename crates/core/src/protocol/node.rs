//! Per-node protocol state machine.
//!
//! A [`ProtocolNode`] walks through the lifecycle of Figure 2:
//!
//! 1. **Initialized** — pre-loaded with the master key `K`, verification key
//!    `K_u` computed, record empty.
//! 2. **Discovering** — hearing HelloAcks: building the tentative list.
//! 3. **Committed** — `N(u)` frozen into the binding record
//!    `C(u) = H(K ‖ N(u) ‖ u)`; now collecting and authenticating the
//!    binding records of its tentative neighbors.
//! 4. **Operational** — functional neighbors chosen by the threshold rule,
//!    relation commitments issued, **K erased**. From here the node can only
//!    listen for commitments/evidence and participate in the Section 4.4
//!    update flow.
//!
//! All methods are pure protocol logic; transport is the engine's job.

use std::collections::{BTreeMap, BTreeSet};

use rand::RngCore;

use snd_crypto::erasure::ErasableKey;
use snd_crypto::keys::SymmetricKey;
use snd_crypto::sha256::Digest;
use snd_observe::mem::{btree_entries_bytes, slice_bytes, HeapSize};
use snd_sim::metrics::HashCounter;
use snd_topology::NodeId;

use super::commitments::{record_key, relation_commitment, verification_key};
use super::config::ProtocolConfig;
use super::records::{BindingRecord, RelationEvidence};
use crate::errors::ProtocolError;

/// Lifecycle state of a protocol node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Pre-loaded with `K`, has not started discovery.
    Initialized,
    /// Inside the deployment trust window, collecting tentative neighbors.
    Discovering,
    /// Tentative list committed; collecting neighbors' binding records.
    Committed,
    /// Discovery finished, master key erased.
    Operational,
}

/// Everything an attacker obtains by physically compromising a node.
#[derive(Debug, Clone)]
pub struct CapturedState {
    /// The node's identity.
    pub id: NodeId,
    /// Its binding record (replayable but unforgeable).
    pub record: BindingRecord,
    /// Its verification key `K_u` (lets the attacker *accept* commitments).
    pub verification_key: SymmetricKey,
    /// Its functional neighbor list.
    pub functional: BTreeSet<NodeId>,
    /// The master key, **only** if the node was captured inside its trust
    /// window (a deployment-security violation).
    pub master_key: Option<SymmetricKey>,
    /// In the fast-erasure variant, the *neighbor record keys* cached
    /// between commit and finalize. A mid-discovery capture leaks these —
    /// a local break (forge this neighborhood's records) instead of the
    /// baseline's global one.
    pub neighbor_record_keys: BTreeMap<NodeId, SymmetricKey>,
    /// Buffered evidence (lets the attacker request record updates).
    pub evidence: Vec<RelationEvidence>,
}

/// Which neighbor-key derivation a cache entry memoizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum KeyScheme {
    /// Record keys `RK_v` (fast-erasure record authentication).
    Record,
    /// Verification keys `K_v` (relation commitments).
    Verification,
}

/// Per-node cache of derived neighbor keys, keyed by `(scheme, neighbor)`.
///
/// Two roles share the map: the fast-erasure variant *stashes* the
/// protocol-mandated neighbor keys here at commit time (mandatory state —
/// the master key is gone afterwards), and recomputable derivations are
/// *memoized* through [`KeyCache::get_or_derive`], which is what the
/// `hits` counter measures (each hit is one avoided hash derivation).
#[derive(Debug)]
struct KeyCache {
    map: BTreeMap<(KeyScheme, NodeId), SymmetricKey>,
    hits: u64,
    enabled: bool,
}

impl Default for KeyCache {
    fn default() -> Self {
        KeyCache {
            map: BTreeMap::new(),
            hits: 0,
            enabled: true,
        }
    }
}

impl KeyCache {
    /// Memoized derivation: returns the cached key or derives-and-stores.
    /// With memoization disabled this always derives (legacy behavior).
    fn get_or_derive(
        &mut self,
        scheme: KeyScheme,
        peer: NodeId,
        derive: impl FnOnce() -> SymmetricKey,
    ) -> SymmetricKey {
        if !self.enabled {
            return derive();
        }
        if let Some(k) = self.map.get(&(scheme, peer)) {
            self.hits += 1;
            return k.clone();
        }
        let k = derive();
        self.map.insert((scheme, peer), k.clone());
        k
    }

    /// Stores a protocol-mandated key unconditionally (fast erasure).
    fn stash(&mut self, scheme: KeyScheme, peer: NodeId, key: SymmetricKey) {
        self.map.insert((scheme, peer), key);
    }

    /// Looks up a stored key without touching the hit counter.
    fn get(&self, scheme: KeyScheme, peer: NodeId) -> Option<&SymmetricKey> {
        self.map.get(&(scheme, peer))
    }

    /// Destroys every cached key (entries zeroize on drop).
    fn clear(&mut self) {
        self.map.clear();
    }
}

/// A sensor node running the localized neighbor-validation protocol.
#[derive(Debug)]
pub struct ProtocolNode {
    id: NodeId,
    state: NodeState,
    config: ProtocolConfig,
    master: ErasableKey,
    verification_key: SymmetricKey,
    record: BindingRecord,
    /// Tentative neighbors asserted by the direct-verification layer.
    tentative: BTreeSet<NodeId>,
    /// Authenticated binding records collected after commit (dropped when
    /// discovery finalizes, per the paper's storage argument).
    collected: BTreeMap<NodeId, BindingRecord>,
    functional: BTreeSet<NodeId>,
    /// Evidence addressed to this node, buffered for future updates.
    evidence: Vec<RelationEvidence>,
    /// Neighbor keys: the fast-erasure neighbor-key stash (derived at
    /// commit, destroyed at finalize) plus memoized derivations.
    keys: KeyCache,
    /// Memoized expected relation commitments `H(K_u ‖ from)`, keyed by
    /// issuer. Derived solely from this node's own permanent verification
    /// key, so retaining them indefinitely leaks nothing the key itself
    /// doesn't; duplicate/retransmitted commitments then verify without
    /// re-hashing.
    commit_memo: BTreeMap<NodeId, Digest>,
}

/// One threshold-validation judgement made while finalizing discovery:
/// how a collected binding record fared against the `t + 1` rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationOutcome {
    /// The tentative neighbor whose record was judged.
    pub peer: NodeId,
    /// Shared tentative neighbors found (`|N(u) ∩ N(v)|`).
    pub shared: usize,
    /// Overlap needed to accept (`t + 1`).
    pub required: usize,
    /// Whether the peer became a functional neighbor.
    pub accepted: bool,
}

/// The outbound messages a node produces when it finalizes discovery.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveryOutput {
    /// `(v, C(u, v))` relation commitments for every functional neighbor.
    pub commitments: Vec<(NodeId, Digest)>,
    /// Evidence for old tentative neighbors whose records predate this node.
    pub evidence: Vec<RelationEvidence>,
    /// The validation judgement for every collected record, in id order.
    pub decisions: Vec<ValidationOutcome>,
}

impl ProtocolNode {
    /// Provisions a node before deployment: installs the master key,
    /// derives `K_u`, starts with an empty binding record.
    pub fn provision(
        id: NodeId,
        master: &SymmetricKey,
        config: ProtocolConfig,
        ops: &HashCounter,
    ) -> Self {
        let verification_key = verification_key(master, id, ops);
        let record = BindingRecord::create(master, id, 0, BTreeSet::new(), ops);
        ProtocolNode {
            id,
            state: NodeState::Initialized,
            config,
            master: ErasableKey::with_passes(master.clone(), config.erase_passes),
            verification_key,
            record,
            tentative: BTreeSet::new(),
            collected: BTreeMap::new(),
            functional: BTreeSet::new(),
            evidence: Vec::new(),
            keys: KeyCache::default(),
            commit_memo: BTreeMap::new(),
        }
    }

    /// Enables or disables key/commitment memoization. The fast-erasure
    /// neighbor-key stash is protocol state and unaffected; this switch
    /// only controls whether *recomputable* derivations are cached.
    pub fn set_key_cache(&mut self, enabled: bool) {
        self.keys.enabled = enabled;
    }

    /// Hash derivations avoided so far by the memoization cache.
    pub fn key_cache_hits(&self) -> u64 {
        self.keys.hits
    }

    /// The node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current lifecycle state.
    pub fn state(&self) -> NodeState {
        self.state
    }

    /// Whether the master key is still present (trust window open).
    pub fn holds_master_key(&self) -> bool {
        self.master.is_live()
    }

    /// The node's current binding record.
    pub fn record(&self) -> &BindingRecord {
        &self.record
    }

    /// The functional neighbor list `N̄(u)`.
    pub fn functional_neighbors(&self) -> &BTreeSet<NodeId> {
        &self.functional
    }

    /// The tentative neighbor list `N(u)`.
    pub fn tentative_neighbors(&self) -> &BTreeSet<NodeId> {
        &self.tentative
    }

    /// Evidence buffered for a future record update.
    pub fn buffered_evidence(&self) -> &[RelationEvidence] {
        &self.evidence
    }

    /// The buffered evidence still usable for an update: tokens bound to
    /// the *current* record version. Evidence issued against an older
    /// version is stale (the paper's updater checks that "the version
    /// numbers included in R(v) \[are\] consistent with every relation
    /// evidence") and would poison the request.
    pub fn usable_evidence(&self) -> Vec<RelationEvidence> {
        self.evidence
            .iter()
            .filter(|ev| ev.version == self.record.version)
            .cloned()
            .collect()
    }

    /// Enters the discovery phase.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongState`] unless the node is `Initialized`.
    pub fn begin_discovery(&mut self) -> Result<(), ProtocolError> {
        if self.state != NodeState::Initialized {
            return Err(ProtocolError::WrongState {
                operation: "begin_discovery",
            });
        }
        self.state = NodeState::Discovering;
        Ok(())
    }

    /// Records a direct-verification assertion that `peer` is a tentative
    /// neighbor (a HelloAck arrived).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongState`] unless discovering.
    pub fn add_tentative(&mut self, peer: NodeId) -> Result<(), ProtocolError> {
        if self.state != NodeState::Discovering {
            return Err(ProtocolError::WrongState {
                operation: "add_tentative",
            });
        }
        if peer != self.id {
            self.tentative.insert(peer);
        }
        Ok(())
    }

    /// Freezes the tentative list `N(u)` into the binding record
    /// `R(u) = {0, N(u), C(u)}`. The paper performs this *before* record
    /// collection: "After node u discovers N(u), it generates the
    /// commitment C(u)".
    ///
    /// In the fast-erasure variant this is also the moment the master key
    /// dies: the node derives its own record key, its neighbors' record and
    /// verification keys, and erases `K` — everything later in the protocol
    /// runs off the cached per-node keys.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongState`] unless discovering;
    /// [`ProtocolError::MasterKeyErased`] if `K` is gone.
    pub fn commit_record<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        ops: &HashCounter,
    ) -> Result<(), ProtocolError> {
        if self.state != NodeState::Discovering {
            return Err(ProtocolError::WrongState {
                operation: "commit_record",
            });
        }
        let master = self
            .master
            .get()
            .map_err(|_| ProtocolError::MasterKeyErased)?
            .clone();
        if self.config.fast_erase {
            let rk_self = record_key(&master, self.id, ops);
            self.record = BindingRecord::create(&rk_self, self.id, 0, self.tentative.clone(), ops);
            for &v in &self.tentative {
                self.keys
                    .stash(KeyScheme::Record, v, record_key(&master, v, ops));
                self.keys.stash(
                    KeyScheme::Verification,
                    v,
                    verification_key(&master, v, ops),
                );
            }
            // The whole point: K dies here, before any record arrives.
            self.master.erase(rng);
        } else {
            self.record = BindingRecord::create(&master, self.id, 0, self.tentative.clone(), ops);
        }
        self.state = NodeState::Committed;
        Ok(())
    }

    /// Authenticates and stores a tentative neighbor's binding record.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::WrongState`] unless committed.
    /// * [`ProtocolError::NotTentativeNeighbor`] for records from strangers.
    /// * [`ProtocolError::RecordAuthFailed`] when the commitment does not
    ///   verify under `K` — a forged record.
    /// * [`ProtocolError::MasterKeyErased`] if `K` is gone (cannot happen
    ///   in the honest state machine; defends against misuse).
    pub fn accept_record(
        &mut self,
        record: BindingRecord,
        ops: &HashCounter,
    ) -> Result<(), ProtocolError> {
        if self.state != NodeState::Committed {
            return Err(ProtocolError::WrongState {
                operation: "accept_record",
            });
        }
        if !self.tentative.contains(&record.node) {
            return Err(ProtocolError::NotTentativeNeighbor { peer: record.node });
        }
        let authentic = if self.config.fast_erase {
            let rk = self
                .keys
                .get(KeyScheme::Record, record.node)
                .ok_or(ProtocolError::NotTentativeNeighbor { peer: record.node })?;
            record.verify(rk, ops)
        } else {
            let master = self
                .master
                .get()
                .map_err(|_| ProtocolError::MasterKeyErased)?;
            record.verify(master, ops)
        };
        if !authentic {
            return Err(ProtocolError::RecordAuthFailed {
                claimed: record.node,
            });
        }
        self.collected.insert(record.node, record);
        Ok(())
    }

    /// Whether a binding record from `peer` has already been collected
    /// (and authenticated) this wave. Lets the transport layer drop
    /// re-delivered records without paying the verification hashes again.
    pub fn has_collected(&self, peer: NodeId) -> bool {
        self.collected.contains_key(&peer)
    }

    /// Tentative neighbors whose binding records are still missing, in id
    /// order. Empty unless the node is `Committed` (before commit nothing
    /// is expected; after finalize nothing is retained).
    pub fn missing_records(&self) -> Vec<NodeId> {
        if self.state != NodeState::Committed {
            return Vec::new();
        }
        self.tentative
            .iter()
            .copied()
            .filter(|v| !self.collected.contains_key(v))
            .collect()
    }

    /// Completes discovery: selects functional neighbors by the `t + 1`
    /// overlap rule over the collected records, produces relation
    /// commitments and (optionally) evidence, and **erases the master key**.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongState`] unless committed.
    pub fn finalize_discovery<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        ops: &HashCounter,
    ) -> Result<DiscoveryOutput, ProtocolError> {
        if self.state != NodeState::Committed {
            return Err(ProtocolError::WrongState {
                operation: "finalize_discovery",
            });
        }
        let master = if self.config.fast_erase {
            None
        } else {
            Some(
                self.master
                    .get()
                    .map_err(|_| ProtocolError::MasterKeyErased)?
                    .clone(),
            )
        };

        let n_u = &self.record.neighbors;
        let mut commitments = Vec::new();
        let mut evidence_out = Vec::new();
        let mut decisions = Vec::new();
        for (&v, r_v) in &self.collected {
            let overlap = n_u.intersection(&r_v.neighbors).count();
            let accepted = overlap >= self.config.required_overlap();
            decisions.push(ValidationOutcome {
                peer: v,
                shared: overlap,
                required: self.config.required_overlap(),
                accepted,
            });
            if accepted {
                self.functional.insert(v);
                let k_v = match &master {
                    Some(k) => self
                        .keys
                        .get_or_derive(KeyScheme::Verification, v, || verification_key(k, v, ops)),
                    None => self
                        .keys
                        .get(KeyScheme::Verification, v)
                        .expect("fast-erase stash covers tentative neighbors")
                        .clone(),
                };
                commitments.push((v, relation_commitment(&k_v, self.id, ops)));
            }
            // Evidence: v's record predates us (we are not in N(v)), so if
            // v ever updates its record we can vouch for the (v, u)
            // tentative relation. Keyed by K in the baseline and by RK_v in
            // the fast-erasure variant.
            if self.config.issue_evidence && !r_v.neighbors.contains(&self.id) {
                let evidence_key = match &master {
                    Some(k) => k.clone(),
                    None => self
                        .keys
                        .get(KeyScheme::Record, v)
                        .expect("fast-erase stash covers tentative neighbors")
                        .clone(),
                };
                evidence_out.push(RelationEvidence::issue(
                    &evidence_key,
                    self.id,
                    v,
                    r_v.version,
                    ops,
                ));
            }
        }

        // Storage hygiene per Section 4.3: collected records are deleted
        // once used; "a sensor node only needs to remember its own binding
        // record, the functional neighbor list, and the verification key".
        // The neighbor-key cache dies here too (keys zeroize on drop) —
        // every entry descends from the master key being erased.
        self.collected.clear();
        self.keys.clear();
        self.master.erase(rng);
        self.state = NodeState::Operational;

        Ok(DiscoveryOutput {
            commitments,
            evidence: evidence_out,
            decisions,
        })
    }

    /// Handles a relation commitment `C(from, u)` addressed to this node.
    /// On success `from` joins the functional neighbor list.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::CommitmentAuthFailed`] when the digest does not
    /// match `H(K_u ‖ from)`.
    pub fn accept_relation_commitment(
        &mut self,
        from: NodeId,
        digest: &Digest,
        ops: &HashCounter,
    ) -> Result<(), ProtocolError> {
        let expected = if self.keys.enabled {
            if let Some(d) = self.commit_memo.get(&from) {
                self.keys.hits += 1;
                *d
            } else {
                let d = relation_commitment(&self.verification_key, from, ops);
                self.commit_memo.insert(from, d);
                d
            }
        } else {
            relation_commitment(&self.verification_key, from, ops)
        };
        if !expected.ct_eq(digest) {
            return Err(ProtocolError::CommitmentAuthFailed { from });
        }
        self.functional.insert(from);
        Ok(())
    }

    /// Buffers evidence addressed to this node for a future record update.
    ///
    /// The node cannot verify the evidence itself (that needs `K`); the
    /// updater will. Mis-addressed evidence is rejected; an exact
    /// duplicate of an already-buffered token is ignored (retransmissions
    /// must not inflate the buffer), reported as `Ok(false)`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::MalformedMessage`] if the evidence names another
    /// beneficiary.
    pub fn buffer_evidence(&mut self, ev: RelationEvidence) -> Result<bool, ProtocolError> {
        if ev.to != self.id {
            return Err(ProtocolError::MalformedMessage {
                detail: "evidence addressed to another node",
            });
        }
        if self.evidence.contains(&ev) {
            return Ok(false);
        }
        self.evidence.push(ev);
        Ok(true)
    }

    /// Builds an update request (Section 4.4): the node's current record
    /// plus every *version-consistent* buffered evidence token, for a newly
    /// deployed neighbor to verify.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::WrongState`] unless operational.
    pub fn build_update_request(
        &self,
    ) -> Result<(BindingRecord, Vec<RelationEvidence>), ProtocolError> {
        if self.state != NodeState::Operational {
            return Err(ProtocolError::WrongState {
                operation: "build_update_request",
            });
        }
        Ok((self.record.clone(), self.usable_evidence()))
    }

    /// Processes an update request from an old node. Only callable while
    /// this node still holds `K` (inside its trust window).
    ///
    /// Verifies the requester's record, checks the update cap, verifies
    /// every evidence token and its version consistency, and mints the
    /// refreshed record with the evidenced issuers added and the version
    /// incremented.
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::MasterKeyErased`] after the trust window.
    /// * [`ProtocolError::RecordAuthFailed`] for forged records.
    /// * [`ProtocolError::UpdateLimitReached`] past the `m` cap.
    /// * [`ProtocolError::VersionMismatch`] for stale evidence.
    /// * [`ProtocolError::EvidenceAuthFailed`] for forged evidence.
    pub fn process_update_request(
        &self,
        record: &BindingRecord,
        evidences: &[RelationEvidence],
        ops: &HashCounter,
    ) -> Result<BindingRecord, ProtocolError> {
        // In the fast-erasure variant the updater works off the requester's
        // cached record key (it must be a tentative neighbor); in the
        // baseline it uses K directly.
        let key: SymmetricKey = if self.config.fast_erase {
            self.keys
                .get(KeyScheme::Record, record.node)
                .cloned()
                .ok_or(ProtocolError::NotTentativeNeighbor { peer: record.node })?
        } else {
            self.master
                .get()
                .map_err(|_| ProtocolError::MasterKeyErased)?
                .clone()
        };
        let master = &key;
        if !record.verify(master, ops) {
            return Err(ProtocolError::RecordAuthFailed {
                claimed: record.node,
            });
        }
        if record.version >= self.config.max_updates {
            return Err(ProtocolError::UpdateLimitReached {
                node: record.node,
                max_updates: self.config.max_updates,
            });
        }
        let mut neighbors = record.neighbors.clone();
        for ev in evidences {
            if ev.to != record.node {
                return Err(ProtocolError::MalformedMessage {
                    detail: "evidence beneficiary mismatch",
                });
            }
            if ev.version != record.version {
                return Err(ProtocolError::VersionMismatch {
                    record: record.version,
                    evidence: ev.version,
                });
            }
            if !ev.verify(master, ops) {
                return Err(ProtocolError::EvidenceAuthFailed { from: ev.from });
            }
            neighbors.insert(ev.from);
        }
        Ok(BindingRecord::create(
            master,
            record.node,
            record.version + 1,
            neighbors,
            ops,
        ))
    }

    /// Installs a refreshed record received over the secure channel from
    /// the updater.
    ///
    /// The node cannot recheck the commitment (no `K`); it enforces the
    /// structural invariants instead: same owner, version exactly one
    /// higher, old neighbors preserved. Evidence consumed by the update is
    /// discarded.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::MalformedMessage`] on any structural violation.
    pub fn install_updated_record(&mut self, record: BindingRecord) -> Result<(), ProtocolError> {
        if record.node != self.id {
            return Err(ProtocolError::MalformedMessage {
                detail: "updated record for another node",
            });
        }
        if record.version != self.record.version + 1 {
            return Err(ProtocolError::MalformedMessage {
                detail: "update must increment version by one",
            });
        }
        if !self.record.neighbors.is_subset(&record.neighbors) {
            return Err(ProtocolError::MalformedMessage {
                detail: "update dropped committed neighbors",
            });
        }
        self.record = record;
        self.evidence.clear();
        Ok(())
    }

    /// Physically compromises the node, surrendering its secrets.
    ///
    /// If the trust window is still open (master key live), the master key
    /// leaks too — the catastrophic case the deployment procedure must
    /// prevent.
    pub fn compromise(&self) -> CapturedState {
        CapturedState {
            id: self.id,
            record: self.record.clone(),
            verification_key: self.verification_key.clone(),
            functional: self.functional.clone(),
            master_key: self.master.get().ok().cloned(),
            neighbor_record_keys: self
                .keys
                .map
                .iter()
                .filter(|((scheme, _), _)| *scheme == KeyScheme::Record)
                .map(|((_, v), k)| (*v, k.clone()))
                .collect(),
            evidence: self.evidence.clone(),
        }
    }

    /// Storage items currently held, for the Section 4.3 overhead study:
    /// record neighbors + functional list + evidence + the two keys.
    pub fn storage_items(&self) -> usize {
        self.record.neighbors.len() + self.functional.len() + self.evidence.len() + 2
    }

    /// Logical heap bytes of the node's protocol state — its own binding
    /// record, tentative/functional sets, collected records, evidence
    /// buffer and commitment memo — **excluding** the neighbor-key cache,
    /// which [`ProtocolNode::key_cache_bytes`] reports as its own
    /// subsystem. Length-based per DESIGN.md §17, so the figure is a pure
    /// function of the seed. The Section 4.3 storage-hygiene argument is
    /// directly visible here: `collected` (and the key cache) drop to
    /// zero when discovery finalizes.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let record_heap =
            |r: &BindingRecord| btree_entries_bytes(r.neighbors.len(), size_of::<NodeId>());
        record_heap(&self.record)
            + btree_entries_bytes(self.tentative.len(), size_of::<NodeId>())
            + btree_entries_bytes(self.functional.len(), size_of::<NodeId>())
            + slice_bytes(&self.evidence)
            + btree_entries_bytes(self.commit_memo.len(), size_of::<(NodeId, Digest)>())
            + btree_entries_bytes(self.collected.len(), size_of::<(NodeId, BindingRecord)>())
            + self.collected.values().map(record_heap).sum::<u64>()
    }

    /// Logical heap bytes of the neighbor-key cache (the fast-erasure
    /// neighbor-key stash plus memoized derivations).
    pub fn key_cache_bytes(&self) -> u64 {
        use std::mem::size_of;
        btree_entries_bytes(
            self.keys.map.len(),
            size_of::<(KeyScheme, NodeId)>() + size_of::<SymmetricKey>(),
        )
    }
}

impl HeapSize for ProtocolNode {
    /// Everything the node retains: protocol state plus the key cache.
    fn heap_bytes(&self) -> u64 {
        ProtocolNode::heap_bytes(self) + self.key_cache_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (SymmetricKey, HashCounter, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        let master = SymmetricKey::random(&mut rng);
        (master, HashCounter::detached(), rng)
    }

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    /// Builds a record for `id` listing `neighbors`, committed under `k`.
    fn record_for(
        k: &SymmetricKey,
        id: NodeId,
        neighbors: &[NodeId],
        ops: &HashCounter,
    ) -> BindingRecord {
        BindingRecord::create(k, id, 0, neighbors.iter().copied().collect(), ops)
    }

    /// Drives a node through discovery against three mutual neighbors.
    fn discovered_node(
        t: usize,
        master: &SymmetricKey,
        ops: &HashCounter,
        rng: &mut rand::rngs::StdRng,
    ) -> (ProtocolNode, DiscoveryOutput) {
        let config = ProtocolConfig::with_threshold(t);
        let mut node = ProtocolNode::provision(n(0), master, config, ops);
        node.begin_discovery().unwrap();
        for i in 1..=3 {
            node.add_tentative(n(i)).unwrap();
        }
        node.commit_record(rng, ops).unwrap();
        // Each neighbor's record lists node 0 and the other two: overlap
        // with N(0) = {1,2,3} is 2.
        for i in 1..=3u64 {
            let others: Vec<NodeId> = (1..=3).filter(|&j| j != i).map(n).chain([n(0)]).collect();
            node.accept_record(record_for(master, n(i), &others, ops), ops)
                .unwrap();
        }
        let out = node.finalize_discovery(rng, ops).unwrap();
        (node, out)
    }

    #[test]
    fn lifecycle_happy_path() {
        let (master, ops, mut rng) = setup();
        let (node, out) = discovered_node(1, &master, &ops, &mut rng);
        assert_eq!(node.state(), NodeState::Operational);
        assert!(!node.holds_master_key(), "K must be erased");
        // t=1 needs overlap 2; all three neighbors qualify.
        assert_eq!(node.functional_neighbors().len(), 3);
        assert_eq!(out.commitments.len(), 3);
        assert_eq!(node.record().neighbors.len(), 3);
        assert!(node.record().verify(&master, &ops));
    }

    #[test]
    fn threshold_filters_functional() {
        let (master, ops, mut rng) = setup();
        // t=2 needs overlap 3, but only 2 is available: nobody qualifies.
        let (node, out) = discovered_node(2, &master, &ops, &mut rng);
        assert!(node.functional_neighbors().is_empty());
        assert!(out.commitments.is_empty());
        // The binding record still commits all tentative neighbors.
        assert_eq!(node.record().neighbors.len(), 3);
    }

    #[test]
    fn state_machine_rejects_out_of_order_calls() {
        let (master, ops, mut rng) = setup();
        let config = ProtocolConfig::default();
        let mut node = ProtocolNode::provision(n(0), &master, config, &ops);

        assert!(matches!(
            node.add_tentative(n(1)),
            Err(ProtocolError::WrongState { .. })
        ));
        assert!(matches!(
            node.commit_record(&mut rng, &ops),
            Err(ProtocolError::WrongState { .. })
        ));
        assert!(matches!(
            node.finalize_discovery(&mut rng, &ops),
            Err(ProtocolError::WrongState { .. })
        ));
        node.begin_discovery().unwrap();
        assert!(matches!(
            node.begin_discovery(),
            Err(ProtocolError::WrongState { .. })
        ));
        // Records cannot be accepted before the local commit.
        let r = record_for(&master, n(1), &[n(0)], &ops);
        assert!(matches!(
            node.accept_record(r, &ops),
            Err(ProtocolError::WrongState { .. })
        ));
        node.commit_record(&mut rng, &ops).unwrap();
        node.finalize_discovery(&mut rng, &ops).unwrap();
        assert!(matches!(
            node.add_tentative(n(1)),
            Err(ProtocolError::WrongState { .. })
        ));
    }

    #[test]
    fn forged_record_rejected() {
        let (master, ops, mut rng) = setup();
        let mut node = ProtocolNode::provision(n(0), &master, ProtocolConfig::default(), &ops);
        node.begin_discovery().unwrap();
        node.add_tentative(n(1)).unwrap();
        node.commit_record(&mut rng, &ops).unwrap();
        // Forged under a different key: an attacker without K.
        let attacker_key = {
            let mut r = rand::rngs::StdRng::seed_from_u64(666);
            SymmetricKey::random(&mut r)
        };
        let forged = record_for(&attacker_key, n(1), &[n(0), n(2)], &ops);
        assert_eq!(
            node.accept_record(forged, &ops),
            Err(ProtocolError::RecordAuthFailed { claimed: n(1) })
        );
    }

    #[test]
    fn record_from_stranger_rejected() {
        let (master, ops, mut rng) = setup();
        let mut node = ProtocolNode::provision(n(0), &master, ProtocolConfig::default(), &ops);
        node.begin_discovery().unwrap();
        node.commit_record(&mut rng, &ops).unwrap();
        let r = record_for(&master, n(9), &[n(0)], &ops);
        assert_eq!(
            node.accept_record(r, &ops),
            Err(ProtocolError::NotTentativeNeighbor { peer: n(9) })
        );
    }

    #[test]
    fn self_is_never_tentative() {
        let (master, ops, _) = setup();
        let mut node = ProtocolNode::provision(n(0), &master, ProtocolConfig::default(), &ops);
        node.begin_discovery().unwrap();
        node.add_tentative(n(0)).unwrap();
        assert!(node.tentative_neighbors().is_empty());
    }

    #[test]
    fn relation_commitment_round_trip() {
        let (master, ops, mut rng) = setup();
        let (mut receiver, _) = discovered_node(1, &master, &ops, &mut rng);

        // A legitimate new node (still holding K) commits to receiver 0.
        let k_0 = verification_key(&master, n(0), &ops);
        let digest = relation_commitment(&k_0, n(42), &ops);
        receiver
            .accept_relation_commitment(n(42), &digest, &ops)
            .unwrap();
        assert!(receiver.functional_neighbors().contains(&n(42)));
    }

    #[test]
    fn bogus_commitment_rejected() {
        let (master, ops, mut rng) = setup();
        let (mut receiver, _) = discovered_node(1, &master, &ops, &mut rng);
        // An attacker without K_0 guesses.
        let digest = snd_crypto::sha256::Sha256::digest(b"guess");
        assert_eq!(
            receiver.accept_relation_commitment(n(42), &digest, &ops),
            Err(ProtocolError::CommitmentAuthFailed { from: n(42) })
        );
        assert!(!receiver.functional_neighbors().contains(&n(42)));
    }

    #[test]
    fn commitment_bound_to_issuer() {
        let (master, ops, mut rng) = setup();
        let (mut receiver, _) = discovered_node(1, &master, &ops, &mut rng);
        let k_0 = verification_key(&master, n(0), &ops);
        let digest = relation_commitment(&k_0, n(42), &ops);
        // Replaying node 42's commitment under identity 43 fails.
        assert!(receiver
            .accept_relation_commitment(n(43), &digest, &ops)
            .is_err());
    }

    #[test]
    fn compromise_after_window_leaks_no_master_key() {
        let (master, ops, mut rng) = setup();
        let (node, _) = discovered_node(1, &master, &ops, &mut rng);
        let captured = node.compromise();
        assert!(captured.master_key.is_none());
        assert_eq!(captured.record, *node.record());
    }

    #[test]
    fn compromise_inside_window_leaks_master_key() {
        let (master, ops, _) = setup();
        let mut node = ProtocolNode::provision(n(0), &master, ProtocolConfig::default(), &ops);
        node.begin_discovery().unwrap();
        let captured = node.compromise();
        assert_eq!(captured.master_key.as_ref(), Some(&master));
    }

    #[test]
    fn evidence_buffering_checks_address() {
        let (master, ops, mut rng) = setup();
        let (mut node, _) = discovered_node(1, &master, &ops, &mut rng);
        let good = RelationEvidence::issue(&master, n(50), n(0), 0, &ops);
        node.buffer_evidence(good).unwrap();
        assert_eq!(node.buffered_evidence().len(), 1);
        let misaddressed = RelationEvidence::issue(&master, n(50), n(9), 0, &ops);
        assert!(node.buffer_evidence(misaddressed).is_err());
    }

    #[test]
    fn finalize_issues_evidence_to_predating_records() {
        let (master, ops, mut rng) = setup();
        let config = ProtocolConfig::with_threshold(0);
        let mut node = ProtocolNode::provision(n(0), &master, config, &ops);
        node.begin_discovery().unwrap();
        node.add_tentative(n(1)).unwrap();
        node.commit_record(&mut rng, &ops).unwrap();
        // Node 1's record does NOT list node 0: it predates node 0.
        node.accept_record(record_for(&master, n(1), &[n(2)], &ops), &ops)
            .unwrap();
        let out = node.finalize_discovery(&mut rng, &ops).unwrap();
        assert_eq!(out.evidence.len(), 1);
        assert_eq!(out.evidence[0].from, n(0));
        assert_eq!(out.evidence[0].to, n(1));
        assert!(out.evidence[0].verify(&master, &ops));
    }

    #[test]
    fn update_flow_end_to_end() {
        let (master, ops, mut rng) = setup();
        let (mut old, _) = discovered_node(1, &master, &ops, &mut rng);

        // A new node (still in its window) issues evidence to `old`.
        let new_node = ProtocolNode::provision(n(50), &master, ProtocolConfig::default(), &ops);
        let ev = RelationEvidence::issue(&master, n(50), n(0), old.record().version, &ops);
        old.buffer_evidence(ev).unwrap();

        let (record, evidences) = old.build_update_request().unwrap();
        let refreshed = new_node
            .process_update_request(&record, &evidences, &ops)
            .unwrap();
        assert_eq!(refreshed.version, 1);
        assert!(refreshed.neighbors.contains(&n(50)));
        assert!(refreshed.verify(&master, &ops));

        old.install_updated_record(refreshed).unwrap();
        assert_eq!(old.record().version, 1);
        assert!(
            old.buffered_evidence().is_empty(),
            "consumed evidence dropped"
        );
    }

    #[test]
    fn update_cap_enforced() {
        let (master, ops, mut rng) = setup();
        let mut config = ProtocolConfig::with_threshold(1);
        config.max_updates = 1;
        let mut old = ProtocolNode::provision(n(0), &master, config, &ops);
        old.begin_discovery().unwrap();
        old.commit_record(&mut rng, &ops).unwrap();
        old.finalize_discovery(&mut rng, &ops).unwrap();

        let updater = ProtocolNode::provision(n(60), &master, config, &ops);
        // First update OK.
        let ev = RelationEvidence::issue(&master, n(60), n(0), 0, &ops);
        old.buffer_evidence(ev).unwrap();
        let (r, evs) = old.build_update_request().unwrap();
        let refreshed = updater.process_update_request(&r, &evs, &ops).unwrap();
        old.install_updated_record(refreshed).unwrap();

        // Second exceeds the cap.
        let ev = RelationEvidence::issue(&master, n(61), n(0), 1, &ops);
        old.buffer_evidence(ev).unwrap();
        let (r, evs) = old.build_update_request().unwrap();
        assert!(matches!(
            updater.process_update_request(&r, &evs, &ops),
            Err(ProtocolError::UpdateLimitReached { .. })
        ));
    }

    #[test]
    fn stale_evidence_version_rejected() {
        let (master, ops, _) = setup();
        let updater = ProtocolNode::provision(n(60), &master, ProtocolConfig::default(), &ops);
        let record = record_for(&master, n(0), &[n(1)], &ops);
        let stale = RelationEvidence::issue(&master, n(50), n(0), 7, &ops);
        assert!(matches!(
            updater.process_update_request(&record, &[stale], &ops),
            Err(ProtocolError::VersionMismatch {
                record: 0,
                evidence: 7
            })
        ));
    }

    #[test]
    fn forged_evidence_rejected() {
        let (master, ops, _) = setup();
        let updater = ProtocolNode::provision(n(60), &master, ProtocolConfig::default(), &ops);
        let record = record_for(&master, n(0), &[n(1)], &ops);
        let attacker_key = {
            let mut r = rand::rngs::StdRng::seed_from_u64(13);
            SymmetricKey::random(&mut r)
        };
        let forged = RelationEvidence::issue(&attacker_key, n(50), n(0), 0, &ops);
        assert!(matches!(
            updater.process_update_request(&record, &[forged], &ops),
            Err(ProtocolError::EvidenceAuthFailed { from }) if from == n(50)
        ));
    }

    #[test]
    fn updater_past_window_cannot_update() {
        let (master, ops, mut rng) = setup();
        let (done, _) = discovered_node(1, &master, &ops, &mut rng);
        let record = record_for(&master, n(0), &[n(1)], &ops);
        assert_eq!(
            done.process_update_request(&record, &[], &ops),
            Err(ProtocolError::MasterKeyErased)
        );
    }

    #[test]
    fn install_update_enforces_invariants() {
        let (master, ops, mut rng) = setup();
        let (mut old, _) = discovered_node(1, &master, &ops, &mut rng);

        // Wrong owner.
        let other = record_for(&master, n(9), &[], &ops);
        assert!(old.install_updated_record(other).is_err());

        // Version jump.
        let jump = BindingRecord::create(&master, n(0), 5, old.record().neighbors.clone(), &ops);
        assert!(old.install_updated_record(jump).is_err());

        // Dropped neighbors.
        let dropped = BindingRecord::create(&master, n(0), 1, BTreeSet::new(), &ops);
        assert!(old.install_updated_record(dropped).is_err());
    }

    #[test]
    fn storage_accounting() {
        let (master, ops, mut rng) = setup();
        let (node, _) = discovered_node(1, &master, &ops, &mut rng);
        // 3 record neighbors + 3 functional + 0 evidence + 2 keys.
        assert_eq!(node.storage_items(), 8);
    }

    #[test]
    fn commitment_memo_skips_rehashing_on_redelivery() {
        let (master, ops, mut rng) = setup();
        let (mut receiver, _) = discovered_node(1, &master, &ops, &mut rng);
        let k_0 = verification_key(&master, n(0), &ops);
        let digest = relation_commitment(&k_0, n(42), &ops);

        let before = ops.get();
        receiver
            .accept_relation_commitment(n(42), &digest, &ops)
            .unwrap();
        let first = ops.get();
        assert!(first > before, "first verification hashes");

        // A retransmitted commitment verifies from the memo: zero hashes.
        receiver
            .accept_relation_commitment(n(42), &digest, &ops)
            .unwrap();
        assert_eq!(ops.get(), first, "re-delivery must not re-hash");
        assert_eq!(receiver.key_cache_hits(), 1);
    }

    #[test]
    fn disabled_key_cache_always_rehashes() {
        let (master, ops, mut rng) = setup();
        let (mut receiver, _) = discovered_node(1, &master, &ops, &mut rng);
        receiver.set_key_cache(false);
        let k_0 = verification_key(&master, n(0), &ops);
        let digest = relation_commitment(&k_0, n(42), &ops);

        receiver
            .accept_relation_commitment(n(42), &digest, &ops)
            .unwrap();
        let first = ops.get();
        receiver
            .accept_relation_commitment(n(42), &digest, &ops)
            .unwrap();
        assert!(ops.get() > first, "cache off recomputes every time");
        assert_eq!(receiver.key_cache_hits(), 0);
    }

    #[test]
    fn duplicate_evidence_is_ignored() {
        let (master, ops, mut rng) = setup();
        let (mut node, _) = discovered_node(1, &master, &ops, &mut rng);
        let ev = RelationEvidence::issue(&master, n(50), n(0), 0, &ops);
        assert_eq!(node.buffer_evidence(ev.clone()), Ok(true));
        assert_eq!(node.buffer_evidence(ev), Ok(false), "retransmission");
        assert_eq!(node.buffered_evidence().len(), 1);
    }

    #[test]
    fn missing_records_track_collection_progress() {
        let (master, ops, mut rng) = setup();
        let config = ProtocolConfig::with_threshold(0);
        let mut node = ProtocolNode::provision(n(0), &master, config, &ops);
        node.begin_discovery().unwrap();
        node.add_tentative(n(1)).unwrap();
        node.add_tentative(n(2)).unwrap();
        assert!(
            node.missing_records().is_empty(),
            "nothing is expected before commit"
        );
        node.commit_record(&mut rng, &ops).unwrap();
        assert_eq!(node.missing_records(), vec![n(1), n(2)]);
        assert!(!node.has_collected(n(1)));

        node.accept_record(record_for(&master, n(1), &[n(0), n(2)], &ops), &ops)
            .unwrap();
        assert!(node.has_collected(n(1)));
        assert_eq!(node.missing_records(), vec![n(2)]);
    }
}
