//! Property-based tests (proptest) over the system's core invariants:
//! Definition 3's isomorphism invariance (including under fully random ID
//! permutations, Definition 2), the geometry of d-safety checking,
//! wire-format robustness, protocol commitments, and Theorem 3's 2R bound
//! on randomized attack configurations — with a domain-specific shrinker
//! that reduces any violating deployment to a minimal counterexample.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use secure_neighbor_discovery::core::model::functional::functional_topology;
use secure_neighbor_discovery::core::model::safety::check_d_safety;
use secure_neighbor_discovery::core::model::validation::{
    is_isomorphism_invariant, AcceptAll, CommonNeighborRule,
};
use secure_neighbor_discovery::core::prelude::*;
use secure_neighbor_discovery::core::protocol::Message;
use secure_neighbor_discovery::crypto::keys::SymmetricKey;
use secure_neighbor_discovery::crypto::sha256::{Digest, Sha256};
use secure_neighbor_discovery::sim::prelude::HashCounter;
use secure_neighbor_discovery::topology::enclosing::min_enclosing_circle;
use secure_neighbor_discovery::topology::unit_disk::RadioSpec;
use secure_neighbor_discovery::topology::{DiGraph, Field, NodeId, Point};

/// Strategy: a random directed graph on up to `n` nodes.
fn graph_strategy(n: u64) -> impl Strategy<Value = DiGraph> {
    prop::collection::vec((0..n, 0..n), 0..60).prop_map(|edges| {
        edges
            .into_iter()
            .map(|(a, b)| (NodeId(a), NodeId(b)))
            .collect()
    })
}

/// Strategy: a set of points in a 1000x1000 field.
fn points_strategy(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0.0f64..1000.0, 0.0f64..1000.0), 1..max)
        .prop_map(|ps| ps.into_iter().map(Point::from).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn validation_functions_are_isomorphism_invariant(
        g in graph_strategy(12),
        t in 0usize..4,
        u in 0u64..12,
        v in 0u64..12,
        offset in 100u64..10_000,
    ) {
        // A clean relabeling: x -> x + offset.
        let map: BTreeMap<NodeId, NodeId> = (0..12u64)
            .map(|x| (NodeId(x), NodeId(x + offset)))
            .collect();
        prop_assert!(is_isomorphism_invariant(&AcceptAll, NodeId(u), NodeId(v), &g, &map));
        prop_assert!(is_isomorphism_invariant(
            &CommonNeighborRule::new(t), NodeId(u), NodeId(v), &g, &map
        ));
    }

    #[test]
    fn validation_is_invariant_under_random_id_permutations(
        g in graph_strategy(16),
        t in 0usize..4,
        u in 0u64..16,
        v in 0u64..16,
        perm_seed in any::<u64>(),
    ) {
        // Definition 2: F(u, v, B) depends only on the *structure* of the
        // knowledge graph, so any bijective relabeling π must leave it
        // unchanged: F(u, v, B) == F(π(u), π(v), π(B)). The relabeling here
        // is a uniformly random permutation (Fisher–Yates on a derived
        // stream), not just an additive offset.
        use rand::{Rng as _, SeedableRng as _};
        let mut rng = rand::rngs::StdRng::seed_from_u64(perm_seed);
        let mut targets: Vec<u64> = (0..16).collect();
        for i in (1..targets.len()).rev() {
            let j = rng.gen_range(0..=i);
            targets.swap(i, j);
        }
        let map: BTreeMap<NodeId, NodeId> = (0..16u64)
            .map(|x| (NodeId(x), NodeId(targets[x as usize])))
            .collect();
        prop_assert!(is_isomorphism_invariant(&AcceptAll, NodeId(u), NodeId(v), &g, &map));
        prop_assert!(is_isomorphism_invariant(
            &CommonNeighborRule::new(t), NodeId(u), NodeId(v), &g, &map
        ));
        // Sanity: the permuted graph has the same edge count (π is a
        // bijection, nothing collapses).
        let permuted: DiGraph = g
            .edges()
            .map(|(a, b)| (map[&a], map[&b]))
            .collect();
        prop_assert_eq!(permuted.edge_count(), g.edge_count());
    }

    #[test]
    fn functional_topology_is_monotone_in_threshold(g in graph_strategy(14), t in 0usize..5) {
        // Raising the threshold can only remove functional relations.
        let lower = functional_topology(&CommonNeighborRule::new(t), &g);
        let higher = functional_topology(&CommonNeighborRule::new(t + 1), &g);
        for (u, v) in higher.edges() {
            prop_assert!(lower.has_edge(u, v), "edge ({u},{v}) appeared when t grew");
        }
    }

    #[test]
    fn functional_is_subgraph_of_tentative(g in graph_strategy(14), t in 0usize..5) {
        let f = functional_topology(&CommonNeighborRule::new(t), &g);
        for (u, v) in f.edges() {
            prop_assert!(g.has_edge(u, v));
        }
        prop_assert_eq!(f.node_count(), g.node_count());
    }

    #[test]
    fn enclosing_circle_contains_all_points(points in points_strategy(40)) {
        let c = min_enclosing_circle(&points).expect("nonempty");
        for p in &points {
            prop_assert!(c.contains(p), "{p} escaped {c}");
        }
        // Radius at most half the bounding-box diagonal.
        let diag = 1000.0 * std::f64::consts::SQRT_2;
        prop_assert!(c.radius <= diag / 2.0 + 1e-6);
    }

    #[test]
    fn enclosing_circle_is_minimal_vs_diameter(points in points_strategy(25)) {
        // The MEC radius is at least half the point-set diameter.
        let c = min_enclosing_circle(&points).expect("nonempty");
        let diameter = secure_neighbor_discovery::topology::enclosing::point_set_diameter(&points);
        prop_assert!(c.radius >= diameter / 2.0 - 1e-6);
    }

    #[test]
    fn wire_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        // Arbitrary bytes either decode to a message or error out cleanly.
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn wire_round_trip_hello_family(a in any::<u64>(), b in any::<u64>()) {
        for msg in [
            Message::Hello { from: NodeId(a) },
            Message::HelloAck { from: NodeId(b) },
            Message::RecordRequest { from: NodeId(a) },
            Message::RelationCommit {
                from: NodeId(a),
                to: NodeId(b),
                digest: Sha256::digest(a.to_be_bytes()),
            },
        ] {
            prop_assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn binding_records_bind(
        owner in any::<u64>(),
        version in any::<u32>(),
        neighbors in prop::collection::btree_set(any::<u64>(), 0..20),
        flip_byte in 0usize..32,
    ) {
        let master = SymmetricKey::from_bytes([7u8; 32]);
        let ops = HashCounter::detached();
        let nbrs: BTreeSet<NodeId> = neighbors.into_iter().map(NodeId).collect();
        let record = BindingRecord::create(&master, NodeId(owner), version, nbrs, &ops);
        prop_assert!(record.verify(&master, &ops));

        // Any commitment bit-flip breaks verification.
        let mut tampered = record.clone();
        let mut bytes = tampered.commitment.into_bytes();
        bytes[flip_byte] ^= 0x01;
        tampered.commitment = Digest(bytes);
        prop_assert!(!tampered.verify(&master, &ops));

        // Wire round trip preserves everything.
        let bytes = record.encode();
        let (decoded, rest) = BindingRecord::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, record);
        prop_assert!(rest.is_empty());
    }

    #[test]
    fn sha256_distinct_inputs_distinct_outputs(
        a in prop::collection::vec(any::<u8>(), 0..100),
        b in prop::collection::vec(any::<u8>(), 0..100),
    ) {
        prop_assume!(a != b);
        prop_assert_ne!(Sha256::digest(&a), Sha256::digest(&b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gpsr_terminates_and_dominates_greedy(
        seed in any::<u64>(),
        nodes in 20usize..80,
        range in 30.0f64..60.0,
        s in any::<usize>(),
        t in any::<usize>(),
    ) {
        use secure_neighbor_discovery::apps::gpsr::gpsr_route;
        use secure_neighbor_discovery::apps::routing::greedy_route;
        use secure_neighbor_discovery::topology::unit_disk::unit_disk_graph;
        use rand::SeedableRng as _;

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let d = secure_neighbor_discovery::topology::Deployment::uniform(
            Field::square(250.0), nodes, &mut rng,
        );
        let g = unit_disk_graph(&d, &RadioSpec::uniform(range));
        let ids: Vec<NodeId> = d.ids().collect();
        let src = ids[s % ids.len()];
        let dst = ids[t % ids.len()];
        // Must terminate without panicking on arbitrary geometry...
        let gpsr = gpsr_route(&g, &g, &d, src, dst, 512);
        let greedy = greedy_route(&g, &g, &d, src, dst, 512);
        // ...and never lose a pair greedy can deliver.
        if greedy.delivered() {
            prop_assert!(gpsr.delivered(), "greedy delivered {src}->{dst} but GPSR lost it");
        }
    }
}

proptest! {
    // Heavier cases: fewer iterations.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn theorem3_bound_on_random_attack_configurations(
        seed in 0u64..5_000,
        t in 1usize..4,
        site_x in 250.0f64..390.0,
        site_y in 10.0f64..390.0,
    ) {
        // Random field, random replica site, exactly t compromised nodes:
        // the 2R bound must hold every time.
        let mut engine = DiscoveryEngine::new(
            Field::square(400.0),
            RadioSpec::uniform(50.0),
            ProtocolConfig::with_threshold(t).without_updates(),
            seed,
        );
        let ids = engine.deploy_uniform(250);
        engine.run_wave(&ids);

        for &id in ids.iter().take(t) {
            engine.compromise(id).expect("operational");
            engine.place_replica(id, Point::new(site_x, site_y)).expect("compromised");
        }
        engine.deploy_at(NodeId(9_000), Point::new(site_x + 3.0, site_y + 3.0));
        engine.run_wave(&[NodeId(9_000)]);

        let report = check_d_safety(
            &engine.functional_topology(),
            engine.deployment(),
            &engine.adversary().compromised_set(),
            100.0,
        );
        prop_assert!(
            report.holds(),
            "seed {} t {} site ({:.0},{:.0}): radius {:.1}",
            seed, t, site_x, site_y, report.worst_radius()
        );
    }
}

// ---------------------------------------------------------------------------
// Theorem 3 at the model level, with a domain-specific shrinker.
//
// The vendored proptest has no generic shrinking, so the 2R-safety property
// carries its own: when a random deployment violates the bound, the failure
// path greedily removes benign nodes while the violation persists, and the
// assertion message reports a *minimal* counterexample deployment (removing
// any single remaining benign node makes the violation disappear).
// ---------------------------------------------------------------------------

/// A replica-attack scenario in the validation model: true positions, a
/// colluding compromised set, and one replica site luring victims.
#[derive(Clone)]
struct AttackScenario {
    deployment: secure_neighbor_discovery::topology::Deployment,
    compromised: BTreeSet<NodeId>,
    site: Point,
    range: f64,
    threshold: usize,
}

impl AttackScenario {
    /// The tentative knowledge graph the attack produces, honoring the
    /// protocol's authentication constraints:
    ///
    /// * benign↔benign edges are genuine unit-disk links;
    /// * every benign node within range of the replica site believes an
    ///   edge *to* each compromised node (it heard the replica and the
    ///   replayed record verifies);
    /// * a compromised node's own relation set stays what its
    ///   deployment-time binding record authenticates — its genuine home
    ///   neighbors plus its colluders (who co-signed each other before
    ///   deployment). It cannot forge edges to the site's benign nodes.
    fn tentative(&self) -> DiGraph {
        let mut g = DiGraph::new();
        for (id, _) in self.deployment.iter() {
            g.add_node(id);
        }
        let nodes: Vec<(NodeId, Point)> = self.deployment.iter().collect();
        for &(u, pu) in &nodes {
            for &(v, pv) in &nodes {
                if u != v && pu.distance(&pv) <= self.range {
                    g.add_edge(u, v);
                }
            }
        }
        for &(v, pv) in &nodes {
            if self.compromised.contains(&v) {
                continue;
            }
            if pv.distance(&self.site) <= self.range {
                for &w in &self.compromised {
                    g.add_edge(v, w);
                }
            }
        }
        for &w1 in &self.compromised {
            for &w2 in &self.compromised {
                if w1 != w2 {
                    g.add_edge(w1, w2);
                }
            }
        }
        g
    }

    /// Whether the scenario violates Theorem 3's 2R bound.
    fn violates_2r(&self) -> bool {
        let functional =
            functional_topology(&CommonNeighborRule::new(self.threshold), &self.tentative());
        !check_d_safety(
            &functional,
            &self.deployment,
            &self.compromised,
            2.0 * self.range,
        )
        .holds()
    }

    /// Greedy node-removal shrinker: repeatedly deletes benign nodes while
    /// the violation persists, until no single further removal preserves
    /// it. The result is a minimal counterexample deployment.
    fn shrink(&self) -> AttackScenario {
        assert!(self.violates_2r(), "shrink() needs a violating scenario");
        let mut current = self.clone();
        loop {
            let benign: Vec<NodeId> = current
                .deployment
                .ids()
                .filter(|id| !current.compromised.contains(id))
                .collect();
            let mut shrunk = false;
            for id in benign {
                let mut candidate = current.clone();
                candidate.deployment.remove(id);
                if candidate.violates_2r() {
                    current = candidate;
                    shrunk = true;
                    break;
                }
            }
            if !shrunk {
                return current;
            }
        }
    }

    fn describe(&self) -> String {
        let nodes: Vec<String> = self
            .deployment
            .iter()
            .map(|(id, p)| {
                let tag = if self.compromised.contains(&id) {
                    "*"
                } else {
                    ""
                };
                format!("{id}{tag}@({:.0},{:.0})", p.x, p.y)
            })
            .collect();
        format!(
            "minimal counterexample ({} nodes, * = compromised, site ({:.0},{:.0}), t={}): [{}]",
            self.deployment.len(),
            self.site.x,
            self.site.y,
            self.threshold,
            nodes.join(", ")
        )
    }
}

/// Builds the random scenario shared by the property and the shrinker
/// demonstration: a uniform benign field, `c` colluders clustered in one
/// corner, one replica site elsewhere, and a few fresh victims beside it.
fn random_attack_scenario(seed: u64, nodes: usize, c: usize, t: usize) -> AttackScenario {
    use rand::{Rng as _, SeedableRng as _};
    let side = 400.0;
    let range = 50.0;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut deployment = secure_neighbor_discovery::topology::Deployment::uniform(
        Field::square(side),
        nodes,
        &mut rng,
    );
    // Colluders: a tight cluster near the origin corner.
    let mut compromised = BTreeSet::new();
    for k in 0..c {
        let id = NodeId(10_000 + k as u64);
        deployment.place(
            id,
            Point::new(30.0 + 4.0 * k as f64, 30.0 + 3.0 * (k % 3) as f64),
        );
        compromised.insert(id);
    }
    // Replica site far from the colluders' home, with fresh victims beside
    // it (the late wave the attack targets).
    let site = Point::new(
        rng.gen_range(250.0..side - 10.0),
        rng.gen_range(10.0..side - 10.0),
    );
    for k in 0..4u64 {
        deployment.place(
            NodeId(20_000 + k),
            Point::new(
                (site.x - 6.0 + 4.0 * k as f64).max(0.0),
                (site.y + 5.0).min(side),
            ),
        );
    }
    AttackScenario {
        deployment,
        compromised,
        site,
        range,
        threshold: t,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn theorem3_model_random_deployments_are_2r_safe(
        seed in any::<u64>(),
        nodes in 40usize..140,
        t in 1usize..5,
        c_off in 0usize..5,
    ) {
        // Up to t compromised colluders (Theorem 3's premise).
        let c = 1 + c_off % t;
        let scenario = random_attack_scenario(seed, nodes, c, t);
        if scenario.violates_2r() {
            // Shrink before failing so the report is a minimal
            // counterexample, not a 140-node haystack.
            let minimal = scenario.shrink();
            prop_assert!(false, "2R-safety violated; {}", minimal.describe());
        }
    }
}

#[test]
fn shrinker_produces_a_minimal_counterexample_when_the_bound_is_breached() {
    // c = t + 2 colluders exceed Theorem 3's premise: remote victims see
    // c - 1 >= t + 1 common neighbors and accept, so the violation exists
    // by construction.
    let t = 2;
    let scenario = random_attack_scenario(77, 90, t + 2, t);
    assert!(
        scenario.violates_2r(),
        "c = t+2 colluders must break the 2R bound"
    );

    let minimal = scenario.shrink();
    // Still a counterexample...
    assert!(
        minimal.violates_2r(),
        "shrinking must preserve the violation"
    );
    // ...genuinely smaller than the original...
    assert!(
        minimal.deployment.len() < scenario.deployment.len() / 2,
        "shrinker should discard most of the {}-node field (kept {})",
        scenario.deployment.len(),
        minimal.deployment.len()
    );
    // ...and 1-minimal: removing any single remaining benign node destroys
    // the violation.
    for id in minimal.deployment.ids().collect::<Vec<_>>() {
        if minimal.compromised.contains(&id) {
            continue;
        }
        let mut smaller = minimal.clone();
        smaller.deployment.remove(id);
        assert!(
            !smaller.violates_2r(),
            "removing {id} keeps the violation — {} is not minimal",
            minimal.describe()
        );
    }
}

// Satellite invariant for the reliable wave: record collection is a *set*
// operation. Delivering the same inbox of authenticated binding records
// permuted and duplicated must produce exactly the functional topology of
// in-order exactly-once delivery — otherwise retransmission could change
// what a node validates.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn record_collection_is_order_and_duplication_invariant(
        neighbor_bits in prop::collection::vec(0u16..1024, 3..8),
        t in 0usize..3,
        shuffle_seed in 0u64..1_000_000,
        dup_every in 1usize..4,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        use secure_neighbor_discovery::core::protocol::{BindingRecord, ProtocolNode};
        use secure_neighbor_discovery::crypto::keys::SymmetricKey;

        let master = SymmetricKey::from_bytes([9u8; 32]);
        let ops = HashCounter::detached();
        let n = neighbor_bits.len() as u64;

        // Records for tentative neighbors 1..=n; bit k of `neighbor_bits[i]`
        // decides whether node k is in record i's neighbor list (bit 0 is
        // the observer, node 0).
        let records: Vec<BindingRecord> = neighbor_bits
            .iter()
            .enumerate()
            .map(|(i, bits)| {
                let id = NodeId(i as u64 + 1);
                let neighbors: BTreeSet<NodeId> = (0..=n)
                    .filter(|&k| NodeId(k) != id && bits >> k & 1 == 1)
                    .map(NodeId)
                    .collect();
                BindingRecord::create(&master, id, 0, neighbors, &ops)
            })
            .collect();

        let observer = |seed: u64| -> ProtocolNode {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut node = ProtocolNode::provision(
                NodeId(0),
                &master,
                ProtocolConfig::with_threshold(t),
                &ops,
            );
            node.begin_discovery().expect("initialized");
            for i in 1..=n {
                node.add_tentative(NodeId(i)).expect("discovering");
            }
            node.commit_record(&mut rng, &ops).expect("commit");
            node
        };

        // Reference: in-order, exactly-once.
        let mut reference = observer(shuffle_seed);
        for r in &records {
            reference.accept_record(r.clone(), &ops).expect("authentic");
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1);
        let out_ref = reference.finalize_discovery(&mut rng, &ops).expect("finalize");

        // Permuted + duplicated inbox: every record re-delivered up to
        // `dup_every` extra times, whole sequence shuffled.
        let mut inbox: Vec<&BindingRecord> = Vec::new();
        for (i, r) in records.iter().enumerate() {
            for _ in 0..=(i % dup_every + 1) {
                inbox.push(r);
            }
        }
        let mut shuffler = rand::rngs::StdRng::seed_from_u64(shuffle_seed);
        inbox.shuffle(&mut shuffler);

        let mut permuted = observer(shuffle_seed);
        for r in inbox {
            if permuted.has_collected(r.node) {
                // The transport's duplicate guard; taking this branch or
                // re-accepting must be equivalent, so exercise both.
                if r.node.0 % 2 == 0 {
                    continue;
                }
            }
            permuted.accept_record(r.clone(), &ops).expect("authentic");
        }
        prop_assert!(permuted.missing_records().is_empty());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF1);
        let out_perm = permuted.finalize_discovery(&mut rng, &ops).expect("finalize");

        prop_assert_eq!(
            reference.functional_neighbors(),
            permuted.functional_neighbors(),
            "functional topology must not depend on delivery order/duplication"
        );
        prop_assert_eq!(out_ref, out_perm);
    }
}

// ---------------------------------------------------------------------------
// Hello-phase invariants for the batched wave (PR 7).
//
// The bulk inbox path fans per-node hello handling over the executor and
// re-serializes global effects, so these two properties are the semantic
// ground it stands on: the hello-phase *result* (tentative topology, and
// with loss = 0 the functional topology too) must not depend on (a) the
// order frames land inside an inbox, or (b) the node-ID labels themselves
// (Definition 3 lifted to the protocol). Like the Theorem 3 property
// above, failures shrink through a domain-specific greedy node-removal
// loop to a minimal counterexample deployment.
// ---------------------------------------------------------------------------

/// A concrete hello-phase scenario: explicit placements so the shrinker
/// can delete nodes one at a time.
#[derive(Clone)]
struct HelloScenario {
    placements: Vec<(NodeId, Point)>,
    engine_seed: u64,
    /// Transport permutation knobs (delivery-order property only).
    reorder: f64,
    duplicate: f64,
    fault_seed: u64,
}

/// One lossless reliable wave over the scenario's placements; returns
/// (tentative, functional) topologies. `permute_delivery` injects
/// reordering/duplication whose extra delays stay under the 2 ms pump
/// step, so the same frames arrive in the same window at permuted
/// positions — a pure inbox-order permutation.
fn hello_wave(scn: &HelloScenario, permute_delivery: bool) -> (DiGraph, DiGraph) {
    use secure_neighbor_discovery::core::protocol::ReliabilityConfig;
    use secure_neighbor_discovery::sim::faults::{FaultPlan, FaultSpec};
    use secure_neighbor_discovery::sim::time::SimDuration;

    let mut engine = DiscoveryEngine::new(
        Field::square(260.0),
        RadioSpec::uniform(50.0),
        ProtocolConfig::with_threshold(2),
        scn.engine_seed,
    );
    engine.set_reliability(ReliabilityConfig {
        enabled: true,
        retry_budget: 2,
        hello_rounds: 3,
        base_backoff: SimDuration::from_millis(4),
        max_backoff: SimDuration::from_millis(32),
        phase_timeout: SimDuration::from_millis(400),
    });
    if permute_delivery {
        engine.sim_mut().set_fault_plan(FaultPlan::new(
            FaultSpec {
                reorder: scn.reorder,
                duplicate: scn.duplicate,
                max_extra_delay: SimDuration::from_millis(1),
                ..FaultSpec::default()
            },
            scn.fault_seed,
        ));
    }
    let mut ids = Vec::with_capacity(scn.placements.len());
    for &(id, at) in &scn.placements {
        engine.deploy_at(id, at);
        ids.push(id);
    }
    engine.run_wave(&ids);
    (engine.tentative_topology(), engine.functional_topology())
}

/// Greedy shrinker shared by both hello properties: removes placements
/// while `diverges` holds, returning a 1-minimal scenario.
fn shrink_hello_scenario(
    scenario: &HelloScenario,
    diverges: &dyn Fn(&HelloScenario) -> bool,
) -> HelloScenario {
    let mut current = scenario.clone();
    loop {
        let mut shrunk = false;
        for i in 0..current.placements.len() {
            let mut candidate = current.clone();
            candidate.placements.remove(i);
            if diverges(&candidate) {
                current = candidate;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return current;
        }
    }
}

fn describe_hello_scenario(scn: &HelloScenario) -> String {
    let nodes: Vec<String> = scn
        .placements
        .iter()
        .map(|(id, p)| format!("{id}@({:.0},{:.0})", p.x, p.y))
        .collect();
    format!(
        "minimal counterexample ({} nodes, engine_seed {}, fault_seed {}, reorder {:.2}, dup {:.2}): [{}]",
        scn.placements.len(),
        scn.engine_seed,
        scn.fault_seed,
        scn.reorder,
        scn.duplicate,
        nodes.join(", ")
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn hello_phase_is_invariant_under_delivery_order_permutation(
        engine_seed in any::<u64>(),
        nodes in 24usize..56,
        reorder in 0.1f64..0.9,
        duplicate in 0.0f64..0.5,
        fault_seed in any::<u64>(),
    ) {
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(engine_seed ^ 0xD15C0);
        let deployment = secure_neighbor_discovery::topology::Deployment::uniform(
            Field::square(260.0),
            nodes,
            &mut rng,
        );
        let scenario = HelloScenario {
            placements: deployment.iter().collect(),
            engine_seed,
            reorder,
            duplicate,
            fault_seed,
        };
        let diverges = |scn: &HelloScenario| hello_wave(scn, false) != hello_wave(scn, true);
        if diverges(&scenario) {
            let minimal = shrink_hello_scenario(&scenario, &diverges);
            prop_assert!(
                false,
                "hello result depends on delivery order; {}",
                describe_hello_scenario(&minimal)
            );
        }
    }

    #[test]
    fn hello_phase_is_invariant_under_node_id_permutation(
        engine_seed in any::<u64>(),
        nodes in 24usize..56,
        perm_seed in any::<u64>(),
    ) {
        use rand::{Rng as _, SeedableRng as _};
        let mut rng = rand::rngs::StdRng::seed_from_u64(engine_seed ^ 0x1D5);
        let deployment = secure_neighbor_discovery::topology::Deployment::uniform(
            Field::square(260.0),
            nodes,
            &mut rng,
        );
        let scenario = HelloScenario {
            placements: deployment.iter().collect(),
            engine_seed,
            reorder: 0.0,
            duplicate: 0.0,
            fault_seed: 0,
        };

        // A uniformly random bijection π over the deployed IDs
        // (Fisher–Yates on a derived stream). Definition 3: relabeling
        // must commute with the wave — π changes the inbox drain order,
        // the broadcast target order, and every derived key, but not the
        // discovered structure.
        let ids: Vec<NodeId> = scenario.placements.iter().map(|&(id, _)| id).collect();
        let mut targets = ids.clone();
        let mut prng = rand::rngs::StdRng::seed_from_u64(perm_seed);
        for i in (1..targets.len()).rev() {
            let j = prng.gen_range(0..=i);
            targets.swap(i, j);
        }
        let map: BTreeMap<NodeId, NodeId> =
            ids.iter().copied().zip(targets.iter().copied()).collect();

        let permute = |scn: &HelloScenario| HelloScenario {
            placements: scn
                .placements
                .iter()
                .map(|&(id, p)| (map[&id], p))
                .collect(),
            ..scn.clone()
        };
        let diverges = |scn: &HelloScenario| {
            let (tentative, functional) = hello_wave(scn, false);
            let (tentative_p, functional_p) = hello_wave(&permute(scn), false);
            tentative_p != tentative.remap(&map) || functional_p != functional.remap(&map)
        };
        if diverges(&scenario) {
            let minimal = shrink_hello_scenario(&scenario, &diverges);
            prop_assert!(
                false,
                "hello result depends on node-ID labels; {}",
                describe_hello_scenario(&minimal)
            );
        }
    }
}
