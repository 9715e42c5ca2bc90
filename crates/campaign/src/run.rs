//! Campaign execution and ROC scoring.
//!
//! One *cell* is one (attacker, environment, defense) combination. Cells
//! are enumerated attacker-major and run under independent seed streams:
//! cell `i` uses `stream_seed(spec.seed, i)` and its trials use
//! `trial_seed(cell_seed, t)` (DESIGN.md §16). The cell grid parallelizes
//! over an [`Executor`] with a trial-order merge, so output is
//! byte-identical at any `SND_THREADS`; each trial's engine runs serially
//! inside its cell slot.
//!
//! Scoring (all geometric, computed from the post-wave topologies):
//!
//! - **attempts / blocked**: an attempt is a victim the attacker's
//!   geometry actually exposes to an illegitimate relation (a remote
//!   replica in radio range, a Sybil identity next door, a far node
//!   reachable only through the planted link). It is *blocked* when the
//!   defense's accepted relation does not contain the adversarial edge.
//!   `detection_rate = blocked / attempts` (vacuously 1 with 0 attempts).
//! - **false positives**: benign tentative neighbors of a victim that the
//!   defense rejected even though the wave confirmed their traffic
//!   (pairs the wave itself reported unconfirmed are excluded).
//!   `fp_rate = false_positives / benign_pairs`.
//! - **2R verdict**: Theorem 3's containment — `check_d_safety` at
//!   `d = 2R` over the accepted relation, plus a wormhole guard: no
//!   accepted benign→benign edge may span more than 2R of deployment
//!   distance.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use snd_baselines::{HopTable, LineSelectedMulticast, RandomizedMulticast};
use snd_bench::report::mirror_totals_into_registry;
use snd_core::adversary::AdversaryBehavior;
use snd_core::model::safety::check_d_safety;
use snd_core::protocol::{DiscoveryEngine, ProtocolConfig, ReliabilityConfig};
use snd_exec::{stream_seed, trial_seed, Executor};
use snd_observe::report::RunReport;
use snd_sim::faults::{FaultPlan, FaultSpec, LossBurst};
use snd_sim::jamming::JamZone;
use snd_sim::metrics::NodeCounters;
use snd_sim::time::{SimDuration, SimTime};
use snd_topology::unit_disk::{unit_disk_graph, RadioSpec};
use snd_topology::{Circle, Field, NodeId, Point};

use crate::spec::{AttackerSpec, CampaignSpec, DefenseSpec, EnvironmentSpec, Placement};

/// Seed stream tag of the cell's fault plan.
const FAULT_STREAM: u64 = 0xFA;
/// Seed stream tag of the base-deployment positions.
const DEPLOY_STREAM: u64 = 0xDE;
/// Seed stream tag of uniform replica-site placement.
const PLACE_STREAM: u64 = 0x9A;
/// Seed stream tag of the Parno detectors (per identity: a second
/// `stream_seed` on the identity's raw id).
const PARNO_STREAM: u64 = 0xBA;

/// Raw-index slots reserved past the base population for wave-2 victims.
const VICTIM_SLOTS: u64 = 8;
/// Raw-index slots reserved past the victims for Sybil identities.
const SYBIL_SLOTS: u64 = 8;

/// Optional knobs threaded through a run (testing hooks).
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Raw-index → node-id relabeling; entry `i` is the id of raw index
    /// `i`. Must cover `nodes + 16` indices. `None` is the identity.
    /// Campaign verdicts are invariant under this relabeling on clean
    /// environments with the deterministic defenses (DESIGN.md §16).
    pub relabel: Option<Vec<u64>>,
}

impl RunOptions {
    /// Raw slots a relabeling must cover for `nodes` base nodes.
    pub fn slots(nodes: usize) -> usize {
        nodes + (VICTIM_SLOTS + SYBIL_SLOTS) as usize
    }

    fn id(&self, raw: u64) -> NodeId {
        match &self.relabel {
            None => NodeId(raw),
            Some(map) => NodeId(map[raw as usize]),
        }
    }
}

/// The scored outcome of one cell, aggregated over its trials.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CellOutcome {
    /// Adversarial relation attempts the attacker's geometry exposed.
    pub attempts: u64,
    /// Attempts the defense kept out of its accepted relation.
    pub blocked: u64,
    /// `blocked / attempts` (1.0 when there were no attempts).
    pub detection_rate: f64,
    /// Benign tentative (victim, neighbor) pairs scored for FPs.
    pub benign_pairs: u64,
    /// Benign pairs the defense rejected despite confirmed traffic.
    pub false_positives: u64,
    /// `false_positives / benign_pairs` (0.0 with no benign pairs).
    pub fp_rate: f64,
    /// Theorem 3 verdict: accepted relation 2R-safe in every trial.
    pub two_r_safe: bool,
    /// Worst containment radius over trials (meters).
    pub worst_radius_m: f64,
    /// Binding records rejected across both waves.
    pub rejected_records: u64,
    /// Links the victim wave could not confirm (excluded from FPs).
    pub unconfirmed_links: u64,
    /// Messages spent by the Parno detector (0 for other defenses).
    pub detector_messages: u64,
    /// Transport messages per deployed node (protocol cost).
    pub msgs_per_node: f64,
}

/// One finished cell: axis labels, seeds, scored outcome, JSONL report.
#[derive(Debug, Clone)]
pub struct CellRow {
    /// Position in the attacker-major cell enumeration.
    pub cell_index: usize,
    /// `stream_seed(spec.seed, cell_index)`.
    pub cell_seed: u64,
    /// Attacker label.
    pub attacker: String,
    /// Environment label.
    pub environment: String,
    /// Defense label.
    pub defense: String,
    /// Scored outcome.
    pub outcome: CellOutcome,
    /// The cell's `results/campaign.jsonl` row.
    pub report: RunReport,
}

/// Per-trial raw tallies folded into a [`CellOutcome`].
struct TrialStats {
    attempts: u64,
    blocked: u64,
    benign_pairs: u64,
    false_positives: u64,
    safe: bool,
    radius: f64,
    rejected_records: u64,
    unconfirmed: u64,
    detector_messages: u64,
    totals: NodeCounters,
    hash_ops: u64,
    deployed: u64,
}

/// Runs the full campaign grid over `exec`, in cell-enumeration order.
pub fn run_campaign(spec: &CampaignSpec, exec: &Executor) -> Vec<CellRow> {
    run_campaign_with(spec, exec, &RunOptions::default())
}

/// [`run_campaign`] with testing hooks.
pub fn run_campaign_with(spec: &CampaignSpec, exec: &Executor, opts: &RunOptions) -> Vec<CellRow> {
    let mut cells = Vec::with_capacity(spec.cell_count());
    for attacker in &spec.attackers {
        for env in &spec.environments {
            for defense in &spec.defenses {
                cells.push((*attacker, env.clone(), *defense));
            }
        }
    }
    exec.run_over(spec.seed, &cells, |i, (attacker, env, defense), _| {
        let cell_seed = stream_seed(spec.seed, i as u64);
        run_cell(spec, *attacker, env, *defense, i, cell_seed, opts)
    })
}

/// Runs one cell: `spec.trials` trials under `trial_seed(cell_seed, t)`,
/// folded into the cell's outcome and report.
fn run_cell(
    spec: &CampaignSpec,
    attacker: AttackerSpec,
    env: &EnvironmentSpec,
    defense: DefenseSpec,
    cell_index: usize,
    cell_seed: u64,
    opts: &RunOptions,
) -> CellRow {
    let trials: Vec<TrialStats> = (0..spec.trials.max(1))
        .map(|t| {
            run_trial(
                spec,
                attacker,
                env,
                defense,
                trial_seed(cell_seed, t as u64),
                opts,
            )
        })
        .collect();

    let mut attempts = 0;
    let mut blocked = 0;
    let mut benign_pairs = 0;
    let mut false_positives = 0;
    let mut safe = true;
    let mut radius: f64 = 0.0;
    let mut rejected = 0;
    let mut unconfirmed = 0;
    let mut detector_messages = 0;
    let mut totals = NodeCounters::default();
    let mut hash_ops = 0;
    let mut deployed = 0;
    for t in &trials {
        attempts += t.attempts;
        blocked += t.blocked;
        benign_pairs += t.benign_pairs;
        false_positives += t.false_positives;
        safe &= t.safe;
        radius = radius.max(t.radius);
        rejected += t.rejected_records;
        unconfirmed += t.unconfirmed;
        detector_messages += t.detector_messages;
        totals.unicasts_sent += t.totals.unicasts_sent;
        totals.broadcasts_sent += t.totals.broadcasts_sent;
        totals.received += t.totals.received;
        totals.bytes_sent += t.totals.bytes_sent;
        totals.bytes_received += t.totals.bytes_received;
        hash_ops += t.hash_ops;
        deployed += t.deployed;
    }
    let outcome = CellOutcome {
        attempts,
        blocked,
        detection_rate: if attempts == 0 {
            1.0
        } else {
            blocked as f64 / attempts as f64
        },
        benign_pairs,
        false_positives,
        fp_rate: if benign_pairs == 0 {
            0.0
        } else {
            false_positives as f64 / benign_pairs as f64
        },
        two_r_safe: safe,
        worst_radius_m: radius,
        rejected_records: rejected,
        unconfirmed_links: unconfirmed,
        detector_messages,
        msgs_per_node: (totals.unicasts_sent + totals.broadcasts_sent) as f64
            / (deployed.max(1)) as f64,
    };

    let attacker_label = attacker.label();
    let defense_label = defense.label();
    let mut report = RunReport::new(
        "campaign",
        format!("{attacker_label}/{}/{defense_label}", env.name),
        cell_seed,
    );
    report.set_config(&ProtocolConfig::with_threshold(spec.threshold).without_updates());
    report.set_param("cell_index", &(cell_index as u64));
    report.set_param("attacker", &attacker_label);
    report.set_param("environment", &env.name);
    report.set_param("defense", &defense_label);
    report.set_param("nodes", &(env.nodes.unwrap_or(spec.scenario.nodes) as u64));
    report.set_param("side_m", &spec.scenario.side);
    report.set_param("range_m", &env.range.unwrap_or(spec.scenario.range));
    report.set_param("threshold", &(spec.threshold as u64));
    report.set_param("trials", &(spec.trials.max(1) as u64));
    report.set_param("loss", &env.loss);
    // Deliberately no `threads` or wall-clock params: campaign rows are
    // byte-identical at any SND_THREADS (DESIGN.md §9, §16).
    report.set_param("retry_budget", &u64::from(env.retry_budget));
    report.totals = totals;
    report.hash_ops = hash_ops;
    mirror_totals_into_registry(&mut report);
    report.set_outcome("attempts", &outcome.attempts);
    report.set_outcome("blocked", &outcome.blocked);
    report.set_outcome("detection_rate", &outcome.detection_rate);
    report.set_outcome("benign_pairs", &outcome.benign_pairs);
    report.set_outcome("false_positives", &outcome.false_positives);
    report.set_outcome("fp_rate", &outcome.fp_rate);
    report.set_outcome("two_r_safe", &outcome.two_r_safe);
    report.set_outcome("worst_radius_m", &outcome.worst_radius_m);
    report.set_outcome("rejected_records", &outcome.rejected_records);
    report.set_outcome("unconfirmed_links", &outcome.unconfirmed_links);
    report.set_outcome("detector_messages", &outcome.detector_messages);
    report.set_outcome("msgs_per_node", &outcome.msgs_per_node);

    CellRow {
        cell_index,
        cell_seed,
        attacker: attacker_label,
        environment: env.name.clone(),
        defense: defense_label.into(),
        outcome,
        report,
    }
}

/// Clamps a point into the field with a 2 m margin.
fn clamp_into(field: Field, p: Point) -> Point {
    let m = 2.0;
    Point::new(
        p.x.clamp(m, field.width - m),
        p.y.clamp(m, field.height - m),
    )
}

/// The base node (raw-id independent) nearest `at`.
fn nearest_node(eng: &DiscoveryEngine, at: Point) -> (NodeId, Point) {
    eng.deployment().nearest(at).expect("populated deployment")
}

/// One trial of one cell: two waves, attack in between, scored post-hoc.
fn run_trial(
    spec: &CampaignSpec,
    attacker: AttackerSpec,
    env: &EnvironmentSpec,
    defense: DefenseSpec,
    seed: u64,
    opts: &RunOptions,
) -> TrialStats {
    let side = spec.scenario.side;
    let n = env.nodes.unwrap_or(spec.scenario.nodes);
    let range = env.range.unwrap_or(spec.scenario.range);
    let field = Field::square(side);

    let mut eng = DiscoveryEngine::new(
        field,
        RadioSpec::uniform(range),
        ProtocolConfig::with_threshold(spec.threshold).without_updates(),
        seed,
    );
    // Cells already fan out across the campaign executor; keep each
    // engine serial so the grid, not the wave, owns the parallelism.
    eng.set_executor(Executor::serial());
    eng.direct_verification = defense.direct_verification();
    if env.retry_budget > 0 {
        eng.set_reliability(ReliabilityConfig {
            enabled: true,
            retry_budget: env.retry_budget,
            hello_rounds: env.retry_budget + 1,
            base_backoff: SimDuration::from_millis(4),
            max_backoff: SimDuration::from_millis(32),
            phase_timeout: SimDuration::from_millis(400),
        });
    }
    if env.has_faults() {
        let mut fs = FaultSpec {
            loss: env.loss,
            crash: env.crash,
            ..FaultSpec::default()
        };
        if env.loss > 0.0 {
            fs.duplicate = 0.05;
            fs.reorder = 0.10;
        }
        if env.burst > 0.0 {
            // Elevated loss over the opening hello rounds; the retry
            // budget must absorb it without starving binding records.
            fs.bursts.push(LossBurst {
                from: SimTime::from_millis(0),
                until: SimTime::from_millis(150),
                loss: env.burst,
            });
        }
        if env.jam {
            // Upper-left pocket, away from the lower-left attack anchor
            // and the far-corner replica sites.
            fs.jams.push(JamZone::permanent(Circle::new(
                Point::new(0.25 * side, 0.75 * side),
                0.15 * side,
            )));
        }
        eng.sim_mut()
            .set_fault_plan(FaultPlan::new(fs, stream_seed(seed, FAULT_STREAM)));
    }

    // Base deployment: positions drawn from a dedicated stream so they do
    // not depend on node ids (the relabeling hook permutes ids only).
    let mut place_rng = StdRng::seed_from_u64(stream_seed(seed, DEPLOY_STREAM));
    let base_ids: Vec<NodeId> = (0..n as u64).map(|i| opts.id(i)).collect();
    for &id in &base_ids {
        let p = field.sample(&mut place_rng);
        eng.deploy_at(id, p);
    }
    let r1 = eng.run_wave(&base_ids);

    // Attack geometry. The anchor sits in the lower-left quadrant; the
    // wormhole's far colluder and the clustered replica corner sit in the
    // upper-right, keeping every distance of interest beyond 2R.
    let anchor_at = Point::new(0.3 * side, 0.3 * side);
    let mut victims: Vec<(NodeId, Point)> = Vec::new();
    let mut victim_raw = n as u64;
    let mut next_victim = |at: Point, victims: &mut Vec<(NodeId, Point)>| {
        let id = opts.id(victim_raw);
        victim_raw += 1;
        victims.push((id, clamp_into(field, at)));
    };

    match attacker {
        AttackerSpec::None => {
            let c = field.center();
            for k in 0..3 {
                next_victim(Point::new(c.x + 4.0 * k as f64, c.y + 3.0), &mut victims);
            }
        }
        AttackerSpec::Replication {
            placement,
            colluders,
            sites,
        } => {
            let picked = pick_colluders(&eng, anchor_at, colluders.clamp(1, 4));
            let anchor_pos = eng.deployment().position(picked[0]).expect("placed");
            let site_points = site_points(
                placement,
                anchor_pos,
                field,
                range,
                sites.clamp(1, 4),
                stream_seed(seed, PLACE_STREAM),
            );
            for (ci, &c) in picked.iter().enumerate() {
                eng.compromise(c).expect("operational base node");
                for &s in &site_points {
                    let at = clamp_into(field, Point::new(s.x + 1.5 * ci as f64, s.y));
                    eng.place_replica(c, at).expect("compromised");
                }
            }
            for &s in &site_points {
                next_victim(Point::new(s.x + 3.0, s.y), &mut victims);
            }
        }
        AttackerSpec::RecordForging { colluders, sites } => {
            let picked = pick_colluders(&eng, anchor_at, colluders.clamp(1, 4));
            let corner = Point::new(0.85 * side, 0.85 * side);
            for (ci, &c) in picked.iter().enumerate() {
                eng.compromise_violating_window(c).expect("operational");
                for k in 0..sites.clamp(1, 4) {
                    let at = clamp_into(
                        field,
                        Point::new(corner.x - 5.0 * k as f64, corner.y + 1.5 * ci as f64),
                    );
                    eng.place_replica(c, at).expect("compromised");
                }
            }
            eng.adversary_mut().set_behavior(AdversaryBehavior {
                answer_hellos: true,
                replay_records: true,
                request_updates: false,
                forge_records_with_master: true,
            });
            for k in 0..sites.clamp(1, 4) {
                next_victim(
                    Point::new(corner.x - 5.0 * k as f64 + 3.0, corner.y - 3.0),
                    &mut victims,
                );
            }
        }
        AttackerSpec::Sybil { claimed_ids } => {
            let owner = nearest_node(&eng, anchor_at).0;
            let owner_pos = eng.deployment().position(owner).expect("placed");
            eng.compromise(owner).expect("operational base node");
            let fakes: Vec<NodeId> = (0..claimed_ids.clamp(1, 8) as u64)
                .map(|k| opts.id(n as u64 + VICTIM_SLOTS + k))
                .collect();
            eng.claim_sybil_identities(owner, &fakes)
                .expect("fresh ids");
            next_victim(Point::new(owner_pos.x + 4.0, owner_pos.y), &mut victims);
            next_victim(Point::new(owner_pos.x, owner_pos.y + 4.0), &mut victims);
        }
        AttackerSpec::Wormhole => {
            let a = nearest_node(&eng, Point::new(0.2 * side, 0.2 * side)).0;
            let b = nearest_node(&eng, Point::new(0.8 * side, 0.8 * side)).0;
            eng.compromise(a).expect("operational base node");
            eng.compromise(b).expect("operational base node");
            eng.plant_far_link(a, b).expect("colluders compromised");
            let pa = eng.deployment().position(a).expect("placed");
            next_victim(Point::new(pa.x + 3.0, pa.y), &mut victims);
            next_victim(Point::new(pa.x, pa.y + 3.0), &mut victims);
        }
    }

    let victim_ids: Vec<NodeId> = victims.iter().map(|(id, _)| *id).collect();
    for &(id, at) in &victims {
        eng.deploy_at(id, at);
    }
    let r2 = eng.run_wave(&victim_ids);

    score_trial(spec, attacker, env, defense, seed, &eng, &victims, &r1, &r2)
}

/// The `count` base nodes nearest `anchor_at`, by distance then id.
fn pick_colluders(eng: &DiscoveryEngine, anchor_at: Point, count: usize) -> Vec<NodeId> {
    let mut by_dist: Vec<(NodeId, f64)> = eng
        .deployment()
        .iter()
        .map(|(id, p)| (id, p.distance(&anchor_at)))
        .collect();
    by_dist.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(a.0.cmp(&b.0)));
    by_dist.into_iter().take(count).map(|(id, _)| id).collect()
}

/// Replica site points for one placement policy.
fn site_points(
    placement: Placement,
    anchor_pos: Point,
    field: Field,
    range: f64,
    sites: usize,
    place_seed: u64,
) -> Vec<Point> {
    match placement {
        Placement::Ring { distance } => {
            // Angles fanned through the quadrant pointing into the field,
            // so ring sites stay inside even from an off-center anchor.
            let d = distance * range;
            (0..sites)
                .map(|k| {
                    let theta = std::f64::consts::FRAC_PI_2 * (k + 1) as f64 / (sites + 1) as f64;
                    clamp_into(
                        field,
                        Point::new(
                            anchor_pos.x + d * theta.cos(),
                            anchor_pos.y + d * theta.sin(),
                        ),
                    )
                })
                .collect()
        }
        Placement::Clustered => {
            let corner = Point::new(0.85 * field.width, 0.85 * field.height);
            (0..sites)
                .map(|k| clamp_into(field, Point::new(corner.x - 5.0 * k as f64, corner.y)))
                .collect()
        }
        Placement::Uniform => {
            let mut rng = StdRng::seed_from_u64(place_seed);
            (0..sites).map(|_| field.sample(&mut rng)).collect()
        }
    }
}

/// Post-wave scoring: accepted relation, attempts/blocked, FPs, 2R.
#[allow(clippy::too_many_arguments)]
fn score_trial(
    spec: &CampaignSpec,
    attacker: AttackerSpec,
    env: &EnvironmentSpec,
    defense: DefenseSpec,
    seed: u64,
    eng: &DiscoveryEngine,
    victims: &[(NodeId, Point)],
    r1: &snd_core::protocol::WaveReport,
    r2: &snd_core::protocol::WaveReport,
) -> TrialStats {
    let side = spec.scenario.side;
    let n = env.nodes.unwrap_or(spec.scenario.nodes);
    let range = env.range.unwrap_or(spec.scenario.range);
    let two_r = 2.0 * range;
    let eps = 1e-9;

    let tent = eng.tentative_topology();
    let func = eng.functional_topology();
    let compromised = eng.adversary().compromised_set();
    let sybil = eng.adversary().sybil_ids();
    let is_adversarial = |id: NodeId| compromised.contains(&id) || sybil.contains(&id);
    let unconfirmed: BTreeSet<(NodeId, NodeId)> = r2.unconfirmed_links.iter().copied().collect();

    // Parno defenses: run the replica detector once per identity any
    // victim holds tentatively, each under its own deterministic stream.
    let mut flagged: BTreeSet<NodeId> = BTreeSet::new();
    let mut detector_messages = 0u64;
    if defense.is_parno() {
        let deployment = eng.deployment();
        let g = unit_disk_graph(deployment, &RadioSpec::uniform(range));
        let mut hops = HopTable::new(&g);
        let degree = n as f64 * std::f64::consts::PI * range * range / (side * side);
        let randomized = RandomizedMulticast {
            witnesses_per_neighbor: 1,
            forward_probability: ((n as f64).sqrt() / degree).min(1.0),
            tolerance: 1.0,
        };
        let line = LineSelectedMulticast::default();
        let parno_base = stream_seed(seed, PARNO_STREAM);
        let mut tested: BTreeSet<NodeId> = BTreeSet::new();
        for &(u, _) in victims {
            tested.extend(tent.out_neighbors(u));
        }
        for id in tested {
            let sites = eng.sim().positions_of(id).to_vec();
            if sites.is_empty() {
                continue;
            }
            let mut rng = StdRng::seed_from_u64(stream_seed(parno_base, id.0));
            let outcome = match defense {
                DefenseSpec::ParnoRandomized => {
                    randomized.detect_with(deployment, &g, id, &sites, &mut rng, &mut hops)
                }
                _ => line.detect_with(deployment, id, &sites, &mut rng, &mut hops),
            };
            detector_messages += outcome.messages;
            if outcome.detected {
                flagged.insert(id);
            }
        }
    }

    let accepted = |u: NodeId, v: NodeId| match defense {
        DefenseSpec::PaperRule => func.has_edge(u, v),
        DefenseSpec::DirectOnly => tent.has_edge(u, v),
        DefenseSpec::ParnoRandomized | DefenseSpec::ParnoLine => {
            tent.has_edge(u, v) && !flagged.contains(&v)
        }
    };

    // Attempts and blocks, by attacker geometry.
    let mut attempts = 0u64;
    let mut blocked = 0u64;
    let mut attempt = |u: NodeId, target: NodeId| {
        attempts += 1;
        if !accepted(u, target) {
            blocked += 1;
        }
    };
    match attacker {
        AttackerSpec::None => {}
        AttackerSpec::Replication { .. } | AttackerSpec::RecordForging { .. } => {
            for &(u, up) in victims {
                for &c in &compromised {
                    let orig = eng.deployment().position(c).expect("deployed");
                    let in_reach = eng
                        .sim()
                        .positions_of(c)
                        .iter()
                        .any(|p| p.distance(&up) <= range + eps);
                    if in_reach && orig.distance(&up) > two_r + eps {
                        attempt(u, c);
                    }
                }
            }
        }
        AttackerSpec::Sybil { .. } => {
            for &(u, up) in victims {
                for &f in &sybil {
                    let owner = eng.adversary().sybil_owner(f).expect("claimed");
                    let reach = eng
                        .sim()
                        .positions_of(owner)
                        .iter()
                        .any(|p| p.distance(&up) <= range + eps);
                    if reach {
                        attempt(u, f);
                    }
                }
            }
        }
        AttackerSpec::Wormhole => {
            for &(a, b) in eng.adversary().far_links() {
                let (pa, pb) = (
                    eng.deployment().position(a).expect("deployed"),
                    eng.deployment().position(b).expect("deployed"),
                );
                for &(u, up) in victims {
                    // The tunnel relays whichever end the victim can hear.
                    let far_end = if up.distance(&pa) <= range + eps {
                        Some(pb)
                    } else if up.distance(&pb) <= range + eps {
                        Some(pa)
                    } else {
                        None
                    };
                    let Some(fp) = far_end else { continue };
                    for (w, wp) in eng.deployment().iter() {
                        if w == u || is_adversarial(w) || victims.iter().any(|&(v, _)| v == w) {
                            continue;
                        }
                        if wp.distance(&fp) <= range + eps && wp.distance(&up) > two_r + eps {
                            attempt(u, w);
                        }
                    }
                }
            }
        }
    }

    // False positives over the victims' benign tentative neighbors.
    let mut benign_pairs = 0u64;
    let mut false_positives = 0u64;
    for &(u, _) in victims {
        for v in tent.out_neighbors(u) {
            if v == u || is_adversarial(v) {
                continue;
            }
            benign_pairs += 1;
            if !accepted(u, v) && !unconfirmed.contains(&(u, v)) {
                false_positives += 1;
            }
        }
    }

    // 2R verdict over the accepted relation.
    let mut accepted_graph = match defense {
        DefenseSpec::PaperRule => func.clone(),
        _ => tent.clone(),
    };
    if defense.is_parno() {
        let doomed: Vec<(NodeId, NodeId)> = accepted_graph
            .edges()
            .filter(|(_, v)| flagged.contains(v))
            .collect();
        for (u, v) in doomed {
            accepted_graph.remove_edge(u, v);
        }
    }
    let safety = check_d_safety(&accepted_graph, eng.deployment(), &compromised, two_r);
    let mut radius = safety.worst_radius();
    let mut safe = safety.holds();
    // Wormhole guard: Theorem 3's containment argument also fails if the
    // accepted relation contains a benign→benign edge spanning more than
    // 2R of deployment distance (a tunneled neighborship between honest
    // nodes that no compromised identity anchors).
    for (u, v) in accepted_graph.edges() {
        if is_adversarial(u) || is_adversarial(v) {
            continue;
        }
        let (Some(pu), Some(pv)) = (eng.deployment().position(u), eng.deployment().position(v))
        else {
            continue;
        };
        let d = pu.distance(&pv);
        if d > two_r + eps {
            safe = false;
            radius = radius.max(d);
        }
    }

    TrialStats {
        attempts,
        blocked,
        benign_pairs,
        false_positives,
        safe,
        radius,
        rejected_records: r1.rejected_records + r2.rejected_records,
        unconfirmed: r2.unconfirmed_links.len() as u64,
        detector_messages,
        totals: eng.sim().metrics().totals(),
        hash_ops: eng.hash_ops(),
        deployed: (n + victims.len()) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    /// A small, fast spec exercising one attacker × one env × defenses.
    fn tiny(attacker: AttackerSpec, defense: DefenseSpec) -> CampaignSpec {
        CampaignSpec {
            name: "tiny".into(),
            scenario: ScenarioSpec {
                side: 80.0,
                nodes: 140,
                range: 18.0,
            },
            threshold: 2,
            trials: 1,
            seed: 11,
            attackers: vec![attacker],
            environments: vec![EnvironmentSpec::clean()],
            defenses: vec![defense],
        }
    }

    #[test]
    fn no_attack_paper_cell_is_clean() {
        let rows = run_campaign(
            &tiny(AttackerSpec::None, DefenseSpec::PaperRule),
            &Executor::serial(),
        );
        assert_eq!(rows.len(), 1);
        let o = &rows[0].outcome;
        assert_eq!(o.attempts, 0);
        assert_eq!(o.detection_rate, 1.0);
        assert!(o.benign_pairs > 0, "victims found benign neighbors");
        assert_eq!(o.false_positives, 0, "paper rule: clean cell has no FPs");
        assert!(o.two_r_safe);
    }

    #[test]
    fn clustered_replication_is_blocked_by_paper_rule_only() {
        let attacker = AttackerSpec::Replication {
            placement: Placement::Clustered,
            colluders: 2,
            sites: 2,
        };
        let paper = run_campaign(&tiny(attacker, DefenseSpec::PaperRule), &Executor::serial());
        let o = &paper[0].outcome;
        assert!(o.attempts > 0, "victims sit in replica range");
        assert_eq!(
            o.blocked, o.attempts,
            "threshold rule blocks every remote clone"
        );
        assert!(o.two_r_safe);

        let direct = run_campaign(
            &tiny(attacker, DefenseSpec::DirectOnly),
            &Executor::serial(),
        );
        let o = &direct[0].outcome;
        assert!(o.attempts > 0);
        assert_eq!(
            o.blocked, 0,
            "distance bounding alone accepts co-located clones"
        );
        assert!(
            !o.two_r_safe,
            "accepted remote replicas break 2R containment"
        );
    }

    #[test]
    fn sybil_and_wormhole_cells_score_as_designed() {
        let sybil = run_campaign(
            &tiny(
                AttackerSpec::Sybil { claimed_ids: 3 },
                DefenseSpec::PaperRule,
            ),
            &Executor::serial(),
        );
        let o = &sybil[0].outcome;
        assert!(o.attempts > 0, "fabricated identities in victim range");
        assert_eq!(
            o.blocked, o.attempts,
            "record validation starves sybil identities"
        );
        assert_eq!(o.false_positives, 0);

        let worm_paper = run_campaign(
            &tiny(AttackerSpec::Wormhole, DefenseSpec::PaperRule),
            &Executor::serial(),
        );
        let o = &worm_paper[0].outcome;
        assert!(o.attempts > 0, "far link exposes remote honest nodes");
        assert_eq!(
            o.blocked, o.attempts,
            "direct verification kills tunneled hellos"
        );
        assert!(o.two_r_safe);

        let worm_parno = run_campaign(
            &tiny(AttackerSpec::Wormhole, DefenseSpec::ParnoRandomized),
            &Executor::serial(),
        );
        let o = &worm_parno[0].outcome;
        assert!(o.attempts > 0);
        assert!(
            o.blocked < o.attempts,
            "single-site tunnel identities evade replica detection"
        );
        assert!(!o.two_r_safe, "tunneled benign edges span more than 2R");
    }

    #[test]
    fn crash_and_burst_envs_still_contain_replication() {
        let attacker = AttackerSpec::Replication {
            placement: Placement::Clustered,
            colluders: 2,
            sites: 2,
        };
        for env in [
            EnvironmentSpec {
                name: "crashy".into(),
                loss: 0.05,
                retry_budget: 3,
                crash: 0.1,
                ..EnvironmentSpec::clean()
            },
            EnvironmentSpec {
                name: "bursty".into(),
                retry_budget: 3,
                burst: 0.6,
                ..EnvironmentSpec::clean()
            },
        ] {
            let spec = CampaignSpec {
                environments: vec![env],
                ..tiny(attacker, DefenseSpec::PaperRule)
            };
            let rows = run_campaign(&spec, &Executor::serial());
            let o = &rows[0].outcome;
            assert!(
                o.attempts > 0,
                "{}: replicas still reach victims",
                rows[0].environment
            );
            assert_eq!(
                o.blocked, o.attempts,
                "{}: threshold rule holds",
                rows[0].environment
            );
            assert!(
                o.two_r_safe,
                "{}: containment verdict holds",
                rows[0].environment
            );
        }
    }

    #[test]
    fn cells_merge_thread_invariantly() {
        let spec = CampaignSpec {
            attackers: vec![
                AttackerSpec::None,
                AttackerSpec::Replication {
                    placement: Placement::Ring { distance: 2.3 },
                    colluders: 2,
                    sites: 2,
                },
            ],
            defenses: vec![DefenseSpec::PaperRule, DefenseSpec::ParnoLine],
            ..tiny(AttackerSpec::None, DefenseSpec::PaperRule)
        };
        let serial = run_campaign(&spec, &Executor::new(1));
        let wide = run_campaign(&spec, &Executor::new(8));
        assert_eq!(serial.len(), wide.len());
        for (a, b) in serial.iter().zip(&wide) {
            assert_eq!(a.outcome, b.outcome, "cell {}", a.cell_index);
            assert_eq!(a.cell_seed, b.cell_seed);
        }
    }
}
