//! The wave workloads: one discovery wave, timed around
//! `DiscoveryEngine::run_wave`, checked against the model's oracle.

use std::collections::BTreeMap;
use std::time::Instant;

use snd_bench::experiments::faults::FaultsConfig;
use snd_bench::experiments::protocol::ProtocolBenchConfig;
use snd_bench::report::attach_recorder;
use snd_campaign::CampaignSpec;
use snd_core::model::{functional_topology, CommonNeighborRule};
use snd_core::protocol::{DiscoveryEngine, ProtocolConfig, ReliabilityConfig};
use snd_exec::{stream_seed, Executor};
use snd_observe::mem::memrt_enable;
use snd_observe::profile::{ProfTotals, Profiler};
use snd_sim::faults::{FaultPlan, FaultSpec};
use snd_topology::unit_disk::{unit_disk_graph, RadioSpec};
use snd_topology::{Deployment, DiGraph, Field, NodeId};

use crate::checks::{check_same, check_wave, NodeFacts, OracleBar, WaveCounters, WaveFacts};
use crate::metrics::{median, peak_rss_mb, timed, Outcome, MIB};
use crate::probes;

/// Seed stream of the engine (deployment positions, keys).
const ENGINE_STREAM: u64 = 0x57A7;
/// Seed stream of the fault plan.
const FAULT_STREAM: u64 = 0xFA;
/// Fewest timed waves per run, whatever `--seconds` says.
const MIN_WAVES: usize = 3;
/// Set-ups timed on their own before the waves, for a steadier median.
const SETUP_SAMPLES: usize = 9;

/// One wave's inputs, apart from the seed.
#[derive(Debug, Clone)]
pub struct WaveSpec {
    pub nodes: usize,
    pub side: f64,
    pub range: f64,
    pub protocol: ProtocolConfig,
    pub reliability: ReliabilityConfig,
    pub faults: Option<FaultSpec>,
    pub bar: OracleBar,
}

impl WaveSpec {
    /// The protocol bench's configuration (t, R, density, ARQ budget) at
    /// `nodes`, with an optional fault mix.
    fn protocol_bench(nodes: usize, faults: Option<FaultSpec>, bar: OracleBar) -> WaveSpec {
        let cfg = ProtocolBenchConfig::default();
        WaveSpec {
            nodes,
            side: (nodes as f64 / cfg.density).sqrt(),
            range: cfg.range,
            protocol: ProtocolConfig::with_threshold(cfg.threshold),
            // The protocol bench's ARQ policy (4–32 ms backoff, 400 ms
            // phase budget), through the faults bench's public helper.
            reliability: FaultsConfig::default().reliability(cfg.retry_budget),
            faults,
            bar,
        }
    }

    /// `wave-clean`: the ROADMAP's n = 20 000 reference row, no faults.
    pub fn clean() -> WaveSpec {
        WaveSpec::clean_at(20_000)
    }

    /// `wave-lossy`: n = 5 000 under the faults bench's mix at loss 0.1.
    pub fn lossy() -> WaveSpec {
        WaveSpec::lossy_at(5_000)
    }

    /// The `wave-clean` configuration at `nodes`.
    pub fn clean_at(nodes: usize) -> WaveSpec {
        WaveSpec::protocol_bench(nodes, None, OracleBar::Exact)
    }

    /// The `wave-lossy` configuration at `nodes`.
    pub fn lossy_at(nodes: usize) -> WaveSpec {
        WaveSpec::protocol_bench(
            nodes,
            Some(FaultsConfig::default().fault_spec(0.1)),
            OracleBar::Subset {
                min_completeness: 0.99,
            },
        )
    }

    /// One clean, attack-free cell of `spec`: the wave every campaign
    /// cell starts from, at the campaign's size and threshold.
    pub fn campaign_cell(spec: &CampaignSpec) -> WaveSpec {
        WaveSpec {
            nodes: spec.scenario.nodes,
            side: spec.scenario.side,
            range: spec.scenario.range,
            protocol: ProtocolConfig::with_threshold(spec.threshold).without_updates(),
            reliability: ReliabilityConfig::legacy(),
            faults: None,
            bar: OracleBar::Exact,
        }
    }
}

/// Whether a wave runs with the telemetry channels on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Telemetry {
    /// Default `NullRecorder`, disabled profiler, tier-2 tracking off.
    Off,
    /// `Profiler::enabled()`, a `RingRecorder`, tier-2 tracking on.
    On,
}

/// One wave and everything measured around it. Keeps the engine so
/// probes can reuse its state.
pub struct WaveRep {
    pub engine: DiscoveryEngine,
    pub setup_s: f64,
    pub wave_s: f64,
    pub facts: WaveFacts,
    pub counters: WaveCounters,
    /// Profiler totals by span path (empty with telemetry off).
    pub profile: BTreeMap<String, ProfTotals>,
}

/// Builds the engine, deploys the nodes and installs the fault plan:
/// everything before the wave, which `setup_s` times.
fn setup(spec: &WaveSpec, seed: u64, exec: Executor) -> (DiscoveryEngine, Vec<NodeId>) {
    let mut engine = DiscoveryEngine::new(
        Field::square(spec.side),
        RadioSpec::uniform(spec.range),
        spec.protocol,
        stream_seed(seed, ENGINE_STREAM),
    );
    engine.set_reliability(spec.reliability);
    engine.set_executor(exec);
    let ids = engine.deploy_uniform(spec.nodes);
    if let Some(faults) = &spec.faults {
        engine.sim_mut().set_fault_plan(FaultPlan::new(
            faults.clone(),
            stream_seed(seed, FAULT_STREAM),
        ));
    }
    (engine, ids)
}

/// Sets up and runs one wave.
pub fn run_wave_once(spec: &WaveSpec, seed: u64, exec: Executor, telemetry: Telemetry) -> WaveRep {
    let ((mut engine, ids), setup_s) = timed(|| setup(spec, seed, exec));
    let profiler = match telemetry {
        Telemetry::Off => Profiler::disabled(),
        Telemetry::On => Profiler::enabled(),
    };
    if telemetry == Telemetry::On {
        engine.set_profiler(profiler.clone());
        attach_recorder(&mut engine);
        memrt_enable(true);
    }
    let (report, wave_s) = timed(|| engine.run_wave(&ids));
    memrt_enable(false);

    let facts = WaveFacts {
        functional: engine.functional_topology(),
        tentative: engine.tentative_topology(),
        nodes: engine
            .node_ids()
            .map(|id| {
                let node = engine.node(id).expect("listed ids are deployed");
                NodeFacts {
                    id,
                    state: node.state(),
                    holds_master_key: node.holds_master_key(),
                }
            })
            .collect(),
        unconfirmed_links: report.unconfirmed_links.len(),
    };
    let totals = engine.sim().ledger().totals();
    let mem = engine.mem_table().subsystem_peaks();
    let mem_of = |sub: &str| mem.get(sub).copied().unwrap_or(0);
    let counters = WaveCounters {
        functional_edges: facts.functional.edge_count(),
        tentative_edges: facts.tentative.edge_count(),
        tx_msgs: totals.tx_msgs,
        tx_bytes: totals.tx_bytes,
        rx_msgs: totals.rx_msgs,
        dropped_frames: totals.dropped_frames,
        retransmissions: totals.retransmissions,
        hash_ops: engine.hash_ops(),
        mem_nodes: mem_of("nodes"),
        mem_inboxes: mem_of("inboxes"),
        mem_ledger: mem_of("ledger"),
    };
    WaveRep {
        engine,
        setup_s,
        wave_s,
        facts,
        counters,
        profile: profiler.totals(),
    }
}

/// The model's functional topology over the true unit-disk graph: what a
/// fault-free wave must produce exactly.
pub fn oracle(spec: &WaveSpec, deployment: &Deployment) -> DiGraph {
    let truth = unit_disk_graph(deployment, &RadioSpec::uniform(spec.range));
    functional_topology(&CommonNeighborRule::new(spec.protocol.threshold), &truth)
}

/// Checks repeated waves of one input: each against the oracle, and
/// each rerun's counters against the first wave's.
struct WaveChecker<'a> {
    spec: &'a WaveSpec,
    oracle: Option<DiGraph>,
    reference: Option<WaveCounters>,
    completeness: f64,
    functional_not_tentative: u64,
    waves: usize,
}

impl<'a> WaveChecker<'a> {
    fn new(spec: &'a WaveSpec) -> Self {
        WaveChecker {
            spec,
            oracle: None,
            reference: None,
            completeness: 0.0,
            functional_not_tentative: 0,
            waves: 0,
        }
    }

    fn check(&mut self, what: &str, rep: &WaveRep, out: &mut Outcome) {
        let oracle = self
            .oracle
            .get_or_insert_with(|| oracle(self.spec, rep.engine.deployment()));
        let result = check_wave(&rep.facts, oracle, self.spec.bar).and_then(|verdict| {
            self.completeness = verdict.completeness;
            self.functional_not_tentative = verdict.functional_not_tentative;
            match &self.reference {
                Some(reference) => check_same(reference, &rep.counters),
                None => {
                    self.reference = Some(rep.counters.clone());
                    Ok(())
                }
            }
        });
        out.op(format_args!("{what} {}", self.waves), result);
        self.waves += 1;
    }
}

/// `--trace 0`: repeated untraced waves of one input for `seconds`.
pub fn measure(spec: &WaveSpec, seed: u64, seconds: f64, exec: Executor, out: &mut Outcome) {
    let mut checker = WaveChecker::new(spec);
    let mut setups: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| timed(|| setup(spec, seed, exec)).1)
        .collect();
    let mut waves = Vec::new();
    let mut peak_rss = None;
    let start = Instant::now();
    while waves.len() < MIN_WAVES || start.elapsed().as_secs_f64() < seconds {
        let rep = run_wave_once(spec, seed, exec, Telemetry::Off);
        checker.check("wave", &rep, out);
        setups.push(rep.setup_s);
        waves.push(rep.wave_s);
        peak_rss.get_or_insert_with(peak_rss_mb);
    }
    eprintln!("wave_s samples: {waves:?}");
    eprintln!("setup_s samples: {setups:?}");
    let wave_s = median(&waves);
    let tx_bytes = checker.reference.as_ref().map_or(0, |c| c.tx_bytes);
    out.set("wave_s", wave_s);
    out.set("setup_s", median(&setups));
    out.set("cells_per_s", 1.0 / wave_s);
    out.set("tx_bytes_per_node", tx_bytes as f64 / spec.nodes as f64);
    out.set("completeness", checker.completeness);
    match peak_rss.expect("at least one wave") {
        Ok(mb) => out.set("peak_rss_mb", mb),
        Err(err) => out.op("peak RSS", Err(err)),
    }
}

/// Engine phase self times of one traced wave, from its profiler spans.
#[derive(Debug, Clone, Copy)]
struct PhaseTimes {
    hello: f64,
    collect: f64,
    finalize: f64,
    validate: f64,
    arq: f64,
    /// Sum of the `wave` span's direct children.
    covered: f64,
}

impl PhaseTimes {
    fn from_profile(profile: &BTreeMap<String, ProfTotals>) -> PhaseTimes {
        let total = |path: &str| profile.get(path).map_or(0.0, |t| t.total_ns as f64 * 1e-9);
        let children = |path: &str| -> f64 {
            let prefix = format!("{path};");
            profile
                .iter()
                .filter(|(p, _)| {
                    p.strip_prefix(&prefix)
                        .is_some_and(|rest| !rest.contains(';'))
                })
                .fold(0.0, |sum, (_, t)| sum + t.total_ns as f64 * 1e-9)
        };
        let self_time = |path: &str| (total(path) - children(path)).max(0.0);
        let arq = profile
            .iter()
            .filter(|(p, _)| p.ends_with(";arq_repull") || p.ends_with(";arq_resend"))
            .fold(0.0, |sum, (_, t)| sum + t.total_ns as f64 * 1e-9);
        PhaseTimes {
            hello: self_time("wave;hello"),
            collect: self_time("wave;collect"),
            finalize: self_time("wave;finalize"),
            validate: self_time("wave;finalize;validate"),
            arq,
            covered: children("wave"),
        }
    }
}

/// `--trace 1`: alternating untraced and traced waves of one input for
/// `seconds` (at least one pair), then the layer probes on the last
/// traced engine. With `serial_control`, one more untraced wave on a
/// serial executor gives `exec.speedup`.
pub fn trace(
    spec: &WaveSpec,
    seed: u64,
    seconds: f64,
    exec: Executor,
    serial_control: bool,
    out: &mut Outcome,
) {
    let mut checker = WaveChecker::new(spec);
    let serial_s = serial_control.then(|| {
        let rep = run_wave_once(spec, seed, Executor::serial(), Telemetry::Off);
        checker.check("serial wave", &rep, out);
        rep.wave_s
    });
    let (mut untraced, mut traced, mut phases) = (Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<WaveRep> = None;
    let start = Instant::now();
    while traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let rep = run_wave_once(spec, seed, exec, Telemetry::Off);
        checker.check("untraced wave", &rep, out);
        untraced.push(rep.wave_s);
        drop(rep);

        drop(last.take());
        let rep = run_wave_once(spec, seed, exec, Telemetry::On);
        checker.check("traced wave", &rep, out);
        traced.push(rep.wave_s);
        phases.push(PhaseTimes::from_profile(&rep.profile));
        last = Some(rep);
    }
    let rep = last.expect("at least one traced wave");
    let untraced_s = median(&untraced);
    let traced_s = median(&traced);
    if let Some(serial_s) = serial_s {
        out.set("exec.speedup", serial_s / untraced_s);
    }
    let phase = |f: fn(&PhaseTimes) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    out.set("engine.hello_s", phase(|p| p.hello));
    out.set("engine.collect_s", phase(|p| p.collect));
    out.set("engine.finalize_s", phase(|p| p.finalize));
    out.set("engine.validate_s", phase(|p| p.validate));
    out.set("engine.arq_s", phase(|p| p.arq));
    let coverage: Vec<f64> = phases
        .iter()
        .zip(&traced)
        .map(|(p, w)| p.covered / w)
        .collect();
    out.set("engine.span_coverage", median(&coverage));
    out.set("observe.trace_overhead", traced_s / untraced_s - 1.0);

    let c = &rep.counters;
    out.set(
        "engine.retx_per_tx",
        c.retransmissions as f64 / c.tx_msgs.max(1) as f64,
    );
    out.set("engine.hash_ops", c.hash_ops as f64);
    out.set(
        "engine.functional_not_tentative",
        checker.functional_not_tentative as f64,
    );
    out.set("sim.tx_msgs", c.tx_msgs as f64);
    out.set("sim.rx_msgs", c.rx_msgs as f64);
    out.set("sim.dropped_frames", c.dropped_frames as f64);
    out.set(
        "sim.inbox_peak_mb",
        rep.engine.sim().inbox_peak_bytes() as f64 / MIB,
    );
    out.set("mem.nodes_mb", c.mem_nodes as f64 / MIB);
    out.set("mem.inboxes_mb", c.mem_inboxes as f64 / MIB);
    out.set("mem.ledger_mb", c.mem_ledger as f64 / MIB);

    match probes::sim_deliver_ns(
        rep.engine.deployment(),
        spec.range,
        spec.faults.as_ref(),
        seed,
    ) {
        Ok(ns) => out.set("sim.deliver_ns", ns),
        Err(err) => out.op("sim probe", Err(err)),
    }
    match probes::wire_ns(&rep.engine) {
        Ok((encode, decode)) => {
            out.set("wire.encode_ns", encode);
            out.set("wire.decode_ns", decode);
        }
        Err(err) => out.op("wire probe", Err(err)),
    }
    let mean_degree = c.tentative_edges as f64 / spec.nodes as f64;
    let sha_ns = probes::sha256_ns(mean_degree);
    out.set("crypto.sha256_ns", sha_ns);
    out.set(
        "crypto.share",
        c.hash_ops as f64 * sha_ns * 1e-9 / untraced_s,
    );

    let (functional_s, freeze_s) = probes::topology_s(&rep.engine);
    out.set("topology.functional_s", functional_s);
    out.set("topology.freeze_s", freeze_s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    fn names_set(out: &Outcome, names: &[(&str, &str)]) -> Vec<String> {
        names
            .iter()
            .filter(|(n, _)| out.get(n).is_none())
            .map(|(n, _)| n.to_string())
            .collect()
    }

    #[test]
    fn toy_waves_emit_every_end_to_end_metric_and_pass() {
        for spec in [WaveSpec::clean_at(200), WaveSpec::lossy_at(300)] {
            let mut out = Outcome::default();
            measure(&spec, 3, 0.0, Executor::new(2), &mut out);
            assert_eq!(out.failures, Vec::<String>::new());
            assert_eq!(out.attempted, MIN_WAVES as u64);
            assert_eq!(names_set(&out, END_TO_END), Vec::<String>::new());
            let line = out.to_json(END_TO_END).expect("complete");
            for (name, unit) in END_TO_END {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name}"
                );
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
            }
        }
    }

    #[test]
    fn toy_traced_wave_emits_every_wave_layer_metric() {
        let spec = WaveSpec::lossy_at(300);
        let mut out = Outcome::default();
        trace(&spec, 4, 0.0, Executor::new(2), true, &mut out);
        assert_eq!(out.failures, Vec::<String>::new());
        let missing: Vec<String> = names_set(&out, PER_LAYER)
            .into_iter()
            .filter(|n| !n.starts_with("campaign."))
            .collect();
        assert_eq!(missing, Vec::<String>::new());
        assert!(out.get("engine.span_coverage").expect("set") > 0.5);
        assert!(out.get("sim.dropped_frames").expect("set") > 0.0);
        assert!(out.get("engine.retx_per_tx").expect("set") > 0.0);
    }

    #[test]
    fn telemetry_moves_no_counter() {
        let spec = WaveSpec::lossy_at(300);
        let off = run_wave_once(&spec, 9, Executor::serial(), Telemetry::Off);
        let on = run_wave_once(&spec, 9, Executor::new(2), Telemetry::On);
        assert_eq!(off.counters, on.counters);
        assert!(off.profile.is_empty());
        assert!(on.profile.contains_key("wave;hello"));
    }
}
