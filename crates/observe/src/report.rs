//! Machine-readable run reports.
//!
//! A [`RunReport`] captures one experiment run — scenario parameters, the
//! seed, the simulator's cost counters, the metrics registry and the
//! recorded event stream — as a single JSON object. Bench binaries append
//! one report per table row to `results/<experiment>.jsonl`, so the text
//! table stays the human interface and the JSONL file the machine one,
//! both fed from the same counters.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::Serialize;
use snd_sim::metrics::{DropReason, Metrics, NodeCounters};
use snd_topology::NodeId;

use crate::event::EventRecord;
use crate::registry::{MetricsRegistry, RegistrySnapshot};

/// A pre-rendered JSON value, embedded verbatim.
///
/// Lets callers attach values this crate cannot name without a dependency
/// cycle (e.g. `snd-core`'s `ProtocolConfig`): serialize on their side,
/// pass the string here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawJson(pub String);

impl RawJson {
    /// Renders any serializable value into a raw fragment.
    pub fn of<T: Serialize + ?Sized>(value: &T) -> RawJson {
        RawJson(serde::json::to_string(value))
    }
}

impl Serialize for RawJson {
    fn serialize(&self, out: &mut String) {
        if self.0.is_empty() {
            out.push_str("null");
        } else {
            out.push_str(&self.0);
        }
    }
}

/// One experiment run, ready for JSONL export.
#[derive(Debug, Clone, Serialize)]
pub struct RunReport {
    /// Experiment name (`safety`, `overhead`, `fig3`, …).
    pub experiment: String,
    /// Free-form scenario label distinguishing rows within an experiment.
    pub scenario: String,
    /// The run's RNG seed.
    pub seed: u64,
    /// Protocol/scenario configuration, rendered by the caller.
    pub config: RawJson,
    /// Scalar scenario parameters (node count, threshold, …).
    pub params: BTreeMap<String, RawJson>,
    /// Aggregate transport counters from the simulator.
    pub totals: NodeCounters,
    /// One-way hash operations performed.
    pub hash_ops: u64,
    /// Recorded frame drops by reason.
    pub drops: BTreeMap<DropReason, u64>,
    /// Per-node transport counters.
    pub per_node: BTreeMap<NodeId, NodeCounters>,
    /// Registry snapshot (named counters + histogram summaries).
    pub registry: RegistrySnapshot,
    /// Experiment-specific result values.
    pub outcomes: BTreeMap<String, RawJson>,
    /// Events recorded during the run but absent from `events` — bounded
    /// retention (see `snd_observe::recorder::RingRecorder`) or a merged
    /// multi-trial row that aggregates without storing raw rows. Always
    /// present; 0 means `events` is the complete stream.
    pub events_dropped: u64,
    /// The structured event stream, if a recorder was attached.
    pub events: Vec<EventRecord>,
}

impl RunReport {
    /// A fresh report for `experiment`/`scenario` with everything empty.
    pub fn new(experiment: impl Into<String>, scenario: impl Into<String>, seed: u64) -> Self {
        RunReport {
            experiment: experiment.into(),
            scenario: scenario.into(),
            seed,
            config: RawJson(String::new()),
            params: BTreeMap::new(),
            totals: NodeCounters::default(),
            hash_ops: 0,
            drops: BTreeMap::new(),
            per_node: BTreeMap::new(),
            registry: RegistrySnapshot::default(),
            outcomes: BTreeMap::new(),
            events_dropped: 0,
            events: Vec::new(),
        }
    }

    /// Attaches the protocol/scenario configuration.
    pub fn set_config<T: Serialize + ?Sized>(&mut self, config: &T) {
        self.config = RawJson::of(config);
    }

    /// Records one scenario parameter.
    pub fn set_param<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.params.insert(key.to_string(), RawJson::of(value));
    }

    /// Records one experiment outcome.
    pub fn set_outcome<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.outcomes.insert(key.to_string(), RawJson::of(value));
    }

    /// Copies the simulator's cost counters — aggregates, drops and the
    /// per-node breakdown — into the report.
    pub fn capture_sim(&mut self, metrics: Metrics<'_>) {
        self.totals = metrics.totals();
        self.hash_ops = metrics.hash_ops();
        self.drops = metrics.drop_counts();
        self.per_node = metrics.per_node().collect();
    }

    /// Freezes a registry into the report.
    pub fn capture_registry(&mut self, registry: &MetricsRegistry) {
        self.registry = registry.snapshot();
    }

    /// Attaches the recorded event stream.
    pub fn set_events(&mut self, events: Vec<EventRecord>) {
        self.events = events;
    }

    /// The report as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }
}

/// Appends [`RunReport`]s to a `.jsonl` file, one JSON object per line.
#[derive(Debug)]
pub struct JsonlWriter {
    path: PathBuf,
    written: usize,
}

impl JsonlWriter {
    /// Opens a writer for `results/<experiment>.jsonl` under `root`,
    /// truncating any previous run's file and creating directories as
    /// needed.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or file.
    pub fn for_experiment(root: impl AsRef<Path>, experiment: &str) -> std::io::Result<Self> {
        let dir = root.as_ref().join("results");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{experiment}.jsonl"));
        fs::File::create(&path)?; // truncate
        Ok(JsonlWriter { path, written: 0 })
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of reports appended so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Appends one report as a line.
    ///
    /// # Errors
    ///
    /// Any I/O error opening or writing the file.
    pub fn append(&mut self, report: &RunReport) -> std::io::Result<()> {
        let mut file = fs::OpenOptions::new().append(true).open(&self.path)?;
        let mut line = report.to_json();
        line.push('\n');
        file.write_all(line.as_bytes())?;
        self.written += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    #[test]
    fn raw_json_embeds_verbatim() {
        let mut out = String::new();
        RawJson("{\"t\":2}".to_string()).serialize(&mut out);
        assert_eq!(out, "{\"t\":2}");
        let mut out = String::new();
        RawJson(String::new()).serialize(&mut out);
        assert_eq!(out, "null");
    }

    #[test]
    fn report_round_trips_sim_metrics() {
        use snd_sim::jamming::JamZone;
        use snd_sim::network::Simulator;
        use snd_topology::unit_disk::RadioSpec;
        use snd_topology::{Circle, Deployment, Field, Point};

        // Node 3 reaches node 4; a jammer sits on node 5.
        let mut d = Deployment::empty(Field::square(100.0));
        d.place(NodeId(3), Point::new(10.0, 10.0));
        d.place(NodeId(4), Point::new(20.0, 10.0));
        d.place(NodeId(5), Point::new(30.0, 10.0));
        let mut sim = Simulator::new(d, RadioSpec::uniform(50.0), 42);
        sim.add_jammer(JamZone::permanent(Circle::new(Point::new(30.0, 10.0), 1.0)));
        sim.unicast(NodeId(3), NodeId(4), vec![0u8; 40]);
        sim.unicast(NodeId(3), NodeId(5), vec![0u8; 24]);
        sim.metrics().hash_counter().add(5);

        let mut report = RunReport::new("safety", "t=2", 42);
        report.set_param("nodes", &900u64);
        report.set_outcome("attack_success", &false);
        report.capture_sim(sim.metrics());
        report.set_events(vec![EventRecord {
            seq: 0,
            event: Event::MasterKeyErased { node: NodeId(3) },
        }]);

        assert_eq!(report.totals.unicasts_sent, 2);
        assert_eq!(report.hash_ops, 5);
        assert_eq!(report.drops.get(&DropReason::Jammed), Some(&1));

        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""experiment":"safety""#), "{json}");
        assert!(json.contains(r#""seed":42"#), "{json}");
        assert!(json.contains(r#""nodes":900"#), "{json}");
        assert!(json.contains(r#""attack_success":false"#), "{json}");
        assert!(json.contains(r#""Jammed":1"#), "{json}");
        assert!(json.contains(r#""MasterKeyErased""#), "{json}");
        assert!(!json.contains('\n'), "a report must be one line");
    }

    #[test]
    fn jsonl_writer_appends_lines() {
        let dir = std::env::temp_dir().join(format!(
            "snd-observe-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        let mut w = JsonlWriter::for_experiment(&dir, "demo").unwrap();
        w.append(&RunReport::new("demo", "a", 1)).unwrap();
        w.append(&RunReport::new("demo", "b", 2)).unwrap();
        assert_eq!(w.written(), 2);
        let text = fs::read_to_string(w.path()).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        // Re-opening truncates.
        let w2 = JsonlWriter::for_experiment(&dir, "demo").unwrap();
        assert_eq!(fs::read_to_string(w2.path()).unwrap(), "");
        fs::remove_dir_all(&dir).unwrap();
    }
}
