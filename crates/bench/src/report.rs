//! JSONL export shared by the bench binaries.
//!
//! Every binary keeps printing its human-readable table; this module adds a
//! machine-readable sibling under `results/<experiment>.jsonl`, one
//! [`RunReport`] per table row. Both views are fed from the *same* simulator
//! counters, so the JSONL aggregates match the text output by construction.

use std::sync::Arc;

use snd_core::protocol::DiscoveryEngine;
use snd_observe::recorder::{Recorder, RingRecorder};
use snd_observe::report::{JsonlWriter, RunReport};

/// A tolerant wrapper around [`JsonlWriter`].
///
/// Bench binaries are table printers first; a read-only filesystem must not
/// kill them. Creation or append failures degrade to a one-line warning on
/// stderr and the log goes quiet.
#[derive(Debug)]
pub struct ExperimentLog {
    writer: Option<JsonlWriter>,
}

impl ExperimentLog {
    /// Opens `results/<experiment>.jsonl` under the current directory,
    /// truncating any previous run.
    pub fn create(experiment: &str) -> Self {
        match JsonlWriter::for_experiment(".", experiment) {
            Ok(writer) => ExperimentLog {
                writer: Some(writer),
            },
            Err(err) => {
                eprintln!("warning: cannot open results/{experiment}.jsonl: {err}");
                ExperimentLog { writer: None }
            }
        }
    }

    /// Appends one report; on I/O failure warns once and stops writing.
    pub fn append(&mut self, report: &RunReport) {
        if let Some(writer) = &mut self.writer {
            if let Err(err) = writer.append(report) {
                eprintln!("warning: abandoning {}: {err}", writer.path().display());
                self.writer = None;
            }
        }
    }

    /// Prints where the rows went. Call after the tables.
    pub fn finish(self) {
        if let Some(writer) = &self.writer {
            println!(
                "wrote {} ({} rows)",
                writer.path().display(),
                writer.written()
            );
        }
    }
}

/// Mirrors a merged report's transport totals and hash count into its
/// registry counters, preserving the single-engine invariant that
/// `registry.counters` (`sim.unicasts_sent`, `sim.bytes_sent`,
/// `core.hash_ops`, …) agrees with the top-level `totals` / `hash_ops`.
///
/// Multi-trial rows sum counters over many short-lived engines, so they
/// cannot use
/// [`MetricsRegistry::ingest_sim`](snd_observe::registry::MetricsRegistry::ingest_sim)
/// on a live engine; call this after the last trial is folded in and the
/// registry snapshot captured.
pub fn mirror_totals_into_registry(report: &mut RunReport) {
    let totals = report.totals;
    let counters = &mut report.registry.counters;
    counters.insert("sim.unicasts_sent".into(), totals.unicasts_sent);
    counters.insert("sim.broadcasts_sent".into(), totals.broadcasts_sent);
    counters.insert("sim.received".into(), totals.received);
    counters.insert("sim.bytes_sent".into(), totals.bytes_sent);
    counters.insert("sim.bytes_received".into(), totals.bytes_received);
    counters.insert("sim.hash_ops".into(), report.hash_ops);
    counters.insert("core.hash_ops".into(), report.hash_ops);
}

/// Attaches a fresh [`RingRecorder`] capped at [`EVENT_CAP`] to `engine`
/// and returns it.
///
/// Call before the engine's first wave; pass the recorder to
/// [`engine_report`] when building the row's report — draining happens
/// there.
pub fn attach_recorder(engine: &mut DiscoveryEngine) -> Arc<RingRecorder> {
    let recorder = RingRecorder::shared(EVENT_CAP);
    engine.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
    recorder
}

/// Cap on the event stream stored *verbatim* in one report. Dense fields
/// emit one `ValidationDecision` per tentative edge, which runs to hundreds
/// of thousands of events; the [`RingRecorder`] aggregates every event into
/// its registry before the retention decision, then decimates the raw rows
/// to a bounded in-order subsequence rather than ballooning the JSONL file.
/// `trace.events_recorded` always holds the true count and the report's
/// `events_dropped` field says exactly how many raw rows are missing.
pub const EVENT_CAP: usize = 10_000;

/// Builds a [`RunReport`] from an engine's final state plus the recorder
/// that listened while it ran. Drains the recorder.
///
/// Captures the protocol config, the simulator's transport counters (the
/// same `Metrics` the text tables read), hash ops, a registry distilled
/// from both the counters and the *complete* event stream (aggregated
/// before any decimation), wall-clock profiler histograms when the
/// engine's profiler is enabled (`prof.*.ns` keys — excluded from
/// byte-determinism comparisons, see DESIGN.md §9), and the retained event
/// subsequence with its exact `events_dropped` count.
pub fn engine_report(
    experiment: &str,
    scenario: &str,
    seed: u64,
    engine: &DiscoveryEngine,
    recorder: &RingRecorder,
) -> RunReport {
    let drain = recorder.drain();
    let mut report = RunReport::new(experiment, scenario, seed);
    report.set_config(&engine.config());
    report.capture_sim(engine.sim().metrics());
    report.hash_ops = engine.hash_ops();
    let mut registry = drain.registry;
    registry.ingest_sim(engine.sim().metrics());
    registry.ingest_ledger(engine.sim().ledger());
    registry.set("core.hash_ops", engine.hash_ops());
    registry.set("trace.events_recorded", drain.recorded);
    registry.set("trace.events_stored", drain.events.len() as u64);
    registry.set("trace.events_dropped", drain.dropped);
    engine.profiler().export_into(&mut registry);
    // Tier-1 memory telemetry (deterministic `mem.*`) plus, when a
    // tracking allocator is registered and enabled, the tier-2 `memrt.*`
    // view (non-deterministic, normalized like `_ms` — DESIGN.md §17).
    engine.mem_table().export_into(&mut registry);
    snd_observe::mem::memrt_export_into(&mut registry);
    report.capture_registry(&registry);
    report.events_dropped = drain.dropped;
    report.set_events(drain.events);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use snd_core::protocol::ProtocolConfig;
    use snd_topology::unit_disk::RadioSpec;
    use snd_topology::Field;

    #[test]
    fn engine_report_mirrors_engine_counters() {
        let mut engine = DiscoveryEngine::new(
            Field::square(100.0),
            RadioSpec::uniform(50.0),
            ProtocolConfig::with_threshold(1),
            9,
        );
        let recorder = attach_recorder(&mut engine);
        let ids = engine.deploy_uniform(12);
        engine.run_wave(&ids);

        let report = engine_report("demo", "row", 9, &engine, &recorder);
        let totals = engine.sim().metrics().totals();
        assert_eq!(report.totals, totals);
        assert_eq!(
            report.events_dropped + report.events.len() as u64,
            report.registry.counters["trace.events_recorded"]
        );
        assert_eq!(report.hash_ops, engine.hash_ops());
        assert_eq!(report.registry.counters["core.hash_ops"], engine.hash_ops());
        assert_eq!(
            report.registry.counters["sim.unicasts_sent"],
            totals.unicasts_sent
        );
        assert!(!report.events.is_empty());
        assert!(report.to_json().contains(r#""experiment":"demo""#));
        // The communication ledger rides along, consistent with the
        // transport counters (the E9 cross-check).
        assert_eq!(
            report.registry.counters["comm.tx_msgs"],
            totals.unicasts_sent + totals.broadcasts_sent
        );
        assert_eq!(report.registry.counters["comm.tx_bytes"], totals.bytes_sent);
        assert_eq!(report.registry.counters["comm.rx_msgs"], totals.received);
        assert!(report.registry.counters["comm.tx_energy_nj"] > 0);
        assert!(report
            .registry
            .counters
            .contains_key("comm.phase.hello.tx_bytes"));
        // Tier-1 memory telemetry rides along: every engine-phase cell
        // present, no tier-2 keys (no tracking allocator here).
        assert!(report.registry.counters["mem.nodes.finalize.bytes"] > 0);
        assert!(report.registry.counters["mem.ledger.hello.bytes"] > 0);
        assert!(report.registry.counters["mem.inboxes.hello.bytes"] > 0);
        assert!(!report
            .registry
            .counters
            .keys()
            .any(|k| k.starts_with("memrt.")));
    }

    #[test]
    fn mirror_totals_keeps_registry_in_sync_with_merged_totals() {
        let mut report = RunReport::new("demo", "merged", 1);
        report.totals.unicasts_sent = 10;
        report.totals.broadcasts_sent = 4;
        report.totals.received = 13;
        report.totals.bytes_sent = 2_000;
        report.totals.bytes_received = 1_900;
        report.hash_ops = 77;

        mirror_totals_into_registry(&mut report);

        let c = &report.registry.counters;
        assert_eq!(c["sim.unicasts_sent"], 10);
        assert_eq!(c["sim.broadcasts_sent"], 4);
        assert_eq!(c["sim.received"], 13);
        assert_eq!(c["sim.bytes_sent"], 2_000);
        assert_eq!(c["sim.bytes_received"], 1_900);
        assert_eq!(c["sim.hash_ops"], 77);
        assert_eq!(c["core.hash_ops"], 77);
    }
}
