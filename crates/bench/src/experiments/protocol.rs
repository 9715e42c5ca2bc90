//! Full-protocol wave timing at increasing scale.
//!
//! The topology perf bin times the *model* hot paths in isolation; this
//! experiment times the whole protocol — one complete discovery wave with
//! real crypto (SHA-256 key derivations, binding-record and relation
//! commitments) and the reliability layer enabled — at n ∈ {200, …,
//! 250 000}. Each row runs with the wall-clock [`Profiler`] attached, so
//! the `results/protocol.jsonl` rows carry `prof.*.ns` span histograms
//! (`snd-trace flame` folds them into stacks) while the
//! committed `BENCH_protocol.json` keeps only the headline `_ms` wall
//! fields next to its deterministic protocol counters.
//!
//! Determinism contract (DESIGN.md §9): every field of a row except the
//! `_ms`-suffixed wall clocks, the `prof.*` and `memrt.*` registry keys
//! and the process-wide `peak_rss_bytes` / `memrt_high_water_bytes` marks
//! is byte-identical across `SND_THREADS` — rows fan out over the
//! executor but each trial is a self-contained engine run on a derived
//! seed. The CI gate ignores exactly those machine-dependent fields when
//! it diffs the 1-thread and 8-thread runs. The per-subsystem `mem_bytes`
//! column is tier-1 logical accounting (DESIGN.md §17) and IS gated.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;
use snd_core::protocol::{DiscoveryEngine, ProtocolConfig, ReliabilityConfig};
use snd_exec::Executor;
use snd_observe::profile::Profiler;
use snd_observe::report::RunReport;
use snd_sim::time::SimDuration;
use snd_topology::unit_disk::RadioSpec;
use snd_topology::Field;

use crate::report::{attach_recorder, engine_report};

/// Scenario knobs. Defaults are the published configuration; tests shrink
/// `sizes` to stay fast.
#[derive(Debug, Clone)]
pub struct ProtocolBenchConfig {
    /// Node counts, one row each.
    pub sizes: Vec<usize>,
    /// Validation threshold `t`.
    pub threshold: usize,
    /// Radio range in meters.
    pub range: f64,
    /// Deployment density in nodes/m², constant across sizes.
    pub density: f64,
    /// ARQ retry budget (reliability layer is always on here).
    pub retry_budget: u32,
    /// Base seed for the deterministic trial-seed derivation.
    pub base_seed: u64,
}

impl Default for ProtocolBenchConfig {
    fn default() -> Self {
        // `SND_PROTOCOL_SIZES` (comma-separated node counts) shrinks or
        // reshapes the row list for local iteration; CI and committed
        // baselines always run the default ladder.
        let sizes = std::env::var("SND_PROTOCOL_SIZES")
            .ok()
            .map(|v| {
                v.split(',')
                    .filter_map(|s| s.trim().parse::<usize>().ok())
                    .collect::<Vec<_>>()
            })
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| vec![200, 2_000, 20_000, 100_000, 250_000]);
        ProtocolBenchConfig {
            sizes,
            threshold: 5,
            range: 50.0,
            density: 0.002,
            retry_budget: 2,
            base_seed: 20_250_807,
        }
    }
}

impl ProtocolBenchConfig {
    fn reliability(&self) -> ReliabilityConfig {
        ReliabilityConfig {
            enabled: true,
            retry_budget: self.retry_budget,
            hello_rounds: self.retry_budget + 1,
            base_backoff: SimDuration::from_millis(4),
            max_backoff: SimDuration::from_millis(32),
            phase_timeout: SimDuration::from_millis(400),
        }
    }
}

/// Deterministic communication-ledger summary of one wave, serialized
/// verbatim into `BENCH_protocol.json` so the CI determinism diff gates
/// the `comm.*` pipeline alongside the protocol counters.
#[derive(Debug, Clone, Serialize)]
pub struct CommRow {
    /// Logical sends (unicasts + broadcasts).
    pub tx_msgs: u64,
    /// Payload bytes across logical sends.
    pub tx_bytes: u64,
    /// Frames heard across all inboxes.
    pub rx_msgs: u64,
    /// Bytes heard across all inboxes.
    pub rx_bytes: u64,
    /// Frame copies dropped anywhere on the path.
    pub dropped_frames: u64,
    /// Ledger-flagged retransmissions (equals the wave report's count).
    pub retransmissions: u64,
    /// Estimated transmit energy, nanojoules.
    pub tx_energy_nj: u64,
    /// Estimated receive energy, nanojoules.
    pub rx_energy_nj: u64,
    /// Hottest radio's bytes over the mean, ×1000.
    pub imbalance_x1000: u64,
    /// Transmitted bytes by protocol phase.
    pub phase_tx_bytes: BTreeMap<String, u64>,
}

/// One wave at one size: deterministic protocol counters plus the wall
/// clock of the whole wave.
#[derive(Debug, Clone)]
pub struct ProtocolRow {
    /// Nodes deployed in the wave.
    pub nodes: usize,
    /// Field side length in meters (derived from the density).
    pub side_m: f64,
    /// Directed functional edges after validation.
    pub functional_edges: usize,
    /// Binding records that failed authentication.
    pub rejected_records: u64,
    /// Reliability-layer resends during the wave.
    pub retransmissions: u64,
    /// Directed links the wave could not confirm.
    pub unconfirmed_links: usize,
    /// Phases that degraded gracefully at their budget.
    pub timed_out_phases: u64,
    /// SHA-256 evaluations (key derivations and commitments) over the whole
    /// run.
    pub hash_ops: u64,
    /// Frames sent per node (unicasts + broadcasts).
    pub msgs_per_node: f64,
    /// Wall clock of the full wave, milliseconds. Excluded from the
    /// determinism compare.
    pub wave_wall_ms: f64,
    /// Payload bytes transmitted per deployed node (ledger `tx_bytes`
    /// over `nodes`) — the memory-per-node headline for the march to
    /// 1M nodes. Byte-deterministic like every `comm.*` field.
    pub bytes_per_node: f64,
    /// Peak resident set size of the whole bench process after this row's
    /// wave, in bytes (Linux `VmHWM`; 0 where unavailable). Process-wide
    /// and monotone across rows, hence *not* deterministic — the CI
    /// determinism diff normalizes it away exactly like the `_ms` fields.
    pub peak_rss_bytes: u64,
    /// Tier-1 logical memory: peak bytes per subsystem across the wave's
    /// phase-boundary samples (`nodes`, `key_cache`, `envelope_pool`,
    /// `inboxes`, `ledger`, `recorder`, `frozen_graph`). Byte-deterministic
    /// and thread-invariant — gated by the CI determinism diff.
    pub mem_bytes: BTreeMap<String, u64>,
    /// Tier-2 allocator high-water mark (`memrt.total.high_water_bytes`)
    /// at the end of this row's wave; 0 unless the binary registers the
    /// tracking allocator. Process-wide and monotone across rows, treated
    /// exactly like [`ProtocolRow::peak_rss_bytes`] in the CI diff.
    pub memrt_high_water_bytes: u64,
    /// Communication-ledger summary (byte-deterministic).
    pub comm: CommRow,
    /// Machine-readable row report (carries the `prof.*.ns` span
    /// histograms of the profiled wave).
    pub report: RunReport,
}

/// Runs one profiled wave per size, fanned out over `exec`.
pub fn protocol_rows(cfg: &ProtocolBenchConfig, exec: &Executor) -> Vec<ProtocolRow> {
    let threads = exec.threads() as u64;
    exec.run_over(cfg.base_seed, &cfg.sizes, move |_, &nodes, seed| {
        wave_trial(cfg, nodes, seed, threads)
    })
}

/// Peak resident set size of this process in bytes. Reads `VmHWM` from
/// `/proc/self/status` on Linux; returns 0 where the file (or the line)
/// is unavailable. The high-water mark is process-wide and monotone, so
/// later rows can only report equal-or-larger values and reruns differ —
/// callers must treat it as a wall-clock-like, nondeterministic field.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb.saturating_mul(1024))
}

fn wave_trial(cfg: &ProtocolBenchConfig, nodes: usize, seed: u64, threads: u64) -> ProtocolRow {
    let side = (nodes as f64 / cfg.density).sqrt();
    let mut engine = DiscoveryEngine::new(
        Field::square(side),
        RadioSpec::uniform(cfg.range),
        ProtocolConfig::with_threshold(cfg.threshold),
        seed,
    );
    engine.set_reliability(cfg.reliability());
    engine.set_profiler(Profiler::enabled());
    let recorder = attach_recorder(&mut engine);

    let ids = engine.deploy_uniform(nodes);
    let t0 = Instant::now();
    let wave = engine.run_wave(&ids);
    let wave_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let functional = engine.functional_topology();
    let functional_edges = functional.edge_count();
    // Freeze the functional view to its CSR snapshot — what a serving or
    // sharding layer would hold resident — and charge it to the `freeze`
    // phase cell (outside the timed wave; deterministic).
    let mem_scope = snd_observe::mem::MemScope::enter(snd_observe::mem::MemScopeId::Freeze);
    let frozen = snd_topology::FrozenGraph::freeze(&functional);
    mem_scope.close();
    engine
        .mem_table()
        .record("frozen_graph", "freeze", frozen.heap_bytes());
    drop(frozen);
    let totals = engine.sim().metrics().totals();
    let msgs_per_node =
        (totals.unicasts_sent + totals.broadcasts_sent) as f64 / (nodes as f64).max(1.0);

    let mut report = engine_report(
        "protocol",
        &format!("wave-n{nodes}"),
        seed,
        &engine,
        &recorder,
    );
    report.set_param("threads", &threads);
    report.set_param("nodes", &nodes);
    report.set_param("side_m", &side);
    report.set_param("retry_budget", &cfg.retry_budget);
    report.set_outcome("functional_edges", &functional_edges);
    report.set_outcome("msgs_per_node", &msgs_per_node);
    report.set_outcome("wave_wall_ms", &wave_wall_ms);

    let ledger = engine.sim().ledger();
    let lt = ledger.totals();
    let bytes_per_node = lt.tx_bytes as f64 / (nodes as f64).max(1.0);
    let peak_rss = peak_rss_bytes();
    report.set_outcome("bytes_per_node", &bytes_per_node);
    report.set_outcome("peak_rss_bytes", &peak_rss);
    let mem_bytes: BTreeMap<String, u64> = engine
        .mem_table()
        .subsystem_peaks()
        .into_iter()
        .map(|(sub, bytes)| (sub.to_string(), bytes))
        .collect();
    let memrt_high_water_bytes = snd_observe::mem::memrt_total_high_water();
    report.set_outcome("memrt_high_water_bytes", &memrt_high_water_bytes);
    let comm = CommRow {
        tx_msgs: lt.tx_msgs,
        tx_bytes: lt.tx_bytes,
        rx_msgs: lt.rx_msgs,
        rx_bytes: lt.rx_bytes,
        dropped_frames: lt.dropped_frames,
        retransmissions: lt.retransmissions,
        tx_energy_nj: lt.tx_energy_nj,
        rx_energy_nj: lt.rx_energy_nj,
        imbalance_x1000: report
            .registry
            .counters
            .get("comm.imbalance_x1000")
            .copied()
            .unwrap_or(0),
        phase_tx_bytes: ledger
            .phases()
            .map(|(p, agg)| (p.to_string(), agg.tx_bytes))
            .collect(),
    };

    ProtocolRow {
        nodes,
        side_m: side,
        functional_edges,
        rejected_records: wave.rejected_records,
        retransmissions: wave.retransmissions,
        unconfirmed_links: wave.unconfirmed_links.len(),
        timed_out_phases: wave.timed_out_phases,
        hash_ops: engine.hash_ops(),
        msgs_per_node,
        wave_wall_ms,
        bytes_per_node,
        peak_rss_bytes: peak_rss,
        mem_bytes,
        memrt_high_water_bytes,
        comm,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snd_observe::json::{parse, Value};

    fn small() -> ProtocolBenchConfig {
        ProtocolBenchConfig {
            sizes: vec![40, 80],
            ..ProtocolBenchConfig::default()
        }
    }

    #[test]
    fn rows_are_deterministic_apart_from_wall_clock() {
        let exec = Executor::serial();
        let a = protocol_rows(&small(), &exec);
        let b = protocol_rows(&small(), &exec);
        assert_eq!(a.len(), 2);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.nodes, rb.nodes);
            assert_eq!(ra.functional_edges, rb.functional_edges);
            assert_eq!(ra.rejected_records, rb.rejected_records);
            assert_eq!(ra.retransmissions, rb.retransmissions);
            assert_eq!(ra.hash_ops, rb.hash_ops);
            assert_eq!(ra.msgs_per_node, rb.msgs_per_node);
            // `bytes_per_node` is derived from deterministic counters;
            // `peak_rss_bytes` / `memrt_high_water_bytes` deliberately are
            // NOT compared here.
            assert_eq!(ra.bytes_per_node, rb.bytes_per_node);
            assert_eq!(
                serde::json::to_string(&ra.comm),
                serde::json::to_string(&rb.comm)
            );
            // Tier-1 memory columns are byte-deterministic and every
            // engine-resident subsystem plus the frozen CSR view reports.
            assert_eq!(ra.mem_bytes, rb.mem_bytes);
            for sub in [
                "nodes",
                "key_cache",
                "envelope_pool",
                "inboxes",
                "ledger",
                "recorder",
                "frozen_graph",
            ] {
                assert!(ra.mem_bytes.contains_key(sub), "missing subsystem {sub}");
            }
            assert!(ra.mem_bytes["nodes"] > 0);
            assert!(ra.mem_bytes["frozen_graph"] > 0);
            // Trial-order merged `mem.*` registry counters follow the same
            // contract.
            let ca = &ra.report.registry.counters;
            let cb = &rb.report.registry.counters;
            for (k, v) in ca.iter().filter(|(k, _)| k.starts_with("mem.")) {
                assert_eq!(cb.get(k), Some(v), "nondeterministic {k}");
            }
            assert!(ca.contains_key("mem.nodes.finalize.bytes"));
        }
    }

    #[test]
    fn comm_summary_is_consistent_with_transport_counters() {
        let exec = Executor::serial();
        let rows = protocol_rows(&small(), &exec);
        for row in &rows {
            let c = &row.report.registry.counters;
            // The E9 cross-check: ledger message counters equal the
            // simulator transport counters.
            assert_eq!(
                row.comm.tx_msgs,
                c["sim.unicasts_sent"] + c["sim.broadcasts_sent"]
            );
            assert_eq!(row.comm.tx_bytes, c["sim.bytes_sent"]);
            assert_eq!(row.comm.rx_msgs, c["sim.received"]);
            assert_eq!(row.comm.retransmissions, row.retransmissions);
            assert!(row.comm.tx_energy_nj > 0);
            // Per-phase bytes sum to the total.
            let phase_sum: u64 = row.comm.phase_tx_bytes.values().sum();
            assert_eq!(phase_sum, row.comm.tx_bytes);
            // `bytes_per_node` is exactly tx_bytes over the row's size.
            assert_eq!(
                row.bytes_per_node,
                row.comm.tx_bytes as f64 / row.nodes as f64
            );
            // The VmHWM probe works on every platform CI runs on.
            #[cfg(target_os = "linux")]
            assert!(row.peak_rss_bytes > 0, "VmHWM should be readable");
        }
    }

    #[test]
    fn profiled_wave_reports_carry_span_histograms() {
        let exec = Executor::serial();
        let rows = protocol_rows(&small(), &exec);
        let row = parse(&rows[0].report.to_json()).expect("report serializes");
        let histograms = row
            .get("registry")
            .and_then(|r| r.get("histograms"))
            .and_then(Value::as_object)
            .expect("registry histograms");
        let prof: Vec<&str> = histograms
            .iter()
            .map(|(k, _)| k.as_str())
            .filter(|k| k.starts_with("prof."))
            .collect();
        assert!(
            prof.contains(&"prof.wave.ns") && prof.contains(&"prof.wave.hello.ns"),
            "wave span tree exported: {prof:?}"
        );
    }
}
