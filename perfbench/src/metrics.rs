//! Metric names, the per-run result accumulator and small measuring
//! helpers shared by the workloads.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;

use snd_exec::Executor;

/// End-to-end metrics (`--trace 0`), as `(name, unit)`. Must match
/// `BENCHMARK.json`; a unit test keeps the two in step.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wave_s", "s"),
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("peak_rss_mb", "MiB"),
    ("tx_bytes_per_node", "B"),
    ("completeness", "ratio"),
];

/// Per-layer metrics (`--trace 1`), as `(name, unit)`. Must match
/// `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.hello_s", "s"),
    ("engine.collect_s", "s"),
    ("engine.finalize_s", "s"),
    ("engine.validate_s", "s"),
    ("engine.arq_s", "s"),
    ("engine.span_coverage", "ratio"),
    ("engine.retx_per_tx", "ratio"),
    ("engine.hash_ops", "count"),
    ("engine.functional_not_tentative", "count"),
    ("sim.deliver_ns", "ns"),
    ("sim.tx_msgs", "count"),
    ("sim.rx_msgs", "count"),
    ("sim.dropped_frames", "count"),
    ("sim.inbox_peak_mb", "MiB"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("crypto.sha256_ns", "ns"),
    ("crypto.share", "ratio"),
    ("topology.functional_s", "s"),
    ("topology.freeze_s", "s"),
    ("campaign.paper_s", "s"),
    ("campaign.direct_s", "s"),
    ("campaign.parno_randomized_s", "s"),
    ("campaign.parno_line_s", "s"),
    ("campaign.hostile_s", "s"),
    ("exec.speedup", "ratio"),
    ("observe.trace_overhead", "ratio"),
    ("mem.nodes_mb", "MiB"),
    ("mem.inboxes_mb", "MiB"),
    ("mem.ledger_mb", "MiB"),
];

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// The executor the benchmark loads the program with: one worker per
/// available core.
pub fn bench_executor() -> Executor {
    Executor::new(std::thread::available_parallelism().map_or(1, usize::from))
}

/// Operations attempted and failed, plus the metric values of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations run (waves or campaign grids).
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one operation and records why it failed, if it did.
    pub fn op(&mut self, what: impl Display, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failures.push(format!("{what}: {why}"));
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// A metric value set earlier, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result line: every metric in `names`, in that order.
    ///
    /// # Errors
    ///
    /// A metric that was never set or is not a finite number is a bug in
    /// the benchmark, not a failed operation.
    pub fn to_json(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty() && self.attempted > 0,
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        ))
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Median of `samples` (mean of the middle two for an even count).
///
/// # Panics
///
/// On an empty slice: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median nanoseconds per item of `pass`, which processes `items` items
/// per call. Passes repeat until `budget_s` has elapsed (at least three).
pub fn ns_per_item(items: usize, budget_s: f64, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
        let ((), s) = timed(&mut pass);
        samples.push(s * 1e9 / items.max(1) as f64);
    }
    median(&samples)
}

/// Peak resident set size of this process so far in MiB (Linux `VmHWM`).
///
/// The workloads read it once, after their first operation: later
/// repetitions in the same process only add allocator fragmentation,
/// which moved the end-of-run figure by up to 17 % between runs of
/// wave-lossy against about 1 % after the first wave.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snd_observe::json::{parse, Value};

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        doc.get(list)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        assert_eq!(owned(END_TO_END), declared("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut out = Outcome::default();
        out.op("wave 0", Ok(()));
        out.set("wave_s", 1.25);
        out.set("setup_s", 2.0);
        let line = out
            .to_json(&[("wave_s", "s"), ("setup_s", "s")])
            .expect("complete");
        let v = parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(1.0));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(0.0));
        let m = v.get("metrics").expect("metrics");
        let wave = m.get("wave_s").expect("wave_s");
        assert_eq!(wave.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(wave.get("unit").and_then(Value::as_str), Some("s"));
        assert!(line.contains("\"setup_s\": {\"value\": 2.0,"));
    }

    #[test]
    fn failures_and_missing_metrics_show() {
        let mut out = Outcome::default();
        out.op("grid 0", Err("paper rule posted a false positive".into()));
        out.set("wave_s", 1.0);
        let line = out.to_json(&[("wave_s", "s")]).expect("complete");
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1,"));
        assert!(out.to_json(&[("setup_s", "s")]).is_err());
        out.set("setup_s", f64::NAN);
        assert!(out.to_json(&[("setup_s", "s")]).is_err());
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
