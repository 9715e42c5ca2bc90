//! The campaign workload: the committed 84-cell default grid through
//! `snd_campaign::run_campaign`, checked against the campaign's bars.

use std::hint::black_box;
use std::time::Instant;

use snd_campaign::{run_campaign, CampaignSpec, CellOutcome, CellRow, DefenseSpec};
use snd_exec::Executor;

use crate::checks::{check_grid, check_same, grid_fingerprint};
use crate::metrics::{bench_executor, median, peak_rss_mb, timed, Outcome};
use crate::wave::{self, WaveSpec};

/// Fewest timed grids per run, whatever `--seconds` says.
const MIN_GRIDS: usize = 3;
/// Set-up samples per run, and set-ups timed together in one sample.
const SETUP_SAMPLES: usize = 21;
const SETUP_BATCH: usize = 1000;
/// Share of `--seconds` the traced run spends on the cell-sized wave.
const CELL_WAVE_SHARE: f64 = 0.25;

/// The default campaign with the workload seed as its spec seed.
pub fn default_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        seed,
        ..CampaignSpec::default_campaign()
    }
}

/// A small grid for the self-tests: every bar still has cells to bite on.
#[cfg(test)]
pub fn toy_spec(seed: u64) -> CampaignSpec {
    let full = default_spec(seed);
    CampaignSpec {
        attackers: full.attackers[..2].to_vec(),
        environments: full.environments[..1].to_vec(),
        defenses: vec![DefenseSpec::PaperRule, DefenseSpec::ParnoRandomized],
        ..full
    }
}

/// Median seconds to build the spec and the executor, timed in batches
/// because one set-up takes about a microsecond.
fn setup_s(seed: u64) -> f64 {
    let samples: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let ((), s) = timed(|| {
                for _ in 0..SETUP_BATCH {
                    black_box((default_spec(black_box(seed)), bench_executor()));
                }
            });
            s / SETUP_BATCH as f64
        })
        .collect();
    median(&samples)
}

/// Checks every grid against the campaign bars and every rerun against
/// the first grid's scores.
struct GridChecker {
    spec: CampaignSpec,
    reference: Option<Vec<(String, String, String, CellOutcome)>>,
    grids: usize,
}

impl GridChecker {
    fn new(spec: &CampaignSpec) -> Self {
        GridChecker {
            spec: spec.clone(),
            reference: None,
            grids: 0,
        }
    }

    fn check(&mut self, what: &str, rows: &[CellRow], out: &mut Outcome) {
        let result = check_grid(rows, &self.spec).and_then(|starved_fps| {
            report_starved(what, starved_fps);
            let scores = grid_fingerprint(rows);
            match &self.reference {
                Some(reference) => check_same(reference, &scores),
                None => {
                    self.reference = Some(scores);
                    Ok(())
                }
            }
        });
        out.op(format_args!("{what} {}", self.grids), result);
        self.grids += 1;
    }
}

/// Notes the paper rule's false positives on no-attack cells of
/// record-starving environments: a finding, not a failed operation.
fn report_starved(what: &str, starved_fps: u64) {
    if starved_fps > 0 {
        eprintln!(
            "{what}: paper rule rejected {starved_fps} benign pairs on no-attack cells \
             of record-starving environments"
        );
    }
}

/// Payload bytes sent per deployed base node, over the whole grid.
fn tx_bytes_per_node(spec: &CampaignSpec, rows: &[CellRow]) -> f64 {
    let per_env = spec.defenses.len();
    let (mut bytes, mut nodes) = (0u64, 0u64);
    for row in rows {
        let env = &spec.environments[(row.cell_index / per_env) % spec.environments.len()];
        bytes += row.report.totals.bytes_sent;
        nodes += (env.nodes.unwrap_or(spec.scenario.nodes) * spec.trials.max(1)) as u64;
    }
    bytes as f64 / nodes.max(1) as f64
}

/// Share of benign tentative pairs the paper rule kept, over its cells.
fn paper_completeness(rows: &[CellRow]) -> f64 {
    let (benign, rejected) = rows
        .iter()
        .filter(|r| r.defense == DefenseSpec::PaperRule.label())
        .fold((0u64, 0u64), |(b, f), r| {
            (b + r.outcome.benign_pairs, f + r.outcome.false_positives)
        });
    1.0 - rejected as f64 / benign.max(1) as f64
}

/// `--trace 0`: repeated grids of one spec for `seconds`.
pub fn measure(spec: &CampaignSpec, seconds: f64, exec: Executor, out: &mut Outcome) {
    out.set("setup_s", setup_s(spec.seed));
    let mut checker = GridChecker::new(spec);
    let mut grids = Vec::new();
    let mut last = Vec::new();
    let mut peak_rss = None;
    let start = Instant::now();
    while grids.len() < MIN_GRIDS || start.elapsed().as_secs_f64() < seconds {
        let (rows, s) = timed(|| run_campaign(spec, &exec));
        checker.check("grid", &rows, out);
        grids.push(s);
        last = rows;
        peak_rss.get_or_insert_with(peak_rss_mb);
    }
    eprintln!("grid wall samples (s): {grids:?}");
    let grid_s = median(&grids);
    let cells = spec.cell_count() as f64;
    out.set("wave_s", grid_s / cells);
    out.set("cells_per_s", cells / grid_s);
    out.set("tx_bytes_per_node", tx_bytes_per_node(spec, &last));
    out.set("completeness", paper_completeness(&last));
    match peak_rss.expect("at least one grid") {
        Ok(mb) => out.set("peak_rss_mb", mb),
        Err(err) => out.op("peak RSS", Err(err)),
    }
}

/// `--trace 1` on the campaign: engine-level layers from the grid's
/// clean cell-sized wave, `exec.speedup` from the whole grid on a serial
/// executor against the benchmark's, and the per-defense sub-grids.
pub fn trace(spec: &CampaignSpec, seconds: f64, exec: Executor, out: &mut Outcome) {
    let cell = WaveSpec::campaign_cell(spec);
    wave::trace(
        &cell,
        spec.seed,
        seconds * CELL_WAVE_SHARE,
        exec,
        false,
        out,
    );

    let mut checker = GridChecker::new(spec);
    let (rows, parallel_s) = timed(|| run_campaign(spec, &exec));
    checker.check("grid", &rows, out);
    let (rows, serial_s) = timed(|| run_campaign(spec, &Executor::serial()));
    checker.check("serial grid", &rows, out);
    out.set("exec.speedup", serial_s / parallel_s);

    trace_subgrids(spec, exec, out);
}

/// The `campaign.*` layer times: one sub-grid per defense, and the
/// jamming environment's sub-grid, whose broadcasts take the simulator's
/// full-scan path.
pub fn trace_subgrids(spec: &CampaignSpec, exec: Executor, out: &mut Outcome) {
    let defenses = [
        ("campaign.paper_s", DefenseSpec::PaperRule),
        ("campaign.direct_s", DefenseSpec::DirectOnly),
        ("campaign.parno_randomized_s", DefenseSpec::ParnoRandomized),
        ("campaign.parno_line_s", DefenseSpec::ParnoLine),
    ];
    let mut subgrids: Vec<(&'static str, CampaignSpec)> = defenses
        .into_iter()
        .map(|(name, defense)| {
            let sub = CampaignSpec {
                defenses: vec![defense],
                ..spec.clone()
            };
            (name, sub)
        })
        .collect();
    subgrids.push((
        "campaign.hostile_s",
        CampaignSpec {
            environments: spec
                .environments
                .iter()
                .filter(|e| e.jam)
                .cloned()
                .collect(),
            ..spec.clone()
        },
    ));
    for (name, sub) in subgrids {
        if sub.cell_count() == 0 {
            out.op(name, Err("the spec has no cell for this sub-grid".into()));
            continue;
        }
        let (rows, s) = timed(|| run_campaign(&sub, &exec));
        let result = check_grid(&rows, &sub).map(|starved_fps| report_starved(name, starved_fps));
        out.op(name, result);
        out.set(name, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    #[test]
    fn toy_grid_emits_every_end_to_end_metric_and_passes() {
        let spec = toy_spec(2);
        let mut out = Outcome::default();
        measure(&spec, 0.0, Executor::new(2), &mut out);
        assert_eq!(out.failures, Vec::<String>::new());
        assert_eq!(out.attempted, MIN_GRIDS as u64);
        let line = out.to_json(END_TO_END).expect("every metric measured");
        for (name, unit) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        assert!(out.get("completeness").expect("set") > 0.9);
        assert!(out.get("tx_bytes_per_node").expect("set") > 0.0);
    }

    #[test]
    fn toy_traced_grid_emits_every_per_layer_metric() {
        let full = default_spec(2);
        let spec = CampaignSpec {
            environments: vec![full.environments[0].clone(), full.environments[2].clone()],
            ..toy_spec(2)
        };
        let mut out = Outcome::default();
        trace(&spec, 0.0, Executor::new(2), &mut out);
        assert_eq!(out.failures, Vec::<String>::new());
        out.to_json(PER_LAYER).expect("every metric measured");
    }
}
