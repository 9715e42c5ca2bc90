//! # snd-bench
//!
//! Shared infrastructure for the experiment binaries that regenerate the
//! paper's evaluation (see `DESIGN.md`'s experiment index):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig3` | Figure 3 — accuracy vs threshold `t` (theory + simulation) |
//! | `fig4` | Figure 4 — accuracy vs deployment density |
//! | `safety` | Theorems 3 & 4 — empirical 2R / (m+1)R safety (E5, E6, E11) |
//! | `generic_attack` | Theorems 1 & 2 — the generic attack (E7) |
//! | `compare_parno` | Section 4.5.3 — comparison with Parno et al. (E8) |
//! | `overhead` | Section 4.3 — storage/message/hash-op accounting (E9) |
//! | `app_impact` | Section 1 — routing/clustering/aggregation impact (E10) |
//!
//! This library provides the text-table rendering and simulation helpers
//! those binaries share. The row-producing logic itself lives in
//! [`experiments`]; the binaries are thin CLI shells over it, and every
//! experiment fans its independent trials out over an
//! [`snd_exec::Executor`] (`SND_THREADS` workers) while keeping the merged
//! output byte-identical at any thread count. Each binary also appends one
//! machine-readable [`RunReport`](snd_observe::report::RunReport) per table row to
//! `results/<name>.jsonl` (see [`report`]).

#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod scenario;
pub mod table;

pub use report::{attach_recorder, engine_report, ExperimentLog};
pub use scenario::{
    figure_report, paper_scenario, simulate_center_accuracy, simulate_center_accuracy_observed,
    CenterAccuracyStats, PaperScenario,
};
pub use table::Table;
