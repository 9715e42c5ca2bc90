//! Delivery-order-permutation properties of the wave phases.
//!
//! The transport fault plan's reorder/duplicate knobs permute the order
//! frames reach their receivers (extra per-frame delays draw from the
//! plan's seeded RNG), so sweeping the plan seed sweeps delivery-order
//! permutations of the *same* logical traffic. Two invariant families:
//!
//! 1. **Outcome invariance** — with a loss-free link, the wave's
//!    *converged protocol state* (tentative and functional topologies,
//!    rejected records/commitments, unconfirmed links) must not depend
//!    on the delivery order. Reordering may cost retransmissions and
//!    duplicate-discards, but never a relation: the hello phase
//!    re-asserts relations idempotently and the collect/finalize ARQ
//!    loop re-pulls whatever a permutation starved.
//! 2. **Thread invariance under permutation** — for arbitrary
//!    permutation seeds, the wave at 2–8 executor threads must reproduce
//!    the 1-thread wave byte-for-byte (the proptest companion to the
//!    pinned digests in `wave_equivalence.rs`): same report, same
//!    topologies, same hash ops and ledger totals, even though reordering
//!    shuffles which frames share a delivery step and how the per-node
//!    steps split across workers.

use proptest::prelude::*;

use snd_core::protocol::{DiscoveryEngine, ProtocolConfig, ReliabilityConfig, WaveReport};
use snd_exec::Executor;
use snd_sim::faults::{FaultPlan, FaultSpec};
use snd_sim::ledger::NodeComm;
use snd_sim::time::SimDuration;
use snd_topology::unit_disk::RadioSpec;
use snd_topology::{DiGraph, Field};

const RANGE: f64 = 50.0;

fn reliability() -> ReliabilityConfig {
    ReliabilityConfig {
        enabled: true,
        retry_budget: 2,
        hello_rounds: 3,
        base_backoff: SimDuration::from_millis(4),
        max_backoff: SimDuration::from_millis(32),
        phase_timeout: SimDuration::from_millis(400),
    }
}

/// A loss-free fault plan that only permutes delivery: duplicates and
/// extra delays, no drops, no corruption, no crashes.
fn permutation_plan(seed: u64) -> FaultPlan {
    let spec = FaultSpec {
        duplicate: 0.3,
        reorder: 0.5,
        max_extra_delay: SimDuration::from_millis(5),
        dedup_window: 4,
        ..FaultSpec::default()
    };
    FaultPlan::new(spec, seed)
}

/// What a converged wave pins down regardless of delivery order.
#[derive(Debug, PartialEq)]
struct Converged {
    tentative: DiGraph,
    functional: DiGraph,
    rejected_records: u64,
    rejected_commitments: u64,
    unconfirmed_links: Vec<(snd_topology::NodeId, snd_topology::NodeId)>,
}

/// Everything a wave externalizes, for the byte-level differential.
#[derive(Debug, PartialEq)]
struct Exact {
    wave: WaveReport,
    tentative: DiGraph,
    functional: DiGraph,
    hash_ops: u64,
    ledger_totals: NodeComm,
}

fn run_wave(n: usize, deploy_seed: u64, plan: Option<FaultPlan>, threads: usize) -> Exact {
    let mut engine = DiscoveryEngine::new(
        Field::square(180.0),
        RadioSpec::uniform(RANGE),
        ProtocolConfig::with_threshold(2),
        deploy_seed,
    );
    engine.set_reliability(reliability());
    engine.set_executor(Executor::new(threads));
    if let Some(plan) = plan {
        engine.sim_mut().set_fault_plan(plan);
    }
    let ids = engine.deploy_uniform(n);
    let wave = engine.run_wave(&ids);
    Exact {
        tentative: engine.tentative_topology(),
        functional: engine.functional_topology(),
        hash_ops: engine.hash_ops(),
        ledger_totals: engine.sim().ledger().totals().clone(),
        wave,
    }
}

fn converged(exact: &Exact) -> Converged {
    Converged {
        tentative: exact.tentative.clone(),
        functional: exact.functional.clone(),
        rejected_records: exact.wave.rejected_records,
        rejected_commitments: exact.wave.rejected_commitments,
        unconfirmed_links: exact.wave.unconfirmed_links.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Hello + collect under an arbitrary delivery-order permutation
    /// converge to the same protocol state as the undisturbed wave.
    #[test]
    fn wave_outcome_is_invariant_under_delivery_order_permutation(
        n in 30usize..60,
        deploy_seed in 1u64..1000,
        plan_seed in any::<u64>(),
    ) {
        let baseline = run_wave(n, deploy_seed, None, 1);
        let permuted = run_wave(n, deploy_seed, Some(permutation_plan(plan_seed)), 1);
        prop_assert_eq!(converged(&baseline), converged(&permuted));
    }

    /// A permuted wave is identical at any executor width, for arbitrary
    /// permutation seeds — not just the pinned `wave_equivalence.rs`
    /// scenarios.
    #[test]
    fn permuted_wave_is_thread_count_invariant(
        n in 30usize..60,
        deploy_seed in 1u64..1000,
        plan_seed in any::<u64>(),
        threads in 2usize..9,
    ) {
        let one = run_wave(n, deploy_seed, Some(permutation_plan(plan_seed)), 1);
        let many = run_wave(n, deploy_seed, Some(permutation_plan(plan_seed)), threads);
        prop_assert_eq!(one, many);
    }
}
