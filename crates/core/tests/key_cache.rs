//! Neighbor-key derivation accounting under replay.
//!
//! The wave derives a verification key `K_v` per (u, v) relation through
//! `KeyCache::get_or_derive`; this suite pins the "exactly one derivation
//! per (u, v) pair per wave" contract under transport replay. The
//! arithmetic lever: one derivation costs exactly **one** hash op
//! (`verification_key` is a single labeled SHA-256), and every cache hit
//! is one *avoided* derivation — so for the same scenario run with the
//! memo on and off,
//!
//! ```text
//! hash_ops(off) - hash_ops(on) == key_cache_hits(on)
//! ```
//!
//! holds iff the cache absorbed every redundant derivation and nothing
//! else, i.e. each pair derived exactly once with the memo on.

use snd_core::protocol::{DiscoveryEngine, ProtocolConfig, ReliabilityConfig};
use snd_sim::faults::{FaultPlan, FaultSpec};
use snd_sim::radio::{AnyLinkModel, LossyDisk};
use snd_sim::time::SimDuration;
use snd_topology::unit_disk::RadioSpec;
use snd_topology::{DiGraph, Field};

fn reliability() -> ReliabilityConfig {
    ReliabilityConfig {
        enabled: true,
        retry_budget: 3,
        hello_rounds: 3,
        base_backoff: SimDuration::from_millis(4),
        max_backoff: SimDuration::from_millis(32),
        phase_timeout: SimDuration::from_millis(400),
    }
}

struct RunStats {
    hash_ops: u64,
    cache_hits: u64,
    functional: DiGraph,
}

/// One reliable wave over a 120-node field with optional duplication
/// replay and link loss; returns the derivation accounting.
fn wave(seed: u64, cache: bool, duplicate: bool, loss: f64) -> RunStats {
    let mut engine = DiscoveryEngine::new(
        Field::square(240.0),
        RadioSpec::uniform(50.0),
        ProtocolConfig::with_threshold(2),
        seed,
    );
    engine.set_reliability(reliability());
    engine.set_key_cache(cache);
    if duplicate {
        // Every frame re-delivered, duplicate suppression off: the
        // protocol sees each commitment and record at least twice.
        engine.sim_mut().set_fault_plan(FaultPlan::new(
            FaultSpec {
                duplicate: 1.0,
                dedup_window: 0,
                ..FaultSpec::default()
            },
            seed,
        ));
    }
    if loss > 0.0 {
        engine
            .sim_mut()
            .set_link_model(AnyLinkModel::LossyDisk(LossyDisk::new(loss)));
    }
    let ids = engine.deploy_uniform(120);
    engine.run_wave(&ids);
    RunStats {
        hash_ops: engine.hash_ops(),
        cache_hits: engine.key_cache_hits(),
        functional: engine.functional_topology(),
    }
}

#[test]
fn clean_wave_never_derives_a_pair_twice_to_begin_with() {
    // On a lossless, fault-free wave the protocol itself touches each
    // (u, v) derivation once, so the memo has nothing to absorb: zero
    // hits, and switching it off changes no arithmetic at all.
    let on = wave(41, true, false, 0.0);
    let off = wave(41, false, false, 0.0);
    assert_eq!(on.cache_hits, 0, "clean wave must not re-derive any pair");
    assert_eq!(on.hash_ops, off.hash_ops);
    assert_eq!(on.functional, off.functional);
}

#[test]
fn duplication_replay_derives_each_pair_exactly_once() {
    let on = wave(42, true, true, 0.0);
    let off = wave(42, false, true, 0.0);
    assert_eq!(
        on.functional, off.functional,
        "memoization must not change what validates"
    );
    assert!(
        on.cache_hits > 0,
        "duplicated commitments must hit the memo"
    );
    assert_eq!(off.cache_hits, 0);
    // Exactly-once: every redundant derivation (1 hash op each) — and
    // nothing else — was absorbed by the cache.
    assert_eq!(
        off.hash_ops - on.hash_ops,
        on.cache_hits,
        "cache savings must equal avoided derivations one-for-one"
    );
}

#[test]
fn arq_retransmission_replay_derives_each_pair_exactly_once() {
    // Lossy links make the reliability layer re-send commitments and
    // records; re-verification of a re-delivered frame must reuse the
    // derived key, not re-derive it.
    let on = wave(43, true, false, 0.25);
    let off = wave(43, false, false, 0.25);
    assert_eq!(on.functional, off.functional);
    assert_eq!(
        off.hash_ops - on.hash_ops,
        on.cache_hits,
        "ARQ replay: savings must equal avoided derivations one-for-one"
    );
}

#[test]
fn combined_duplication_and_loss_still_derive_once_per_pair() {
    let on = wave(44, true, true, 0.2);
    let off = wave(44, false, true, 0.2);
    assert_eq!(on.functional, off.functional);
    assert!(on.cache_hits > 0);
    assert_eq!(off.hash_ops - on.hash_ops, on.cache_hits);
}
