//! Deterministic fault injection.
//!
//! A [`FaultPlan`] schedules transport-level faults — loss bursts, frame
//! duplication, bounded reordering, payload corruption, per-node
//! crash/reboot windows, and timed jam zones — from a single seed. All
//! randomness is derived through `snd-exec`'s splitmix64 streams, so a plan
//! replays identically inside any trial of a parallel batch regardless of
//! `SND_THREADS`: the plan consumes its *own* RNG, never the simulator's,
//! and a run without a plan draws nothing extra at all.
//!
//! Faults surface through the existing accounting: injected drops land in
//! [`crate::metrics::Metrics`] under their own [`DropReason`]s
//! (`BurstLoss`, `NodeDown`, `Corrupted`, `DuplicateSuppressed`), and
//! non-drop injections (duplication, reordering, corruption, crash
//! scheduling) are tallied per [`FaultKind`] and forwarded to the
//! installed [`crate::trace::TraceHook`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use snd_exec::{splitmix64, stream_seed};
use snd_topology::NodeId;

use crate::jamming::JamZone;
use crate::metrics::DropReason;
use crate::time::{SimDuration, SimTime};

/// Sub-stream label for per-frame fault decisions.
const FRAME_STREAM: u64 = 0xFA01;
/// Sub-stream label for per-node crash-window derivation.
const CRASH_STREAM: u64 = 0xFA02;

/// Kinds of injected (non-drop) faults, for tracing and counters.
///
/// Drops caused by a plan are *not* listed here — they flow through
/// [`DropReason`] like every other drop. A `FaultKind` marks a frame that
/// was tampered with but still scheduled, or a node-level event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum FaultKind {
    /// A scheduled frame was cloned; both copies share one frame id.
    Duplicated,
    /// A scheduled frame was held back by an extra bounded delay.
    Reordered,
    /// A scheduled frame's payload was mangled in flight.
    Corrupted,
    /// A node was scheduled for a crash/reboot window.
    NodeCrash,
}

impl FaultKind {
    /// Every kind, in declaration order — which is both the `Ord` order
    /// and the discriminant order, so `kind as usize` indexes this array.
    pub(crate) const ALL: [FaultKind; 4] = [
        FaultKind::Duplicated,
        FaultKind::Reordered,
        FaultKind::Corrupted,
        FaultKind::NodeCrash,
    ];
}

/// A window of elevated loss, `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LossBurst {
    /// Burst start (inclusive).
    pub from: SimTime,
    /// Burst end (exclusive).
    pub until: SimTime,
    /// Loss probability applied to frames sent inside the window.
    pub loss: f64,
}

impl LossBurst {
    /// Whether the burst covers `t`.
    pub fn covers(&self, t: SimTime) -> bool {
        t >= self.from && t < self.until
    }
}

/// The serializable knobs of a fault plan.
///
/// Probabilities are per scheduled frame (after the link model has already
/// let it through); everything defaults to off, so
/// `FaultSpec::default()` injects nothing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultSpec {
    /// Uniform extra loss probability on every scheduled frame.
    pub loss: f64,
    /// Timed windows of elevated loss (checked before `loss`).
    pub bursts: Vec<LossBurst>,
    /// Probability a scheduled frame is duplicated.
    pub duplicate: f64,
    /// Probability a scheduled frame picks up an extra delay (reordering).
    pub reorder: f64,
    /// Maximum extra delay a reordered frame (or duplicate copy) can pick
    /// up; actual delays are uniform in `[1 µs, max_extra_delay]`.
    pub max_extra_delay: SimDuration,
    /// Probability a scheduled frame's payload is corrupted.
    pub corrupt: f64,
    /// Fraction of corruptions the receiver's link layer detects (CRC);
    /// detected corruption is dropped at delivery as
    /// [`DropReason::Corrupted`], the rest reaches the protocol mangled.
    pub corrupt_detectable: f64,
    /// Per-node probability of one crash/reboot window.
    pub crash: f64,
    /// Earliest crash-window start.
    pub crash_from: SimTime,
    /// Latest crash-window start.
    pub crash_until: SimTime,
    /// Length of each crash window (radio dead, state preserved).
    pub crash_len: SimDuration,
    /// Jam zones the plan installs into the simulator.
    pub jams: Vec<JamZone>,
    /// Receiver-side duplicate-suppression window: the last `dedup_window`
    /// delivered frame ids are remembered per node, and re-deliveries
    /// within the window are dropped as
    /// [`DropReason::DuplicateSuppressed`]. 0 disables suppression, so
    /// every duplicate reaches the protocol (which must be idempotent).
    pub dedup_window: usize,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            loss: 0.0,
            bursts: Vec::new(),
            duplicate: 0.0,
            reorder: 0.0,
            max_extra_delay: SimDuration::from_millis(2),
            corrupt: 0.0,
            corrupt_detectable: 0.5,
            crash: 0.0,
            crash_from: SimTime::ZERO,
            crash_until: SimTime::ZERO,
            crash_len: SimDuration::from_millis(20),
            jams: Vec::new(),
            dedup_window: 16,
        }
    }
}

impl FaultSpec {
    /// Whether the spec can affect any frame at all.
    pub fn is_inert(&self) -> bool {
        self.loss <= 0.0
            && self.bursts.is_empty()
            && self.duplicate <= 0.0
            && self.reorder <= 0.0
            && self.corrupt <= 0.0
            && self.crash <= 0.0
            && self.jams.is_empty()
    }
}

/// What a plan decided for one scheduled frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FrameFaults {
    /// Drop the frame before scheduling, for this reason.
    pub drop: Option<DropReason>,
    /// Mangle the payload.
    pub corrupt: bool,
    /// Corruption is CRC-detectable (dropped at delivery).
    pub corrupt_detectable: bool,
    /// Extra delay on top of the base latency (reordering).
    pub extra_delay: SimDuration,
    /// Schedule a second copy with this extra delay.
    pub duplicate: Option<SimDuration>,
}

impl FrameFaults {
    pub(crate) const CLEAN: FrameFaults = FrameFaults {
        drop: None,
        corrupt: false,
        corrupt_detectable: false,
        extra_delay: SimDuration::ZERO,
        duplicate: None,
    };
}

/// A seeded, replayable schedule of transport faults.
///
/// Per-frame decisions consume the plan's private RNG in the simulator's
/// deterministic send order; per-node crash windows are pure functions of
/// `(plan seed, node id)`, so they do not depend on deployment order.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
    seed: u64,
    rng: StdRng,
}

impl FaultPlan {
    /// Builds a plan from `spec`, deriving all randomness from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if any probability lies outside `[0, 1]` or a burst window
    /// is unordered.
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        for (name, p) in [
            ("loss", spec.loss),
            ("duplicate", spec.duplicate),
            ("reorder", spec.reorder),
            ("corrupt", spec.corrupt),
            ("corrupt_detectable", spec.corrupt_detectable),
            ("crash", spec.crash),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} probability {p} invalid");
        }
        for b in &spec.bursts {
            assert!(
                (0.0..=1.0).contains(&b.loss),
                "burst loss {} invalid",
                b.loss
            );
            assert!(b.from <= b.until, "burst window must be ordered");
        }
        assert!(
            spec.crash_from <= spec.crash_until,
            "crash window bounds must be ordered"
        );
        let rng = StdRng::seed_from_u64(stream_seed(seed, FRAME_STREAM));
        FaultPlan { spec, seed, rng }
    }

    /// The plan's knobs.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The seed the plan was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Maps a node-keyed hash to `[0, 1)`.
    fn unit(z: u64) -> f64 {
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The crash/reboot window scheduled for `node`, if any.
    ///
    /// Pure in `(seed, node)`: the same node gets the same window whether
    /// it is deployed first or last, queried once or a million times.
    pub fn crash_window(&self, node: NodeId) -> Option<(SimTime, SimTime)> {
        if self.spec.crash <= 0.0 {
            return None;
        }
        let z = splitmix64(stream_seed(self.seed, CRASH_STREAM) ^ splitmix64(node.0));
        if Self::unit(z) >= self.spec.crash {
            return None;
        }
        let span = self.spec.crash_until.as_micros() - self.spec.crash_from.as_micros();
        let offset = if span == 0 {
            0
        } else {
            splitmix64(z) % (span + 1)
        };
        let start = self.spec.crash_from + SimDuration::from_micros(offset);
        Some((start, start + self.spec.crash_len))
    }

    /// Whether `node`'s radio is inside its crash window at `t`.
    pub fn is_down(&self, node: NodeId, t: SimTime) -> bool {
        self.crash_window(node)
            .is_some_and(|(from, until)| t >= from && t < until)
    }

    /// Rolls a probability, consuming the plan RNG only when `p > 0`.
    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen::<f64>() < p
    }

    /// An extra delay in `[1 µs, max_extra_delay]` (minimum 1 µs so the
    /// copy genuinely lands later than the base latency).
    fn extra_delay(&mut self) -> SimDuration {
        let max = self.spec.max_extra_delay.as_micros().max(1);
        SimDuration::from_micros(self.rng.gen_range(1..=max))
    }

    /// Decides every fault for one frame scheduled at `at`.
    pub(crate) fn decide_frame(&mut self, at: SimTime) -> FrameFaults {
        if self.spec.is_inert() {
            return FrameFaults::CLEAN;
        }
        for i in 0..self.spec.bursts.len() {
            let b = self.spec.bursts[i];
            if b.covers(at) && self.chance(b.loss) {
                return FrameFaults {
                    drop: Some(DropReason::BurstLoss),
                    ..FrameFaults::CLEAN
                };
            }
        }
        if self.chance(self.spec.loss) {
            return FrameFaults {
                drop: Some(DropReason::LinkLoss),
                ..FrameFaults::CLEAN
            };
        }
        let corrupt = self.chance(self.spec.corrupt);
        let corrupt_detectable = corrupt && self.chance(self.spec.corrupt_detectable);
        let extra_delay = if self.chance(self.spec.reorder) {
            self.extra_delay()
        } else {
            SimDuration::ZERO
        };
        let duplicate = if self.chance(self.spec.duplicate) {
            Some(self.extra_delay())
        } else {
            None
        };
        FrameFaults {
            drop: None,
            corrupt,
            corrupt_detectable,
            extra_delay,
            duplicate,
        }
    }

    /// Flips one payload byte (deterministically chosen) to a different
    /// value. Empty payloads gain a garbage byte instead.
    pub(crate) fn mangle(&mut self, payload: &mut Vec<u8>) {
        if payload.is_empty() {
            payload.push(0xA5);
            return;
        }
        let idx = self.rng.gen_range(0..payload.len());
        // XOR with a nonzero mask guarantees the byte actually changes.
        payload[idx] ^= 0x55;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn fault_kind_discriminants_index_all() {
        for (idx, kind) in FaultKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, idx);
        }
        assert!(FaultKind::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn default_spec_is_inert() {
        assert!(FaultSpec::default().is_inert());
        let mut plan = FaultPlan::new(FaultSpec::default(), 1);
        let f = plan.decide_frame(SimTime::ZERO);
        assert_eq!(f, FrameFaults::CLEAN);
        assert!(plan.crash_window(n(5)).is_none());
    }

    #[test]
    fn decisions_replay_identically() {
        let spec = FaultSpec {
            loss: 0.3,
            duplicate: 0.2,
            reorder: 0.2,
            corrupt: 0.1,
            ..FaultSpec::default()
        };
        let run = |seed: u64| {
            let mut plan = FaultPlan::new(spec.clone(), seed);
            (0..200)
                .map(|i| plan.decide_frame(SimTime::from_millis(i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds diverge");
    }

    #[test]
    fn uniform_loss_hits_roughly_its_rate() {
        let spec = FaultSpec {
            loss: 0.3,
            ..FaultSpec::default()
        };
        let mut plan = FaultPlan::new(spec, 4);
        let dropped = (0..1000)
            .filter(|_| plan.decide_frame(SimTime::ZERO).drop.is_some())
            .count();
        assert!((200..400).contains(&dropped), "dropped {dropped}/1000");
    }

    #[test]
    fn bursts_only_apply_inside_their_window() {
        let spec = FaultSpec {
            bursts: vec![LossBurst {
                from: SimTime::from_millis(10),
                until: SimTime::from_millis(20),
                loss: 1.0,
            }],
            ..FaultSpec::default()
        };
        let mut plan = FaultPlan::new(spec, 4);
        assert!(plan.decide_frame(SimTime::from_millis(5)).drop.is_none());
        assert_eq!(
            plan.decide_frame(SimTime::from_millis(15)).drop,
            Some(DropReason::BurstLoss)
        );
        assert!(plan.decide_frame(SimTime::from_millis(20)).drop.is_none());
    }

    #[test]
    fn crash_windows_are_node_order_independent() {
        let spec = FaultSpec {
            crash: 0.5,
            crash_from: SimTime::from_millis(10),
            crash_until: SimTime::from_millis(100),
            crash_len: SimDuration::from_millis(30),
            ..FaultSpec::default()
        };
        let plan = FaultPlan::new(spec.clone(), 77);
        let windows: Vec<_> = (0..64).map(|i| plan.crash_window(n(i))).collect();
        let crashed = windows.iter().filter(|w| w.is_some()).count();
        assert!((10..55).contains(&crashed), "crashed {crashed}/64");
        // Re-querying (any order) gives identical windows.
        let plan2 = FaultPlan::new(spec, 77);
        for i in (0..64).rev() {
            assert_eq!(plan2.crash_window(n(i)), windows[i as usize]);
        }
        // Windows respect the configured bounds.
        for (from, until) in windows.into_iter().flatten() {
            assert!(from >= SimTime::from_millis(10));
            assert!(from <= SimTime::from_millis(100));
            assert_eq!(until, from + SimDuration::from_millis(30));
        }
    }

    #[test]
    fn is_down_tracks_the_window() {
        let spec = FaultSpec {
            crash: 1.0,
            crash_from: SimTime::from_millis(50),
            crash_until: SimTime::from_millis(50),
            crash_len: SimDuration::from_millis(10),
            ..FaultSpec::default()
        };
        let plan = FaultPlan::new(spec, 3);
        let (from, until) = plan.crash_window(n(1)).expect("crash=1.0 always crashes");
        assert_eq!(from, SimTime::from_millis(50));
        assert_eq!(until, SimTime::from_millis(60));
        assert!(!plan.is_down(n(1), SimTime::from_millis(49)));
        assert!(plan.is_down(n(1), SimTime::from_millis(50)));
        assert!(plan.is_down(n(1), SimTime::from_millis(59)));
        assert!(!plan.is_down(n(1), SimTime::from_millis(60)), "reboot");
    }

    #[test]
    fn mangle_always_changes_the_payload() {
        let mut plan = FaultPlan::new(FaultSpec::default(), 8);
        for len in [1usize, 2, 64] {
            let original = vec![0x11u8; len];
            let mut mangled = original.clone();
            plan.mangle(&mut mangled);
            assert_ne!(mangled, original, "len {len}");
            assert_eq!(mangled.len(), original.len());
        }
        let mut empty = Vec::new();
        plan.mangle(&mut empty);
        assert!(!empty.is_empty(), "empty payloads gain a garbage byte");
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_probability_panics() {
        let spec = FaultSpec {
            loss: 1.5,
            ..FaultSpec::default()
        };
        FaultPlan::new(spec, 1);
    }
}
