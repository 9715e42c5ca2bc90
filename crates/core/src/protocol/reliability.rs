//! Retransmission policy for the discovery wave.
//!
//! The paper's localized protocol runs inside a short deployment-time
//! security window — exactly when real sensor radios lose, duplicate and
//! reorder frames. [`ReliabilityConfig`] parameterizes the engine's ARQ
//! layer: bounded retransmission with exponential backoff for the
//! record-collection pull loop and the acknowledged commitment/evidence
//! unicasts, repeated Hello rounds, and a per-phase wall-clock timeout
//! after which the wave degrades gracefully (partial tentative topology +
//! unconfirmed links named in the `WaveReport`) instead of stalling.
//!
//! This type deliberately lives *outside* `ProtocolConfig`: the protocol
//! config is serialized into every run report (a frozen schema), and
//! retransmission is an engine/transport concern, not part of the paper's
//! security protocol.

use snd_sim::time::SimDuration;

/// How hard the engine works to push a wave through a lossy transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliabilityConfig {
    /// Master switch. Disabled reproduces the legacy fire-and-forget wave
    /// byte-for-byte (single Hello round, one RecordRequest per record,
    /// unacknowledged commitments).
    pub enabled: bool,
    /// Retransmissions allowed per outstanding item after the first
    /// attempt (budget 9 ⇒ up to 10 attempts).
    pub retry_budget: u32,
    /// Hello broadcast rounds per node in the hello phase (cut short by
    /// `phase_timeout`). Each round is two delivery pumps
    /// (`engine::pump`, DESIGN.md §14): one delivering the Hellos,
    /// one delivering the HelloAcks they triggered. Rounds past the first
    /// count as retransmissions; `add_tentative` is idempotent, so replay
    /// only fills in what loss dropped.
    pub hello_rounds: u32,
    /// Backoff before the first retransmission; doubles per attempt.
    pub base_backoff: SimDuration,
    /// Upper bound on the per-attempt backoff.
    pub max_backoff: SimDuration,
    /// Wall-clock budget per retransmitting phase; on expiry the wave
    /// gives up on whatever is still missing and degrades gracefully.
    pub phase_timeout: SimDuration,
}

impl ReliabilityConfig {
    /// The legacy lossless-channel behavior: no retries, no acks, no
    /// timeouts. This is the engine default, so existing message counts
    /// and traces are unchanged unless reliability is asked for.
    pub fn legacy() -> Self {
        ReliabilityConfig {
            enabled: false,
            retry_budget: 0,
            hello_rounds: 1,
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::ZERO,
            phase_timeout: SimDuration::ZERO,
        }
    }

    /// The backoff to wait after attempt number `attempt` (0-based),
    /// exponentially doubled and capped at `max_backoff`.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let base = self.base_backoff.as_micros();
        let scaled = base.saturating_mul(1u64 << attempt.min(32));
        SimDuration::from_micros(scaled.min(self.max_backoff.as_micros()))
    }
}

impl Default for ReliabilityConfig {
    /// The default ARQ policy: 10 attempts per item with 4 ms → 32 ms
    /// exponential backoff, 10 Hello rounds, and a 400 ms phase budget.
    /// At 30% injected loss the per-item residual failure rate is
    /// ≈ 0.3¹⁰ ≈ 6 × 10⁻⁶, which comfortably clears the ≥ 0.99
    /// completeness target of the loss-sweep experiment.
    fn default() -> Self {
        ReliabilityConfig {
            enabled: true,
            retry_budget: 9,
            hello_rounds: 10,
            base_backoff: SimDuration::from_millis(4),
            max_backoff: SimDuration::from_millis(32),
            phase_timeout: SimDuration::from_millis(400),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_is_disabled() {
        let r = ReliabilityConfig::legacy();
        assert!(!r.enabled);
        assert_eq!(r.retry_budget, 0);
        assert_eq!(r.hello_rounds, 1);
    }

    #[test]
    fn default_is_enabled_with_retries() {
        let r = ReliabilityConfig::default();
        assert!(r.enabled);
        assert!(r.retry_budget >= 1);
        assert!(r.hello_rounds >= 2);
        assert!(r.phase_timeout > SimDuration::ZERO);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let r = ReliabilityConfig::default();
        assert_eq!(r.backoff(0), SimDuration::from_millis(4));
        assert_eq!(r.backoff(1), SimDuration::from_millis(8));
        assert_eq!(r.backoff(2), SimDuration::from_millis(16));
        assert_eq!(r.backoff(3), SimDuration::from_millis(32));
        assert_eq!(r.backoff(4), SimDuration::from_millis(32), "capped");
        assert_eq!(r.backoff(63), SimDuration::from_millis(32), "no overflow");
    }
}
