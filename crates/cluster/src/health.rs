//! Per-leaf health tracking, the retry policy and the coverage contract.
//!
//! Every physical leaf carries a tiny state machine driven by the
//! aggregator's observations of its calls:
//!
//! ```text
//! Healthy ──failure──▶ Suspect ──retries exhausted──▶ Down
//!    ▲                    │                            │
//!    └─────success────────┘        rejoin (replay +    │
//!    ▲                              catch-up)          ▼
//!    └──────────success──────────────────────────── Recovered
//! ```
//!
//! A transient fault marks the leaf *Suspect* and is retried under
//! [`RetryPolicy`] — bounded attempts, deterministic exponential backoff,
//! a fixed timeout deadline per hung attempt. Exhausting the retries
//! marks the leaf *Down*: it is skipped (queries fail over to the next
//! replica in its shard group; mutations are logged for catch-up) until
//! [`rejoin_leaf`](crate::ClusterSystem::rejoin_leaf) replays what it
//! missed, after which the
//! first successful call completes the round trip back to *Healthy*.
//!
//! [`ShardCoverage`] is the degradation contract: a query outcome always
//! says exactly which shards answered. Full coverage means the answer is
//! bit-identical to the no-fault run; partial coverage means it is
//! bit-identical to a single-device deployment of the covered shards.

use reis_nand::Nanos;

/// One leaf's position in the health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Serving normally.
    Healthy,
    /// At least one recent call failed; still being tried.
    Suspect,
    /// Out of retries (or killed by the fault plan): skipped by queries
    /// and mutations until it rejoins.
    Down,
    /// Rejoined after being down (durable replay + aggregator catch-up);
    /// promoted back to [`HealthState::Healthy`] by the next success.
    Recovered,
}

/// Health bookkeeping of one physical leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafHealth {
    state: HealthState,
    /// Aggregator-log position at which the leaf went down: the first
    /// logged mutation it missed and must replay on rejoin.
    down_at_log: usize,
}

impl LeafHealth {
    /// A healthy leaf.
    pub fn new() -> Self {
        LeafHealth {
            state: HealthState::Healthy,
            down_at_log: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Whether the leaf is down (skipped by queries and mutations).
    pub fn is_down(&self) -> bool {
        self.state == HealthState::Down
    }

    /// Aggregator-log position recorded when the leaf went down.
    pub fn down_at_log(&self) -> usize {
        self.down_at_log
    }

    pub(crate) fn on_success(&mut self) {
        self.state = HealthState::Healthy;
    }

    pub(crate) fn on_failure(&mut self) {
        if self.state != HealthState::Down {
            self.state = HealthState::Suspect;
        }
    }

    pub(crate) fn mark_down(&mut self, log_position: usize) {
        if self.state != HealthState::Down {
            self.state = HealthState::Down;
            self.down_at_log = log_position;
        }
    }

    pub(crate) fn rejoin(&mut self) {
        if self.state == HealthState::Down {
            self.state = HealthState::Recovered;
        }
    }
}

impl Default for LeafHealth {
    fn default() -> Self {
        LeafHealth::new()
    }
}

/// Bounded-retry policy for faulted leaf calls. Everything is modelled
/// time and pure arithmetic — the same fault schedule always produces the
/// same retry trace and the same modelled latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`max_retries + 1` attempts total
    /// per replica per call).
    pub max_retries: u32,
    /// Backoff before retry `n` is `backoff_base << n` (deterministic
    /// exponential, saturating).
    pub backoff_base: Nanos,
    /// Modelled time charged for an attempt the fault plan times out (the
    /// aggregator stops waiting at this deadline).
    pub deadline: Nanos,
}

impl RetryPolicy {
    /// A policy with explicit bounds.
    pub const fn new(max_retries: u32, backoff_base: Nanos, deadline: Nanos) -> Self {
        RetryPolicy {
            max_retries,
            backoff_base,
            deadline,
        }
    }

    /// The backoff charged before retry `attempt` (0-based):
    /// `backoff_base × 2^attempt`, saturating.
    pub fn backoff(&self, attempt: u32) -> Nanos {
        let shift = attempt.min(20);
        Nanos::from_nanos(self.backoff_base.as_nanos().saturating_mul(1u64 << shift))
    }
}

impl Default for RetryPolicy {
    /// Two retries, 100 µs base backoff, a 5 ms timeout deadline.
    fn default() -> Self {
        RetryPolicy::new(2, Nanos::from_micros(100), Nanos::from_millis(5))
    }
}

/// Which shards contributed to a query answer — the degradation contract
/// carried by every `ClusterSearchOutcome`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCoverage {
    covered: Vec<bool>,
}

impl ShardCoverage {
    pub(crate) fn new(covered: Vec<bool>) -> Self {
        ShardCoverage { covered }
    }

    /// Whether every shard answered (the bit-identical-to-no-fault case).
    pub fn is_full(&self) -> bool {
        self.covered.iter().all(|&c| c)
    }

    /// Whether shard `shard` answered.
    pub fn covered(&self, shard: usize) -> bool {
        self.covered[shard]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_walks_the_documented_state_machine() {
        let mut health = LeafHealth::new();
        assert_eq!(health.state(), HealthState::Healthy);
        health.on_failure();
        assert_eq!(health.state(), HealthState::Suspect);
        health.on_success();
        assert_eq!(health.state(), HealthState::Healthy);

        health.on_failure();
        health.mark_down(7);
        assert!(health.is_down());
        assert_eq!(health.down_at_log(), 7);
        // A second mark keeps the original log position.
        health.mark_down(99);
        assert_eq!(health.down_at_log(), 7);

        health.rejoin();
        assert_eq!(health.state(), HealthState::Recovered);
        assert!(!health.is_down());
        health.on_success();
        assert_eq!(health.state(), HealthState::Healthy);
    }

    #[test]
    fn backoff_is_exponential_and_saturating() {
        let policy = RetryPolicy::new(3, Nanos::from_nanos(100), Nanos::from_millis(1));
        assert_eq!(policy.backoff(0), Nanos::from_nanos(100));
        assert_eq!(policy.backoff(1), Nanos::from_nanos(200));
        assert_eq!(policy.backoff(4), Nanos::from_nanos(1_600));
        // Deep attempts clamp instead of overflowing.
        assert_eq!(policy.backoff(63), policy.backoff(64));
    }

    #[test]
    fn coverage_reports_exactly_the_missing_shards() {
        let full = ShardCoverage::new(vec![true, true, true]);
        assert!(full.is_full());
        assert!((0..3).all(|shard| full.covered(shard)));

        let partial = ShardCoverage::new(vec![true, false, true, false]);
        assert!(!partial.is_full());
        let missing: Vec<usize> = (0..4).filter(|&shard| !partial.covered(shard)).collect();
        assert_eq!(missing, vec![1, 3]);
    }
}
