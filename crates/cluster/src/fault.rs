//! Deterministic fault injection at the aggregator→leaf call boundary.
//!
//! A [`FaultPlan`] is the cluster-level sibling of `reis-persist`'s
//! `FaultVfs`: where that wrapper corrupts *bytes at rest*, this one fails
//! *calls in flight*. Every aggregator→leaf interaction first consults the
//! plan, which rules it one of three ways:
//!
//! * **Ok** — the call executes normally.
//! * **Unavailable** — the call fails fast (modelled as one leaf-service
//!   delay) and is retried under the cluster's `RetryPolicy`.
//! * **Timeout** — the call hangs; the aggregator charges its timeout
//!   deadline and retries.
//!
//! Rulings are a pure function of `(seed, leaf, nth_call)` via the same
//! splitmix64 generator the persistence layer uses, so a fault schedule is
//! fully described by its seed and rates: replaying the same operation
//! trace against the same plan reproduces the exact same faults, which is
//! what lets the property suite compare a faulted run against its
//! no-fault twin bit for bit. Rates are expressed in parts-per-million.
//! A *kill* entry additionally takes a leaf down permanently from its
//! Nth call onward — until [`FaultPlan::revive`] lifts it, modelling the
//! operator repairing the leaf before it rejoins.
//!
//! The plan keeps one cursor per leaf ([`FaultPlan::calls_consumed`])
//! counting the calls actually issued; leaves the cluster already knows
//! are down are skipped *without* consuming a draw, so the schedule stays
//! aligned with the calls that really happen.

use reis_persist::splitmix64;

/// Rates are drawn against one million slots per call.
const PPM_SCALE: u64 = 1_000_000;

/// The plan's ruling on a single aggregator→leaf call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// The call goes through.
    Ok,
    /// The call fails fast with a transient outage.
    Unavailable,
    /// The call hangs until the aggregator's timeout deadline.
    Timeout,
}

/// A seeded, deterministic schedule of leaf-call faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    fail_ppm: u32,
    timeout_ppm: u32,
    /// Permanent kills: leaf `l` answers `Unavailable` to every call from
    /// its `n`th onward (0-based) until revived.
    kills: Vec<(usize, u64)>,
    /// Per-leaf count of calls ruled so far.
    calls: Vec<u64>,
}

impl FaultPlan {
    /// A plan that fails a call with probability `fail_ppm` ppm and times
    /// one out with probability `timeout_ppm` ppm, decided per call by
    /// splitmix64 draws from `seed`.
    ///
    /// # Panics
    ///
    /// When the two rates together exceed one million ppm.
    pub fn new(seed: u64, fail_ppm: u32, timeout_ppm: u32) -> Self {
        assert!(
            u64::from(fail_ppm) + u64::from(timeout_ppm) <= PPM_SCALE,
            "fault rates exceed {PPM_SCALE} ppm"
        );
        FaultPlan {
            seed,
            fail_ppm,
            timeout_ppm,
            kills: Vec::new(),
            calls: Vec::new(),
        }
    }

    /// A plan that never faults — useful as the healthy-path baseline when
    /// measuring the retry machinery's overhead.
    pub fn healthy() -> Self {
        FaultPlan::new(0, 0, 0)
    }

    /// Additionally kill leaf `leaf` permanently at its `nth_call`th call
    /// (0-based): that call and every later one rule `Unavailable` until
    /// [`FaultPlan::revive`].
    pub fn with_kill(mut self, leaf: usize, nth_call: u64) -> Self {
        self.kills.push((leaf, nth_call));
        self
    }

    /// Lift every kill on `leaf`, modelling the leaf being repaired before
    /// it rejoins the cluster. Random fail/timeout rates still apply.
    pub fn revive(&mut self, leaf: usize) {
        self.kills.retain(|&(killed, _)| killed != leaf);
    }

    /// The ruling for leaf `leaf`'s `call`th call (0-based). Pure in
    /// `(seed, leaf, call)` — this is the function [`FaultPlan::decide`]
    /// samples along each leaf's call cursor.
    pub fn decision_at(&self, leaf: usize, call: u64) -> FaultDecision {
        if self
            .kills
            .iter()
            .any(|&(killed, nth)| killed == leaf && call >= nth)
        {
            return FaultDecision::Unavailable;
        }
        if self.fail_ppm == 0 && self.timeout_ppm == 0 {
            return FaultDecision::Ok;
        }
        let mut state = self
            .seed
            .wrapping_add((leaf as u64).wrapping_mul(0xA24B_AED4_963E_E407))
            .wrapping_add(call.wrapping_mul(0x9FB2_1C65_1E98_DF25));
        let draw = splitmix64(&mut state) % PPM_SCALE;
        if draw < u64::from(self.fail_ppm) {
            FaultDecision::Unavailable
        } else if draw < u64::from(self.fail_ppm) + u64::from(self.timeout_ppm) {
            FaultDecision::Timeout
        } else {
            FaultDecision::Ok
        }
    }

    /// Rule the next call to `leaf`, consuming one slot of its schedule.
    pub fn decide(&mut self, leaf: usize) -> FaultDecision {
        if self.calls.len() <= leaf {
            self.calls.resize(leaf + 1, 0);
        }
        let call = self.calls[leaf];
        self.calls[leaf] += 1;
        self.decision_at(leaf, call)
    }

    /// How many calls to `leaf` the plan has ruled so far.
    pub fn calls_consumed(&self, leaf: usize) -> u64 {
        self.calls.get(leaf).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_cursor_aligned() {
        let mut a = FaultPlan::new(42, 200_000, 100_000);
        let mut b = FaultPlan::new(42, 200_000, 100_000);
        for leaf in [0usize, 1, 0, 2, 1, 0] {
            assert_eq!(a.decide(leaf), b.decide(leaf));
        }
        assert_eq!(a.calls_consumed(0), 3);
        assert_eq!(a.calls_consumed(2), 1);
        // The stateful cursor samples the pure function.
        let plan = FaultPlan::new(42, 200_000, 100_000);
        let mut replay = FaultPlan::new(42, 200_000, 100_000);
        for call in 0..3 {
            assert_eq!(replay.decide(0), plan.decision_at(0, call));
        }
    }

    #[test]
    fn rates_are_roughly_honoured_and_disjoint() {
        let plan = FaultPlan::new(7, 250_000, 125_000);
        let mut fails = 0u32;
        let mut timeouts = 0u32;
        const DRAWS: u64 = 20_000;
        for call in 0..DRAWS {
            match plan.decision_at(3, call) {
                FaultDecision::Unavailable => fails += 1,
                FaultDecision::Timeout => timeouts += 1,
                FaultDecision::Ok => {}
            }
        }
        let fail_rate = f64::from(fails) / DRAWS as f64;
        let timeout_rate = f64::from(timeouts) / DRAWS as f64;
        assert!((fail_rate - 0.25).abs() < 0.02, "fail rate {fail_rate}");
        assert!(
            (timeout_rate - 0.125).abs() < 0.02,
            "timeout rate {timeout_rate}"
        );
    }

    #[test]
    fn zero_rate_plans_never_fault() {
        let mut plan = FaultPlan::healthy();
        for _ in 0..1_000 {
            assert_eq!(plan.decide(0), FaultDecision::Ok);
        }
    }

    #[test]
    fn kills_are_permanent_until_revived() {
        let mut plan = FaultPlan::healthy().with_kill(1, 2);
        assert_eq!(plan.decide(1), FaultDecision::Ok);
        assert_eq!(plan.decide(1), FaultDecision::Ok);
        assert_eq!(plan.decide(1), FaultDecision::Unavailable);
        assert_eq!(plan.decide(1), FaultDecision::Unavailable);
        // Other leaves are untouched.
        assert_eq!(plan.decide(0), FaultDecision::Ok);
        plan.revive(1);
        assert_eq!(plan.decide(1), FaultDecision::Ok);
    }

    #[test]
    fn leaves_decide_independently() {
        let plan = FaultPlan::new(99, 500_000, 0);
        let per_leaf: Vec<Vec<FaultDecision>> = (0..4)
            .map(|leaf| (0..64).map(|call| plan.decision_at(leaf, call)).collect())
            .collect();
        // Distinct leaves see distinct schedules (astronomically unlikely
        // to collide if the leaf index actually enters the mix).
        assert!(per_leaf.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn rates_past_unity_are_rejected() {
        let result = std::panic::catch_unwind(|| FaultPlan::new(0, 900_000, 200_000));
        assert!(result.is_err());
    }
}
