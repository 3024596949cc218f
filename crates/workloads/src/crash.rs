//! Deterministic crash-point schedules for fault-injection testing.
//!
//! A crash-recovery property ("recovery from *any* crash point yields the
//! durable prefix") is quantified over every byte offset at which power
//! could be lost. Exhaustively testing each of the millions of offsets in
//! a realistic write stream is too slow, and sampling them ad hoc is not
//! reproducible — so this module generates *schedules*: small, seeded,
//! deterministic sets of crash points that always cover the structurally
//! interesting offsets (the stream edges and caller-supplied boundaries
//! such as per-operation write marks, where torn frames straddle record
//! framing) plus pseudo-random interior points for the unstructured bulk.
//! The same `(total_bytes, samples, seed)` always yields the same
//! schedule, so a failing crash point can be replayed exactly.

use reis_persist::splitmix64;

/// A sorted, deduplicated set of byte-granular crash points over a write
/// stream of `total_bytes` bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashSchedule {
    total_bytes: u64,
    points: Vec<u64>,
}

impl CrashSchedule {
    /// A schedule covering `[0, total_bytes]`: the stream edges (`0`, `1`,
    /// `total_bytes - 1`, `total_bytes`) plus `samples` seeded interior
    /// points. A crash point `p` means "the write stream dies after
    /// exactly `p` surviving bytes" — `0` is power loss before anything
    /// landed, `total_bytes` is no crash at all (included on purpose: the
    /// property must also hold trivially at the far edge).
    pub fn covering(total_bytes: u64, samples: usize, seed: u64) -> Self {
        let mut points = vec![
            0,
            1.min(total_bytes),
            total_bytes.saturating_sub(1),
            total_bytes,
        ];
        let mut state = seed ^ 0xC4A5_11FE_0000_0000;
        if total_bytes > 1 {
            for _ in 0..samples {
                points.push(splitmix64(&mut state) % (total_bytes + 1));
            }
        }
        CrashSchedule {
            total_bytes,
            points,
        }
        .normalised()
    }

    /// Add boundary-adjacent points: for each boundary `b` (for example the
    /// cumulative bytes written after each operation of a trace), the
    /// points `b - 1`, `b` and `b + 1`, clamped to the stream. A crash one
    /// byte short of a boundary is the canonical torn-tail case; exactly on
    /// it the canonical clean-prefix case.
    pub fn with_boundaries(mut self, boundaries: &[u64]) -> Self {
        for &b in boundaries {
            let b = b.min(self.total_bytes);
            self.points.push(b.saturating_sub(1));
            self.points.push(b);
            self.points.push((b + 1).min(self.total_bytes));
        }
        self.normalised()
    }

    fn normalised(mut self) -> Self {
        self.points.sort_unstable();
        self.points.dedup();
        self
    }

    /// The crash points, ascending.
    pub fn points(&self) -> &[u64] {
        &self.points
    }
}

/// Per-leaf crash points for a scale-out cluster: one [`CrashSchedule`]
/// over each leaf's own write stream, derived from one seed so a failing
/// `(leaf, point)` pair replays exactly. A cluster crash property is
/// quantified over *which* leaf dies as well as where in its stream — the
/// other leaves' durable state must be unaffected by the victim's torn
/// tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafCrashSchedule {
    schedules: Vec<CrashSchedule>,
}

impl LeafCrashSchedule {
    /// A schedule per leaf, covering each leaf's `[0, leaf_totals[l]]`
    /// stream with `samples` seeded interior points (the per-leaf seed is
    /// derived from `seed` and the leaf index).
    pub fn covering(leaf_totals: &[u64], samples: usize, seed: u64) -> Self {
        LeafCrashSchedule {
            schedules: leaf_totals
                .iter()
                .enumerate()
                .map(|(leaf, &total)| {
                    let mut state = seed ^ (leaf as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let leaf_seed = splitmix64(&mut state);
                    CrashSchedule::covering(total, samples, leaf_seed)
                })
                .collect(),
        }
    }

    /// Add boundary-adjacent points (see [`CrashSchedule::with_boundaries`])
    /// to one leaf's schedule.
    pub fn with_boundaries(mut self, leaf: usize, boundaries: &[u64]) -> Self {
        let schedule =
            std::mem::replace(&mut self.schedules[leaf], CrashSchedule::covering(0, 0, 0));
        self.schedules[leaf] = schedule.with_boundaries(boundaries);
        self
    }

    /// Every `(leaf, crash point)` pair, leaf-major.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.schedules
            .iter()
            .enumerate()
            .flat_map(|(leaf, schedule)| schedule.points().iter().map(move |&p| (leaf, p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_sorted() {
        let a = CrashSchedule::covering(10_000, 16, 7);
        let b = CrashSchedule::covering(10_000, 16, 7);
        assert_eq!(a, b, "same inputs, same schedule");
        let c = CrashSchedule::covering(10_000, 16, 8);
        assert_ne!(a, c, "different seed, different interior points");

        assert!(
            a.points().windows(2).all(|w| w[0] < w[1]),
            "sorted, deduped"
        );
        assert_eq!(
            a.points().last(),
            Some(&10_000),
            "the stream end is a point"
        );
    }

    #[test]
    fn edges_and_boundaries_are_always_covered() {
        let schedule =
            CrashSchedule::covering(5_000, 8, 3).with_boundaries(&[100, 2_500, 4_999, 7_777]);
        let points = schedule.points();
        for expected in [0, 1, 99, 100, 101, 2_499, 2_500, 2_501, 4_998, 4_999, 5_000] {
            assert!(points.contains(&expected), "missing point {expected}");
        }
        // Boundaries beyond the stream clamp to its end instead of escaping.
        assert!(points.iter().all(|&p| p <= 5_000));
    }

    #[test]
    fn degenerate_streams_do_not_panic_or_escape() {
        let empty = CrashSchedule::covering(0, 8, 1);
        assert_eq!(empty.points(), &[0]);
        let one = CrashSchedule::covering(1, 8, 1);
        assert_eq!(one.points(), &[0, 1]);
    }

    #[test]
    fn leaf_schedules_are_deterministic_and_leaf_distinct() {
        let totals = [4_000u64, 4_000, 900];
        let a = LeafCrashSchedule::covering(&totals, 6, 11);
        let b = LeafCrashSchedule::covering(&totals, 6, 11);
        assert_eq!(a, b, "same inputs, same per-leaf schedules");
        assert_eq!(a.schedules.len(), 3);
        // Equal stream lengths still get distinct interior points per leaf.
        assert_ne!(
            a.schedules[0].points(),
            a.schedules[1].points(),
            "per-leaf seeds must differ"
        );
        // Every pair stays inside its own leaf's stream.
        for (leaf, point) in a.pairs() {
            assert!(point <= totals[leaf]);
        }
        let with = a.clone().with_boundaries(2, &[123]);
        for expected in [122, 123, 124] {
            assert!(with.schedules[2].points().contains(&expected));
        }
        assert_eq!(with.schedules[0], a.schedules[0], "other leaves untouched");
    }
}
