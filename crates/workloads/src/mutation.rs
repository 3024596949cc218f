//! Seeded mutation-trace generation.
//!
//! A retrieval index serving live traffic sees a mixed stream of inserts
//! (new documents arriving), deletes (content expiring or being retracted),
//! upserts (documents being re-embedded or edited) and searches. This
//! module generates deterministic traces of such streams against a
//! [`SyntheticDataset`](crate::SyntheticDataset)-style corpus, for the
//! update-path benchmarks and tests: the same seed and mix always produce
//! the same trace.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One operation of a mutation trace.
///
/// Delete and upsert targets are drawn from the *live id set* the trace
/// tracks while generating: ids are positions in the trace's logical
/// corpus — the replayer maps them to the stable ids its system assigned
/// (see [`MutationTrace::ops`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MutationOp {
    /// Insert a fresh entry: the embedding and document chunk to append.
    Insert {
        /// The new entry's embedding.
        vector: Vec<f32>,
        /// The new entry's document chunk.
        document: Vec<u8>,
    },
    /// Delete a live entry, addressed by its position in the trace's
    /// logical id space (0 = first initial entry, then insertion order).
    Delete {
        /// Logical index of the entry to delete.
        target: usize,
    },
    /// Replace a live entry with a new embedding/document pair.
    Upsert {
        /// Logical index of the entry to replace.
        target: usize,
        /// The replacement embedding.
        vector: Vec<f32>,
        /// The replacement document chunk.
        document: Vec<u8>,
    },
    /// Run a search for this query between mutations (the
    /// search-under-update probe of the benchmark).
    Search {
        /// The query embedding.
        query: Vec<f32>,
    },
}

/// Relative weights of the operation mix of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MutationMix {
    /// Weight of inserts.
    pub insert: u32,
    /// Weight of deletes.
    pub delete: u32,
    /// Weight of upserts.
    pub upsert: u32,
    /// Weight of interleaved searches.
    pub search: u32,
}

impl MutationMix {
    /// An ingest-heavy mix (mostly inserts, some churn, occasional reads).
    pub fn ingest_heavy() -> Self {
        MutationMix {
            insert: 6,
            delete: 1,
            upsert: 1,
            search: 2,
        }
    }

    /// A churn-heavy mix (deletes and upserts dominate).
    pub fn churn_heavy() -> Self {
        MutationMix {
            insert: 2,
            delete: 3,
            upsert: 3,
            search: 2,
        }
    }

    /// A balanced read/write mix.
    pub fn balanced() -> Self {
        MutationMix {
            insert: 2,
            delete: 1,
            upsert: 1,
            search: 4,
        }
    }

    fn total(&self) -> u32 {
        (self.insert + self.delete + self.upsert + self.search).max(1)
    }
}

impl Default for MutationMix {
    fn default() -> Self {
        MutationMix::balanced()
    }
}

/// A generated mutation trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MutationTrace {
    ops: Vec<MutationOp>,
}

impl MutationTrace {
    /// Generate a trace of `ops` operations against a corpus that starts
    /// with `initial_entries` live entries of dimensionality `dim`.
    ///
    /// Inserted/upserted vectors are jittered copies of a latent topic (the
    /// same shape [`crate::SyntheticDataset`] generates), so mutations stay
    /// in-distribution for the deployed quantizers. Documents are sized
    /// `doc_bytes`. Deletes and upserts only ever target currently-live
    /// logical ids, and the generator never deletes the last live entry.
    pub fn generate(
        initial_entries: usize,
        dim: usize,
        doc_bytes: usize,
        ops: usize,
        mix: MutationMix,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED);
        let topics: Vec<Vec<f32>> = (0..8)
            .map(|_| (0..dim).map(|_| rng.gen_range(-0.5f32..0.5)).collect())
            .collect();
        let fresh_vector = |rng: &mut StdRng| -> Vec<f32> {
            let topic = &topics[rng.gen_range(0..topics.len())];
            topic
                .iter()
                .map(|&x| x + rng.gen_range(-0.6f32..0.6))
                .collect()
        };
        let document = |tag: usize, version: usize| -> Vec<u8> {
            let mut text = format!("[mutated chunk {tag} v{version}] ");
            while text.len() < doc_bytes.max(24) {
                text.push_str("live index update traffic. ");
            }
            text.truncate(doc_bytes.max(24));
            text.into_bytes()
        };

        // Live logical ids: initial entries first, inserts appended after.
        let mut live: Vec<usize> = (0..initial_entries).collect();
        let mut next_logical = initial_entries;
        let mut trace = Vec::with_capacity(ops);
        let total = mix.total();
        for step in 0..ops {
            let mut roll = rng.gen_range(0..total);
            if roll < mix.insert || live.len() <= 1 {
                let vector = fresh_vector(&mut rng);
                trace.push(MutationOp::Insert {
                    vector,
                    document: document(next_logical, step),
                });
                live.push(next_logical);
                next_logical += 1;
                continue;
            }
            roll -= mix.insert;
            if roll < mix.delete {
                let slot = rng.gen_range(0..live.len());
                let target = live.swap_remove(slot);
                trace.push(MutationOp::Delete { target });
                continue;
            }
            roll -= mix.delete;
            if roll < mix.upsert {
                let target = live[rng.gen_range(0..live.len())];
                trace.push(MutationOp::Upsert {
                    target,
                    vector: fresh_vector(&mut rng),
                    document: document(target, step),
                });
                continue;
            }
            trace.push(MutationOp::Search {
                query: fresh_vector(&mut rng),
            });
        }
        MutationTrace { ops: trace }
    }

    /// The operations, in replay order.
    pub fn ops(&self) -> &[MutationOp] {
        &self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_and_respect_the_mix() {
        let a = MutationTrace::generate(50, 16, 64, 200, MutationMix::ingest_heavy(), 7);
        let b = MutationTrace::generate(50, 16, 64, 200, MutationMix::ingest_heavy(), 7);
        assert_eq!(a, b, "same seed, same trace");
        let c = MutationTrace::generate(50, 16, 64, 200, MutationMix::ingest_heavy(), 8);
        assert_ne!(a, c, "different seed, different trace");

        let count = |kind: fn(&MutationOp) -> bool| a.ops().iter().filter(|op| kind(op)).count();
        let inserts = count(|op| matches!(op, MutationOp::Insert { .. }));
        let deletes = count(|op| matches!(op, MutationOp::Delete { .. }));
        let searches = count(|op| matches!(op, MutationOp::Search { .. }));
        assert!(
            inserts > deletes,
            "ingest-heavy mix inserts more than it deletes"
        );
        assert!(searches > 0);
        assert_eq!(a.ops().len(), 200);
    }

    #[test]
    fn targets_are_always_live_at_their_point_in_the_trace() {
        let trace = MutationTrace::generate(20, 8, 32, 300, MutationMix::churn_heavy(), 42);
        let mut live: std::collections::HashSet<usize> = (0..20).collect();
        let mut next = 20usize;
        for op in trace.ops() {
            match op {
                MutationOp::Insert { vector, document } => {
                    assert_eq!(vector.len(), 8);
                    assert!(!document.is_empty());
                    live.insert(next);
                    next += 1;
                }
                MutationOp::Delete { target } => {
                    assert!(live.remove(target), "delete of dead id {target}");
                    assert!(!live.is_empty(), "the last live entry is never deleted");
                }
                MutationOp::Upsert { target, vector, .. } => {
                    assert!(live.contains(target), "upsert of dead id {target}");
                    assert_eq!(vector.len(), 8);
                }
                MutationOp::Search { query } => assert_eq!(query.len(), 8),
            }
        }
    }
}
