//! Deterministic document sharding.
//!
//! The router answers two questions: *which shard holds stable id `x`*,
//! and *which global ids a new batch of inserts receives*. Both must be
//! pure functions of durable state so that recovery — and any
//! re-execution of the same mutation trace — routes identically.
//!
//! Deploy-time ids are assigned by slicing the union corpus's **storage
//! order** (entry order for a flat database, cluster-major order for IVF)
//! into one contiguous, near-even slice per shard; the resulting
//! id-to-shard map is the manifest's `initial_owners` section. Ids minted
//! later for online inserts carry no placement history, so they route
//! arithmetically: id `x` lives on shard `x mod num_shards`.
//!
//! With a replication factor `R` each shard is served by `R` physical
//! leaves laid out **shard-major**: shard `s`'s replica group is leaves
//! `s·R .. (s+1)·R`, and leaf `l` serves shard `l / R`. `R = 1` collapses
//! to the original one-leaf-per-shard layout, where shard and leaf
//! indices coincide.

use reis_core::{ReisError, Result};
use std::ops::Range;

/// Deterministic shard map of one cluster deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouter {
    num_shards: usize,
    /// Leaves serving each shard (shard-major replica groups).
    replication: usize,
    /// Owning shard of each deploy-time stable id (`initial_owners[id]`).
    initial_owners: Vec<u32>,
    /// Next unassigned global stable id.
    next_global: u32,
}

impl ShardRouter {
    /// An empty router over `num_shards` shards, each served by
    /// `replication` lockstep replica leaves (`num_shards × replication`
    /// physical leaves in total).
    ///
    /// # Errors
    ///
    /// [`ReisError::MalformedDatabase`] when either count is zero.
    pub fn new_replicated(num_shards: usize, replication: usize) -> Result<Self> {
        if num_shards == 0 {
            return Err(ReisError::MalformedDatabase(
                "a cluster needs at least one leaf".into(),
            ));
        }
        if replication == 0 {
            return Err(ReisError::MalformedDatabase(
                "a replicated cluster needs a replication factor of at least one".into(),
            ));
        }
        Ok(ShardRouter {
            num_shards,
            replication,
            initial_owners: Vec::new(),
            next_global: 0,
        })
    }

    /// Rebuild a router from recovered durable state: the manifest's owner
    /// map plus the id watermark re-derived from the leaves, over
    /// `num_leaves` physical leaves grouped into `num_leaves / replication`
    /// shards.
    ///
    /// # Errors
    ///
    /// [`ReisError::MalformedDatabase`] when the leaf count does not
    /// divide into `replication`-sized replica groups, the owner map names
    /// a shard outside `0..num_shards`, or the watermark precedes the
    /// initial corpus.
    pub fn from_owners_replicated(
        initial_owners: Vec<u32>,
        num_leaves: usize,
        replication: usize,
        next_global: u32,
    ) -> Result<Self> {
        if num_leaves == 0 || replication == 0 {
            return Err(ReisError::MalformedDatabase(
                "a cluster needs at least one leaf".into(),
            ));
        }
        if !num_leaves.is_multiple_of(replication) {
            return Err(ReisError::MalformedDatabase(format!(
                "{num_leaves} leaves do not divide into replica groups of {replication}"
            )));
        }
        let num_shards = num_leaves / replication;
        if let Some(&bad) = initial_owners
            .iter()
            .find(|&&shard| shard as usize >= num_shards)
        {
            return Err(ReisError::MalformedDatabase(format!(
                "owner map names shard {bad} of a {num_shards}-shard cluster"
            )));
        }
        if (next_global as usize) < initial_owners.len() {
            return Err(ReisError::MalformedDatabase(format!(
                "next_global {next_global} precedes the {}-entry initial corpus",
                initial_owners.len()
            )));
        }
        Ok(ShardRouter {
            num_shards,
            replication,
            initial_owners,
            next_global,
        })
    }

    /// Contiguous, near-even slices of `entries` storage positions over
    /// `num_leaves` leaves: the first `entries % num_leaves` slices get one
    /// extra entry. Pure and order-preserving, so the concatenation of the
    /// slices is the identity over `0..entries`.
    pub fn slices(entries: usize, num_leaves: usize) -> Vec<Range<usize>> {
        let base = entries / num_leaves.max(1);
        let extra = entries % num_leaves.max(1);
        let mut start = 0;
        (0..num_leaves)
            .map(|leaf| {
                let len = base + usize::from(leaf < extra);
                let range = start..start + len;
                start += len;
                range
            })
            .collect()
    }

    /// Record the deploy-time owner map (called once, at deployment).
    pub(crate) fn set_initial_owners(&mut self, owners: Vec<u32>) {
        self.next_global = self.next_global.max(owners.len() as u32);
        self.initial_owners = owners;
    }

    /// The shard holding stable id `id`: the owner map for deploy-time
    /// ids, round-robin `id mod num_shards` for ids minted by later
    /// inserts.
    pub fn owner(&self, id: u32) -> usize {
        match self.initial_owners.get(id as usize) {
            Some(&shard) => shard as usize,
            None => id as usize % self.num_shards,
        }
    }

    /// The physical leaves of shard `shard`'s replica group, in failover
    /// order (replica 0 is the primary).
    pub fn replicas(&self, shard: usize) -> Range<usize> {
        shard * self.replication..(shard + 1) * self.replication
    }

    /// The shard physical leaf `leaf` serves.
    pub fn shard_of_leaf(&self, leaf: usize) -> usize {
        leaf / self.replication
    }

    /// Mint `count` fresh global stable ids (consecutive, ascending).
    pub fn assign(&mut self, count: usize) -> Vec<u32> {
        let first = self.next_global;
        self.next_global += count as u32;
        (first..self.next_global).collect()
    }

    /// Number of physical leaves (`num_shards × replication`).
    pub fn num_leaves(&self) -> usize {
        self.num_shards * self.replication
    }

    /// Number of shards the corpus is sliced into.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Replica leaves per shard.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The deploy-time owner map (`initial_owners[id]` is a shard index).
    pub fn initial_owners(&self) -> &[u32] {
        &self.initial_owners
    }

    /// The next unassigned global stable id.
    pub fn next_global(&self) -> u32 {
        self.next_global
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_are_contiguous_even_and_exhaustive() {
        for entries in [0usize, 1, 7, 8, 9, 100] {
            for leaves in [1usize, 2, 3, 5, 8] {
                let slices = ShardRouter::slices(entries, leaves);
                assert_eq!(slices.len(), leaves);
                let mut next = 0;
                for range in &slices {
                    assert_eq!(range.start, next);
                    next = range.end;
                }
                assert_eq!(next, entries);
                let sizes: Vec<usize> = slices.iter().map(|r| r.len()).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "uneven split {sizes:?}");
            }
        }
    }

    #[test]
    fn owner_uses_map_then_round_robin() {
        let mut router = ShardRouter::new_replicated(3, 1).unwrap();
        router.set_initial_owners(vec![2, 2, 0, 1]);
        assert_eq!(router.owner(0), 2);
        assert_eq!(router.owner(3), 1);
        // Ids past the initial corpus route arithmetically.
        assert_eq!(router.owner(4), 1);
        assert_eq!(router.owner(5), 2);
        assert_eq!(router.owner(6), 0);
    }

    #[test]
    fn assign_mints_consecutive_ids_past_the_corpus() {
        let mut router = ShardRouter::new_replicated(2, 1).unwrap();
        router.set_initial_owners(vec![0, 1, 0]);
        assert_eq!(router.assign(2), vec![3, 4]);
        assert_eq!(router.assign(1), vec![5]);
        assert_eq!(router.next_global(), 6);
    }

    #[test]
    fn replica_groups_are_shard_major() {
        let router = ShardRouter::new_replicated(3, 2).unwrap();
        assert_eq!(router.num_shards(), 3);
        assert_eq!(router.replication(), 2);
        assert_eq!(router.num_leaves(), 6);
        assert_eq!(router.replicas(0), 0..2);
        assert_eq!(router.replicas(2), 4..6);
        for leaf in 0..6 {
            assert_eq!(router.shard_of_leaf(leaf), leaf / 2);
            assert!(router.replicas(router.shard_of_leaf(leaf)).contains(&leaf));
        }
        // R = 1 collapses shard and leaf indices.
        let flat = ShardRouter::new_replicated(4, 1).unwrap();
        assert_eq!(flat.replicas(3), 3..4);
        assert_eq!(flat.shard_of_leaf(3), 3);
    }

    #[test]
    fn invalid_recovered_state_is_rejected() {
        assert!(ShardRouter::new_replicated(0, 1).is_err());
        assert!(ShardRouter::new_replicated(2, 0).is_err());
        assert!(ShardRouter::from_owners_replicated(vec![3], 3, 1, 1).is_err());
        assert!(ShardRouter::from_owners_replicated(vec![0, 1], 2, 1, 1).is_err());
        assert!(ShardRouter::from_owners_replicated(vec![0, 1], 2, 1, 2).is_ok());
        // Leaves must divide into replica groups; owners are shard indices.
        assert!(ShardRouter::from_owners_replicated(vec![0], 3, 2, 1).is_err());
        assert!(ShardRouter::from_owners_replicated(vec![2], 4, 2, 1).is_err());
        let router = ShardRouter::from_owners_replicated(vec![1, 0], 4, 2, 2).unwrap();
        assert_eq!(router.num_shards(), 2);
        assert_eq!(router.owner(0), 1);
        assert_eq!(router.owner(7), 1, "minted ids route modulo num_shards");
    }
}
