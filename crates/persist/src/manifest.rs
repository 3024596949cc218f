//! The cluster manifest file.
//!
//! A scale-out deployment (`reis-cluster`) is N independent leaf systems,
//! each with its own snapshot/WAL epoch store. The manifest is the one
//! piece of *cluster-level* durable state tying them together: how many
//! leaves exist, which database id each leaf serves, who owns each initial
//! stable id, and the next unassigned global id. It reuses the snapshot
//! container ([`crate::snapshot`]) so it inherits the same CRC32C
//! superblock + per-section integrity guarantees as every other durable
//! artifact in the tree.
//!
//! The manifest is deliberately tiny and rewritten whole on every cluster
//! `save` (it is not a log); recovery reads the manifest first, then
//! recovers each leaf independently from its own store.

use crate::error::{PersistError, Result};
use crate::snapshot::{SnapshotBuilder, SnapshotReader};
use crate::wire::{ByteReader, ByteWriter};

/// Section id for the fixed-size header (epoch, leaf count, next id).
const SECTION_HEADER: u32 = 1;
/// Section id for the per-leaf database ids.
const SECTION_LEAF_DBS: u32 = 2;
/// Section id for the initial-corpus owner map.
const SECTION_OWNERS: u32 = 3;
/// Section id for the replication factor (absent in pre-replication
/// manifests, which decode as factor 1).
const SECTION_REPLICATION: u32 = 4;

/// Durable description of a sharded deployment.
///
/// `initial_owners[i]` is the shard index owning initial stable id `i`
/// (ids `0..initial_owners.len()` are the deploy-time corpus; ids assigned
/// to later inserts are routed arithmetically and need no map). With a
/// replication factor `R`, each shard is served by `R` consecutive
/// physical leaves (shard-major), so the cluster has
/// `leaf_db_ids.len() / R` shards; unreplicated manifests (`R = 1`) keep
/// shard and leaf indices identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterManifest {
    /// Monotone cluster save epoch.
    pub epoch: u64,
    /// Per-leaf deployed database id, indexed by physical leaf.
    pub leaf_db_ids: Vec<u32>,
    /// Next unassigned global stable id.
    pub next_global: u32,
    /// Owning shard index per initial stable id.
    pub initial_owners: Vec<u32>,
    /// Replica leaves per shard (1 when unreplicated).
    pub replication: u32,
}

impl ClusterManifest {
    /// Number of physical leaves in the deployment.
    pub fn num_leaves(&self) -> usize {
        self.leaf_db_ids.len()
    }

    /// Encode the manifest as a snapshot-container file image.
    pub fn encode(&self) -> Vec<u8> {
        let mut header = ByteWriter::new();
        header.put_u64(self.epoch);
        header.put_u32(self.leaf_db_ids.len() as u32);
        header.put_u32(self.next_global);
        let mut dbs = ByteWriter::new();
        dbs.put_u32_slice(&self.leaf_db_ids);
        let mut owners = ByteWriter::new();
        owners.put_u32_slice(&self.initial_owners);
        let mut replication = ByteWriter::new();
        replication.put_u32(self.replication);

        let mut builder = SnapshotBuilder::new();
        builder.add_section(SECTION_HEADER, header.into_bytes());
        builder.add_section(SECTION_LEAF_DBS, dbs.into_bytes());
        builder.add_section(SECTION_OWNERS, owners.into_bytes());
        builder.add_section(SECTION_REPLICATION, replication.into_bytes());
        builder.finish()
    }

    /// Decode a manifest file image, verifying container checksums and the
    /// leaf-count / owner-map consistency invariants.
    pub fn decode(bytes: &[u8], file: &str) -> Result<Self> {
        let reader = SnapshotReader::parse(bytes, file)?;
        let section = |id: u32, name: &str| {
            reader.section(id).ok_or_else(|| {
                PersistError::Malformed(format!("manifest {file} missing {name} section"))
            })
        };

        let mut header = ByteReader::new(section(SECTION_HEADER, "header")?);
        let epoch = header.get_u64()?;
        let num_leaves = header.get_u32()? as usize;
        let next_global = header.get_u32()?;
        header.expect_end()?;

        let mut dbs = ByteReader::new(section(SECTION_LEAF_DBS, "leaf-db")?);
        let leaf_db_ids = dbs.get_u32_vec()?;
        dbs.expect_end()?;

        let mut owner_reader = ByteReader::new(section(SECTION_OWNERS, "owner-map")?);
        let initial_owners = owner_reader.get_u32_vec()?;
        owner_reader.expect_end()?;

        // Pre-replication manifests lack the section: factor 1.
        let replication = match reader.section(SECTION_REPLICATION) {
            Some(bytes) => {
                let mut replication_reader = ByteReader::new(bytes);
                let replication = replication_reader.get_u32()?;
                replication_reader.expect_end()?;
                replication
            }
            None => 1,
        };

        if leaf_db_ids.len() != num_leaves {
            return Err(PersistError::Malformed(format!(
                "manifest {file} header claims {num_leaves} leaves but lists {}",
                leaf_db_ids.len()
            )));
        }
        if replication == 0 || !num_leaves.is_multiple_of(replication as usize) {
            return Err(PersistError::Malformed(format!(
                "manifest {file} cannot group {num_leaves} leaves into \
                 replica sets of {replication}"
            )));
        }
        let num_shards = num_leaves / replication as usize;
        if let Some(&bad) = initial_owners
            .iter()
            .find(|&&shard| shard as usize >= num_shards)
        {
            return Err(PersistError::Malformed(format!(
                "manifest {file} owner map names shard {bad} of {num_shards}"
            )));
        }
        if (next_global as usize) < initial_owners.len() {
            return Err(PersistError::Malformed(format!(
                "manifest {file} next_global {next_global} precedes the \
                 {}-entry initial corpus",
                initial_owners.len()
            )));
        }
        Ok(ClusterManifest {
            epoch,
            leaf_db_ids,
            next_global,
            initial_owners,
            replication,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClusterManifest {
        ClusterManifest {
            epoch: 7,
            leaf_db_ids: vec![1, 1, 2],
            next_global: 10,
            initial_owners: vec![0, 0, 1, 1, 2, 2, 0, 1],
            replication: 1,
        }
    }

    #[test]
    fn manifest_round_trips() {
        let manifest = sample();
        let bytes = manifest.encode();
        let decoded = ClusterManifest::decode(&bytes, "manifest").unwrap();
        assert_eq!(decoded, manifest);
    }

    #[test]
    fn corrupt_manifest_is_rejected() {
        let bytes = sample().encode();
        for offset in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[offset] ^= 0x40;
            assert!(
                ClusterManifest::decode(&corrupted, "manifest").is_err(),
                "flip at byte {offset} went undetected"
            );
        }
    }

    #[test]
    fn inconsistent_manifests_are_rejected() {
        let mut bad_owner = sample();
        bad_owner.initial_owners[3] = 9;
        let bytes = bad_owner.encode();
        assert!(ClusterManifest::decode(&bytes, "manifest").is_err());

        let mut bad_next = sample();
        bad_next.next_global = 2;
        let bytes = bad_next.encode();
        assert!(ClusterManifest::decode(&bytes, "manifest").is_err());

        // Leaves must divide into replica groups, and owners are shard
        // indices, so owner validity depends on the factor.
        let mut bad_replication = sample();
        bad_replication.replication = 2;
        let bytes = bad_replication.encode();
        assert!(ClusterManifest::decode(&bytes, "manifest").is_err());
    }

    #[test]
    fn replicated_manifest_round_trips_and_scopes_owners_to_shards() {
        let manifest = ClusterManifest {
            epoch: 3,
            leaf_db_ids: vec![1, 1, 2, 2],
            next_global: 6,
            initial_owners: vec![0, 1, 0, 1, 1, 0],
            replication: 2,
        };
        let bytes = manifest.encode();
        let decoded = ClusterManifest::decode(&bytes, "manifest").unwrap();
        assert_eq!(decoded, manifest);
        assert_eq!(decoded.num_leaves(), 4);

        // Owner naming a shard ≥ num_shards (even though < num_leaves) is
        // rejected under replication.
        let mut bad = manifest.clone();
        bad.initial_owners[2] = 3;
        let bytes = bad.encode();
        assert!(ClusterManifest::decode(&bytes, "manifest").is_err());
    }
}
