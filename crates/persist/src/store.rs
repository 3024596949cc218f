//! Epoch naming and discovery over a [`Vfs`].
//!
//! Durable state is a sequence of *epochs*. Epoch `s` is the pair
//! `snapshot-SSSSSSSS` (the full state at the moment the epoch began) and
//! `wal-SSSSSSSS` (every mutation since). A save writes the next epoch's
//! snapshot **completely, first**, then creates its empty WAL — so at any
//! crash point the newest intact snapshot `s`, plus the WALs `s, s+1, …`
//! that exist beyond it, reconstruct a consistent prefix: snapshot `s+1`
//! is by construction equivalent to snapshot `s` plus a full replay of
//! `wal-s`.
//!
//! The store only names, lists and moves bytes; snapshot/WAL *content* is
//! the concern of [`crate::snapshot`] / [`crate::wal`] and of `reis-core`,
//! which owns the section payloads.

use crate::error::{PersistError, Result};
use crate::snapshot::SnapshotReader;
use crate::vfs::Vfs;
use crate::wal;
use reis_telemetry::{CounterId, Telemetry};

/// What a [`DurableStore::scrub`] pass found: every epoch artifact's
/// integrity status, checked without loading any of it into a system.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// Snapshot files examined.
    pub snapshots_checked: usize,
    /// WAL files examined.
    pub wals_checked: usize,
    /// Sequence numbers of snapshots that failed container validation
    /// (bad magic/version, superblock or section checksum mismatch).
    pub corrupt_snapshots: Vec<u64>,
    /// Sequence numbers of WALs whose tail recovery would quarantine
    /// (torn frame, payload checksum mismatch, undecodable record).
    pub quarantined_wals: Vec<u64>,
}

impl ScrubReport {
    /// Whether every artifact checked out intact.
    pub fn is_clean(&self) -> bool {
        self.corrupt_snapshots.is_empty() && self.quarantined_wals.is_empty()
    }

    /// Total corrupt artifacts (snapshots plus quarantinable WAL tails).
    pub fn corrupt_artifacts(&self) -> usize {
        self.corrupt_snapshots.len() + self.quarantined_wals.len()
    }
}

/// Prefix of snapshot files.
pub const SNAPSHOT_PREFIX: &str = "snapshot-";
/// Prefix of WAL files.
pub const WAL_PREFIX: &str = "wal-";

/// A [`Vfs`] plus the epoch naming scheme.
#[derive(Debug)]
pub struct DurableStore {
    vfs: Box<dyn Vfs>,
    /// Durability I/O counters (WAL appends, snapshot writes and their byte
    /// volumes). Disabled by default; the owning system attaches its handle
    /// via [`set_telemetry`](Self::set_telemetry).
    telemetry: Telemetry,
}

impl DurableStore {
    /// A store over any VFS backend.
    pub fn new(vfs: Box<dyn Vfs>) -> Self {
        DurableStore {
            vfs,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle; subsequent WAL appends and snapshot
    /// writes record their counts and byte volumes through it.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The file name of epoch `seq`'s snapshot.
    pub fn snapshot_name(seq: u64) -> String {
        format!("{SNAPSHOT_PREFIX}{seq:08}")
    }

    /// The file name of epoch `seq`'s WAL.
    pub fn wal_name(seq: u64) -> String {
        format!("{WAL_PREFIX}{seq:08}")
    }

    fn parse_seq(name: &str, prefix: &str) -> Option<u64> {
        let digits = name.strip_prefix(prefix)?;
        if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse().ok()
    }

    /// Snapshot sequence numbers present, descending (newest first). Files
    /// that merely exist — including torn ones — are listed; validity is
    /// the reader's call.
    pub fn snapshot_seqs_desc(&self) -> Result<Vec<u64>> {
        let mut seqs: Vec<u64> = self
            .vfs
            .list()?
            .iter()
            .filter_map(|name| Self::parse_seq(name, SNAPSHOT_PREFIX))
            .collect();
        seqs.sort_unstable_by(|a, b| b.cmp(a));
        Ok(seqs)
    }

    /// WAL sequence numbers present, ascending.
    pub fn wal_seqs_asc(&self) -> Result<Vec<u64>> {
        let mut seqs: Vec<u64> = self
            .vfs
            .list()?
            .iter()
            .filter_map(|name| Self::parse_seq(name, WAL_PREFIX))
            .collect();
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// Write epoch `seq`'s snapshot file in one call.
    pub fn write_snapshot(&self, seq: u64, bytes: &[u8]) -> Result<()> {
        self.vfs.write_file(&Self::snapshot_name(seq), bytes)?;
        self.telemetry.count(CounterId::SnapshotWrites, 1);
        self.telemetry
            .count(CounterId::SnapshotBytes, bytes.len() as u64);
        Ok(())
    }

    /// Read epoch `seq`'s snapshot file.
    pub fn read_snapshot(&self, seq: u64) -> Result<Vec<u8>> {
        self.vfs.read_file(&Self::snapshot_name(seq))
    }

    /// Create epoch `seq`'s WAL, empty. Creating the WAL is what makes the
    /// epoch's snapshot the *newest complete* one, so this must only be
    /// called after [`write_snapshot`](Self::write_snapshot) returned.
    pub fn create_wal(&self, seq: u64) -> Result<()> {
        self.vfs.write_file(&Self::wal_name(seq), &[])
    }

    /// Append one framed record to the WAL file `wal` (a
    /// [`wal_name`](Self::wal_name)). A writer names its open epoch's WAL
    /// once, not on every record.
    pub fn append_to_wal(&self, wal: &str, frame: &[u8]) -> Result<()> {
        self.vfs.append(wal, frame)?;
        self.telemetry.count(CounterId::WalAppends, 1);
        self.telemetry
            .count(CounterId::WalAppendBytes, frame.len() as u64);
        Ok(())
    }

    /// Read epoch `seq`'s WAL, or an empty log if the file never made it
    /// to storage (a crash right after the snapshot write).
    pub fn read_wal(&self, seq: u64) -> Result<Vec<u8>> {
        match self.vfs.read_file(&Self::wal_name(seq)) {
            Ok(bytes) => Ok(bytes),
            Err(PersistError::NotFound { .. }) => Ok(Vec::new()),
            Err(err) => Err(err),
        }
    }

    /// Garbage-collect every snapshot and WAL of epochs before `seq`.
    /// Called after a new epoch is fully durable; `seq` should be the
    /// *previous* epoch, keeping one full fallback epoch behind the
    /// current one.
    pub fn prune_before(&self, seq: u64) -> Result<()> {
        for old in self.snapshot_seqs_desc()? {
            if old < seq {
                self.vfs.remove(&Self::snapshot_name(old))?;
            }
        }
        for old in self.wal_seqs_asc()? {
            if old < seq {
                self.vfs.remove(&Self::wal_name(old))?;
            }
        }
        Ok(())
    }

    /// Verify the integrity of every epoch artifact without loading any of
    /// it: each snapshot's container (magic, version, superblock CRC and
    /// every section CRC, via [`SnapshotReader::parse`]) and each WAL's
    /// frame chain (length + CRC32C per frame, decodable payloads).
    /// Corrupt artifacts are *reported*, never repaired or removed — the
    /// recovery path decides what to fall back to or quarantine. Each
    /// corrupt snapshot and quarantinable WAL tail found bumps the
    /// [`CounterId::ScrubCorruptSnapshots`] /
    /// [`CounterId::ScrubQuarantinedWals`] counters.
    ///
    /// # Errors
    ///
    /// Storage I/O errors only; corruption is a report entry, not an error.
    pub fn scrub(&self) -> Result<ScrubReport> {
        let mut report = ScrubReport::default();
        for seq in self.snapshot_seqs_desc()? {
            report.snapshots_checked += 1;
            let bytes = self.read_snapshot(seq)?;
            if SnapshotReader::parse(&bytes, &Self::snapshot_name(seq)).is_err() {
                report.corrupt_snapshots.push(seq);
            }
        }
        report.corrupt_snapshots.sort_unstable();
        for seq in self.wal_seqs_asc()? {
            report.wals_checked += 1;
            let bytes = self.read_wal(seq)?;
            let (_, tail) = wal::read_records(&bytes);
            if !tail.is_clean() {
                report.quarantined_wals.push(seq);
            }
        }
        self.telemetry.count(
            CounterId::ScrubCorruptSnapshots,
            report.corrupt_snapshots.len() as u64,
        );
        self.telemetry.count(
            CounterId::ScrubQuarantinedWals,
            report.quarantined_wals.len() as u64,
        );
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    #[test]
    fn names_are_zero_padded_and_parse_back() {
        assert_eq!(DurableStore::snapshot_name(7), "snapshot-00000007");
        assert_eq!(DurableStore::wal_name(123), "wal-00000123");
        assert_eq!(
            DurableStore::parse_seq("snapshot-00000042", SNAPSHOT_PREFIX),
            Some(42)
        );
        assert_eq!(
            DurableStore::parse_seq("snapshot-42", SNAPSHOT_PREFIX),
            None
        );
        assert_eq!(
            DurableStore::parse_seq("wal-00000042", SNAPSHOT_PREFIX),
            None
        );
        assert_eq!(
            DurableStore::parse_seq("snapshot-0000004x", SNAPSHOT_PREFIX),
            None
        );
    }

    #[test]
    fn discovery_orders_epochs_and_ignores_foreign_files() {
        let mem = MemVfs::new();
        mem.write_file("notes.txt", b"unrelated").unwrap();
        let store = DurableStore::new(Box::new(mem));
        store.write_snapshot(0, b"s0").unwrap();
        store.create_wal(0).unwrap();
        store.write_snapshot(2, b"s2").unwrap();
        store.create_wal(2).unwrap();
        store.write_snapshot(1, b"s1").unwrap();
        store.create_wal(1).unwrap();
        assert_eq!(store.snapshot_seqs_desc().unwrap(), vec![2, 1, 0]);
        assert_eq!(store.wal_seqs_asc().unwrap(), vec![0, 1, 2]);
        assert_eq!(store.read_snapshot(2).unwrap(), b"s2");

        store.prune_before(2).unwrap();
        assert_eq!(store.snapshot_seqs_desc().unwrap(), vec![2]);
        assert_eq!(store.wal_seqs_asc().unwrap(), vec![2]);
    }

    #[test]
    fn scrub_checks_every_epoch_and_reports_corruption() {
        use crate::snapshot::SnapshotBuilder;
        use crate::wal::WalRecord;

        let mem = MemVfs::new();
        let store = DurableStore::new(Box::new(mem.clone()));
        let mut builder = SnapshotBuilder::new();
        builder.add_section(1, b"state".to_vec());
        let image = builder.finish();
        store.write_snapshot(0, &image).unwrap();
        store.create_wal(0).unwrap();
        let record = WalRecord::Delete { db_id: 1, id: 9 };
        store
            .append_to_wal(&DurableStore::wal_name(0), &record.encode_framed())
            .unwrap();
        store.write_snapshot(1, &image).unwrap();
        store.create_wal(1).unwrap();

        let clean = store.scrub().unwrap();
        assert!(clean.is_clean());
        assert_eq!(clean.snapshots_checked, 2);
        assert_eq!(clean.wals_checked, 2);
        assert_eq!(clean.corrupt_artifacts(), 0);

        // Flip a snapshot byte and tear the other epoch's WAL tail.
        let mut rotten = image.clone();
        rotten[image.len() / 2] ^= 0x10;
        mem.write_file(&DurableStore::snapshot_name(1), &rotten)
            .unwrap();
        store
            .append_to_wal(&DurableStore::wal_name(0), &[0xEE, 0xEE, 0xEE])
            .unwrap();

        let dirty = store.scrub().unwrap();
        assert!(!dirty.is_clean());
        assert_eq!(dirty.corrupt_snapshots, vec![1]);
        assert_eq!(dirty.quarantined_wals, vec![0]);
        assert_eq!(dirty.corrupt_artifacts(), 2);
        // Intact artifacts still counted as checked.
        assert_eq!(dirty.snapshots_checked, 2);
        assert_eq!(dirty.wals_checked, 2);
    }

    #[test]
    fn wal_appends_accumulate_and_missing_wal_reads_empty() {
        let store = DurableStore::new(Box::new(MemVfs::new()));
        assert_eq!(store.read_wal(5).unwrap(), Vec::<u8>::new());
        store.create_wal(5).unwrap();
        let wal = DurableStore::wal_name(5);
        store.append_to_wal(&wal, b"aa").unwrap();
        store.append_to_wal(&wal, b"bb").unwrap();
        assert_eq!(store.read_wal(5).unwrap(), b"aabb");
    }
}
