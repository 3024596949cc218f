//! Durability: snapshots, the mutation WAL and crash recovery.
//!
//! A durably opened system ([`ReisSystem::open`]) pairs the in-memory
//! simulator with a [`DurableStore`]. State is carried by two mechanisms:
//!
//! * **Snapshots** persist the full logical state: for every deployed
//!   database, the surviving corpus *in scan order* (read from flash
//!   through the same path compaction uses —
//!   `crate::mutate::collect_survivors`), the frozen quantizer
//!   parameters, the IVF centroids and the mutation counters that must
//!   outlive a crash (`next_id`, the compaction generation). Deployments
//!   checkpoint immediately, so every database lives in some snapshot.
//! * **The WAL** logs every mutation (insert batches, deletes, upserts,
//!   explicit compactions) applied since the newest snapshot.
//!
//! Recovery ([`ReisSystem::recover`]) finds the newest snapshot that
//! passes validation (falling back to older epochs past corrupt ones),
//! redeploys each database with its original stable ids, then replays the
//! WAL chain through the ordinary mutation paths, stopping at the first
//! torn or corrupt frame — a crash mid-write loses at most the torn
//! suffix, never the prefix, and never panics. The recovered system then
//! checkpoints a fresh epoch, so the quarantined tail is left behind for
//! forensics and normal operation resumes on intact files.
//!
//! What makes replay exact: a snapshot stores the corpus in scan order, so
//! the recovered deployment's storage order — and with it every
//! deterministic distance tie-break — matches what a fresh deployment of
//! the same survivors would produce, and `InsertBatch` records carry the
//! ids the original run assigned, which replay re-derives and
//! cross-checks. Policy-driven auto-compaction is deliberately *not*
//! logged: it is derived state, re-derived during replay, and compaction
//! never changes search results.

use std::collections::HashMap;
use std::time::Instant;

use reis_ann::quantize::{BinaryQuantizer, Int8Quantizer};
use reis_ann::vector::{BinaryVector, Int8Vector};
use reis_persist::{
    ByteReader, ByteWriter, DurableStore, PersistError, ScrubReport, SnapshotBuilder,
    SnapshotReader, WalRecord, WalTail,
};
use reis_ssd::{RegionKind, SsdController};
use reis_telemetry::{CounterId, HistogramId};

use crate::config::ReisConfig;
use crate::database::{ClusterInfo, VectorDatabase};
use crate::deploy::{self, DeployedDatabase};
use crate::error::{ReisError, Result};
use crate::mutate;
use crate::system::ReisSystem;

/// The system-wide metadata section (`next_db_id` + the deployed ids).
const SECTION_META: u32 = 1;
/// Per-database section kinds, combined with the database id as
/// `(db_id << 8) | kind`. Database ids start at 1, so the combined ids
/// never collide with [`SECTION_META`].
const KIND_DBMETA: u32 = 1;
const KIND_QUANT: u32 = 2;
const KIND_CENTROIDS: u32 = 3;
const KIND_ENTRIES: u32 = 4;

fn db_section(db_id: u32, kind: u32) -> u32 {
    (db_id << 8) | kind
}

/// The attached durable store plus the open WAL epoch (see
/// [`crate::system::ReisSystem`]'s `durability` field).
#[derive(Debug)]
pub(crate) struct Durability {
    store: DurableStore,
    /// Current epoch: `wal-{seq}` is the open WAL, `snapshot-{seq}` the
    /// newest complete snapshot.
    seq: u64,
    /// The open WAL's file name, formatted once per epoch.
    wal: String,
    /// The frame being appended, kept between appends so that encoding a
    /// record reuses the capacity of the last one.
    frame: Vec<u8>,
}

impl Durability {
    fn new(store: DurableStore, seq: u64) -> Self {
        Durability {
            store,
            seq,
            wal: DurableStore::wal_name(seq),
            frame: Vec::new(),
        }
    }

    /// Encode one framed record with `encode` (which replaces the buffer's
    /// contents, see `reis_persist::wal::frame_upsert`) and append it to the
    /// open WAL epoch.
    pub(crate) fn append(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> std::result::Result<(), PersistError> {
        encode(&mut self.frame);
        self.store.append_to_wal(&self.wal, &self.frame)
    }
}

/// Where a WAL chain was cut off during recovery: the file, the byte
/// offset of the first invalid frame and what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalQuarantine {
    /// The WAL file holding the invalid frame.
    pub file: String,
    /// Byte offset of the first invalid frame within that file.
    pub offset: u64,
    /// Why the frame was rejected (torn, checksum mismatch, undecodable).
    pub detail: String,
}

/// What [`ReisSystem::recover`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot recovery restarted from.
    pub snapshot_seq: u64,
    /// Newer snapshots that failed validation and were bypassed.
    pub snapshots_skipped: u32,
    /// WAL records successfully replayed on top of the snapshot.
    pub wal_records_applied: u64,
    /// WAL records skipped because they referenced a database absent from
    /// the snapshot (possible only if its deployment checkpoint was lost).
    pub records_skipped_unknown_db: u64,
    /// The torn/corrupt WAL tail the replay stopped at, if any.
    pub quarantined: Option<WalQuarantine>,
    /// Sequence number of the fresh checkpoint written after replay.
    pub checkpoint_seq: u64,
}

impl RecoveryReport {
    /// Number of quarantined WAL tails this recovery left behind (0 or 1:
    /// replay stops at the first invalid frame). Exposed as a count so
    /// per-leaf reports aggregate uniformly — see
    /// `ClusterRecovery::quarantine_counts` in `reis-cluster`.
    pub fn quarantine_count(&self) -> usize {
        usize::from(self.quarantined.is_some())
    }
}

impl ReisSystem {
    /// Open a durably backed system on `store`.
    ///
    /// A store with no snapshot yet is initialised: an empty epoch-0
    /// snapshot and WAL are written and the report is `None`. Otherwise
    /// this is [`ReisSystem::recover`] and the report says what happened.
    ///
    /// # Errors
    ///
    /// Storage I/O errors, and any [`ReisSystem::recover`] error on a
    /// non-fresh store.
    ///
    /// # Examples
    ///
    /// ```
    /// use reis_core::{DurableStore, MemVfs, ReisConfig, ReisSystem};
    ///
    /// # fn main() -> Result<(), reis_core::ReisError> {
    /// let vfs = MemVfs::new();
    /// let store = DurableStore::new(Box::new(vfs.clone()));
    /// let (mut reis, report) = ReisSystem::open(ReisConfig::tiny(), store)?;
    /// assert!(report.is_none(), "fresh store, nothing to recover");
    /// # let _ = &mut reis;
    /// # Ok(())
    /// # }
    /// ```
    pub fn open(config: ReisConfig, store: DurableStore) -> Result<(Self, Option<RecoveryReport>)> {
        if store.snapshot_seqs_desc()?.is_empty() {
            let mut system = ReisSystem::new(config);
            let mut store = store;
            store.set_telemetry(system.telemetry.clone());
            let bytes =
                build_snapshot(&mut system.controller, &system.databases, system.next_db_id)?;
            store.write_snapshot(0, &bytes)?;
            store.create_wal(0)?;
            system.durability = Some(Durability::new(store, 0));
            Ok((system, None))
        } else {
            let (system, report) = ReisSystem::recover(config, store)?;
            Ok((system, Some(report)))
        }
    }

    /// Checkpoint: write the next epoch's snapshot (the full current state,
    /// with every database's surviving corpus read back from flash in scan
    /// order), open its empty WAL, and garbage-collect all epochs older
    /// than the previous one — one complete fallback epoch is always kept.
    /// Returns the new epoch's sequence number.
    ///
    /// The snapshot is written *completely before* the new WAL is created,
    /// so a crash at any byte of the save leaves the previous epoch intact
    /// and recoverable.
    ///
    /// # Errors
    ///
    /// [`ReisError::Persist`] if no durable store is attached (the system
    /// was built with [`ReisSystem::new`] instead of [`ReisSystem::open`]),
    /// or on storage I/O failure.
    pub fn save(&mut self) -> Result<u64> {
        if self.durability.is_none() {
            return Err(ReisError::Persist(PersistError::Malformed(
                "save() requires a durably opened system (see ReisSystem::open)".into(),
            )));
        }
        let started = self.telemetry.is_enabled().then(Instant::now);
        let bytes = build_snapshot(&mut self.controller, &self.databases, self.next_db_id)?;
        let durability = self.durability.as_mut().expect("checked above");
        let seq = durability.seq + 1;
        durability.store.write_snapshot(seq, &bytes)?;
        durability.store.create_wal(seq)?;
        durability.seq = seq;
        durability.wal = DurableStore::wal_name(seq);
        durability.store.prune_before(seq.saturating_sub(1))?;
        if let Some(t0) = started {
            self.telemetry
                .observe(HistogramId::SnapshotWallNs, t0.elapsed().as_nanos() as u64);
        }
        Ok(seq)
    }

    /// The current durable epoch, or `None` for an in-memory system.
    pub fn durable_seq(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.seq)
    }

    /// A CRC32C fingerprint of the complete logical state: the checksum of
    /// the snapshot image [`ReisSystem::save`] would write right now. The
    /// snapshot writer is canonical (sorted sections, scan-order corpora),
    /// so two systems hold bit-identical state **iff** their fingerprints
    /// agree — the cluster layer uses this to assert that shard replicas
    /// stay in lockstep. Works on in-memory and durable systems alike.
    ///
    /// # Errors
    ///
    /// Propagates flash read-back errors from the snapshot builder.
    pub fn state_crc(&mut self) -> Result<u32> {
        let bytes = build_snapshot(&mut self.controller, &self.databases, self.next_db_id)?;
        Ok(reis_persist::crc32c(&bytes))
    }

    /// Scrub the attached durable store: verify every snapshot/WAL epoch's
    /// checksums without loading anything (see [`DurableStore::scrub`]).
    ///
    /// # Errors
    ///
    /// [`ReisError::Persist`] if the system is not durably opened, or on
    /// storage I/O failure. Corruption found is reported, not an error.
    pub fn scrub(&self) -> Result<ScrubReport> {
        match &self.durability {
            Some(durability) => Ok(durability.store.scrub()?),
            None => Err(ReisError::Persist(PersistError::Malformed(
                "scrub() requires a durably opened system (see ReisSystem::open)".into(),
            ))),
        }
    }

    /// Recover a system from `store`: newest valid snapshot, then WAL
    /// replay, then a fresh checkpoint.
    ///
    /// Recovery is *prefix-consistent*: the recovered state equals the
    /// durable prefix of the pre-crash history — every mutation whose WAL
    /// frame (or covering snapshot) reached storage intact, none after the
    /// first that did not. Corrupt snapshots fall back to older epochs;
    /// torn or corrupt WAL tails are quarantined and reported, never
    /// fatal and never a panic.
    ///
    /// # Errors
    ///
    /// * [`ReisError::Persist`] wrapping [`PersistError::NoSnapshot`] if
    ///   the store holds no snapshot at all.
    /// * [`ReisError::CorruptSnapshot`] if every snapshot present fails
    ///   validation.
    /// * Replay errors if an intact WAL record does not re-apply (id
    ///   divergence — a bug or foul play, not a crash artifact).
    pub fn recover(config: ReisConfig, store: DurableStore) -> Result<(Self, RecoveryReport)> {
        let started = Instant::now();
        let snapshot_seqs = store.snapshot_seqs_desc()?;
        if snapshot_seqs.is_empty() {
            return Err(PersistError::NoSnapshot.into());
        }

        // Newest snapshot that parses, validates and redeploys.
        let mut snapshots_skipped = 0u32;
        let mut chosen = None;
        let mut last_err: Option<ReisError> = None;
        for &seq in &snapshot_seqs {
            let file = DurableStore::snapshot_name(seq);
            let attempt = store
                .read_snapshot(seq)
                .map_err(ReisError::from)
                .and_then(|bytes| restore_from_snapshot(&config, &bytes, &file));
            match attempt {
                Ok(system) => {
                    chosen = Some((seq, system));
                    break;
                }
                Err(err) => {
                    snapshots_skipped += 1;
                    last_err = Some(err);
                }
            }
        }
        let Some((snapshot_seq, mut system)) = chosen else {
            return Err(last_err.unwrap_or_else(|| PersistError::NoSnapshot.into()));
        };

        // Replay the WAL chain `snapshot_seq, snapshot_seq + 1, …` in
        // order. Snapshot `s+1` is by construction snapshot `s` plus all
        // of `wal-s`, so later epochs' WALs continue seamlessly from
        // earlier ones. Stop at the first quarantined frame: everything
        // after it is past the durable prefix.
        let mut wal_records_applied = 0u64;
        let mut records_skipped_unknown_db = 0u64;
        let mut quarantined = None;
        let mut tip = snapshot_seq;
        let last_wal = store
            .wal_seqs_asc()?
            .last()
            .copied()
            .unwrap_or(snapshot_seq)
            .max(snapshot_seq);
        for epoch in snapshot_seq..=last_wal {
            tip = epoch;
            let bytes = store.read_wal(epoch)?;
            let (records, tail) = reis_persist::wal::read_records(&bytes);
            for record in records {
                if apply_record(&mut system, record)? {
                    wal_records_applied += 1;
                } else {
                    records_skipped_unknown_db += 1;
                }
            }
            if let WalTail::Quarantined { offset, detail } = tail {
                quarantined = Some(WalQuarantine {
                    file: DurableStore::wal_name(epoch),
                    offset,
                    detail,
                });
                break;
            }
        }

        // Checkpoint the recovered state as a fresh epoch; the quarantined
        // tail (if any) stays behind on storage, off the recovery path.
        let mut store = store;
        store.set_telemetry(system.telemetry.clone());
        system.durability = Some(Durability::new(store, tip));
        let checkpoint_seq = system.save()?;

        if system.telemetry.is_enabled() {
            system.telemetry.count(CounterId::Recoveries, 1);
            system
                .telemetry
                .count(CounterId::WalRecordsReplayed, wal_records_applied);
            if quarantined.is_some() {
                system.telemetry.count(CounterId::WalQuarantines, 1);
            }
            system.telemetry.observe(
                HistogramId::RecoveryWallNs,
                started.elapsed().as_nanos() as u64,
            );
        }

        Ok((
            system,
            RecoveryReport {
                snapshot_seq,
                snapshots_skipped,
                wal_records_applied,
                records_skipped_unknown_db,
                quarantined,
                checkpoint_seq,
            },
        ))
    }
}

/// Re-apply one WAL record through the ordinary (non-logging) mutation
/// paths. Returns `false` if the record targets a database the snapshot
/// does not know (skipped, counted by the caller).
fn apply_record(system: &mut ReisSystem, record: WalRecord) -> Result<bool> {
    if !system.databases.contains_key(&record.db_id()) {
        return Ok(false);
    }
    match record {
        WalRecord::InsertBatch {
            db_id,
            vectors,
            documents,
            ids,
        } => {
            let outcome = system.insert_batch_inner(db_id, None, &vectors, &documents)?;
            if outcome.ids != ids {
                return Err(PersistError::Malformed(format!(
                    "replay id divergence on database {db_id}: the WAL recorded ids {ids:?}, \
                     replay assigned {:?}",
                    outcome.ids
                ))
                .into());
            }
        }
        WalRecord::Delete { db_id, id } => {
            system.delete_inner(db_id, id)?;
        }
        WalRecord::Upsert {
            db_id,
            id,
            vector,
            document,
        } => {
            system.upsert_inner(db_id, id, &vector, &document)?;
        }
        WalRecord::Compact { db_id } => {
            system.compact_inner(db_id)?;
        }
        WalRecord::InsertBatchAt {
            db_id,
            vectors,
            documents,
            ids,
        } => {
            // The recorded ids are authoritative (the aggregator chose
            // them); replay re-applies the assignment verbatim, and the
            // routed-insert path re-validates freshness and uniqueness.
            system.insert_batch_inner(db_id, Some(&ids), &vectors, &documents)?;
        }
    }
    Ok(true)
}

/// Serialize the full system state as one snapshot container.
fn build_snapshot(
    controller: &mut SsdController,
    databases: &HashMap<u32, DeployedDatabase>,
    next_db_id: u32,
) -> Result<Vec<u8>> {
    let mut builder = SnapshotBuilder::new();
    // Databases in sorted-id order: snapshot bytes are a pure function of
    // the logical state, never of hash-map iteration order (the golden
    // fixture test depends on this).
    let mut ids: Vec<u32> = databases.keys().copied().collect();
    ids.sort_unstable();

    let mut meta = ByteWriter::new();
    meta.put_u32(next_db_id);
    meta.put_u32_slice(&ids);
    builder.add_section(SECTION_META, meta.into_bytes());

    for &db_id in &ids {
        if db_id >= 1 << 24 {
            return Err(ReisError::Persist(PersistError::Malformed(format!(
                "database id {db_id} exceeds the snapshot section namespace"
            ))));
        }
        let db = &databases[&db_id];
        let sweep = mutate::collect_survivors(controller, db)?;
        let (survivors, bounds) = (sweep.survivors, sweep.cluster_bounds);

        let mut w = ByteWriter::new();
        w.put_u32(db.binary_quantizer.dim() as u32);
        w.put_u32(db.updates.next_id);
        w.put_u64(db.updates.generation);
        w.put_u32(db.layout.doc_slot_bytes as u32);
        w.put_u8(u8::from(db.is_ivf()));
        w.put_u32(bounds.len() as u32);
        for &(begin, end) in &bounds {
            w.put_u32(begin as u32);
            w.put_u32(end as u32);
        }
        builder.add_section(db_section(db_id, KIND_DBMETA), w.into_bytes());

        let mut w = ByteWriter::new();
        w.put_f32_slice(db.binary_quantizer.thresholds());
        w.put_f32_slice(db.int8_quantizer.offsets());
        w.put_f32_slice(db.int8_quantizer.scales());
        builder.add_section(db_section(db_id, KIND_QUANT), w.into_bytes());

        if db.is_ivf() {
            let centroids = read_centroids(controller, db)?;
            let mut w = ByteWriter::new();
            w.put_u32(centroids.len() as u32);
            for packed in &centroids {
                w.put_bytes(packed);
            }
            builder.add_section(db_section(db_id, KIND_CENTROIDS), w.into_bytes());
        }

        let mut w = ByteWriter::new();
        w.put_u32(survivors.len() as u32);
        for s in &survivors {
            w.put_u32(s.id);
            w.put_bytes(&s.binary);
            w.put_bytes(&s.int8);
            w.put_bytes(&s.doc);
        }
        builder.add_section(db_section(db_id, KIND_ENTRIES), w.into_bytes());
    }
    Ok(builder.finish())
}

/// Read every IVF centroid's packed bits back from the deployment's
/// centroid pages.
fn read_centroids(controller: &mut SsdController, db: &DeployedDatabase) -> Result<Vec<Vec<u8>>> {
    let layout = db.layout;
    let locations: Vec<(usize, usize)> = (0..layout.centroids)
        .map(|cluster| layout.centroid_location(cluster))
        .collect();
    let mut out = Vec::with_capacity(layout.centroids);
    for same_page in locations.chunk_by(|a, b| a.0 == b.0) {
        let view = controller.read_region_page_view(
            &db.record.embedding_region,
            same_page[0].0,
            RegionKind::BinaryEmbeddings,
        )?;
        for &(_, slot) in same_page {
            let start = slot * layout.embedding_slot_bytes;
            out.push(view.data[start..start + layout.embedding_bytes].to_vec());
        }
    }
    Ok(out)
}

/// One database's decoded snapshot sections.
struct DbSnapshot {
    db_id: u32,
    dim: usize,
    next_id: u32,
    generation: u64,
    doc_slot_bytes: usize,
    is_ivf: bool,
    bounds: Vec<(usize, usize)>,
    thresholds: Vec<f32>,
    offsets: Vec<f32>,
    scales: Vec<f32>,
    centroids: Vec<Vec<u8>>,
    ids: Vec<u32>,
    binary: Vec<Vec<u8>>,
    int8: Vec<Vec<u8>>,
    docs: Vec<Vec<u8>>,
}

fn corrupt(file: &str, detail: impl Into<String>) -> ReisError {
    PersistError::CorruptSnapshot {
        file: file.to_string(),
        detail: detail.into(),
    }
    .into()
}

/// Parse a snapshot and rebuild a full system from it (no WAL, no attached
/// durability — the caller layers those on).
fn restore_from_snapshot(config: &ReisConfig, bytes: &[u8], file: &str) -> Result<ReisSystem> {
    let reader = SnapshotReader::parse(bytes, file)?;
    let meta = reader
        .section(SECTION_META)
        .ok_or_else(|| corrupt(file, "missing system metadata section"))?;
    let mut r = ByteReader::new(meta);
    let next_db_id = r.get_u32()?;
    let ids = r.get_u32_vec()?;
    r.expect_end()?;

    let mut system = ReisSystem::new(*config);
    for &db_id in &ids {
        let snap = decode_db(&reader, db_id, file)?;
        install_db(&mut system, snap)?;
    }
    system.next_db_id = next_db_id.max(system.next_db_id);
    Ok(system)
}

/// Decode one database's sections into host-side vectors, validating every
/// cross-section invariant (the section CRCs guarantee the bytes are as
/// written; this guards against format drift and hand-crafted files).
fn decode_db(reader: &SnapshotReader<'_>, db_id: u32, file: &str) -> Result<DbSnapshot> {
    let section = |kind: u32, name: &str| {
        reader.section(db_section(db_id, kind)).ok_or_else(|| {
            corrupt(
                file,
                format!("database {db_id} is missing its {name} section"),
            )
        })
    };

    let mut r = ByteReader::new(section(KIND_DBMETA, "metadata")?);
    let dim = r.get_u32()? as usize;
    let next_id = r.get_u32()?;
    let generation = r.get_u64()?;
    let doc_slot_bytes = r.get_u32()? as usize;
    let is_ivf = r.get_u8()? != 0;
    let ncluster_bounds = r.get_u32()? as usize;
    if ncluster_bounds > r.remaining() / 8 {
        return Err(corrupt(
            file,
            format!("database {db_id} declares {ncluster_bounds} cluster bounds"),
        ));
    }
    let mut bounds = Vec::with_capacity(ncluster_bounds);
    for _ in 0..ncluster_bounds {
        let begin = r.get_u32()? as usize;
        let end = r.get_u32()? as usize;
        bounds.push((begin, end));
    }
    r.expect_end()?;

    let mut r = ByteReader::new(section(KIND_QUANT, "quantizer")?);
    let thresholds = r.get_f32_vec()?;
    let offsets = r.get_f32_vec()?;
    let scales = r.get_f32_vec()?;
    r.expect_end()?;
    if thresholds.len() != dim || offsets.len() != dim || scales.len() != dim {
        return Err(corrupt(
            file,
            format!("database {db_id} quantizer parameters do not cover dimension {dim}"),
        ));
    }

    let centroids = if is_ivf {
        let mut r = ByteReader::new(section(KIND_CENTROIDS, "centroid")?);
        let count = r.get_u32()? as usize;
        if count > r.remaining() {
            return Err(corrupt(
                file,
                format!("database {db_id} declares {count} centroids"),
            ));
        }
        let mut centroids = Vec::with_capacity(count);
        for _ in 0..count {
            centroids.push(r.get_bytes()?.to_vec());
        }
        r.expect_end()?;
        centroids
    } else {
        Vec::new()
    };

    let mut r = ByteReader::new(section(KIND_ENTRIES, "entry")?);
    let count = r.get_u32()? as usize;
    if count > r.remaining() {
        return Err(corrupt(
            file,
            format!("database {db_id} declares {count} entries"),
        ));
    }
    let mut ids = Vec::with_capacity(count);
    let mut binary = Vec::with_capacity(count);
    let mut int8 = Vec::with_capacity(count);
    let mut docs = Vec::with_capacity(count);
    for _ in 0..count {
        ids.push(r.get_u32()?);
        binary.push(r.get_bytes()?.to_vec());
        int8.push(r.get_bytes()?.to_vec());
        docs.push(r.get_bytes()?.to_vec());
    }
    r.expect_end()?;

    // Cross-section invariants, checked up front so rebuilding below can
    // never panic on a malformed (but checksum-valid) file.
    let packed = dim.div_ceil(8);
    if binary.iter().any(|b| b.len() != packed) || int8.iter().any(|v| v.len() != dim) {
        return Err(corrupt(
            file,
            format!("database {db_id} has embedding codes of the wrong width"),
        ));
    }
    if is_ivf && centroids.iter().any(|c| c.len() != packed) {
        return Err(corrupt(
            file,
            format!("database {db_id} has centroid codes of the wrong width"),
        ));
    }
    if is_ivf && centroids.len() != bounds.len() {
        return Err(corrupt(
            file,
            format!(
                "database {db_id} has {} centroids but {} cluster bounds",
                centroids.len(),
                bounds.len()
            ),
        ));
    }
    let mut cursor = 0usize;
    for &(begin, end) in &bounds {
        if begin != cursor || end < begin {
            return Err(corrupt(
                file,
                format!("database {db_id} cluster bounds are not a partition"),
            ));
        }
        cursor = end;
    }
    if cursor != count {
        return Err(corrupt(
            file,
            format!("database {db_id} cluster bounds cover {cursor} of {count} entries"),
        ));
    }
    if ids.iter().any(|&id| id >= next_id) {
        return Err(corrupt(
            file,
            format!("database {db_id} has an entry id at or above next_id {next_id}"),
        ));
    }

    Ok(DbSnapshot {
        db_id,
        dim,
        next_id,
        generation,
        doc_slot_bytes,
        is_ivf,
        bounds,
        thresholds,
        offsets,
        scales,
        centroids,
        ids,
        binary,
        int8,
        docs,
    })
}

/// Redeploy one decoded database into a recovering system, restoring its
/// stable ids and mutation counters.
fn install_db(system: &mut ReisSystem, snap: DbSnapshot) -> Result<()> {
    let binary_quantizer = BinaryQuantizer::from_thresholds(snap.thresholds);
    let int8_quantizer = Int8Quantizer::from_parts(snap.offsets, snap.scales);
    let dim = snap.dim;
    let packed = dim.div_ceil(8);

    // A database can be live with zero surviving entries (everything
    // deleted, then compacted or snapshotted). The deployment machinery
    // requires at least one entry, so recovery plants a zeroed dummy under
    // id 0 — provably dead, since no live ids exist — and tombstones it
    // right after, restoring the "deployed but empty" state.
    let empty = snap.ids.is_empty();
    let (ids, binary, int8, docs) = if empty {
        (
            vec![0u32],
            vec![vec![0u8; packed]],
            vec![vec![0u8; dim]],
            vec![Vec::new()],
        )
    } else {
        (snap.ids, snap.binary, snap.int8, snap.docs)
    };

    let clusters = if snap.is_ivf {
        let centroids: Vec<BinaryVector> = snap
            .centroids
            .iter()
            .map(|packed_bits| BinaryVector::from_packed(dim, packed_bits.clone()))
            .collect();
        let mut lists: Vec<Vec<usize>> = if empty {
            let mut lists = vec![Vec::new(); snap.bounds.len().max(1)];
            lists[0] = vec![0];
            lists
        } else {
            snap.bounds
                .iter()
                .map(|&(begin, end)| (begin..end).collect())
                .collect()
        };
        lists.resize(centroids.len().max(lists.len()), Vec::new());
        Some(ClusterInfo { centroids, lists })
    } else {
        None
    };

    let binary_vectors: Vec<BinaryVector> = binary
        .into_iter()
        .map(|bytes| BinaryVector::from_packed(dim, bytes))
        .collect();
    let int8_vectors: Vec<Int8Vector> = int8
        .into_iter()
        .map(|bytes| Int8Vector::new(bytes.into_iter().map(|b| b as i8).collect()))
        .collect();

    let database = VectorDatabase::from_quantized_parts(
        dim,
        binary_vectors,
        int8_vectors,
        docs,
        binary_quantizer,
        int8_quantizer,
        clusters,
    )?;
    let mut deployed = deploy::deploy_with_ids(
        &mut system.controller,
        &database,
        snap.db_id,
        &ids,
        snap.doc_slot_bytes,
    )?;

    // Restore the mutation counters the snapshot carried: ids keep
    // advancing from where the pre-crash system left off and future
    // compactions keep minting fresh region generation names.
    deployed.updates.next_id = snap.next_id;
    deployed.updates.generation = snap.generation;

    if empty {
        mutate::delete_entry(&mut system.controller, &mut deployed, 0)?;
    }
    system.install(deployed)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use reis_persist::{MemVfs, Vfs};

    fn vectors(n: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|d| (((i * 7 + d * 3) % 17) as f32 - 8.0) / 4.0)
                    .collect()
            })
            .collect()
    }

    fn documents(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("doc {i}").into_bytes()).collect()
    }

    fn store_over(vfs: &MemVfs) -> DurableStore {
        DurableStore::new(Box::new(vfs.clone()))
    }

    #[test]
    fn save_then_recover_round_trips_searches_and_counters() {
        let vfs = MemVfs::new();
        let (mut system, report) = ReisSystem::open(ReisConfig::tiny(), store_over(&vfs)).unwrap();
        assert!(report.is_none());

        let vecs = vectors(96, 32);
        let db = VectorDatabase::ivf(&vecs, documents(96), 4).unwrap();
        let db_id = system.deploy(&db).unwrap();
        // Mutate past the deploy checkpoint so recovery exercises replay.
        let fresh: Vec<f32> = (0..32).map(|d| (d % 5) as f32).collect();
        let inserted = system.insert(db_id, &fresh, b"fresh".to_vec()).unwrap();
        system.delete(db_id, 3).unwrap();
        system.upsert(db_id, 7, &fresh, b"updated 7").unwrap();

        let expected: Vec<_> = (0..4)
            .map(|q| system.search(db_id, &vecs[q * 11], 5).unwrap())
            .collect();
        let expected_seq = system.durable_seq().unwrap();
        drop(system);

        let (mut recovered, report) =
            ReisSystem::recover(ReisConfig::tiny(), store_over(&vfs)).unwrap();
        assert_eq!(report.snapshot_seq, expected_seq);
        assert_eq!(report.wal_records_applied, 3, "insert + delete + upsert");
        assert_eq!(report.records_skipped_unknown_db, 0);
        assert!(report.quarantined.is_none());
        assert_eq!(report.checkpoint_seq, expected_seq + 1);

        for (q, want) in expected.iter().enumerate() {
            let got = recovered.search(db_id, &vecs[q * 11], 5).unwrap();
            assert_eq!(got.results, want.results, "query {q}");
            assert_eq!(got.documents, want.documents, "query {q}");
        }
        // Counters survived: a new insert continues the id sequence.
        let next = recovered.insert(db_id, &fresh, b"post".to_vec()).unwrap();
        assert_eq!(next.ids[0], inserted.ids[0] + 1);
    }

    #[test]
    fn appends_after_a_save_go_to_the_new_epochs_wal() {
        let vfs = MemVfs::new();
        let (mut system, _) = ReisSystem::open(ReisConfig::tiny(), store_over(&vfs)).unwrap();
        let vecs = vectors(48, 32);
        let db = VectorDatabase::flat(&vecs, documents(48)).unwrap();
        let db_id = system.deploy(&db).unwrap();
        let fresh: Vec<f32> = (0..32).map(|d| (d % 5) as f32).collect();
        let insert = |system: &mut ReisSystem, doc: &str| {
            system.insert(db_id, &fresh, doc.into()).unwrap();
        };
        insert(&mut system, "first 0");
        insert(&mut system, "first 1");
        let old_wal = DurableStore::wal_name(system.durable_seq().unwrap());
        let old_bytes = vfs.read_file(&old_wal).unwrap();
        assert_eq!(reis_persist::wal::read_records(&old_bytes).0.len(), 2);

        let seq = system.save().unwrap();
        for doc in ["second 0", "second 1", "second 2"] {
            insert(&mut system, doc);
        }
        // The second batch lands in the new epoch's WAL, not the old one.
        assert_eq!(vfs.read_file(&old_wal).unwrap(), old_bytes);
        let new_wal = vfs.read_file(&DurableStore::wal_name(seq)).unwrap();
        let (records, tail) = reis_persist::wal::read_records(&new_wal);
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(records.len(), 3);
        drop(system);

        // The first batch comes back from the snapshot, the second from the
        // new WAL.
        let (mut recovered, report) =
            ReisSystem::recover(ReisConfig::tiny(), store_over(&vfs)).unwrap();
        assert_eq!(report.snapshot_seq, seq);
        assert_eq!(report.wal_records_applied, 3);
        assert!(report.quarantined.is_none());
        let mut docs = recovered.search(db_id, &fresh, 5).unwrap().documents;
        docs.sort();
        let want: Vec<&[u8]> = vec![
            b"first 0",
            b"first 1",
            b"second 0",
            b"second 1",
            b"second 2",
        ];
        assert_eq!(docs, want);
    }

    #[test]
    fn open_on_populated_store_recovers_and_new_requires_open_for_save() {
        let vfs = MemVfs::new();
        let (mut system, _) = ReisSystem::open(ReisConfig::tiny(), store_over(&vfs)).unwrap();
        let vecs = vectors(64, 32);
        let db = VectorDatabase::flat(&vecs, documents(64)).unwrap();
        let db_id = system.deploy(&db).unwrap();
        drop(system);

        let (mut reopened, report) =
            ReisSystem::open(ReisConfig::tiny(), store_over(&vfs)).unwrap();
        let report = report.expect("populated store recovers");
        assert!(report.quarantined.is_none());
        let hit = reopened.search(db_id, &vecs[9], 1).unwrap();
        assert_eq!(hit.results[0].id, 9);

        let mut in_memory = ReisSystem::new(ReisConfig::tiny());
        assert!(matches!(
            in_memory.save(),
            Err(ReisError::Persist(PersistError::Malformed(_)))
        ));
    }

    #[test]
    fn recovering_an_emptied_database_keeps_it_deployed_and_usable() {
        let vfs = MemVfs::new();
        let (mut system, _) = ReisSystem::open(ReisConfig::tiny(), store_over(&vfs)).unwrap();
        let vecs = vectors(24, 32);
        let db = VectorDatabase::flat(&vecs, documents(24)).unwrap();
        let db_id = system.deploy(&db).unwrap();
        for id in 0..24 {
            system.delete(db_id, id).unwrap();
        }
        system.save().unwrap();
        drop(system);

        let (mut recovered, report) =
            ReisSystem::recover(ReisConfig::tiny(), store_over(&vfs)).unwrap();
        assert!(report.quarantined.is_none());
        // The database is still deployed, empty, and accepts new entries
        // with ids continuing past the deleted ones.
        let fresh: Vec<f32> = (0..32).map(|d| (d % 3) as f32).collect();
        let outcome = recovered.insert(db_id, &fresh, b"revive".to_vec()).unwrap();
        assert_eq!(outcome.ids[0], 24);
        let hit = recovered.search(db_id, &fresh, 1).unwrap();
        assert_eq!(hit.results[0].id, 24);
        assert_eq!(hit.documents[0], b"revive");
    }
}
