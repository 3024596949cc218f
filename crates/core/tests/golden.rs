//! Golden snapshot fixture: a committed byte-for-byte snapshot of a known
//! system state. Three contracts ride on it:
//!
//! * **Format stability** — today's writer must reproduce the committed
//!   bytes exactly. A diff means the on-disk format changed: bump
//!   `SNAPSHOT_VERSION`, keep a reader for the old format, and regenerate
//!   with `REIS_REGEN_FIXTURES=1 cargo test -p reis-core --test golden`.
//! * **Backward compatibility** — the committed fixture (written by the
//!   oldest build of this format) must load in the current build and
//!   answer searches identically to a freshly built copy of its state.
//! * **Corruption rejection** — any single flipped byte, and any future
//!   format version, must be rejected with a structured error, never a
//!   panic.

use std::path::PathBuf;

use reis_core::{
    CompactionPolicy, DurableStore, MemVfs, PersistError, ReisConfig, ReisError, ReisSystem,
    VectorDatabase, Vfs,
};

const DIM: usize = 24;
const ENTRIES: u32 = 20;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join("snapshot-v1.bin")
}

fn vector_for(id: u32, salt: u64) -> Vec<f32> {
    (0..DIM)
        .map(|d| {
            let x = (id as u64)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(d as u64 * 0x85EB_CA6B)
                .wrapping_add(salt.wrapping_mul(0xC2B2_AE35));
            ((x >> 7) % 23) as f32 - 11.0
        })
        .collect()
}

fn doc_for(id: u32, version: u32) -> Vec<u8> {
    format!("golden doc {id:04} v{version} ...............").into_bytes()
}

/// The fixture recipe: deploy a small corpus, churn it a little, and
/// checkpoint. Every run of this function produces a byte-identical
/// snapshot — the serializer is offset-addressed and iterates databases
/// and sections in sorted order.
fn build_fixture_state() -> (MemVfs, u64) {
    let vectors: Vec<Vec<f32>> = (0..ENTRIES).map(|id| vector_for(id, 0)).collect();
    let documents: Vec<Vec<u8>> = (0..ENTRIES).map(|id| doc_for(id, 0)).collect();
    let template = VectorDatabase::flat(&vectors, documents).expect("fixture database");

    let mem = MemVfs::new();
    let store = DurableStore::new(Box::new(mem.clone()));
    let config = ReisConfig::tiny().with_compaction(CompactionPolicy::manual());
    let (mut system, _) = ReisSystem::open(config, store).expect("open");
    let db = system.deploy(&template).expect("deploy");
    for id in [100u32, 101] {
        system
            .insert(db, &vector_for(id, 1), doc_for(id, 1))
            .expect("insert");
    }
    system.delete(db, 3).expect("delete");
    system
        .upsert(db, 7, &vector_for(7, 2), &doc_for(7, 2))
        .expect("upsert");
    let seq = system.save().expect("checkpoint");
    (mem, seq)
}

fn current_snapshot_bytes() -> Vec<u8> {
    let (mem, seq) = build_fixture_state();
    mem.read_file(&DurableStore::snapshot_name(seq))
        .expect("snapshot file")
}

/// Recover a system from raw snapshot bytes planted as epoch 1 of a fresh
/// store (no WAL — recovery tolerates the missing file as an empty log).
fn recover_from_bytes(bytes: &[u8]) -> reis_core::Result<(ReisSystem, u32)> {
    let mem = MemVfs::new();
    mem.write_file(&DurableStore::snapshot_name(1), bytes)
        .expect("plant fixture");
    let store = DurableStore::new(Box::new(mem));
    let (system, report) = ReisSystem::recover(ReisConfig::tiny(), store)?;
    assert_eq!(report.snapshot_seq, 1);
    // The fixture recipe deploys exactly one database; ids start at 1.
    Ok((system, 1))
}

#[test]
fn golden_fixture_matches_current_writer() {
    let bytes = current_snapshot_bytes();
    let path = fixture_path();
    if std::env::var("REIS_REGEN_FIXTURES").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixtures dir")).expect("mkdir");
        std::fs::write(&path, &bytes).expect("write fixture");
        return;
    }
    let committed = std::fs::read(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden fixture {} — regenerate with REIS_REGEN_FIXTURES=1",
            path.display()
        )
    });
    assert_eq!(
        committed, bytes,
        "snapshot format drifted from the committed golden fixture: if the \
         change is intentional, bump SNAPSHOT_VERSION, keep a reader for \
         the old format, and regenerate with REIS_REGEN_FIXTURES=1"
    );
    // Determinism of the writer itself (same state twice, same bytes).
    assert_eq!(bytes, current_snapshot_bytes());
}

#[test]
fn golden_fixture_loads_and_answers_searches() {
    let committed = std::fs::read(fixture_path()).expect("golden fixture present");
    let (mut old, db) = recover_from_bytes(&committed).expect("backward-compat load");

    // A freshly rebuilt copy of the same state is the reference.
    let (mem, _) = build_fixture_state();
    let store = DurableStore::new(Box::new(mem));
    let (mut fresh, _) = ReisSystem::recover(ReisConfig::tiny(), store).expect("fresh state");

    assert_eq!(
        old.database(db).expect("db").live_entries(),
        (ENTRIES + 2 - 1) as usize
    );
    for q in 0..4u32 {
        let query = vector_for(8_000 + q, 13);
        let a = old.search(db, &query, 6).expect("fixture search");
        let b = fresh.search(db, &query, 6).expect("reference search");
        assert_eq!(a.result_ids(), b.result_ids(), "query {q}");
        assert_eq!(a.documents, b.documents, "query {q}");
    }
    // The upserted document (not the original) is what the fixture holds.
    let hit = old.search(db, &vector_for(7, 2), 1).expect("upsert probe");
    assert_eq!(hit.documents[0], doc_for(7, 2));
}

#[test]
fn every_flipped_byte_is_rejected_without_panicking() {
    let committed = std::fs::read(fixture_path()).expect("golden fixture present");
    // Sweep a coprime stride so every region of the file gets hit across
    // offsets: superblock, directory, CRC words, section payloads, tail.
    let mut offset = 0usize;
    let mut flips = 0;
    while offset < committed.len() {
        let mut tampered = committed.clone();
        tampered[offset] ^= 0x40;
        let err = recover_from_bytes(&tampered).expect_err("tampered snapshot must be rejected");
        assert!(
            matches!(err, ReisError::CorruptSnapshot(_) | ReisError::Persist(_)),
            "byte {offset}: unexpected error shape {err:?}"
        );
        offset += 97;
        flips += 1;
    }
    assert!(flips > 10, "sweep covered the file");
    // Truncation anywhere is likewise rejected.
    for cut in [0, 7, committed.len() / 2, committed.len() - 1] {
        recover_from_bytes(&committed[..cut]).expect_err("truncated snapshot must be rejected");
    }
}

#[test]
fn future_format_versions_are_rejected_as_unsupported() {
    let committed = std::fs::read(fixture_path()).expect("golden fixture present");
    // Patch the version word (offset 8) and re-seal the superblock CRC so
    // the *version check* is what rejects the file, not the checksum.
    let mut future = committed.clone();
    future[8..12].copy_from_slice(&99u32.to_le_bytes());
    let sections = u32::from_le_bytes(future[12..16].try_into().expect("4 bytes")) as usize;
    let header_len = 16 + sections * 24;
    let crc = reis_kernels::crc32c(&future[..header_len]);
    future[header_len..header_len + 4].copy_from_slice(&crc.to_le_bytes());

    let err = recover_from_bytes(&future).expect_err("future version must be rejected");
    match &err {
        ReisError::CorruptSnapshot(inner) => assert!(
            matches!(inner, PersistError::UnsupportedVersion { .. }),
            "expected UnsupportedVersion, got {inner:?}"
        ),
        other => panic!("expected CorruptSnapshot(UnsupportedVersion), got {other:?}"),
    }
    assert!(err.to_string().contains("version"), "actionable message");
}
