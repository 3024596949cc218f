//! The append-only mutation WAL.
//!
//! Between snapshots, every mutation is appended to the current epoch's
//! WAL file as one self-checking frame:
//!
//! ```text
//! [payload len u32][payload crc32c u32][payload]
//! ```
//!
//! The payload is a [`WalRecord`] in the [`crate::wire`] format: an opcode
//! byte, the target database id, and the operation's arguments. Replay
//! applies records through the ordinary mutation paths, so the WAL never
//! needs to encode any *derived* state (segments, tombstones, relocation
//! tables) — it re-derives on replay, byte-identically.
//!
//! Reading is prefix-consistent by construction: [`read_records`] decodes
//! frames until the first one that is truncated, checksum-broken or
//! undecodable, and reports everything from that offset on as a
//! quarantined tail ([`WalTail`]). A torn append (power loss mid-frame)
//! therefore costs exactly the operations that were never acknowledged as
//! durable — never a panic, never a misparse of half-written bytes.

use reis_kernels::crc32c;

use crate::error::{PersistError, Result};
use crate::wire::{ByteReader, ByteWriter};

/// Bytes of a frame header (length + checksum).
pub const FRAME_HEADER_BYTES: usize = 8;

const OP_INSERT_BATCH: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_UPSERT: u8 = 3;
const OP_COMPACT: u8 = 4;
const OP_INSERT_BATCH_AT: u8 = 5;

/// One durable mutation record.
///
/// Targets are *stable entry ids* (the OOB `dadr` namespace), and an
/// insert batch carries the ids the live system assigned, so replay can
/// verify it re-derives the same assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A batch insert with the vectors, documents and assigned stable ids.
    InsertBatch {
        /// Target deployed database.
        db_id: u32,
        /// One embedding per inserted entry.
        vectors: Vec<Vec<f32>>,
        /// One document chunk per inserted entry.
        documents: Vec<Vec<u8>>,
        /// The stable ids the system assigned, in batch order.
        ids: Vec<u32>,
    },
    /// Deletion of one stable id.
    Delete {
        /// Target deployed database.
        db_id: u32,
        /// Stable id of the deleted entry.
        id: u32,
    },
    /// Replacement of one stable id's embedding and document.
    Upsert {
        /// Target deployed database.
        db_id: u32,
        /// Stable id of the replaced entry.
        id: u32,
        /// The replacement embedding.
        vector: Vec<f32>,
        /// The replacement document chunk.
        document: Vec<u8>,
    },
    /// An explicit compaction pass (folds segments/tombstones into a fresh
    /// base region; search-invisible but changes physical layout).
    Compact {
        /// Target deployed database.
        db_id: u32,
    },
    /// A batch insert at *caller-chosen* stable ids (cluster routing uses
    /// this so every leaf stores the globally assigned id natively).
    /// Unlike [`WalRecord::InsertBatch`], replay takes the recorded ids as
    /// authoritative instead of cross-checking a re-derivation.
    InsertBatchAt {
        /// Target deployed database.
        db_id: u32,
        /// One embedding per inserted entry.
        vectors: Vec<Vec<f32>>,
        /// One document chunk per inserted entry.
        documents: Vec<Vec<u8>>,
        /// The caller-chosen stable ids, in batch order.
        ids: Vec<u32>,
    },
}

impl WalRecord {
    /// The deployed database the record targets.
    pub fn db_id(&self) -> u32 {
        match self {
            WalRecord::InsertBatch { db_id, .. }
            | WalRecord::Delete { db_id, .. }
            | WalRecord::Upsert { db_id, .. }
            | WalRecord::Compact { db_id }
            | WalRecord::InsertBatchAt { db_id, .. } => *db_id,
        }
    }

    fn put(&self, w: &mut ByteWriter) {
        match self {
            WalRecord::InsertBatch {
                db_id,
                vectors,
                documents,
                ids,
            } => put_insert_batch(w, OP_INSERT_BATCH, *db_id, vectors, documents, ids),
            WalRecord::Delete { db_id, id } => {
                w.put_u8(OP_DELETE);
                w.put_u32(*db_id);
                w.put_u32(*id);
            }
            WalRecord::Upsert {
                db_id,
                id,
                vector,
                document,
            } => put_upsert(w, *db_id, *id, vector, document),
            WalRecord::Compact { db_id } => {
                w.put_u8(OP_COMPACT);
                w.put_u32(*db_id);
            }
            WalRecord::InsertBatchAt {
                db_id,
                vectors,
                documents,
                ids,
            } => put_insert_batch(w, OP_INSERT_BATCH_AT, *db_id, vectors, documents, ids),
        }
    }

    /// Decode a record payload. The payload must decode exactly — trailing
    /// bytes are as malformed as missing ones.
    pub fn decode(payload: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(payload);
        let op = r.get_u8()?;
        let db_id = r.get_u32()?;
        let record = match op {
            OP_INSERT_BATCH => {
                let count = r.get_u32()? as usize;
                let mut vectors = Vec::with_capacity(count.min(payload.len()));
                let mut documents = Vec::with_capacity(count.min(payload.len()));
                let mut ids = Vec::with_capacity(count.min(payload.len()));
                for _ in 0..count {
                    vectors.push(r.get_f32_vec()?);
                    documents.push(r.get_bytes()?.to_vec());
                    ids.push(r.get_u32()?);
                }
                WalRecord::InsertBatch {
                    db_id,
                    vectors,
                    documents,
                    ids,
                }
            }
            OP_DELETE => WalRecord::Delete {
                db_id,
                id: r.get_u32()?,
            },
            OP_UPSERT => WalRecord::Upsert {
                db_id,
                id: r.get_u32()?,
                vector: r.get_f32_vec()?,
                document: r.get_bytes()?.to_vec(),
            },
            OP_COMPACT => WalRecord::Compact { db_id },
            OP_INSERT_BATCH_AT => {
                let count = r.get_u32()? as usize;
                let mut vectors = Vec::with_capacity(count.min(payload.len()));
                let mut documents = Vec::with_capacity(count.min(payload.len()));
                let mut ids = Vec::with_capacity(count.min(payload.len()));
                for _ in 0..count {
                    vectors.push(r.get_f32_vec()?);
                    documents.push(r.get_bytes()?.to_vec());
                    ids.push(r.get_u32()?);
                }
                WalRecord::InsertBatchAt {
                    db_id,
                    vectors,
                    documents,
                    ids,
                }
            }
            other => {
                return Err(PersistError::Malformed(format!(
                    "unknown WAL opcode {other}"
                )))
            }
        };
        r.expect_end()?;
        Ok(record)
    }

    /// Encode the record as one framed WAL append.
    pub fn encode_framed(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_framed_into(&mut out);
        out
    }

    /// [`WalRecord::encode_framed`] into `out`, replacing its contents and
    /// reusing its capacity.
    pub fn encode_framed_into(&self, out: &mut Vec<u8>) {
        let payload = match self {
            WalRecord::InsertBatch {
                vectors, documents, ..
            }
            | WalRecord::InsertBatchAt {
                vectors, documents, ..
            } => insert_batch_payload_len(vectors, documents),
            WalRecord::Upsert {
                vector, document, ..
            } => upsert_payload_len(vector, document),
            WalRecord::Delete { .. } => 9,
            WalRecord::Compact { .. } => 5,
        };
        framed(out, payload, |w| self.put(w));
    }
}

/// Payload bytes of a batch insert: opcode, database id and count, then per
/// entry its counted vector, its length-prefixed document and its id.
fn insert_batch_payload_len(vectors: &[impl AsRef<[f32]>], documents: &[Vec<u8>]) -> usize {
    let entries: usize = vectors
        .iter()
        .zip(documents)
        .map(|(vector, document)| 4 + 4 * vector.as_ref().len() + 4 + document.len() + 4)
        .sum();
    9 + entries
}

/// Payload bytes of an upsert: opcode, database id, id, then the counted
/// vector and the length-prefixed document.
fn upsert_payload_len(vector: &[f32], document: &[u8]) -> usize {
    9 + 4 + 4 * vector.len() + 4 + document.len()
}

fn put_insert_batch(
    w: &mut ByteWriter,
    op: u8,
    db_id: u32,
    vectors: &[impl AsRef<[f32]>],
    documents: &[Vec<u8>],
    ids: &[u32],
) {
    assert_eq!(vectors.len(), documents.len(), "one document per vector");
    assert_eq!(vectors.len(), ids.len(), "one stable id per vector");
    w.put_u8(op);
    w.put_u32(db_id);
    w.put_u32(vectors.len() as u32);
    for ((vector, document), id) in vectors.iter().zip(documents).zip(ids) {
        w.put_f32_slice(vector.as_ref());
        w.put_bytes(document);
        w.put_u32(*id);
    }
}

fn put_upsert(w: &mut ByteWriter, db_id: u32, id: u32, vector: &[f32], document: &[u8]) {
    w.put_u8(OP_UPSERT);
    w.put_u32(db_id);
    w.put_u32(id);
    w.put_f32_slice(vector);
    w.put_bytes(document);
}

/// The framed WAL append of a batch insert, encoded straight from the
/// mutation's own arguments into `out` (its contents replaced, its capacity
/// reused): byte for byte what [`WalRecord::InsertBatchAt`] (`chosen_ids`)
/// or [`WalRecord::InsertBatch`] of the same values encodes to, without
/// cloning the batch into a record first.
pub fn frame_insert_batch(
    out: &mut Vec<u8>,
    chosen_ids: bool,
    db_id: u32,
    vectors: &[impl AsRef<[f32]>],
    documents: &[Vec<u8>],
    ids: &[u32],
) {
    let op = if chosen_ids {
        OP_INSERT_BATCH_AT
    } else {
        OP_INSERT_BATCH
    };
    let payload = insert_batch_payload_len(vectors, documents);
    framed(out, payload, |w| {
        put_insert_batch(w, op, db_id, vectors, documents, ids)
    });
}

/// The framed WAL append of an upsert, encoded from borrowed arguments into
/// `out` (see [`frame_insert_batch`]): byte for byte a framed
/// [`WalRecord::Upsert`].
pub fn frame_upsert(out: &mut Vec<u8>, db_id: u32, id: u32, vector: &[f32], document: &[u8]) {
    let payload = upsert_payload_len(vector, document);
    framed(out, payload, |w| put_upsert(w, db_id, id, vector, document));
}

/// Encode a `payload_len`-byte payload into `out` behind a frame header
/// that is filled in afterwards: `out` is cleared and sized for the frame
/// once, and the payload is written once, where it stays.
fn framed(out: &mut Vec<u8>, payload_len: usize, put: impl FnOnce(&mut ByteWriter)) {
    let mut w = ByteWriter::reuse(std::mem::take(out));
    w.reserve(FRAME_HEADER_BYTES + payload_len);
    w.put_raw(&[0; FRAME_HEADER_BYTES]);
    put(&mut w);
    *out = w.into_bytes();
    let (header, payload) = out.split_at_mut(FRAME_HEADER_BYTES);
    debug_assert_eq!(payload.len(), payload_len, "payload size estimate");
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32c(payload).to_le_bytes());
}

/// What the end of a WAL file looked like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalTail {
    /// Every byte belonged to a valid frame.
    Clean,
    /// Bytes from `offset` on were quarantined: `detail` says why the
    /// frame there failed validation. Everything before `offset` was
    /// replayable.
    Quarantined {
        /// Byte offset of the first invalid frame.
        offset: u64,
        /// Why the frame failed.
        detail: String,
    },
}

impl WalTail {
    /// Whether the whole file was valid.
    pub fn is_clean(&self) -> bool {
        matches!(self, WalTail::Clean)
    }
}

/// Decode the longest valid prefix of a WAL file into records.
///
/// Returns the records and the tail status. A record for an unknown opcode
/// or with a mismatched checksum terminates decoding at that frame — the
/// caller decides whether a non-clean tail is tolerable (crash recovery
/// quarantines it) or an error.
pub fn read_records(bytes: &[u8]) -> (Vec<WalRecord>, WalTail) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < FRAME_HEADER_BYTES {
            return (
                records,
                WalTail::Quarantined {
                    offset: pos as u64,
                    detail: format!("{remaining}-byte tail is shorter than a frame header"),
                },
            );
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let stored_crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if remaining - FRAME_HEADER_BYTES < len {
            return (
                records,
                WalTail::Quarantined {
                    offset: pos as u64,
                    detail: format!(
                        "frame promises {len} payload bytes, only {} remain",
                        remaining - FRAME_HEADER_BYTES
                    ),
                },
            );
        }
        let payload = &bytes[pos + FRAME_HEADER_BYTES..pos + FRAME_HEADER_BYTES + len];
        let actual = crc32c(payload);
        if actual != stored_crc {
            return (
                records,
                WalTail::Quarantined {
                    offset: pos as u64,
                    detail: format!(
                        "payload checksum mismatch (stored {stored_crc:#010x}, \
                         computed {actual:#010x})"
                    ),
                },
            );
        }
        match WalRecord::decode(payload) {
            Ok(record) => records.push(record),
            Err(err) => {
                return (
                    records,
                    WalTail::Quarantined {
                        offset: pos as u64,
                        detail: format!("checksummed payload failed to decode: {err}"),
                    },
                )
            }
        }
        pos += FRAME_HEADER_BYTES + len;
    }
    (records, WalTail::Clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::InsertBatch {
                db_id: 0,
                vectors: vec![vec![0.5, -1.25], vec![3.0, f32::MIN_POSITIVE]],
                documents: vec![b"doc a".to_vec(), b"doc b".to_vec()],
                ids: vec![10, 11],
            },
            WalRecord::Delete { db_id: 0, id: 3 },
            WalRecord::Upsert {
                db_id: 2,
                id: 10,
                vector: vec![-0.0, 7.5],
                document: b"replacement".to_vec(),
            },
            WalRecord::Compact { db_id: 2 },
            WalRecord::InsertBatchAt {
                db_id: 1,
                vectors: vec![vec![1.5, -2.0]],
                documents: vec![b"routed doc".to_vec()],
                ids: vec![42],
            },
        ]
    }

    fn log_of(records: &[WalRecord]) -> Vec<u8> {
        let mut log = Vec::new();
        for record in records {
            log.extend_from_slice(&record.encode_framed());
        }
        log
    }

    /// What the system appends for an insert or an upsert — encoded from
    /// its borrowed arguments — is the frame of the record a reader decodes
    /// it to, and that frame is length, CRC32C, payload.
    #[test]
    fn borrowed_frames_are_the_records_frames() {
        let mut borrowed = Vec::new();
        for record in sample_records() {
            let framed = record.encode_framed();
            let payload = &framed[FRAME_HEADER_BYTES..];
            assert_eq!(framed[..4], (payload.len() as u32).to_le_bytes());
            assert_eq!(framed[4..8], crc32c(payload).to_le_bytes());
            match &record {
                WalRecord::InsertBatch {
                    db_id,
                    vectors,
                    documents,
                    ids,
                } => frame_insert_batch(&mut borrowed, false, *db_id, vectors, documents, ids),
                WalRecord::InsertBatchAt {
                    db_id,
                    vectors,
                    documents,
                    ids,
                } => frame_insert_batch(&mut borrowed, true, *db_id, vectors, documents, ids),
                WalRecord::Upsert {
                    db_id,
                    id,
                    vector,
                    document,
                } => frame_upsert(&mut borrowed, *db_id, *id, vector, document),
                WalRecord::Delete { .. } | WalRecord::Compact { .. } => continue,
            }
            assert_eq!(borrowed, framed);
        }
    }

    #[test]
    fn records_round_trip_through_frames() {
        let records = sample_records();
        let log = log_of(&records);
        let (decoded, tail) = read_records(&log);
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(decoded, records);
    }

    #[test]
    fn empty_log_is_clean() {
        let (records, tail) = read_records(&[]);
        assert!(records.is_empty());
        assert!(tail.is_clean());
    }

    #[test]
    fn every_truncation_keeps_the_valid_prefix() {
        let records = sample_records();
        let log = log_of(&records);
        // Frame boundaries, for computing how many full frames survive.
        let mut boundaries = vec![0usize];
        for record in &records {
            boundaries.push(boundaries.last().unwrap() + record.encode_framed().len());
        }
        for len in 0..log.len() {
            let (decoded, tail) = read_records(&log[..len]);
            let full_frames = boundaries.iter().filter(|&&b| b <= len).count() - 1;
            assert_eq!(decoded, records[..full_frames], "truncation to {len}");
            if len == *boundaries.last().unwrap() {
                assert!(tail.is_clean());
            } else if boundaries.contains(&len) {
                assert!(tail.is_clean(), "truncation at a frame boundary is clean");
            } else {
                assert!(!tail.is_clean(), "mid-frame truncation to {len}");
            }
        }
    }

    #[test]
    fn every_byte_flip_quarantines_from_the_broken_frame() {
        let records = sample_records();
        let log = log_of(&records);
        let mut boundaries = vec![0usize];
        for record in &records {
            boundaries.push(boundaries.last().unwrap() + record.encode_framed().len());
        }
        for offset in 0..log.len() {
            let mut corrupted = log.clone();
            corrupted[offset] ^= 0x10;
            let (decoded, tail) = read_records(&corrupted);
            // Frames strictly before the corrupted one must survive intact.
            let broken_frame = boundaries[1..].iter().filter(|&&b| b <= offset).count();
            match tail {
                WalTail::Clean => panic!("flip at byte {offset} went undetected"),
                WalTail::Quarantined { offset: at, .. } => {
                    assert!(
                        at as usize <= offset,
                        "quarantine at {at} started after the corruption at {offset}"
                    );
                    assert!(
                        decoded.len() >= broken_frame.min(records.len()).saturating_sub(1)
                            && decoded.len() <= records.len(),
                        "flip at {offset}: {} records survived",
                        decoded.len()
                    );
                    assert_eq!(
                        decoded[..],
                        records[..decoded.len()],
                        "surviving prefix must be exact (flip at {offset})"
                    );
                }
            }
        }
    }

    #[test]
    fn unknown_opcodes_are_quarantined_not_panicked() {
        let mut bogus = Vec::new();
        framed(&mut bogus, 5, |w| w.put_raw(&[0xEE, 0, 0, 0, 0]));
        let (records, tail) = read_records(&bogus);
        assert!(records.is_empty());
        assert!(matches!(tail, WalTail::Quarantined { offset: 0, .. }));
    }

    /// The same frame through [`WalRecord::encode_framed`] and through one
    /// reused buffer, for every record a mutation appends.
    fn reused_frame(out: &mut Vec<u8>, record: &WalRecord) {
        match record {
            WalRecord::InsertBatch {
                db_id,
                vectors,
                documents,
                ids,
            } => frame_insert_batch(out, false, *db_id, vectors, documents, ids),
            WalRecord::InsertBatchAt {
                db_id,
                vectors,
                documents,
                ids,
            } => frame_insert_batch(out, true, *db_id, vectors, documents, ids),
            WalRecord::Upsert {
                db_id,
                id,
                vector,
                document,
            } => frame_upsert(out, *db_id, *id, vector, document),
            WalRecord::Delete { .. } | WalRecord::Compact { .. } => record.encode_framed_into(out),
        }
    }

    #[test]
    fn reused_buffer_frames_equal_the_records_frames_bit_for_bit() {
        let payload_nan = f32::from_bits(0x7FC0_1234);
        let signalling_nan = f32::from_bits(0xFF80_0001);
        let subnormal = f32::from_bits(1);
        let awkward = vec![
            payload_nan,
            signalling_nan,
            -0.0,
            0.0,
            subnormal,
            -f32::from_bits(0x007F_FFFF),
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let records = [
            WalRecord::InsertBatch {
                db_id: 7,
                vectors: vec![awkward.clone(), vec![1.0; 8], awkward.clone()],
                documents: vec![Vec::new(), b"middle".to_vec(), Vec::new()],
                ids: vec![1, 2, 3],
            },
            WalRecord::Upsert {
                db_id: 1,
                id: 9,
                vector: awkward.clone(),
                document: Vec::new(),
            },
            WalRecord::InsertBatchAt {
                db_id: 3,
                vectors: vec![awkward.clone(); 5],
                documents: (0..5u8).map(|i| vec![i; usize::from(i) * 3]).collect(),
                ids: vec![40, 41, 42, 43, 44],
            },
            WalRecord::InsertBatch {
                db_id: 0,
                vectors: Vec::new(),
                documents: Vec::new(),
                ids: Vec::new(),
            },
            WalRecord::Delete { db_id: 2, id: 5 },
            WalRecord::Compact { db_id: 2 },
        ];
        let mut out = Vec::new();
        for record in records.iter().chain(&sample_records()) {
            reused_frame(&mut out, record);
            assert_eq!(out, record.encode_framed(), "{record:?}");
            let (decoded, tail) = read_records(&out);
            assert!(tail.is_clean());
            // NaN != NaN, so compare the decoded record's own frame.
            assert_eq!(decoded.len(), 1);
            assert_eq!(decoded[0].encode_framed(), out);
        }
    }

    #[test]
    fn a_short_frame_after_a_long_one_carries_none_of_its_bytes() {
        let long = WalRecord::InsertBatch {
            db_id: 1,
            vectors: vec![vec![f32::from_bits(0xDEAD_BEEF); 256]; 4],
            documents: vec![vec![0xAB; 900]; 4],
            ids: vec![10, 11, 12, 13],
        };
        let short = WalRecord::Upsert {
            db_id: 1,
            id: 10,
            vector: vec![0.5; 2],
            document: b"x".to_vec(),
        };
        let mut out = Vec::new();
        reused_frame(&mut out, &long);
        let long_capacity = out.capacity();
        reused_frame(&mut out, &short);
        assert_eq!(out, short.encode_framed());
        assert_eq!(
            out.len(),
            FRAME_HEADER_BYTES + upsert_payload_len(&[0.5; 2], b"x")
        );
        assert!(
            out.capacity() >= long_capacity,
            "the buffer keeps its capacity"
        );
        let (decoded, tail) = read_records(&out);
        assert_eq!((decoded, tail), (vec![short], WalTail::Clean));
    }
}
