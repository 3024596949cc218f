//! The append-only mutation WAL.
//!
//! Between snapshots, every mutation is appended to the current epoch's
//! WAL file as one self-checking frame:
//!
//! ```text
//! [payload len u32][payload crc32c u32][payload]
//! ```
//!
//! The payload is one [`Mutation`] in the [`crate::wire`] format: an opcode
//! byte, the target database id, and the operation's arguments. The
//! mutation is the one value every mutation path of the workspace speaks:
//! the live system applies it and then encodes it here
//! ([`Mutation::encode_framed_into`], straight from the caller's borrowed
//! rows), and replay decodes it ([`Mutation::decode`]) and applies it
//! through the same body, so the WAL never needs to encode any *derived*
//! state (segments, tombstones, relocation tables) — it re-derives on
//! replay, byte-identically.
//!
//! Reading is prefix-consistent by construction: [`read_records`] decodes
//! frames until the first one that is truncated, checksum-broken or
//! undecodable, and reports everything from that offset on as a
//! quarantined tail ([`WalTail`]). A torn append (power loss mid-frame)
//! therefore costs exactly the operations that were never acknowledged as
//! durable — never a panic, never a misparse of half-written bytes.

use std::borrow::Cow;

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

/// Where the stable ids of an insert batch come from.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertIds<'a> {
    /// The device mints the next unassigned ids as the batch applies. A
    /// request carries `None`; applying it fills in the ids it minted,
    /// which is what the WAL records, and replay checks that it mints the
    /// same ones.
    Minted(Option<Cow<'a, [u32]>>),
    /// The caller chose the ids (the cluster router does, so every leaf
    /// stores the globally assigned id natively); replay takes them as
    /// authoritative.
    Chosen(Cow<'a, [u32]>),
}

/// One mutation of a deployed database: what the WAL logs, what the
/// cluster aggregator keeps for a leaf that is down and what the request
/// pipeline's mutation lane queues.
///
/// Targets are *stable entry ids* (the OOB `dadr` namespace). The rows of
/// an insert or an upsert are borrowed from the caller on the live path
/// and owned once decoded or retained ([`Mutation::into_owned`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation<'a> {
    /// A batch insert: one embedding and one document chunk per entry.
    Insert {
        /// The entries' stable ids, in batch order.
        ids: InsertIds<'a>,
        /// One embedding per inserted entry.
        vectors: Vec<Cow<'a, [f32]>>,
        /// One document chunk per inserted entry.
        documents: Vec<Cow<'a, [u8]>>,
    },
    /// Deletion of one stable id.
    Delete {
        /// Stable id of the deleted entry.
        id: u32,
    },
    /// Replacement of one stable id's embedding and document.
    Upsert {
        /// Stable id of the replaced entry.
        id: u32,
        /// The replacement embedding.
        vector: Cow<'a, [f32]>,
        /// The replacement document chunk.
        document: Cow<'a, [u8]>,
    },
    /// An explicit compaction pass (folds segments/tombstones into a fresh
    /// base region; search-invisible but changes physical layout).
    Compact,
}

impl<'a> Mutation<'a> {
    /// An insert batch under `ids`, its rows borrowed or owned as the
    /// caller holds them.
    pub fn insert<V, D>(
        ids: InsertIds<'a>,
        vectors: impl IntoIterator<Item = V>,
        documents: impl IntoIterator<Item = D>,
    ) -> Self
    where
        V: Into<Cow<'a, [f32]>>,
        D: Into<Cow<'a, [u8]>>,
    {
        Mutation::Insert {
            ids,
            vectors: vectors.into_iter().map(Into::into).collect(),
            documents: documents.into_iter().map(Into::into).collect(),
        }
    }

    /// The same mutation owning all its data (a copy of whatever it
    /// borrowed).
    pub fn into_owned(self) -> Mutation<'static> {
        fn owned<T: ?Sized + ToOwned>(cow: Cow<'_, T>) -> Cow<'static, T> {
            Cow::Owned(cow.into_owned())
        }
        match self {
            Mutation::Insert {
                ids,
                vectors,
                documents,
            } => Mutation::Insert {
                ids: match ids {
                    InsertIds::Minted(ids) => InsertIds::Minted(ids.map(owned)),
                    InsertIds::Chosen(ids) => InsertIds::Chosen(owned(ids)),
                },
                vectors: vectors.into_iter().map(owned).collect(),
                documents: documents.into_iter().map(owned).collect(),
            },
            Mutation::Delete { id } => Mutation::Delete { id },
            Mutation::Upsert {
                id,
                vector,
                document,
            } => Mutation::Upsert {
                id,
                vector: owned(vector),
                document: owned(document),
            },
            Mutation::Compact => Mutation::Compact,
        }
    }

    /// Encode the mutation of database `db_id` as one framed WAL append
    /// into `out`, replacing its contents and reusing its capacity.
    ///
    /// # Panics
    ///
    /// On a minted insert that has not applied yet: the WAL records the
    /// ids it minted.
    pub fn encode_framed_into(&self, db_id: u32, out: &mut Vec<u8>) {
        framed(out, |w| match self {
            Mutation::Insert {
                ids,
                vectors,
                documents,
            } => {
                let (op, ids) = match ids {
                    InsertIds::Minted(Some(ids)) => (OP_INSERT_BATCH, ids),
                    InsertIds::Chosen(ids) => (OP_INSERT_BATCH_AT, ids),
                    InsertIds::Minted(None) => panic!("a minted insert is logged once applied"),
                };
                assert_eq!(vectors.len(), documents.len(), "one document per vector");
                assert_eq!(vectors.len(), ids.len(), "one stable id per vector");
                w.put_u8(op);
                w.put_u32(db_id);
                w.put_u32(vectors.len() as u32);
                for ((vector, document), id) in vectors.iter().zip(documents).zip(ids.iter()) {
                    w.put_f32_slice(vector);
                    w.put_bytes(document);
                    w.put_u32(*id);
                }
            }
            Mutation::Delete { id } => {
                w.put_u8(OP_DELETE);
                w.put_u32(db_id);
                w.put_u32(*id);
            }
            Mutation::Upsert {
                id,
                vector,
                document,
            } => {
                w.put_u8(OP_UPSERT);
                w.put_u32(db_id);
                w.put_u32(*id);
                w.put_f32_slice(vector);
                w.put_bytes(document);
            }
            Mutation::Compact => {
                w.put_u8(OP_COMPACT);
                w.put_u32(db_id);
            }
        });
    }

    /// Decode a record payload into its database id and mutation. The
    /// payload must decode exactly — trailing bytes are as malformed as
    /// missing ones.
    pub fn decode(payload: &[u8]) -> Result<(u32, Mutation<'static>)> {
        let mut r = ByteReader::new(payload);
        let op = r.get_u8()?;
        let db_id = r.get_u32()?;
        let mutation = match op {
            OP_INSERT_BATCH | OP_INSERT_BATCH_AT => {
                let count = r.get_u32()? as usize;
                let mut vectors = Vec::with_capacity(count.min(payload.len()));
                let mut documents = Vec::with_capacity(count.min(payload.len()));
                let mut ids = Vec::with_capacity(count.min(payload.len()));
                for _ in 0..count {
                    vectors.push(Cow::Owned(r.get_f32_vec()?));
                    documents.push(Cow::Owned(r.get_bytes()?.to_vec()));
                    ids.push(r.get_u32()?);
                }
                let ids = Cow::Owned(ids);
                Mutation::Insert {
                    ids: if op == OP_INSERT_BATCH {
                        InsertIds::Minted(Some(ids))
                    } else {
                        InsertIds::Chosen(ids)
                    },
                    vectors,
                    documents,
                }
            }
            OP_DELETE => Mutation::Delete { id: r.get_u32()? },
            OP_UPSERT => Mutation::Upsert {
                id: r.get_u32()?,
                vector: Cow::Owned(r.get_f32_vec()?),
                document: Cow::Owned(r.get_bytes()?.to_vec()),
            },
            OP_COMPACT => Mutation::Compact,
            other => {
                return Err(PersistError::Malformed(format!(
                    "unknown WAL opcode {other}"
                )))
            }
        };
        r.expect_end()?;
        Ok((db_id, mutation))
    }
}

/// Encode a payload with `put` into `out` behind a frame header that is
/// filled in afterwards: `out` is cleared (its capacity kept) and the
/// payload is written once, where it stays.
fn framed(out: &mut Vec<u8>, put: impl FnOnce(&mut ByteWriter)) {
    let mut w = ByteWriter::reuse(std::mem::take(out));
    w.put_raw(&[0; FRAME_HEADER_BYTES]);
    put(&mut w);
    *out = w.into_bytes();
    let (header, payload) = out.split_at_mut(FRAME_HEADER_BYTES);
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

/// Decode the longest valid prefix of a WAL file into records: each a
/// database id and the mutation applied to it.
///
/// Returns the records and the tail status. A record for an unknown opcode
/// or with a mismatched checksum terminates decoding at that frame — the
/// caller decides whether a non-clean tail is tolerable (crash recovery
/// quarantines it) or an error.
pub fn read_records(bytes: &[u8]) -> (Vec<(u32, Mutation<'static>)>, WalTail) {
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
        match Mutation::decode(payload) {
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

    type Record = (u32, Mutation<'static>);

    fn minted(ids: &[u32]) -> InsertIds<'static> {
        InsertIds::Minted(Some(ids.to_vec().into()))
    }

    fn chosen(ids: &[u32]) -> InsertIds<'static> {
        InsertIds::Chosen(ids.to_vec().into())
    }

    fn upsert(id: u32, vector: Vec<f32>, document: &[u8]) -> Mutation<'static> {
        Mutation::Upsert {
            id,
            vector: vector.into(),
            document: document.to_vec().into(),
        }
    }

    fn frame((db_id, mutation): &(u32, Mutation<'_>)) -> Vec<u8> {
        let mut out = Vec::new();
        mutation.encode_framed_into(*db_id, &mut out);
        out
    }

    fn sample_records() -> Vec<Record> {
        vec![
            (
                0,
                Mutation::insert(
                    minted(&[10, 11]),
                    [vec![0.5, -1.25], vec![3.0, f32::MIN_POSITIVE]],
                    [b"doc a".to_vec(), b"doc b".to_vec()],
                ),
            ),
            (0, Mutation::Delete { id: 3 }),
            (2, upsert(10, vec![-0.0, 7.5], b"replacement")),
            (2, Mutation::Compact),
            (
                1,
                Mutation::insert(chosen(&[42]), [vec![1.5, -2.0]], [b"routed doc".to_vec()]),
            ),
        ]
    }

    fn log_of(records: &[Record]) -> Vec<u8> {
        records.iter().flat_map(frame).collect()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The framed bytes of one record of each kind, pinned: what a WAL
    /// holds on storage does not move when the encoder does. Each frame is
    /// length, CRC32C, payload.
    #[test]
    fn frames_are_pinned_byte_for_byte() {
        let pinned = [
            (
                (
                    1,
                    Mutation::insert(
                        minted(&[7, 8]),
                        [vec![0.5, -1.25], vec![-0.0]],
                        [b"ab".to_vec(), Vec::new()],
                    ),
                ),
                "2f000000d1fd9dc6010100000002000000020000000000003f0000a0bf0200000061620700000001000000000000800000000008000000",
            ),
            (
                (
                    2,
                    Mutation::insert(
                        chosen(&[42]),
                        [vec![3.0, f32::MIN_POSITIVE]],
                        [b"chosen".to_vec()],
                    ),
                ),
                "23000000379dd0450502000000010000000200000000004040000080000600000063686f73656e2a000000",
            ),
            ((1, Mutation::Delete { id: 9 }), "09000000bb064934020100000009000000"),
            (
                (1, upsert(7, vec![1.0], b"up")),
                "17000000c967d673030100000007000000010000000000803f020000007570",
            ),
            ((3, Mutation::Compact), "05000000bc4115c70403000000"),
        ];
        for (record, bytes) in pinned {
            let framed = frame(&record);
            assert_eq!(hex(&framed), bytes, "{record:?}");
            let payload = &framed[FRAME_HEADER_BYTES..];
            assert_eq!(framed[..4], (payload.len() as u32).to_le_bytes());
            assert_eq!(framed[4..8], crc32c(payload).to_le_bytes());
        }
    }

    /// Rows borrowed from the caller encode to the frame of the owned
    /// record a reader decodes them to.
    #[test]
    fn borrowed_rows_frame_as_their_decoded_record() {
        let vectors = [vec![0.25, -4.0], vec![9.5, 0.0]];
        let documents = [b"first".to_vec(), b"second".to_vec()];
        let ids = [5, 6];
        let borrowed = Mutation::insert(InsertIds::Chosen((&ids[..]).into()), &vectors, &documents);
        let record = (4, borrowed.clone());
        let (decoded, tail) = read_records(&frame(&record));
        assert!(tail.is_clean());
        assert_eq!(decoded, vec![(4, borrowed.into_owned())]);
    }

    #[test]
    #[should_panic(expected = "logged once applied")]
    fn a_minted_insert_that_never_applied_has_no_frame() {
        frame(&(
            1,
            Mutation::insert(InsertIds::Minted(None), [vec![1.0]], [vec![2]]),
        ));
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

    /// Offsets at which each frame of `records` ends in their log, from 0.
    fn boundaries(records: &[Record]) -> Vec<usize> {
        let mut boundaries = vec![0usize];
        for record in records {
            boundaries.push(boundaries.last().unwrap() + frame(record).len());
        }
        boundaries
    }

    #[test]
    fn every_truncation_keeps_the_valid_prefix() {
        let records = sample_records();
        let log = log_of(&records);
        let boundaries = boundaries(&records);
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
        let boundaries = boundaries(&records);
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
        framed(&mut bogus, |w| w.put_raw(&[0xEE, 0, 0, 0, 0]));
        let (records, tail) = read_records(&bogus);
        assert!(records.is_empty());
        assert!(matches!(tail, WalTail::Quarantined { offset: 0, .. }));
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
            (
                7,
                Mutation::insert(
                    minted(&[1, 2, 3]),
                    [awkward.clone(), vec![1.0; 8], awkward.clone()],
                    [Vec::new(), b"middle".to_vec(), Vec::new()],
                ),
            ),
            (1, upsert(9, awkward.clone(), b"")),
            (
                3,
                Mutation::insert(
                    chosen(&[40, 41, 42, 43, 44]),
                    vec![awkward.clone(); 5],
                    (0..5u8).map(|i| vec![i; usize::from(i) * 3]),
                ),
            ),
            (
                0,
                Mutation::insert(minted(&[]), Vec::<Vec<f32>>::new(), Vec::<Vec<u8>>::new()),
            ),
            (2, Mutation::Delete { id: 5 }),
            (2, Mutation::Compact),
        ];
        let mut out = Vec::new();
        for record in records.iter().chain(&sample_records()) {
            record.1.encode_framed_into(record.0, &mut out);
            assert_eq!(out, frame(record), "{record:?}");
            let (decoded, tail) = read_records(&out);
            assert!(tail.is_clean());
            // NaN != NaN, so compare the decoded record's own frame.
            assert_eq!(decoded.len(), 1);
            assert_eq!(frame(&decoded[0]), out);
        }
    }

    #[test]
    fn a_short_frame_after_a_long_one_carries_none_of_its_bytes() {
        let long = Mutation::insert(
            minted(&[10, 11, 12, 13]),
            vec![vec![f32::from_bits(0xDEAD_BEEF); 256]; 4],
            vec![vec![0xAB; 900]; 4],
        );
        let short = upsert(10, vec![0.5; 2], b"x");
        let mut out = Vec::new();
        long.encode_framed_into(1, &mut out);
        let long_capacity = out.capacity();
        short.encode_framed_into(1, &mut out);
        assert_eq!(out, frame(&(1, short.clone())));
        // Opcode, database id, id, the counted vector, the counted document.
        assert_eq!(out.len(), FRAME_HEADER_BYTES + 9 + 4 + 2 * 4 + 4 + 1);
        assert!(
            out.capacity() >= long_capacity,
            "the buffer keeps its capacity"
        );
        let (decoded, tail) = read_records(&out);
        assert_eq!((decoded, tail), (vec![(1, short)], WalTail::Clean));
    }
}
