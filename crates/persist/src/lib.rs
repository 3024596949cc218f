//! # reis-persist — durability for the REIS reproduction
//!
//! The paper's system (and this reproduction, through PR 5) keeps every
//! piece of host/controller state — quantizers, centroids, the R-DB and
//! R-IVF records, region tables, the page allocator — purely in process
//! memory. Nothing survives exit, which ROADMAP open item 1 names the top
//! gap on the path to a production system. This crate closes it with a
//! classic two-piece durability design:
//!
//! * **Snapshots** ([`snapshot`]) — a fixed-layout, offset-addressed
//!   container: a superblock (versioned magic + a CRC-guarded section
//!   directory) followed by independently CRC32C-checksummed sections. The
//!   byte format is hand-rolled through [`wire`] — the no-op serde shim is
//!   deliberately *not* on this path, so what is written is exactly what is
//!   specified, byte for byte.
//! * **A mutation WAL** ([`wal`]) — an append-only log of length+CRC-framed
//!   [`Mutation`]s (insert batches, deletes, upserts, compactions) written
//!   between snapshots. The same value is what `reis-core` applies, what
//!   the cluster aggregator retains for a down leaf and what the request
//!   pipeline queues. Recovery replays the longest valid prefix
//!   and quarantines a torn or corrupt tail instead of failing.
//! * **Storage backends** ([`vfs`]) — a tiny flat-namespace file
//!   abstraction with a real-directory backend, an in-memory backend for
//!   tests, and a deterministic fault-injection wrapper ([`fault`]) that
//!   can kill writes after a byte budget ("power loss") or flip bytes at
//!   rest ("media corruption").
//! * **The epoch store** ([`store`]) — names and sequences the
//!   `snapshot-NNNNNNNN` / `wal-NNNNNNNN` file pairs and finds the newest
//!   intact snapshot to recover from.
//!
//! `reis-core` owns *what* goes in the sections and records (it knows the
//! deployment layout); this crate owns *how* bytes get to storage and back,
//! and what integrity guarantees they carry. Both checksum paths share the
//! single CRC32C implementation in `reis-kernels`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod fault;
pub mod manifest;
pub mod snapshot;
pub mod store;
pub mod vfs;
pub mod wal;
pub mod wire;

pub use error::PersistError;
pub use fault::{splitmix64, FaultHandle, FaultVfs};
pub use manifest::ClusterManifest;
pub use reis_kernels::crc32c;
pub use snapshot::{SnapshotBuilder, SnapshotReader, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use store::{DurableStore, ScrubReport};
pub use vfs::{DirVfs, MemVfs, Vfs};
pub use wal::{InsertIds, Mutation, WalTail};
pub use wire::{ByteReader, ByteWriter};
