//! The flat-namespace storage abstraction durable files live behind.
//!
//! A [`Vfs`] holds named byte files — no directories, no metadata — which
//! is all the epoch store needs. Three backends exist: [`DirVfs`] maps the
//! namespace onto a real directory, [`MemVfs`] keeps it in shared memory
//! (a test harness can keep a handle across a simulated "process death"
//! and corrupt bytes at rest), and [`crate::fault::FaultVfs`] wraps either
//! to inject deterministic write failures.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::error::{PersistError, Result};

/// A flat namespace of named byte files.
///
/// Writes model a simple storage device: `write_file` replaces a file's
/// contents, `append` extends them. Durability semantics (what survives a
/// crash mid-write) are injected by the fault layer, not assumed here.
pub trait Vfs: Debug + Send {
    /// Create or replace `name` with `bytes`.
    fn write_file(&self, name: &str, bytes: &[u8]) -> Result<()>;

    /// Append `bytes` to `name`, creating it if absent.
    fn append(&self, name: &str, bytes: &[u8]) -> Result<()>;

    /// Read the full contents of `name`.
    fn read_file(&self, name: &str) -> Result<Vec<u8>>;

    /// All file names, sorted.
    fn list(&self) -> Result<Vec<String>>;

    /// Remove `name` (no error if it is already gone — removal is
    /// idempotent garbage collection).
    fn remove(&self, name: &str) -> Result<()>;

    /// Whether `name` exists.
    fn exists(&self, name: &str) -> bool;
}

/// A [`Vfs`] backed by one real directory (created on first use).
///
/// **Flush policy: one open file per WAL epoch.** The handle keeps open the
/// file it last appended to, so a run of appends to one epoch's WAL opens
/// it once and then costs one `write(2)` each. Every append still reaches
/// the operating system before [`Vfs::append`] returns — nothing is
/// buffered in the process, and nothing is synced to the device: a record
/// survives the death of the process, not of the machine. The held file is
/// closed when this handle's [`Vfs::write_file`] or [`Vfs::remove`] names
/// it, when an append names another file (so an epoch's WAL closes at the
/// first append to the next epoch's), and when the last clone of the
/// handle is dropped.
///
/// Clones share the held file. Two separately constructed `DirVfs` over one
/// directory see each other's appends at once, but neither sees the other
/// remove a file: appends through a handle that holds a file another handle
/// removed land in the unlinked file.
#[derive(Debug, Clone)]
pub struct DirVfs {
    root: PathBuf,
    /// Set once this handle has created `root`, so a write costs its own
    /// system calls and not a directory check besides.
    root_created: OnceLock<()>,
    /// The file the last append went to, still open for appending.
    held: Arc<Mutex<Option<(String, File)>>>,
}

impl DirVfs {
    /// A VFS over `root`. The directory is created lazily on the first
    /// write, once: a directory removed under a live handle is not
    /// recreated, and later writes through that handle fail.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DirVfs {
            root: root.into(),
            root_created: OnceLock::new(),
            held: Arc::default(),
        }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn io_err(name: &str, err: std::io::Error) -> PersistError {
        PersistError::Io {
            file: name.to_string(),
            detail: err.to_string(),
        }
    }

    fn ensure_root(&self) -> Result<()> {
        if self.root_created.get().is_none() {
            fs::create_dir_all(&self.root).map_err(|e| Self::io_err("<root>", e))?;
            let _ = self.root_created.set(());
        }
        Ok(())
    }

    fn held(&self) -> MutexGuard<'_, Option<(String, File)>> {
        self.held.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Close the held file if it is `name`.
    fn close_if_held(&self, name: &str) {
        let mut held = self.held();
        if held.as_ref().is_some_and(|(open, _)| open == name) {
            *held = None;
        }
    }
}

impl Vfs for DirVfs {
    fn write_file(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.close_if_held(name);
        self.ensure_root()?;
        fs::write(self.path(name), bytes).map_err(|e| Self::io_err(name, e))
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let mut held = self.held();
        let file = match &mut *held {
            Some((open, file)) if open == name => file,
            slot => {
                *slot = None;
                self.ensure_root()?;
                let file = fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.path(name))
                    .map_err(|e| Self::io_err(name, e))?;
                &mut slot.insert((name.to_string(), file)).1
            }
        };
        let written = file.write_all(bytes);
        if written.is_err() {
            // Reopen on the next append rather than trust this descriptor.
            *held = None;
        }
        written.map_err(|e| Self::io_err(name, e))
    }

    fn read_file(&self, name: &str) -> Result<Vec<u8>> {
        match fs::read(self.path(name)) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(PersistError::NotFound {
                file: name.to_string(),
            }),
            Err(e) => Err(Self::io_err(name, e)),
        }
    }

    fn list(&self) -> Result<Vec<String>> {
        let entries = match fs::read_dir(&self.root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(Self::io_err("<root>", e)),
        };
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| Self::io_err("<root>", e))?;
            if entry.path().is_file() {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.close_if_held(name);
        match fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Self::io_err(name, e)),
        }
    }

    fn exists(&self, name: &str) -> bool {
        self.path(name).is_file()
    }
}

/// An in-memory [`Vfs`] with shared interior: clones see the same files.
///
/// The crash-recovery harness clones a handle, hands one to the system
/// under test, "kills" that system (drops it mid-write via the fault
/// layer) and then recovers from the surviving handle — exactly the bytes
/// a real device would have retained.
#[derive(Debug, Clone, Default)]
pub struct MemVfs {
    files: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
}

impl MemVfs {
    /// A fresh, empty in-memory VFS.
    pub fn new() -> Self {
        MemVfs::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Vec<u8>>> {
        self.files.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Vfs for MemVfs {
    fn write_file(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.lock().insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.lock()
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn read_file(&self, name: &str) -> Result<Vec<u8>> {
        self.lock()
            .get(name)
            .cloned()
            .ok_or_else(|| PersistError::NotFound {
                file: name.to_string(),
            })
    }

    fn list(&self) -> Result<Vec<String>> {
        Ok(self.lock().keys().cloned().collect())
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.lock().remove(name);
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.lock().contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(vfs: &dyn Vfs) {
        assert_eq!(vfs.list().unwrap(), Vec::<String>::new());
        vfs.write_file("b", b"two").unwrap();
        vfs.write_file("a", b"one").unwrap();
        vfs.append("a", b"+more").unwrap();
        vfs.append("c", b"fresh").unwrap();
        assert_eq!(vfs.read_file("a").unwrap(), b"one+more");
        assert_eq!(vfs.read_file("c").unwrap(), b"fresh");
        assert_eq!(vfs.list().unwrap(), vec!["a", "b", "c"]);
        assert!(vfs.exists("b"));
        vfs.remove("b").unwrap();
        vfs.remove("b").unwrap(); // idempotent
        assert!(!vfs.exists("b"));
        assert!(matches!(
            vfs.read_file("b"),
            Err(PersistError::NotFound { .. })
        ));
    }

    #[test]
    fn mem_vfs_implements_the_contract() {
        exercise(&MemVfs::new());
    }

    /// A fresh directory of this test process, removed first if a previous
    /// run left it behind.
    fn scratch_dir(test: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("reis-persist-vfs-{}-{test}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn dir_vfs_implements_the_contract() {
        let root = scratch_dir("contract");
        exercise(&DirVfs::new(&root));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn dir_vfs_appends_alternating_between_two_names_land_in_each() {
        let root = scratch_dir("alternate");
        let vfs = DirVfs::new(&root);
        let mut expected = (Vec::new(), Vec::new());
        for i in 0..6u8 {
            vfs.append("a", &[i]).unwrap();
            expected.0.push(i);
            vfs.append("b", &[i, i]).unwrap();
            expected.1.extend([i, i]);
        }
        vfs.append("a", b"end").unwrap();
        expected.0.extend(b"end");
        assert_eq!(vfs.read_file("a").unwrap(), expected.0);
        assert_eq!(vfs.read_file("b").unwrap(), expected.1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn dir_vfs_append_after_remove_recreates_the_file() {
        let root = scratch_dir("remove");
        let vfs = DirVfs::new(&root);
        vfs.append("wal", b"old").unwrap();
        vfs.remove("wal").unwrap();
        assert!(!vfs.exists("wal"));
        vfs.append("wal", b"new").unwrap();
        assert_eq!(vfs.read_file("wal").unwrap(), b"new");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn dir_vfs_append_after_write_file_continues_after_the_new_contents() {
        let root = scratch_dir("rewrite");
        let vfs = DirVfs::new(&root);
        vfs.append("wal", b"a long first body").unwrap();
        vfs.write_file("wal", b"short").unwrap();
        vfs.append("wal", b"+tail").unwrap();
        assert_eq!(vfs.read_file("wal").unwrap(), b"short+tail");
        vfs.write_file("wal", &[]).unwrap();
        vfs.append("wal", b"x").unwrap();
        assert_eq!(vfs.read_file("wal").unwrap(), b"x");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn dir_vfs_clones_and_second_handles_read_each_others_appends_at_once() {
        let root = scratch_dir("share");
        let a = DirVfs::new(&root);
        let clone = a.clone();
        let other = DirVfs::new(&root);
        a.append("wal", b"1").unwrap();
        assert_eq!(clone.read_file("wal").unwrap(), b"1");
        assert_eq!(other.read_file("wal").unwrap(), b"1");
        clone.append("wal", b"2").unwrap();
        assert_eq!(a.read_file("wal").unwrap(), b"12");
        other.append("wal", b"3").unwrap();
        assert_eq!(a.read_file("wal").unwrap(), b"123");
        a.append("wal", b"4").unwrap();
        assert_eq!(other.read_file("wal").unwrap(), b"1234");
        // A remove through the clone closes the file the pair holds.
        clone.remove("wal").unwrap();
        a.append("wal", b"5").unwrap();
        assert_eq!(other.read_file("wal").unwrap(), b"5");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_tail_over_dir_vfs_quarantines_at_the_exact_byte() {
        use crate::fault::FaultVfs;
        use crate::wal::{read_records, WalRecord, WalTail};

        let records: Vec<WalRecord> = (0..4u32)
            .map(|i| WalRecord::Upsert {
                db_id: 1,
                id: i,
                vector: vec![i as f32; 16],
                document: vec![i as u8; 40],
            })
            .collect();
        let frames: Vec<Vec<u8>> = records.iter().map(WalRecord::encode_framed).collect();
        for kept in 0..records.len() {
            for torn in [1, frames[kept].len() / 2, frames[kept].len() - 1] {
                let root = scratch_dir("torn");
                let (vfs, handle) = FaultVfs::new(DirVfs::new(&root));
                vfs.write_file("wal", &[]).unwrap();
                for frame in &frames[..kept] {
                    vfs.append("wal", frame).unwrap();
                }
                handle.arm_kill_after(torn as u64);
                for frame in &frames[kept..] {
                    vfs.append("wal", frame).unwrap();
                }
                let bytes = DirVfs::new(&root).read_file("wal").unwrap();
                let intact: usize = frames[..kept].iter().map(Vec::len).sum();
                assert_eq!(bytes.len(), intact + torn);
                let (decoded, tail) = read_records(&bytes);
                assert_eq!(decoded, records[..kept]);
                assert!(
                    matches!(tail, WalTail::Quarantined { offset, .. } if offset == intact as u64),
                    "{kept} frames kept, {torn} bytes torn: {tail:?}"
                );
                let _ = fs::remove_dir_all(&root);
            }
        }
    }

    #[test]
    fn mem_vfs_clones_share_contents() {
        let a = MemVfs::new();
        let b = a.clone();
        a.write_file("wal", &[0u8, 1, 2, 3]).unwrap();
        assert_eq!(b.read_file("wal").unwrap(), vec![0, 1, 2, 3]);
        b.append("wal", &[4]).unwrap();
        assert_eq!(a.read_file("wal").unwrap(), vec![0, 1, 2, 3, 4]);
        b.remove("wal").unwrap();
        assert!(!a.exists("wal"));
    }
}
