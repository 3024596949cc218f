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
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

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
#[derive(Debug, Clone)]
pub struct DirVfs {
    root: PathBuf,
    /// Set once this handle has created `root`, so a write costs its own
    /// system calls and not a directory check besides.
    root_created: OnceLock<()>,
}

impl DirVfs {
    /// A VFS over `root`. The directory is created lazily on the first
    /// write, once: a directory removed under a live handle is not
    /// recreated, and later writes through that handle fail.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DirVfs {
            root: root.into(),
            root_created: OnceLock::new(),
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
}

impl Vfs for DirVfs {
    fn write_file(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.ensure_root()?;
        fs::write(self.path(name), bytes).map_err(|e| Self::io_err(name, e))
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.ensure_root()?;
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))
            .map_err(|e| Self::io_err(name, e))?;
        file.write_all(bytes).map_err(|e| Self::io_err(name, e))
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

    #[test]
    fn dir_vfs_implements_the_contract() {
        let root = std::env::temp_dir().join(format!("reis-persist-vfs-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        exercise(&DirVfs::new(&root));
        let _ = fs::remove_dir_all(&root);
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
