//! Deterministic fault injection for the durable write path.
//!
//! [`FaultVfs`] wraps any [`Vfs`] and models power loss:
//! [`FaultHandle::arm_kill_after`] sets a byte budget; once the wrapped
//! backend has absorbed that many further bytes, the write in flight is torn
//! at exactly the budget boundary and every subsequent write or removal is
//! silently dropped. Calls still return `Ok`: a dying machine does not
//! report its own death, it just stops persisting. The surviving bytes are
//! whatever reached the backend — the recovery tests then reopen the
//! underlying store. (Media corruption needs no wrapper: the corruption
//! tests rewrite a file of the underlying store with flipped bits, which the
//! CRC32C checks must catch.)
//!
//! Crash points are *byte-granular and deterministic*: the harness seeds
//! them with [`splitmix64`], so a failing case replays exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::Result;
use crate::vfs::Vfs;

/// Budget value meaning "no kill armed".
const DISARMED: u64 = u64::MAX;

#[derive(Debug)]
struct FaultState {
    /// Bytes the backend may still absorb before the "power" goes out.
    budget: AtomicU64,
    /// Total bytes absorbed by the backend since construction (survives
    /// arming, so an unfaulted pilot run can measure the full write span).
    written: AtomicU64,
}

/// Shared controller of a [`FaultVfs`]: the harness keeps this handle while
/// the system under test owns the VFS.
#[derive(Debug, Clone)]
pub struct FaultHandle {
    state: Arc<FaultState>,
}

impl FaultHandle {
    /// Let `budget` more bytes through, then tear the write in flight and
    /// drop everything after it.
    pub fn arm_kill_after(&self, budget: u64) {
        self.state.budget.store(budget, Ordering::SeqCst);
    }

    /// Total bytes the backend absorbed so far.
    pub fn bytes_written(&self) -> u64 {
        self.state.written.load(Ordering::SeqCst)
    }
}

/// A [`Vfs`] wrapper that injects deterministic write faults. See the
/// module docs for the failure model.
#[derive(Debug)]
pub struct FaultVfs<V> {
    inner: V,
    state: Arc<FaultState>,
}

impl<V: Vfs> FaultVfs<V> {
    /// Wrap `inner`, returning the wrapper and its control handle.
    pub fn new(inner: V) -> (Self, FaultHandle) {
        let state = Arc::new(FaultState {
            budget: AtomicU64::new(DISARMED),
            written: AtomicU64::new(0),
        });
        let handle = FaultHandle {
            state: Arc::clone(&state),
        };
        (FaultVfs { inner, state }, handle)
    }

    /// How many of `len` incoming bytes survive, consuming budget.
    fn admit(&self, len: usize) -> usize {
        let len = len as u64;
        let mut survives = len;
        // Saturating budget decrement: whatever portion fits the remaining
        // budget goes through, the rest is dropped forever.
        let mut current = self.state.budget.load(Ordering::SeqCst);
        loop {
            if current == DISARMED {
                break;
            }
            let admitted = current.min(len);
            match self.state.budget.compare_exchange(
                current,
                current - admitted,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    survives = admitted;
                    break;
                }
                Err(actual) => current = actual,
            }
        }
        self.state.written.fetch_add(survives, Ordering::SeqCst);
        survives as usize
    }
}

impl<V: Vfs> Vfs for FaultVfs<V> {
    fn write_file(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let survives = self.admit(bytes.len());
        if survives == bytes.len() {
            return self.inner.write_file(name, bytes);
        }
        // Torn replace: the new file exists but holds only the prefix that
        // reached the medium before power-off.
        self.inner.write_file(name, &bytes[..survives])
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let survives = self.admit(bytes.len());
        self.inner.append(name, &bytes[..survives])
    }

    fn read_file(&self, name: &str) -> Result<Vec<u8>> {
        self.inner.read_file(name)
    }

    fn list(&self) -> Result<Vec<String>> {
        self.inner.list()
    }

    fn remove(&self, name: &str) -> Result<()> {
        // A removal after power-off never reaches the medium.
        if self.killed() {
            return Ok(());
        }
        self.inner.remove(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
}

impl<V> FaultVfs<V> {
    fn killed(&self) -> bool {
        self.state.budget.load(Ordering::SeqCst) == 0
    }
}

/// The splitmix64 mixer: a tiny, high-quality seeded sequence for picking
/// deterministic crash points and corruption offsets without pulling a full
/// RNG into the persistence layer.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;

    #[test]
    fn unarmed_wrapper_is_transparent_and_counts_bytes() {
        let mem = MemVfs::new();
        let (vfs, handle) = FaultVfs::new(mem.clone());
        vfs.write_file("a", b"hello").unwrap();
        vfs.append("a", b" world").unwrap();
        assert_eq!(mem.read_file("a").unwrap(), b"hello world");
        assert_eq!(handle.bytes_written(), 11);
        assert!(!vfs.killed());
    }

    #[test]
    fn kill_tears_the_write_in_flight_at_the_byte_boundary() {
        let mem = MemVfs::new();
        let (vfs, handle) = FaultVfs::new(mem.clone());
        vfs.write_file("wal", b"intact").unwrap();
        handle.arm_kill_after(4);
        // 10-byte append with 4 bytes of budget: exactly 4 survive.
        vfs.append("wal", b"0123456789").unwrap();
        assert!(vfs.killed());
        assert_eq!(mem.read_file("wal").unwrap(), b"intact0123");
        // Everything after the kill is silently dropped, including removes.
        vfs.append("wal", b"more").unwrap();
        vfs.write_file("snap", b"new file").unwrap();
        vfs.remove("wal").unwrap();
        assert_eq!(mem.read_file("wal").unwrap(), b"intact0123");
        assert_eq!(mem.read_file("snap").unwrap(), b"");
        // Reads still see the survivors — recovery runs on this state.
        assert_eq!(vfs.read_file("wal").unwrap(), b"intact0123");
    }

    #[test]
    fn zero_budget_kills_immediately_and_disarm_restores_flow() {
        let mem = MemVfs::new();
        let (vfs, handle) = FaultVfs::new(mem.clone());
        handle.arm_kill_after(0);
        vfs.write_file("a", b"gone").unwrap();
        assert_eq!(mem.read_file("a").unwrap(), b"");
        handle.arm_kill_after(DISARMED);
        vfs.write_file("a", b"back").unwrap();
        assert_eq!(mem.read_file("a").unwrap(), b"back");
    }

    #[test]
    fn splitmix_is_deterministic_and_well_spread() {
        let mut a = 42u64;
        let mut b = 42u64;
        let xs: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let ys: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(xs, ys);
        let distinct: std::collections::HashSet<_> = xs.iter().collect();
        assert_eq!(distinct.len(), xs.len());
    }
}
