//! Helpers shared by the integration suites. Each suite uses a subset.
#![allow(dead_code)]

use std::collections::HashMap;
use std::io::Write;

/// Append one summary line to `<REIS_TEST_SUMMARY_DIR>/<test>.txt` (no-op
/// when the variable is unset). The first line a test writes truncates its
/// file, so a rerun starts fresh; within one test the cases run
/// sequentially, so the line order is deterministic and two runs of the
/// same suite diff cleanly. The CI gates diff these files across scan
/// budgets, pool sizes and telemetry settings.
pub fn record_summary(test: &str, line: &str) {
    let Some(dir) = std::env::var_os("REIS_TEST_SUMMARY_DIR") else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&dir).expect("summary dir");
    let path = dir.join(format!("{test}.txt"));
    thread_local! {
        static STARTED: std::cell::RefCell<std::collections::HashSet<String>> =
            std::cell::RefCell::new(std::collections::HashSet::new());
    }
    let fresh = STARTED.with(|s| s.borrow_mut().insert(test.to_string()));
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(!fresh)
        .truncate(fresh)
        .open(&path)
        .expect("summary file");
    writeln!(file, "{line}").expect("summary write");
}

/// Host-side mirror of one leaf's (or one shard's) logical corpus in its
/// scan order: base survivors in storage order, then appends; compaction
/// preserves this.
pub struct Mirror {
    pub order: Vec<u32>,
    pub versions: HashMap<u32, (Vec<f32>, Vec<u8>)>,
}

impl Mirror {
    pub fn empty() -> Self {
        Mirror {
            order: Vec::new(),
            versions: HashMap::new(),
        }
    }

    pub fn seed(&mut self, id: u32, vector: Vec<f32>, doc: Vec<u8>) {
        self.order.push(id);
        self.versions.insert(id, (vector, doc));
    }

    pub fn remove(&mut self, id: u32) {
        self.order.retain(|&x| x != id);
        self.versions.remove(&id);
    }

    pub fn append(&mut self, id: u32, vector: Vec<f32>, doc: Vec<u8>) {
        self.order.retain(|&x| x != id);
        self.order.push(id);
        self.versions.insert(id, (vector, doc));
    }
}
