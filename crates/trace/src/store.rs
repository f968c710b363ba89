//! Bounded on-disk run-history store.
//!
//! [`RunStore`] is an append-only JSONL file of finished run reports
//! (one compact JSON document per line, schema v8+ so each carries a
//! `span_us` per-stage rollup). Appends past `max_lines` compact the
//! file down to the most recent entries, so the store is safe to point
//! a long-lived `qsmt serve --run-store` at. `qsmt history` reads it
//! back through [`crate::history::analyze`].

use qsmt_telemetry::Json;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Default retention for [`RunStore`] files.
pub const DEFAULT_MAX_LINES: usize = 512;

/// A bounded append-only JSONL store of run reports. Safe to share
/// between threads: appends from concurrent serve workers never
/// interleave.
pub struct RunStore {
    path: PathBuf,
    max_lines: usize,
    /// Serializes [`RunStore::append`]: the write and the compaction's
    /// read-modify-write happen as one step. Nothing under it panics
    /// with the file half-written, so a poisoned lock is safe to reuse.
    writer: Mutex<()>,
}

impl RunStore {
    /// A store at `path` retaining at most `max_lines` entries.
    pub fn new(path: impl Into<PathBuf>, max_lines: usize) -> RunStore {
        RunStore {
            path: path.into(),
            max_lines: max_lines.max(1),
            writer: Mutex::new(()),
        }
    }

    /// The backing file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one report as a compact line, then compacts the file to
    /// the newest `max_lines` entries if it grew past the bound.
    ///
    /// # Errors
    /// Propagates I/O errors from the append or the compaction rewrite.
    pub fn append(&self, doc: &Json) -> io::Result<()> {
        let line = format!("{doc}\n");
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?
            .write_all(line.as_bytes())?;
        let text = fs::read_to_string(&self.path)?;
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        if lines.len() > self.max_lines {
            let keep = &lines[lines.len() - self.max_lines..];
            let mut compacted = keep.join("\n");
            compacted.push('\n');
            fs::write(&self.path, compacted)?;
        }
        Ok(())
    }

    /// Loads every stored report, oldest first. A missing file is an
    /// empty store; malformed lines are skipped rather than fatal so a
    /// truncated tail (e.g. a crash mid-append) can't brick `history`.
    ///
    /// # Errors
    /// Propagates I/O errors other than "file not found".
    pub fn load(&self) -> io::Result<Vec<Json>> {
        let text = match fs::read_to_string(&self.path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        Ok(text
            .lines()
            .filter_map(|line| qsmt_telemetry::parse(line.trim()).ok())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("qsmt-trace-store-{name}-{}", std::process::id()));
        let _ = fs::remove_file(&p);
        p
    }

    fn run(n: u64) -> Json {
        Json::obj([("run", Json::from(n))])
    }

    #[test]
    fn appends_and_loads_in_order() {
        let path = tmp("order");
        let store = RunStore::new(&path, 10);
        for n in 0..3 {
            store.append(&run(n)).unwrap();
        }
        let runs = store.load().unwrap();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[2].get("run").and_then(Json::as_u64), Some(2));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn compacts_to_the_newest_entries() {
        let path = tmp("compact");
        let store = RunStore::new(&path, 4);
        for n in 0..9 {
            store.append(&run(n)).unwrap();
        }
        let runs = store.load().unwrap();
        assert_eq!(runs.len(), 4);
        assert_eq!(runs[0].get("run").and_then(Json::as_u64), Some(5));
        assert_eq!(runs[3].get("run").and_then(Json::as_u64), Some(8));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn concurrent_appends_keep_every_line_whole() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 60;
        // ~2 KB lines, the size of a real run report.
        let pad = "x".repeat(2048);
        let total = (THREADS * PER_THREAD) as usize;
        for (name, max_lines, expected) in [("concurrent", 1024, total), ("compacting", 64, 64)] {
            let path = tmp(name);
            let store = RunStore::new(&path, max_lines);
            let start = std::sync::Barrier::new(THREADS as usize);
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let (store, pad, start) = (&store, &pad, &start);
                    scope.spawn(move || {
                        start.wait();
                        for i in 0..PER_THREAD {
                            let doc = Json::obj([
                                ("run", Json::from(t * PER_THREAD + i)),
                                ("pad", Json::from(pad.as_str())),
                            ]);
                            store.append(&doc).unwrap();
                        }
                    });
                }
            });
            let text = fs::read_to_string(&path).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), expected, "{name}: line count");
            let mut runs: Vec<u64> = lines
                .iter()
                .map(|line| {
                    let doc = qsmt_telemetry::parse(line)
                        .unwrap_or_else(|e| panic!("{name}: torn line ({e:?})"));
                    doc.get("run").and_then(Json::as_u64).expect("run id")
                })
                .collect();
            runs.sort_unstable();
            runs.dedup();
            assert_eq!(runs.len(), expected, "{name}: every line is a distinct run");
            let _ = fs::remove_file(&path);
        }
    }

    #[test]
    fn missing_file_is_empty_and_garbage_lines_are_skipped() {
        let path = tmp("garbage");
        let store = RunStore::new(&path, 10);
        assert!(store.load().unwrap().is_empty());
        store.append(&run(1)).unwrap();
        fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(b"{not json\n")
            .unwrap();
        store.append(&run(2)).unwrap();
        let runs = store.load().unwrap();
        assert_eq!(runs.len(), 2);
        let _ = fs::remove_file(&path);
    }
}
