//! A [`Storage`] wrapper that counts what the durable layer writes.
//!
//! The publisher and compaction threads call it, so the counters are
//! shared atomics the benchmark reads after those threads have stopped.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wf_snapshot::{DiskStorage, Storage};

#[derive(Default)]
pub struct IoCounters {
    /// Bytes handed to the storage: log appends, base and log rewrites.
    pub bytes_written: AtomicU64,
    /// Log appends, one per persisted publish frame.
    pub frames: AtomicU64,
    /// Log fsyncs and their total duration.
    pub syncs: AtomicU64,
    pub sync_ns: AtomicU64,
}

impl IoCounters {
    pub fn get(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        for c in [&self.bytes_written, &self.frames, &self.syncs, &self.sync_ns] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

pub struct CountingStorage {
    inner: DiskStorage,
    io: Arc<IoCounters>,
}

impl CountingStorage {
    pub fn new(inner: DiskStorage, io: Arc<IoCounters>) -> Self {
        Self { inner, io }
    }

    fn wrote(&self, n: usize) {
        self.io.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
    }
}

impl Storage for CountingStorage {
    fn read_base(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.inner.read_base()
    }

    fn replace_base(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.wrote(bytes.len());
        self.inner.replace_base(bytes)
    }

    fn read_log(&mut self) -> io::Result<Vec<u8>> {
        self.inner.read_log()
    }

    fn append_log(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.wrote(bytes.len());
        self.io.frames.fetch_add(1, Ordering::Relaxed);
        self.inner.append_log(bytes)
    }

    fn sync_log(&mut self) -> io::Result<()> {
        let t = std::time::Instant::now();
        let r = self.inner.sync_log();
        self.io.syncs.fetch_add(1, Ordering::Relaxed);
        self.io.sync_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    fn truncate_log(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate_log(len)
    }

    fn replace_log(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.wrote(bytes.len());
        self.inner.replace_log(bytes)
    }
}
