//! Postgres-style WAL with a global `WALWriteLock`, and the paper's
//! parallel-logging variant.
//!
//! In Postgres, a committing backend calls `LWLockAcquireOrWait` on the
//! single `WALWriteLock`; the variance of that wait accounts for 76.8% of
//! Postgres's overall transaction-latency variance (Table 2). The holder
//! flushes everything buffered, so blocked backends frequently find their
//! records already durable when the lock releases — group commit.
//!
//! Append, the durability wait and the flush round live in the log core
//! ([`crate::lockfree`]), for both [`AppendMode`]s; the mutex mode's
//! blocking flush lock is the `WALWriteLock`. This personality's flush
//! model supplies the block-quantized write: a flush of `b` bytes writes
//! `ceil(b / block_size)` whole blocks plus a fixed per-block overhead,
//! then fsyncs. Larger blocks mean fewer device operations but more
//! padding — the trade-off swept in Figure 4 (right). The wait, less any
//! flush round the backend ran itself, is charged to the
//! `LWLockAcquireOrWait` probe.
//!
//! [`WalWriterConfig::sets`] > 1 enables the paper's parallel logging
//! (Section 6.2): multiple independent log sets, each with its own device
//! and lock. A committer takes any free set; when all are busy it waits on
//! the set with the fewest waiters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tpd_common::clock::now_nanos;
use tpd_common::disk::DiskDevice;
use tpd_metrics::{Histogram, HistogramSnapshot};
use tpd_profiler::{FuncId, Profiler};

use crate::lockfree::{AppendMode, FlushModel, LogCore, LogUnit};

/// Configuration for the WAL writer.
#[derive(Debug, Clone)]
pub struct WalWriterConfig {
    /// Number of independent log sets (1 = stock Postgres; 2 = the paper's
    /// parallel logging).
    pub sets: usize,
    /// WAL block size in bytes (Postgres default 8 KiB).
    pub block_size: u64,
    /// Fixed cost per block written (write(2) syscall + device command
    /// overhead), spent on the flush critical path. This is what larger
    /// blocks amortize in the Fig. 4 sweep.
    pub per_block_overhead: Duration,
    /// Injected WAL faults. Only `ack_before_flush` applies to this
    /// personality: commit appends and returns without flushing, so
    /// acked bytes stay pending until someone else's commit flushes them.
    pub faults: Option<crate::WalFaultPlan>,
    /// Append path: mutex-serialized (paper-faithful) or reserve-then-copy.
    pub append: AppendMode,
}

impl Default for WalWriterConfig {
    fn default() -> Self {
        WalWriterConfig {
            sets: 1,
            block_size: 8 * 1024,
            per_block_overhead: Duration::from_micros(150),
            faults: None,
            append: AppendMode::Lockfree,
        }
    }
}

/// Profiler hookup for the paper-named probe site.
#[derive(Debug, Clone)]
pub struct PgWalProbes {
    /// The engine's profiler.
    pub profiler: Arc<Profiler>,
    /// `LWLockAcquireOrWait` — wait for the WALWriteLock.
    pub lwlock_acquire: FuncId,
}

/// Cumulative statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalWriterStats {
    /// Commit calls.
    pub commits: u64,
    /// Device flush operations (sum over sets).
    pub flushes: u64,
    /// Commits satisfied by another backend's flush.
    pub group_commits: u64,
    /// Blocks written (including padding).
    pub blocks_written: u64,
    /// Payload bytes requested (before padding).
    pub bytes_requested: u64,
    /// Total ns spent waiting for a WALWriteLock.
    pub lock_wait_ns: u64,
}

/// The block-quantized flush model.
#[derive(Debug)]
struct BlockFlush {
    block_size: u64,
    per_block_overhead: Duration,
}

impl FlushModel for BlockFlush {
    fn units(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.block_size)
    }

    fn write(&self, log: &LogUnit, from: u64, to: u64) {
        // One sequential device write of the padded batch, then the
        // per-block syscall/command overhead: a real sleep normally, a
        // logical-clock bump under the harness's virtual clock.
        let blocks = self.units(to - from);
        log.disk.write(blocks * self.block_size);
        let cost = self.per_block_overhead * blocks as u32;
        tpd_common::clock::advance(cost.as_nanos() as u64);
    }

    fn sync(&self, log: &LogUnit) {
        log.disk.flush(0);
    }
}

/// The WAL writer. See module docs.
#[derive(Debug)]
pub struct WalWriter {
    core: LogCore<BlockFlush>,
    config: WalWriterConfig,
    probes: Option<PgWalProbes>,
    bytes_requested: AtomicU64,
    lock_wait_ns: AtomicU64,
    /// WALWriteLock wait per commit (ns).
    lock_wait_hist: Histogram,
}

impl WalWriter {
    /// Create a writer with one device per set.
    pub fn new(
        config: WalWriterConfig,
        disks: Vec<Arc<dyn DiskDevice>>,
        probes: Option<PgWalProbes>,
    ) -> Self {
        assert!(config.sets >= 1, "need at least one log set");
        assert_eq!(disks.len(), config.sets, "one device per log set required");
        assert!(config.block_size > 0);
        let model = BlockFlush {
            block_size: config.block_size,
            per_block_overhead: config.per_block_overhead,
        };
        WalWriter {
            core: LogCore::new(config.append, disks, model, None),
            config,
            probes,
            bytes_requested: AtomicU64::new(0),
            lock_wait_ns: AtomicU64::new(0),
            lock_wait_hist: Histogram::new(),
        }
    }

    /// Commit `bytes` of WAL durably. Returns ns spent on the commit path.
    pub fn commit(&self, bytes: u64) -> u64 {
        let start = now_nanos();
        self.core.commits.fetch_add(1, Ordering::Relaxed);
        self.bytes_requested.fetch_add(bytes, Ordering::Relaxed);
        let set = self.choose_set();
        // Even a "zero-byte" commit carries a commit record on the wire.
        let end = self.core.append(set, Vec::new(), bytes.max(1)).end;
        if self
            .config
            .faults
            .as_ref()
            .is_some_and(|f| f.ack_before_flush)
        {
            // Seeded bug: acknowledge with the bytes still pending.
            return now_nanos() - start;
        }
        // LWLockAcquireOrWait: wait until a flush covers our bytes, or
        // take the lock and flush them ourselves (not charged as a wait).
        let wait_start = now_nanos();
        let own_flush = self.core.wait_flushed(set, end);
        let lock_wait = now_nanos() - wait_start - own_flush;
        self.lock_wait_ns.fetch_add(lock_wait, Ordering::Relaxed);
        self.lock_wait_hist.record(lock_wait);
        if let Some(p) = &self.probes {
            p.profiler
                .add_event(p.lwlock_acquire, wait_start, lock_wait);
        }
        now_nanos() - start
    }

    /// Pick a log set: any free one, else the one with the fewest
    /// waiters (the paper's rule).
    fn choose_set(&self) -> usize {
        let sets = &self.core.units;
        match sets.iter().position(LogUnit::baton_free) {
            Some(free) => free,
            None => (0..sets.len())
                .min_by_key(|&i| sets[i].waiters())
                .expect("a set"),
        }
    }

    /// Number of configured log sets.
    pub fn set_count(&self) -> usize {
        self.core.units.len()
    }

    /// The active append mode.
    pub fn append_mode(&self) -> AppendMode {
        self.config.append
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> WalWriterStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        WalWriterStats {
            commits: load(&self.core.commits),
            flushes: load(&self.core.flushes),
            group_commits: load(&self.core.group_commits),
            blocks_written: load(&self.core.written),
            bytes_requested: load(&self.bytes_requested),
            lock_wait_ns: load(&self.lock_wait_ns),
        }
    }

    /// Snapshot of the WALWriteLock wait histogram (ns per commit).
    pub fn lock_wait_histogram(&self) -> HistogramSnapshot {
        self.lock_wait_hist.snapshot()
    }

    /// Snapshot of the flush batch-size histogram (blocks per flush).
    pub fn batch_histogram(&self) -> HistogramSnapshot {
        self.core.batch_hist.snapshot()
    }

    /// Snapshot of the append-path reservation latency histogram (ns).
    pub fn reserve_histogram(&self) -> HistogramSnapshot {
        self.core.reserve_hist.snapshot()
    }

    /// Snapshot of the commits-acked-per-fsync histogram.
    pub fn group_commit_batch_histogram(&self) -> HistogramSnapshot {
        self.core.group_batch_hist.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpd_common::dist::ServiceTime;
    use tpd_common::{DiskConfig, SimDisk};

    fn fast_disk(seed: u64) -> Arc<dyn DiskDevice> {
        Arc::new(SimDisk::new(DiskConfig {
            service: ServiceTime::Fixed(50_000),
            ns_per_byte: 0.0,
            seed,
        }))
    }

    fn writer_with(sets: usize, block: u64, append: AppendMode) -> WalWriter {
        let disks = (0..sets).map(|i| fast_disk(i as u64)).collect();
        WalWriter::new(
            WalWriterConfig {
                sets,
                block_size: block,
                per_block_overhead: std::time::Duration::ZERO,
                append,
                ..Default::default()
            },
            disks,
            None,
        )
    }

    fn writer(sets: usize, block: u64) -> WalWriter {
        writer_with(sets, block, AppendMode::Lockfree)
    }

    #[test]
    fn single_commit_flushes_one_padded_block() {
        for append in [AppendMode::Mutex, AppendMode::Lockfree] {
            let w = writer_with(1, 8192, append);
            let t = w.commit(100);
            assert!(t >= 100_000, "write + flush, got {t}");
            let s = w.stats();
            assert_eq!(s.commits, 1);
            assert_eq!(s.flushes, 1);
            assert_eq!(s.blocks_written, 1, "100 bytes pads to one block");
            assert_eq!(s.bytes_requested, 100);
        }
    }

    #[test]
    fn large_commit_writes_multiple_blocks() {
        for append in [AppendMode::Mutex, AppendMode::Lockfree] {
            let w = writer_with(1, 4096, append);
            w.commit(10_000);
            assert_eq!(w.stats().blocks_written, 3, "ceil(10000/4096)");
        }
    }

    #[test]
    fn concurrent_commits_group() {
        for append in [AppendMode::Mutex, AppendMode::Lockfree] {
            let w = Arc::new(writer_with(1, 8192, append));
            let mut handles = Vec::new();
            for _ in 0..8 {
                let w = w.clone();
                handles.push(std::thread::spawn(move || {
                    w.commit(64);
                }));
            }
            for h in handles {
                h.join().expect("committer");
            }
            let s = w.stats();
            assert_eq!(s.commits, 8);
            assert!(s.flushes < 8, "{} flushes for 8 commits", s.flushes);
            assert!(s.group_commits > 0);
        }
    }

    #[test]
    fn parallel_logging_uses_both_sets() {
        let w = Arc::new(writer(2, 8192));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let w = w.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..4 {
                    w.commit(64);
                }
            }));
        }
        for h in handles {
            h.join().expect("committer");
        }
        assert_eq!(w.set_count(), 2);
        let s = w.stats();
        assert_eq!(s.commits, 64);
        // Both devices must have seen traffic: total flushes spread. We can
        // only check aggregate here; per-set spread is visible via each
        // disk's stats in the engine integration tests.
        assert!(s.flushes >= 2);
    }

    #[test]
    fn zero_byte_commit_still_flushes_a_block() {
        for append in [AppendMode::Mutex, AppendMode::Lockfree] {
            let w = writer_with(1, 8192, append);
            w.commit(0);
            assert_eq!(w.stats().blocks_written, 1);
        }
    }

    #[test]
    #[should_panic(expected = "one device per log set")]
    fn wrong_disk_count_rejected() {
        WalWriter::new(
            WalWriterConfig {
                sets: 2,
                block_size: 8192,
                per_block_overhead: std::time::Duration::ZERO,
                ..Default::default()
            },
            vec![fast_disk(1)],
            None,
        );
    }

    #[test]
    fn ack_before_flush_bug_leaves_bytes_pending() {
        for append in [AppendMode::Mutex, AppendMode::Lockfree] {
            let w = WalWriter::new(
                WalWriterConfig {
                    sets: 1,
                    block_size: 8192,
                    per_block_overhead: std::time::Duration::ZERO,
                    faults: Some(crate::WalFaultPlan {
                        ack_before_flush: true,
                        ..Default::default()
                    }),
                    append,
                },
                vec![fast_disk(1)],
                None,
            );
            let t = w.commit(100);
            assert!(t < 25_000, "no flush on the commit path: {t} ns");
            let s = w.stats();
            assert_eq!(s.commits, 1);
            assert_eq!(s.flushes, 0, "the acked bytes were never made durable");
        }
    }

    #[test]
    fn group_batch_histogram_counts_solo_commits() {
        let w = writer(1, 8192);
        for _ in 0..3 {
            w.commit(64);
        }
        let h = w.group_commit_batch_histogram();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 3);
        assert_eq!(w.reserve_histogram().count, 3);
    }
}
