//! Equivalence of the two append paths, and safety of the lock-free one.
//!
//! The reserve-then-copy buffer must be a pure performance change: for
//! any single-threaded schedule of appends, commits, and flush points,
//! the crash-recovered state must be byte-identical to the mutex path's.
//! With K parallel logs the LSN spaces differ by construction, so there
//! the *recovered database state* (committed set + replayed rows) must
//! match the single-log run. The Postgres writer's two paths must agree
//! on every count and flush batch.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use tpd_common::dist::ServiceTime;
use tpd_common::{DiskConfig, DiskDevice, SimDisk};
use tpd_metrics::HistogramSnapshot;
use tpd_wal::{
    committed_txns, durable_prefix, AppendMode, FlushPolicy, LogRecord, RedoLog, RedoLogConfig,
    RedoStats, StampedRecord, WalFaultPlan, WalWriter, WalWriterConfig, WalWriterStats,
};

fn disk(seed: u64) -> Arc<dyn DiskDevice> {
    Arc::new(SimDisk::new(DiskConfig {
        service: ServiceTime::Fixed(500),
        ns_per_byte: 0.0,
        seed,
    }))
}

/// One step of a schedule: a transaction appending `rows` update rows
/// (plus a commit marker iff `commit`), optionally followed by a manual
/// flush tick.
#[derive(Debug, Clone)]
struct Step {
    rows: usize,
    commit: bool,
    flush_after: bool,
}

/// Raw schedule strategy: `(rows, commit, flush_after)` per step (the
/// vendored proptest stand-in has no `prop_map`, so [`Step`]s are built
/// in the test body).
fn schedule() -> proptest::collection::VecStrategy<(
    std::ops::Range<usize>,
    proptest::Any<bool>,
    proptest::Any<bool>,
)> {
    proptest::collection::vec((1usize..5, any::<bool>(), any::<bool>()), 1..20)
}

fn steps_of(raw: Vec<(usize, bool, bool)>) -> Vec<Step> {
    raw.into_iter()
        .map(|(rows, commit, flush_after)| Step {
            rows,
            commit,
            flush_after,
        })
        .collect()
}

/// Run `steps` against a fresh log and return its crash snapshot + stats.
fn run(
    append: AppendMode,
    writers: usize,
    eager: bool,
    steps: &[Step],
) -> (Vec<StampedRecord>, RedoStats) {
    let disks = (0..writers.max(1)).map(|i| disk(100 + i as u64)).collect();
    let log = RedoLog::with_disks(
        RedoLogConfig {
            policy: if eager {
                FlushPolicy::Eager
            } else {
                FlushPolicy::LazyWrite
            },
            manual_flush: true,
            faults: Some(WalFaultPlan {
                torn_tail: true,
                ..Default::default()
            }),
            append,
            writers,
            ..Default::default()
        },
        disks,
        None,
    );
    for (i, step) in steps.iter().enumerate() {
        let txn = i as u64 + 1;
        let mut records = vec![LogRecord::Update {
            txn,
            table: 0,
            key: txn % 7,
            after: vec![txn as i64; step.rows],
        }];
        if step.commit {
            records.push(LogRecord::Commit { txn });
        }
        let lsn = log.append_records(records, 0);
        if step.commit {
            log.commit(lsn);
        }
        if step.flush_after {
            log.flush_now();
        }
    }
    (log.simulate_crash(), log.stats())
}

/// Redo recovery: replay committed transactions' updates from the
/// readable prefix, in log order.
fn replay(snapshot: &[StampedRecord]) -> HashMap<u64, Vec<i64>> {
    let committed = committed_txns(snapshot);
    let mut state = HashMap::new();
    for r in durable_prefix(snapshot) {
        if let LogRecord::Update {
            txn, key, after, ..
        } = &r.record
        {
            if committed.contains(txn) {
                state.insert(*key, after.clone());
            }
        }
    }
    state
}

/// Postgres WAL block size for the pg schedules: small, so commit sizes
/// in `0..=3 * PG_BLOCK` cross block boundaries.
const PG_BLOCK: u64 = 512;

/// Raw pg schedule: `(size, zero)` per commit; `zero` forces a 0-byte
/// commit.
fn pg_schedule(
) -> proptest::collection::VecStrategy<(std::ops::RangeInclusive<u64>, proptest::Any<bool>)> {
    proptest::collection::vec((0..=3 * PG_BLOCK, any::<bool>()), 1..24)
}

/// What the pg writer reports after a schedule: its stats (wait time
/// zeroed: it is wall-clock), then the flush-batch, group-commit-batch
/// and reserve histograms.
type PgRun = (
    WalWriterStats,
    HistogramSnapshot,
    HistogramSnapshot,
    HistogramSnapshot,
);

/// Commit `sizes` one after another on a fresh pg writer.
fn run_pg(append: AppendMode, sets: usize, ack_before_flush: bool, sizes: &[u64]) -> PgRun {
    let w = WalWriter::new(
        WalWriterConfig {
            sets,
            block_size: PG_BLOCK,
            per_block_overhead: std::time::Duration::ZERO,
            faults: Some(WalFaultPlan {
                ack_before_flush,
                ..Default::default()
            }),
            append,
        },
        (0..sets).map(|i| disk(200 + i as u64)).collect(),
        None,
    );
    for &bytes in sizes {
        w.commit(bytes);
    }
    let stats = WalWriterStats {
        lock_wait_ns: 0,
        ..w.stats()
    };
    (
        stats,
        w.batch_histogram(),
        w.group_commit_batch_histogram(),
        w.reserve_histogram(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Postgres writer: both append paths flush the same blocks in the
    /// same batches and count the same commits, group commits and
    /// appends, across 0-byte commits, block boundaries, one or two log
    /// sets and the ack-before-flush fault.
    #[test]
    fn pg_lockfree_matches_mutex(raw in pg_schedule(), two_sets in any::<bool>(), ack_early in any::<bool>()) {
        let sizes: Vec<u64> = raw.into_iter().map(|(n, zero)| if zero { 0 } else { n }).collect();
        let sets = if two_sets { 2 } else { 1 };
        let (stats_m, batch_m, group_m, reserve_m) = run_pg(AppendMode::Mutex, sets, ack_early, &sizes);
        let (stats_l, batch_l, group_l, reserve_l) = run_pg(AppendMode::Lockfree, sets, ack_early, &sizes);
        prop_assert_eq!(stats_m.commits, stats_l.commits);
        prop_assert_eq!(stats_m.flushes, stats_l.flushes);
        prop_assert_eq!(stats_m.group_commits, stats_l.group_commits);
        prop_assert_eq!(stats_m.blocks_written, stats_l.blocks_written);
        prop_assert_eq!(stats_m.bytes_requested, stats_l.bytes_requested);
        prop_assert_eq!(batch_m, batch_l, "same blocks per flush");
        prop_assert_eq!(group_m.count, group_l.count, "same group-commit batches");
        prop_assert_eq!(reserve_m.count, reserve_l.count, "every append timed");
    }

    /// Single log: the lock-free path must produce a byte-identical crash
    /// snapshot (same records, same stamped LSNs, same torn tail) and the
    /// same I/O accounting as the mutex path, for any schedule and both
    /// the eager and manual-flush regimes.
    #[test]
    fn lockfree_matches_mutex_byte_for_byte(raw in schedule(), eager in any::<bool>()) {
        let steps = steps_of(raw);
        let (snap_mutex, stats_mutex) = run(AppendMode::Mutex, 1, eager, &steps);
        let (snap_lf, stats_lf) = run(AppendMode::Lockfree, 1, eager, &steps);
        prop_assert_eq!(snap_mutex, snap_lf, "crash snapshots must be identical");
        prop_assert_eq!(stats_mutex.bytes_appended, stats_lf.bytes_appended);
        prop_assert_eq!(stats_mutex.bytes_written, stats_lf.bytes_written);
        prop_assert_eq!(stats_mutex.commits, stats_lf.commits);
        prop_assert_eq!(stats_mutex.flushes, stats_lf.flushes);
    }

    /// K parallel logs: LSN spaces differ, but the recovered database
    /// state (committed set + replayed rows) must match the single-log
    /// run for any schedule.
    #[test]
    fn two_writers_recover_the_same_state(raw in schedule(), eager in any::<bool>()) {
        let steps = steps_of(raw);
        let (snap_one, _) = run(AppendMode::Lockfree, 1, eager, &steps);
        let (snap_two, _) = run(AppendMode::Lockfree, 2, eager, &steps);
        prop_assert_eq!(
            committed_txns(&snap_one),
            committed_txns(&snap_two),
            "same committed set regardless of striping"
        );
        prop_assert_eq!(replay(&snap_one), replay(&snap_two), "same replayed rows");
    }
}

/// Concurrent soak hammering the publish watermark: many threads
/// reserving, publishing, and committing against 1 and 2 stripes while
/// asserting the durability contract at every commit. Run with
/// `TPD_SOAK=1 cargo test -p tpd-wal -- --ignored`.
#[test]
#[ignore = "long soak; enable with TPD_SOAK=1"]
fn concurrent_append_soak() {
    if std::env::var("TPD_SOAK").as_deref() != Ok("1") {
        eprintln!("concurrent_append_soak: set TPD_SOAK=1 to run");
        return;
    }
    for writers in [1usize, 2] {
        let disks = (0..writers).map(|i| disk(7000 + i as u64)).collect();
        let log = RedoLog::with_disks(
            RedoLogConfig {
                policy: FlushPolicy::Eager,
                writers,
                ..Default::default()
            },
            disks,
            None,
        );
        let next_txn = AtomicU64::new(1);
        let threads = 8;
        let per_thread = 2_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let log = log.clone();
                let next_txn = &next_txn;
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        let txn = next_txn.fetch_add(1, Ordering::Relaxed);
                        let lsn = log.append_records(
                            vec![
                                LogRecord::Update {
                                    txn,
                                    table: 0,
                                    key: txn,
                                    after: vec![txn as i64],
                                },
                                LogRecord::Commit { txn },
                            ],
                            8,
                        );
                        log.commit(lsn);
                    }
                });
            }
        });
        let total = threads as u64 * per_thread;
        let stats = log.stats();
        assert_eq!(stats.commits, total);
        assert!(
            stats.flushes < total,
            "group commit must batch: {} flushes for {total} commits",
            stats.flushes
        );
        for (reserved, published, written, flushed) in log.stripe_cursors() {
            assert!(
                flushed <= written && written <= published && published <= reserved,
                "cursor invariant violated"
            );
            assert_eq!(reserved, published, "every reservation was published");
        }
        let committed = committed_txns(&log.simulate_crash());
        assert_eq!(
            committed.len() as u64,
            total,
            "every acked commit must be recoverable ({writers} writers)"
        );
    }
}
