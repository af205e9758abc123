//! The log core: the append path, the durability wait and the flush round,
//! written once for both personalities.
//!
//! The paper diagnoses the commit-path log flush as the single largest
//! variance source in both engines (`fil_flush`, `LWLockAcquireOrWait`).
//! Both personalities run the same protocol over K parallel logs, so it
//! lives here; each personality passes a `FlushModel` saying how its
//! bytes reach the device, and keeps only what differs (see
//! [`crate::mysql`] and [`crate::pg`]).
//!
//! A `LogUnit` is one parallel log (a mysql stripe or a pg set). It owns
//! its device and four cursors, `flushed ≤ written ≤ published ≤
//! reserved`. Two append paths fill it ([`AppendMode`]):
//!
//! * **Mutex** — the paper's baseline: every append takes the buffer
//!   mutex, and flush rounds queue on a blocking flush lock.
//! * **Lockfree** — reserve-then-copy:
//!   1. **Reserve** — one `fetch_add` on `reserved` claims a gap-free LSN
//!      range, with no lock held.
//!   2. **Copy** — the records are stamped against the range outside any
//!      lock (in a real system, the memcpy into the buffer slice).
//!   3. **Publish** — completion goes through a bounded MPSC ring of
//!      per-slot sequence words (Vyukov-style). A single drainer collects
//!      completions and advances `published` strictly in LSN order,
//!      parking out-of-order ones in a `BTreeMap` until their predecessor
//!      lands.
//!
//!   The flush lock becomes a **baton**: a committer that fails to
//!   `try_lock` it parks on a condvar until the holder's round wakes it.
//!
//! `LogCore::wait_until` is the only wait: until the condition holds,
//! take the baton and run a round, else park, and retry. A round
//! (`LogCore::flush_round`) drains, writes `published − written`,
//! fsyncs `written − flushed`, does the shared accounting (flushes,
//! fsync/batch/acks-per-fsync histograms, the global flush epoch) and wakes
//! parked committers; N committers share one fsync (group commit). A round
//! only covers what its drain saw, so a waiter behind an unpublished lower
//! reservation loops.

use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard};

use tpd_common::clock::now_nanos;
use tpd_common::disk::DiskDevice;
use tpd_metrics::Histogram;
use tpd_profiler::{FuncId, Profiler};

use crate::record::{LogRecord, StampedRecord};

/// How appends claim space in the log buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AppendMode {
    /// Paper-faithful: every append serializes on the buffer mutex (the
    /// pathology of Table 1/2; kept selectable for the reproductions).
    Mutex,
    /// Reserve-then-copy: appenders claim an LSN range with one
    /// `fetch_add`, copy outside any lock, and publish through the
    /// sequence-word ring. The default.
    #[default]
    Lockfree,
}

impl std::str::FromStr for AppendMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mutex" => Ok(AppendMode::Mutex),
            "lockfree" => Ok(AppendMode::Lockfree),
            other => Err(format!("unknown wal_append mode: {other:?}")),
        }
    }
}

/// Log index bits live in the top byte of an [`crate::Lsn`], so each of
/// up to `2^8` parallel logs gets an independent 56-bit offset space.
/// With one log the encoding is the identity: LSNs are raw offsets.
pub(crate) const STRIPE_SHIFT: u32 = 56;
const OFFSET_MASK: u64 = (1 << STRIPE_SHIFT) - 1;

/// Compose a striped LSN from a log index and in-log offset.
pub(crate) fn make_lsn(stripe: usize, offset: u64) -> crate::Lsn {
    debug_assert!(offset <= OFFSET_MASK, "stripe offset overflow");
    crate::Lsn(((stripe as u64) << STRIPE_SHIFT) | offset)
}

/// The log an LSN belongs to.
pub(crate) fn stripe_of(lsn: crate::Lsn) -> usize {
    (lsn.0 >> STRIPE_SHIFT) as usize
}

/// The in-log offset of an LSN.
pub(crate) fn offset_of(lsn: crate::Lsn) -> u64 {
    lsn.0 & OFFSET_MASK
}

/// A completed copy: the reserved range plus the typed records stamped
/// into it. `records` carry a global sequence number so crash snapshots
/// can merge logs in true append order.
#[derive(Debug)]
pub(crate) struct Reservation {
    /// First byte of the claimed range (== previous reservation's end).
    pub start: u64,
    /// One past the last byte of the claimed range.
    pub end: u64,
    /// Typed records in the range, stamped with global sequence numbers.
    pub records: Vec<(u64, StampedRecord)>,
}

/// Number of publish slots per log. Must be a power of two. Appenders
/// that lap the drainer help drain instead of blocking on a mutex.
const RING_SLOTS: usize = 1024;

/// One publish slot (Vyukov bounded-queue protocol). `seq == pos` means
/// free for the producer holding ticket `pos`; `seq == pos + 1` means the
/// producer finished and the drainer may consume; the drainer then stores
/// `pos + RING_SLOTS` to hand the slot to the producer one lap ahead.
struct Slot {
    seq: AtomicU64,
    data: UnsafeCell<Option<Reservation>>,
}

// SAFETY: `data` is only touched by the producer that won `seq == pos`
// (before its Release store of `pos + 1`) and by the single drainer that
// observed `seq == pos + 1` with Acquire (before its Release store of
// `pos + RING_SLOTS`). The seq word hands off exclusive access.
unsafe impl Sync for Slot {}
unsafe impl Send for Slot {}

/// State behind the buffer mutex: every append holds it in mutex mode; in
/// lockfree mode only the (single) drainer does.
#[derive(Debug, Default)]
struct Buffer {
    /// Next ring position to consume.
    head: u64,
    /// Completions whose predecessor has not yet published, keyed by
    /// their start offset.
    parked: BTreeMap<u64, Reservation>,
    /// Typed records retained for crash/recovery simulation, in log LSN
    /// order (drained strictly by the watermark).
    records: Vec<(u64, StampedRecord)>,
    /// How many of `records` a file sink has framed out.
    framed: usize,
}

/// What a personality supplies to the core: how its bytes reach the
/// device. Both methods run under the unit's baton.
pub(crate) trait FlushModel {
    /// Device units a write of `bytes` costs: the unit of the written
    /// counter and the flush-batch histogram.
    fn units(&self, bytes: u64) -> u64 {
        bytes
    }

    /// Write the unit's bytes `[from, to)` into the device cache.
    fn write(&self, log: &LogUnit, from: u64, to: u64);

    /// The fsync: make everything written durable.
    fn sync(&self, log: &LogUnit);
}

/// One parallel log: its device, cursors, publish ring and flush baton.
pub(crate) struct LogUnit {
    /// This log's index (the LSN top byte; the file sink's chain id).
    pub idx: usize,
    pub disk: Arc<dyn DiskDevice>,
    /// Next unreserved offset. `fetch_add` here is the entire lockfree
    /// reservation protocol.
    reserved: AtomicU64,
    /// Contiguous prefix of reserved space whose copy has completed.
    published: AtomicU64,
    /// Prefix written to the device cache (advanced under the baton).
    written: AtomicU64,
    /// Durable prefix (advanced after fsync, under the baton).
    flushed: AtomicU64,
    /// Epoch of this log's most recent flush round (see the K-way
    /// commit-ack rule in `mysql.rs`).
    flushed_epoch: AtomicU64,
    /// Committers currently waiting on durability; swapped to zero at
    /// each fsync to size the group-commit batch.
    acks_pending: AtomicU64,
    /// Producer ticket counter for the publish ring.
    tail: AtomicU64,
    slots: Box<[Slot]>,
    /// The buffer mutex (see [`Buffer`]).
    buf: Mutex<Buffer>,
    /// Flush lock / baton: whoever holds it writes + fsyncs for everyone.
    baton: Mutex<()>,
    /// Number of committers inside `park_round` (lets `wake_all` skip the
    /// park lock on uncontended rounds; a stale zero is safe because
    /// parkers time out and re-check).
    parked: AtomicU64,
    park: Mutex<()>,
    park_cv: Condvar,
}

impl std::fmt::Debug for LogUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogUnit")
            .field("idx", &self.idx)
            .field("cursors", &self.cursors())
            .finish_non_exhaustive()
    }
}

impl LogUnit {
    fn new(idx: usize, disk: Arc<dyn DiskDevice>) -> Self {
        LogUnit {
            idx,
            disk,
            reserved: AtomicU64::new(0),
            published: AtomicU64::new(0),
            written: AtomicU64::new(0),
            flushed: AtomicU64::new(0),
            flushed_epoch: AtomicU64::new(0),
            acks_pending: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            slots: (0..RING_SLOTS as u64)
                .map(|i| Slot {
                    seq: AtomicU64::new(i),
                    data: UnsafeCell::new(None),
                })
                .collect(),
            buf: Mutex::new(Buffer::default()),
            baton: Mutex::new(()),
            parked: AtomicU64::new(0),
            park: Mutex::new(()),
            park_cv: Condvar::new(),
        }
    }

    /// Claim `bytes` of LSN space. Returns the range's start offset.
    fn reserve(&self, bytes: u64) -> u64 {
        self.reserved.fetch_add(bytes, Ordering::SeqCst)
    }

    /// Announce a completed copy. Never blocks on a lock: if the ring is
    /// full (we lapped the drainer), we help drain until our slot frees.
    fn publish(&self, res: Reservation) {
        debug_assert!(res.start <= res.end);
        // Fast path: when this completion is the next one in LSN order and
        // the buffer lock is uncontended, land it directly — no ring
        // traffic. Under contention the try_lock fails (or we are out of
        // order) and we fall through to the ring.
        if self.published.load(Ordering::Acquire) == res.start {
            if let Some(mut buf) = self.buf.try_lock() {
                // `published` only moves under the buffer lock, and only by
                // consuming the contiguous next range — which is ours and
                // is not in the ring. It is therefore still == start.
                debug_assert_eq!(self.published.load(Ordering::Acquire), res.start);
                buf.records.extend(res.records);
                self.published.store(res.end, Ordering::Release);
                if !buf.parked.is_empty() {
                    // A parked successor may be unblocked now.
                    self.drain_locked(&mut buf);
                }
                return;
            }
        }
        let pos = self.tail.fetch_add(1, Ordering::SeqCst);
        let slot = &self.slots[(pos as usize) & (RING_SLOTS - 1)];
        while slot.seq.load(Ordering::Acquire) != pos {
            // Ring full: drain on behalf of the missing drainer. Bounded
            // by the publish progress of the appenders one lap behind.
            if let Some(mut buf) = self.buf.try_lock() {
                self.drain_locked(&mut buf);
            }
            std::hint::spin_loop();
        }
        // SAFETY: seq == pos grants this producer exclusive slot access.
        unsafe { *slot.data.get() = Some(res) };
        slot.seq.store(pos + 1, Ordering::Release);
    }

    /// Drain the ring and advance the publish watermark.
    fn drain(&self) {
        self.drain_locked(&mut self.buf.lock());
    }

    fn drain_locked(&self, buf: &mut Buffer) {
        loop {
            let slot = &self.slots[(buf.head as usize) & (RING_SLOTS - 1)];
            if slot.seq.load(Ordering::Acquire) != buf.head + 1 {
                break;
            }
            // SAFETY: seq == head + 1 grants the (single) drainer
            // exclusive slot access; the producer's Release store made
            // its write to `data` visible to our Acquire load.
            let res = unsafe { (*slot.data.get()).take() }.expect("published slot holds data");
            slot.seq
                .store(buf.head + RING_SLOTS as u64, Ordering::Release);
            buf.head += 1;
            buf.parked.insert(res.start, res);
        }
        // Advance the watermark strictly in LSN order: a completion only
        // lands once every byte before it has landed.
        let mut published = self.published.load(Ordering::Acquire);
        while let Some(res) = buf.parked.remove(&published) {
            debug_assert_eq!(res.start, published, "reservations tile the LSN space");
            published = res.end;
            buf.records.extend(res.records);
        }
        self.published.store(published, Ordering::Release);
    }

    /// Run `f` over the retained typed records (drains first so every
    /// publish that completed before this call is visible).
    pub fn with_records<R>(&self, f: impl FnOnce(&[(u64, StampedRecord)]) -> R) -> R {
        let mut buf = self.buf.lock();
        self.drain_locked(&mut buf);
        f(&buf.records)
    }

    /// Hand every retained record not yet framed out to `frame`, in LSN
    /// order (file sink; called under the baton).
    pub fn frame_new(&self, mut frame: impl FnMut(u64, &StampedRecord)) {
        let mut buf = self.buf.lock();
        self.drain_locked(&mut buf);
        for (seq, r) in &buf.records[buf.framed..] {
            frame(*seq, r);
        }
        buf.framed = buf.records.len();
    }

    pub fn published(&self) -> u64 {
        self.published.load(Ordering::SeqCst)
    }

    pub fn written(&self) -> u64 {
        self.written.load(Ordering::SeqCst)
    }

    pub fn flushed(&self) -> u64 {
        self.flushed.load(Ordering::SeqCst)
    }

    pub fn flushed_epoch(&self) -> u64 {
        self.flushed_epoch.load(Ordering::SeqCst)
    }

    /// Whether nobody holds the baton right now (a probe: takes and
    /// drops it).
    pub fn baton_free(&self) -> bool {
        self.baton.try_lock().is_some()
    }

    /// Committers waiting on this log's durability.
    pub fn waiters(&self) -> u64 {
        self.acks_pending.load(Ordering::Relaxed)
    }

    /// Park for one flush round: wait until woken (or a short timeout)
    /// unless `done()` already holds. The timeout makes lost wake-ups
    /// impossible by construction. The deterministic single-threaded
    /// harness never reaches this: the baton is always free there.
    fn park_round(&self, done: impl Fn() -> bool) {
        self.parked.fetch_add(1, Ordering::SeqCst);
        let mut g = self.park.lock();
        if !done() {
            self.park_cv.wait_for(&mut g, Duration::from_millis(1));
        }
        drop(g);
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wake every parked committer (after a round). Uncontended rounds
    /// skip the lock; a committer racing into `park_round` right now is
    /// covered by its bounded wait + re-check.
    fn wake_all(&self) {
        if self.parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        let _g = self.park.lock();
        self.park_cv.notify_all();
    }

    /// Cursor snapshot `(reserved, published, written, flushed)`.
    pub fn cursors(&self) -> (u64, u64, u64, u64) {
        (
            self.reserved.load(Ordering::SeqCst),
            self.published(),
            self.written(),
            self.flushed(),
        )
    }
}

/// K parallel logs plus the accounting every flush round shares.
#[derive(Debug)]
pub(crate) struct LogCore<M> {
    pub units: Vec<LogUnit>,
    model: M,
    mode: AppendMode,
    /// Profiler site charged with every fsync (mysql's `fil_flush`).
    fsync_probe: Option<(Arc<Profiler>, FuncId)>,
    /// Global append sequence, stamped on every typed record so crash
    /// snapshots merge logs in true append order.
    seq: AtomicU64,
    /// Global flush epoch: bumped once per fsync (any log).
    epoch: AtomicU64,
    /// Commit calls.
    pub commits: AtomicU64,
    /// Device flush operations.
    pub flushes: AtomicU64,
    /// Commits satisfied by another committer's flush.
    pub group_commits: AtomicU64,
    /// Device units written ([`FlushModel::units`]).
    pub written: AtomicU64,
    /// Fsync latency per flush (ns).
    pub fsync_hist: Histogram,
    /// Device units made durable per flush.
    pub batch_hist: Histogram,
    /// Append latency (ns): claiming and publishing log space.
    pub reserve_hist: Histogram,
    /// Commits acknowledged per fsync (group-commit batch size).
    pub group_batch_hist: Histogram,
}

impl<M: FlushModel> LogCore<M> {
    /// One unit per device.
    pub fn new(
        mode: AppendMode,
        disks: Vec<Arc<dyn DiskDevice>>,
        model: M,
        fsync_probe: Option<(Arc<Profiler>, FuncId)>,
    ) -> Self {
        assert!(disks.len() <= 256, "log index must fit the LSN top byte");
        LogCore {
            units: disks
                .into_iter()
                .enumerate()
                .map(|(idx, disk)| LogUnit::new(idx, disk))
                .collect(),
            model,
            mode,
            fsync_probe,
            seq: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            group_commits: AtomicU64::new(0),
            written: AtomicU64::new(0),
            fsync_hist: Histogram::new(),
            batch_hist: Histogram::new(),
            reserve_hist: Histogram::new(),
            group_batch_hist: Histogram::new(),
        }
    }

    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Append `records` plus `extra` untyped bytes to log `u`: claim the
    /// range, stamp each record with its end LSN and a global sequence
    /// number, publish. Returns the claimed range.
    pub fn append(&self, u: usize, records: Vec<LogRecord>, extra: u64) -> Range<u64> {
        let t0 = now_nanos();
        let log = &self.units[u];
        let bytes = extra + records.iter().map(LogRecord::encoded_len).sum::<u64>();
        let stamp = |start: u64| -> Vec<(u64, StampedRecord)> {
            let mut off = start;
            let stamp_one = |record: LogRecord| {
                off += record.encoded_len();
                let end = make_lsn(u, off);
                (
                    self.seq.fetch_add(1, Ordering::SeqCst),
                    StampedRecord { end, record },
                )
            };
            records.into_iter().map(stamp_one).collect()
        };
        let start = match self.mode {
            AppendMode::Mutex => {
                let mut buf = log.buf.lock();
                let start = log.reserve(bytes);
                buf.records.extend(stamp(start));
                log.published.store(start + bytes, Ordering::Release);
                start
            }
            AppendMode::Lockfree => {
                let start = log.reserve(bytes);
                let records = stamp(start);
                log.publish(Reservation {
                    start,
                    end: start + bytes,
                    records,
                });
                start
            }
        };
        self.reserve_hist.record(now_nanos() - t0);
        start..start + bytes
    }

    /// The baton: the blocking flush lock on the mutex path, a try-lock on
    /// the lockfree one (the loser parks instead of queueing).
    fn baton<'a>(&self, log: &'a LogUnit) -> Option<MutexGuard<'a, ()>> {
        match self.mode {
            AppendMode::Mutex => Some(log.baton.lock()),
            AppendMode::Lockfree => log.baton.try_lock(),
        }
    }

    /// The only wait: until `done()` holds, take the baton and run
    /// `round`, else park for one round, and retry. Returns the ns spent
    /// in this caller's own rounds, or `None` if it ran none.
    fn wait_until(&self, log: &LogUnit, done: impl Fn() -> bool, round: impl Fn()) -> Option<u64> {
        let mut own = None;
        while !done() {
            match self.baton(log) {
                Some(_baton) if !done() => {
                    let t0 = now_nanos();
                    round();
                    *own.get_or_insert(0) += now_nanos() - t0;
                }
                Some(_) => {}
                None => log.park_round(&done),
            }
        }
        own
    }

    /// Make log `u` durable through offset `end` (group commit). Returns
    /// the ns this caller spent in flush rounds of its own.
    pub fn wait_flushed(&self, u: usize, end: u64) -> u64 {
        let log = &self.units[u];
        let mut own = None;
        if log.flushed() < end {
            log.acks_pending.fetch_add(1, Ordering::SeqCst);
            own = self.wait_until(log, || log.flushed() >= end, || self.flush_round(log));
        }
        if own.is_none() {
            self.group_commits.fetch_add(1, Ordering::Relaxed);
        }
        own.unwrap_or(0)
    }

    /// Write log `u` into the device cache through offset `end` (no fsync).
    pub fn wait_written(&self, u: usize, end: u64) {
        let log = &self.units[u];
        let round = || {
            self.write_round(log);
            log.wake_all();
        };
        self.wait_until(log, || log.written() >= end, round);
    }

    /// Wait until log `u` has closed a flush round at epoch `e` or later.
    pub fn wait_epoch(&self, u: usize, e: u64) {
        let log = &self.units[u];
        self.wait_until(log, || log.flushed_epoch() >= e, || self.flush_round(log));
    }

    /// One round on every log (background flusher, `flush_now`).
    pub fn flush_all(&self) {
        for log in &self.units {
            let _baton = log.baton.lock();
            self.flush_round(log);
        }
    }

    /// Requires the baton: drain, then write `published − written`.
    fn write_round(&self, log: &LogUnit) {
        log.drain();
        let (from, to) = (log.written(), log.published());
        if to > from {
            self.model.write(log, from, to);
            self.written
                .fetch_add(self.model.units(to - from), Ordering::Relaxed);
            log.written.store(to, Ordering::SeqCst);
        }
    }

    /// Requires the baton. One full flush round: write, fsync anything
    /// new, account the batch, close an epoch, wake parked committers.
    fn flush_round(&self, log: &LogUnit) {
        self.write_round(log);
        let (flushed, target) = (log.flushed(), log.written());
        // A clean round needs no fsync, but the log is provably caught up
        // with every epoch closed before this point.
        let mut epoch = self.epoch();
        if flushed < target {
            self.batch_hist.record(self.model.units(target - flushed));
            let t0 = now_nanos();
            self.model.sync(log);
            let dur = now_nanos() - t0;
            if let Some((profiler, site)) = &self.fsync_probe {
                profiler.add_event(*site, t0, dur);
            }
            self.fsync_hist.record(dur);
            self.flushes.fetch_add(1, Ordering::Relaxed);
            log.flushed.store(target, Ordering::SeqCst);
            let acked = log.acks_pending.swap(0, Ordering::SeqCst);
            if acked > 0 {
                self.group_batch_hist.record(acked);
            }
            // Every fsync closes a global epoch; this log is caught up to
            // the epoch it just closed.
            epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        }
        log.flushed_epoch.fetch_max(epoch, Ordering::SeqCst);
        log.wake_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lsn;
    use tpd_common::dist::ServiceTime;
    use tpd_common::{DiskConfig, SimDisk};

    fn unit() -> LogUnit {
        let disk = SimDisk::new(DiskConfig {
            service: ServiceTime::Fixed(0),
            ns_per_byte: 0.0,
            seed: 1,
        });
        LogUnit::new(0, Arc::new(disk))
    }

    fn empty(start: u64, len: u64) -> Reservation {
        Reservation {
            start,
            end: start + len,
            records: vec![],
        }
    }

    #[test]
    fn lsn_striping_roundtrips_and_is_identity_for_stripe_zero() {
        let l = make_lsn(0, 1234);
        assert_eq!(l, Lsn(1234), "stripe 0 LSNs are raw offsets");
        assert_eq!(stripe_of(l), 0);
        assert_eq!(offset_of(l), 1234);
        let l2 = make_lsn(3, 77);
        assert_eq!(stripe_of(l2), 3);
        assert_eq!(offset_of(l2), 77);
        assert!(l2 > make_lsn(2, u64::MAX >> 9), "stripe dominates ordering");
    }

    #[test]
    fn reservations_are_disjoint_and_watermark_advances_in_order() {
        let s = unit();
        let a = s.reserve(10);
        let b = s.reserve(20);
        assert_eq!((a, b), (0, 10));
        // Publish out of order: b first, then a. The watermark must wait
        // for a before covering b.
        s.publish(empty(b, 20));
        s.drain();
        assert_eq!(s.published(), 0, "gap at [0,10) blocks the watermark");
        s.publish(empty(a, 10));
        s.drain();
        assert_eq!(s.published(), 30, "contiguous prefix lands at once");
    }

    #[test]
    fn records_are_retained_in_lsn_order_despite_publish_order() {
        let s = unit();
        let a = s.reserve(16);
        let b = s.reserve(16);
        let rec = |seq: u64, end: u64, txn: u64| {
            (
                seq,
                StampedRecord {
                    end: Lsn(end),
                    record: LogRecord::Commit { txn },
                },
            )
        };
        s.publish(Reservation {
            start: b,
            end: b + 16,
            records: vec![rec(1, 32, 2)],
        });
        s.publish(Reservation {
            start: a,
            end: a + 16,
            records: vec![rec(0, 16, 1)],
        });
        s.with_records(|rs| {
            let txns: Vec<u64> = rs.iter().filter_map(|(_, r)| r.record.txn()).collect();
            assert_eq!(txns, vec![1, 2], "retained in LSN order");
        });
    }

    #[test]
    fn ring_wraps_without_losing_publishes() {
        let s = unit();
        let total = RING_SLOTS * 3 + 17;
        for _ in 0..total {
            let start = s.reserve(8);
            s.publish(empty(start, 8));
        }
        s.drain();
        assert_eq!(s.published(), total as u64 * 8);
    }

    #[test]
    fn concurrent_publishes_tile_the_space() {
        let s = Arc::new(unit());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let s = s.clone();
                scope.spawn(move || {
                    for _ in 0..500 {
                        let start = s.reserve(8);
                        s.publish(empty(start, 8));
                    }
                });
            }
        });
        s.drain();
        assert_eq!(s.published(), 8 * 500 * 8);
        assert_eq!(s.cursors().0, s.published());
    }
}
