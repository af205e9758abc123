//! The catalog and row store.
//!
//! Committed row values live in an ordered in-memory store per table (the
//! buffer pool is the *timing* model for page residency; the store is the
//! *content* model). Keys map deterministically onto data pages
//! (`rows_per_page` per page), and each table's B-tree depth is derived
//! from its size and the configured fanout, so index descents touch the
//! right number of (pool-resident) index pages.
//!
//! Each record is a small version chain (newest first). Under strict 2PL
//! the chain never grows past one entry and the legacy [`TableInfo::get`] /
//! [`TableInfo::put`] surface behaves exactly as a plain map. Under the
//! `mvcc` concurrency mode writers push tentative versions that the commit
//! path stamps with a commit timestamp, and snapshot readers walk the
//! chain for the newest version at or below their begin timestamp — see
//! DESIGN.md §13 for the visibility rule and the GC low-water mark.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use tpd_storage::PageId;

use crate::types::{Row, RowKey, TableId};

/// Stamp marking a version whose writer has not committed yet; larger than
/// any real commit timestamp, so the uniform "newest stamp ≤ snapshot"
/// walk skips it without a special case.
const TENTATIVE: u64 = u64::MAX;

/// One entry in a record's version chain.
#[derive(Debug, Clone)]
struct Version {
    /// Commit timestamp, or [`TENTATIVE`] while the writer is in flight.
    stamp: u64,
    row: Row,
}

/// A record: its version chain, newest first. `versions[0]` is the current
/// value (possibly tentative); older committed versions follow in
/// descending stamp order.
#[derive(Debug)]
struct VersionedRow {
    versions: Vec<Version>,
    /// Transaction id holding the tentative `versions[0]`, or 0. The
    /// record X lock makes at most one writer possible.
    writer: u64,
    /// The chain cap forced out history: readers whose snapshot predates
    /// the oldest retained version get `SnapshotTooOld` instead of
    /// silently missing the record.
    capped: bool,
}

impl VersionedRow {
    fn committed(row: Row, stamp: u64) -> Self {
        VersionedRow {
            versions: vec![Version { stamp, row }],
            writer: 0,
            capped: false,
        }
    }
}

/// Outcome of a snapshot read against one record's version chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VersionRead {
    /// The visible version (the reader's own tentative write, or the
    /// newest committed version at or below the snapshot).
    Visible(Row),
    /// No version is visible at this snapshot: the record was created
    /// after the snapshot, or never existed.
    NotVisible,
    /// The chain was capped past this snapshot's horizon; the reader must
    /// abort with `SnapshotTooOld`.
    TooOld,
}

/// Static information about one table.
#[derive(Debug)]
pub struct TableInfo {
    /// Table id.
    pub id: TableId,
    /// Table name.
    pub name: String,
    /// Rows stored per data page.
    pub rows_per_page: u64,
    rows: RwLock<BTreeMap<RowKey, VersionedRow>>,
    next_key: AtomicU64,
}

impl TableInfo {
    /// Number of rows currently in the table.
    pub fn len(&self) -> usize {
        self.rows.read().len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.read().is_empty()
    }

    /// Read the current (newest) version of a row. Under 2PL the record
    /// lock guarantees this is the committed value; mvcc writers holding
    /// the X lock see their own tentative write here.
    pub fn get(&self, key: RowKey) -> Option<Row> {
        self.rows
            .read()
            .get(&key)
            .map(|v| v.versions[0].row.clone())
    }

    /// Install or replace a row value in place as a single committed
    /// version (caller must hold the record X lock). This is the 2PL write
    /// path and the bootstrap/recovery/checkpoint-restore store; it never
    /// grows a chain.
    pub fn put(&self, key: RowKey, row: Row) {
        let mut rows = self.rows.write();
        rows.insert(key, VersionedRow::committed(row, 0));
        // Keep the allocator ahead of explicit keys.
        let next = self.next_key.load(Ordering::Relaxed);
        if key >= next {
            self.next_key.store(key + 1, Ordering::Relaxed);
        }
    }

    /// Remove a row (abort path for inserts).
    pub fn remove(&self, key: RowKey) -> Option<Row> {
        self.rows
            .write()
            .remove(&key)
            .map(|mut v| v.versions.swap_remove(0).row)
    }

    /// Install a tentative write for `txn` (mvcc write path; caller holds
    /// the record X lock). The first write to a record pushes a new
    /// tentative version in front of the committed chain; repeat writes by
    /// the same transaction overwrite it in place. A missing record is
    /// created with a single tentative version (insert path). Returns
    /// whether this was the transaction's first write to the record — the
    /// caller tracks first-writes for commit stamping and abort.
    pub fn write_version(&self, key: RowKey, row: Row, txn: u64) -> bool {
        let mut rows = self.rows.write();
        match rows.get_mut(&key) {
            Some(rec) => {
                if rec.writer == txn {
                    rec.versions[0].row = row;
                    false
                } else {
                    debug_assert_eq!(rec.writer, 0, "two writers under one X lock");
                    rec.versions.insert(
                        0,
                        Version {
                            stamp: TENTATIVE,
                            row,
                        },
                    );
                    rec.writer = txn;
                    true
                }
            }
            None => {
                let mut rec = VersionedRow::committed(row, TENTATIVE);
                rec.writer = txn;
                rows.insert(key, rec);
                let next = self.next_key.load(Ordering::Relaxed);
                if key >= next {
                    self.next_key.store(key + 1, Ordering::Relaxed);
                }
                true
            }
        }
    }

    /// Commit `txn`'s tentative version of `key` at timestamp `ts`, then
    /// garbage-collect the chain: every version newer than `floor` (the
    /// oldest active snapshot) is kept, plus one at or below it; beyond
    /// that, `cap` bounds the chain and marks it capped. Returns the chain
    /// length after stamping (pre-GC) and how many versions GC reclaimed.
    pub fn commit_version(
        &self,
        key: RowKey,
        txn: u64,
        ts: u64,
        floor: u64,
        cap: usize,
    ) -> (usize, u64) {
        let mut rows = self.rows.write();
        let rec = rows.get_mut(&key).expect("committing a vanished record");
        debug_assert_eq!(rec.writer, txn, "committing someone else's write");
        rec.versions[0].stamp = ts;
        rec.writer = 0;
        let len = rec.versions.len();
        // Keep everything a live snapshot could still need: all versions
        // with stamp > floor, plus the first at or below floor.
        let keep = rec
            .versions
            .iter()
            .position(|v| v.stamp <= floor)
            .map(|i| i + 1)
            .unwrap_or(rec.versions.len());
        rec.versions.truncate(keep);
        if rec.versions.len() > cap.max(1) {
            rec.versions.truncate(cap.max(1));
            rec.capped = true;
        }
        (len, (len - rec.versions.len()) as u64)
    }

    /// Discard `txn`'s tentative version of `key` (mvcc abort path; caller
    /// still holds the record X lock). A record whose only version was the
    /// tentative one (an aborted insert) is removed entirely.
    pub fn abort_version(&self, key: RowKey, txn: u64) {
        let mut rows = self.rows.write();
        if let Some(rec) = rows.get_mut(&key) {
            if rec.writer != txn {
                return;
            }
            rec.versions.remove(0);
            rec.writer = 0;
            if rec.versions.is_empty() {
                rows.remove(&key);
            }
        }
    }

    /// Resolve `key` at `snapshot` for reader `txn` (mvcc read path — no
    /// record lock taken). The reader's own tentative write is visible;
    /// otherwise the newest committed version with stamp ≤ snapshot wins
    /// (a tentative stamp is `u64::MAX`, so foreign in-flight writes are
    /// skipped by the same comparison).
    pub fn read_version(&self, key: RowKey, snapshot: u64, txn: u64) -> VersionRead {
        let rows = self.rows.read();
        let Some(rec) = rows.get(&key) else {
            return VersionRead::NotVisible;
        };
        if rec.writer == txn {
            return VersionRead::Visible(rec.versions[0].row.clone());
        }
        for v in &rec.versions {
            if v.stamp <= snapshot {
                return VersionRead::Visible(v.row.clone());
            }
        }
        if rec.capped {
            VersionRead::TooOld
        } else {
            VersionRead::NotVisible
        }
    }

    /// Current chain length of `key` (diagnostics/tests).
    pub fn chain_len(&self, key: RowKey) -> usize {
        self.rows.read().get(&key).map_or(0, |v| v.versions.len())
    }

    /// Allocate the next row key for an insert.
    pub fn allocate_key(&self) -> RowKey {
        self.next_key.fetch_add(1, Ordering::Relaxed)
    }

    /// The next key [`TableInfo::allocate_key`] would hand out.
    pub fn next_key_hint(&self) -> RowKey {
        self.next_key.load(Ordering::Relaxed)
    }

    /// Raise the key allocator to at least `at_least` (checkpoint restore:
    /// the allocator may sit past the highest stored key when inserts were
    /// rolled back).
    pub fn ensure_next_key(&self, at_least: RowKey) {
        self.next_key.fetch_max(at_least, Ordering::Relaxed);
    }

    /// Keys in `[lo, hi)`, up to `limit`.
    pub fn range_keys(&self, lo: RowKey, hi: RowKey, limit: usize) -> Vec<RowKey> {
        self.rows
            .read()
            .range(lo..hi)
            .take(limit)
            .map(|(k, _)| *k)
            .collect()
    }

    /// The data page holding `key`.
    pub fn data_page(&self, key: RowKey) -> PageId {
        PageId(((self.id.0 as u64) << 40) | (key / self.rows_per_page))
    }

    /// The index page touched at `level` while descending to `key`
    /// (level 0 = root; pages coalesce by key range as depth grows).
    pub fn index_page(&self, key: RowKey, level: u32, fanout: u64) -> PageId {
        // Root covers everything; each level partitions the key space.
        let span = self
            .rows_per_page
            .saturating_mul(fanout.saturating_pow(level));
        let bucket = if span == 0 { 0 } else { key / span.max(1) };
        PageId(((self.id.0 as u64) << 40) | (1 << 39) | ((level as u64) << 32) | bucket)
    }

    /// B-tree depth implied by current size and `fanout`: number of levels
    /// to descend (≥ 1 for nonempty tables).
    pub fn index_depth(&self, fanout: u64) -> u32 {
        let pages = (self.len() as u64 / self.rows_per_page.max(1)).max(1);
        let mut depth = 1;
        let mut reach = fanout;
        while reach < pages {
            depth += 1;
            reach = reach.saturating_mul(fanout);
        }
        depth
    }
}

/// The set of tables.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<Vec<std::sync::Arc<TableInfo>>>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a table; names are for diagnostics and need not be unique.
    pub fn create_table(&self, name: &str, rows_per_page: u64) -> TableId {
        assert!(rows_per_page > 0);
        let mut tables = self.tables.write();
        let id = TableId(u32::try_from(tables.len()).expect("too many tables"));
        tables.push(std::sync::Arc::new(TableInfo {
            id,
            name: name.to_string(),
            rows_per_page,
            rows: RwLock::new(BTreeMap::new()),
            next_key: AtomicU64::new(0),
        }));
        id
    }

    /// Get a table handle.
    pub fn table(&self, id: TableId) -> std::sync::Arc<TableInfo> {
        self.tables.read()[id.0 as usize].clone()
    }

    /// Get a table handle, or `None` for an id no table has.
    pub fn get(&self, id: TableId) -> Option<std::sync::Arc<TableInfo>> {
        self.tables.read().get(id.0 as usize).cloned()
    }

    /// Find a table by name.
    pub fn table_by_name(&self, name: &str) -> Option<std::sync::Arc<TableInfo>> {
        self.tables.read().iter().find(|t| t.name == name).cloned()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.read().len()
    }

    /// Whether there are no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup() {
        let c = Catalog::new();
        let t = c.create_table("warehouse", 16);
        assert_eq!(t, TableId(0));
        assert_eq!(c.table(t).name, "warehouse");
        assert!(c.table_by_name("warehouse").is_some());
        assert!(c.table_by_name("nope").is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let c = Catalog::new();
        let t = c.table(c.create_table("t", 16));
        assert!(t.get(5).is_none());
        t.put(5, vec![1, 2]);
        assert_eq!(t.get(5), Some(vec![1, 2]));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(5), Some(vec![1, 2]));
        assert!(t.is_empty());
    }

    #[test]
    fn key_allocation_skips_explicit_keys() {
        let c = Catalog::new();
        let t = c.table(c.create_table("t", 16));
        t.put(100, vec![0]);
        let k = t.allocate_key();
        assert!(k > 100, "allocator moved past explicit key: {k}");
        let k2 = t.allocate_key();
        assert_eq!(k2, k + 1);
    }

    #[test]
    fn page_mapping_is_stable_and_distinct() {
        let c = Catalog::new();
        let t0 = c.table(c.create_table("a", 4));
        let t1 = c.table(c.create_table("b", 4));
        assert_eq!(t0.data_page(0), t0.data_page(3));
        assert_ne!(t0.data_page(3), t0.data_page(4));
        assert_ne!(t0.data_page(0), t1.data_page(0), "tables do not collide");
        // Index pages are distinct from data pages.
        assert_ne!(t0.index_page(0, 0, 64), t0.data_page(0));
    }

    #[test]
    fn index_depth_grows_with_size() {
        let c = Catalog::new();
        let t = c.table(c.create_table("t", 1));
        assert_eq!(t.index_depth(4), 1);
        for k in 0..64 {
            t.put(k, vec![0]);
        }
        // 64 pages at fanout 4: 4^1 < 64 <= 4^3 → depth 3.
        assert_eq!(t.index_depth(4), 3);
    }

    #[test]
    fn version_chain_visibility_and_commit() {
        let c = Catalog::new();
        let t = c.table(c.create_table("t", 16));
        t.put(1, vec![10]);
        // Writer 7 installs a tentative version.
        assert!(t.write_version(1, vec![11], 7));
        assert!(!t.write_version(1, vec![12], 7), "repeat write in place");
        assert_eq!(t.chain_len(1), 2);
        // Own write visible; foreign snapshot sees the committed base.
        assert_eq!(t.read_version(1, 0, 7), VersionRead::Visible(vec![12]));
        assert_eq!(t.read_version(1, 5, 9), VersionRead::Visible(vec![10]));
        // Commit at ts 3 with no snapshot older than 3 pinned: the chain
        // collapses to the new version (floor-GC reclaims the base).
        let (len, reclaimed) = t.commit_version(1, 7, 3, 3, 16);
        assert_eq!((len, reclaimed), (2, 1));
        assert_eq!(t.chain_len(1), 1);
        assert_eq!(t.read_version(1, 3, 9), VersionRead::Visible(vec![12]));
    }

    #[test]
    fn version_chain_floor_retention_and_abort() {
        let c = Catalog::new();
        let t = c.table(c.create_table("t", 16));
        t.put(1, vec![0]);
        // Three commits while a snapshot at ts 0 stays pinned (floor 0).
        for ts in 1..=3u64 {
            t.write_version(1, vec![ts as i64], ts);
            t.commit_version(1, ts, ts, 0, 16);
        }
        assert_eq!(t.chain_len(1), 4, "floor retains history");
        assert_eq!(t.read_version(1, 0, 99), VersionRead::Visible(vec![0]));
        assert_eq!(t.read_version(1, 2, 99), VersionRead::Visible(vec![2]));
        // Aborted write leaves the chain untouched.
        t.write_version(1, vec![77], 50);
        t.abort_version(1, 50);
        assert_eq!(t.read_version(1, 3, 99), VersionRead::Visible(vec![3]));
        // Aborted insert removes the record.
        t.write_version(9, vec![9], 51);
        t.abort_version(9, 51);
        assert!(t.get(9).is_none());
    }

    #[test]
    fn capped_chain_reports_too_old() {
        let c = Catalog::new();
        let t = c.table(c.create_table("t", 16));
        t.put(1, vec![0]);
        // Floor stuck at 0 but cap 2: history is force-dropped.
        for ts in 1..=5u64 {
            t.write_version(1, vec![ts as i64], ts);
            t.commit_version(1, ts, ts, 0, 2);
        }
        assert_eq!(t.chain_len(1), 2);
        assert_eq!(t.read_version(1, 0, 99), VersionRead::TooOld);
        assert_eq!(t.read_version(1, 5, 99), VersionRead::Visible(vec![5]));
    }

    #[test]
    fn range_keys_respects_bounds_and_limit() {
        let c = Catalog::new();
        let t = c.table(c.create_table("t", 16));
        for k in 0..20 {
            t.put(k, vec![k as i64]);
        }
        assert_eq!(t.range_keys(5, 10, 100), vec![5, 6, 7, 8, 9]);
        assert_eq!(t.range_keys(5, 10, 2), vec![5, 6]);
        assert!(t.range_keys(50, 60, 10).is_empty());
    }
}
