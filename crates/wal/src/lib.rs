//! Write-ahead logging substrates (the paper's Sections 4.1, 4.2, 6.2, 7.5
//! and Appendix B).
//!
//! Two personalities, matching the two engines the paper tuned:
//!
//! * [`mysql::RedoLog`] — InnoDB-style redo with the three
//!   `innodb_flush_log_at_trx_commit` policies: **eager flush** (write +
//!   fsync on the commit path — the `fil_flush` variance source of
//!   Table 1), **lazy flush** (write on commit, background fsync), and
//!   **lazy write** (both deferred to the background flusher).
//! * [`pg::WalWriter`] — Postgres-style WAL where commits serialize on a
//!   single global `WALWriteLock` (`LWLockAcquireOrWait`, 76.8% of
//!   Postgres's latency variance in Table 2), with block-size-dependent
//!   flush costs and the paper's **parallel logging** fix (two log sets on
//!   two devices; a transaction only waits when both are busy, and then on
//!   the one with fewer waiters).
//!
//! Both run on one log core, [`lockfree`]: it owns the append path (the
//! paper's mutex baseline and the reserve-then-copy ring, see
//! [`AppendMode`]), the only durability wait and the only flush round,
//! with the accounting they share. Each personality hands the core a flush
//! model — how a write and an fsync reach its device — and keeps only what
//! differs: mysql its flush policies, striping, epoch-ordered acks and
//! crash snapshot; pg its padded block writes and set choice rule.
//! [`segment`] is the real on-disk format behind `disk_backend = file`.

pub mod fault;
pub mod lockfree;
pub mod mysql;
pub mod pg;
pub mod record;
pub mod segment;

pub use fault::WalFaultPlan;
pub use lockfree::AppendMode;
pub use mysql::{FlushPolicy, MysqlWalProbes, RedoLog, RedoLogConfig, RedoStats};
pub use pg::{PgWalProbes, WalWriter, WalWriterConfig, WalWriterStats};
pub use record::{committed_txns, durable_prefix, LogRecord, StampedRecord};
pub use segment::{CheckpointData, CheckpointTable, CrashPhase, FileWal, RecoveredLog};

/// A log sequence number (logical byte offset in the redo stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

impl std::fmt::Display for Lsn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsn_orders_and_displays() {
        assert!(Lsn(1) < Lsn(2));
        assert_eq!(Lsn(7).to_string(), "lsn:7");
        assert_eq!(Lsn::default(), Lsn(0));
    }
}
