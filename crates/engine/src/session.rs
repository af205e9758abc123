//! A connection-owned transaction handle.
//!
//! [`Txn`] is a scoped, by-value API: `commit(self)` consumes it and the
//! borrow checker ties it to one stack frame. A network front end needs
//! the opposite shape — a long-lived object that a connection thread owns
//! across many request frames, where "is a transaction open" is runtime
//! state. [`Session`] is that wrapper: a state machine over `Option<Txn>`
//! with typed errors for out-of-order operations, and the guarantee that
//! dropping the session (connection death, server shutdown) rolls back
//! any open transaction and releases every lock — the engine side of the
//! "a killed client must not leak lock-queue entries" contract.

use std::sync::Arc;

use crate::engine::{Engine, Txn};
use crate::types::{EngineError, Row, RowKey, TableId, TxnType};

/// Errors from the session state machine (wrapping engine errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// A statement or commit/abort arrived with no open transaction.
    NoActiveTxn,
    /// BEGIN arrived while a transaction was already open.
    TxnAlreadyActive,
    /// The engine failed the operation. For [`EngineError::Deadlock`],
    /// [`EngineError::LockTimeout`], and [`EngineError::SnapshotTooOld`]
    /// the transaction has already been rolled back and the session is
    /// back in the idle state.
    Engine(EngineError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NoActiveTxn => f.write_str("no open transaction"),
            SessionError::TxnAlreadyActive => f.write_str("transaction already open"),
            SessionError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<EngineError> for SessionError {
    fn from(e: EngineError) -> Self {
        SessionError::Engine(e)
    }
}

/// A long-lived per-connection handle owning at most one open [`Txn`].
///
/// Each statement runs on the calling thread, and the engine's profiler
/// attributes spans thread-locally, so a profiled transaction must stay
/// on one thread from BEGIN to its end. The thread-per-connection server
/// upholds this by construction. The evented server does not: one
/// transaction's frames alternate between the reactor (frames that
/// cannot wait) and pool workers (frames that may), which is why it
/// refuses an engine whose profiler is collecting.
#[derive(Debug)]
pub struct Session {
    engine: Arc<Engine>,
    txn: Option<Txn>,
}

impl Session {
    /// A new idle session on `engine`.
    pub fn new(engine: Arc<Engine>) -> Self {
        Session { engine, txn: None }
    }

    /// The engine this session executes against.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Whether a transaction is open.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// The open transaction's id, if any.
    pub fn txn_id(&self) -> Option<u64> {
        self.txn.as_ref().map(|t| t.id())
    }

    /// Whether [`Session::read`] of `(table, key)` cannot wait; see
    /// [`Txn::read_never_waits`]. False with no open transaction.
    pub fn read_never_waits(&self, table: TableId, key: RowKey) -> bool {
        self.txn
            .as_ref()
            .is_some_and(|t| t.read_never_waits(table, key))
    }

    /// Whether [`Session::commit`] or [`Session::abort`] cannot wait; see
    /// [`Txn::commit_never_waits`]. False with no open transaction.
    pub fn commit_never_waits(&self) -> bool {
        self.txn.as_ref().is_some_and(Txn::commit_never_waits)
    }

    /// Open a transaction; errors if one is already open.
    pub fn begin(&mut self, ty: TxnType) -> Result<u64, SessionError> {
        if self.txn.is_some() {
            return Err(SessionError::TxnAlreadyActive);
        }
        let txn = self.engine.begin(ty);
        let id = txn.id();
        self.txn = Some(txn);
        Ok(id)
    }

    /// Run `op` on the open transaction, translating an abort-with-
    /// rollback (deadlock victim, lock timeout) into the idle state: the
    /// engine has already rolled the transaction back, so keeping the dead
    /// `Txn` would turn every later statement into `TxnFinished` noise.
    fn stmt<T>(
        &mut self,
        op: impl FnOnce(&mut Txn) -> Result<T, EngineError>,
    ) -> Result<T, SessionError> {
        let txn = self.txn.as_mut().ok_or(SessionError::NoActiveTxn)?;
        match op(txn) {
            Ok(v) => Ok(v),
            Err(
                e
                @ (EngineError::Deadlock | EngineError::LockTimeout | EngineError::SnapshotTooOld),
            ) => {
                // The engine already rolled back (and, under mvcc, unpinned
                // the snapshot); drop the dead Txn so the session is idle.
                self.txn = None;
                Err(SessionError::Engine(e))
            }
            Err(other) => Err(SessionError::Engine(other)),
        }
    }

    /// Read a row under a shared lock.
    pub fn read(&mut self, table: TableId, key: RowKey) -> Result<Row, SessionError> {
        self.stmt(|t| t.read(table, key))
    }

    /// Overwrite a row under an exclusive lock.
    pub fn update_row(
        &mut self,
        table: TableId,
        key: RowKey,
        row: Row,
    ) -> Result<(), SessionError> {
        self.stmt(|t| t.update(table, key, |r| *r = row))
    }

    /// Insert a row; returns the assigned key.
    pub fn insert(&mut self, table: TableId, row: Row) -> Result<RowKey, SessionError> {
        self.stmt(|t| t.insert(table, row))
    }

    /// Commit the open transaction.
    pub fn commit(&mut self) -> Result<(), SessionError> {
        let txn = self.txn.take().ok_or(SessionError::NoActiveTxn)?;
        txn.commit().map_err(SessionError::Engine)
    }

    /// Roll back the open transaction.
    pub fn abort(&mut self) -> Result<(), SessionError> {
        let txn = self.txn.take().ok_or(SessionError::NoActiveTxn)?;
        txn.abort();
        Ok(())
    }

    /// Roll back any open transaction (idempotent); the explicit form of
    /// what dropping the session does.
    pub fn reset(&mut self) {
        if let Some(txn) = self.txn.take() {
            txn.abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use tpd_common::dist::ServiceTime;
    use tpd_common::DiskConfig;
    use tpd_core::{LockMode, ObjectId, Policy};

    fn engine_with_table() -> (Arc<Engine>, TableId) {
        let quick = DiskConfig {
            service: ServiceTime::Fixed(10_000),
            ns_per_byte: 0.0,
            seed: 11,
        };
        let e = Engine::new(EngineConfig {
            data_disk: quick.clone(),
            log_disks: vec![quick],
            ..EngineConfig::mysql(Policy::Fcfs)
        });
        let t = e.catalog().create_table("t", 16);
        {
            let mut setup = e.begin(0);
            for i in 0..20 {
                setup.insert(t, vec![i, 0]).expect("insert");
            }
            setup.commit().expect("setup");
        }
        (e, t)
    }

    #[test]
    fn state_machine_rejects_out_of_order_frames() {
        let (e, t) = engine_with_table();
        let mut s = Session::new(e);
        assert_eq!(s.read(t, 1).err(), Some(SessionError::NoActiveTxn));
        assert_eq!(s.commit().err(), Some(SessionError::NoActiveTxn));
        assert_eq!(s.abort().err(), Some(SessionError::NoActiveTxn));
        s.begin(0).expect("begin");
        assert_eq!(s.begin(0).err(), Some(SessionError::TxnAlreadyActive));
        s.commit().expect("commit");
        assert!(!s.in_txn());
    }

    #[test]
    fn statements_span_calls_and_commit_persists() {
        let (e, t) = engine_with_table();
        let mut s = Session::new(e.clone());
        s.begin(0).expect("begin");
        assert_eq!(s.read(t, 3).expect("read"), vec![3, 0]);
        s.update_row(t, 3, vec![3, 42]).expect("update");
        let key = s.insert(t, vec![99, 99]).expect("insert");
        s.commit().expect("commit");
        let mut check = e.begin(0);
        assert_eq!(check.read(t, 3).expect("reread"), vec![3, 42]);
        assert_eq!(check.read(t, key).expect("inserted"), vec![99, 99]);
        check.commit().expect("check commit");
    }

    #[test]
    fn drop_mid_txn_rolls_back_and_releases_locks() {
        let (e, t) = engine_with_table();
        let obj = ObjectId::new(t.0 + 1, 5);
        {
            let mut s = Session::new(e.clone());
            s.begin(0).expect("begin");
            s.update_row(t, 5, vec![5, 77]).expect("update");
            assert_eq!(e.locks().granted_count(obj), 1, "X lock held");
            // Session dropped here — the connection died.
        }
        assert_eq!(e.locks().granted_count(obj), 0, "lock released on drop");
        assert_eq!(e.locks().outstanding(), (0, 0), "lock table fully clean");
        assert_eq!(e.active_snapshots(), 0, "no pinned snapshots under s2pl");
        assert_eq!(e.stats().aborts, 1);
        let mut check = e.begin(0);
        assert_eq!(check.read(t, 5).expect("read"), vec![5, 0], "rolled back");
        check.commit().expect("commit");
    }

    #[test]
    fn deadlock_resets_session_to_idle() {
        let (e, t) = engine_with_table();
        // Session A locks 1 then wants 2; raw txn B locks 2 then wants 1.
        let mut a = Session::new(e.clone());
        a.begin(0).expect("begin");
        a.update_row(t, 1, vec![1, 1]).expect("lock 1");
        let e2 = e.clone();
        let h = std::thread::spawn(move || {
            let mut b = Session::new(e2);
            b.begin(0).expect("begin");
            b.update_row(t, 2, vec![2, 2]).expect("lock 2");
            // One side will deadlock; either outcome leaves both sessions
            // consistent.
            let r = b.update_row(t, 1, vec![1, 9]);
            match r {
                Ok(()) => {
                    assert!(b.in_txn());
                    b.commit().expect("commit");
                }
                Err(SessionError::Engine(EngineError::Deadlock | EngineError::LockTimeout)) => {
                    assert!(!b.in_txn(), "victim session is idle again");
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        });
        // Give B time to grab 2, then collide.
        std::thread::sleep(std::time::Duration::from_millis(5));
        match a.update_row(t, 2, vec![2, 9]) {
            Ok(()) => a.commit().expect("commit"),
            Err(SessionError::Engine(EngineError::Deadlock | EngineError::LockTimeout)) => {
                assert!(!a.in_txn(), "victim session is idle again");
                // Idle session is immediately reusable.
                a.begin(0).expect("fresh begin");
                a.commit().expect("empty commit");
            }
            Err(other) => panic!("unexpected {other:?}"),
        }
        h.join().expect("worker");
        assert_eq!(e.locks().outstanding(), (0, 0), "no leaked entries");
    }

    #[test]
    fn mvcc_session_exit_paths_unpin_snapshots() {
        let quick = DiskConfig {
            service: ServiceTime::Fixed(10_000),
            ns_per_byte: 0.0,
            seed: 11,
        };
        let e = Engine::new(EngineConfig {
            data_disk: quick.clone(),
            log_disks: vec![quick],
            concurrency: crate::config::Concurrency::Mvcc,
            ..EngineConfig::mysql(Policy::Fcfs)
        });
        let t = e.catalog().create_table("t", 16);
        {
            let mut setup = e.begin(0);
            for i in 0..8 {
                setup.insert(t, vec![i, 0]).expect("insert");
            }
            setup.commit().expect("setup");
        }
        assert_eq!(e.active_snapshots(), 0);
        // Commit path unpins.
        let mut s = Session::new(e.clone());
        s.begin(0).expect("begin");
        assert_eq!(e.active_snapshots(), 1, "begin pins a snapshot");
        s.update_row(t, 3, vec![3, 1]).expect("update");
        s.commit().expect("commit");
        assert_eq!(e.active_snapshots(), 0, "commit unpins");
        // Abort path unpins.
        s.begin(0).expect("begin");
        s.update_row(t, 3, vec![3, 2]).expect("update");
        s.abort().expect("abort");
        assert_eq!(e.active_snapshots(), 0, "abort unpins");
        // Drop mid-transaction (connection death) unpins — the GC
        // low-water-mark leak this audit exists to catch.
        {
            let mut dead = Session::new(e.clone());
            dead.begin(0).expect("begin");
            dead.update_row(t, 3, vec![3, 9]).expect("update");
        }
        assert_eq!(e.active_snapshots(), 0, "session drop unpins");
        assert_eq!(e.locks().outstanding(), (0, 0), "no leaked locks either");
        let mut check = Session::new(e.clone());
        check.begin(0).expect("begin");
        assert_eq!(check.read(t, 3).expect("read"), vec![3, 1], "rolled back");
        check.commit().expect("commit");
    }

    #[test]
    fn row_not_found_keeps_txn_open() {
        let (e, t) = engine_with_table();
        let mut s = Session::new(e);
        s.begin(0).expect("begin");
        assert_eq!(
            s.read(t, 9999).err(),
            Some(SessionError::Engine(EngineError::RowNotFound {
                table: t,
                key: 9999
            }))
        );
        assert!(s.in_txn(), "txn survives a missing row");
        assert!(s.read(t, 1).is_ok());
        s.commit().expect("commit");
    }

    #[test]
    fn sessions_hold_x_locks_across_calls() {
        let (e, t) = engine_with_table();
        let held = ObjectId::new(t.0 + 1, 7);
        let mut s = Session::new(e.clone());
        s.begin(0).expect("begin");
        s.update_row(t, 7, vec![7, 1]).expect("update");
        assert_eq!(
            e.locks()
                .held_mode(tpd_core::TxnId(s.txn_id().expect("id")), held),
            Some(LockMode::X),
            "lock survives between session calls"
        );
        s.commit().expect("commit");
        assert_eq!(e.locks().granted_count(held), 0);
    }
}
