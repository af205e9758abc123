//! The load generator: a shared open-loop (or closed-loop) schedule over a
//! few worker threads, each with a spec stream of its own, the wire client
//! with its spans, and the engine-only replay of the same specs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpd_engine::{Engine, EngineError, Row};
use tpd_server::wire_tatp::{txn_type, AI_PER_SUB, SF_PER_SUB};
use tpd_server::{BeginOutcome, ClientError, Conn, Outcome, WireSpec, WireTatp};
use tpd_workloads::{Tatp, TxnSpec, Workload as _};

/// Run `n` jobs on one thread per worker. Job `i` is due at
/// `start + i / rate`; with `rate` of `None` a job is due as soon as a
/// thread is free (closed loop).
/// Each worker pulls the next index from one shared cursor, so a stalled
/// worker leaves its share to the others and later jobs queue behind it.
/// Returns the time from start until the last worker finished.
pub fn run_schedule<W: Send>(
    workers: &mut [W],
    n: usize,
    rate: Option<f64>,
    job: impl Fn(&mut W, Due) + Sync,
) -> Duration {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in workers.iter_mut() {
            let (cursor, job) = (&cursor, &job);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let due = match rate {
                    Some(r) => {
                        let at = start + Duration::from_secs_f64(i as f64 / r);
                        let now = Instant::now();
                        let slept = at > now;
                        if slept {
                            std::thread::sleep(at - now);
                        }
                        Due { at, slept, seq: i }
                    }
                    None => Due {
                        at: Instant::now(),
                        slept: false,
                        seq: i,
                    },
                };
                job(w, due);
            });
        }
    });
    start.elapsed()
}

/// When a job was due, and whether its thread slept until then (so its
/// lateness is the timer's, not time spent waiting for a free thread).
#[derive(Debug, Clone, Copy)]
pub struct Due {
    pub at: Instant,
    pub slept: bool,
    /// Place in the phase's schedule.
    pub seq: usize,
}

/// How one issued transaction ended, from the client's side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    Committed,
    Aborted,
    Shed,
    /// Transport or protocol failure; the connection is abandoned.
    Error,
}

/// One issued transaction.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub ty: u8,
    pub end: End,
    /// From when it was due until its last reply.
    pub lat_ns: u64,
    /// From when it was due until its first request was sent.
    pub lag_ns: u64,
    /// From its first request until its last reply.
    pub svc_ns: u64,
    /// The thread slept until the due time, so `lag_ns` is timer lateness.
    pub slept: bool,
    /// Place in the phase's schedule.
    pub seq: usize,
}

/// The wire calls a traced run times; the index into [`Tally::spans`].
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Begin,
    Read,
    Update,
    Insert,
    Commit,
}

/// What one worker recorded in one phase.
#[derive(Debug, Default)]
pub struct Tally {
    pub samples: Vec<Sample>,
    /// Duration of each traced wire call, ns, by [`Op`] index.
    pub spans: [Vec<u64>; 5],
    /// Bytes of row images the committed transactions wrote.
    pub user_bytes: u64,
}

/// One benchmark connection.
pub struct Client {
    conn: Conn,
    wire: WireTatp,
    /// This connection's spec stream; it issues them in order, from the
    /// start again if a run outlasts the stream.
    specs: Arc<[WireSpec]>,
    next: usize,
    /// Time each wire call (a traced run).
    pub trace: bool,
    /// Keep the rows committed writes stored, for the restart check.
    track_writes: bool,
    broken: bool,
    pending: Vec<(u32, u64, Row)>,
    pending_bytes: u64,
    /// The last row image this connection's acknowledged writes stored,
    /// by `(table, key)`.
    pub acked: HashMap<(u32, u64), Row>,
    pub tally: Tally,
}

impl Client {
    pub fn connect(
        addr: std::net::SocketAddr,
        wire: WireTatp,
        track_writes: bool,
        specs: Arc<[WireSpec]>,
    ) -> std::io::Result<Client> {
        Ok(Client {
            conn: Conn::connect(addr)?,
            wire,
            specs,
            next: 0,
            trace: false,
            track_writes,
            broken: false,
            pending: Vec::new(),
            pending_bytes: 0,
            acked: HashMap::new(),
            tally: Tally::default(),
        })
    }

    /// How many specs of its stream this connection has issued.
    pub fn position(&self) -> usize {
        self.next
    }

    /// Issue the next spec of the stream (due at `due`) and record the
    /// outcome.
    pub fn issue_next(&mut self, due: Due) {
        if self.broken {
            return;
        }
        let spec = self.specs[self.next % self.specs.len()];
        self.next += 1;
        let sent = Instant::now();
        let end = match self.execute(&spec) {
            Ok(Outcome::Committed) => End::Committed,
            Ok(Outcome::Aborted) => End::Aborted,
            Ok(Outcome::Shed) => End::Shed,
            Err(e) => {
                eprintln!("tatpbench: protocol error: {e}");
                self.broken = true;
                End::Error
            }
        };
        let done = Instant::now();
        if end == End::Committed {
            self.tally.user_bytes += self.pending_bytes;
            if self.track_writes {
                for (table, key, row) in self.pending.drain(..) {
                    self.acked.insert((table, key), row);
                }
            }
        }
        self.tally.samples.push(Sample {
            ty: spec.ty,
            end,
            lat_ns: nanos(done - due.at),
            lag_ns: nanos(sent.saturating_duration_since(due.at)),
            svc_ns: nanos(done - sent),
            slept: due.slept,
            seq: due.seq,
        });
    }

    fn span<T>(
        &mut self,
        op: Op,
        call: impl FnOnce(&mut Conn) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        if !self.trace {
            return call(&mut self.conn);
        }
        let t = Instant::now();
        let r = call(&mut self.conn);
        self.tally.spans[op as usize].push(nanos(t.elapsed()));
        r
    }

    fn read(&mut self, table: u32, key: u64) -> Result<Row, ClientError> {
        self.span(Op::Read, |c| c.read(table, key))
    }

    fn update(&mut self, table: u32, key: u64, row: Row) -> Result<(), ClientError> {
        self.pending_bytes += 8 * row.len() as u64;
        if self.track_writes {
            self.pending.push((table, key, row.clone()));
        }
        self.span(Op::Update, |c| c.update(table, key, row))
    }

    /// The TATP transactions as `WireTatp::execute` drives them, one wire
    /// call per statement, with a span around each call.
    fn execute(&mut self, spec: &WireSpec) -> Result<Outcome, ClientError> {
        use txn_type::*;
        self.pending.clear();
        self.pending_bytes = 0;
        match self.span(Op::Begin, |c| c.begin(spec.ty))? {
            BeginOutcome::Shed => return Ok(Outcome::Shed),
            BeginOutcome::Started { .. } => {}
        }
        let w = self.wire;
        let (s, sf, val) = (spec.s, spec.sf, spec.val);
        let body = (|| -> Result<(), ClientError> {
            match spec.ty {
                GET_SUBSCRIBER => {
                    self.read(w.subscriber, s)?;
                }
                GET_NEW_DEST => {
                    self.read(w.special_facility, s * SF_PER_SUB + sf)?;
                    self.read(w.call_forwarding, s * SF_PER_SUB + sf)?;
                }
                GET_ACCESS => {
                    self.read(w.access_info, s * AI_PER_SUB + (sf % AI_PER_SUB))?;
                }
                UPD_SUBSCRIBER => {
                    let mut row = self.read(w.subscriber, s)?;
                    if row.len() > 1 {
                        row[1] ^= 1;
                    }
                    self.update(w.subscriber, s, row)?;
                    let mut fac = self.read(w.special_facility, s * SF_PER_SUB + sf)?;
                    if fac.len() > 2 {
                        fac[2] = val;
                    }
                    self.update(w.special_facility, s * SF_PER_SUB + sf, fac)?;
                }
                UPD_LOCATION => {
                    let mut row = self.read(w.subscriber, s)?;
                    if row.len() > 3 {
                        row[3] = val;
                    }
                    self.update(w.subscriber, s, row)?;
                }
                INS_CALL_FWD => {
                    self.read(w.subscriber, s)?;
                    self.read(w.special_facility, s * SF_PER_SUB + sf)?;
                    let row = vec![s as i64, sf as i64, 1];
                    self.pending_bytes += 8 * row.len() as u64;
                    self.span(Op::Insert, |c| c.insert(w.call_forwarding, row))?;
                }
                DEL_CALL_FWD => {
                    let mut row = self.read(w.call_forwarding, s * SF_PER_SUB + sf)?;
                    if row.len() > 2 {
                        row[2] = 0;
                    }
                    self.update(w.call_forwarding, s * SF_PER_SUB + sf, row)?;
                }
                other => panic!("unknown TATP txn type {other}"),
            }
            Ok(())
        })();
        match body {
            Ok(()) => {
                self.span(Op::Commit, |c| c.commit())?;
                Ok(Outcome::Committed)
            }
            Err(e) if e.is_txn_abort() => Ok(Outcome::Aborted),
            Err(e) => Err(e),
        }
    }
}

/// Run `n` transactions over the wire on every client, each from its own
/// stream: open loop at `rate`, or closed loop when `rate` is `None`.
/// Returns each client's tally and the phase's length.
pub fn wire_phase(clients: &mut [Client], n: usize, rate: Option<f64>) -> (Vec<Tally>, Duration) {
    let elapsed = run_schedule(clients, n, rate, |c, due| c.issue_next(due));
    let tallies = clients
        .iter_mut()
        .map(|c| std::mem::take(&mut c.tally))
        .collect();
    (tallies, elapsed)
}

/// One thread of the engine-only pass: a connection's spec stream and
/// where it stands in it.
pub struct Replayer {
    specs: Arc<[WireSpec]>,
    pub next: usize,
    out: Vec<Sample>,
}

impl Replayer {
    pub fn new(specs: &Arc<[WireSpec]>) -> Replayer {
        Replayer {
            specs: specs.clone(),
            next: 0,
            out: Vec::new(),
        }
    }
}

/// Replay `n` transactions in-process through `Tatp::execute` at `rate`,
/// one thread per replayer, each taking its stream's specs in order, and
/// time each transaction's execution.
pub fn engine_phase(
    engine: &Arc<Engine>,
    tatp: &Tatp,
    replayers: &mut [Replayer],
    n: usize,
    rate: f64,
) -> Vec<Sample> {
    run_schedule(replayers, n, Some(rate), |r, due| {
        let spec = r.specs[r.next % r.specs.len()];
        r.next += 1;
        let txn = TxnSpec {
            ty: spec.ty,
            params: vec![spec.s, spec.sf, spec.val as u64],
        };
        let sent = Instant::now();
        let end = match tatp.execute(engine, &txn) {
            Ok(()) => End::Committed,
            Err(EngineError::Deadlock | EngineError::LockTimeout | EngineError::SnapshotTooOld) => {
                End::Aborted
            }
            Err(e) => {
                eprintln!("tatpbench: engine pass: {e}");
                End::Error
            }
        };
        let done = Instant::now();
        r.out.push(Sample {
            ty: spec.ty,
            end,
            lat_ns: nanos(done - due.at),
            lag_ns: nanos(sent.saturating_duration_since(due.at)),
            svc_ns: nanos(done - sent),
            slept: due.slept,
            seq: due.seq,
        });
    });
    replayers
        .iter_mut()
        .flat_map(|r| std::mem::take(&mut r.out))
        .collect()
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
