//! End-to-end protocol tests: a live server on an ephemeral port, real
//! TCP clients, mixed TATP traffic, and a single-threaded replay oracle
//! over the committed transactions.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tpd_common::dist::ServiceTime;
use tpd_common::DiskConfig;
use tpd_engine::{Concurrency, Engine, EngineConfig, Policy, Session, TableId};
use tpd_server::wire_tatp::{txn_type, SF_PER_SUB};
use tpd_server::{
    spawn, AdmissionConfig, BeginOutcome, Conn, ErrorCode, Frame, Outcome, ServerConfig,
    ServerHandle, ServerMode, WireSpec, WireTatp,
};
use tpd_workloads::Tatp;

fn quick_config(seed: u64) -> EngineConfig {
    let quick = DiskConfig {
        service: ServiceTime::Fixed(10_000),
        ns_per_byte: 0.0,
        seed,
    };
    EngineConfig {
        data_disk: quick.clone(),
        log_disks: vec![quick],
        lock_timeout: Some(Duration::from_secs(5)),
        seed,
        ..EngineConfig::mysql(Policy::Fcfs)
    }
}

fn quick_engine(seed: u64) -> Arc<Engine> {
    Engine::new(quick_config(seed))
}

fn start_server_cfg(
    subscribers: u64,
    config: ServerConfig,
) -> (Arc<Engine>, Tatp, ServerHandle, WireTatp) {
    start_server_on(quick_engine(0xE2E), subscribers, config)
}

fn start_server_on(
    engine: Arc<Engine>,
    subscribers: u64,
    config: ServerConfig,
) -> (Arc<Engine>, Tatp, ServerHandle, WireTatp) {
    let tatp = Tatp::install(&engine, subscribers);
    let ids = tatp.table_ids();
    let wire = WireTatp {
        subscriber: ids[0].0,
        access_info: ids[1].0,
        special_facility: ids[2].0,
        call_forwarding: ids[3].0,
        subscribers,
    };
    let handle = spawn(engine.clone(), config).expect("bind ephemeral port");
    (engine, tatp, handle, wire)
}

fn start_server_in(
    mode: ServerMode,
    subscribers: u64,
    admission: AdmissionConfig,
) -> (Arc<Engine>, Tatp, ServerHandle, WireTatp) {
    start_server_cfg(
        subscribers,
        ServerConfig {
            mode,
            admission,
            ..ServerConfig::default()
        },
    )
}

/// Replay one wire spec directly against an engine — the oracle's
/// single-threaded equivalent of `WireTatp::execute`.
fn apply_direct(session: &mut Session, w: &WireTatp, spec: &WireSpec) {
    use txn_type::*;
    let t = |id: u32| TableId(id);
    let (s, sf, val) = (spec.s, spec.sf, spec.val);
    session.begin(spec.ty).expect("oracle begin");
    match spec.ty {
        GET_SUBSCRIBER => {
            session.read(t(w.subscriber), s).expect("oracle read");
        }
        GET_NEW_DEST => {
            session
                .read(t(w.special_facility), s * SF_PER_SUB + sf)
                .expect("oracle read");
            session
                .read(t(w.call_forwarding), s * SF_PER_SUB + sf)
                .expect("oracle read");
        }
        GET_ACCESS => {
            session
                .read(t(w.access_info), s * 4 + (sf % 4))
                .expect("oracle read");
        }
        UPD_SUBSCRIBER => {
            let mut row = session.read(t(w.subscriber), s).expect("oracle read");
            row[1] ^= 1;
            session
                .update_row(t(w.subscriber), s, row)
                .expect("oracle update");
            let mut fac = session
                .read(t(w.special_facility), s * SF_PER_SUB + sf)
                .expect("oracle read");
            fac[2] = val;
            session
                .update_row(t(w.special_facility), s * SF_PER_SUB + sf, fac)
                .expect("oracle update");
        }
        UPD_LOCATION => {
            let mut row = session.read(t(w.subscriber), s).expect("oracle read");
            row[3] = val;
            session
                .update_row(t(w.subscriber), s, row)
                .expect("oracle update");
        }
        INS_CALL_FWD => {
            session.read(t(w.subscriber), s).expect("oracle read");
            session
                .read(t(w.special_facility), s * SF_PER_SUB + sf)
                .expect("oracle read");
            session
                .insert(t(w.call_forwarding), vec![s as i64, sf as i64, 1])
                .expect("oracle insert");
        }
        DEL_CALL_FWD => {
            let mut row = session
                .read(t(w.call_forwarding), s * SF_PER_SUB + sf)
                .expect("oracle read");
            row[2] = 0;
            session
                .update_row(t(w.call_forwarding), s * SF_PER_SUB + sf, row)
                .expect("oracle update");
        }
        other => panic!("unknown type {other}"),
    }
    session.commit().expect("oracle commit");
}

fn table_rows(engine: &Arc<Engine>, id: u32) -> BTreeMap<u64, Vec<i64>> {
    let t = engine.catalog().table(TableId(id));
    t.range_keys(0, u64::MAX, usize::MAX)
        .into_iter()
        .map(|k| (k, t.get(k).expect("row")))
        .collect()
}

/// The tentpole e2e: N concurrent client threads of mixed TATP over the
/// wire, every request accounted for (commit + abort + shed == issued),
/// engine row state equal to a single-threaded replay of the committed
/// transactions, and a METRICS frame whose commit counters match the
/// client-side tally.
#[test]
fn concurrent_tatp_matches_replay_oracle_and_metrics() {
    concurrent_tatp_matches_replay_oracle_and_metrics_in(ServerMode::Threads);
}

#[test]
fn concurrent_tatp_matches_replay_oracle_and_metrics_evented() {
    concurrent_tatp_matches_replay_oracle_and_metrics_in(ServerMode::Evented);
}

fn concurrent_tatp_matches_replay_oracle_and_metrics_in(mode: ServerMode) {
    const THREADS: u64 = 6;
    const SLICE: u64 = 8;
    const TXNS_PER_THREAD: u64 = 30;
    // One extra subscriber shared by every thread as a write hotspot; its
    // updates use a constant value, so any serialization order yields the
    // same final state (toggle parity + constant overwrite) and the
    // oracle may replay commits in any order.
    const HOT: u64 = THREADS * SLICE;
    const HOT_VAL: i64 = 7;

    let (engine, _tatp, handle, wire) = start_server_in(
        mode,
        HOT + 1,
        AdmissionConfig {
            slots: 3,
            queue_cap: 4,
            queue_deadline: Duration::from_millis(200),
            ..AdmissionConfig::default()
        },
    );
    let addr = handle.local_addr();

    struct ThreadReport {
        committed: Vec<WireSpec>,
        commits: u64,
        aborts: u64,
        sheds: u64,
        issued: u64,
    }

    let mut workers = Vec::new();
    for ti in 0..THREADS {
        workers.push(std::thread::spawn(move || {
            let mut conn = Conn::connect(addr).expect("connect");
            let mut rng = SmallRng::seed_from_u64(0xC11E47 + ti);
            let mut report = ThreadReport {
                committed: Vec::new(),
                commits: 0,
                aborts: 0,
                sheds: 0,
                issued: 0,
            };
            for i in 0..TXNS_PER_THREAD {
                // Mostly traffic on this thread's private slice (an exact
                // oracle needs per-row total order; disjoint slices give
                // it for free), plus a shared hotspot every 5th txn.
                let spec = if i % 5 == 4 {
                    WireSpec {
                        ty: txn_type::UPD_SUBSCRIBER,
                        s: HOT,
                        sf: ti % SF_PER_SUB,
                        val: HOT_VAL,
                    }
                } else {
                    let mut spec = wire.sample(&mut rng);
                    spec.s = ti * SLICE + (spec.s % SLICE);
                    spec
                };
                let mut attempts = 0;
                loop {
                    attempts += 1;
                    assert!(attempts < 1000, "txn never terminated: {spec:?}");
                    report.issued += 1;
                    match wire.execute(&mut conn, &spec).expect("no protocol errors") {
                        Outcome::Committed => {
                            report.commits += 1;
                            report.committed.push(spec);
                            break;
                        }
                        Outcome::Aborted => report.aborts += 1,
                        Outcome::Shed => {
                            report.sheds += 1;
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                }
            }
            report
        }));
    }
    let reports: Vec<ThreadReport> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();

    // Every issued request reached exactly one terminal outcome.
    let commits: u64 = reports.iter().map(|r| r.commits).sum();
    let aborts: u64 = reports.iter().map(|r| r.aborts).sum();
    let sheds: u64 = reports.iter().map(|r| r.sheds).sum();
    let issued: u64 = reports.iter().map(|r| r.issued).sum();
    assert_eq!(commits + aborts + sheds, issued);
    assert_eq!(commits, THREADS * TXNS_PER_THREAD);

    // The METRICS frame agrees with the client-side tally.
    let mut conn = Conn::connect(addr).expect("metrics conn");
    let metrics = conn.metrics().expect("metrics frame parses");
    assert_eq!(metrics.counter("txn.commits"), commits);
    assert_eq!(metrics.counter("txn.aborts"), aborts);
    assert_eq!(metrics.counter("server.shed_total"), sheds);
    let wait = metrics
        .histograms
        .get("server.admission_wait_ns")
        .expect("admission wait histogram present");
    assert!(
        wait.count >= commits,
        "every admitted BEGIN recorded a wait sample"
    );

    // The scalable-WAL instruments ride the same frame.
    let reserve = metrics
        .histograms
        .get("wal.reserve_ns")
        .expect("wal.reserve_ns histogram present");
    assert!(reserve.count > 0, "appends recorded reservation timings");
    let batch = metrics
        .histograms
        .get("wal.group_commit_batch")
        .expect("wal.group_commit_batch histogram present");
    assert!(batch.count > 0, "eager commits recorded fsync batch sizes");
    assert!(
        batch.sum >= batch.count,
        "each fsync acknowledged at least one commit"
    );

    // No lock-queue entry or snapshot pin outlived its transaction.
    assert_eq!(engine.locks().outstanding(), (0, 0), "no leaked locks");
    assert_eq!(engine.active_snapshots(), 0, "no leaked snapshot pins");
    assert_eq!(handle.protocol_errors(), 0);

    // Single-threaded replay oracle: same install, every committed spec
    // replayed thread-by-thread (disjoint slices make cross-thread order
    // irrelevant; the hotspot is order-independent by construction).
    let oracle_engine = quick_engine(0x0AC1E);
    let _oracle_tatp = Tatp::install(&oracle_engine, HOT + 1);
    let mut oracle = Session::new(oracle_engine.clone());
    for r in &reports {
        for spec in &r.committed {
            apply_direct(&mut oracle, &wire, spec);
        }
    }
    for id in [wire.subscriber, wire.access_info, wire.special_facility] {
        assert_eq!(
            table_rows(&engine, id),
            table_rows(&oracle_engine, id),
            "table {id} diverged from the oracle"
        );
    }
    // call_forwarding receives inserts whose keys depend on arrival
    // order; compare it as a multiset of rows.
    let mut served: Vec<Vec<i64>> = table_rows(&engine, wire.call_forwarding)
        .into_values()
        .collect();
    let mut replayed: Vec<Vec<i64>> = table_rows(&oracle_engine, wire.call_forwarding)
        .into_values()
        .collect();
    served.sort();
    replayed.sort();
    assert_eq!(served, replayed, "call_forwarding multiset diverged");
}

/// A killed client (socket dropped mid-transaction) must roll back and
/// leak no lock-queue entries — the regression test for the `Txn`
/// drop/abort audit.
#[test]
fn killed_client_releases_locks_and_rolls_back() {
    killed_client_releases_locks_and_rolls_back_in(ServerMode::Threads);
}

#[test]
fn killed_client_releases_locks_and_rolls_back_evented() {
    killed_client_releases_locks_and_rolls_back_in(ServerMode::Evented);
}

fn killed_client_releases_locks_and_rolls_back_in(mode: ServerMode) {
    let (engine, _tatp, handle, wire) = start_server_in(mode, 16, AdmissionConfig::default());
    let addr = handle.local_addr();

    let mut victim = Conn::connect(addr).expect("connect");
    assert!(matches!(
        victim.begin(0).expect("begin"),
        BeginOutcome::Started { .. }
    ));
    // Take an X lock and leave the transaction open.
    let mut row = victim.read(wire.subscriber, 3).expect("read");
    row[3] = 999;
    victim.update(wire.subscriber, 3, row).expect("update");
    let aborts_before = engine.stats().aborts;
    assert_ne!(engine.locks().outstanding(), (0, 0), "locks held");

    // Kill the client without COMMIT/ABORT.
    drop(victim);

    // The server must notice, roll back, and drain the lock table.
    let deadline = Instant::now() + Duration::from_secs(5);
    while engine.locks().outstanding() != (0, 0) {
        assert!(
            Instant::now() < deadline,
            "lock-queue entries leaked: {}",
            { engine.locks().debug_dump() }
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(engine.stats().aborts, aborts_before + 1, "rolled back");

    // The row is untouched and immediately writable by a new client.
    let mut fresh = Conn::connect(addr).expect("connect");
    assert!(matches!(
        fresh.begin(0).expect("begin"),
        BeginOutcome::Started { .. }
    ));
    let row = fresh.read(wire.subscriber, 3).expect("read");
    assert_eq!(row[3], 0, "dead client's update rolled back");
    fresh
        .update(wire.subscriber, 3, vec![3, 1, 0, 5])
        .expect("row lock free for the next client");
    fresh.commit().expect("commit");
    assert_eq!(engine.locks().outstanding(), (0, 0));
    assert_eq!(engine.active_snapshots(), 0, "no leaked snapshot pins");
}

/// Admission behaviour observed over the wire: with one slot and no
/// queue, a second concurrent BEGIN is shed with `RETRY_LATER`, and the
/// slot frees on COMMIT.
#[test]
fn admission_sheds_over_the_wire() {
    admission_sheds_over_the_wire_in(ServerMode::Threads);
}

#[test]
fn admission_sheds_over_the_wire_evented() {
    admission_sheds_over_the_wire_in(ServerMode::Evented);
}

fn admission_sheds_over_the_wire_in(mode: ServerMode) {
    let (_engine, _tatp, handle, _wire) = start_server_in(
        mode,
        8,
        AdmissionConfig {
            slots: 1,
            queue_cap: 0,
            queue_deadline: Duration::from_millis(100),
            ..AdmissionConfig::default()
        },
    );
    let addr = handle.local_addr();

    let mut a = Conn::connect(addr).expect("connect a");
    let mut b = Conn::connect(addr).expect("connect b");
    assert!(matches!(
        a.begin(0).expect("begin a"),
        BeginOutcome::Started { .. }
    ));
    assert_eq!(b.begin(0).expect("begin b"), BeginOutcome::Shed);
    a.commit().expect("commit a");
    assert!(matches!(
        b.begin(0).expect("begin b after slot freed"),
        BeginOutcome::Started { .. }
    ));
    b.commit().expect("commit b");

    let metrics = a.metrics().expect("metrics");
    assert_eq!(metrics.counter("server.shed_total"), 1);
}

/// The malformed / truncated / oversized corpus, fired at a live server:
/// each entry must produce a typed error (or a clean close) — never a
/// crash — and the server must keep serving well-formed clients.
#[test]
fn malformed_corpus_never_kills_the_server() {
    malformed_corpus_never_kills_the_server_in(ServerMode::Threads);
}

#[test]
fn malformed_corpus_never_kills_the_server_evented() {
    malformed_corpus_never_kills_the_server_in(ServerMode::Evented);
}

fn malformed_corpus_never_kills_the_server_in(mode: ServerMode) {
    let (_engine, _tatp, handle, _wire) = start_server_in(mode, 8, AdmissionConfig::default());
    let addr = handle.local_addr();

    // (name, raw bytes, server may keep the connection)
    let corpus: Vec<(&str, Vec<u8>, bool)> = vec![
        ("zero length prefix", 0u32.to_le_bytes().to_vec(), false),
        (
            "one-byte payload",
            {
                let mut b = 1u32.to_le_bytes().to_vec();
                b.push(1);
                b
            },
            false,
        ),
        (
            "oversized length prefix",
            (u32::MAX).to_le_bytes().to_vec(),
            false,
        ),
        (
            "over-cap length prefix",
            ((1u32 << 20) + 1).to_le_bytes().to_vec(),
            false,
        ),
        (
            "bad version",
            {
                let mut b = 2u32.to_le_bytes().to_vec();
                b.extend_from_slice(&[99, 0x05]); // version 99, COMMIT
                b
            },
            true,
        ),
        (
            "unknown kind",
            {
                let mut b = 2u32.to_le_bytes().to_vec();
                b.extend_from_slice(&[1, 0x55]);
                b
            },
            true,
        ),
        (
            "trailing bytes after commit",
            {
                let mut b = 3u32.to_le_bytes().to_vec();
                b.extend_from_slice(&[1, 0x05, 0xAB]);
                b
            },
            true,
        ),
        (
            "truncated read body",
            {
                let mut b = 4u32.to_le_bytes().to_vec();
                b.extend_from_slice(&[1, 0x02, 0x01, 0x00]); // READ with 2 body bytes
                b
            },
            true,
        ),
        (
            "insert with lying row count",
            {
                // INSERT, table 0, claims 1000 columns, carries none.
                let mut body = vec![1u8, 0x04];
                body.extend_from_slice(&0u32.to_le_bytes());
                body.extend_from_slice(&1000u32.to_le_bytes());
                let mut b = (body.len() as u32).to_le_bytes().to_vec();
                b.extend_from_slice(&body);
                b
            },
            true,
        ),
        (
            "insert with absurd row count",
            {
                let mut body = vec![1u8, 0x04];
                body.extend_from_slice(&0u32.to_le_bytes());
                body.extend_from_slice(&u32::MAX.to_le_bytes());
                let mut b = (body.len() as u32).to_le_bytes().to_vec();
                b.extend_from_slice(&body);
                b
            },
            true,
        ),
        (
            "reply frame as request",
            {
                let mut b = Vec::new();
                Frame::Committed.encode(&mut b);
                b
            },
            true,
        ),
    ];

    for (name, bytes, conn_survives) in corpus {
        let mut conn = Conn::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        conn.send_raw(&bytes)
            .unwrap_or_else(|e| panic!("{name}: send: {e}"));
        match conn.recv() {
            Ok(Frame::Error { code, .. }) => {
                assert_eq!(code, ErrorCode::Malformed, "{name}: typed error code");
            }
            Ok(other) => panic!("{name}: unexpected reply {other:?}"),
            // A torn stream may only close; that is acceptable for
            // length-layer poison but not for recoverable errors.
            Err(_) if !conn_survives => {}
            Err(e) => panic!("{name}: expected typed error, got {e}"),
        }
        if conn_survives {
            // The same connection still serves well-formed traffic.
            let m = conn
                .metrics()
                .unwrap_or_else(|e| panic!("{name}: follow-up: {e}"));
            assert!(m.counters.contains_key("txn.commits"), "{name}: snapshot");
        }
    }

    // A partial frame followed by a hangup must not wedge anything.
    {
        let mut conn = Conn::connect(addr).expect("connect");
        conn.send_raw(&[10, 0, 0]).expect("partial length prefix");
        drop(conn);
    }

    // The server still accepts and serves full transactions.
    let mut conn = Conn::connect(addr).expect("connect after corpus");
    assert!(matches!(
        conn.begin(0).expect("begin"),
        BeginOutcome::Started { .. }
    ));
    conn.read(0, 1).expect("read");
    conn.commit().expect("commit");
    assert!(handle.protocol_errors() > 0, "corpus was counted");
}

/// Versioned header: today's decoder must reject a frame from a
/// hypothetical future protocol version with a typed error, keeping the
/// path open for version negotiation instead of silent misparses.
#[test]
fn future_version_is_rejected_not_misparsed() {
    future_version_is_rejected_not_misparsed_in(ServerMode::Threads);
}

#[test]
fn future_version_is_rejected_not_misparsed_evented() {
    future_version_is_rejected_not_misparsed_in(ServerMode::Evented);
}

fn future_version_is_rejected_not_misparsed_in(mode: ServerMode) {
    let (_engine, _tatp, handle, _wire) = start_server_in(mode, 8, AdmissionConfig::default());
    let mut conn = Conn::connect(handle.local_addr()).expect("connect");
    let mut bytes = 2u32.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[tpd_server::VERSION + 1, 0x05]);
    conn.send_raw(&bytes).expect("send");
    match conn.recv() {
        Ok(Frame::Error { code, detail }) => {
            assert_eq!(code, ErrorCode::Malformed);
            assert!(
                detail.contains("version"),
                "detail names the version: {detail}"
            );
        }
        other => panic!("expected version error, got {other:?}"),
    }
}

/// Disconnect matrix: a client that vanishes mid-transaction — cleanly
/// (FIN) or abruptly (RST) — must have its transaction rolled back, its
/// locks drained, and its admission permit returned, in both server
/// modes. With one slot and no queue, the next client's BEGIN only
/// succeeds if the permit actually came back.
fn disconnect_matrix(mode: ServerMode, rst: bool) {
    let (engine, _tatp, handle, wire) = start_server_in(
        mode,
        8,
        AdmissionConfig {
            slots: 1,
            queue_cap: 0,
            queue_deadline: Duration::from_millis(100),
            ..AdmissionConfig::default()
        },
    );
    let addr = handle.local_addr();

    let mut victim = Conn::connect(addr).expect("connect victim");
    assert!(matches!(
        victim.begin(0).expect("begin"),
        BeginOutcome::Started { .. }
    ));
    let mut row = victim.read(wire.subscriber, 2).expect("read");
    row[3] = 4242;
    victim.update(wire.subscriber, 2, row).expect("update");
    assert_ne!(engine.locks().outstanding(), (0, 0), "X lock held");
    if rst {
        victim.arm_rst().expect("arm RST");
    }
    drop(victim);

    // Locks drain once the server notices the disconnect.
    let deadline = Instant::now() + Duration::from_secs(5);
    while engine.locks().outstanding() != (0, 0) {
        assert!(
            Instant::now() < deadline,
            "{mode}/{}: lock-queue entries leaked: {}",
            if rst { "rst" } else { "fin" },
            engine.locks().debug_dump()
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    // The single admission slot must come back: a fresh BEGIN admits.
    let mut fresh = Conn::connect(addr).expect("connect fresh");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match fresh.begin(0).expect("begin fresh") {
            BeginOutcome::Started { .. } => break,
            BeginOutcome::Shed => {
                assert!(Instant::now() < deadline, "admission permit leaked");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    let row = fresh.read(wire.subscriber, 2).expect("read");
    assert_eq!(row[3], 0, "dead client's update rolled back");
    fresh.commit().expect("commit");
    assert_eq!(engine.locks().outstanding(), (0, 0));
    assert_eq!(engine.active_snapshots(), 0, "no leaked snapshot pins");
}

#[test]
fn fin_disconnect_releases_locks_and_permit_threads() {
    disconnect_matrix(ServerMode::Threads, false);
}

#[test]
fn fin_disconnect_releases_locks_and_permit_evented() {
    disconnect_matrix(ServerMode::Evented, false);
}

#[test]
fn rst_disconnect_releases_locks_and_permit_threads() {
    disconnect_matrix(ServerMode::Threads, true);
}

#[test]
fn rst_disconnect_releases_locks_and_permit_evented() {
    disconnect_matrix(ServerMode::Evented, true);
}

/// The admission-permit leak fix: a slow-loris client (connects, opens a
/// transaction, then sends nothing — no FIN, no RST) must hit the idle
/// deadline, get force-disconnected with its session rolled back, and
/// return its permit. Before the fix such a client pinned a slot (and
/// its row locks) forever.
fn slow_loris_reaped(mode: ServerMode) {
    let (engine, _tatp, handle, wire) = start_server_cfg(
        8,
        ServerConfig {
            mode,
            admission: AdmissionConfig {
                slots: 1,
                queue_cap: 0,
                queue_deadline: Duration::from_millis(100),
                ..AdmissionConfig::default()
            },
            read_timeout: Some(Duration::from_millis(300)),
            ..ServerConfig::default()
        },
    );
    let addr = handle.local_addr();

    let mut loris = Conn::connect(addr).expect("connect loris");
    assert!(matches!(
        loris.begin(0).expect("begin"),
        BeginOutcome::Started { .. }
    ));
    let mut row = loris.read(wire.subscriber, 5).expect("read");
    row[3] = 777;
    loris.update(wire.subscriber, 5, row).expect("update");
    assert_ne!(engine.locks().outstanding(), (0, 0), "X lock held");
    // ... and then silence. The socket stays open; only the idle
    // deadline can reclaim the slot.

    let mut fresh = Conn::connect(addr).expect("connect fresh");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match fresh.begin(0).expect("begin fresh") {
            BeginOutcome::Started { .. } => break,
            BeginOutcome::Shed => {
                assert!(
                    Instant::now() < deadline,
                    "idle deadline never reclaimed the permit"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    assert_eq!(
        engine.locks().outstanding(),
        (0, 0),
        "loris locks drained with the permit"
    );
    let row = fresh.read(wire.subscriber, 5).expect("read");
    assert_eq!(row[3], 0, "loris update rolled back");
    fresh.commit().expect("commit");
    assert_eq!(engine.active_snapshots(), 0, "no leaked snapshot pins");

    if mode == ServerMode::Evented {
        let m = fresh.metrics().expect("metrics");
        assert!(
            m.counter("server.idle_reaped_total") >= 1,
            "reap was counted"
        );
    }
    drop(loris); // kept alive until here: the server reaped it, not us
}

#[test]
fn slow_loris_is_reaped_and_permit_returned_threads() {
    slow_loris_reaped(ServerMode::Threads);
}

#[test]
fn slow_loris_is_reaped_and_permit_returned_evented() {
    slow_loris_reaped(ServerMode::Evented);
}

/// Accept-loop hardening: transient accept failures (EMFILE et al.,
/// injected via the test hook) must be counted and backed off — never
/// tear down the listener. The client connected below can only have been
/// accepted after the fault budget drained, so serving it proves the
/// loop survived every synthetic failure.
fn accept_errors_survived(mode: ServerMode) {
    let budget = Arc::new(std::sync::atomic::AtomicU64::new(5));
    let (_engine, _tatp, handle, wire) = start_server_cfg(
        8,
        ServerConfig {
            mode,
            inject_accept_errors: Some(budget.clone()),
            ..ServerConfig::default()
        },
    );

    let mut conn = Conn::connect(handle.local_addr()).expect("connect");
    assert!(matches!(
        conn.begin(0).expect("begin"),
        BeginOutcome::Started { .. }
    ));
    conn.read(wire.subscriber, 1).expect("read");
    conn.commit().expect("commit");

    assert_eq!(budget.load(std::sync::atomic::Ordering::SeqCst), 0);
    assert_eq!(handle.accept_errors(), 5, "every fault counted");
    let m = conn.metrics().expect("metrics");
    assert_eq!(m.counter("server.accept_err_total"), 5);
}

#[test]
fn accept_errors_back_off_and_keep_serving_threads() {
    accept_errors_survived(ServerMode::Threads);
}

#[test]
fn accept_errors_back_off_and_keep_serving_evented() {
    accept_errors_survived(ServerMode::Evented);
}

/// The reactor's own instruments ride the METRICS frame: wakeup count,
/// open-connection gauge, and the write-stall histogram.
#[test]
fn reactor_instruments_are_exposed() {
    let (_engine, _tatp, handle, wire) =
        start_server_in(ServerMode::Evented, 8, AdmissionConfig::default());
    let mut conn = Conn::connect(handle.local_addr()).expect("connect");
    assert!(matches!(
        conn.begin(0).expect("begin"),
        BeginOutcome::Started { .. }
    ));
    conn.read(wire.subscriber, 1).expect("read");
    conn.commit().expect("commit");

    let m = conn.metrics().expect("metrics");
    assert!(m.counter("server.reactor_wakeups") >= 1, "reactor woke up");
    assert!(m.counter("server.open_conns") >= 1, "this conn is open");
    assert!(
        m.histograms.contains_key("server.write_stall_ns"),
        "write-stall histogram registered"
    );
}

fn evented() -> ServerConfig {
    ServerConfig {
        mode: ServerMode::Evented,
        ..ServerConfig::default()
    }
}

fn mvcc_engine(frames: usize) -> Arc<Engine> {
    let mut config = quick_config(0xE2E);
    config.concurrency = Concurrency::Mvcc;
    config.pool.frames = frames;
    Engine::new(config)
}

fn worker_jobs(conn: &mut Conn) -> u64 {
    conn.metrics()
        .expect("metrics")
        .counter("server.worker_jobs_total")
}

/// Evented + mvcc: frames the engine proves cannot wait run on the
/// reactor. A read-only transaction on resident pages ships no job; an
/// UPD_LOCATION shape ships its UPDATE and its COMMIT, which must log.
#[test]
fn evented_mvcc_ships_only_frames_that_may_wait() {
    let (engine, _tatp, handle, wire) = start_server_on(mvcc_engine(1024), 8, evented());
    let mut conn = Conn::connect(handle.local_addr()).expect("connect");
    let read_only = |conn: &mut Conn| {
        assert!(matches!(
            conn.begin(txn_type::GET_SUBSCRIBER).expect("begin"),
            BeginOutcome::Started { .. }
        ));
        conn.read(wire.subscriber, 3).expect("read");
        conn.read(wire.access_info, 3 * 4).expect("read");
        conn.commit().expect("commit");
    };
    // The first touch of an index page may read it in, on a worker.
    read_only(&mut conn);

    let before = worker_jobs(&mut conn);
    read_only(&mut conn);
    assert_eq!(worker_jobs(&mut conn) - before, 0, "read-only txn");

    let before = worker_jobs(&mut conn);
    assert!(matches!(
        conn.begin(txn_type::UPD_LOCATION).expect("begin"),
        BeginOutcome::Started { .. }
    ));
    let mut row = conn.read(wire.subscriber, 3).expect("read");
    row[3] = 55;
    conn.update(wire.subscriber, 3, row).expect("update");
    conn.commit().expect("commit");
    assert_eq!(worker_jobs(&mut conn) - before, 2, "UPDATE and COMMIT");

    assert_eq!(engine.locks().outstanding(), (0, 0), "no leaked locks");
    assert_eq!(engine.active_snapshots(), 0, "no leaked snapshot pins");
}

/// Evented + s2pl: a READ that waits for a row lock waits on a worker,
/// so the reactor keeps answering other connections meanwhile.
#[test]
fn evented_s2pl_lock_wait_does_not_block_the_reactor() {
    let (engine, _tatp, handle, wire) = start_server_cfg(8, evented());
    let addr = handle.local_addr();
    let mut a = Conn::connect(addr).expect("connect a");
    assert!(matches!(
        a.begin(0).expect("begin a"),
        BeginOutcome::Started { .. }
    ));
    let mut row = a.read(wire.subscriber, 3).expect("read");
    row[3] = 4242;
    a.update(wire.subscriber, 3, row)
        .expect("X lock on the row");

    let subscriber = wire.subscriber;
    let b = std::thread::spawn(move || {
        let mut b = Conn::connect(addr).expect("connect b");
        assert!(matches!(
            b.begin(0).expect("begin b"),
            BeginOutcome::Started { .. }
        ));
        let row = b.read(subscriber, 3).expect("read after A commits");
        b.commit().expect("commit b");
        row
    });
    let deadline = Instant::now() + Duration::from_secs(5);
    while engine.locks().outstanding().1 == 0 {
        assert!(Instant::now() < deadline, "B never queued on the row lock");
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut c = Conn::connect(addr).expect("connect c");
    let asked = Instant::now();
    c.metrics().expect("metrics while B waits");
    assert!(
        asked.elapsed() < Duration::from_secs(1),
        "METRICS took {:?} while B waited",
        asked.elapsed()
    );
    assert!(!b.is_finished(), "B still waits for A's lock");

    a.commit().expect("commit a");
    assert_eq!(b.join().expect("client b")[3], 4242, "B reads A's commit");
    assert_eq!(engine.locks().outstanding(), (0, 0), "no leaked locks");
}

/// Evented + mvcc with a pool smaller than the table: a snapshot READ of
/// a page that is not resident may wait for page I/O, so it is shipped
/// to a worker, and returns the right row.
#[test]
fn evented_mvcc_read_of_non_resident_page_goes_to_a_worker() {
    let (engine, _tatp, handle, wire) = start_server_on(mvcc_engine(16), 1000, evented());
    let mut conn = Conn::connect(handle.local_addr()).expect("connect");
    // Read the index in, so that only the data page is missing below.
    assert!(matches!(
        conn.begin(txn_type::GET_SUBSCRIBER).expect("begin"),
        BeginOutcome::Started { .. }
    ));
    conn.read(wire.subscriber, 0).expect("read");
    conn.commit().expect("commit");

    let table = engine.catalog().table(TableId(wire.subscriber));
    let key = (0..wire.subscribers)
        .find(|&s| !engine.pool().is_resident(table.data_page(s)))
        .expect("a 16-frame pool cannot hold every subscriber page");
    let fanout = engine.config().index_fanout;
    assert!((1..=table.index_depth(fanout)).all(|level| engine
        .pool()
        .is_resident(table.index_page(key, level, fanout))));
    let expected = table.get(key).expect("installed row");

    let before = worker_jobs(&mut conn);
    assert!(matches!(
        conn.begin(txn_type::GET_SUBSCRIBER).expect("begin"),
        BeginOutcome::Started { .. }
    ));
    assert_eq!(conn.read(wire.subscriber, key).expect("read"), expected);
    conn.commit().expect("commit");
    assert_eq!(
        worker_jobs(&mut conn) - before,
        1,
        "the READ, not the COMMIT"
    );
    assert!(
        engine.pool().is_resident(table.data_page(key)),
        "read it in"
    );
    assert_eq!(engine.active_snapshots(), 0, "no leaked snapshot pins");
}
