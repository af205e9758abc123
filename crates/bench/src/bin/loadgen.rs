//! Closed-loop TATP client driver for the tpd wire protocol.
//!
//! With `--addr` it drives an already-running `serve`; without it, it
//! spawns an in-process server (same code path) so a single command
//! exercises the full network stack and can also check for leaked locks:
//!
//! ```text
//! cargo run --release --bin loadgen -- --conns 32 --admission-cap 8 --secs 10
//! ```
//!
//! Each connection is one closed-loop client: sample a TATP transaction,
//! run it over the wire, retry on shed/abort, repeat. Latencies are
//! measured client-side per committed transaction; shed counts come from
//! the server's `METRICS` snapshot so the two sides can be compared.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use tpd_bench::netbench::{start_tatp_server, NetArgs};
use tpd_common::stats::percentile_of_sorted;
use tpd_server::{Conn, Outcome, WireTatp};

const USAGE: &str = "usage: loadgen [--addr HOST:PORT (default: in-process server)] \
[--conns N] [--rate TPS (0 = max)] [--secs N | --duration N] [--subscribers N] \
[--slots N] [--admission-cap N] [--deadline-ms N] [--seed N] \
[--server-mode threads|evented] [--workers N] [--idle-ms N] [--no-nodelay] \
[--mux] [--txns N (per conn, --mux only)] \
[--wal-append mutex|lockfree] [--log-writers K] [--disk-backend sim|file] [--data-dir DIR] \
[--concurrency s2pl|mvcc] [--policy fcfs|vats|rs|cats|predictive] \
[--admit-defer-hot] [--defer-max N]\n\
--mux drives all connections from one multiplexed thread (use for multi-thousand-conn \
ramps; --secs becomes a safety deadline, each conn runs --txns transactions)";

#[derive(Default)]
struct Tally {
    commits: u64,
    aborts: u64,
    sheds: u64,
    issued: u64,
    errors: u64,
    /// Client-observed latency of each committed transaction, ns.
    latencies_ns: Vec<f64>,
}

fn drive(
    addr: std::net::SocketAddr,
    wire: WireTatp,
    seed: u64,
    interval: Option<Duration>,
    stop: &AtomicBool,
) -> Tally {
    let mut tally = Tally::default();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadgen: connect {addr}: {e}");
            tally.errors += 1;
            return tally;
        }
    };
    let mut rng = SmallRng::seed_from_u64(0x10AD6E4 ^ seed);
    let mut next_send = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        if let Some(step) = interval {
            let now = Instant::now();
            if now < next_send {
                std::thread::sleep(next_send - now);
            }
            next_send += step;
        }
        let spec = wire.sample(&mut rng);
        let started = Instant::now();
        tally.issued += 1;
        match wire.execute(&mut conn, &spec) {
            Ok(Outcome::Committed) => {
                tally.commits += 1;
                tally.latencies_ns.push(started.elapsed().as_nanos() as f64);
            }
            Ok(Outcome::Aborted) => tally.aborts += 1,
            Ok(Outcome::Shed) => {
                tally.sheds += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => {
                eprintln!("loadgen: protocol error: {e}");
                tally.errors += 1;
                return tally;
            }
        }
    }
    tally
}

fn main() {
    let mut args = match NetArgs::parse_from(std::env::args().skip(1), USAGE) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    // An in-process mux ramp exists to present `--conns` connections;
    // a connection cap below that would just measure the cap.
    if args.mux && args.addr.is_none() && args.max_conns < args.conns + 16 {
        args.max_conns = args.conns + 16;
    }

    // In-process server unless --addr points at a live one. Keeping the
    // handle gives the post-run leaked-lock check; against a remote
    // server only the wire-visible checks apply.
    let in_process = match args.addr {
        Some(_) => None,
        None => Some(start_tatp_server(&args, None).unwrap_or_else(|e| {
            eprintln!("loadgen: spawn in-process server: {e}");
            std::process::exit(1);
        })),
    };
    let (addr, wire) = match &in_process {
        Some((_, handle, wire)) => (handle.local_addr(), *wire),
        None => {
            let addr = args
                .addr
                .as_deref()
                .expect("addr present")
                .parse()
                .unwrap_or_else(|e| {
                    eprintln!("loadgen: bad --addr: {e}");
                    std::process::exit(2);
                });
            // Table ids follow fresh-install order on the serve side.
            (addr, WireTatp::fresh_install(args.subscribers))
        }
    };

    if args.mux {
        run_mux_mode(&args, addr, &wire, in_process);
        return;
    }

    let interval = if args.rate > 0.0 {
        Some(Duration::from_secs_f64(args.conns as f64 / args.rate))
    } else {
        None
    };
    let stop = Arc::new(AtomicBool::new(false));
    println!(
        "loadgen: {} conns against {addr} for {:.0}s ({})",
        args.conns,
        args.secs,
        match interval {
            Some(_) => format!("{:.0} txn/s aggregate", args.rate),
            None => "closed loop, max rate".to_string(),
        }
    );

    let started = Instant::now();
    let workers: Vec<_> = (0..args.conns)
        .map(|i| {
            let stop = stop.clone();
            let seed = args.seed.wrapping_add(i as u64);
            std::thread::Builder::new()
                .name(format!("loadgen-{i}"))
                .spawn(move || drive(addr, wire, seed, interval, &stop))
                .expect("spawn client thread")
        })
        .collect();
    std::thread::sleep(Duration::from_secs_f64(args.secs));
    stop.store(true, Ordering::Relaxed);
    let mut total = Tally::default();
    for w in workers {
        let t = w.join().expect("client thread");
        total.commits += t.commits;
        total.aborts += t.aborts;
        total.sheds += t.sheds;
        total.issued += t.issued;
        total.errors += t.errors;
        total.latencies_ns.extend(t.latencies_ns);
    }
    let elapsed = started.elapsed().as_secs_f64();

    // Server-side truth: the METRICS frame over the same wire.
    let metrics = Conn::connect(addr)
        .and_then(|mut c| {
            c.metrics()
                .map_err(|e| std::io::Error::other(e.to_string()))
        })
        .unwrap_or_else(|e| {
            eprintln!("loadgen: METRICS fetch failed: {e}");
            std::process::exit(1);
        });

    total
        .latencies_ns
        .sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
    let pct = |q: f64| percentile_of_sorted(&total.latencies_ns, q) / 1.0e6;
    println!(
        "issued={} commits={} aborts={} sheds(client)={} errors={}",
        total.issued, total.commits, total.aborts, total.sheds, total.errors
    );
    println!(
        "throughput={:.0} commit/s  latency ms: p50={:.3} p99={:.3} p999={:.3}",
        total.commits as f64 / elapsed,
        pct(50.0),
        pct(99.0),
        pct(99.9)
    );
    println!(
        "server: commits={} aborts={} shed_total={} admission_wait_samples={}",
        metrics.counter("txn.commits"),
        metrics.counter("txn.aborts"),
        metrics.counter("server.shed_total"),
        metrics
            .histograms
            .get("server.admission_wait_ns")
            .map(|h| h.count)
            .unwrap_or(0),
    );
    // WAL scalability: how many commits each fsync acknowledged (group
    // commit sharing), fsyncs per commit, and the append reservation tail.
    let hist_mean = |name: &str| {
        metrics
            .histograms
            .get(name)
            .filter(|h| h.count > 0)
            .map(|h| h.sum as f64 / h.count as f64)
    };
    let commits = metrics.counter("txn.commits").max(1);
    println!(
        "wal: flushes={} flushes/commit={:.3} group_commit_batch mean={:.2} reserve p99={} ns",
        metrics.counter("wal.flushes"),
        metrics.counter("wal.flushes") as f64 / commits as f64,
        hist_mean("wal.group_commit_batch").unwrap_or(0.0),
        metrics
            .histograms
            .get("wal.reserve_ns")
            .map(|h| h.p99)
            .unwrap_or(0),
    );

    let mut failed = total.errors > 0;
    if total.commits + total.aborts + total.sheds != total.issued {
        eprintln!("loadgen: accounting mismatch (issued != commits+aborts+sheds)");
        failed = true;
    }
    if metrics.counter("server.shed_total") < total.sheds {
        eprintln!("loadgen: server shed counter below client-observed sheds");
        failed = true;
    }
    if let Some((engine, mut handle, _)) = in_process {
        handle.shutdown();
        if handle.protocol_errors() > 0 {
            eprintln!(
                "loadgen: server counted {} protocol errors",
                handle.protocol_errors()
            );
            failed = true;
        }
        let (granted, waiting) = engine.locks().outstanding();
        println!("leaked locks: granted={granted} waiting={waiting}");
        if (granted, waiting) != (0, 0) {
            eprintln!("loadgen: lock-queue entries leaked");
            failed = true;
        }
        let pins = engine.active_snapshots();
        if pins != 0 {
            eprintln!("loadgen: {pins} snapshot pins leaked");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// The `--mux` path: every connection multiplexed onto one client
/// thread via the poller — the only way a single machine can present
/// thousands of concurrent connections without thousands of stacks.
fn run_mux_mode(
    args: &NetArgs,
    addr: std::net::SocketAddr,
    wire: &WireTatp,
    in_process: Option<(
        std::sync::Arc<tpd_engine::Engine>,
        tpd_server::ServerHandle,
        WireTatp,
    )>,
) {
    // Client + server fd per conn when the server is in-process.
    let needed = args.conns as u64 * 2 + 256;
    match tpd_common::poll::raise_nofile_limit(needed) {
        Ok(limit) if limit < needed => eprintln!(
            "loadgen: nofile limit {limit} < {needed}; expect EMFILE (raise with ulimit -n)"
        ),
        Err(e) => eprintln!("loadgen: could not raise nofile limit: {e}"),
        Ok(_) => {}
    }

    println!(
        "loadgen: {} mux conns against {addr}, {} txns each",
        args.conns, args.txns
    );
    let started = Instant::now();
    let report = tpd_server::run_mux(
        addr,
        wire,
        &tpd_server::MuxConfig {
            conns: args.conns,
            txns_per_conn: args.txns,
            seed: args.seed,
            nodelay: args.nodelay,
            deadline: if args.secs > 0.0 {
                Some(Duration::from_secs_f64(args.secs))
            } else {
                None
            },
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("loadgen: mux run failed: {e}");
        std::process::exit(1);
    });
    let elapsed = started.elapsed().as_secs_f64();

    let (p50, p99, p999) = report.latency_percentiles();
    println!(
        "issued={} commits={} aborts={} sheds(client)={} protocol_errors={} completed_conns={}/{}",
        report.issued,
        report.commits,
        report.aborts,
        report.sheds,
        report.protocol_errors,
        report.completed_conns,
        args.conns
    );
    println!(
        "throughput={:.0} commit/s  latency ms: p50={:.3} p99={:.3} p999={:.3}",
        report.commits as f64 / elapsed,
        p50 as f64 / 1e6,
        p99 as f64 / 1e6,
        p999 as f64 / 1e6,
    );

    let metrics = Conn::connect(addr)
        .and_then(|mut c| {
            c.metrics()
                .map_err(|e| std::io::Error::other(e.to_string()))
        })
        .unwrap_or_else(|e| {
            eprintln!("loadgen: METRICS fetch failed: {e}");
            std::process::exit(1);
        });
    println!(
        "server: commits={} aborts={} shed_total={} open_conns={} reactor_wakeups={} accept_errs={}",
        metrics.counter("txn.commits"),
        metrics.counter("txn.aborts"),
        metrics.counter("server.shed_total"),
        metrics.counter("server.open_conns"),
        metrics.counter("server.reactor_wakeups"),
        metrics.counter("server.accept_err_total"),
    );

    let mut failed = report.protocol_errors > 0;
    if report.commits + report.aborts + report.sheds != report.issued {
        eprintln!("loadgen: accounting mismatch (issued != commits+aborts+sheds)");
        failed = true;
    }
    if report.completed_conns < args.conns as u64 {
        eprintln!(
            "loadgen: {} connections did not finish their script before the deadline",
            args.conns as u64 - report.completed_conns
        );
        failed = true;
    }
    if metrics.counter("server.shed_total") < report.sheds {
        eprintln!("loadgen: server shed counter below client-observed sheds");
        failed = true;
    }
    if let Some((engine, mut handle, _)) = in_process {
        handle.shutdown();
        if handle.protocol_errors() > 0 {
            eprintln!(
                "loadgen: server counted {} protocol errors",
                handle.protocol_errors()
            );
            failed = true;
        }
        let (granted, waiting) = engine.locks().outstanding();
        println!("leaked locks: granted={granted} waiting={waiting}");
        if (granted, waiting) != (0, 0) {
            eprintln!("loadgen: lock-queue entries leaked");
            failed = true;
        }
        let pins = engine.active_snapshots();
        if pins != 0 {
            eprintln!("loadgen: {pins} snapshot pins leaked");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
