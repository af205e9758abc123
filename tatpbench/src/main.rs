//! Open-loop TATP over the wire protocol against an in-process server.
//!
//! ```text
//! cargo run --release --offline --manifest-path tatpbench/Cargo.toml -- \
//!     --workload tatp-mem --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Two client threads, each owning one connection and a spec stream of its
//! own, pull due times from one shared schedule; latency is timed from when
//! a transaction was due. The whole process runs on one CPU (see
//! [`pin_to_one_cpu`]). An untraced run alternates open-loop segments with
//! closed-loop slices and timed set-ups, so that every end-to-end metric
//! samples the whole run. With `--trace 0` a run prints the end-to-end
//! metrics; with `--trace 1` it prints the per-layer metrics of a traced
//! window plus an engine-only replay of the same specs. Every run ends with a correctness audit; a
//! run that fails it prints no metrics and exits non-zero. The last line
//! of standard output is one JSON object.

mod drive;
mod metrics;
mod stats;
mod workload;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpd_bench::netbench::{start_tatp_server, NetArgs};
use tpd_engine::{DiskBackend, Row, TableId};
use tpd_metrics::MetricsSnapshot;
use tpd_server::{ServerHandle, WireSpec};
use tpd_workloads::Tatp;

use drive::{engine_phase, wire_phase, Client, End, Replayer, Sample, Tally};
use metrics::{E2e, LayerInputs, Metric, Tails};
use stats::{median, ratio, Window};
use workload::Workload;

const USAGE: &str = "usage: tatpbench --workload NAME --seed N --seconds N --trace 0|1\n\
workloads: tatp-mem, tatp-spill, write-file, tatp-evented-mvcc";

/// Client threads, one connection each.
const CONNS: usize = 2;
/// An untraced run is a sequence of rounds: an open-loop segment of
/// [`SEGMENT_S`], a closed-loop slice of about [`SAT_SLICE_S`], then
/// [`SETUPS_PER_ROUND`] timed set-ups (and as many before the first
/// round). The machine's speed drifts over seconds; spreading each metric's
/// samples over the whole run, rather than running one phase after the
/// other, lets every metric see the same drift, and a burst of load from
/// elsewhere that lasts a few seconds then moves few of the samples the
/// run's value is taken over (see [`stats::median`]). A closed-loop slice
/// is a fixed number of transactions, `SAT_FACTOR` × rate ×
/// [`SAT_SLICE_S`]: the offered rate is about half the closed-loop rate, so
/// a slice lasts about `SAT_SLICE_S`. A fixed count keeps the work of a
/// run, and so its memory, the same from run to run.
const SEGMENT_S: f64 = 0.5;
const SAT_SLICE_S: f64 = 0.25;
const SETUPS_PER_ROUND: usize = 1;
const SAT_FACTOR: f64 = 2.0;
/// Open-loop segments are cut by due time into slices of this length; a
/// latency metric is the median of its slice values.
const SLICE_S: f64 = 0.25;
/// Warmup runs in slices of this length until the pool hit ratio of two
/// consecutive slices differs by at most [`LEVEL`].
const WARM_SLICE_S: f64 = 0.5;
const LEVEL: f64 = 0.005;
/// A run still going after this long is stuck; it exits non-zero.
const WATCHDOG: Duration = Duration::from_secs(170);
/// Where file-backed data directories live, relative to the working dir.
const DATA_ROOT: &str = ".tatpbench-data";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("tatpbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let nproc = pin_to_one_cpu();
    // Not joined on purpose: it lives as long as the process and ends a
    // run that hangs instead of letting it run into the caller's timeout.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("tatpbench: run exceeded {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    let data_root = Path::new(DATA_ROOT).join(std::process::id().to_string());
    let outcome = run(&args, nproc, &data_root);
    let _ = std::fs::remove_dir_all(&data_root);
    let _ = std::fs::remove_dir(DATA_ROOT);
    match outcome {
        Ok(report) => report.print(),
        Err(e) => {
            eprintln!("tatpbench: {}: audit failed: {e}", args.workload.name);
            std::process::exit(1);
        }
    }
}

struct Report {
    header: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn print(&self) {
        for line in &self.header {
            println!("{line}");
        }
        for m in &self.metrics {
            println!(
                "  {:<34} {:>14.6} {:<10} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}

fn net_args(w: &Workload, seed: u64, data_dir: PathBuf) -> NetArgs {
    NetArgs {
        subscribers: w.subscribers,
        seed,
        mode: w.mode,
        concurrency: w.concurrency,
        disk_backend: w.disk,
        data_dir: Some(data_dir),
        ..NetArgs::default()
    }
}

/// Client-side counts of one measured phase.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    issued: u64,
    commits: u64,
    aborts: u64,
    sheds: u64,
}

impl Counts {
    fn failed(&self) -> u64 {
        self.aborts + self.sheds
    }

    fn add(&mut self, o: Counts) {
        self.issued += o.issued;
        self.commits += o.commits;
        self.aborts += o.aborts;
        self.sheds += o.sheds;
    }
}

/// Audit one phase: no protocol errors, so every issued transaction ended
/// as a commit, an abort or a shed; the phase issued all `expected`
/// transactions it scheduled; and the server counted exactly the commits
/// the clients saw.
fn audit_phase(
    phase: &str,
    samples: &[Sample],
    expected: usize,
    win: &Window,
) -> Result<Counts, String> {
    let mut c = Counts::default();
    for s in samples {
        match s.end {
            End::Committed => c.commits += 1,
            End::Aborted => c.aborts += 1,
            End::Shed => c.sheds += 1,
            End::Error => return Err(format!("{phase}: protocol error")),
        }
    }
    c.issued = samples.len() as u64;
    if c.issued != expected as u64 {
        return Err(format!("{phase}: issued {} of {expected} due", c.issued));
    }
    let server_commits = win.counter("txn.commits") as u64;
    if server_commits != c.commits {
        return Err(format!(
            "{phase}: clients saw {} commits, server counted {server_commits}",
            c.commits
        ));
    }
    Ok(c)
}

/// Warm up in slices of `n` transactions until the pool hit ratio levels
/// off. Returns the warmup length and the last slice's hit ratio.
fn warm_up(
    max_s: f64,
    rate: f64,
    mut run: impl FnMut(usize) -> Result<(), String>,
    snapshot: impl Fn() -> MetricsSnapshot,
) -> Result<(f64, f64), String> {
    let per_slice = (rate * WARM_SLICE_S) as usize;
    let mut prev = None;
    for k in 0..(max_s / WARM_SLICE_S).round() as usize {
        let before = snapshot();
        run(per_slice)?;
        let win = Window {
            before,
            after: snapshot(),
        };
        let hits = win.counter("pool.hits");
        let hit = ratio(hits, hits + win.counter("pool.misses"));
        if prev.is_some_and(|p: f64| (hit - p).abs() <= LEVEL) {
            return Ok(((k + 1) as f64 * WARM_SLICE_S, hit));
        }
        prev = Some(hit);
    }
    Err(format!(
        "pool hit ratio did not level off within {max_s} s of warmup"
    ))
}

fn check_no_errors(samples: &[Sample], phase: &str) -> Result<(), String> {
    if samples.iter().any(|s| s.end == End::Error) {
        return Err(format!("{phase}: protocol error"));
    }
    Ok(())
}

/// One measured phase over the wire.
struct Phase {
    tally: Tally,
    counts: Counts,
    elapsed: Duration,
    /// Engine and server counters over the phase.
    win: Window,
}

/// Run `n` transactions over the wire as one audited phase: an open loop
/// at `rate`, or a closed loop when `rate` is `None`.
fn phase(
    name: &str,
    clients: &mut [Client],
    handle: &ServerHandle,
    n: usize,
    rate: Option<f64>,
) -> Result<Phase, String> {
    let before = handle.metrics_snapshot();
    let (tallies, elapsed) = wire_phase(clients, n, rate);
    let win = Window {
        before,
        after: handle.metrics_snapshot(),
    };
    let mut tally = Tally::default();
    for t in tallies {
        tally.samples.extend(t.samples);
        tally.user_bytes += t.user_bytes;
        for (all, mine) in tally.spans.iter_mut().zip(t.spans) {
            all.extend(mine);
        }
    }
    let counts = audit_phase(name, &tally.samples, n, &win)?;
    Ok(Phase {
        tally,
        counts,
        elapsed,
        win,
    })
}

/// Cut a phase's transactions into consecutive slices of `per_slice`
/// scheduled transactions each, by their place in the schedule.
fn slices(samples: &[Sample], per_slice: usize) -> Vec<Vec<Sample>> {
    let mut out: Vec<Vec<Sample>> = Vec::new();
    for s in samples {
        let k = s.seq / per_slice;
        if out.len() <= k {
            out.resize_with(k + 1, Vec::new);
        }
        out[k].push(*s);
    }
    out.retain(|s| !s.is_empty());
    out
}

/// Open-loop segments taken together as one window.
struct Open {
    slices: Vec<Vec<Sample>>,
    tally: Tally,
    counts: Counts,
    /// From the start of the first segment to the end of the last.
    win: Window,
}

fn join(segments: Vec<Phase>, per_slice: usize) -> Open {
    let total = segments.iter().map(|s| s.tally.samples.len()).sum();
    let mut open = Open {
        slices: Vec::new(),
        tally: Tally {
            samples: Vec::with_capacity(total),
            ..Tally::default()
        },
        counts: Counts::default(),
        win: Window::default(),
    };
    let last = segments.len().saturating_sub(1);
    for (k, seg) in segments.into_iter().enumerate() {
        open.slices.extend(slices(&seg.tally.samples, per_slice));
        open.tally.samples.extend(seg.tally.samples);
        open.tally.user_bytes += seg.tally.user_bytes;
        for (all, mine) in open.tally.spans.iter_mut().zip(seg.tally.spans) {
            all.extend(mine);
        }
        open.counts.add(seg.counts);
        if k == 0 {
            open.win.before = seg.win.before;
        }
        if k == last {
            open.win.after = seg.win.after;
        }
    }
    open
}

fn run(args: &Args, nproc: usize, data_root: &Path) -> Result<Report, String> {
    let w = &args.workload;
    let rate = w.rate;
    let seg_n = (rate * SEGMENT_S) as usize;
    let per_slice = (rate * SLICE_S) as usize;
    // An untraced run fills `--seconds` with rounds. A traced run measures
    // three windows (untraced, traced, engine pass), each half as long, so
    // it takes little longer than an untraced one.
    let seconds = args.seconds as f64;
    let rounds = if args.trace {
        (seconds / 2.0 / SEGMENT_S).round().max(1.0) as usize
    } else {
        (seconds / (SEGMENT_S + SAT_SLICE_S)).round().max(1.0) as usize
    };
    let traced_rounds = if args.trace { rounds } else { 0 };
    let sat_n = (SAT_FACTOR * rate * SAT_SLICE_S) as usize;
    let warm_n = (rate * w.max_warmup_s) as usize;
    // The whole stream exists before any timing starts; each connection
    // gets its own share of it, with some to spare because the connections
    // need not split the schedule evenly.
    let need =
        warm_n + seg_n * (rounds + traced_rounds) + if args.trace { 0 } else { sat_n * rounds };
    let specs = workload::spec_stream(w, args.seed, need + need / 8);
    let streams: Vec<Arc<[WireSpec]>> = workload::deal(&specs, CONNS)
        .into_iter()
        .map(Arc::from)
        .collect();
    drop(specs);
    let mut header = vec![format!(
        "tatpbench: workload={} seed={} seconds={} trace={} nproc={nproc}, pinned to one CPU: {} subscribers, \
         {rate} txn/s open loop over {CONNS} connections, each with its own share of the subscribers, \
         {} front end, {}, {} WAL with eager flush",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.subscribers,
        w.mode,
        if w.concurrency == tpd_engine::Concurrency::Mvcc {
            "mvcc"
        } else {
            "s2pl"
        },
        if w.disk == DiskBackend::File {
            "file"
        } else {
            "sim"
        },
    )];

    // Set-up: engine build, TATP install and server start. An untraced
    // run times SETUPS_PER_ROUND of them before the first round and after
    // every round; the one here serves the run.
    let batch = if args.trace { 0 } else { SETUPS_PER_ROUND };
    let mut setup_times = timed_setups(w, args.seed, &data_root.join("setup"), batch)?;
    let wire_args = net_args(w, args.seed, data_root.join("wire"));
    let server = start_tatp_server(&wire_args, None).map_err(|e| format!("server start: {e}"))?;
    let (engine, mut handle, wire) = server;
    let track_writes = w.disk == DiskBackend::File;
    let mut clients = streams
        .iter()
        .map(|specs| Client::connect(handle.local_addr(), wire, track_writes, specs.clone()))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;

    let (warm_s, warm_hit) = warm_up(
        w.max_warmup_s,
        rate,
        |n| {
            let (tallies, _) = wire_phase(&mut clients, n, Some(rate));
            let samples: Vec<Sample> = tallies.into_iter().flat_map(|t| t.samples).collect();
            check_no_errors(&samples, "warmup")
        },
        || handle.metrics_snapshot(),
    )?;
    header.push(format!(
        "warmup: {warm_s:.1} s, pool hit ratio {warm_hit:.4} in its last {WARM_SLICE_S} s"
    ));

    let mut segments = Vec::with_capacity(rounds);
    let mut tps = Vec::new();
    let mut sat = Counts::default();
    for r in 0..rounds {
        segments.push(phase(
            "open loop",
            &mut clients,
            &handle,
            seg_n,
            Some(rate),
        )?);
        if !args.trace {
            let p = phase("closed loop", &mut clients, &handle, sat_n, None)?;
            tps.push(p.counts.commits as f64 / p.elapsed.as_secs_f64());
            sat.add(p.counts);
            let dir = data_root.join(format!("setup-{r}"));
            setup_times.extend(timed_setups(w, args.seed, &dir, batch)?);
        }
    }
    let open = join(segments, per_slice);
    let mut attempted = open.counts.issued + sat.issued;
    let mut failed = open.counts.failed() + sat.failed();
    if !args.trace {
        let rates: Vec<String> = tps.iter().map(|r| format!("{r:.0}")).collect();
        header.push(format!(
            "closed loop: {} commits of {} issued; commits/s in slices of {sat_n} [{}]",
            sat.commits,
            sat.issued,
            rates.join(" ")
        ));
    }

    let mut traced = None;
    if args.trace {
        // Where each connection's stream stands when the traced window
        // starts: the engine pass replays the streams from there.
        let from: Vec<usize> = clients.iter().map(Client::position).collect();
        for c in clients.iter_mut() {
            c.trace = true;
        }
        let mut segments = Vec::with_capacity(traced_rounds);
        for _ in 0..traced_rounds {
            segments.push(phase(
                "traced open loop",
                &mut clients,
                &handle,
                seg_n,
                Some(rate),
            )?);
        }
        let t = join(segments, per_slice);
        attempted += t.counts.issued;
        failed += t.counts.failed();
        traced = Some((t, from));
    }

    // Wind down: close the connections, then audit the server's state.
    let acked: Vec<HashMap<(u32, u64), Row>> = clients
        .iter_mut()
        .map(|c| std::mem::take(&mut c.acked))
        .collect();
    drop(clients);
    let quiet = Instant::now();
    while handle.open_conns() > 0 && quiet.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown();
    if handle.protocol_errors() > 0 {
        return Err(format!(
            "server counted {} protocol errors",
            handle.protocol_errors()
        ));
    }
    let outstanding = engine.locks().outstanding();
    if outstanding != (0, 0) {
        return Err(format!(
            "leaked lock entries (granted, waiting) = {outstanding:?}"
        ));
    }
    if engine.active_snapshots() != 0 {
        return Err(format!(
            "{} snapshot pins leaked",
            engine.active_snapshots()
        ));
    }
    drop(handle);
    drop(engine);
    if w.disk == DiskBackend::File {
        let rows = check_restart(&wire_args, &acked)?;
        header.push(format!(
            "restart: {rows} written rows reopened, each holds the row an acknowledged write stored last"
        ));
    }

    let tails = Tails::of(&open.slices, &open.tally.samples);
    let metrics = match traced {
        None => {
            header.extend(tails.lines());
            metrics::end_to_end(&E2e {
                p50: metrics::by_class(&open.slices, 0.5)?,
                sat_tps: median(&mut tps),
                sat_note: format!(
                    "closed loop commits/s, median of {} slices of {sat_n} txns",
                    tps.len()
                ),
                commits: open.counts.commits,
                issued: open.counts.issued,
                setup_s: median(&mut setup_times),
                setups: setup_times.len(),
                peak_rss_mb: peak_rss_mb(),
            })
        }
        Some((t, from)) => {
            let n = seg_n * traced_rounds;
            let engine_samples = engine_pass(w, rate, args.seed, data_root, &streams, &from, n)?;
            let untraced_p50 = metrics::sliced_latency(&open.slices, |_| true, 0.5)?.ms;
            let traced_p50 = metrics::sliced_latency(&t.slices, |_| true, 0.5)?.ms;
            metrics::per_layer(&LayerInputs {
                samples: t.tally.samples,
                spans: t.tally.spans,
                user_bytes: t.tally.user_bytes,
                win: t.win,
                engine: engine_samples,
                overhead_ratio: ratio(traced_p50, untraced_p50),
                tails,
            })
        }
    };
    Ok(Report {
        header,
        attempted,
        failed,
        metrics,
    })
}

/// Set up `n` servers one after another, dropping each, and return each
/// set-up's seconds.
fn timed_setups(w: &Workload, seed: u64, dir: &Path, n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|k| {
            let na = net_args(w, seed, dir.join(k.to_string()));
            let t = Instant::now();
            let server = start_tatp_server(&na, None).map_err(|e| format!("server start: {e}"))?;
            let secs = t.elapsed().as_secs_f64();
            drop(server);
            Ok(secs)
        })
        .collect()
}

/// Replay `n` transactions in-process on a fresh, identically configured
/// engine, after the same warmup: one thread per connection, each taking
/// its connection's stream from where it stood when the traced window
/// started (`from`).
fn engine_pass(
    w: &Workload,
    rate: f64,
    seed: u64,
    data_root: &Path,
    streams: &[Arc<[WireSpec]>],
    from: &[usize],
    n: usize,
) -> Result<Vec<Sample>, String> {
    let na = net_args(w, seed, data_root.join("engine"));
    let (engine, handle, _) =
        start_tatp_server(&na, None).map_err(|e| format!("engine pass: {e}"))?;
    drop(handle);
    let tatp = Tatp::attach(&engine, w.subscribers).ok_or("engine pass: TATP tables missing")?;
    let mut replayers: Vec<Replayer> = streams.iter().map(Replayer::new).collect();
    warm_up(
        w.max_warmup_s,
        rate,
        |n| {
            check_no_errors(
                &engine_phase(&engine, &tatp, &mut replayers, n, rate),
                "engine warmup",
            )
        },
        || engine.metrics_snapshot(),
    )?;
    for (r, &at) in replayers.iter_mut().zip(from) {
        r.next = at;
    }
    let out = engine_phase(&engine, &tatp, &mut replayers, n, rate);
    check_no_errors(&out, "engine pass")?;
    Ok(out)
}

/// Reopen the data dir through the server's restart path and check that
/// every row a connection wrote holds the last row image that some
/// connection's acknowledged writes stored there. Under strict 2PL the last
/// commit to a row is the last one its own connection made to it. Returns
/// how many rows were checked.
fn check_restart(na: &NetArgs, acked: &[HashMap<(u32, u64), Row>]) -> Result<usize, String> {
    let (engine, handle, _) = start_tatp_server(na, None).map_err(|e| format!("restart: {e}"))?;
    drop(handle);
    let mut keys: Vec<(u32, u64)> = acked.iter().flat_map(|m| m.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    for &(table, key) in &keys {
        let found = engine.catalog().table(TableId(table)).get(key);
        let ok = acked.iter().any(|m| {
            m.get(&(table, key))
                .is_some_and(|row| Some(row) == found.as_ref())
        });
        if !ok {
            return Err(format!(
                "restart: table {table} key {key} holds {found:?}, which no acknowledged write stored last"
            ));
        }
    }
    if keys.is_empty() {
        return Err("restart: the run acknowledged no writes".to_string());
    }
    Ok(keys.len())
}

/// A CPU set as the kernel reads it: one bit per CPU, 1,024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pin this thread, and so every thread it later starts (clients, server,
/// engine), to the last CPU it may run on. Run on both CPUs of a shared
/// 2-vCPU machine, each request hands off between threads on different
/// vCPUs, and waking a vCPU waits for the host: when other tenants were
/// busy, the median latency rose from 0.10 to 0.3 ms. On one CPU a hand-off
/// is a context switch, and the closed-loop rate was no lower. Returns the
/// number of CPUs the process could use before.
fn pin_to_one_cpu() -> usize {
    let mut allowed: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: pid 0 names the calling thread; the kernel writes at most
    // `size` bytes into `allowed`, which is live and that large.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        eprintln!("tatpbench: could not read the CPU set; running unpinned");
        return std::thread::available_parallelism().map_or(1, |n| n.get());
    }
    let n = allowed.iter().map(|w| w.count_ones() as usize).sum();
    let last = (0..size * 8)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1);
    if let Some(cpu) = last {
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: as above; the kernel only reads `size` bytes of `one`.
        if unsafe { sched_setaffinity(0, size, &one) } != 0 {
            eprintln!("tatpbench: could not pin to CPU {cpu}; running unpinned");
        }
    }
    n
}

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut u = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable `struct rusage`; the call only
    // writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    if rc != 0 {
        return 0.0;
    }
    // Linux reports `ru_maxrss` in KiB.
    u.maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse() {
        let a = parse(&[
            "--workload",
            "write-file",
            "--seed",
            "9",
            "--seconds",
            "4",
            "--trace",
            "1",
        ])
        .expect("parse");
        assert_eq!(a.workload.name, "write-file");
        assert_eq!((a.seed, a.seconds, a.trace), (9, 4, true));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err(), "workload is required");
        assert!(parse(&["--workload", "tatp-mem", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "tatp-mem", "--bogus", "1"]).is_err());
    }
}
