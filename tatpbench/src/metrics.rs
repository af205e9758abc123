//! The metrics a run prints: end-to-end from an untraced run, per layer
//! from a traced one. `BENCHMARK.json` lists the same names.

use tpd_metrics::HistogramSnapshot;

use crate::drive::{End, Op, Sample};
use crate::stats::{median, percentile, ratio, Window, MIN_BEYOND};
use crate::workload::is_rw;

/// One printed metric; `note` carries its sample count or its base.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub note: String,
}

fn metric(name: &'static str, unit: &'static str, value: f64, note: String) -> Metric {
    Metric {
        name,
        unit,
        value,
        note,
    }
}

/// The `q`-quantile latency (from due time) of committed transactions
/// whose type passes `keep`, in ms, with its sample count.
pub fn latency_ms(
    samples: &[Sample],
    keep: impl Fn(u8) -> bool,
    q: f64,
) -> Result<(f64, usize), String> {
    let mut v: Vec<u64> = samples
        .iter()
        .filter(|s| s.end == End::Committed && keep(s.ty))
        .map(|s| s.lat_ns)
        .collect();
    v.sort_unstable();
    percentile(&v, q)
        .map(|ns| (ns as f64 / 1e6, v.len()))
        .ok_or_else(|| format!("{} samples are too few for the {q} quantile", v.len()))
}

/// A latency quantile taken in each slice of a window.
#[derive(Debug, Default)]
pub struct Sliced {
    /// Median of the slice values, ms.
    pub ms: f64,
    /// Samples over all slices.
    pub n: usize,
    /// Each slice's value, ms.
    pub slices: Vec<f64>,
}

/// The `q`-quantile latency of each slice, and the median of those
/// values. A slice too small to resolve the quantile is pooled with
/// the slices after it; an unresolved tail joins the last group.
pub fn sliced_latency(
    slices: &[Vec<Sample>],
    keep: impl Fn(u8) -> bool + Copy,
    q: f64,
) -> Result<Sliced, String> {
    let mut groups: Vec<Vec<Sample>> = Vec::new();
    let mut cur = Vec::new();
    for s in slices {
        cur.extend_from_slice(s);
        if latency_ms(&cur, keep, q).is_ok() {
            groups.push(std::mem::take(&mut cur));
        }
    }
    match groups.last_mut() {
        Some(g) => g.append(&mut cur),
        None => groups.push(cur),
    }
    let values = groups
        .iter()
        .map(|g| latency_ms(g, keep, q).map(|(ms, _)| ms))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(Sliced {
        ms: median(&mut values.clone()),
        n: groups
            .iter()
            .flatten()
            .filter(|s| s.end == End::Committed && keep(s.ty))
            .count(),
        slices: values,
    })
}

/// Which transaction types a class keeps.
type Keep = fn(u8) -> bool;

/// The three transaction classes a latency is reported for.
const CLASSES: [(&str, Keep); 3] = [("txn", |_| true), ("ro", |ty| !is_rw(ty)), ("rw", is_rw)];

/// One quantile of every class, median over slices.
pub fn by_class(slices: &[Vec<Sample>], q: f64) -> Result<[Sliced; 3], String> {
    let [a, b, c] = CLASSES.map(|(_, keep)| sliced_latency(slices, keep, q));
    Ok([a?, b?, c?])
}

fn slice_note(l: &Sliced) -> String {
    if l.slices.is_empty() {
        return format!("n={}, too few", l.n);
    }
    let v: Vec<String> = l.slices.iter().map(|x| format!("{x:.3}")).collect();
    format!("n={}, median of {} slices [{}]", l.n, v.len(), v.join(" "))
}

/// Tail latency of a window: p99 per class, median over slices, and the
/// p99 of all transactions pooled over the whole window.
#[derive(Debug, Default)]
pub struct Tails {
    pub p99: [Sliced; 3],
    pub pooled_ms: f64,
}

impl Tails {
    /// A class too small to resolve its p99 reads 0 and is marked so.
    pub fn of(slices: &[Vec<Sample>], all: &[Sample]) -> Tails {
        let p99 = CLASSES.map(|(_, keep)| {
            sliced_latency(slices, keep, 0.99).unwrap_or_else(|_| Sliced {
                n: all
                    .iter()
                    .filter(|s| s.end == End::Committed && keep(s.ty))
                    .count(),
                ..Sliced::default()
            })
        });
        Tails {
            p99,
            pooled_ms: latency_ms(all, |_| true, 0.99).map_or(0.0, |(ms, _)| ms),
        }
    }

    /// Human-readable lines: the tails are printed on every run.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = CLASSES
            .iter()
            .zip(&self.p99)
            .map(|((class, _), l)| format!("tail: {class}_p99_ms {:.6} ({})", l.ms, slice_note(l)))
            .collect();
        out.push(format!(
            "tail: txn_p99_ms pooled over the window {:.6}",
            self.pooled_ms
        ));
        out
    }
}

/// Inputs of the end-to-end metrics.
#[derive(Debug, Default)]
pub struct E2e {
    /// p50 of all, read-only and read-write transactions.
    pub p50: [Sliced; 3],
    pub sat_tps: f64,
    pub sat_note: String,
    pub commits: u64,
    pub issued: u64,
    pub setup_s: f64,
    pub setups: usize,
    pub peak_rss_mb: f64,
}

pub fn end_to_end(e: &E2e) -> Vec<Metric> {
    let fails = e.issued - e.commits;
    vec![
        metric("txn_p50_ms", "ms", e.p50[0].ms, slice_note(&e.p50[0])),
        metric("ro_p50_ms", "ms", e.p50[1].ms, slice_note(&e.p50[1])),
        metric("rw_p50_ms", "ms", e.p50[2].ms, slice_note(&e.p50[2])),
        metric("sat_tps", "1/s", e.sat_tps, e.sat_note.clone()),
        metric(
            "commit_ratio",
            "ratio",
            ratio(e.commits as f64, e.issued as f64),
            format!(
                "= {} / {} issued; fail_ratio {:.6} = {fails} aborted or shed / {} issued",
                e.commits,
                e.issued,
                ratio(fails as f64, e.issued as f64),
                e.issued
            ),
        ),
        metric("setup_s", "s", e.setup_s, format!("median of {}", e.setups)),
        metric("peak_rss_mb", "MB", e.peak_rss_mb, String::new()),
    ]
}

/// Inputs of the per-layer metrics.
#[derive(Default)]
pub struct LayerInputs {
    /// The traced window's transactions.
    pub samples: Vec<Sample>,
    /// The traced window's wire-call durations, ns, by op.
    pub spans: [Vec<u64>; 5],
    pub user_bytes: u64,
    /// Engine and server counters over the traced window.
    pub win: Window,
    /// The engine-only replay of the same specs.
    pub engine: Vec<Sample>,
    pub overhead_ratio: f64,
    /// Tail latency of the untraced window.
    pub tails: Tails,
}

/// A quantile of raw ns samples scaled by `1/div`, or 0 when fewer than
/// [`MIN_BEYOND`] samples lie beyond it; the note says which.
fn quantile(mut v: Vec<u64>, q: f64, div: f64) -> (f64, String) {
    v.sort_unstable();
    match percentile(&v, q) {
        Some(x) => (x as f64 / div, format!("n={}", v.len())),
        None => (0.0, format!("n={}, too few", v.len())),
    }
}

/// [`quantile`] for a recorded histogram.
fn hist_quantile(h: &HistogramSnapshot, q: f64, div: f64) -> (f64, String) {
    let rank = (q * h.count as f64).ceil() as u64;
    if h.count == 0 || h.count - rank.min(h.count) < MIN_BEYOND as u64 {
        return (0.0, format!("n={}, too few", h.count));
    }
    (h.quantile(q) as f64 / div, format!("n={}", h.count))
}

fn per(num: f64, base: f64, what: &str) -> (f64, String) {
    (ratio(num, base), format!("= {num} / {base} {what}"))
}

fn committed_svc(samples: &[Sample], ty: Option<u8>) -> Vec<u64> {
    samples
        .iter()
        .filter(|s| s.end == End::Committed && ty.is_none_or(|t| s.ty == t))
        .map(|s| s.svc_ns)
        .collect()
}

/// Wire transaction time minus engine-pass transaction time at the
/// median, per type, averaged with the wire window's type counts.
fn server_self_us(l: &LayerInputs) -> (f64, String) {
    let (mut sum, mut weight) = (0.0, 0usize);
    for ty in 0..7u8 {
        let mut wire = committed_svc(&l.samples, Some(ty));
        let mut engine = committed_svc(&l.engine, Some(ty));
        wire.sort_unstable();
        engine.sort_unstable();
        if let (Some(a), Some(b)) = (percentile(&wire, 0.5), percentile(&engine, 0.5)) {
            sum += (a as f64 - b as f64) / 1e3 * wire.len() as f64;
            weight += wire.len();
        }
    }
    (
        ratio(sum, weight as f64),
        format!("over {weight} wire txns"),
    )
}

pub fn per_layer(l: &LayerInputs) -> Vec<Metric> {
    let w = &l.win;
    let issued = l.samples.len() as f64;
    let commits = w.counter("txn.commits");
    // Generator lateness: how late a thread that slept until a due time
    // woke up. Time spent waiting for a free connection is the server's.
    let lag: Vec<u64> = l
        .samples
        .iter()
        .filter(|s| s.slept)
        .map(|s| s.lag_ns)
        .collect();
    let span = |op: Op, q: f64| quantile(l.spans[op as usize].clone(), q, 1e3);
    let hits = w.counter("pool.hits");
    let wal_batch = w.hist("wal.group_commit_batch");
    let fsync = w.hist("wal.fsync_ns");
    let t = &l.tails;
    let out: Vec<(&'static str, &'static str, (f64, String))> = vec![
        ("e2e.txn_p99_ms", "ms", (t.p99[0].ms, slice_note(&t.p99[0]))),
        ("e2e.ro_p99_ms", "ms", (t.p99[1].ms, slice_note(&t.p99[1]))),
        ("e2e.rw_p99_ms", "ms", (t.p99[2].ms, slice_note(&t.p99[2]))),
        (
            "e2e.txn_p99_pooled_ms",
            "ms",
            (t.pooled_ms, "over the whole window".into()),
        ),
        (
            "client.send_lag_ms.p50",
            "ms",
            quantile(lag.clone(), 0.5, 1e6),
        ),
        ("client.send_lag_ms.p99", "ms", quantile(lag, 0.99, 1e6)),
        ("server.begin_us.p50", "us", span(Op::Begin, 0.5)),
        ("server.read_us.p50", "us", span(Op::Read, 0.5)),
        ("server.update_us.p50", "us", span(Op::Update, 0.5)),
        ("server.commit_us.p50", "us", span(Op::Commit, 0.5)),
        ("server.commit_us.p99", "us", span(Op::Commit, 0.99)),
        ("server.self_us.p50", "us", server_self_us(l)),
        (
            "server.admission_wait_us.p99",
            "us",
            hist_quantile(&w.hist("server.admission_wait_ns"), 0.99, 1e3),
        ),
        (
            "server.reactor_wakeups_per_txn",
            "1/txn",
            per(w.counter("server.reactor_wakeups"), issued, "issued"),
        ),
        (
            "server.shed_ratio",
            "ratio",
            per(w.counter("server.shed_total"), issued, "issued"),
        ),
        (
            "engine.txn_us.p50",
            "us",
            quantile(committed_svc(&l.engine, None), 0.5, 1e3),
        ),
        (
            "engine.txn_us.p99",
            "us",
            quantile(committed_svc(&l.engine, None), 0.99, 1e3),
        ),
        (
            "engine.abort_ratio",
            "ratio",
            per(
                w.counter("txn.aborts"),
                w.counter("txn.aborts") + commits,
                "ended",
            ),
        ),
        (
            "engine.snapshot_reads_per_txn",
            "1/txn",
            per(w.counter("mvcc.snapshot_reads"), issued, "issued"),
        ),
        (
            "lock.acquires_per_txn",
            "1/txn",
            per(w.counter("lock.acquires"), issued, "issued"),
        ),
        (
            "lock.wait_ratio",
            "ratio",
            per(
                w.counter("lock.waits"),
                w.counter("lock.acquires"),
                "acquires",
            ),
        ),
        (
            "lock.wait_us.p99",
            "us",
            hist_quantile(&w.hist("lock.wait_ns"), 0.99, 1e3),
        ),
        (
            "lock.deadlocks_per_ktxn",
            "1/ktxn",
            per(w.counter("lock.deadlocks") * 1e3, issued, "issued (x1000)"),
        ),
        (
            "pool.hit_ratio",
            "ratio",
            per(hits, hits + w.counter("pool.misses"), "accesses"),
        ),
        (
            "pool.evictions_per_txn",
            "1/txn",
            per(w.counter("pool.evictions"), issued, "issued"),
        ),
        (
            "pool.dirty_writebacks_per_txn",
            "1/txn",
            per(w.counter("pool.dirty_writebacks"), issued, "issued"),
        ),
        (
            "pool.mutex_wait_us_per_txn",
            "us",
            per(
                w.counter("pool.mutex_wait_ns_total") / 1e3,
                issued,
                "issued",
            ),
        ),
        (
            "wal.flushes_per_commit",
            "1/commit",
            per(w.counter("wal.flushes"), commits, "commits"),
        ),
        (
            "wal.group_commit_batch.mean",
            "commits",
            (wal_batch.mean(), format!("n={} flushes", wal_batch.count)),
        ),
        ("wal.fsync_us.p50", "us", hist_quantile(&fsync, 0.5, 1e3)),
        ("wal.fsync_us.p99", "us", hist_quantile(&fsync, 0.99, 1e3)),
        (
            "wal.reserve_us.p99",
            "us",
            hist_quantile(&w.hist("wal.reserve_ns"), 0.99, 1e3),
        ),
        (
            "wal.commit_wait_us_per_commit",
            "us",
            per(
                w.counter("wal.commit_wait_ns_total") / 1e3,
                commits,
                "commits",
            ),
        ),
        (
            "wal.bytes_per_user_byte",
            "B/B",
            per(
                w.counter("wal.bytes_appended"),
                l.user_bytes as f64,
                "row bytes written",
            ),
        ),
        (
            "trace.overhead_ratio",
            "ratio",
            (l.overhead_ratio, "traced / untraced txn_p50_ms".into()),
        ),
    ];
    out.into_iter()
        .map(|(name, unit, (value, note))| metric(name, unit, value, note))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of one array of `BENCHMARK.json`.
    fn listed(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    fn names(ms: &[Metric]) -> Vec<String> {
        ms.iter().map(|m| m.name.to_string()).collect()
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_listed_name_is_printed_and_valid() {
        let e2e = end_to_end(&E2e::default());
        let layers = per_layer(&LayerInputs::default());
        assert_eq!(names(&e2e), listed("end_to_end"));
        assert_eq!(names(&layers), listed("per_layer"));
        for m in e2e.iter().chain(&layers) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
            assert!(
                m.value.is_finite(),
                "{} is not finite on empty input",
                m.name
            );
        }
    }

    #[test]
    fn empty_windows_give_zero_not_nan() {
        for m in per_layer(&LayerInputs::default()) {
            assert_eq!(m.value, 0.0, "{}", m.name);
        }
    }
}
