//! The four workloads and their seeded spec streams.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tpd_common::dist::KeyDist;
use tpd_engine::{Concurrency, DiskBackend};
use tpd_server::wire_tatp::{txn_type, SF_PER_SUB};
use tpd_server::{ServerMode, WireSpec, WireTatp};

/// Which transaction mix a workload draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// The standard TATP mix (80% read-only), uniform subscribers.
    Standard,
    /// 80% read-modify-write (50% UPD_LOCATION, 20% UPD_SUBSCRIBER,
    /// 10% DEL_CALL_FWD) plus 20% GET_SUBSCRIBER, Zipf-skewed subscribers.
    WriteHeavy { theta: f64 },
}

/// One benchmark workload: traffic plus the server configuration it runs on.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub subscribers: u64,
    /// Offered rate of the open-loop phase, txn/s.
    pub rate: f64,
    pub mode: ServerMode,
    pub concurrency: Concurrency,
    pub disk: DiskBackend,
    pub mix: Mix,
    /// Most warmup the pool gets to level off, seconds.
    pub max_warmup_s: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tatp-mem",
        subscribers: 1_000,
        rate: 8_000.0,
        mode: ServerMode::Threads,
        concurrency: Concurrency::S2pl,
        disk: DiskBackend::Sim,
        mix: Mix::Standard,
        max_warmup_s: 3.0,
    },
    Workload {
        name: "tatp-spill",
        subscribers: 20_000,
        rate: 5_500.0,
        mode: ServerMode::Threads,
        concurrency: Concurrency::S2pl,
        disk: DiskBackend::Sim,
        mix: Mix::Standard,
        max_warmup_s: 6.0,
    },
    Workload {
        name: "write-file",
        subscribers: 1_000,
        rate: 1_000.0,
        mode: ServerMode::Threads,
        concurrency: Concurrency::S2pl,
        disk: DiskBackend::File,
        mix: Mix::WriteHeavy { theta: 0.9 },
        max_warmup_s: 3.0,
    },
    Workload {
        name: "tatp-evented-mvcc",
        subscribers: 1_000,
        rate: 5_500.0,
        mode: ServerMode::Evented,
        concurrency: Concurrency::Mvcc,
        disk: DiskBackend::Sim,
        mix: Mix::Standard,
        max_warmup_s: 3.0,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Whether a transaction type writes (and so commits through the WAL).
pub fn is_rw(ty: u8) -> bool {
    use txn_type::*;
    matches!(
        ty,
        UPD_SUBSCRIBER | UPD_LOCATION | INS_CALL_FWD | DEL_CALL_FWD
    )
}

/// The first `n` transactions of the workload's stream for `seed`. The
/// whole run draws from this one vector, generated before any timing.
pub fn spec_stream(w: &Workload, seed: u64, n: usize) -> Vec<WireSpec> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7A7B_BE4C);
    match w.mix {
        Mix::Standard => {
            let wire = WireTatp::fresh_install(w.subscribers);
            (0..n).map(|_| wire.sample(&mut rng)).collect()
        }
        Mix::WriteHeavy { theta } => {
            let keys = KeyDist::zipfian(w.subscribers, theta);
            (0..n)
                .map(|_| {
                    use txn_type::*;
                    let ty = match rng.gen_range(0..100) {
                        0..=49 => UPD_LOCATION,
                        50..=69 => UPD_SUBSCRIBER,
                        70..=79 => DEL_CALL_FWD,
                        _ => GET_SUBSCRIBER,
                    };
                    WireSpec {
                        ty,
                        s: keys.sample(&mut rng),
                        sf: rng.gen_range(0..SF_PER_SUB),
                        val: rng.gen_range(0..1000),
                    }
                })
                .collect()
        }
    }
}

/// Deal `specs` round-robin to `conns` connections and move each spec's
/// subscriber into its connection's share (subscribers `k`, `k + conns`,
/// ...; `subscribers` must be a multiple of `conns`). No two connections
/// then touch the same row, so no transaction waits for a lock another
/// connection holds and none aborts: under strict 2PL two read-then-write
/// transactions on one subscriber deadlock on the S→X upgrade, and the
/// benchmark does not retry. The mix and the key skew within each share
/// are those of the stream.
pub fn deal(specs: &[WireSpec], conns: usize) -> Vec<Vec<WireSpec>> {
    let n = conns as u64;
    (0..conns)
        .map(|k| {
            specs
                .iter()
                .skip(k)
                .step_by(conns)
                .map(|s| WireSpec {
                    s: s.s - s.s % n + k as u64,
                    ..*s
                })
                .collect()
        })
        .collect()
}

/// The stream as bytes, for comparing two streams exactly.
#[cfg(test)]
fn encode(specs: &[WireSpec]) -> Vec<u8> {
    let mut out = Vec::with_capacity(specs.len() * 25);
    for s in specs {
        out.push(s.ty);
        out.extend_from_slice(&s.s.to_le_bytes());
        out.extend_from_slice(&s.sf.to_le_bytes());
        out.extend_from_slice(&s.val.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_gives_a_byte_identical_stream() {
        for w in &WORKLOADS {
            let a = encode(&spec_stream(w, 7, 5_000));
            let b = encode(&spec_stream(w, 7, 5_000));
            assert_eq!(a, b, "{}", w.name);
            let c = encode(&spec_stream(w, 8, 5_000));
            assert_ne!(a, c, "{}: another seed gives another stream", w.name);
        }
    }

    #[test]
    fn dealt_streams_share_no_subscriber() {
        for w in &WORKLOADS {
            let specs = spec_stream(w, 5, 20_000);
            let dealt = deal(&specs, 2);
            assert_eq!(encode(&dealt[0]), encode(&deal(&specs, 2)[0]));
            for (k, stream) in dealt.iter().enumerate() {
                assert_eq!(stream.len(), 10_000);
                assert!(stream
                    .iter()
                    .all(|s| s.s % 2 == k as u64 && s.s < w.subscribers));
            }
            let types = |v: &[WireSpec]| v.iter().map(|s| s.ty).collect::<Vec<_>>();
            let merged: Vec<u8> = (0..20_000).map(|i| dealt[i % 2][i / 2].ty).collect();
            assert_eq!(merged, types(&specs), "{}: the mix is the stream's", w.name);
        }
    }

    #[test]
    fn write_file_mix_and_skew() {
        let w = find("write-file").expect("workload");
        let n = 100_000;
        let specs = spec_stream(&w, 3, n);
        let frac = |ty: u8| specs.iter().filter(|s| s.ty == ty).count() as f64 / n as f64;
        assert!((frac(txn_type::UPD_LOCATION) - 0.50).abs() < 0.01);
        assert!((frac(txn_type::UPD_SUBSCRIBER) - 0.20).abs() < 0.01);
        assert!((frac(txn_type::DEL_CALL_FWD) - 0.10).abs() < 0.01);
        assert!((frac(txn_type::GET_SUBSCRIBER) - 0.20).abs() < 0.01);
        let rw = specs.iter().filter(|s| is_rw(s.ty)).count() as f64 / n as f64;
        assert!((rw - 0.80).abs() < 0.01);

        // Zipf θ=0.9 over 1,000 keys: key k has weight (k+1)^-0.9 / ζ(1000, 0.9).
        let zeta: f64 = (1..=1000).map(|i| (i as f64).powf(-0.9)).sum();
        let share = |lo: u64, hi: u64| {
            specs.iter().filter(|s| (lo..hi).contains(&s.s)).count() as f64 / n as f64
        };
        let hottest = share(0, 1);
        assert!((hottest - 1.0 / zeta).abs() < 0.01, "key 0 share {hottest}");
        let top10: f64 = (1..=10).map(|i| (i as f64).powf(-0.9)).sum::<f64>() / zeta;
        assert!((share(0, 10) - top10).abs() < 0.02, "top-10 share");
        assert!(specs.iter().all(|s| s.s < 1000 && s.sf < SF_PER_SUB));
    }

    #[test]
    fn standard_mix_is_eighty_percent_read_only() {
        let w = find("tatp-mem").expect("workload");
        let specs = spec_stream(&w, 1, 50_000);
        let ro = specs.iter().filter(|s| !is_rw(s.ty)).count() as f64 / 50_000.0;
        assert!((ro - 0.80).abs() < 0.01);
        assert!(specs.iter().all(|s| s.s < 1000));
    }
}
