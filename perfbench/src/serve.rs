//! The `resp_serve` workload: `papyrus_serve::run_serve` at two ranks,
//! balanced mix, zipfian keys. Each round sweeps the offered rate to find
//! the highest one whose command p99 stays within [`P99_LIMIT_NS`], then
//! measures latency at a fixed rate just below that knee.

use std::time::Instant;

use papyrus_serve::{run_serve, LoadMix, LoadSkew, ServeCfg, ServeReport};

use crate::{host, RANKS};

/// The latency limit on command p99 (virtual time).
pub const P99_LIMIT_NS: u64 = 2_000_000;
/// Connections, bursts per connection and commands per burst, per rank.
const CONNS: u32 = 1024;
const BURSTS: u32 = 2;
const PIPELINE: u32 = 4;
const CMDS_PER_RANK: u64 = (CONNS * BURSTS * PIPELINE) as u64;
/// The fixed-rate point: eight times the sweep's commands over a 3.6 s
/// window, about 18k commands per rank per virtual second, just below the
/// knee the sweep finds (its longer window keeps its p99 far below the
/// limit). The larger sample steadies its p99. Lighter loads leave the
/// write median at the group-commit path's constant cost on every seed.
const FIXED_BURSTS: u32 = 8 * BURSTS;
const FIXED_MS: u64 = 3600;
/// The sweep's starting bracket on the arrival window; the bisection widens
/// it if the knee lies outside and stops once the ends are within 3%.
const SWEEP_MS: (u64, u64) = (300, 700);
/// The longest window the sweep tries: 0.5k commands per second.
const SWEEP_MAX_MS: u64 = 16_000;

pub const KEYS_PER_RANK: u64 = 1024;
pub const VALLEN: usize = 64;
/// User bytes one SET writes: a 16-byte serve key and its value.
pub const WRITE_BYTES: u64 = 16 + VALLEN as u64;

fn cfg(seed: u64, duration_ms: u64) -> ServeCfg {
    ServeCfg {
        ranks: RANKS,
        conns_per_rank: CONNS,
        pipeline: PIPELINE,
        bursts: BURSTS,
        duration_ms,
        keys_per_rank: KEYS_PER_RANK,
        vallen: VALLEN,
        mix: LoadMix::Balanced,
        skew: LoadSkew::Zipfian,
        seed,
        seed_bug: None,
    }
}

/// One `run_serve` call with its host cost and its checks.
pub struct Call {
    pub report: ServeReport,
    pub host_s: f64,
    /// Process CPU seconds (user, system) over the call.
    pub cpu_s: (f64, f64),
    pub issued: u64,
    /// Why the call's outputs are wrong, if they are.
    pub fault: Option<String>,
}

fn call(seed: u64, duration_ms: u64, conns: u32, bursts: u32, pipeline: u32) -> Call {
    let c = ServeCfg { conns_per_rank: conns, bursts, pipeline, ..cfg(seed, duration_ms) };
    let issued = RANKS as u64 * (conns * bursts * pipeline) as u64;
    let cpu0 = host::cpu_s();
    let h = Instant::now();
    let report = run_serve(&c);
    let host_s = h.elapsed().as_secs_f64();
    let cpu1 = host::cpu_s();
    let replies: u64 = [&report.read, &report.write, &report.admin]
        .iter()
        .filter_map(|l| l.as_ref().map(|l| l.count))
        .sum();
    let fault = if !report.clean() {
        Some(format!("serve oracles: {:?}", report.violation_example))
    } else if report.total_cmds() != issued {
        Some(format!("{} commands executed, {issued} issued", report.total_cmds()))
    } else if replies != issued {
        Some(format!("{replies} replies to {issued} commands"))
    } else {
        None
    };
    Call { report, host_s, cpu_s: (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1), issued, fault }
}

/// Command p99: the slower of the read and write classes.
fn p99(r: &ServeReport) -> u64 {
    let read = r.read.as_ref().map_or(0, |l| l.p99_ns);
    let write = r.write.as_ref().map_or(0, |l| l.p99_ns);
    read.max(write)
}

fn full(seed: u64, duration_ms: u64) -> Call {
    call(seed, duration_ms, CONNS, BURSTS, PIPELINE)
}

/// The sweep: bisect on the arrival window for the shortest one (highest
/// offered rate) whose command p99 meets the limit. Returns that rate in
/// commands per virtual second per serving window; `each` sees every call
/// as soon as it returns.
pub fn sweep(seed: u64, mut each: impl FnMut(&Call)) -> f64 {
    let (mut lo, mut hi) = SWEEP_MS;
    let mut meets = |ms: u64| {
        let c = full(seed, ms);
        each(&c);
        p99(&c.report) <= P99_LIMIT_NS
    };
    while !meets(hi) {
        if hi >= SWEEP_MAX_MS {
            return CMDS_PER_RANK as f64 * 1e3 / hi as f64;
        }
        lo = hi;
        hi *= 2;
    }
    while lo > 1 && meets(lo) {
        hi = lo;
        lo /= 2;
    }
    while hi * 100 > lo * 103 {
        let mid = ((lo as f64 * hi as f64).sqrt() as u64).clamp(lo + 1, hi - 1);
        if meets(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    CMDS_PER_RANK as f64 * 1e3 / hi as f64
}

/// The fixed-rate point.
pub fn fixed(seed: u64) -> Call {
    call(seed, FIXED_MS, CONNS, FIXED_BURSTS, PIPELINE)
}

/// `run_serve`'s own fixed cost: world, runtime, load and settle, with one
/// connection sending one command.
pub fn minimal(seed: u64) -> Call {
    call(seed, 1, 1, 1, 1)
}
