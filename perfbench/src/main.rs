//! perfbench: one workload per process, measured on both clocks.
//!
//! ```text
//! perfbench --workload <bulk_load_get|update_mix|checkpoint_restart|resp_serve>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones,
//! and the run also writes Chrome traces under `.perfbench_out/`.

mod engine;
mod gen;
mod host;
mod layers;
mod model;
mod serve;
mod stats;
mod trace;

use std::time::Instant;

use papyrus_telemetry::{HistogramData, TelemetrySnapshot};

use engine::{Kind, RoundOut, Shape};
use model::Tally;
use stats::{band_quantile, median, quantile};
use trace::Span;

/// Ranks per world: the core count of the 2-core host the reference
/// figures were taken on.
pub const RANKS: usize = 2;

/// Half-widths of the bands the latency quantiles average over.
const P50_BAND: f64 = 0.05;
const P99_BAND: f64 = 0.005;

/// Centre and half-width of the band of per-call host times that the
/// host rate averages over: the 5th to the 35th percentile.
const OP_HOST_BAND: (f64, f64) = (0.2, 0.15);

/// Requests per window of the latency-limited rate (p99 over 2048 leaves
/// 20 samples beyond it).
const SLO_WINDOW: usize = 2048;

/// Where traced runs write their Chrome traces, relative to the checkout.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Metrics in print order: (name, value, unit).
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn table(&self) -> String {
        self.0.iter().map(|(n, v, u)| format!("  {n:<34} {v:>16.6} {u}\n")).collect()
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What every workload accumulates over its rounds.
#[derive(Default)]
struct Run {
    attempted: u64,
    tally: Tally,
    faults: Vec<String>,
    setup_s: Vec<f64>,
    /// Operations per host millisecond of each host-timed unit: a round's
    /// puts and gets at their fast-path cost, or one `run_serve` call.
    host_kops: Vec<f64>,
    /// Embedded workloads: operations per host millisecond of each round's
    /// measured phases, wall clock.
    wall_kops: Vec<f64>,
    /// The current round's host-timed operations and process CPU seconds
    /// (user, system), and per round the CPU µs per operation.
    timed: (u64, (f64, f64)),
    cpu_us_per_op: Vec<f64>,
    /// Peak resident set when the first round ends: the workload's own
    /// footprint in a fresh process. Later rounds only add what the
    /// allocator keeps from earlier ones, which drifts from run to run.
    peak_rss_mb: f64,
    /// Wall time of whole rounds, untraced and traced.
    round_s: (Vec<f64>, Vec<f64>),
    sim_kops: Vec<f64>,
    gets: Vec<u64>,
    puts: Vec<u64>,
    barrier_ms: Vec<f64>,
    /// Checkpoint, restart and redistributing restart: the faster rank's
    /// virtual time, and the job's (the slower rank's).
    ckpt_ms: [Vec<f64>; 3],
    ckpt_job_ms: [Vec<f64>; 3],
    slo_kops: Vec<f64>,
    space_amp: Vec<f64>,
    // Traced rounds only.
    /// CPU seconds (user, system) of each round's host-timed work.
    traced_cpu: Vec<(f64, f64)>,
    spans: Vec<Span>,
    dropped_spans: u64,
    tel: Vec<TelemetrySnapshot>,
    traced_ops: u64,
    traced_gets: u64,
    traced_user_bytes: u64,
    traced_rounds: u64,
    lru: (u64, u64),
    threads_peak: u64,
    ckpt_host_ms: [Vec<f64>; 3],
    serve_layers: Option<[f64; 4]>,
}

/// One rank's operations per host millisecond if each of its put and get
/// calls took the mean host time of its class's fast band. A call that a
/// thread wake-up or another process's time slice stretched falls out of
/// the band; see the README.
fn fast_path_kops(r: &engine::RankOut) -> f64 {
    let (q, w) = OP_HOST_BAND;
    let cost = |v: &[u64]| v.len() as f64 * band_quantile(&mut v.to_vec(), q, w);
    let ns = cost(&r.put_host_ns) + cost(&r.get_host_ns);
    (r.put_host_ns.len() + r.get_host_ns.len()) as f64 / ns * 1e6
}

fn max_of(it: impl Iterator<Item = u64>) -> u64 {
    it.max().unwrap_or(0)
}

impl Run {
    /// Fold one engine round in.
    fn add_engine(&mut self, shape: &Shape, round: RoundOut, traced: bool) {
        let ranks = &round.ranks;
        let ready = ranks.iter().map(|r| r.ready).max().expect("ranks");
        self.setup_s.push((ready - round.spawn_start).as_secs_f64());
        let ((s, cpu0), (e, cpu1)) = ranks[0].window.expect("rank 0 marks the measured phase");
        let ops: u64 = ranks.iter().map(|r| r.ops).sum();
        self.attempted += ops;
        self.wall_kops.push(ops as f64 / (e - s).as_secs_f64() / 1e3);
        self.host_kops.push(ranks.iter().map(fast_path_kops).sum());
        self.timed = (ops, (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1));
        self.close_timed(traced);
        for r in ranks {
            self.tally.merge(&r.tally);
            self.gets.extend(&r.gets);
            self.puts.extend(&r.puts);
        }
        let phase_ns = max_of(ranks.iter().map(|r| r.phase_sim_ns));
        let phase_ops: u64 = ranks.iter().map(|r| r.phase_ops).sum();
        self.sim_kops.push(phase_ops as f64 / phase_ns as f64 * 1e6);
        // A barrier's own cost runs from the last rank's arrival to its
        // end. Until then the earlier rank only waits out the virtual skew
        // between the ranks, which varies with host thread order.
        for i in 0..ranks[0].barriers.len() {
            let arrived = max_of(ranks.iter().map(|r| r.barriers[i].0));
            let end = max_of(ranks.iter().map(|r| r.barriers[i].1));
            self.barrier_ms.push((end - arrived) as f64 / 1e6);
        }
        // A collective step ends when its slower rank does, but which rank's
        // transfer queues behind the other's on the shared device models
        // depends on host thread order: the slower rank's checkpoint time
        // swings by up to 10x between rounds. The bounded metric is the
        // faster rank's; the job's time is printed beside it.
        for i in 0..3 {
            let ms = |t: Option<u64>| t.unwrap_or(0) as f64 / 1e6;
            self.ckpt_ms[i].push(ms(ranks.iter().map(|r| r.ckpt[i]).min()));
            self.ckpt_job_ms[i].push(ms(ranks.iter().map(|r| r.ckpt[i]).max()));
        }
        let slo: f64 = ranks
            .iter()
            .map(|r| stats::windowed_slo_rate(&r.slo_stream, serve::P99_LIMIT_NS, SLO_WINDOW))
            .sum();
        self.slo_kops.push(slo / 1e3);
        let (nvm, live) = ranks[0].space.expect("rank 0 measures space");
        self.space_amp.push(nvm as f64 / live as f64);
        if traced {
            self.traced_rounds += 1;
            self.traced_ops += ops;
            for r in round.ranks {
                self.traced_gets += r.gets_issued;
                self.traced_user_bytes +=
                    r.puts.len() as u64 * (gen::key(0, 0).len() + shape.vallen) as u64;
                self.lru.0 += r.lru.0;
                self.lru.1 += r.lru.1;
                self.threads_peak = self.threads_peak.max(r.threads_peak);
                self.dropped_spans += r.dropped_spans;
                self.spans.extend(r.spans);
                for i in 0..3 {
                    self.ckpt_host_ms[i].push(r.ckpt_host_ns[i] as f64 / 1e6);
                }
            }
        }
    }

    /// Fold one `run_serve` call in; `timed` unless it is the set-up probe.
    fn add_serve_call(&mut self, c: &serve::Call, traced: bool, timed: bool) {
        self.attempted += c.issued;
        if timed {
            self.host_kops.push(c.issued as f64 / c.host_s / 1e3);
            self.timed.0 += c.issued;
            self.timed.1 .0 += c.cpu_s.0;
            self.timed.1 .1 += c.cpu_s.1;
        }
        if let Some(f) = &c.fault {
            self.faults.push(f.clone());
        }
        if traced {
            let count = |l: &Option<papyrus_serve::LatSummary>| l.as_ref().map_or(0, |l| l.count);
            self.traced_ops += c.issued;
            self.traced_gets += count(&c.report.read);
            // One key per write command, as SET (the common write) has.
            self.traced_user_bytes += count(&c.report.write) * serve::WRITE_BYTES;
        }
    }

    /// End the round's CPU timing.
    fn close_timed(&mut self, traced: bool) {
        let (ops, cpu_s) = std::mem::take(&mut self.timed);
        self.cpu_us_per_op.push((cpu_s.0 + cpu_s.1) / ops as f64 * 1e6);
        if traced {
            self.traced_cpu.push(cpu_s);
        }
    }

    /// Take over another run's per-layer records (the traced-round fields).
    fn absorb_layers(&mut self, o: Run) {
        self.spans.extend(o.spans);
        self.dropped_spans += o.dropped_spans;
        self.tel.extend(o.tel);
        self.traced_ops += o.traced_ops;
        self.traced_gets += o.traced_gets;
        self.traced_user_bytes += o.traced_user_bytes;
        self.lru = (self.lru.0 + o.lru.0, self.lru.1 + o.lru.1);
        self.threads_peak = self.threads_peak.max(o.threads_peak);
        self.traced_rounds += o.traced_rounds;
        for i in 0..3 {
            self.ckpt_host_ms[i].extend(&o.ckpt_host_ms[i]);
        }
    }
}

/// End a unit of work (an engine round or a `run_serve` call): keep a
/// traced unit's telemetry, then zero the global registry and turn it off
/// after every unit, since `run_serve` turns it on in every call and
/// leaves what it recorded behind.
fn harvest(run: &mut Run, traced: bool) {
    if traced {
        run.tel.push(papyrus_telemetry::snapshot());
    }
    papyrus_telemetry::reset();
    papyrus_telemetry::disable();
}

/// Whether a snapshot holds no record: what a traced unit must start from,
/// so that it reports only its own work.
fn is_empty(s: &TelemetrySnapshot) -> bool {
    s.counters.iter().all(|c| c.2 == 0)
        && s.histograms.iter().all(|h| h.2.count == 0)
        && s.events.is_empty()
}

fn engine_round(run: &mut Run, shape: &Shape, seed: u64, traced: bool, origin: Instant) {
    if traced {
        assert!(
            is_empty(&papyrus_telemetry::snapshot()),
            "telemetry left over from an earlier unit of work"
        );
        papyrus_telemetry::enable();
    }
    let round = engine::run_round(shape, seed, traced, origin);
    harvest(run, traced);
    run.add_engine(shape, round, traced);
}

/// The store behind `resp_serve`, loaded through the embedded API at the
/// serve plane's sizes: its settle barrier, space and checkpoint hand-off.
fn serve_store_shape() -> Shape {
    Shape {
        keys: RANKS as u64 * serve::KEYS_PER_RANK,
        vallen: serve::VALLEN,
        memtable: 256 << 20,
        ..Shape::of(Kind::CheckpointRestart)
    }
}

/// Embedded-store rounds per `resp_serve` round.
const STORE_ROUNDS: u64 = 3;
/// `run_serve` set-up probes per `resp_serve` round.
const SETUP_PROBES: u64 = 5;

fn serve_round(run: &mut Run, seed: u64, traced: bool, origin: Instant) {
    // The embedded store at the serve plane's sizes supplies the barrier,
    // space and checkpoint figures; its reads are verified like any other
    // workload's, but only the `run_serve` calls are host-timed. It is
    // cheap, so several stores per round steady those figures.
    for j in 0..STORE_ROUNDS {
        let mut store = Run::default();
        engine_round(
            &mut store,
            &serve_store_shape(),
            gen::derive(seed, j, 0x5702),
            traced,
            origin,
        );
        run.attempted += store.attempted;
        run.tally.merge(&store.tally);
        run.barrier_ms.extend(&store.barrier_ms);
        run.space_amp.extend(&store.space_amp);
        for i in 0..3 {
            run.ckpt_ms[i].extend(&store.ckpt_ms[i]);
            run.ckpt_job_ms[i].extend(&store.ckpt_job_ms[i]);
        }
        run.absorb_layers(store);
    }

    // `run_serve` resets the global registry when its windows open, so
    // each call's telemetry is harvested as soon as the call returns.
    let serve_call = |run: &mut Run, call: &serve::Call, timed: bool| {
        harvest(run, traced);
        run.add_serve_call(call, traced, timed);
    };
    // `run_serve`'s own fixed cost is a few milliseconds of host time;
    // several probes per round steady its median.
    for j in 0..SETUP_PROBES {
        let setup = serve::minimal(gen::derive(seed, j, 0x5E7));
        serve_call(run, &setup, false);
        run.setup_s.push(setup.host_s);
    }
    let knee = serve::sweep(seed, |c| serve_call(run, c, true));
    run.slo_kops.push(knee / 1e3);
    let fixed = serve::fixed(seed);
    serve_call(run, &fixed, true);
    run.close_timed(traced);
    let rep = &fixed.report;
    run.sim_kops.push(rep.qps() / 1e3);
    let lat =
        |l: &Option<papyrus_serve::LatSummary>| l.as_ref().map_or((0, 0), |l| (l.p50_ns, l.p99_ns));
    // Exact per-class percentiles come from the report; keep them as
    // (p50, p99) pairs, averaged over the run's rounds.
    let (r50, r99) = lat(&rep.read);
    let (w50, w99) = lat(&rep.write);
    run.gets.extend([r50, r99]);
    run.puts.extend([w50, w99]);
    if traced {
        let cmds = rep.total_cmds() as f64;
        let polls: u64 = rep.rows.iter().map(|r| r.polls).sum();
        let dups: u64 = rep.rows.iter().map(|r| r.folded_dups).sum();
        let host_ms = fixed.host_s * 1e3;
        run.serve_layers = Some([rep.batch_mean(), dups as f64, polls as f64 / cmds, host_ms]);
    }
}

fn sim_pcts(v: &mut [u64], serve: bool) -> (f64, f64) {
    if serve {
        // (p50, p99) pairs, one per round: average each over the rounds.
        // The write median sits at the group-commit path's fixed cost in
        // most rounds; the mean over rounds keeps the rounds where queueing
        // reaches it.
        let mean = |it: &mut dyn Iterator<Item = &u64>| {
            let (n, sum) = it.fold((0u64, 0u64), |(n, s), &x| (n + 1, s + x));
            sum as f64 / n.max(1) as f64
        };
        (mean(&mut v.iter().step_by(2)) / 1e3, mean(&mut v.iter().skip(1).step_by(2)) / 1e3)
    } else {
        (band_quantile(v, 0.5, P50_BAND) / 1e3, band_quantile(v, 0.99, P99_BAND) / 1e3)
    }
}

fn end_to_end(run: &mut Run, is_serve: bool) -> Metrics {
    let mut m = Metrics::default();
    let (g50, g99) = sim_pcts(&mut run.gets, is_serve);
    let (p50, p99) = sim_pcts(&mut run.puts, is_serve);
    m.put("setup_s", median(&run.setup_s), "s");
    m.put("host_kops", median(&run.host_kops), "kops/s");
    m.put("host_cpu_us_per_op", median(&run.cpu_us_per_op), "us");
    m.put("host_peak_rss_mb", run.peak_rss_mb, "MB");
    m.put("sim_kops", median(&run.sim_kops), "kops/s");
    m.put("sim_get_p50_us", g50, "us");
    m.put("sim_get_p99_us", g99, "us");
    m.put("sim_put_p50_us", p50, "us");
    m.put("sim_put_p99_us", p99, "us");
    m.put("sim_barrier_ms", median(&run.barrier_ms), "ms");
    m.put("sim_checkpoint_ms", median(&run.ckpt_ms[0]), "ms");
    m.put("sim_restart_ms", median(&run.ckpt_ms[1]), "ms");
    m.put("sim_restart_rd_ms", median(&run.ckpt_ms[2]), "ms");
    // A `resp_serve` knee is a function of the round's seed alone (serve's
    // virtual time is bit-identical per seed), so no host outlier reaches
    // it, and the mean over the few rounds a run holds spreads less than
    // their median.
    let slo = if is_serve {
        run.slo_kops.iter().sum::<f64>() / run.slo_kops.len().max(1) as f64
    } else {
        median(&run.slo_kops)
    };
    m.put("sim_slo_kops", slo, "kops/s");
    m.put("space_amp", median(&run.space_amp), "bytes/byte");
    m
}

fn hist(snaps: &[TelemetrySnapshot], name: &str, pid_ok: &dyn Fn(&str) -> bool) -> HistogramData {
    let mut acc = HistogramData::empty();
    for s in snaps {
        for (pid, n, h) in &s.histograms {
            if n == name && pid_ok(&pid_name(s, *pid)) {
                acc.merge(h);
            }
        }
    }
    acc
}

fn counter(snaps: &[TelemetrySnapshot], name: &str, pid_ok: &dyn Fn(&str) -> bool) -> f64 {
    let mut sum = 0u64;
    for s in snaps {
        for (pid, n, v) in &s.counters {
            if n == name && pid_ok(&pid_name(s, *pid)) {
                sum += v;
            }
        }
    }
    sum as f64
}

fn pid_name(s: &TelemetrySnapshot, pid: u32) -> String {
    s.pid_names.iter().find(|(p, _)| *p == pid).map(|(_, n)| n.clone()).unwrap_or_default()
}

fn per_layer(run: &Run, replay: &layers::Replay) -> Metrics {
    let t = &run.tel;
    let any = |_: &str| true;
    let nvm = |n: &str| n.starts_with("nvm ") && !n.contains("lustre");
    let pfs = |n: &str| n.contains("lustre");
    let spans = trace::by_name(&run.spans);
    let host_ms = |name: &str| spans.get(name).map_or(0.0, |s| s.0 as f64 / 1e6);
    let sim_ns = |name: &str| spans.get(name).map_or(0.0, |s| s.1 as f64);
    let p50_host = |prefix: &str| {
        let mut v: Vec<u64> =
            run.spans.iter().filter(|s| s.name.starts_with(prefix)).map(|s| s.host_ns).collect();
        quantile(&mut v, 0.5) as f64
    };
    let rounds = run.traced_rounds.max(1) as f64;
    let ops = run.traced_ops.max(1) as f64;
    let gets = run.traced_gets.max(1) as f64;
    let (bneg, bpass) = (counter(t, "kv.bloom.neg", &any), counter(t, "kv.bloom.pass", &any));
    let cpu_user: Vec<f64> = run.traced_cpu.iter().map(|c| c.0).collect();
    let cpu_sys: Vec<f64> = run.traced_cpu.iter().map(|c| c.1).collect();
    let pairs: Vec<f64> = run.round_s.1.iter().zip(&run.round_s.0).map(|(t, u)| t - u).collect();
    let overhead = median(&pairs);
    let serve = run.serve_layers.unwrap_or([0.0; 4]);
    let mut m = Metrics::default();
    m.put("db.put.local.sim_ns", sim_ns("db.put.local"), "ns");
    m.put("db.put.remote.sim_ns", sim_ns("db.put.remote"), "ns");
    m.put("db.get.local.sim_ns", sim_ns("db.get.local"), "ns");
    m.put("db.get.remote.sim_ns", sim_ns("db.get.remote"), "ns");
    m.put("db.put.host_ns", p50_host("db.put."), "ns");
    m.put("db.get.host_ns", p50_host("db.get."), "ns");
    m.put("db.barrier.sim_ms", sim_ns("db.barrier") / 1e6, "ms");
    m.put("db.barrier.host_ms", host_ms("db.barrier"), "ms");
    m.put("mpi.world.spawn.host_ms", host_ms("mpi.world.spawn"), "ms");
    m.put("runtime.init.host_ms", host_ms("runtime.init"), "ms");
    m.put("runtime.finalize.host_ms", host_ms("runtime.finalize"), "ms");
    m.put("host.user_s", median(&cpu_user), "s");
    m.put("host.sys_s", median(&cpu_sys), "s");
    m.put("host.threads_peak", run.threads_peak as f64, "count");
    m.put("net.msgs_per_op", counter(t, "net.send.count", &any) / ops, "msgs/op");
    m.put("net.bytes_per_op", counter(t, "net.send.bytes", &any) / ops, "B/op");
    m.put("net.msg.p50_ns", hist(t, "net.msg.ns", &any).p50() as f64, "ns");
    m.put("nvm.read.ops_per_get", counter(t, "io.read.ops", &nvm) / gets, "ops/get");
    m.put("nvm.read.bytes_per_get", counter(t, "io.read.bytes", &nvm) / gets, "B/get");
    m.put("nvm.queue_wait.p99_us", hist(t, "io.queue_wait.ns", &nvm).p99() as f64 / 1e3, "us");
    m.put("nvm.service.p50_us", hist(t, "io.service.ns", &nvm).p50() as f64 / 1e3, "us");
    let user_bytes = run.traced_user_bytes.max(1) as f64;
    m.put("nvm.write.bytes_per_user_byte", counter(t, "io.write.bytes", &nvm) / user_bytes, "B/B");
    m.put("kv.flush.count", counter(t, "kv.flush.count", &any) / rounds, "count");
    m.put("kv.compact.count", counter(t, "kv.compact.count", &any) / rounds, "count");
    m.put("kv.flush.p50_ms", hist(t, "kv.flush.ns", &any).p50() as f64 / 1e6, "ms");
    m.put("kv.compact.p50_ms", hist(t, "kv.compact.ns", &any).p50() as f64 / 1e6, "ms");
    m.put("kv.freeze.stall", counter(t, "kv.freeze.stall", &any) / rounds, "count");
    m.put("kv.migrate.count", counter(t, "kv.migrate.count", &any) / rounds, "count");
    m.put("bloom.skip_ratio", bneg / (bneg + bpass).max(1.0), "ratio");
    m.put("lru.hit_ratio", run.lru.0 as f64 / (run.lru.0 + run.lru.1).max(1) as f64, "ratio");
    m.put("ckpt.checkpoint.host_ms", median(&run.ckpt_host_ms[0]), "ms");
    m.put("ckpt.restart.host_ms", median(&run.ckpt_host_ms[1]), "ms");
    m.put("ckpt.restart_rd.host_ms", median(&run.ckpt_host_ms[2]), "ms");
    m.put("ckpt.checkpoint.job_sim_ms", median(&run.ckpt_job_ms[0]), "ms");
    m.put("ckpt.restart.job_sim_ms", median(&run.ckpt_job_ms[1]), "ms");
    m.put("ckpt.restart_rd.job_sim_ms", median(&run.ckpt_job_ms[2]), "ms");
    m.put("pfs.bytes_written", counter(t, "io.write.bytes", &pfs) / rounds, "B");
    m.put("serve.batch.mean", serve[0], "records");
    m.put("serve.folded.dups", serve[1], "count");
    m.put("serve.polls_per_cmd", serve[2], "polls/cmd");
    m.put("serve.run.host_ms", serve[3], "ms");
    m.put("resp.decode.host_ns_per_cmd", replay.resp_decode_ns, "ns");
    m.put("memtable.insert.host_ns", replay.memtable_insert_ns, "ns");
    m.put("memtable.get.host_ns", replay.memtable_get_ns, "ns");
    m.put("sstable.build.host_ns", replay.sstable_build_ns, "ns");
    m.put("sstable.get.host_ns", replay.sstable_get_ns, "ns");
    m.put("msg.codec.host_ns_per_record", replay.msg_codec_ns, "ns");
    m.put("telemetry.overhead.host_s", overhead, "s");
    m
}

fn write_traces(run: &Run, workload: &str) {
    let dir = std::path::Path::new(OUT_DIR);
    let written = std::fs::create_dir_all(dir).and_then(|_| {
        std::fs::write(
            dir.join(format!("{workload}.spans.json")),
            trace::chrome_trace(&run.spans),
        )?;
        let mut tel = TelemetrySnapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            events: Vec::new(),
            pid_names: Vec::new(),
            tid_names: Vec::new(),
            dropped_events: 0,
        };
        for s in &run.tel {
            tel.events.extend(s.events.iter().cloned());
            tel.pid_names.extend(s.pid_names.iter().cloned());
            tel.tid_names.extend(s.tid_names.iter().cloned());
            tel.dropped_events += s.dropped_events;
        }
        std::fs::write(dir.join(format!("{workload}.telemetry.json")), tel.to_chrome_trace())
    });
    match written {
        Ok(()) => println!("# traces: {OUT_DIR}/{workload}.{{spans,telemetry}}.json"),
        Err(e) => eprintln!("# traces not written: {e}"),
    }
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let is_serve = args.workload == "resp_serve";
    let shape = match args.workload.as_str() {
        "bulk_load_get" => Shape::of(Kind::BulkLoadGet),
        "update_mix" => Shape::of(Kind::UpdateMix),
        "checkpoint_restart" => Shape::of(Kind::CheckpointRestart),
        "resp_serve" => serve_store_shape(),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let origin = Instant::now();
    let mut run = Run::default();
    // Whole rounds only. A traced run alternates untraced and traced rounds
    // on the same inputs, so each pair measures the tracing overhead.
    let mut round = 0u64;
    loop {
        let traced = args.trace && round % 2 == 1;
        let inputs = if args.trace { round / 2 } else { round };
        let seed = gen::derive(args.seed, inputs, 0x0D);
        let h = Instant::now();
        if is_serve {
            serve_round(&mut run, seed, traced, origin);
        } else {
            engine_round(&mut run, &shape, seed, traced, origin);
        }
        let took = h.elapsed().as_secs_f64();
        if round == 0 {
            run.peak_rss_mb = host::peak_rss_mb();
        }
        if traced { &mut run.round_s.1 } else { &mut run.round_s.0 }.push(took);
        round += 1;
        let elapsed = origin.elapsed().as_secs_f64();
        let per_round = elapsed / round as f64;
        let enough = !args.trace || round >= 2;
        if enough && elapsed + per_round > args.seconds {
            break;
        }
    }

    let t = &run.tally;
    let correct = run.faults.is_empty() && t.failed() == 0;
    let failed = t.failed() + run.faults.len() as u64;
    println!(
        "# {} seed {} rounds {} checked {} missing {} phantom {} truncated {} wrong_key {} stale {} corrupt {}",
        args.workload, args.seed, round, t.checked, t.missing, t.phantom, t.truncated, t.wrong_key, t.stale, t.corrupt
    );
    for f in &run.faults {
        println!("# fault: {f}");
    }
    let metrics = if args.trace {
        let replay = layers::replay(args.seed, shape.keys.min(4096), shape.vallen);
        write_traces(&run, &args.workload);
        if run.dropped_spans > 0 {
            println!("# spans dropped past the per-round cap: {}", run.dropped_spans);
        }
        per_layer(&run, &replay)
    } else {
        if !run.wall_kops.is_empty() {
            println!("# wall-clock kops/s over the measured phases: {:.3}", median(&run.wall_kops));
        }
        let job = |i: usize| median(&run.ckpt_job_ms[i]);
        println!(
            "# job (slower rank) virtual ms: checkpoint {:.3} restart {:.3} restart_rd {:.3}",
            job(0),
            job(1),
            job(2)
        );
        end_to_end(&mut run, is_serve)
    };
    print!("{}", metrics.table());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        run.attempted,
        metrics.json()
    );
}
