//! Spans the benchmark records around each public call it makes, one id per
//! operation, in both clocks. Off in measured runs; a traced run keeps them
//! in memory and writes a Chrome trace when the workload ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use papyrus_simtime::Clock;

use crate::stats;

/// Spans kept per rank per round; later ones are counted, not kept.
const MAX_SPANS: usize = 200_000;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub rank: u32,
    pub host_start_ns: u64,
    pub host_ns: u64,
    pub sim_ns: u64,
}

/// One rank's recorder. When off, [`Tracer::call`] only reads the virtual
/// clock, which the end-to-end latencies need anyway.
pub struct Tracer {
    on: bool,
    rank: u32,
    origin: Instant,
    seq: u64,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new(on: bool, rank: usize, origin: Instant) -> Self {
        Self { on, rank: rank as u32, origin, seq: 0, spans: Vec::new(), dropped: 0 }
    }

    /// A fresh operation id, unique across ranks.
    fn next_id(&mut self) -> u64 {
        self.seq += 1;
        (self.rank as u64) << 48 | self.seq
    }

    /// Run `f` as operation `name`; returns its result and its virtual
    /// duration on `clock`.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        clock: &Clock,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let s0 = clock.now();
        if !self.on {
            let out = f();
            return (out, clock.now().saturating_sub(s0));
        }
        let h0 = Instant::now();
        let out = f();
        let host_ns = h0.elapsed().as_nanos() as u64;
        let sim_ns = clock.now().saturating_sub(s0);
        let id = self.next_id();
        self.push(Span {
            id,
            name,
            rank: self.rank,
            host_start_ns: h0.duration_since(self.origin).as_nanos() as u64,
            host_ns,
            sim_ns,
        });
        (out, sim_ns)
    }

    /// Record a span whose timings were taken by the caller (calls that
    /// happen outside any rank, such as `World::run` itself).
    pub fn record(&mut self, name: &'static str, start: Instant, host_ns: u64) {
        if self.on {
            let id = self.next_id();
            let host_start_ns = start.duration_since(self.origin).as_nanos() as u64;
            self.push(Span { id, name, rank: self.rank, host_start_ns, host_ns, sim_ns: 0 });
        }
    }

    fn push(&mut self, s: Span) {
        if self.spans.len() < MAX_SPANS {
            self.spans.push(s);
        } else {
            self.dropped += 1;
        }
    }
}

/// Chrome Trace Event JSON: one complete event per span on host time, with
/// the operation id and its virtual duration in `args`.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let cat = s.name.split('.').next().unwrap_or("op");
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":{},\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"sim_ns\":{}}}}}",
            s.name,
            s.rank,
            s.host_start_ns as f64 / 1e3,
            s.host_ns as f64 / 1e3,
            s.id,
            s.sim_ns
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// Per span name: (p50 host ns, p50 virtual ns).
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut groups: BTreeMap<&'static str, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for s in spans {
        let g = groups.entry(s.name).or_default();
        g.0.push(s.host_ns);
        g.1.push(s.sim_ns);
    }
    groups
        .into_iter()
        .map(|(name, (mut host, mut sim))| {
            (name, (stats::quantile(&mut host, 0.5), stats::quantile(&mut sim, 0.5)))
        })
        .collect()
}
