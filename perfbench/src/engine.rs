//! The embedded workloads: `bulk_load_get`, `update_mix` and
//! `checkpoint_restart`. One round is one simulated job — a fresh `World`
//! of two ranks on the `summitdev` profile — driven only through the
//! public API and checked against the model.

use std::sync::Arc;
use std::time::Instant;

use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyrus_simtime::Clock;
use papyruskv::{BarrierLevel, Consistency, Context, Db, Error, OpenFlags, Options, Platform};
use parking_lot::Mutex;

use crate::gen::{self, Rng, Zipf};
use crate::model::{self, Expect, Model, Tally};
use crate::trace::{Span, Tracer};
use crate::{host, RANKS};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    BulkLoadGet,
    UpdateMix,
    CheckpointRestart,
}

/// Shape of one workload; see the README for why each number is what it is.
#[derive(Clone, Debug)]
pub struct Shape {
    pub kind: Kind,
    /// Live keys over the whole job.
    pub keys: u64,
    /// Mean value length; each value's length is drawn around it.
    pub vallen: usize,
    /// Measured gets (bulk) or mixed operations (update) per rank.
    pub ops_per_rank: u64,
    pub memtable: u64,
    pub consistency: Consistency,
    /// Storage-group size, physical and logical; `None` is the profile's
    /// default (both ranks share one node's NVM and read each other's
    /// SSTables directly).
    pub group: Option<usize>,
}

impl Shape {
    pub fn of(kind: Kind) -> Self {
        match kind {
            // 48 MiB of live values, three times the 16 MiB local cache.
            Kind::BulkLoadGet => Shape {
                kind,
                keys: 48 * 1024,
                vallen: 1024,
                ops_per_rank: 24 * 1024,
                memtable: 4 << 20,
                consistency: Consistency::Relaxed,
                group: None,
            },
            // 4 MiB of live values, a quarter of the local cache; 256 KiB
            // MemTables flush every ~256 updates an owner receives.
            Kind::UpdateMix => Shape {
                kind,
                keys: 4 * 1024,
                vallen: 1024,
                ops_per_rank: 8 * 1024,
                memtable: 256 << 10,
                consistency: Consistency::Sequential,
                group: Some(1),
            },
            // 32 MiB of 128 KiB values.
            Kind::CheckpointRestart => Shape {
                kind,
                keys: 256,
                vallen: 128 << 10,
                ops_per_rank: 0,
                memtable: 16 << 20,
                consistency: Consistency::Relaxed,
                group: None,
            },
        }
    }

    fn options(&self) -> Options {
        Options::default().with_memtable_capacity(self.memtable).with_consistency(self.consistency)
    }

    /// The rank that writes key `id`. In `update_mix` it is the rank that
    /// does not own the key, so every update is a fabric round trip.
    fn writer(&self, id: u64, owner: impl Fn() -> usize) -> usize {
        match self.kind {
            Kind::UpdateMix => (owner() + 1) % RANKS,
            _ => (id % RANKS as u64) as usize,
        }
    }
}

/// Writer histories, posted by each rank at the end of its workload: the
/// model is built from what each writer says it wrote, never from what
/// reads returned.
type Histories = Arc<Mutex<Vec<Vec<(u64, u32)>>>>;

/// A host instant with the process CPU time (user, system) at that instant.
type Mark = (Instant, (f64, f64));

/// Everything one rank measured in one round.
pub struct RankOut {
    pub ready: Instant,
    /// Virtual latency of each measured put and get. A put's latency runs
    /// until it is visible to every rank: its return under sequential
    /// consistency, the next barrier's end under relaxed.
    pub puts: Vec<u64>,
    pub gets: Vec<u64>,
    /// Virtual service times, in issue order, of the stream whose
    /// latency-limited rate is reported.
    pub slo_stream: Vec<u64>,
    /// Virtual time and operation count of the throughput phase.
    pub phase_sim_ns: u64,
    pub phase_ops: u64,
    /// Virtual start and end of each measured `barrier(SsTable)`.
    pub barriers: Vec<(u64, u64)>,
    /// Host time of each put and get call after set-up.
    pub put_host_ns: Vec<u64>,
    pub get_host_ns: Vec<u64>,
    pub ckpt: [u64; 3],
    pub ckpt_host_ns: [u64; 3],
    pub ops: u64,
    /// Gets issued, measured or verifying.
    pub gets_issued: u64,
    pub tally: Tally,
    pub lru: (u64, u64),
    pub threads_peak: u64,
    pub spans: Vec<Span>,
    pub dropped_spans: u64,
    /// Rank 0 only: NVM bytes and live user bytes after the final barrier.
    pub space: Option<(u64, u64)>,
    /// Rank 0 only: host instant and process CPU at the measured phase's
    /// start and end.
    pub window: Option<(Mark, Mark)>,
}

/// One round's result, merged over ranks.
pub struct RoundOut {
    pub spawn_start: Instant,
    pub ranks: Vec<RankOut>,
}

const REPO: &str = "nvm://perfbench";
const DB: &str = "kv";
/// `update_mix` runs in this many epochs, each ending in `barrier(SsTable)`.
const EPOCHS: u64 = 8;
/// Keys never written, probed for phantoms: one per this many reads.
const PHANTOM_EVERY: u64 = 32;

pub fn run_round(shape: &Shape, seed: u64, traced: bool, origin: Instant) -> RoundOut {
    let profile = SystemProfile::summitdev();
    let platform = match shape.group {
        Some(g) => Platform::with_physical_groups(profile.clone(), RANKS, g),
        None => Platform::new(profile.clone(), RANKS),
    };
    let shape = shape.clone();
    let board: Histories = Arc::new(Mutex::new(Vec::new()));
    let spawn_start = Instant::now();
    let ranks = World::run(WorldConfig::new(RANKS, profile.net.clone()), move |rank| {
        let entered = Instant::now();
        let r = rank.rank();
        let mut tr = Tracer::new(traced, r, origin);
        tr.record("mpi.world.spawn", spawn_start, (entered - spawn_start).as_nanos() as u64);
        let clock = rank.clock().clone();
        let (ctx, _) = tr.call("runtime.init", &clock, || match shape.group {
            Some(g) => Context::init_with_group(rank, platform.clone(), REPO, g),
            None => Context::init(rank, platform.clone(), REPO),
        });
        let ctx = ctx.expect("Context::init");
        let mut job = Job::new(&shape, seed, r, ctx, platform.clone(), board.clone(), tr, clock);
        job.run();
        job.out
    });
    RoundOut { spawn_start, ranks }
}

struct Job {
    shape: Shape,
    seed: u64,
    r: usize,
    ctx: Context,
    platform: Arc<Platform>,
    board: Histories,
    tr: Tracer,
    clock: Clock,
    /// Key ids this rank writes, ascending, with the last version written.
    mine: Vec<(u64, u32)>,
    /// Whether gets count toward the get-latency metrics: verification
    /// sweeps do only where they are the workload's measured reads.
    latencies: bool,
    /// Issue times of relaxed puts not yet covered by a barrier.
    unbarriered: Vec<u64>,
    out: RankOut,
}

impl Job {
    #[allow(clippy::too_many_arguments)]
    fn new(
        shape: &Shape,
        seed: u64,
        r: usize,
        ctx: Context,
        platform: Arc<Platform>,
        board: Histories,
        tr: Tracer,
        clock: Clock,
    ) -> Self {
        Self {
            shape: shape.clone(),
            seed,
            r,
            ctx,
            platform,
            board,
            tr,
            clock,
            mine: Vec::new(),
            latencies: true,
            unbarriered: Vec::new(),
            out: RankOut {
                ready: Instant::now(),
                puts: Vec::new(),
                gets: Vec::new(),
                slo_stream: Vec::new(),
                phase_sim_ns: 0,
                phase_ops: 0,
                barriers: Vec::new(),
                put_host_ns: Vec::new(),
                get_host_ns: Vec::new(),
                ckpt: [0; 3],
                ckpt_host_ns: [0; 3],
                ops: 0,
                gets_issued: 0,
                tally: Tally::default(),
                lru: (0, 0),
                threads_peak: 0,
                spans: Vec::new(),
                dropped_spans: 0,
                space: None,
                window: None,
            },
        }
    }

    fn key(&self, id: u64) -> Vec<u8> {
        gen::key(self.seed, id)
    }

    fn put(&mut self, db: &Db, id: u64, version: u32) {
        let key = self.key(id);
        let val = gen::value(self.seed, id, version, self.expect(id, version).len);
        let local = db.owner_of(&key) == self.r;
        let name = if local { "db.put.local" } else { "db.put.remote" };
        let h = Instant::now();
        let (res, sim) = self.tr.call(name, &self.clock, || db.put(&key, &val));
        self.out.put_host_ns.push(h.elapsed().as_nanos() as u64);
        res.expect("put");
        match self.shape.consistency {
            Consistency::Sequential => self.out.puts.push(sim),
            // A relaxed put is visible to other ranks once the next barrier
            // completes; its latency runs until then.
            Consistency::Relaxed => self.unbarriered.push(self.clock.now() - sim),
        }
        self.out.ops += 1;
    }

    /// A get checked against `expect`; returns its virtual latency.
    fn get(&mut self, db: &Db, id: u64, expect: Option<Expect>) -> u64 {
        let (got, sim) = self.fetch(db, id);
        self.out.tally.add(model::check(self.seed, id, expect, got.as_deref()));
        sim
    }

    fn fetch(&mut self, db: &Db, id: u64) -> (Option<bytes::Bytes>, u64) {
        let key = self.key(id);
        let local = db.owner_of(&key) == self.r;
        let name = if local { "db.get.local" } else { "db.get.remote" };
        let h = Instant::now();
        let (res, sim) = self.tr.call(name, &self.clock, || db.get(&key));
        self.out.get_host_ns.push(h.elapsed().as_nanos() as u64);
        let got = match res {
            Ok(v) => Some(v),
            Err(Error::NotFound) => None,
            Err(e) => panic!("get failed: {e}"),
        };
        if self.latencies {
            self.out.gets.push(sim);
        }
        self.out.ops += 1;
        self.out.gets_issued += 1;
        (got, sim)
    }

    fn expect(&self, id: u64, version: u32) -> Expect {
        Expect::of(self.seed, id, version, self.shape.vallen)
    }

    /// Host instant + CPU, taken by rank 0 between two runtime barriers.
    fn mark(&self) -> Option<Mark> {
        self.ctx.barrier_all();
        let m = (self.r == 0).then(|| (Instant::now(), host::cpu_s()));
        self.ctx.barrier_all();
        m
    }

    fn run(&mut self) {
        let db = self.open(DB);
        self.mine = (0..self.shape.keys)
            .filter(|&id| self.shape.writer(id, || db.owner_of(&self.key(id))) == self.r)
            .map(|id| (id, 0))
            .collect();
        match self.shape.kind {
            Kind::BulkLoadGet => self.bulk(&db),
            Kind::UpdateMix => self.update(&db),
            Kind::CheckpointRestart => self.fill_then_ckpt(&db),
        }
    }

    fn open(&mut self, name: &str) -> Db {
        let opt = self.shape.options();
        let (db, _) = self
            .tr
            .call("runtime.open", &self.clock, || self.ctx.open(name, OpenFlags::create(), opt));
        db.expect("open")
    }

    fn ready(&mut self) -> Option<Mark> {
        let m = self.mark();
        self.out.ready = Instant::now();
        self.out.put_host_ns.clear();
        self.out.get_host_ns.clear();
        self.out.threads_peak = self.out.threads_peak.max(host::threads());
        m
    }

    fn barrier_sst(&mut self, db: &Db) {
        let (res, sim) =
            self.tr.call("db.barrier", &self.clock, || db.barrier(BarrierLevel::SsTable));
        res.expect("barrier");
        let end = self.clock.now();
        self.out.puts.extend(self.unbarriered.drain(..).map(|issued| end - issued));
        self.out.barriers.push((end - sim, end));
    }

    fn bulk(&mut self, db: &Db) {
        let start = self.ready();
        let t0 = self.clock.now();
        let ids: Vec<u64> = self.mine.iter().map(|m| m.0).collect();
        for id in ids {
            self.put(db, id, 0);
        }
        self.barrier_sst(db);
        let model = self.publish_history();
        self.record_space(&model);
        let mut rng = Rng::new(gen::derive(self.seed, self.r as u64, 0xB01C));
        for i in 0..self.shape.ops_per_rank {
            let (id, expect) = if i % PHANTOM_EVERY == PHANTOM_EVERY - 1 {
                (self.shape.keys + rng.below(self.shape.keys), None)
            } else {
                let id = rng.below(self.shape.keys);
                (id, Some(self.expect(id, 0)))
            };
            let sim = self.get(db, id, expect);
            self.out.slo_stream.push(sim);
        }
        self.out.phase_sim_ns = self.clock.now() - t0;
        self.out.phase_ops = self.out.ops;
        self.tail(db, start);
    }

    fn update(&mut self, db: &Db) {
        let ids: Vec<u64> = self.mine.iter().map(|m| m.0).collect();
        for &id in &ids {
            let key = self.key(id);
            let val = gen::value(self.seed, id, 0, self.expect(id, 0).len);
            db.put(&key, &val).expect("preload put");
        }
        db.barrier(BarrierLevel::SsTable).expect("preload barrier");
        let start = self.ready();
        let zipf = Zipf::new(self.mine.len() as u64, 0.99);
        let mut rng = Rng::new(gen::derive(self.seed, self.r as u64, 0x0DD5));
        for _ in 0..EPOCHS {
            let t0 = self.clock.now();
            for _ in 0..self.shape.ops_per_rank / EPOCHS {
                let sim = self.mixed_op(db, &zipf, &mut rng);
                self.out.slo_stream.push(sim);
            }
            self.out.phase_sim_ns += self.clock.now() - t0;
            self.barrier_sst(db);
        }
        self.out.phase_ops = self.out.ops;
        let model = self.publish_history();
        self.record_space(&model);
        self.sweep(db, &model, 1);
        self.tail(db, start);
    }

    /// One zipfian operation on a key this rank writes: a read or an update
    /// to the next version.
    fn mixed_op(&mut self, db: &Db, zipf: &Zipf, rng: &mut Rng) -> u64 {
        let slot = zipf.next(rng) as usize;
        let (id, version) = self.mine[slot];
        if rng.below(2) == 0 {
            // Read-your-writes: this rank is the key's only writer.
            self.get(db, id, Some(self.expect(id, version)))
        } else {
            self.mine[slot].1 = version + 1;
            self.put(db, id, version + 1);
            self.out.puts.last().copied().unwrap_or(0)
        }
    }

    fn fill_then_ckpt(&mut self, db: &Db) {
        let ids: Vec<u64> = self.mine.iter().map(|m| m.0).collect();
        for id in ids {
            self.put(db, id, 0);
        }
        self.out.ops = 0;
        self.barrier_sst(db);
        let model = self.publish_history();
        self.record_space(&model);
        let start = self.ready();
        self.tail(db, start);
    }

    /// Post this rank's history, wait for every writer's, build the model.
    fn publish_history(&mut self) -> Model {
        self.board.lock().push(self.mine.clone());
        self.ctx.barrier_all();
        let histories = self.board.lock().clone();
        self.ctx.barrier_all();
        Model::from_histories(self.seed, self.shape.vallen, histories)
    }

    /// Read this rank's share of every `stride`-th key (and a few
    /// never-written ones) and judge each against the model.
    fn sweep(&mut self, db: &Db, model: &Model, stride: u64) -> Vec<u64> {
        self.latencies = self.shape.kind == Kind::CheckpointRestart;
        let mut sims = Vec::new();
        let step = RANKS as u64 * stride;
        let ids: Vec<u64> = model.ids().filter(|id| id % step == self.r as u64).collect();
        for id in ids {
            sims.push(self.get(db, id, model.expect(id)));
        }
        for j in 0..(self.shape.keys / PHANTOM_EVERY / RANKS as u64).max(1) {
            let id = self.shape.keys + j * RANKS as u64 + self.r as u64;
            sims.push(self.get(db, id, None));
        }
        self.latencies = true;
        sims
    }

    fn record_space(&mut self, model: &Model) {
        self.ctx.barrier_all();
        if self.r == 0 {
            let prefix = format!("{}/{DB}/", REPO.trim_start_matches("nvm://"));
            let storage = &self.platform.storage;
            let nvm: u64 = (0..storage.n_groups())
                .map(|g| {
                    let store = storage.nvm_of_group(g);
                    store.list(&prefix).iter().filter_map(|p| store.len(p)).sum::<u64>()
                })
                .sum();
            self.out.space = Some((nvm, model.live_bytes()));
        }
        self.ctx.barrier_all();
    }

    /// The paper's Fig. 10 hand-off, applied to whatever the workload left:
    /// checkpoint to the parallel file system, destroy and trim the NVM,
    /// restart verbatim and read every key back, then restart with forced
    /// redistribution and read every key back again.
    fn tail(&mut self, db: &Db, start: Option<Mark>) {
        let stats = db.get_stats();
        self.out.lru = (stats.hits(), stats.misses());
        let histories = self.board.lock().clone();
        let model = Model::from_histories(self.seed, self.shape.vallen, histories);
        let h = Instant::now();
        let t0 = self.clock.now();
        let (ev, _) = self.tr.call("db.checkpoint", &self.clock, || db.checkpoint("snap"));
        self.out.ckpt[0] = ev.expect("checkpoint").wait().saturating_sub(t0);
        self.out.ckpt_host_ns[0] = h.elapsed().as_nanos() as u64;
        self.destroy(db);
        // Every key after each restart for the checkpoint workload; a
        // seeded eighth of them where the hand-off only closes a workload.
        let stride = if self.shape.kind == Kind::CheckpointRestart { 1 } else { 8 };
        let mut read_back = Vec::new();
        for (i, redistribute) in [(1, false), (2, true)] {
            let h = Instant::now();
            let t0 = self.clock.now();
            let name = if redistribute { "ckpt.restart_rd" } else { "ckpt.restart" };
            let opt = self.shape.options();
            let (res, _) = self.tr.call(name, &self.clock, || {
                self.ctx.restart("snap", DB, OpenFlags::create(), opt, redistribute)
            });
            let (db2, ev) = res.expect("restart");
            self.out.ckpt[i] = ev.wait().saturating_sub(t0);
            self.out.ckpt_host_ns[i] = h.elapsed().as_nanos() as u64;
            let v0 = self.clock.now();
            read_back.extend(self.sweep(&db2, &model, stride));
            let verify_ns = self.clock.now() - v0;
            if self.shape.kind == Kind::CheckpointRestart {
                self.out.phase_sim_ns += verify_ns;
            }
            if redistribute {
                self.finish(&db2, start);
            } else {
                self.destroy(&db2);
            }
        }
        if self.shape.kind == Kind::CheckpointRestart {
            self.out.phase_ops = read_back.len() as u64;
            self.out.slo_stream = read_back;
        }
    }

    fn destroy(&mut self, db: &Db) {
        let (res, _) = self.tr.call("db.destroy", &self.clock, || db.destroy());
        res.expect("destroy");
        self.ctx.barrier_all();
        if self.r == 0 {
            self.platform.storage.trim_nvm();
        }
        self.ctx.barrier_all();
    }

    fn finish(&mut self, db: &Db, start: Option<Mark>) {
        self.out.threads_peak = self.out.threads_peak.max(host::threads());
        let end = self.mark();
        if let (Some(s), Some(e)) = (start, end) {
            self.out.window = Some((s, e));
        }
        let (res, _) = self.tr.call("db.close", &self.clock, || db.close());
        res.expect("close");
        let (res, _) = self.tr.call("runtime.finalize", &self.clock, || self.ctx.finalize());
        res.expect("finalize");
        self.out.spans = std::mem::take(&mut self.tr.spans);
        self.out.dropped_spans = self.tr.dropped;
    }
}
