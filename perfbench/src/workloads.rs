//! The four workloads, each one closed-loop round on a 2-rank world.
//!
//! Every round: build the world and containers and prefill them (timed as
//! `setup_s`), run the op mix on both ranks until the deadline (each rank
//! issues its next op only after the previous one returns), snapshot the
//! layer counters around that phase, then check the outputs. In a traced
//! round, probes then call lower layers directly.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hcl::queue::QueueConfig;
use hcl::{
    CacheStats, CostSnapshot, HclResult, LeaseConfig, OrderedConfig, OrderedMap, PersistConfig,
    PriorityQueue, Queue, UnorderedMap, UnorderedMapConfig,
};
use hcl_bench::workload::{KeyDist, KeyGen, WorkloadRng};
use hcl_fabric::TrafficSnapshot;
use hcl_rpc::coalesce::CoalesceSnapshot;
use hcl_rpc::server::ServerStatsSnapshot;
use hcl_runtime::{Rank, World, WorldConfig, WorldShared};

use crate::host;
use crate::probes;
use crate::stats::{quantile, HistDelta, Tally};
use crate::trace::{self, Name, Span, Tracer};
use crate::values;

/// The benchmark's workloads, by CLI name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MapReadZipf,
    MapBulkUniform,
    OrderedDurable,
    QueueHotspot,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MapReadZipf,
        Workload::MapBulkUniform,
        Workload::OrderedDurable,
        Workload::QueueHotspot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MapReadZipf => "map_read_zipf",
            Workload::MapBulkUniform => "map_bulk_uniform",
            Workload::OrderedDurable => "ordered_durable",
            Workload::QueueHotspot => "queue_hotspot",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Payload bytes of one value or item.
    fn value_len(self) -> usize {
        match self {
            Workload::MapReadZipf | Workload::QueueHotspot => 64,
            Workload::MapBulkUniform => 1024,
            Workload::OrderedDurable => 256,
        }
    }
}

/// Negative controls: a deliberate fault the output checks must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Overwrite one stored value (or push one item) with a corrupted copy.
    Corrupt,
    /// Lose one stored key or queued item.
    Drop,
}

/// One round's parameters.
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    pub round: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout (WAL directories, span files).
    pub out: PathBuf,
    pub inject: Option<Inject>,
}

/// One round's results.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, f64)>,
    pub samples: Vec<(&'static str, usize)>,
    pub info: Vec<(&'static str, String)>,
    pub tally: Tally,
    pub errors: Vec<String>,
}

const RANKS: u32 = 2;
const SETUP_BARRIER: u64 = u64::MAX;
const OTHER_BARRIER: u64 = u64::MAX - 1;
/// Upper bound on one rank's ops per second on this benchmark's workloads
/// (sizes the sample buffers; untouched capacity costs no memory).
const MAX_OPS_PER_RANK_S: f64 = 250_000.0;
/// Salt of the zipfian popularity-rank → key permutation. Fixed, so every
/// seed shares one hot set (as a scrambled-zipfian key order does) and the
/// seed drives the op and key draws; otherwise which partition the few
/// hottest keys land on would change the result from seed to seed.
const KEY_SALT: u64 = 0x5EED_F4E7;
const WINDOW: usize = 64;
const BATCH_KEYS: usize = 16;
const RANGE_WIDTH: u64 = 16;
const QUEUE_PREFILL: u64 = 512;
const ECHO_CALLS: u64 = 2_000;
const APPEND_SYNC_CALLS: u64 = 200;

#[derive(Clone, Copy)]
enum Kind {
    Read = 0,
    Write = 1,
    Scan = 2,
    Window = 3,
}

fn world_config() -> WorldConfig {
    WorldConfig {
        nodes: RANKS,
        ranks_per_node: 1,
        ..WorldConfig::default()
    }
}

fn rank_rng(spec: &Spec, rank: u32) -> WorkloadRng {
    WorkloadRng::new(
        spec.seed ^ spec.round.wrapping_mul(0xA24B_AED4_963E_E407) ^ ((rank as u64 + 1) << 56),
    )
}

/// Writer tag of op `i` on `rank` (0 is the prefill tag).
fn tag(rank: u32, i: u64) -> u64 {
    ((rank as u64 + 1) << 48) | (i & ((1 << 48) - 1))
}

/// A rank's measurement state for one round.
struct Ctx {
    tracer: Tracer,
    lat: [Vec<u64>; 4],
    tally: Tally,
    op: u64,
    bad: Vec<String>,
    bad_total: u64,
    threads_peak: u64,
    steal: f64,
}

impl Ctx {
    fn new(trace: bool, epoch: Instant) -> Self {
        Ctx {
            tracer: Tracer::new(trace, epoch),
            lat: Default::default(),
            tally: Tally::default(),
            op: 0,
            bad: Vec::new(),
            bad_total: 0,
            threads_peak: host::threads(),
            steal: 0.0,
        }
    }

    /// Run one synchronous op: a `kind` latency sample, a `name` span, and
    /// an outcome in the tally (`found` = a successful op observed a value).
    fn sync<T>(
        &mut self,
        kind: Kind,
        name: Name,
        found: impl FnOnce(&T) -> bool,
        f: impl FnOnce() -> HclResult<T>,
    ) -> Option<T> {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.tracer.record(name, 0, self.op, t0, t1);
        self.op += 1;
        self.tally.record(&r, found);
        if r.is_ok() {
            self.lat[kind as usize].push(t1.duration_since(t0).as_nanos() as u64);
        }
        r.ok()
    }

    /// Record an output-check failure (the first few verbatim).
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.bad_total += 1;
            if self.bad.len() < 4 {
                self.bad.push(what());
            }
        }
    }

    /// A traced barrier; `op` is [`SETUP_BARRIER`] for the one that ends
    /// set-up, [`OTHER_BARRIER`] otherwise.
    fn barrier(&mut self, rank: &Rank, op: u64) {
        let t0 = Instant::now();
        rank.barrier();
        self.tracer.record(Name::Barrier, 0, op, t0, Instant::now());
    }

    fn sample_threads(&mut self) {
        self.threads_peak = self.threads_peak.max(host::threads());
    }
}

/// Issue one async put window and wait for every future. Each op counts
/// once in the tally: a put whose issue or future fails is failed, however
/// many of its neighbours succeeded.
fn window(ctx: &mut Ctx, map: &UnorderedMap<'_, u64, Vec<u8>>, batch: Vec<(u64, Vec<u8>)>) {
    let t0 = Instant::now();
    let op = ctx.op;
    ctx.op += 1;
    let w = ctx.tracer.open(Name::Window, op, t0);
    let mut futures = Vec::with_capacity(batch.len());
    for (k, v) in batch {
        let s = Instant::now();
        let f = map.put_async(k, v);
        if ctx.tracer.on() {
            ctx.tracer.record(Name::PutAsync, w, op, s, Instant::now());
        }
        futures.push(f);
    }
    for f in futures {
        let r = f.and_then(|f| {
            let s = Instant::now();
            let r = f.wait();
            if ctx.tracer.on() {
                ctx.tracer.record(Name::Wait, w, op, s, Instant::now());
            }
            r
        });
        ctx.tally.record(&r, |_| true);
    }
    let t1 = Instant::now();
    ctx.tracer.close(w, t1);
    ctx.lat[Kind::Window as usize].push(t1.duration_since(t0).as_nanos() as u64);
}

/// The closed loop: `step` until the deadline, between two barriers.
/// Returns the phase's elapsed seconds on this rank.
fn timed(rank: &Rank, ctx: &mut Ctx, seconds: f64, mut step: impl FnMut(&mut Ctx, u64)) -> f64 {
    // Room for every sample and span the phase can produce, so buffer
    // growth never lands inside a timed op.
    let room = (seconds * MAX_OPS_PER_RANK_S) as usize;
    ctx.lat.iter_mut().for_each(|v| v.reserve(room));
    ctx.tracer.reserve(room * 2);
    ctx.barrier(rank, OTHER_BARRIER);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut next_sample = t0;
    let jiffies0 = host::cpu_jiffies();
    let mut i = 0u64;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if now >= next_sample {
            ctx.sample_threads();
            next_sample = now + Duration::from_millis(50);
        }
        step(ctx, i);
        i += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let jiffies1 = host::cpu_jiffies();
    ctx.steal = (jiffies1.0 - jiffies0.0) as f64 / (jiffies1.1 - jiffies0.1).max(1) as f64;
    ctx.barrier(rank, OTHER_BARRIER);
    elapsed
}

/// Per-rank registry counters (not mirrored across ranks).
#[derive(Clone, Copy, Default)]
struct RankCounters {
    coalesce: CoalesceSnapshot,
    slot_waits: u64,
    retransmits: u64,
    fsyncs: u64,
    batch_lat: hcl_telemetry::HistogramSnapshot,
    cache_get: hcl_telemetry::HistogramSnapshot,
}

impl RankCounters {
    fn read(rank: &Rank) -> Self {
        let reg = rank.telemetry().registry();
        RankCounters {
            coalesce: rank.coalesce_stats(),
            slot_waits: reg.counter("hcl_rpc_slot_waits").get(),
            retransmits: reg.counter("hcl_rpc_retransmits").get(),
            fsyncs: reg.counter("hcl_persist_fsyncs").get(),
            batch_lat: reg.histogram("hcl_rpc_batch_latency_ns").snapshot(),
            cache_get: reg.histogram("hcl_core_cache_local_get_ns").snapshot(),
        }
    }
}

/// World-wide counters. `telemetry_snapshot` mirrors these into every
/// rank's registry, so they are read here once, from the shared world.
#[derive(Clone, Copy, Default)]
struct WorldCounters {
    server: ServerStatsSnapshot,
    traffic: TrafficSnapshot,
}

impl WorldCounters {
    fn read(world: &WorldShared) -> Self {
        WorldCounters {
            server: world.server_stats(),
            traffic: world.traffic(),
        }
    }
}

/// Layer counters of one rank over the timed phase (`after - before`).
#[derive(Default)]
struct LayerDelta {
    coalesce: CoalesceSnapshot,
    slot_waits: u64,
    retransmits: u64,
    fsyncs: u64,
    batch_lat: HistDelta,
    cache_get: HistDelta,
    /// Rank 0 only: the world-wide counters.
    world: Option<(WorldCounters, WorldCounters)>,
    cost: CostSnapshot,
    /// Rank 0 only: the map partitions' `L + R + W` terms, world-wide.
    server_lrw: u64,
    cache: CacheStats,
    reads: u64,
    durable_writes: u64,
}

impl LayerDelta {
    fn between(b: &RankCounters, a: &RankCounters) -> Self {
        let (cb, ca) = (b.coalesce, a.coalesce);
        LayerDelta {
            coalesce: CoalesceSnapshot {
                batches: ca.batches - cb.batches,
                coalesced_ops: ca.coalesced_ops - cb.coalesced_ops,
                direct_ops: ca.direct_ops - cb.direct_ops,
                size_flushes: ca.size_flushes - cb.size_flushes,
                age_flushes: ca.age_flushes - cb.age_flushes,
                demand_flushes: ca.demand_flushes - cb.demand_flushes,
            },
            slot_waits: a.slot_waits - b.slot_waits,
            retransmits: a.retransmits - b.retransmits,
            fsyncs: a.fsyncs - b.fsyncs,
            batch_lat: HistDelta::between(&b.batch_lat, &a.batch_lat),
            cache_get: HistDelta::between(&b.cache_get, &a.cache_get),
            ..Default::default()
        }
    }
}

fn cache_delta(b: &CacheStats, a: &CacheStats) -> CacheStats {
    CacheStats {
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        lease_grants: a.lease_grants - b.lease_grants,
        stale_expired: a.stale_expired - b.stale_expired,
        stale_version: a.stale_version - b.stale_version,
        stale_epoch: a.stale_epoch - b.stale_epoch,
        evictions: a.evictions - b.evictions,
        steered_reads: a.steered_reads - b.steered_reads,
    }
}

/// Snapshot taken at the start of the timed phase.
struct Before {
    rank: RankCounters,
    world: Option<WorldCounters>,
}

impl Before {
    fn take(rank: &Rank) -> Self {
        Before {
            rank: RankCounters::read(rank),
            world: (rank.id() == 0).then(|| WorldCounters::read(rank.world())),
        }
    }

    fn delta(&self, rank: &Rank) -> LayerDelta {
        let mut d = LayerDelta::between(&self.rank, &RankCounters::read(rank));
        d.world = self.world.map(|w| (w, WorldCounters::read(rank.world())));
        d
    }
}

/// One probe result: metric name, value, and the samples behind it.
type Probe = (&'static str, f64, usize);

/// Everything one rank hands back from a round.
#[derive(Default)]
struct RankOut {
    lat: [Vec<u64>; 4],
    tally: Tally,
    elapsed: f64,
    spans: Vec<Span>,
    bad: Vec<String>,
    bad_total: u64,
    threads_peak: u64,
    steal: f64,
    setup_s: f64,
    layer: LayerDelta,
    /// Probe results (rank 0) and echo samples (every rank).
    probes: Vec<Probe>,
    echo: Vec<u64>,
    /// `ordered_durable`, rank 0: the live contents before shutdown and the
    /// user bytes the WAL has logged.
    live: Vec<(u64, Vec<u8>)>,
    user_bytes: u64,
}

impl RankOut {
    fn finish(ctx: Ctx, elapsed: f64, setup_s: f64, layer: LayerDelta) -> Self {
        RankOut {
            lat: ctx.lat,
            tally: ctx.tally,
            elapsed,
            spans: ctx.tracer.spans().to_vec(),
            bad: ctx.bad,
            bad_total: ctx.bad_total,
            threads_peak: ctx.threads_peak,
            steal: ctx.steal,
            setup_s,
            layer,
            ..Default::default()
        }
    }
}

/// Run one round of `spec`.
pub fn run(spec: &Spec) -> Report {
    let t_setup = Instant::now();
    let shared = World::shared(world_config());
    let world_ms = t_setup.elapsed().as_secs_f64() * 1e3;
    let wal_dir = spec
        .out
        .join(format!("wal-{}-{}", std::process::id(), spec.round));
    let outs = match spec.workload {
        Workload::MapReadZipf | Workload::MapBulkUniform => {
            World::run_on(Arc::clone(&shared), |rank| map_rank(rank, spec, t_setup))
        }
        Workload::OrderedDurable => {
            let _ = std::fs::remove_dir_all(&wal_dir);
            World::run_on(Arc::clone(&shared), |rank| {
                ordered_rank(rank, spec, &wal_dir, t_setup)
            })
        }
        Workload::QueueHotspot => {
            World::run_on(Arc::clone(&shared), |rank| queue_rank(rank, spec, t_setup))
        }
    };
    drop(shared);

    let mut rep = Report::default();
    let mut extra = Vec::new();
    if spec.workload == Workload::OrderedDurable {
        let wal_bytes = dir_bytes(&wal_dir);
        extra.push((
            "persist.bytes_per_user_byte",
            wal_bytes as f64 / outs[0].user_bytes.max(1) as f64,
        ));
        rep.info.push(("wal_fs", host::fs_type(&spec.out)));
        let (recover_s, replayed) = recover(spec, &wal_dir, &outs[0].live, &mut rep.errors);
        rep.metrics.push(("recover_s", recover_s));
        extra.push(("persist.replayed", replayed as f64));
        let _ = std::fs::remove_dir_all(&wal_dir);
    }
    summarize(spec, &outs, world_ms, &mut rep);
    rep.metrics.extend(extra);
    rep.metrics.push(("peak_rss_mib", host::peak_rss_mib()));
    if spec.trace {
        let spans: Vec<&[Span]> = outs.iter().map(|o| o.spans.as_slice()).collect();
        let path = spec.out.join(format!(
            "trace-{}-seed{}-round{}.tsv",
            spec.workload.name(),
            spec.seed,
            spec.round
        ));
        if let Err(e) = trace::write_tsv(&path, &spans) {
            rep.errors.push(format!("writing {}: {e}", path.display()));
        }
        rep.info.push(("trace_file", path.display().to_string()));
    }
    rep
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn map_rank(rank: &Rank, spec: &Spec, t_setup: Instant) -> RankOut {
    let bulk = spec.workload == Workload::MapBulkUniform;
    let (key_space, dist) = if bulk {
        (65_536u64, KeyDist::Uniform)
    } else {
        (4_096u64, KeyDist::Zipfian { theta: 0.99 })
    };
    let len = spec.workload.value_len();
    let me = rank.id();
    let mut ctx = Ctx::new(spec.trace, t_setup);
    let cfg = UnorderedMapConfig {
        hybrid: false,
        lease: Some(LeaseConfig::default()),
        ..Default::default()
    };
    let map: UnorderedMap<u64, Vec<u8>> = UnorderedMap::with_config(rank, "perfbench.map", cfg);
    let mine: Vec<u64> = (0..key_space)
        .filter(|k| k % RANKS as u64 == me as u64)
        .collect();
    for chunk in mine.chunks(256) {
        map.put_batch(
            chunk
                .iter()
                .map(|&k| (k, values::make(k, 0, len)))
                .collect(),
        )
        .expect("prefill put_batch");
    }
    ctx.barrier(rank, SETUP_BARRIER);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let keys = KeyGen::new(key_space, dist, KEY_SALT);
    let mut rng = rank_rng(spec, me);
    let before = Before::take(rank);
    let (cost0, cache0) = (map.costs(), map.cache_stats().unwrap_or_default());
    // The partitions are shared by the whole world, so their cost counters
    // are world-wide: rank 0 alone reads them.
    let server0 = (me == 0).then(|| map.server_costs());
    let mut reads = 0u64;
    let mut staged: Vec<(u64, Vec<u8>)> = Vec::with_capacity(WINDOW);
    let elapsed = timed(rank, &mut ctx, spec.seconds, |ctx, i| {
        let p = rng.below(100);
        let k = keys.next_key(&mut rng);
        let read = |ctx: &mut Ctx, k: u64| {
            if let Some(v) = ctx.sync(
                Kind::Read,
                Name::Get,
                |v: &Option<Vec<u8>>| v.is_some(),
                || map.get(&k),
            ) {
                ctx.check(
                    v.as_deref().is_some_and(|v| values::check(k, v, len)),
                    || format!("get({k}) returned a wrong value"),
                );
            }
        };
        if !bulk {
            if p < 95 {
                reads += 1;
                read(ctx, k);
            } else {
                ctx.sync(
                    Kind::Write,
                    Name::Put,
                    |_| true,
                    || map.put(k, values::make(k, tag(me, i), len)),
                );
            }
        } else if p < 85 {
            staged.push((k, values::make(k, tag(me, i), len)));
            if staged.len() == WINDOW {
                window(
                    ctx,
                    &map,
                    std::mem::replace(&mut staged, Vec::with_capacity(WINDOW)),
                );
            }
        } else if p < 95 {
            let batch: Vec<u64> = std::iter::once(k)
                .chain((1..BATCH_KEYS).map(|_| keys.next_key(&mut rng)))
                .collect();
            if let Some(vs) = ctx.sync(
                Kind::Scan,
                Name::GetBatch,
                |vs: &Vec<Option<Vec<u8>>>| vs.iter().all(Option::is_some),
                || map.get_batch(&batch),
            ) {
                let ok = vs.len() == batch.len()
                    && batch
                        .iter()
                        .zip(&vs)
                        .all(|(&k, v)| v.as_deref().is_some_and(|v| values::check(k, v, len)));
                ctx.check(ok, || {
                    format!("get_batch({batch:?}) returned a wrong value")
                });
            }
        } else {
            reads += 1;
            read(ctx, k);
        }
    });
    let mut layer = before.delta(rank);
    layer.cost = map.costs().since(&cost0);
    if let Some(b) = server0 {
        let a = map.server_costs();
        layer.server_lrw = (a.l + a.r + a.w) - (b.l + b.r + b.w);
    }
    layer.cache = cache_delta(&cache0, &map.cache_stats().unwrap_or_default());
    layer.reads = reads;

    // Negative controls land between the phase and the checks.
    if me == 0 {
        match spec.inject {
            Some(Inject::Corrupt) => {
                map.put(mine[0], values::corrupt(values::make(mine[0], 0, len)))
                    .expect("inject put");
            }
            Some(Inject::Drop) => {
                map.erase(&mine[0]).expect("inject erase");
            }
            None => {}
        }
    }
    ctx.barrier(rank, OTHER_BARRIER);
    // Every prefilled key is still readable, at the value size, with its
    // key tag and an intact payload. Each rank checks the keys it seeded.
    for chunk in mine.chunks(256) {
        match map.get_batch(chunk) {
            Ok(vs) => {
                for (&k, v) in chunk.iter().zip(&vs) {
                    ctx.check(
                        v.as_deref().is_some_and(|v| values::check(k, v, len)),
                        || format!("prefilled key {k} is missing or wrong after the run"),
                    );
                }
            }
            Err(e) => ctx.check(false, || format!("final get_batch failed: {e}")),
        }
    }
    ctx.check(ctx.tally.empty == 0, || {
        "a read of a prefilled key came back empty".into()
    });
    let mut out = RankOut::finish(ctx, elapsed, setup_s, layer);
    if spec.trace {
        layer_probes(rank, spec, &mut out, |probes, rng| {
            let (g, i) = probes::cuckoo_ns(&keys, key_space, len, rng);
            probes.push(("containers.cuckoo_get_ns", g, probes::LOOPS));
            probes.push(("containers.cuckoo_insert_ns", i, probes::LOOPS));
        });
    }
    out
}

fn ordered_rank(rank: &Rank, spec: &Spec, wal_dir: &Path, t_setup: Instant) -> RankOut {
    const KEYS: u64 = 16_384;
    let len = spec.workload.value_len();
    let me = rank.id();
    let mut ctx = Ctx::new(spec.trace, t_setup);
    let map: OrderedMap<u64, Vec<u8>> =
        OrderedMap::with_config(rank, "perfbench.omap", ordered_config(wal_dir));
    let mine: Vec<u64> = (0..KEYS)
        .filter(|k| k % RANKS as u64 == me as u64)
        .collect();
    for chunk in mine.chunks(WINDOW) {
        let futures: Vec<_> = chunk
            .iter()
            .map(|&k| {
                map.put_async(k, values::make(k, 0, len))
                    .expect("prefill put_async")
            })
            .collect();
        for f in futures {
            f.wait().expect("prefill put");
        }
    }
    ctx.barrier(rank, SETUP_BARRIER);
    let setup_s = t_setup.elapsed().as_secs_f64();
    // User bytes logged: key + value per put, key per erase.
    let mut user_bytes = mine.len() as u64 * (8 + len as u64);

    let keys = KeyGen::new(KEYS, KeyDist::Zipfian { theta: 0.99 }, KEY_SALT);
    let mut rng = rank_rng(spec, me);
    let before = Before::take(rank);
    let cost0 = map.costs();
    let mut durable_writes = 0u64;
    let elapsed = timed(rank, &mut ctx, spec.seconds, |ctx, i| {
        let p = rng.below(100);
        let k = keys.next_key(&mut rng);
        if p < 50 {
            durable_writes += 1;
            user_bytes += 8 + len as u64;
            ctx.sync(
                Kind::Write,
                Name::Put,
                |_| true,
                || map.put(k, values::make(k, tag(me, i), len)),
            );
        } else if p < 90 {
            let hi = k + RANGE_WIDTH;
            if let Some(es) = ctx.sync(
                Kind::Scan,
                Name::Range,
                |es: &Vec<(u64, Vec<u8>)>| !es.is_empty(),
                || map.range(&k, &hi),
            ) {
                let ok = es.len() as u64 <= RANGE_WIDTH
                    && es.windows(2).all(|w| w[0].0 < w[1].0)
                    && es
                        .iter()
                        .all(|(ek, v)| (k..hi).contains(ek) && values::check(*ek, v, len));
                ctx.check(ok, || format!("range({k}, {hi}) returned wrong entries"));
            }
        } else {
            durable_writes += 1;
            user_bytes += 8;
            if let Some(Some(v)) = ctx.sync(
                Kind::Write,
                Name::Erase,
                |v: &Option<Vec<u8>>| v.is_some(),
                || map.erase(&k),
            ) {
                ctx.check(values::check(k, &v, len), || {
                    format!("erase({k}) returned a wrong value")
                });
            }
        }
    });
    let mut layer = before.delta(rank);
    layer.cost = map.costs().since(&cost0);
    layer.durable_writes = durable_writes;

    if me == 0 && spec.inject == Some(Inject::Corrupt) {
        map.put(mine[0], values::corrupt(values::make(mine[0], 0, len)))
            .expect("inject put");
    }
    ctx.barrier(rank, OTHER_BARRIER);
    let mut live = Vec::new();
    if me == 0 {
        match map.snapshot_sorted() {
            Ok(l) => live = l,
            Err(e) => ctx.check(false, || format!("live snapshot failed: {e}")),
        }
        for (k, v) in &live {
            ctx.check(values::check(*k, v, len), || {
                format!("live key {k} holds a wrong value")
            });
        }
        // A key lost after the live snapshot must show up at recovery.
        if spec.inject == Some(Inject::Drop) {
            if let Some((k, _)) = live.first() {
                map.erase(k).expect("inject erase");
            }
        }
    }
    ctx.barrier(rank, OTHER_BARRIER);
    let mut out = RankOut::finish(ctx, elapsed, setup_s, layer);
    out.live = live;
    out.user_bytes = rank.allreduce(user_bytes, |a, b| a + b);
    if spec.trace {
        layer_probes(rank, spec, &mut out, |probes, rng| {
            let range_ns = probes::skiplist_range_ns(&keys, KEYS, len, RANGE_WIDTH, rng);
            probes.push(("containers.skiplist_range_ns", range_ns, probes::LOOPS));
            let dir = wal_dir.with_extension("probe");
            match probes::append_sync_ns(&dir, len, APPEND_SYNC_CALLS) {
                Ok(s) => probes.push((
                    "persist.append_sync_us",
                    quantile(&s, 0.5).unwrap_or(0) as f64 / 1e3,
                    s.len(),
                )),
                Err(e) => eprintln!("append/sync probe failed: {e}"),
            }
        });
    }
    out
}

fn ordered_config(wal_dir: &Path) -> OrderedConfig {
    OrderedConfig {
        persist: Some(PersistConfig::strict(wal_dir)),
        ..Default::default()
    }
}

/// Reopen the WAL directory in a fresh world; returns `(recover_s,
/// frames replayed)` and checks the recovered contents equal `live`.
fn recover(
    spec: &Spec,
    wal_dir: &Path,
    live: &[(u64, Vec<u8>)],
    errors: &mut Vec<String>,
) -> (f64, u64) {
    let t0 = Instant::now();
    let outs = World::run(world_config(), |rank| {
        let map: OrderedMap<u64, Vec<u8>> =
            OrderedMap::with_config(rank, "perfbench.omap", ordered_config(wal_dir));
        rank.barrier();
        let recover_s = t0.elapsed().as_secs_f64();
        let replayed = rank
            .telemetry()
            .registry()
            .counter("hcl_persist_replayed")
            .get();
        let got = if rank.id() == 0 {
            Some(map.snapshot_sorted())
        } else {
            None
        };
        rank.barrier();
        (recover_s, replayed, got)
    });
    let len = spec.workload.value_len();
    match &outs[0].2 {
        Some(Ok(got)) if got.as_slice() == live => {
            if let Some((k, _)) = got.iter().find(|(k, v)| !values::check(*k, v, len)) {
                errors.push(format!("recovered key {k} holds a wrong value"));
            }
        }
        Some(Ok(got)) => {
            let first = got.iter().zip(live).find(|(g, l)| g != l).map_or_else(
                || "one side is longer".to_string(),
                |(g, l)| {
                    format!(
                        "first difference: recovered key {} tag {:#x}, live key {} tag {:#x}",
                        g.0,
                        values::tag_of(&g.1),
                        l.0,
                        values::tag_of(&l.1)
                    )
                },
            );
            errors.push(format!(
                "recovered contents differ from the live contents ({} vs {} entries; {first})",
                got.len(),
                live.len()
            ))
        }
        Some(Err(e)) => errors.push(format!("recovered snapshot failed: {e}")),
        None => unreachable!("rank 0 always snapshots"),
    }
    let replayed = outs.iter().map(|o| o.1).sum();
    (outs[0].0, replayed)
}

fn queue_rank(rank: &Rank, spec: &Spec, t_setup: Instant) -> RankOut {
    let len = spec.workload.value_len();
    let me = rank.id();
    let mut ctx = Ctx::new(spec.trace, t_setup);
    let cfg = QueueConfig {
        hybrid: false,
        ..Default::default()
    };
    let q: Queue<Vec<u8>> = Queue::with_config(rank, "perfbench.q", cfg.clone());
    let pq: PriorityQueue<Vec<u8>> = PriorityQueue::with_config(rank, "perfbench.pq", cfg);
    // Items name themselves: key = writer tag, so any item can be checked.
    let item = |i: u64| values::make(tag(me, i), tag(me, i), len);
    let prefill = |base: u64| {
        (0..QUEUE_PREFILL)
            .map(|i| item(base + i))
            .collect::<Vec<_>>()
    };
    q.push_bulk(prefill(1 << 46)).expect("prefill queue");
    pq.push_bulk(prefill(1 << 47))
        .expect("prefill priority queue");
    ctx.barrier(rank, SETUP_BARRIER);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let item_ok = |v: &[u8]| values::check(values::key_of(v), v, len);
    let mut rng = rank_rng(spec, me);
    let before = Before::take(rank);
    let cost0 = (q.costs(), pq.costs());
    // [fifo, priority] × (pushed, popped)
    let mut pushed = [QUEUE_PREFILL; 2];
    let mut popped = [0u64; 2];
    let elapsed = timed(rank, &mut ctx, spec.seconds, |ctx, i| {
        let which = rng.below(2) as usize;
        let p = rng.below(100);
        if p < 50 {
            let ok = ctx.sync(
                Kind::Write,
                Name::Push,
                |_| true,
                || {
                    if which == 0 {
                        q.push(item(i))
                    } else {
                        pq.push(item(i))
                    }
                },
            );
            pushed[which] += ok.is_some() as u64;
        } else if p < 95 {
            let got = ctx.sync(
                Kind::Write,
                Name::Pop,
                |v: &Option<Vec<u8>>| v.is_some(),
                || if which == 0 { q.pop() } else { pq.pop() },
            );
            if let Some(Some(v)) = got {
                popped[which] += 1;
                ctx.check(item_ok(&v), || "pop returned a corrupted item".into());
            }
        } else if which == 0 {
            ctx.sync(Kind::Read, Name::Len, |_| true, || q.len());
        } else if let Some(Some(v)) = ctx.sync(
            Kind::Read,
            Name::Peek,
            |v: &Option<Vec<u8>>| v.is_some(),
            || pq.peek(),
        ) {
            ctx.check(item_ok(&v), || "peek returned a corrupted item".into());
        }
    });
    let mut layer = before.delta(rank);
    let (c, p) = (q.costs().since(&cost0.0), pq.costs().since(&cost0.1));
    layer.cost = CostSnapshot {
        f: c.f + p.f,
        l: c.l + p.l,
        r: c.r + p.r,
        w: c.w + p.w,
        fb: c.fb + p.fb,
        fu: c.fu + p.fu,
    };

    if me == 0 {
        match spec.inject {
            Some(Inject::Corrupt) => {
                q.push(values::corrupt(item(u64::MAX >> 16)))
                    .expect("inject push");
                pushed[0] += 1;
            }
            Some(Inject::Drop) => {
                q.pop().expect("inject pop");
            }
            None => {}
        }
    }
    // pushed = popped + remaining, per container, summed over ranks; every
    // remaining item is intact.
    let pushed = rank.allreduce(pushed, |a, b| [a[0] + b[0], a[1] + b[1]]);
    let popped = rank.allreduce(popped, |a, b| [a[0] + b[0], a[1] + b[1]]);
    if me == 0 {
        for (which, name) in [(0usize, "queue"), (1, "priority queue")] {
            let mut remaining = 0u64;
            loop {
                let r = if which == 0 {
                    q.pop_bulk(512)
                } else {
                    pq.pop_bulk(512)
                };
                match r {
                    Ok(vs) if vs.is_empty() => break,
                    Ok(vs) => {
                        remaining += vs.len() as u64;
                        for v in &vs {
                            ctx.check(item_ok(v), || format!("{name} holds a corrupted item"));
                        }
                    }
                    Err(e) => {
                        ctx.check(false, || format!("{name} drain failed: {e}"));
                        break;
                    }
                }
            }
            let (pu, po) = (pushed[which], popped[which]);
            ctx.check(pu == po + remaining, || {
                format!("{name}: pushed {pu} != popped {po} + remaining {remaining}")
            });
        }
    }
    ctx.barrier(rank, OTHER_BARRIER);
    let mut out = RankOut::finish(ctx, elapsed, setup_s, layer);
    if spec.trace {
        layer_probes(rank, spec, &mut out, |probes, _| {
            let (f, p) = probes::queue_ns(len);
            probes.push(("containers.queue_op_ns", f, probes::LOOPS));
            probes.push(("containers.pq_op_ns", p, probes::LOOPS));
        });
    }
    out
}

/// The probes every traced round runs: the RPC echo on both ranks at once
/// (the workload's two-client shape), then rank 0's local probes.
fn layer_probes(
    rank: &Rank,
    spec: &Spec,
    out: &mut RankOut,
    local: impl FnOnce(&mut Vec<Probe>, &mut WorkloadRng),
) {
    let len = spec.workload.value_len();
    let fid = probes::echo_fn(rank);
    rank.barrier();
    match probes::echo_ns(rank, fid, len, ECHO_CALLS) {
        Ok(s) => out.echo = s,
        Err(e) => out.bad.push(e),
    }
    rank.barrier();
    if rank.id() == 0 {
        let (enc, dec) = probes::databox_ns(len);
        out.probes.push(("databox.encode_ns", enc, probes::LOOPS));
        out.probes.push(("databox.decode_ns", dec, probes::LOOPS));
        let mut rng = rank_rng(spec, u32::MAX);
        local(&mut out.probes, &mut rng);
    }
    rank.barrier();
}

/// Fold the ranks' outputs into the round's metrics.
fn summarize(spec: &Spec, outs: &[RankOut], world_ms: f64, rep: &mut Report) {
    let merged = |kinds: &[Kind]| {
        let mut v: Vec<u64> = outs
            .iter()
            .flat_map(|o| {
                kinds
                    .iter()
                    .flat_map(move |&k| o.lat[k as usize].iter().copied())
            })
            .collect();
        v.sort_unstable();
        v
    };
    let us = |ns: u64| ns as f64 / 1e3;
    for o in outs {
        rep.tally.merge(&o.tally);
        rep.errors.extend(o.bad.iter().cloned());
    }
    let bad_total: u64 = outs.iter().map(|o| o.bad_total).sum();
    if bad_total > 0 {
        rep.errors
            .push(format!("{bad_total} output check(s) failed"));
    }
    let elapsed = outs.iter().map(|o| o.elapsed).fold(0.0, f64::max).max(1e-9);
    let completed = rep.tally.attempted - rep.tally.failed;
    let ops = completed.max(1) as f64;
    rep.metrics.push(("ops_per_s", completed as f64 / elapsed));
    for (name, kind) in [
        ("read_p50_us", Kind::Read),
        ("write_p50_us", Kind::Write),
        ("scan_p50_us", Kind::Scan),
        ("window_p50_us", Kind::Window),
    ] {
        let s = merged(&[kind]);
        rep.samples.push((name, s.len()));
        if let Some(q) = quantile(&s, 0.5) {
            rep.metrics.push((name, us(q)));
        }
    }
    let sync = merged(&[Kind::Read, Kind::Write, Kind::Scan]);
    for (name, q) in [("sync_p50_us", 0.5), ("sync_p99_us", 0.99)] {
        rep.samples.push((name, sync.len()));
        if let Some(v) = quantile(&sync, q) {
            rep.metrics.push((name, us(v)));
        }
    }
    rep.metrics.push(("setup_s", outs[0].setup_s));
    rep.metrics.push(("cpu_steal_share", outs[0].steal));
    rep.metrics.push(("fail_ratio", rep.tally.fail_ratio()));

    let threads_peak = outs.iter().map(|o| o.threads_peak).max().unwrap_or(0);
    rep.info.push(("cores", host::cores().to_string()));
    rep.info.push(("ranks", RANKS.to_string()));
    rep.info.push(("threads_peak", threads_peak.to_string()));
    rep.info
        .push(("oversubscribed", (threads_peak > host::cores()).to_string()));
    rep.info.push(("fabric", "memory".into()));
    if !spec.trace {
        return;
    }

    // Per-layer metrics (traced rounds).
    let per = |n: u64| n as f64 / ops;
    let mut layer = LayerDelta::default();
    let mut cost = CostSnapshot::default();
    for o in outs {
        let d = &o.layer;
        for (a, b) in [
            (&mut layer.coalesce.batches, d.coalesce.batches),
            (&mut layer.coalesce.coalesced_ops, d.coalesce.coalesced_ops),
            (&mut layer.coalesce.size_flushes, d.coalesce.size_flushes),
            (&mut layer.coalesce.age_flushes, d.coalesce.age_flushes),
            (
                &mut layer.coalesce.demand_flushes,
                d.coalesce.demand_flushes,
            ),
            (&mut layer.slot_waits, d.slot_waits),
            (&mut layer.retransmits, d.retransmits),
            (&mut layer.fsyncs, d.fsyncs),
            (&mut layer.server_lrw, d.server_lrw),
            (&mut layer.reads, d.reads),
            (&mut layer.durable_writes, d.durable_writes),
            (&mut layer.cache.hits, d.cache.hits),
            (&mut layer.cache.misses, d.cache.misses),
            (&mut layer.cache.lease_grants, d.cache.lease_grants),
            (&mut layer.cache.stale_version, d.cache.stale_version),
            (&mut cost.f, d.cost.f),
            (&mut cost.l, d.cost.l + d.cost.r + d.cost.w),
        ] {
            *a += b;
        }
        layer.batch_lat.add(d.batch_lat);
        layer.cache_get.add(d.cache_get);
    }
    let (w0, w1) = outs[0]
        .layer
        .world
        .expect("rank 0 reads the world counters");
    let spans: Vec<&[Span]> = outs.iter().map(|o| o.spans.as_slice()).collect();
    let med = |v: Vec<u64>| quantile(&v, 0.5).map_or(0.0, us);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let flushes =
        layer.coalesce.size_flushes + layer.coalesce.age_flushes + layer.coalesce.demand_flushes;
    let mut echo: Vec<u64> = outs.iter().flat_map(|o| o.echo.iter().copied()).collect();
    echo.sort_unstable();
    let setup_barriers: Vec<u64> = spans
        .iter()
        .flat_map(|s| s.iter())
        .filter(|s| s.name == Name::Barrier && s.op == SETUP_BARRIER)
        .map(|s| s.dur_ns)
        .collect();
    let issue = trace::durations(&spans, Name::PutAsync);
    let wait = trace::durations(&spans, Name::Wait);
    let window_self = trace::self_times(&spans, Name::Window);
    for (name, n) in [
        ("runtime.barrier_us", setup_barriers.len()),
        ("core.issue_us", issue.len()),
        ("core.wait_us", wait.len()),
        ("core.window_self_us", window_self.len()),
        ("cache.local_get_ns", layer.cache_get.count as usize),
        ("rpc.batch_us", layer.batch_lat.count as usize),
        ("rpc.echo_p50_us", echo.len()),
        ("rpc.echo_p99_us", echo.len()),
    ] {
        rep.samples.push((name, n));
    }
    let m = &mut rep.metrics;
    m.push(("runtime.threads_peak", threads_peak as f64));
    m.push(("runtime.world_ms", world_ms));
    m.push((
        "runtime.barrier_us",
        setup_barriers.iter().sum::<u64>() as f64 / setup_barriers.len().max(1) as f64 / 1e3,
    ));
    m.push(("core.F_per_op", per(cost.f)));
    m.push(("core.LRW_per_op", per(cost.l + layer.server_lrw)));
    m.push(("core.issue_us", med(issue)));
    m.push(("core.wait_us", med(wait)));
    m.push(("core.window_self_us", med(window_self)));
    m.push((
        "cache.hit_ratio",
        ratio(layer.cache.hits, layer.cache.hits + layer.cache.misses),
    ));
    m.push((
        "cache.grants_per_1k_reads",
        1e3 * ratio(layer.cache.lease_grants, layer.reads),
    ));
    m.push((
        "cache.stale_version_per_1k_reads",
        1e3 * ratio(layer.cache.stale_version, layer.reads),
    ));
    m.push(("cache.local_get_ns", layer.cache_get.mean()));
    m.push((
        "coalesce.ops_per_batch",
        ratio(layer.coalesce.coalesced_ops, layer.coalesce.batches),
    ));
    m.push((
        "coalesce.age_flush_share",
        ratio(layer.coalesce.age_flushes, flushes),
    ));
    m.push(("rpc.batch_us", layer.batch_lat.mean() / 1e3));
    m.push(("rpc.echo_p50_us", quantile(&echo, 0.5).map_or(0.0, us)));
    m.push(("rpc.echo_p99_us", quantile(&echo, 0.99).map_or(0.0, us)));
    m.push(("rpc.slot_waits_per_1k", 1e3 * per(layer.slot_waits)));
    m.push(("rpc.retransmits_per_1k", 1e3 * per(layer.retransmits)));
    m.push((
        "server.requests_per_op",
        per(w1.server.requests - w0.server.requests),
    ));
    m.push((
        "server.overflow_responses",
        (w1.server.overflow_responses - w0.server.overflow_responses) as f64,
    ));
    m.push((
        "fabric.sends_per_op",
        per(w1.traffic.sends - w0.traffic.sends),
    ));
    m.push((
        "fabric.bytes_per_op",
        per(w1.traffic.send_bytes - w0.traffic.send_bytes),
    ));
    m.push((
        "persist.fsyncs_per_write",
        ratio(layer.fsyncs, layer.durable_writes),
    ));
    for &(name, v, n) in &outs[0].probes {
        m.push((name, v));
        rep.samples.push((name, n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_fabric::chaos::{ChaosFabric, FaultPlan, FaultRule, OpClass};

    fn spec(workload: Workload, trace: bool, inject: Option<Inject>) -> Spec {
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_out/test")
            .join(workload.name());
        std::fs::create_dir_all(&out).expect("create test scratch dir");
        Spec {
            workload,
            seed: 3,
            round: 0,
            seconds: 0.2,
            trace,
            out,
            inject,
        }
    }

    fn negative_controls(workload: Workload) {
        let clean = run(&spec(workload, true, None));
        assert!(
            clean.errors.is_empty(),
            "{}: clean round failed its checks: {:?}",
            workload.name(),
            clean.errors
        );
        assert_eq!(clean.tally.failed, 0);
        let names: Vec<&str> = clean.metrics.iter().map(|m| m.0).collect();
        for m in [
            "ops_per_s",
            "sync_p50_us",
            "sync_p99_us",
            "setup_s",
            "peak_rss_mib",
            "rpc.echo_p50_us",
        ] {
            assert!(names.contains(&m), "{}: no {m}", workload.name());
        }
        for inject in [Inject::Corrupt, Inject::Drop] {
            let rep = run(&spec(workload, false, Some(inject)));
            assert!(
                !rep.errors.is_empty(),
                "{}: {inject:?} went unnoticed",
                workload.name()
            );
        }
    }

    #[test]
    fn map_read_zipf_checks_catch_corruption_and_loss() {
        negative_controls(Workload::MapReadZipf);
    }

    #[test]
    fn map_bulk_uniform_checks_catch_corruption_and_loss() {
        negative_controls(Workload::MapBulkUniform);
    }

    #[test]
    fn ordered_durable_checks_catch_corruption_and_loss() {
        negative_controls(Workload::OrderedDurable);
    }

    #[test]
    fn queue_hotspot_checks_catch_corruption_and_loss() {
        negative_controls(Workload::QueueHotspot);
    }

    /// The partitions' cost counters are world-wide. On `map_read_zipf`
    /// (hybrid off) every server request is one `get` (`L + R`) or one
    /// `put` (`L + W`), and the client adds no terms of its own, so the
    /// server-side terms are exactly twice the server's request count.
    /// Summing each rank's reading would make them four times.
    #[test]
    fn server_terms_are_read_once_per_world() {
        let rep = run(&Spec {
            round: 1,
            ..spec(Workload::MapReadZipf, true, None)
        });
        assert!(rep.errors.is_empty(), "{:?}", rep.errors);
        let metric = |n: &str| rep.metrics.iter().find(|m| m.0 == n).map(|m| m.1);
        let lrw = metric("core.LRW_per_op").expect("core.LRW_per_op");
        let requests = metric("server.requests_per_op").expect("server.requests_per_op");
        assert!(requests > 0.0, "no request reached a server");
        assert!(
            (lrw - 2.0 * requests).abs() <= 1e-9 * lrw,
            "core.LRW_per_op {lrw} is not 2 x server.requests_per_op {requests}"
        );
    }

    /// Rank 1's requests to rank 0 fail at send with probability 0.3; every
    /// op of a failed batch fails. The tally must count each failed future,
    /// and exactly the keys whose put failed must be missing afterwards.
    #[test]
    fn async_windows_count_every_failed_future() {
        const WINDOWS: u64 = 40;
        let cfg = world_config();
        let plan = FaultPlan::new(11).for_pair_class(
            cfg.ep_of(1),
            cfg.ep_of(0),
            OpClass::Send,
            FaultRule::NONE.error(0.3),
        );
        let shared = World::shared_with_fabric(cfg, Arc::new(ChaosFabric::over_memory(plan)));
        let outs = World::run_on(shared, |rank| {
            let cfg = UnorderedMapConfig {
                hybrid: false,
                ..Default::default()
            };
            let map: UnorderedMap<u64, Vec<u8>> = UnorderedMap::with_config(rank, "chaos", cfg);
            let mut ctx = Ctx::new(false, Instant::now());
            let mut failed_windows = 0u64;
            if rank.id() == 1 {
                for w in 0..WINDOWS {
                    let before = ctx.tally.failed;
                    window(
                        &mut ctx,
                        &map,
                        (0..WINDOW as u64)
                            .map(|i| (w * 100 + i, values::make(w * 100 + i, 1, 64)))
                            .collect(),
                    );
                    failed_windows += (ctx.tally.failed > before) as u64;
                }
            }
            rank.barrier();
            // Each rank reads back the keys it owns: its sends to itself are
            // never faulted.
            let owned: Vec<u64> = (0..WINDOWS)
                .flat_map(|w| (0..WINDOW as u64).map(move |i| w * 100 + i))
                .filter(|k| map.server_of(map.partition_of(k)) == rank.id())
                .collect();
            let missing = map
                .get_batch(&owned)
                .expect("unfaulted read-back")
                .iter()
                .filter(|v| v.is_none())
                .count();
            rank.barrier();
            (ctx.tally, failed_windows, missing as u64)
        });
        let (tally, failed_windows) = (outs[1].0, outs[1].1);
        let missing = outs[0].2 + outs[1].2;
        assert_eq!(tally.attempted, WINDOWS * WINDOW as u64);
        assert!(tally.failed > 0, "the plan injected no failure");
        assert_eq!(
            tally.failed, missing,
            "failed futures must be exactly the puts that never landed"
        );
        assert!(
            tally.failed > failed_windows,
            "one failure per window would under-count"
        );
        assert_eq!(tally.fail_ratio(), missing as f64 / tally.attempted as f64);
    }
}
