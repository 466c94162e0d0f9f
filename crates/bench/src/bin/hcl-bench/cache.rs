//! `cache` suite — read-path scale-out through leases (DESIGN.md §14).
//!
//! An 8-rank zipfian read-heavy `get` workload against one `UnorderedMap`
//! (memory fabric, hybrid bypass off so every read is a real dispatch) in
//! three read-path modes:
//!
//! * **uncached** — every `get` is a remote RPC to the key's owner;
//! * **cached** — the lease-based client cache: hot keys are granted
//!   bounded-TTL leases and repeat `get`s are served locally;
//! * **steered** — leasing off, hot-key detection steers sustained reads
//!   of replicated partitions to the `REPL_GET` replica path.
//!
//! Gates: on the committed artifact, cached ≥ 2× uncached median gets/s,
//! cached p99 below uncached p99, cache hits and steered reads > 0; on a
//! fresh run, cached ≥ 1.5× with hits and steered reads > 0.

use std::time::{Duration, Instant};

use hcl::{CacheStats, LeaseConfig, UnorderedMap, UnorderedMapConfig};
use hcl_bench::harness::{
    aggregate_rate, artifact, cell, figure, gate, obj, quantiles, Bound, Figures, Gate, Json, Stage,
};
use hcl_bench::workload::{KeyDist, KeyGen, WorkloadRng};
use hcl_runtime::{World, WorldConfig};

const RANKS: u32 = 8;
const KEY_SPACE: u64 = 1024;
const VALUE_BYTES: usize = 64;
const THETA: f64 = 0.99;
const SEED: u64 = 0x9258;
const ITERS: u32 = 3;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Uncached,
    Cached,
    Steered,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Uncached => "uncached",
            Mode::Cached => "cached",
            Mode::Steered => "steered",
        }
    }

    fn map_config(self) -> UnorderedMapConfig {
        let base = UnorderedMapConfig { hybrid: false, ..UnorderedMapConfig::default() };
        match self {
            Mode::Uncached => base,
            Mode::Cached => UnorderedMapConfig {
                lease: Some(LeaseConfig {
                    ttl: Duration::from_millis(50),
                    // Track half the key space: the zipfian head that
                    // carries ~80% of the reads all stays leased.
                    hot_threshold: 1,
                    topk: 512,
                    ..LeaseConfig::default()
                }),
                ..base
            },
            Mode::Steered => UnorderedMapConfig {
                replicas: 1,
                lease: Some(LeaseConfig {
                    ttl: Duration::from_millis(10),
                    // Never lease: isolate the steering effect.
                    hot_threshold: u64::MAX,
                    steer: true,
                    steer_threshold: 64,
                    ..LeaseConfig::default()
                }),
                ..base
            },
        }
    }
}

/// One timed run: every rank draws `gets` zipfian keys and issues
/// synchronous `get`s, timing each op. Returns aggregate gets/s, merged
/// per-get p50/p99 and the cache counters summed over ranks.
fn run_case(mode: Mode, gets: u64) -> Figures {
    let cfg = WorldConfig { nodes: RANKS, ranks_per_node: 1, ..WorldConfig::small() };
    let per_rank: Vec<(f64, Vec<u64>, CacheStats)> = World::run(cfg, move |rank| {
        let map: UnorderedMap<u64, Vec<u8>> =
            UnorderedMap::with_config(rank, "bench.cache.map", mode.map_config());
        if rank.id() == 0 {
            let val = vec![0x5Au8; VALUE_BYTES];
            for k in 0..KEY_SPACE {
                map.put(k, val.clone()).unwrap();
            }
            if mode == Mode::Steered {
                map.flush_replication().unwrap();
            }
        }
        rank.barrier();

        let keygen = KeyGen::new(KEY_SPACE, KeyDist::Zipfian { theta: THETA }, SEED);
        let mut rng = WorkloadRng::new(SEED ^ (0x9E37_79B9 * (rank.id() as u64 + 1)));
        let mut lat = Vec::with_capacity(gets as usize);
        let t0 = Instant::now();
        for _ in 0..gets {
            let k = keygen.next_key(&mut rng);
            let op0 = Instant::now();
            let got = map.get(&k).unwrap();
            lat.push(op0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            assert!(got.is_some(), "prefilled key {k} lost on the {} path", mode.name());
        }
        let dt = t0.elapsed().as_secs_f64();
        rank.barrier();
        (dt, lat, map.cache_stats().unwrap_or_default())
    });

    let (_, p50, p99) = quantiles(per_rank.iter().map(|(_, l, _)| l));
    let sum = |f: fn(&CacheStats) -> u64| per_rank.iter().map(|r| f(&r.2)).sum::<u64>() as f64;
    vec![
        ("gets/s", aggregate_rate(gets * RANKS as u64, per_rank.iter().map(|r| r.0))),
        ("p50_ns", p50 as f64),
        ("p99_ns", p99 as f64),
        ("cache_hits", sum(|c| c.hits)),
        ("cache_misses", sum(|c| c.misses)),
        ("lease_grants", sum(|c| c.lease_grants)),
        ("stale_expired", sum(|c| c.stale_expired)),
        ("steered_reads", sum(|c| c.steered_reads)),
    ]
}

pub fn run(smoke: bool) -> Json {
    let gets: u64 = if smoke { 4_000 } else { 20_000 };
    let cells: Vec<Json> = [Mode::Uncached, Mode::Cached, Mode::Steered]
        .into_iter()
        .map(|mode| {
            let runs: Vec<Figures> = (0..ITERS).map(|_| run_case(mode, gets)).collect();
            let params = obj(vec![("mode", mode.name().into()), ("gets_per_rank", gets.into())]);
            cell(params, "gets/s", &runs)
        })
        .collect();
    let c = &cells;
    let [unc, cac, ste] = [0, 1, 2].map(|i| move |key| figure(&c[i], key));
    let hits = cac("cache_hits");
    let summary = obj(vec![
        ("speedup_cached_vs_uncached", (cac("median") / unc("median")).into()),
        ("speedup_steered_vs_uncached", (ste("median") / unc("median")).into()),
        ("p99_uncached_ns", unc("p99_ns").into()),
        ("p99_cached_ns", cac("p99_ns").into()),
        ("cache_hits", hits.into()),
        ("cache_hit_rate", (hits / (hits + cac("cache_misses")).max(1.0)).into()),
        ("steered_reads", ste("steered_reads").into()),
    ]);
    artifact(
        "cache",
        "8-rank zipfian read-heavy gets: uncached remote RPC vs lease-cached client reads vs replica-steered hot reads",
        RANKS,
        Some(SEED),
        obj(vec![
            ("key_space", KEY_SPACE.into()),
            ("value_bytes", VALUE_BYTES.into()),
            ("theta", THETA.into()),
            ("lease_ttl_ms", 50u64.into()),
            ("lease_topk", 512u64.into()),
            ("runs", ITERS.into()),
        ]),
        cells,
        summary,
    )
}

pub fn gates(a: &Json, stage: Stage) -> Vec<Gate> {
    let bar = if stage == Stage::Committed { 2.0 } else { 1.5 };
    let mut g = vec![gate(
        "speedup_cached_vs_uncached",
        Bound::AtLeast(bar),
        "cached-over-uncached median gets/s",
    )];
    if stage == Stage::Committed {
        g.push(gate(
            "p99_cached_ns",
            Bound::Below(a.summary("p99_uncached_ns")),
            "cached p99 below uncached p99",
        ));
    }
    g.push(gate("cache_hits", Bound::Above(0.0), "cached mode served local hits"));
    g.push(gate("steered_reads", Bound::Above(0.0), "steered mode steered reads to replicas"));
    g
}
