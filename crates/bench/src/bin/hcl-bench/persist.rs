//! `persist` suite — strict vs relaxed sync epochs (DESIGN.md §16).
//!
//! An 8-rank zipfian `put` workload against one durable `UnorderedMap`
//! (memory fabric, hybrid bypass off so every write is a real dispatch)
//! under three durability cells over identical op streams:
//!
//! * **none** — persistence off: the no-WAL baseline;
//! * **strict** — `SyncPolicy::Strict`: every logged mutation is fsynced
//!   before the ack;
//! * **relaxed** — `SyncPolicy::Relaxed { 5 ms }`: appends land in the page
//!   cache and a background flusher closes the gap, so fsyncs amortize over
//!   many acks.
//!
//! The gate is the flush-gap signature, not raw speed: the `none` cell logs
//! nothing, both durable cells log every put (`hcl_persist_appended` ==
//! puts), strict fsyncs at least once per put, relaxed fsyncs ≥ 10× less,
//! and relaxed throughput stays ≥ 0.5× strict. One run per cell.

use std::time::{Duration, Instant};

use hcl::unordered::UnorderedMapConfig;
use hcl::{PersistConfig, SyncPolicy, UnorderedMap};
use hcl_bench::harness::{
    aggregate_rate, artifact, cell, figure, gate, obj, quantiles, Bound, Figures, Gate, Json, Stage,
};
use hcl_bench::workload::{KeyDist, KeyGen, WorkloadRng};
use hcl_runtime::{World, WorldConfig};

const RANKS: u32 = 8;
const KEY_SPACE: u64 = 1024;
const VALUE_BYTES: usize = 64;
const THETA: f64 = 0.99;
const SEED: u64 = 0xA210;

#[derive(Clone, Copy, PartialEq)]
enum Cell {
    None,
    Strict,
    Relaxed,
}

impl Cell {
    fn name(self) -> &'static str {
        match self {
            Cell::None => "none",
            Cell::Strict => "strict",
            Cell::Relaxed => "relaxed",
        }
    }

    fn policy(self) -> Option<SyncPolicy> {
        match self {
            Cell::None => None,
            Cell::Strict => Some(SyncPolicy::Strict),
            Cell::Relaxed => Some(SyncPolicy::Relaxed { interval: Duration::from_millis(5) }),
        }
    }
}

/// One durability cell: every rank streams `puts` synchronous zipfian puts,
/// timing each; persist counters are summed across rank registries after
/// the barrier (each WAL bumps exactly one rank's registry). Returns
/// aggregate puts/s, the put count, merged per-put p50/p99 and the summed
/// `appended`/`fsyncs` counters.
fn run_cell(cell: Cell, puts: u64) -> Figures {
    let dir = std::env::temp_dir().join(format!(
        "hcl-bench-persist-{}-{}",
        std::process::id(),
        cell.name()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let persist =
        cell.policy().map(|policy| PersistConfig { policy, ..PersistConfig::strict(&dir) });
    let cfg = WorldConfig { nodes: RANKS, ranks_per_node: 1, ..WorldConfig::small() };
    let per_rank: Vec<(f64, Vec<u64>, u64, u64)> = World::run(cfg, move |rank| {
        let map: UnorderedMap<u64, Vec<u8>> = UnorderedMap::with_config(
            rank,
            "bench.persist.map",
            UnorderedMapConfig { hybrid: false, persist: persist.clone(), ..Default::default() },
        );
        rank.barrier();
        let keygen = KeyGen::new(KEY_SPACE, KeyDist::Zipfian { theta: THETA }, SEED);
        let mut rng = WorkloadRng::new(SEED ^ (0x9E37_79B9 * (rank.id() as u64 + 1)));
        let val = vec![0xA5u8; VALUE_BYTES];
        let mut lat = Vec::with_capacity(puts as usize);
        let t0 = Instant::now();
        for _ in 0..puts {
            let k = keygen.next_key(&mut rng);
            let op0 = Instant::now();
            map.put(k, val.clone()).expect("durable put");
            lat.push(op0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        let dt = t0.elapsed().as_secs_f64();
        rank.barrier();
        let reg = rank.telemetry().registry();
        let appended = reg.counter("hcl_persist_appended").get();
        let fsyncs = reg.counter("hcl_persist_fsyncs").get();
        rank.barrier();
        (dt, lat, appended, fsyncs)
    });
    let _ = std::fs::remove_dir_all(&dir);

    let (total, p50, p99) = quantiles(per_rank.iter().map(|r| &r.1));
    vec![
        ("puts/s", aggregate_rate(total, per_rank.iter().map(|r| r.0))),
        ("total_puts", total as f64),
        ("p50_ns", p50 as f64),
        ("p99_ns", p99 as f64),
        ("appended", per_rank.iter().map(|r| r.2).sum::<u64>() as f64),
        ("fsyncs", per_rank.iter().map(|r| r.3).sum::<u64>() as f64),
    ]
}

pub fn run(smoke: bool) -> Json {
    let puts: u64 = if smoke { 2_500 } else { 20_000 };
    let cells: Vec<Json> = [Cell::None, Cell::Strict, Cell::Relaxed]
        .into_iter()
        .map(|c| {
            let params = obj(vec![("cell", c.name().into()), ("puts_per_rank", puts.into())]);
            cell(params, "puts/s", &[run_cell(c, puts)])
        })
        .collect();
    let c = &cells;
    let [none, strict, relaxed] = [0, 1, 2].map(|i| move |key| figure(&c[i], key));
    let summary = obj(vec![
        ("none_appended", none("appended").into()),
        ("strict_puts", strict("total_puts").into()),
        ("strict_appended", strict("appended").into()),
        ("strict_fsyncs", strict("fsyncs").into()),
        ("relaxed_puts", relaxed("total_puts").into()),
        ("relaxed_appended", relaxed("appended").into()),
        ("flush_gap_strict_over_relaxed", (strict("fsyncs") / relaxed("fsyncs").max(1.0)).into()),
        ("throughput_ratio_relaxed_vs_strict", (relaxed("median") / strict("median")).into()),
        ("durability_cost_strict_vs_none", (none("median") / strict("median")).into()),
    ]);
    artifact(
        "persist",
        "8-rank zipfian durable puts: no persistence vs strict (fsync per flush barrier) vs relaxed (background flusher, bounded flush gap)",
        RANKS,
        Some(SEED),
        obj(vec![
            ("key_space", KEY_SPACE.into()),
            ("value_bytes", VALUE_BYTES.into()),
            ("theta", THETA.into()),
            ("relaxed_interval_ms", 5u64.into()),
            ("runs", 1u64.into()),
        ]),
        cells,
        summary,
    )
}

pub fn gates(a: &Json, _: Stage) -> Vec<Gate> {
    let (strict_puts, relaxed_puts) = (a.summary("strict_puts"), a.summary("relaxed_puts"));
    vec![
        gate("none_appended", Bound::Exactly(0.0), "persistence-off cell appends no WAL records"),
        gate("strict_appended", Bound::Exactly(strict_puts), "strict cell logs every put"),
        gate("relaxed_appended", Bound::Exactly(relaxed_puts), "relaxed cell logs every put"),
        gate(
            "strict_fsyncs",
            Bound::AtLeast(strict_puts),
            "strict cell fsyncs at least once per put",
        ),
        gate(
            "flush_gap_strict_over_relaxed",
            Bound::AtLeast(10.0),
            "strict-over-relaxed fsync flush gap",
        ),
        gate(
            "throughput_ratio_relaxed_vs_strict",
            Bound::AtLeast(0.5),
            "relaxed-over-strict throughput",
        ),
    ]
}
