//! `rebalance` suite — live shard rebalancing (DESIGN.md §15).
//!
//! An 8-rank zipfian `get` workload against one `UnorderedMap` (memory
//! fabric, hybrid bypass off so every read is a real dispatch) in two
//! phases over one world:
//!
//! * **steady** — the membership map never changes: every rank issues a
//!   fixed count of synchronous zipfian gets;
//! * **rebalance** — the same get loop runs on a worker thread per rank
//!   while the main threads drive repeated live `drain_rank` /
//!   `admit_rank` cycles, so shards migrate under the running workload.
//!
//! The gates are availability, not speed: real keys migrated, none lost,
//! every get ended in success or a typed error (`WrongEpoch` /
//! `Rebalance`), throughput during rebalance stayed ≥ 0.1× steady, and at
//! least two membership commits (two per cycle on a fresh run). One run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hcl::unordered::UnorderedMapConfig;
use hcl::{admit_rank, drain_rank, HclError, UnorderedMap};
use hcl_bench::harness::{
    aggregate_rate, artifact, cell, figure, gate, obj, quantiles, Bound, Figures, Gate, Json, Stage,
};
use hcl_bench::workload::{KeyDist, KeyGen, WorkloadRng};
use hcl_runtime::{MembershipSnapshot, World, WorldConfig};

const RANKS: u32 = 8;
const KEY_SPACE: u64 = 1024;
const VALUE_BYTES: usize = 64;
const THETA: f64 = 0.99;
const SEED: u64 = 0x9259;
/// Ranks drained and re-admitted, round-robin, one per cycle. All stay
/// live as clients throughout — a drain only evicts ownership.
const VICTIMS: [u32; 2] = [6, 7];

/// One rank's phase: wall time, per-get latencies, typed errors, non-typed
/// errors.
type PhaseOut = (f64, Vec<u64>, u64, u64);

/// One phase merged over ranks: aggregate gets/s, the get count, per-get
/// p50/p99, typed and non-typed errors.
fn merge_phase(per_rank: Vec<PhaseOut>) -> Figures {
    let (total, p50, p99) = quantiles(per_rank.iter().map(|p| &p.1));
    vec![
        ("gets/s", aggregate_rate(total, per_rank.iter().map(|p| p.0))),
        ("total_gets", total as f64),
        ("p50_ns", p50 as f64),
        ("p99_ns", p99 as f64),
        ("typed_errors", per_rank.iter().map(|p| p.2).sum::<u64>() as f64),
        ("non_typed_errors", per_rank.iter().map(|p| p.3).sum::<u64>() as f64),
    ]
}

/// Both phases over one world, so the rebalance phase inherits the steady
/// phase's populated, settled map. Returns (steady, rebalance, membership
/// counters, lost keys).
fn run_bench(steady_gets: u64, cycles: u32) -> (Figures, Figures, MembershipSnapshot, u64) {
    let cfg = WorldConfig { nodes: RANKS, ranks_per_node: 1, ..WorldConfig::small() };
    type RankOut = (PhaseOut, PhaseOut, MembershipSnapshot, u64);
    let per_rank: Vec<RankOut> = World::run(cfg, move |rank| {
        let map: Arc<UnorderedMap<u64, Vec<u8>>> = Arc::new(UnorderedMap::with_config(
            rank,
            "bench.rebalance.map",
            UnorderedMapConfig { hybrid: false, ..UnorderedMapConfig::default() },
        ));
        if rank.id() == 0 {
            let val = vec![0x5Au8; VALUE_BYTES];
            for k in 0..KEY_SPACE {
                map.put(k, val.clone()).unwrap();
            }
        }
        rank.barrier();

        // Phase 1: steady state, no membership activity.
        let keygen = KeyGen::new(KEY_SPACE, KeyDist::Zipfian { theta: THETA }, SEED);
        let mut rng = WorkloadRng::new(SEED ^ (0x9E37_79B9 * (rank.id() as u64 + 1)));
        let mut lat = Vec::with_capacity(steady_gets as usize);
        let t0 = Instant::now();
        for _ in 0..steady_gets {
            let k = keygen.next_key(&mut rng);
            let op0 = Instant::now();
            let got = map.get(&k).unwrap();
            lat.push(op0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            assert!(got.is_some(), "prefilled key {k} lost in steady state");
        }
        let steady = (t0.elapsed().as_secs_f64(), lat, 0u64, 0u64);
        rank.barrier();

        // Phase 2: the same get loop on a worker thread while the main
        // thread drives live drain/admit cycles. Gets racing a commit may
        // fail typed (WrongEpoch / Rebalance); any other error is counted
        // for the gate.
        let stop = Arc::new(AtomicBool::new(false));
        let during = std::thread::scope(|s| {
            let worker = {
                let map = Arc::clone(&map);
                let stop = Arc::clone(&stop);
                let mut rng = WorkloadRng::new(SEED ^ (0xD1B5_4A32 * (rank.id() as u64 + 1)));
                s.spawn(move || {
                    let mut lat = Vec::new();
                    let (mut typed, mut untyped) = (0u64, 0u64);
                    while !stop.load(Ordering::Relaxed) {
                        let k = keygen.next_key(&mut rng);
                        let op0 = Instant::now();
                        match map.get(&k) {
                            Ok(got) => {
                                assert!(got.is_some(), "key {k} unreadable mid-rebalance");
                            }
                            Err(HclError::WrongEpoch { .. }) | Err(HclError::Rebalance(_)) => {
                                typed += 1;
                            }
                            Err(e) => {
                                eprintln!("non-typed get failure mid-rebalance: {e}");
                                untyped += 1;
                            }
                        }
                        lat.push(op0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                    }
                    (lat, typed, untyped)
                })
            };
            rank.barrier();
            let t0 = Instant::now();
            for cycle in 0..cycles {
                let victim = VICTIMS[cycle as usize % VICTIMS.len()];
                let drained = drain_rank(rank, victim).unwrap();
                assert!(drained.committed, "drain of {victim} did not commit");
                let admitted = admit_rank(rank, victim).unwrap();
                assert!(admitted.committed, "re-admit of {victim} did not commit");
            }
            let dt = t0.elapsed().as_secs_f64();
            // ORDERING: Relaxed stop flag — the worker only needs to observe
            // it eventually; join() below is the synchronization point.
            stop.store(true, Ordering::Relaxed);
            let (lat, typed, untyped) = worker.join().expect("get worker panicked");
            (dt, lat, typed, untyped)
        });
        rank.barrier();

        // Post-rebalance audit: every prefilled key is still readable.
        let mut lost = 0u64;
        if rank.id() == 0 {
            for k in 0..KEY_SPACE {
                if map.get(&k).unwrap().is_none() {
                    lost += 1;
                }
            }
        }
        let snap = rank.world().membership().snapshot();
        rank.barrier();
        (steady, during, snap, lost)
    });

    let snap = per_rank[0].2;
    let lost: u64 = per_rank.iter().map(|r| r.3).sum();
    let (steady, during): (Vec<PhaseOut>, Vec<PhaseOut>) =
        per_rank.into_iter().map(|r| (r.0, r.1)).unzip();
    (merge_phase(steady), merge_phase(during), snap, lost)
}

pub fn run(smoke: bool) -> Json {
    let (steady_gets, cycles) = if smoke { (4_000, 2) } else { (20_000, 8) };
    let (steady, during, snap, lost) = run_bench(steady_gets, cycles);
    let steady = cell(obj(vec![("phase", "steady".into())]), "gets/s", &[steady]);
    let during = cell(obj(vec![("phase", "rebalance".into())]), "gets/s", &[during]);
    let summary = obj(vec![
        (
            "throughput_ratio_rebalance_vs_steady",
            (figure(&during, "median") / figure(&steady, "median")).into(),
        ),
        ("cycles", cycles.into()),
        ("commits", snap.commits.into()),
        ("migrated_keys", snap.migrated_keys.into()),
        ("migrated_bytes", snap.migrated_bytes.into()),
        ("wrong_epoch_rejects", snap.wrong_epoch_rejects.into()),
        ("forwarded_writes", snap.forwarded_writes.into()),
        ("lost_keys", lost.into()),
        ("non_typed_errors", figure(&during, "non_typed_errors").into()),
    ]);
    artifact(
        "rebalance",
        "8-rank zipfian gets, steady state vs under live drain/admit shard migration cycles",
        RANKS,
        Some(SEED),
        obj(vec![
            ("key_space", KEY_SPACE.into()),
            ("value_bytes", VALUE_BYTES.into()),
            ("theta", THETA.into()),
            ("steady_gets_per_rank", steady_gets.into()),
            ("runs", 1u64.into()),
        ]),
        vec![steady, during],
        summary,
    )
}

pub fn gates(a: &Json, stage: Stage) -> Vec<Gate> {
    let commits = if stage == Stage::Committed { 2.0 } else { 2.0 * a.summary("cycles") };
    vec![
        gate("migrated_keys", Bound::Above(0.0), "rebalance cycles migrated keys"),
        gate("lost_keys", Bound::Exactly(0.0), "no key lost across live rebalances"),
        gate(
            "non_typed_errors",
            Bound::Exactly(0.0),
            "every mid-rebalance get ended in success or a typed error",
        ),
        gate(
            "throughput_ratio_rebalance_vs_steady",
            Bound::AtLeast(0.1),
            "rebalance-over-steady throughput",
        ),
        gate("commits", Bound::AtLeast(commits), "membership commits (two per drain/admit cycle)"),
    ]
}
