//! `rpc` suite — the RPC hot path (§III-B request aggregation).
//!
//! Remote put/get/pop throughput of the distributed containers at 1–8
//! ranks over both fabric providers, with small (8 B) and spill-sized
//! (4 KB against a 1 KB slot) values, in two modes:
//!
//! * **baseline** — op coalescing disabled, synchronous per-op invocations:
//!   one message and one full round trip per op;
//! * **batched** — async ops staged on the adaptive per-destination
//!   coalescer (put/get) or explicit bulk ops (pop), so many container ops
//!   ride one `FLAG_BATCH` message.
//!
//! The smoke subset is the 8-rank memory 8 B put/get pair. Gate: the 8-rank
//! memory 8 B put median speedup, batched over baseline, is at least 2×.

use std::time::Instant;

use hcl::queue::QueueConfig;
use hcl::{Queue, UnorderedMap, UnorderedMapConfig};
use hcl_bench::harness::{
    aggregate_rate, artifact, cell, figure, gate, obj, Bound, Figures, Gate, Json, Stage,
};
use hcl_fabric::LatencyModel;
use hcl_rpc::coalesce::CoalesceConfig;
use hcl_runtime::{FabricKind, World, WorldConfig};
use hcl_telemetry::{HistogramSnapshot, TelemetryConfig};

const SPILL_SLOT_CAP: usize = 1024;
const SMALL_BYTES: usize = 8;
const SPILL_BYTES: usize = 4096;
const WINDOW: u64 = 1024;
const HEADLINE: &str = "speedup_put_memory_8r_8b";
/// The latency histogram of each mode's ops, indexed by `batched as usize`.
pub const LATENCY_HIST: [&str; 2] = ["hcl_core_op_latency_remote_ns", "hcl_rpc_batch_latency_ns"];

#[derive(Clone, Copy, PartialEq)]
pub enum Op {
    Put,
    Get,
    Pop,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Put => "put",
            Op::Get => "get",
            Op::Pop => "pop",
        }
    }
}

fn world_config(
    fabric: &str,
    ranks: u32,
    value_bytes: usize,
    batched: bool,
    tel: bool,
) -> WorldConfig {
    WorldConfig {
        nodes: ranks,
        ranks_per_node: 1,
        fabric: match fabric {
            "tcp" => FabricKind::Tcp,
            _ => FabricKind::Memory(LatencyModel::NONE),
        },
        nic_cores: 2,
        slot_cap: if value_bytes > SPILL_SLOT_CAP {
            SPILL_SLOT_CAP
        } else {
            hcl_rpc::DEFAULT_SLOT_CAP
        },
        coalesce: if batched { CoalesceConfig::default() } else { CoalesceConfig::disabled() },
        telemetry: if tel { TelemetryConfig::default() } else { TelemetryConfig::disabled() },
        ..WorldConfig::small()
    }
}

/// One run of a (fabric, ranks, value size, op, mode) cell; returns
/// aggregate remote ops/s (total ops over the slowest rank's wall time) and
/// the mode's `LATENCY_HIST` merged over ranks. `telemetry: false` runs the
/// world with telemetry off, and then no histogram comes back.
pub fn run_case(
    fabric: &'static str,
    ranks: u32,
    value_bytes: usize,
    (op, batched): (Op, bool),
    ops: u64,
    telemetry: bool,
) -> (f64, Option<HistogramSnapshot>) {
    let cfg = world_config(fabric, ranks, value_bytes, batched, telemetry);
    let per_rank: Vec<(f64, Option<HistogramSnapshot>)> = World::run(cfg, move |rank| {
        // All traffic targets rank 0's partition; hybrid off so every op is
        // a genuine remote invocation, even from the owner rank.
        let map: UnorderedMap<u64, Vec<u8>> = UnorderedMap::with_config(
            rank,
            "bench.rpc.map",
            UnorderedMapConfig {
                servers: Some(vec![0]),
                initial_buckets: 1 << 14,
                hybrid: false,
                ..UnorderedMapConfig::default()
            },
        );
        let q: Queue<Vec<u8>> = Queue::with_config(
            rank,
            "bench.rpc.q",
            QueueConfig { owner: 0, hybrid: false, ..Default::default() },
        );
        let me = rank.id() as u64;
        let val = vec![0x5Au8; value_bytes];

        // Untimed prefill for read/pop workloads.
        match op {
            Op::Get => {
                for i in 0..ops {
                    map.put(me * ops + i, val.clone()).unwrap();
                }
            }
            Op::Pop => {
                let _ = q.push_bulk((0..ops).map(|_| val.clone()).collect()).unwrap();
            }
            Op::Put => {}
        }
        rank.barrier();

        let t0 = Instant::now();
        match (op, batched) {
            (Op::Put, false) => {
                for i in 0..ops {
                    map.put(me * ops + i, val.clone()).unwrap();
                }
            }
            (Op::Put, true) => {
                let mut i = 0;
                while i < ops {
                    let end = (i + WINDOW).min(ops);
                    let futs: Vec<_> = (i..end)
                        .map(|j| map.put_async(me * ops + j, val.clone()).unwrap())
                        .collect();
                    for f in futs {
                        f.wait().unwrap();
                    }
                    i = end;
                }
            }
            (Op::Get, false) => {
                for i in 0..ops {
                    assert!(map.get(&(me * ops + i)).unwrap().is_some());
                }
            }
            (Op::Get, true) => {
                let mut i = 0;
                while i < ops {
                    let end = (i + WINDOW).min(ops);
                    let futs: Vec<_> =
                        (i..end).map(|j| map.get_async(&(me * ops + j)).unwrap()).collect();
                    for f in futs {
                        assert!(f.wait().unwrap().is_some());
                    }
                    i = end;
                }
            }
            (Op::Pop, false) => {
                let mut popped = 0u64;
                while popped < ops {
                    if q.pop().unwrap().is_some() {
                        popped += 1;
                    }
                }
            }
            (Op::Pop, true) => {
                let mut popped = 0u64;
                while popped < ops {
                    let got = q.pop_bulk((ops - popped).min(WINDOW)).unwrap();
                    popped += got.len() as u64;
                }
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        rank.barrier();
        let hist = telemetry.then(|| rank.telemetry_snapshot()).and_then(|snap| {
            snap.histograms.iter().find(|(k, _)| k == LATENCY_HIST[batched as usize]).map(|h| h.1)
        });
        (dt, hist)
    });
    let hist = per_rank.iter().filter_map(|(_, h)| *h).reduce(|mut a, b| {
        a.merge(&b);
        a
    });
    (aggregate_rate(ops * ranks as u64, per_rank.iter().map(|r| r.0)), hist)
}

fn ops_for(fabric: &str, value_bytes: usize, smoke: bool) -> u64 {
    match (fabric, value_bytes > SMALL_BYTES, smoke) {
        (_, _, true) => 2_000,
        ("memory", false, _) => 20_000,
        ("memory", true, _) => 2_000,
        (_, false, _) => 3_000,
        (_, true, _) => 400,
    }
}

/// Runs per cell: the cheap, noisiest cells (memory, small values) get the
/// most; the smoke subset uses 3 so its gate reads a median, not one
/// sample.
fn iters_for(fabric: &str, value_bytes: usize, smoke: bool) -> u32 {
    match (fabric, value_bytes > SMALL_BYTES, smoke) {
        (_, _, true) => 3,
        ("memory", false, _) => 3,
        ("memory", true, _) => 2,
        _ => 1,
    }
}

pub fn run(smoke: bool) -> Json {
    let (fabrics, rank_counts, sizes): (&[&'static str], &[u32], &[usize]) = if smoke {
        (&["memory"], &[8], &[SMALL_BYTES])
    } else {
        (&["memory", "tcp"], &[1, 2, 4, 8], &[SMALL_BYTES, SPILL_BYTES])
    };
    let ops_list: &[Op] = if smoke { &[Op::Put, Op::Get] } else { &[Op::Put, Op::Get, Op::Pop] };

    let mut cells = Vec::new();
    let mut summary = Vec::new();
    for &fabric in fabrics {
        for &ranks in rank_counts {
            for &bytes in sizes {
                for &op in ops_list {
                    let ops = ops_for(fabric, bytes, smoke);
                    let iters = iters_for(fabric, bytes, smoke);
                    for batched in [false, true] {
                        let mode = if batched { "batched" } else { "baseline" };
                        let run = || run_case(fabric, ranks, bytes, (op, batched), ops, true).0;
                        let runs: Vec<Figures> =
                            (0..iters).map(|_| vec![("op/s", run())]).collect();
                        let params = obj(vec![
                            ("fabric", fabric.into()),
                            ("ranks", ranks.into()),
                            ("value_bytes", bytes.into()),
                            ("op", op.name().into()),
                            ("mode", mode.into()),
                            ("ops_per_rank", ops.into()),
                        ]);
                        cells.push(cell(params, "op/s", &runs));
                    }
                    let [base, batched] =
                        [2, 1].map(|back| figure(&cells[cells.len() - back], "median"));
                    let key = format!("speedup_{}_{fabric}_{ranks}r_{bytes}b", op.name());
                    summary.push((key, (batched / base).into()));
                }
            }
        }
    }
    artifact(
        "rpc",
        "remote container ops/s, baseline (sync per-op, coalescing off) vs batched (coalesced async / bulk); summary speedups are batched median over baseline median",
        8,
        None,
        obj(vec![
            ("window", WINDOW.into()),
            ("spill_slot_cap", SPILL_SLOT_CAP.into()),
            ("runs", "3 for memory/small, 2 for memory/spill, 1 for tcp".into()),
        ]),
        cells,
        Json::Obj(summary),
    )
}

pub fn gates(_: &Json, _: Stage) -> Vec<Gate> {
    vec![gate(
        HEADLINE,
        Bound::AtLeast(2.0),
        "8-rank memory 8 B put batched-over-baseline median speedup",
    )]
}
