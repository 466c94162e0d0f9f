//! Per-layer probes: after the timed phase, call a lower layer directly
//! with the workload's own inputs and time it in isolation. Each probe
//! returns an exact mean (total time over a counted loop) or exact
//! quantiles of per-call samples.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use hcl::{OpLog, SyncPolicy};
use hcl_bench::workload::{KeyGen, WorkloadRng};
use hcl_containers::{CuckooMap, LockFreeQueue, SkipListMap, SkipListPq};
use hcl_databox::DataBox;
use hcl_rpc::FnId;
use hcl_runtime::Rank;

use crate::values;

/// Calls timed by each mean-time probe.
pub const LOOPS: usize = 20_000;

fn mean_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// `(encode_ns, decode_ns)` of one `(key, value)` record at `len` bytes,
/// through the reusable-buffer encode path the RPC layer uses.
pub fn databox_ns(len: usize) -> (f64, f64) {
    let rec = (7u64, values::make(7, 1, len));
    let mut buf = Vec::with_capacity(len + 16);
    let enc = mean_ns(LOOPS, |_| {
        buf.clear();
        black_box(&rec).pack(&mut buf);
        black_box(&buf);
    });
    let dec = mean_ns(LOOPS, |_| {
        black_box(<(u64, Vec<u8>)>::from_bytes(black_box(&buf)).expect("decode own encoding"));
    });
    (enc, dec)
}

/// `(get_ns, insert_ns)` on a local cuckoo map holding the workload's key
/// space, with keys drawn from the workload's distribution.
pub fn cuckoo_ns(keys: &KeyGen, key_space: u64, len: usize, rng: &mut WorkloadRng) -> (f64, f64) {
    let m: CuckooMap<u64, Vec<u8>> = CuckooMap::with_buckets(128);
    for k in 0..key_space {
        m.insert(k, values::make(k, 0, len));
    }
    let draws: Vec<u64> = (0..LOOPS).map(|_| keys.next_key(rng)).collect();
    let get = mean_ns(LOOPS, |i| {
        black_box(m.get(&draws[i]));
    });
    let vals: Vec<Vec<u8>> = draws.iter().map(|&k| values::make(k, 1, len)).collect();
    let mut vals = vals.into_iter();
    let ins = mean_ns(LOOPS, |i| {
        black_box(m.insert(draws[i], vals.next().expect("one value per draw")));
    });
    (get, ins)
}

/// Mean ns of one `width`-wide `range_snapshot` on a local skiplist
/// holding the workload's key space.
pub fn skiplist_range_ns(
    keys: &KeyGen,
    key_space: u64,
    len: usize,
    width: u64,
    rng: &mut WorkloadRng,
) -> f64 {
    let m: SkipListMap<u64, Vec<u8>> = SkipListMap::new();
    for k in 0..key_space {
        m.insert(k, values::make(k, 0, len));
    }
    let draws: Vec<u64> = (0..LOOPS).map(|_| keys.next_key(rng)).collect();
    mean_ns(LOOPS, |i| {
        let lo = draws[i];
        black_box(m.range_snapshot(&lo, &(lo + width)));
    })
}

/// `(queue_op_ns, pq_op_ns)`: mean of one push or pop on the local FIFO and
/// priority queue, alternating so the structures stay small.
pub fn queue_ns(len: usize) -> (f64, f64) {
    let items: Vec<Vec<u8>> = (0..LOOPS as u64).map(|i| values::make(i, i, len)).collect();
    let q = LockFreeQueue::new();
    let mut it = items.clone().into_iter();
    let fifo = mean_ns(LOOPS, |i| {
        if i % 2 == 0 {
            q.push(it.next().expect("one item per push"));
        } else {
            black_box(q.pop());
        }
    });
    let pq = SkipListPq::new();
    let mut it = items.into_iter();
    let prio = mean_ns(LOOPS, |i| {
        if i % 2 == 0 {
            pq.push(it.next().expect("one item per push"));
        } else {
            black_box(pq.pop());
        }
    });
    (fifo, prio)
}

/// Exact per-call samples (ns) of `OpLog::append` + `sync` under the strict
/// policy, on a fresh log in `dir`, with the workload's record size.
pub fn append_sync_ns(dir: &Path, len: usize, n: u64) -> std::io::Result<Vec<u64>> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let log: OpLog<(u8, u64, Option<Vec<u8>>)> =
        OpLog::open(dir.join("probe"), SyncPolicy::Strict, |_| {})?;
    let mut out = Vec::with_capacity(n as usize);
    for k in 0..n {
        let rec = (0u8, k, Some(values::make(k, 1, len)));
        let t0 = Instant::now();
        log.append(&rec)?;
        log.sync()?;
        out.push(t0.elapsed().as_nanos() as u64);
    }
    drop(log);
    std::fs::remove_dir_all(dir)?;
    out.sort_unstable();
    Ok(out)
}

/// The echo handler's function id, bound once per world.
pub fn echo_fn(rank: &Rank) -> FnId {
    *rank.get_or_create_shared("perfbench.echo", || {
        let id = rank.world().alloc_fn_ids(1);
        rank.world()
            .registry()
            .bind_typed::<Vec<u8>, Vec<u8>>(id, |_, _, a| a);
        id
    })
}

/// Per-call samples (ns) of `Rank::invoke` on the peer rank's echo handler
/// with a `len`-byte payload; `Err` names the first wrong echo or failure.
pub fn echo_ns(rank: &Rank, fid: FnId, len: usize, n: u64) -> Result<Vec<u64>, String> {
    let peer = (rank.id() + 1) % rank.world_size();
    let ep = rank.world().config().ep_of(peer);
    let payload = values::make(rank.id() as u64, 9, len);
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let t0 = Instant::now();
        let back: Vec<u8> = rank
            .invoke(ep, fid, &payload)
            .map_err(|e| format!("echo failed: {e}"))?;
        out.push(t0.elapsed().as_nanos() as u64);
        if back != payload {
            return Err("echo returned a different payload".into());
        }
    }
    Ok(out)
}
