//! Property: live-vs-recovered equivalence, per container (PR 10).
//!
//! For every container a random op sequence is applied to a durable
//! instance in one world; a second world over the same log directory then
//! recovers purely by WAL replay. The recovered contents must be
//! *byte-identical* (compared through each container's canonical snapshot
//! encoding) to the live contents the first world ended with — puts,
//! erases, pushes, pops and compaction included.
//!
//! The concurrent cases run two writers at once, one on the owner's hybrid
//! bypass and one through its NIC worker: the log order must equal the
//! order the writes took effect, or replay lands on a different state.

use std::time::Duration;

use hcl::keyed::{KeyedMap, LocalStore};
use hcl::queue::QueueConfig;
use hcl::unordered::UnorderedMapConfig;
use hcl::{OrderedConfig, PersistConfig, PriorityQueue, Queue, SyncPolicy, UnorderedMap};
use hcl_databox::DataBox;
use hcl_runtime::{Rank, World, WorldConfig};
use proptest::prelude::*;

fn ww() -> WorldConfig {
    WorldConfig { nodes: 2, ranks_per_node: 1, ..WorldConfig::small() }
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hcl-prop-persist-{}-{tag}-{:016x}",
        std::process::id(),
        proptest::current_case_seed().expect("inside a proptest case")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Alternate policies case to case: replay correctness must not depend on
/// the sync epoch (relaxed logs are made durable by world teardown's final
/// flusher pass + drop sync).
fn policy_for(seed: u64) -> SyncPolicy {
    if seed % 2 == 0 {
        SyncPolicy::Strict
    } else {
        SyncPolicy::Relaxed { interval: Duration::from_millis(5) }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// UnorderedMap: random put/erase/compact stream; recovered contents
    /// encode byte-identically to the live contents.
    #[test]
    fn unordered_map_replay_matches_live(
        ops in proptest::collection::vec((0u8..3, 0u64..48, any::<u64>()), 1..120)
    ) {
        let dir = scratch("umap");
        let pcfg = PersistConfig {
            policy: policy_for(proptest::current_case_seed().unwrap()),
            ..PersistConfig::strict(&dir)
        };
        let ops2 = ops.clone();
        let pcfg1 = pcfg.clone();
        let live = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let live2 = std::sync::Arc::clone(&live);
        World::run(ww(), move |rank| {
            let map: UnorderedMap<u64, u64> = UnorderedMap::with_config(
                rank,
                "prop.umap",
                UnorderedMapConfig { persist: Some(pcfg1.clone()), ..Default::default() },
            );
            rank.barrier();
            if rank.id() == 0 {
                for (op, k, v) in &ops2 {
                    match op {
                        0 => { map.put(*k, *v).unwrap(); }
                        1 => { map.erase(k).unwrap(); }
                        _ => { map.compact_local_logs().unwrap(); }
                    }
                }
            }
            rank.barrier();
            // Other ranks compact too: every rank's local parts, some empty.
            map.compact_local_logs().unwrap();
            rank.barrier();
            if rank.id() == 0 {
                let mut snap = map.snapshot_all().unwrap();
                snap.sort();
                *live2.lock() = snap.to_bytes().to_vec();
            }
            rank.barrier();
        });
        let recovered = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let recovered2 = std::sync::Arc::clone(&recovered);
        World::run(ww(), move |rank| {
            let map: UnorderedMap<u64, u64> = UnorderedMap::with_config(
                rank,
                "prop.umap",
                UnorderedMapConfig { persist: Some(pcfg.clone()), ..Default::default() },
            );
            rank.barrier();
            if rank.id() == 0 {
                let mut snap = map.snapshot_all().unwrap();
                snap.sort();
                *recovered2.lock() = snap.to_bytes().to_vec();
            }
            rank.barrier();
        });
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(&*live.lock(), &*recovered.lock());
    }

    /// OrderedMap: same contract over the skiplist partitions.
    #[test]
    fn ordered_map_replay_matches_live(
        ops in proptest::collection::vec((0u8..2, 0u64..48, any::<u64>()), 1..120)
    ) {
        let dir = scratch("omap");
        let pcfg = PersistConfig {
            policy: policy_for(proptest::current_case_seed().unwrap()),
            ..PersistConfig::strict(&dir)
        };
        let ops2 = ops.clone();
        let pcfg1 = pcfg.clone();
        let live = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let live2 = std::sync::Arc::clone(&live);
        World::run(ww(), move |rank| {
            let map: hcl::OrderedMap<u64, u64> = hcl::OrderedMap::with_config(
                rank,
                "prop.omap",
                OrderedConfig { persist: Some(pcfg1.clone()), ..Default::default() },
            );
            rank.barrier();
            if rank.id() == 0 {
                for (op, k, v) in &ops2 {
                    match op {
                        0 => { map.put(*k, *v).unwrap(); }
                        _ => { map.erase(k).unwrap(); }
                    }
                }
            }
            rank.barrier();
            if rank.id() == 0 {
                *live2.lock() = map.snapshot_sorted().unwrap().to_bytes().to_vec();
            }
            rank.barrier();
        });
        let recovered = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let recovered2 = std::sync::Arc::clone(&recovered);
        World::run(ww(), move |rank| {
            let map: hcl::OrderedMap<u64, u64> = hcl::OrderedMap::with_config(
                rank,
                "prop.omap",
                OrderedConfig { persist: Some(pcfg.clone()), ..Default::default() },
            );
            rank.barrier();
            if rank.id() == 0 {
                *recovered2.lock() = map.snapshot_sorted().unwrap().to_bytes().to_vec();
            }
            rank.barrier();
        });
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(&*live.lock(), &*recovered.lock());
    }

    /// Queue: pushes and pops replay to the identical FIFO order.
    #[test]
    fn queue_replay_matches_live(
        ops in proptest::collection::vec((0u8..3, any::<u64>()), 1..120)
    ) {
        let dir = scratch("queue");
        let pcfg = PersistConfig {
            policy: policy_for(proptest::current_case_seed().unwrap()),
            ..PersistConfig::strict(&dir)
        };
        let ops2 = ops.clone();
        let pcfg1 = pcfg.clone();
        let live = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let live2 = std::sync::Arc::clone(&live);
        World::run(ww(), move |rank| {
            let q: Queue<u64> = Queue::with_config(
                rank,
                "prop.q",
                QueueConfig { persist: Some(pcfg1.clone()), ..Default::default() },
            );
            rank.barrier();
            if rank.id() == 0 {
                for (op, v) in &ops2 {
                    match op {
                        0 => { q.push(*v).unwrap(); }
                        1 => { q.pop().unwrap(); }
                        _ => { q.push_bulk(vec![*v, v ^ 1]).unwrap(); }
                    }
                }
            }
            rank.barrier();
            if rank.id() == 0 {
                *live2.lock() = q.snapshot().unwrap().to_bytes().to_vec();
            }
            rank.barrier();
        });
        let recovered = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let recovered2 = std::sync::Arc::clone(&recovered);
        World::run(ww(), move |rank| {
            let q: Queue<u64> = Queue::with_config(
                rank,
                "prop.q",
                QueueConfig { persist: Some(pcfg.clone()), ..Default::default() },
            );
            rank.barrier();
            if rank.id() == 0 {
                *recovered2.lock() = q.snapshot().unwrap().to_bytes().to_vec();
            }
            rank.barrier();
        });
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(&*live.lock(), &*recovered.lock());
    }

    /// PriorityQueue: pops always take the minimum, so replaying the
    /// logged push/pop stream lands on the identical surviving set.
    #[test]
    fn priority_queue_replay_matches_live(
        ops in proptest::collection::vec((0u8..2, any::<u64>()), 1..120)
    ) {
        let dir = scratch("pq");
        let pcfg = PersistConfig {
            policy: policy_for(proptest::current_case_seed().unwrap()),
            ..PersistConfig::strict(&dir)
        };
        let ops2 = ops.clone();
        let pcfg1 = pcfg.clone();
        let live = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let live2 = std::sync::Arc::clone(&live);
        World::run(ww(), move |rank| {
            let pq: PriorityQueue<u64> = PriorityQueue::with_config(
                rank,
                "prop.pq",
                QueueConfig { persist: Some(pcfg1.clone()), ..Default::default() },
            );
            rank.barrier();
            if rank.id() == 0 {
                for (op, v) in &ops2 {
                    match op {
                        0 => { pq.push(*v).unwrap(); }
                        _ => { pq.pop().unwrap(); }
                    }
                }
            }
            rank.barrier();
            if rank.id() == 0 {
                *live2.lock() = pq.snapshot().unwrap().to_bytes().to_vec();
            }
            rank.barrier();
        });
        let recovered = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
        let recovered2 = std::sync::Arc::clone(&recovered);
        World::run(ww(), move |rank| {
            let pq: PriorityQueue<u64> = PriorityQueue::with_config(
                rank,
                "prop.pq",
                QueueConfig { persist: Some(pcfg.clone()), ..Default::default() },
            );
            rank.barrier();
            if rank.id() == 0 {
                *recovered2.lock() = pq.snapshot().unwrap().to_bytes().to_vec();
            }
            rank.barrier();
        });
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(&*live.lock(), &*recovered.lock());
    }
}

/// A fresh log directory for one world of a concurrent case.
fn world_dir(tag: &str, world: usize) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("hcl-prop-persist-{}-{tag}-w{world}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn relaxed() -> SyncPolicy {
    SyncPolicy::Relaxed { interval: Duration::from_millis(5) }
}

/// Worlds per concurrent case under each policy. Relaxed appends are cheap
/// enough that two writers interleave between log and apply most often;
/// without the log-order lock, about half of the relaxed worlds (and some
/// strict ones) diverge.
const RELAXED_WORLDS: usize = 6;
const STRICT_WORLDS: usize = 2;
/// Keys both ranks rewrite in each world.
const KEYS: u64 = 256;

/// Both ranks rewrite the same keys at once; rank 0's writes to its own
/// partition take the hybrid bypass while rank 1's reach the same partition
/// through a NIC worker. The ranks meet before every key, so the two writes
/// to it race. The recovered map must equal the live one.
fn concurrent_writers_replay_matches_live<S>(
    tag: &str,
    policy: SyncPolicy,
    open: for<'a> fn(&'a Rank, PersistConfig) -> KeyedMap<'a, S>,
) where
    S: LocalStore<K = u64, V = u64>,
{
    let worlds = if policy.is_strict() { STRICT_WORLDS } else { RELAXED_WORLDS };
    for w in 0..worlds {
        let dir = world_dir(tag, w);
        let pcfg = PersistConfig { policy, ..PersistConfig::strict(&dir) };
        // Entry count plus every key's value (through the shared keyed API).
        let snap = |map: &KeyedMap<'_, S>| {
            let values: Vec<Option<u64>> = (0..KEYS).map(|k| map.get(&k).unwrap()).collect();
            (map.len().unwrap(), values)
        };
        let pcfg1 = pcfg.clone();
        let live = World::run(ww(), move |rank| {
            let map = open(rank, pcfg1.clone());
            rank.barrier();
            for k in 0..KEYS {
                rank.barrier();
                map.put(k, k * 2 + rank.id() as u64).unwrap();
            }
            rank.barrier();
            snap(&map)
        });
        let recovered = World::run(ww(), move |rank| {
            let map = open(rank, pcfg.clone());
            rank.barrier();
            snap(&map)
        });
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(live[0].0, KEYS);
        assert_eq!(live[0], recovered[0], "{tag}: world {w} recovered a different map");
    }
}

fn open_umap(rank: &Rank, p: PersistConfig) -> UnorderedMap<'_, u64, u64> {
    UnorderedMap::with_config(
        rank,
        "conc.umap",
        UnorderedMapConfig { persist: Some(p), ..Default::default() },
    )
}

fn open_omap(rank: &Rank, p: PersistConfig) -> hcl::OrderedMap<'_, u64, u64> {
    hcl::OrderedMap::with_config(
        rank,
        "conc.omap",
        OrderedConfig { persist: Some(p), ..Default::default() },
    )
}

#[test]
fn unordered_map_concurrent_writers_replay_matches_live() {
    concurrent_writers_replay_matches_live("umap-strict", SyncPolicy::Strict, open_umap);
    concurrent_writers_replay_matches_live("umap-relaxed", relaxed(), open_umap);
}

#[test]
fn ordered_map_concurrent_writers_replay_matches_live() {
    concurrent_writers_replay_matches_live("omap-strict", SyncPolicy::Strict, open_omap);
    concurrent_writers_replay_matches_live("omap-relaxed", relaxed(), open_omap);
}

/// Both ranks push into one queue hosted on rank 0 (its pushes take the
/// bypass, rank 1's a NIC worker), meeting every 16 pushes so they race;
/// replay must rebuild the live FIFO order.
#[test]
fn queue_concurrent_pushers_replay_matches_live() {
    const PUSHES: u64 = 512;
    for (tag, policy) in [("relaxed", relaxed()), ("strict", SyncPolicy::Strict)] {
        let worlds = if policy.is_strict() { STRICT_WORLDS } else { RELAXED_WORLDS };
        for w in 0..worlds {
            let dir = world_dir(&format!("queue-{tag}"), w);
            let cfg = QueueConfig {
                persist: Some(PersistConfig { policy, ..PersistConfig::strict(&dir) }),
                ..Default::default()
            };
            let cfg1 = cfg.clone();
            let live = World::run(ww(), move |rank| {
                let q: Queue<u64> = Queue::with_config(rank, "conc.q", cfg1.clone());
                rank.barrier();
                for i in 0..PUSHES {
                    if i % 16 == 0 {
                        rank.barrier();
                    }
                    q.push(rank.id() as u64 * PUSHES + i).unwrap();
                }
                rank.barrier();
                q.snapshot().unwrap()
            });
            let recovered = World::run(ww(), move |rank| {
                let q: Queue<u64> = Queue::with_config(rank, "conc.q", cfg.clone());
                rank.barrier();
                q.snapshot().unwrap()
            });
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(live[0].len() as u64, 2 * PUSHES);
            assert_eq!(live[0], recovered[0], "queue-{tag}: world {w} replayed another FIFO order");
        }
    }
}

/// Writes per world in the successive-worlds cases.
const PER_WORLD: u64 = 64;

/// Two successive worlds each put `PER_WORLD` fresh keys into one Manual
/// log, both ranks writing (rank 0's own keys take the bypass, the rest a
/// NIC worker); a third world must recover all of them. Replay identities
/// `(rank, seq)` restart in every world, so unless a replayed log is
/// compacted before the next world appends, the second world's records
/// dedup against the first's and their keys are lost.
fn successive_worlds_recover_every_key<S>(
    tag: &str,
    open: for<'a> fn(&'a Rank, PersistConfig) -> KeyedMap<'a, S>,
) where
    S: LocalStore<K = u64, V = u64>,
{
    let dir = world_dir(tag, 0);
    let pcfg = PersistConfig { policy: SyncPolicy::Manual, ..PersistConfig::strict(&dir) };
    for w in 0..2u64 {
        let pcfg = pcfg.clone();
        World::run(ww(), move |rank| {
            let map = open(rank, pcfg.clone());
            rank.barrier();
            for k in (w * PER_WORLD..(w + 1) * PER_WORLD).filter(|k| k % 2 == rank.id() as u64) {
                map.put(k, k + 1).unwrap();
            }
            rank.barrier();
        });
    }
    let recovered = World::run(ww(), move |rank| {
        let map = open(rank, pcfg.clone());
        rank.barrier();
        let values: Vec<Option<u64>> = (0..2 * PER_WORLD).map(|k| map.get(&k).unwrap()).collect();
        (map.len().unwrap(), values)
    });
    let _ = std::fs::remove_dir_all(&dir);
    let want: Vec<Option<u64>> = (0..2 * PER_WORLD).map(|k| Some(k + 1)).collect();
    assert_eq!(recovered[0], (2 * PER_WORLD, want), "{tag}: keys lost across worlds");
}

#[test]
fn unordered_map_successive_worlds_recover_every_key() {
    successive_worlds_recover_every_key("umap-worlds", open_umap);
}

#[test]
fn ordered_map_successive_worlds_recover_every_key() {
    successive_worlds_recover_every_key("omap-worlds", open_omap);
}

/// The queue form of the successive-worlds case: both ranks push into one
/// Manual log in two worlds; the third world replays the FIFO the second
/// world ended with, every push included.
#[test]
fn queue_successive_worlds_recover_every_push() {
    let dir = world_dir("queue-worlds", 0);
    let cfg = QueueConfig {
        persist: Some(PersistConfig { policy: SyncPolicy::Manual, ..PersistConfig::strict(&dir) }),
        ..Default::default()
    };
    let mut live = Vec::new();
    for w in 0..2u64 {
        let cfg = cfg.clone();
        live = World::run(ww(), move |rank| {
            let q: Queue<u64> = Queue::with_config(rank, "worlds.q", cfg.clone());
            rank.barrier();
            for i in (w * PER_WORLD..(w + 1) * PER_WORLD).filter(|i| i % 2 == rank.id() as u64) {
                q.push(i).unwrap();
            }
            rank.barrier();
            q.snapshot().unwrap()
        })
        .swap_remove(0);
    }
    let recovered = World::run(ww(), move |rank| {
        let q: Queue<u64> = Queue::with_config(rank, "worlds.q", cfg.clone());
        rank.barrier();
        q.snapshot().unwrap()
    });
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(live.len() as u64, 2 * PER_WORLD);
    assert_eq!(recovered[0], live, "queue: pushes lost across worlds");
}
