//! A world is freed when its run returns: no container may keep it alive.
//!
//! Every keyed map's partitions are reachable from the world's handler
//! registry, so a partition holding the world would make a cycle that keeps
//! the NIC workers, every partition and every WAL (with its relaxed
//! flusher) alive forever. This file holds one test, so nothing else in the
//! process spawns the threads it counts.

use std::time::{Duration, Instant};

use hcl::queue::QueueConfig;
use hcl::unordered::UnorderedMapConfig;
use hcl::{
    OrderedConfig, OrderedMap, PersistConfig, PriorityQueue, Queue, SyncPolicy, UnorderedMap,
};
use hcl_runtime::{World, WorldConfig};

/// Live threads of this process whose name starts with one of `prefixes`
/// (`/proc` truncates names to 15 bytes).
fn threads_named(prefixes: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
        let comm = task.unwrap().path().join("comm");
        if let Ok(name) = std::fs::read_to_string(comm) {
            let name = name.trim().to_string();
            if prefixes.iter().any(|p| name.starts_with(p)) {
                out.push(name);
            }
        }
    }
    out
}

#[test]
fn no_world_outlives_its_run() {
    let base = std::env::temp_dir().join(format!("hcl-world-lifecycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cfg = WorldConfig { nodes: 2, ranks_per_node: 1, ..WorldConfig::small() };
    let relaxed = SyncPolicy::Relaxed { interval: Duration::from_millis(5) };
    for world in 0..4 {
        let (dir, manual_dir) = (base.join("relaxed"), base.join("manual"));
        let recovered = World::run(cfg, |rank| {
            let p = || Some(PersistConfig { policy: relaxed, ..PersistConfig::strict(&dir) });
            let umap: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "umap");
            let omap: OrderedMap<u64, u64> = OrderedMap::new(rank, "omap");
            let dumap: UnorderedMap<u64, u64> = UnorderedMap::with_config(
                rank,
                "dumap",
                UnorderedMapConfig { persist: p(), ..Default::default() },
            );
            let domap: OrderedMap<u64, u64> = OrderedMap::with_config(
                rank,
                "domap",
                OrderedConfig { persist: p(), ..Default::default() },
            );
            let q: Queue<u64> =
                Queue::with_config(rank, "q", QueueConfig { persist: p(), ..Default::default() });
            let pq: PriorityQueue<u64> = PriorityQueue::with_config(
                rank,
                "pq",
                QueueConfig { persist: p(), ..Default::default() },
            );
            // Manual policy: nothing syncs a log's tail but the world's
            // teardown. Each world writes its own log and recovers the one
            // the world before it wrote.
            let manual = |w: usize| -> UnorderedMap<u64, u64> {
                let persist = PersistConfig {
                    policy: SyncPolicy::Manual,
                    ..PersistConfig::strict(&manual_dir)
                };
                let cfg = UnorderedMapConfig { persist: Some(persist), ..Default::default() };
                UnorderedMap::with_config(rank, &format!("manual{w}"), cfg)
            };
            let recovered = if world > 0 { manual(world - 1).len().unwrap() } else { 64 };
            let mine = manual(world);
            rank.barrier();
            for i in 0..32u64 {
                let k = rank.id() as u64 * 1_000 + i;
                umap.put(k, i).unwrap();
                omap.put(k, i).unwrap();
                dumap.put(k, i).unwrap();
                domap.put(k, i).unwrap();
                q.push(k).unwrap();
                pq.push(k).unwrap();
                mine.put(k, i).unwrap();
            }
            rank.barrier();
            recovered
        });
        assert_eq!(
            recovered,
            [64, 64],
            "world {world}: the previous world's manual-log tail was lost"
        );
        // A joined thread can linger in /proc for a moment after its join
        // returns; a leaked world's threads stay forever.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut left = threads_named(&["hcl-nic-", "hcl-persist-flu"]);
        while !left.is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
            left = threads_named(&["hcl-nic-", "hcl-persist-flu"]);
        }
        assert!(left.is_empty(), "world {world} left threads running: {left:?}");
    }
    let _ = std::fs::remove_dir_all(&base);
}
