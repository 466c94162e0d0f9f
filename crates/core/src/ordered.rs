//! `HCL::map` / `HCL::set` — ordered distributed structures (paper §III-D2).
//!
//! "Ordered structures are built using multiple single-partitioned
//! structures that are abstracted behind a global interface": each partition
//! is an ordered lock-free structure (our skiplist, standing in for the
//! paper's wait-free red-black tree — DESIGN.md substitution #5), keys are
//! distributed over partitions by hash, and global ordered views (`first`,
//! `range`, sorted snapshots) merge the per-partition orderings.
//!
//! Insert/find cost is `F + L·log(N) + W/R` (Table I): one remote
//! invocation, then an O(log n) descent at local-memory speed on the owner.
//!
//! The map is a [`KeyedMap`] over skiplist partitions; the partition
//! lifecycle it shares with the unordered map lives in [`crate::keyed`].
//! The global views here are per-partition fan-outs of dispatch calls.

use std::hash::Hash;

use hcl_containers::SkipListMap;
use hcl_databox::DataBox;
use hcl_fabric::EpId;
use hcl_runtime::Rank;

use crate::cost::CostSnapshot;
use crate::dispatch::Route;
use crate::keyed::{KeyedMap, KeyedSpec, LocalStore};
use crate::persist::PersistConfig;
use crate::HclResult;

// The ordered map's own ops, after the shared keyed ones.
const FN_FIRST: u32 = crate::keyed::N_SHARED;
const FN_RANGE: u32 = FN_FIRST + 1;
const N_FNS: u32 = FN_RANGE + 1;

/// Table I op descriptors for the ordered map: the shared keyed table plus
/// the per-partition ordered views.
mod ops {
    use crate::dispatch::{CostSig, OpClass, OpDescriptor};

    pub(crate) static KEYED: crate::keyed::KeyedOps = crate::keyed::keyed_ops!("omap");
    pub const FIRST: OpDescriptor = OpDescriptor {
        name: "omap.first",
        class: OpClass::Read,
        fn_off: super::FN_FIRST,
        cost: CostSig::ZERO,
        degradable: true,
    };
    pub const RANGE: OpDescriptor = OpDescriptor {
        name: "omap.range",
        class: OpClass::Read,
        fn_off: super::FN_RANGE,
        cost: CostSig::ZERO,
        degradable: true,
    };
}

/// Configuration for ordered containers.
#[derive(Debug, Clone)]
pub struct OrderedConfig {
    /// Partition owners; `None` = first rank of every node.
    pub servers: Option<Vec<u32>>,
    /// Hybrid access model toggle.
    pub hybrid: bool,
    /// Asynchronous replication factor (0 = off). Each partition forwards
    /// its mutations to the next `replicas` partition owners, and `get`s
    /// against a marked-down owner are served from the replica — the same
    /// degraded-read contract as [`crate::UnorderedMap`].
    pub replicas: usize,
    /// Durability: when set, every partition appends its mutations to a
    /// segmented write-ahead log under the config's directory and replays
    /// it on (re)construction — same subsystem and guarantees as
    /// [`crate::UnorderedMap`] (§III-C6, DESIGN.md §16).
    pub persist: Option<PersistConfig>,
}

impl Default for OrderedConfig {
    fn default() -> Self {
        OrderedConfig { servers: None, hybrid: true, replicas: 0, persist: None }
    }
}

impl<K, V> LocalStore for SkipListMap<K, V>
where
    K: DataBox + Ord + Hash + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    type K = K;
    type V = V;

    fn get(&self, key: &K) -> Option<V> {
        SkipListMap::get(self, key)
    }
    fn insert(&self, key: K, value: V) -> Option<V> {
        SkipListMap::insert(self, key, value)
    }
    fn remove(&self, key: &K) -> Option<V> {
        SkipListMap::remove(self, key)
    }
    fn snapshot(&self) -> Vec<(K, V)> {
        self.iter_snapshot()
    }
    fn len(&self) -> usize {
        SkipListMap::len(self)
    }
}

/// A distributed ordered map: keyed partitions over the lock-free
/// skiplist, with global ordered views merged from the partitions.
pub type OrderedMap<'a, K, V> = KeyedMap<'a, SkipListMap<K, V>>;

impl<'a, K, V> KeyedMap<'a, SkipListMap<K, V>>
where
    K: DataBox + Ord + Hash + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    /// Collective constructor with defaults.
    pub fn new(rank: &'a Rank, name: &str) -> Self {
        Self::with_config(rank, name, OrderedConfig::default())
    }

    /// Collective constructor with configuration.
    pub fn with_config(rank: &'a Rank, name: &str, cfg: OrderedConfig) -> Self {
        let spec = KeyedSpec {
            servers: cfg.servers,
            hybrid: cfg.hybrid,
            persist: cfg.persist,
            replicas: cfg.replicas,
            lease: None,
            merger: None,
            n_fns: N_FNS,
            new_store: Box::new(SkipListMap::new),
        };
        KeyedMap::build(rank, name, &ops::KEYED, spec, |reg, core| {
            let p = core.parts.clone();
            reg.bind_typed(core.fn_base + FN_FIRST, move |server: EpId, _, ()| {
                p[&server.rank].store().first()
            });
            let p = core.parts.clone();
            reg.bind_typed(core.fn_base + FN_RANGE, move |server: EpId, _, (lo, hi): (K, K)| {
                p[&server.rank].store().range_snapshot(&lo, &hi)
            });
        })
    }

    /// Global minimum entry: the minimum of every partition's first.
    pub fn first(&self) -> HclResult<Option<(K, V)>> {
        let map = self.d.owner_map().current();
        let mut best: Option<(K, V)> = None;
        for &owner in map.members() {
            let cand = self.d.sync(&ops::FIRST, Route::to(owner), 1, (), |o, ()| {
                self.core.part(o).store().first()
            })?;
            if let Some((k, v)) = cand {
                if best.as_ref().is_none_or(|(bk, _)| k < *bk) {
                    best = Some((k, v));
                }
            }
        }
        Ok(best)
    }

    /// All entries with keys in `[lo, hi)`, globally sorted.
    pub fn range(&self, lo: &K, hi: &K) -> HclResult<Vec<(K, V)>> {
        let map = self.d.owner_map().current();
        let args = (lo.clone(), hi.clone());
        let mut out = Vec::new();
        for &owner in map.members() {
            let part = self.d.sync(&ops::RANGE, Route::to(owner), 1, &args, |o, _| {
                self.core.part(o).store().range_snapshot(lo, hi)
            })?;
            out.extend(part);
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Every entry, globally sorted (merging the per-partition orders).
    pub fn snapshot_sorted(&self) -> HclResult<Vec<(K, V)>> {
        let mut out = self.snapshot_parts()?;
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    /// Persist a globally sorted snapshot of the whole map to `path`
    /// (§III-C6 durability for ordered structures).
    pub fn persist_snapshot(&self, path: impl AsRef<std::path::Path>) -> HclResult<()> {
        let snap = self.snapshot_sorted()?;
        std::fs::write(path, &snap.to_bytes()).map_err(|e| crate::HclError::Persist(e.to_string()))
    }

    /// Reload a snapshot written by [`OrderedMap::persist_snapshot`],
    /// re-inserting every entry (keys re-distribute over the current
    /// partitions). Returns the number of restored entries.
    pub fn restore_snapshot(&self, path: impl AsRef<std::path::Path>) -> HclResult<u64> {
        let bytes = std::fs::read(path).map_err(|e| crate::HclError::Persist(e.to_string()))?;
        let snap: Vec<(K, V)> = hcl_databox::DataBox::from_bytes(&bytes)
            .map_err(|e| crate::HclError::Persist(e.to_string()))?;
        let n = snap.len() as u64;
        for (k, v) in snap {
            self.put(k, v)?;
        }
        Ok(n)
    }
}

/// A distributed ordered set.
pub struct OrderedSet<'a, K>
where
    K: DataBox + Ord + Hash + Clone + Send + Sync + 'static,
{
    inner: OrderedMap<'a, K, ()>,
}

impl<'a, K> OrderedSet<'a, K>
where
    K: DataBox + Ord + Hash + Clone + Send + Sync + 'static,
{
    /// Collective constructor with defaults.
    pub fn new(rank: &'a Rank, name: &str) -> Self {
        OrderedSet { inner: OrderedMap::new(rank, name) }
    }

    /// Collective constructor with configuration.
    pub fn with_config(rank: &'a Rank, name: &str, cfg: OrderedConfig) -> Self {
        OrderedSet { inner: OrderedMap::with_config(rank, name, cfg) }
    }

    /// Insert `key`; `true` when newly inserted.
    pub fn insert(&self, key: K) -> HclResult<bool> {
        self.inner.put(key, ())
    }

    /// Membership test.
    pub fn contains(&self, key: &K) -> HclResult<bool> {
        self.inner.contains(key)
    }

    /// Remove `key`; `true` when it was present.
    pub fn remove(&self, key: &K) -> HclResult<bool> {
        Ok(self.inner.erase(key)?.is_some())
    }

    /// Total elements.
    pub fn len(&self) -> HclResult<u64> {
        self.inner.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> HclResult<bool> {
        self.inner.is_empty()
    }

    /// Smallest element.
    pub fn first(&self) -> HclResult<Option<K>> {
        Ok(self.inner.first()?.map(|(k, ())| k))
    }

    /// Elements in `[lo, hi)`, sorted.
    pub fn range(&self, lo: &K, hi: &K) -> HclResult<Vec<K>> {
        Ok(self.inner.range(lo, hi)?.into_iter().map(|(k, ())| k).collect())
    }

    /// Every element, sorted.
    pub fn snapshot_sorted(&self) -> HclResult<Vec<K>> {
        Ok(self.inner.snapshot_sorted()?.into_iter().map(|(k, ())| k).collect())
    }

    /// Mark a partition-owner rank failed (see [`OrderedMap::mark_down`]).
    pub fn mark_down(&self, owner_rank: u32) {
        self.inner.mark_down(owner_rank);
    }

    /// Clear a failure mark set by [`OrderedSet::mark_down`].
    pub fn mark_up(&self, owner_rank: u32) {
        self.inner.mark_up(owner_rank);
    }

    /// Client-side cost counters.
    pub fn costs(&self) -> CostSnapshot {
        self.inner.costs()
    }
}
