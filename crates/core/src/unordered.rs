//! `HCL::unordered_map` / `HCL::unordered_set` (paper §III-D1).
//!
//! Multi-partition hash structures: "a single logically contiguous array of
//! buckets distributed block-wise among multiple partitions in the global
//! address space", with **two levels of hashing** — one choosing the
//! partition, one locating the bucket inside it (the in-partition level is
//! the concurrent cuckoo hash of [`hcl_containers::CuckooMap`]).
//!
//! Operations follow the paper exactly:
//! * the caller hashes the key to a partition;
//! * **hybrid access** — "If a node-local partition is chosen, the RPC
//!   infrastructure is bypassed and the insertion (find) is performed on the
//!   shared memory (i.e., without involving the NIC)";
//! * otherwise one RPC (`F`) carries the whole operation to the owner, where
//!   all bucket work happens at local-memory speed.
//!
//! The map is a [`KeyedMap`] over cuckoo-hash partitions: the partition
//! lifecycle it shares with the ordered map — per-partition resize
//! (`resize(partition_id, new_size)`), asynchronous variants, durability via
//! per-partition op logs, asynchronous server-side replication (§III-A4:
//! "Replication occurs asynchronously at the server side, where the target
//! process will further hash an operation to more servers") and live
//! migration — lives in [`crate::keyed`]. This module adds the server-side
//! merge, the lease-cache read path, batched access and [`UnorderedSet`].

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hcl_containers::CuckooMap;
use hcl_databox::DataBox;
use hcl_fabric::EpId;
use hcl_runtime::Rank;

use crate::cache::{CacheStats, LeaseCache, LeaseConfig};
use crate::cost::CostSnapshot;
use crate::dispatch::{hist_invoke, hist_return, BulkReply, Route};
use crate::keyed::{KeyedCore, KeyedMap, KeyedPart, KeyedSpec, LocalStore};
use crate::persist::PersistConfig;
use crate::{HclFuture, HclResult};

// The unordered map's own ops, after the shared keyed ones.
const FN_MERGE: u32 = crate::keyed::N_SHARED;
const FN_GET_LEASED: u32 = FN_MERGE + 1;
const N_FNS: u32 = FN_GET_LEASED + 1;

/// Table I op descriptors for the unordered map: the shared keyed table
/// plus the server-side merge and the lease-granting lookup.
mod ops {
    use crate::dispatch::{CostSig, OpClass, OpDescriptor};

    pub(crate) static KEYED: crate::keyed::KeyedOps = crate::keyed::keyed_ops!("umap");
    pub const MERGE: OpDescriptor = OpDescriptor {
        name: "umap.put_merge",
        class: OpClass::ReadWrite,
        fn_off: super::FN_MERGE,
        cost: CostSig::lrw(1, 1, 1),
        degradable: true,
    };
    pub const GET_LEASED: OpDescriptor = OpDescriptor {
        name: "umap.get_leased",
        class: OpClass::Read,
        fn_off: super::FN_GET_LEASED,
        cost: CostSig::lrw(1, 1, 0),
        degradable: true,
    };
}

/// A server-side merge function: receives the current value (if any) and
/// the incoming one, returns the stored result. Registered at construction
/// so the whole read-modify-write executes atomically *at the target* —
/// one invocation per update, no client-side CAS loop (this is the k-mer
/// histogram pattern of §IV-D2).
pub type Merger<V> = Arc<dyn Fn(Option<&V>, &V) -> V + Send + Sync>;

/// Configuration for [`UnorderedMap`] / [`UnorderedSet`].
#[derive(Debug, Clone)]
pub struct UnorderedMapConfig {
    /// Ranks owning a partition; `None` = the first rank of every node.
    pub servers: Option<Vec<u32>>,
    /// Initial buckets per partition (the paper's default is 128).
    pub initial_buckets: usize,
    /// Enable the hybrid data access model (§III-C5). Disable to force every
    /// operation through RPC — the ablation the Fig. 5(a) comparison needs.
    pub hybrid: bool,
    /// Durability (per-partition op logs).
    pub persist: Option<PersistConfig>,
    /// Asynchronous replication factor (0 = off). Each partition forwards
    /// its mutations to the next `replicas` partition owners.
    pub replicas: usize,
    /// Lease-based client-side read caching (`None` = off, the default):
    /// hot remote keys are granted bounded-TTL leases and repeat `get`s are
    /// served locally (DESIGN.md §14).
    pub lease: Option<LeaseConfig>,
}

impl Default for UnorderedMapConfig {
    fn default() -> Self {
        UnorderedMapConfig {
            servers: None,
            initial_buckets: 128,
            hybrid: true,
            persist: None,
            replicas: 0,
            lease: None,
        }
    }
}

impl<K, V> LocalStore for CuckooMap<K, V>
where
    K: DataBox + Hash + Eq + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    type K = K;
    type V = V;

    fn get(&self, key: &K) -> Option<V> {
        CuckooMap::get(self, key)
    }
    fn insert(&self, key: K, value: V) -> Option<V> {
        CuckooMap::insert(self, key, value)
    }
    fn remove(&self, key: &K) -> Option<V> {
        CuckooMap::remove(self, key)
    }
    fn snapshot(&self) -> Vec<(K, V)> {
        self.iter_snapshot()
    }
    fn len(&self) -> usize {
        CuckooMap::len(self)
    }
    fn resize(&self, buckets: usize) {
        self.resize_to(buckets);
    }
}

/// A distributed unordered (hash) map: keyed partitions over the
/// concurrent cuckoo hash (the paper's second hashing level).
pub type UnorderedMap<'a, K, V> = KeyedMap<'a, CuckooMap<K, V>>;

impl<'a, K, V> KeyedMap<'a, CuckooMap<K, V>>
where
    K: DataBox + Hash + Eq + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    /// Collective constructor with defaults (one partition per node, 128
    /// buckets, hybrid access on). Every rank must call it with the same
    /// `name`.
    pub fn new(rank: &'a Rank, name: &str) -> Self {
        Self::with_config(rank, name, UnorderedMapConfig::default())
    }

    /// Collective constructor with explicit configuration.
    pub fn with_config(rank: &'a Rank, name: &str, cfg: UnorderedMapConfig) -> Self {
        Self::build_umap(rank, name, cfg, None)
    }

    /// Collective constructor that also registers a server-side [`Merger`],
    /// enabling [`UnorderedMap::put_merge`].
    pub fn with_merger(
        rank: &'a Rank,
        name: &str,
        cfg: UnorderedMapConfig,
        merger: Merger<V>,
    ) -> Self {
        Self::build_umap(rank, name, cfg, Some(merger))
    }

    fn build_umap(
        rank: &'a Rank,
        name: &str,
        cfg: UnorderedMapConfig,
        merger: Option<Merger<V>>,
    ) -> Self {
        let buckets = cfg.initial_buckets;
        let spec = KeyedSpec {
            servers: cfg.servers,
            hybrid: cfg.hybrid,
            persist: cfg.persist,
            replicas: cfg.replicas,
            lease: cfg.lease,
            merger,
            n_fns: N_FNS,
            new_store: Box::new(move || CuckooMap::with_buckets(buckets)),
        };
        KeyedMap::build(rank, name, &ops::KEYED, spec, |reg, core| {
            let c = core.parts.clone();
            let merger = core.merger.clone();
            reg.bind_typed(core.fn_base + FN_MERGE, move |server: EpId, _, (k, v): (K, V)| {
                merge_at(&c[&server.rank], merger.as_ref(), k, v)
            });
            let c = core.parts.clone();
            let ttl = lease_ttl_micros(core);
            reg.bind_typed(core.fn_base + FN_GET_LEASED, move |server: EpId, _, k: K| {
                get_leased(&c[&server.rank], ttl, &k)
            });
        })
    }

    /// Atomically merge `value` into the entry for `key` using the
    /// registered [`Merger`]; returns the stored result. One remote
    /// invocation — the read-modify-write happens *at the target*, which is
    /// exactly what BCL's client-side model cannot express without a CAS
    /// retry loop.
    pub fn put_merge(&self, key: K, value: V) -> HclResult<V> {
        let hash = crate::stable_hash(&key);
        self.d.sync(&ops::MERGE, Route::Key(hash), 1, (key, value), |o, (k, v)| {
            merge_at(self.core.part(o), self.core.merger.as_ref(), k, v)
        })
    }

    /// Asynchronous [`UnorderedMap::put_merge`]; remote merges stage on the
    /// op coalescer.
    pub fn put_merge_async(&self, key: K, value: V) -> HclResult<HclFuture<V>> {
        let owner = self.owner_now(crate::stable_hash(&key));
        self.d.dispatch_async(&ops::MERGE, owner, (key, value), |(k, v)| {
            merge_at(self.core.part(owner), self.core.merger.as_ref(), k, v)
        })
    }

    /// The owner rank of partition `p`.
    pub fn server_of(&self, p: usize) -> u32 {
        self.d.owner_map().current().members()[p]
    }

    /// Asynchronous lookup; remote lookups stage on the op coalescer.
    pub fn get_async(&self, key: &K) -> HclResult<HclFuture<Option<V>>> {
        let owner = self.owner_now(crate::stable_hash(key));
        self.d.dispatch_async(&self.core.ops.get, owner, key, |k| self.core.part(owner).get(k))
    }

    /// Insert many entries with **request aggregation** (§III-B): entries
    /// are grouped by partition and each remote partition receives *one*
    /// aggregated message carrying all of its operations, which the NIC
    /// workers unpack and execute. Returns the number of newly inserted
    /// keys.
    pub fn put_batch(&self, entries: Vec<(K, V)>) -> HclResult<u64> {
        let mut by_owner: HashMap<u32, Vec<(K, V)>> = HashMap::new();
        for (k, v) in entries {
            by_owner.entry(self.owner_now(crate::stable_hash(&k))).or_default().push((k, v));
        }
        let mut new_keys = 0u64;
        let mut pending = Vec::new();
        for (owner, group) in by_owner {
            let reply = self
                .d
                .bulk(&self.core.ops.put, owner, group, |(k, v)| self.core.part(owner).put(k, v))?;
            match reply {
                BulkReply::Ready(results) => {
                    new_keys += results.into_iter().filter(|b| *b).count() as u64;
                }
                pending_reply => pending.push(pending_reply),
            }
        }
        for reply in pending {
            let results: Vec<bool> = reply.wait()?;
            new_keys += results.into_iter().filter(|b| *b).count() as u64;
        }
        Ok(new_keys)
    }

    /// Look up many keys with request aggregation; results are returned in
    /// the order of `keys`.
    pub fn get_batch(&self, keys: &[K]) -> HclResult<Vec<Option<V>>> {
        let mut by_owner: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, k) in keys.iter().enumerate() {
            by_owner.entry(self.owner_now(crate::stable_hash(k))).or_default().push(i);
        }
        let mut out: Vec<Option<V>> = (0..keys.len()).map(|_| None).collect();
        let mut pending = Vec::new();
        for (owner, idxs) in by_owner {
            let refs: Vec<&K> = idxs.iter().map(|&i| &keys[i]).collect();
            let reply =
                self.d.bulk(&self.core.ops.get, owner, refs, |k| self.core.part(owner).get(k))?;
            match reply {
                BulkReply::Ready(results) => {
                    for (i, r) in idxs.into_iter().zip(results) {
                        out[i] = r;
                    }
                }
                pending_reply => pending.push((idxs, pending_reply)),
            }
        }
        for (idxs, reply) in pending {
            let results: Vec<Option<V>> = reply.wait()?;
            for (i, r) in idxs.into_iter().zip(results) {
                out[i] = r;
            }
        }
        Ok(out)
    }

    /// Lease-cache counters of this handle (`None` when caching is off).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Aggregated server-side cost counters across all partitions.
    pub fn server_costs(&self) -> CostSnapshot {
        let mut out = CostSnapshot::default();
        for part in self.core.parts.values() {
            let s = part.costs();
            out.f += s.f;
            out.l += s.l;
            out.r += s.r;
            out.w += s.w;
            out.fb += s.fb;
            out.fu += s.fu;
        }
        out
    }

    /// Clone out every entry of every partition (not atomic).
    pub fn snapshot_all(&self) -> HclResult<Vec<(K, V)>> {
        self.snapshot_parts()
    }

    /// Bucket count of a partition (diagnostics).
    pub fn partition_buckets(&self, partition_id: usize) -> usize {
        let owner = self.d.owner_map().current().members()[partition_id];
        self.core.part(owner).store().buckets()
    }
}

/// Run the registered merger against `part` (one atomic upsert at the
/// target). The *merged result* is what gets logged, so replay never
/// re-runs the merger against recovered state.
fn merge_at<K, V>(
    part: &KeyedPart<CuckooMap<K, V>>,
    merger: Option<&Merger<V>>,
    key: K,
    value: V,
) -> V
where
    K: DataBox + Hash + Eq + Clone + Send + Sync + 'static,
    V: DataBox + Clone + Send + Sync + 'static,
{
    let merger = merger.expect("container built without a merger");
    part.put_computed(key.clone(), FN_MERGE, |m| m.upsert(key, |old| merger(old, &value)))
}

/// Lease TTL granted to clients, microseconds (0 = never grant).
fn lease_ttl_micros<S: LocalStore>(core: &KeyedCore<S>) -> u64 {
    core.lease.as_ref().map_or(0, |l| l.ttl.as_micros().min(u64::MAX as u128) as u64)
}

/// A lease-granting lookup: `(version, ttl_micros, value)`. The version is
/// read *before* the value — a mutation landing in between bumps the
/// counter past the granted version, so its piggybacked stamp (or any
/// later one) invalidates the lease client-side.
fn get_leased<S: LocalStore>(
    part: &KeyedPart<S>,
    ttl: u64,
    key: &S::K,
) -> (u64, u64, Option<S::V>) {
    let version = part.version();
    (version, ttl, part.get(key))
}

impl<S: LocalStore> KeyedMap<'_, S> {
    /// The cached read path (remote, non-down owner, lease config set):
    /// serve from a live lease; otherwise grant one if the key is hot,
    /// steer to the replica if the owner is loaded, or fall through to a
    /// plain remote `get`.
    pub(crate) fn get_cached(
        &self,
        cache: &Arc<LeaseCache<S::K, S::V>>,
        hash: u64,
        owner: u32,
        key: &S::K,
    ) -> HclResult<Option<S::V>> {
        // Watermark slot = owner rank (matches the version sink). The epoch
        // is the unified membership/downed counter: a membership commit
        // invalidates every outstanding lease, so no lease can outlive the
        // map that granted it.
        let p = owner as usize;
        let epoch = self.d.epoch();
        if let Some((value, valid_from)) = cache.lookup(key, hash, p, epoch) {
            // Served locally without touching the fabric. The history op
            // carries the grant's invoke timestamp: the checker admits any
            // value that was current at some point in the lease window.
            #[cfg(not(feature = "history"))]
            let _ = valid_from;
            let tok = hist_invoke!(
                self.d,
                crate::DsOp::MapGetCached { key: crate::history_enc(key), valid_from }
            );
            let result = Ok(value);
            hist_return!(self.d, tok, &result, |v| crate::DsRet::Value(
                v.as_ref().map(crate::history_enc)
            ));
            return result;
        }
        if cache.is_hot(hash) {
            let tok = hist_invoke!(self.d, crate::DsOp::MapGet { key: crate::history_enc(key) });
            #[cfg(feature = "history")]
            let valid_from = tok.as_ref().map_or(0, |t| t.invoked_at());
            #[cfg(not(feature = "history"))]
            let valid_from = 0u64;
            // Deadline base taken *before* the RPC: the granted TTL bounds
            // staleness from the moment the server could have read the
            // value, not from when the response arrived.
            let granted = Instant::now();
            let route = Route::Owner { rank: owner, key_hash: hash };
            let result = self
                .d
                .sync(&ops::GET_LEASED, route, 1, key, |o, k| {
                    get_leased(self.core.part(o), lease_ttl_micros(&self.core), k)
                })
                .map(|(version, ttl_micros, value)| {
                    if ttl_micros > 0 {
                        cache.insert(
                            key.clone(),
                            hash,
                            p,
                            value.clone(),
                            version,
                            epoch,
                            granted + Duration::from_micros(ttl_micros),
                            valid_from,
                        );
                    }
                    value
                });
            hist_return!(self.d, tok, &result, |v| crate::DsRet::Value(
                v.as_ref().map(crate::history_enc)
            ));
            return result;
        }
        if self.core.replicas > 0 && cache.should_steer(owner) {
            // Replica reads may lag replication, so steered reads are
            // monotone-prefix (like owner-down degraded reads) and are not
            // recorded in linearizability histories.
            cache.metrics().steered_reads.inc();
            return self.get_from_replica(hash, key);
        }
        let tok = hist_invoke!(self.d, crate::DsOp::MapGet { key: crate::history_enc(key) });
        let result = self.get_owner(hash, key);
        hist_return!(self.d, tok, &result, |v| crate::DsRet::Value(
            v.as_ref().map(crate::history_enc)
        ));
        result
    }
}

/// A distributed unordered (hash) set: the same two-level hash structure
/// with key-only buckets ("sets only contain a single key per element,
/// which reduces the serialization cost", §IV-C).
pub struct UnorderedSet<'a, K>
where
    K: DataBox + Hash + Eq + Clone + Send + Sync + 'static,
{
    inner: UnorderedMap<'a, K, ()>,
    #[cfg(feature = "history")]
    recorder: Option<crate::HistoryRecorder>,
}

impl<'a, K> UnorderedSet<'a, K>
where
    K: DataBox + Hash + Eq + Clone + Send + Sync + 'static,
{
    /// Collective constructor with defaults.
    pub fn new(rank: &'a Rank, name: &str) -> Self {
        UnorderedSet {
            inner: UnorderedMap::new(rank, name),
            #[cfg(feature = "history")]
            recorder: None,
        }
    }

    /// Collective constructor with configuration.
    pub fn with_config(rank: &'a Rank, name: &str, cfg: UnorderedMapConfig) -> Self {
        UnorderedSet {
            inner: UnorderedMap::with_config(rank, name, cfg),
            #[cfg(feature = "history")]
            recorder: None,
        }
    }

    /// Attach a shared history recorder: synchronous `insert`/`remove`/
    /// `contains` through this handle are logged as set operations. The
    /// inner map's recorder stays unset so each op is recorded exactly once.
    #[cfg(feature = "history")]
    pub fn set_recorder(&mut self, rec: crate::HistoryRecorder) {
        self.recorder = Some(rec);
    }

    /// Insert `key`; `true` when newly inserted.
    pub fn insert(&self, key: K) -> HclResult<bool> {
        #[cfg(feature = "history")]
        let tok = self
            .recorder
            .as_ref()
            .map(|r| r.invoke(crate::DsOp::SetInsert { key: crate::history_enc(&key) }));
        let result = self.inner.put(key, ());
        #[cfg(feature = "history")]
        if let (Some(r), Some(tok), Ok(newly)) = (self.recorder.as_ref(), tok, result.as_ref()) {
            r.record_return(tok, crate::DsRet::Inserted(*newly));
        }
        result
    }

    /// Asynchronous insert.
    pub fn insert_async(&self, key: K) -> HclResult<HclFuture<bool>> {
        self.inner.put_async(key, ())
    }

    /// Membership test (Table I: `F + L + R`).
    pub fn contains(&self, key: &K) -> HclResult<bool> {
        #[cfg(feature = "history")]
        let tok = self
            .recorder
            .as_ref()
            .map(|r| r.invoke(crate::DsOp::SetContains { key: crate::history_enc(key) }));
        let result = self.inner.contains(key);
        #[cfg(feature = "history")]
        if let (Some(r), Some(tok), Ok(present)) = (self.recorder.as_ref(), tok, result.as_ref()) {
            r.record_return(tok, crate::DsRet::Contains(*present));
        }
        result
    }

    /// Remove `key`; `true` when it was present.
    pub fn remove(&self, key: &K) -> HclResult<bool> {
        #[cfg(feature = "history")]
        let tok = self
            .recorder
            .as_ref()
            .map(|r| r.invoke(crate::DsOp::SetRemove { key: crate::history_enc(key) }));
        let result = self.inner.erase(key).map(|v| v.is_some());
        #[cfg(feature = "history")]
        if let (Some(r), Some(tok), Ok(removed)) = (self.recorder.as_ref(), tok, result.as_ref()) {
            r.record_return(tok, crate::DsRet::Removed(*removed));
        }
        result
    }

    /// Total elements.
    pub fn len(&self) -> HclResult<u64> {
        self.inner.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> HclResult<bool> {
        self.inner.is_empty()
    }

    /// Resize one partition.
    pub fn resize(&self, partition_id: usize, new_buckets: usize) -> HclResult<bool> {
        self.inner.resize(partition_id, new_buckets)
    }

    /// All elements (not atomic).
    pub fn snapshot_all(&self) -> HclResult<Vec<K>> {
        Ok(self.inner.snapshot_all()?.into_iter().map(|(k, ())| k).collect())
    }

    /// Mark a partition owner as failed (see [`UnorderedMap::mark_down`]).
    pub fn mark_down(&self, owner_rank: u32) {
        self.inner.mark_down(owner_rank);
    }

    /// Clear a failure mark set by [`UnorderedSet::mark_down`].
    pub fn mark_up(&self, owner_rank: u32) {
        self.inner.mark_up(owner_rank);
    }

    /// Client-side cost counters.
    pub fn costs(&self) -> CostSnapshot {
        self.inner.costs()
    }
}
