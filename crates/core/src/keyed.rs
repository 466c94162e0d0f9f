//! The keyed-partition core shared by both maps (paper §III-D1, §III-D2).
//!
//! The paper builds the unordered and the ordered structures the same way:
//! a set of hash-distributed partitions with hybrid access, per-partition
//! durability and server-side replication — only the structure *inside* a
//! partition differs. This module is that shared part, written once:
//!
//! * [`KeyedPart`] — one partition's server-side state: the local
//!   [`LocalStore`], its replica store, its op log, the mutation version,
//!   the replication forwarder and the live-migration window;
//! * [`KeyedMap`] — the client handle: every keyed operation is one
//!   [`Dispatcher`] call against the container's [`KeyedOps`] table;
//! * the shared handler bindings, the partition-building loop (log open and
//!   replay, flusher registration, epoch gate) and the one
//!   [`ShardMigrator`] implementation.
//!
//! [`crate::UnorderedMap`] is a `KeyedMap` over the cuckoo hash and
//! [`crate::OrderedMap`] one over the skiplist; their modules add only what
//! is specific to them (the lease-cache read path and `put_merge`; ordered
//! views). `LocalStore` is a generic parameter, never a trait object, so the
//! op path is monomorphised per container.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hcl_databox::DataBox;
use hcl_fabric::EpId;
use hcl_rpc::{FnId, RpcRegistry};
use hcl_runtime::{Membership, PartitionMap, Rank, ShardMove};
use hcl_telemetry::CacheMetrics;
use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::cache::{LeaseCache, LeaseConfig};
use crate::cost::{CostCounters, CostSnapshot};
use crate::dispatch::{
    hist_invoke, hist_return, Dispatcher, OpDescriptor, OwnerMap, ReplForwarder, Route,
};
use crate::persist::{Flusher, OpLog, PersistConfig, PersistMetrics};
use crate::rebalance::{MigratorRegistry, ShardMigrator};
use crate::unordered::Merger;
use crate::{default_servers, HclError, HclFuture, HclResult};

/// The in-partition structure a [`KeyedPart`] distributes: the second level
/// of the paper's two-level hashing (or the ordered partition).
pub trait LocalStore: Send + Sync + 'static {
    /// Key type.
    type K: DataBox + Hash + Eq + Clone + Send + Sync + 'static;
    /// Value type.
    type V: DataBox + Clone + Send + Sync + 'static;

    /// Clone of the value stored under `key`.
    fn get(&self, key: &Self::K) -> Option<Self::V>;
    /// Insert or overwrite; returns the previous value.
    fn insert(&self, key: Self::K, value: Self::V) -> Option<Self::V>;
    /// Remove; returns the removed value.
    fn remove(&self, key: &Self::K) -> Option<Self::V>;
    /// Clone out every entry (not atomic under concurrent writers).
    fn snapshot(&self) -> Vec<(Self::K, Self::V)>;
    /// Entries currently stored.
    fn len(&self) -> usize;
    /// The paper's `resize(partition_id, new_size)`; structures that grow
    /// node by node satisfy it trivially.
    fn resize(&self, _buckets: usize) {}
}

// Fn-id offsets every keyed container shares; a container's own ops start
// at [`N_SHARED`].
pub(crate) const FN_PUT: u32 = 0;
pub(crate) const FN_GET: u32 = 1;
pub(crate) const FN_ERASE: u32 = 2;
pub(crate) const FN_LEN: u32 = 3;
pub(crate) const FN_SNAPSHOT: u32 = 4;
pub(crate) const FN_RESIZE: u32 = 5;
pub(crate) const FN_REPL_PUT: u32 = 6;
pub(crate) const FN_REPL_GET: u32 = 7;
pub(crate) const FN_REPL_FLUSH: u32 = 8;
// Live-migration control plane (see [`crate::rebalance`]). These travel
// untagged (the driver addresses explicit ranks, not hashed owners).
pub(crate) const FN_MIG_ARM: u32 = 9;
pub(crate) const FN_MIG_BEGIN: u32 = 10;
pub(crate) const FN_MIG_EXTRACT: u32 = 11;
pub(crate) const FN_MIG_INSTALL: u32 = 12;
pub(crate) const FN_MIG_APPLY: u32 = 13;
pub(crate) const FN_MIG_END: u32 = 14;
/// First fn-id offset free for container-specific ops.
pub(crate) const N_SHARED: u32 = 15;

/// Table I op descriptors of the shared keyed ops, named per container
/// (`umap.put`, `omap.put`, ...). Built with [`keyed_ops!`].
pub(crate) struct KeyedOps {
    /// Container label: dispatcher name, shared-object and migrator prefix.
    pub(crate) label: &'static str,
    pub(crate) put: OpDescriptor,
    pub(crate) get: OpDescriptor,
    pub(crate) erase: OpDescriptor,
    pub(crate) len: OpDescriptor,
    pub(crate) snapshot: OpDescriptor,
    pub(crate) resize: OpDescriptor,
    pub(crate) repl_get: OpDescriptor,
    pub(crate) repl_flush: OpDescriptor,
    pub(crate) mig_arm: OpDescriptor,
    pub(crate) mig_begin: OpDescriptor,
    pub(crate) mig_extract: OpDescriptor,
    pub(crate) mig_install: OpDescriptor,
    pub(crate) mig_end: OpDescriptor,
}

/// Build a container's [`KeyedOps`] table under `label`. Replica ops are
/// non-degradable: they are the failover path, so they must still reach
/// hosts that back marked-down owners. Migration control ops are issued by
/// the rebalance driver at explicit ranks, never epoch-tagged (the map
/// mid-transition is exactly what they operate on).
macro_rules! keyed_ops {
    ($label:literal) => {{
        use $crate::dispatch::{CostSig, OpClass::*};
        use $crate::keyed::*;
        const ZERO: CostSig = CostSig::ZERO;
        // Table I: `F + L + W` and `F + L + R`.
        const W1: CostSig = CostSig::lrw(1, 0, 1);
        const R1: CostSig = CostSig::lrw(1, 1, 0);
        KeyedOps {
            label: $label,
            put: desc(concat!($label, ".put"), Write, FN_PUT, W1, true),
            get: desc(concat!($label, ".get"), Read, FN_GET, R1, true),
            erase: desc(concat!($label, ".erase"), Write, FN_ERASE, W1, true),
            len: desc(concat!($label, ".len"), Admin, FN_LEN, ZERO, true),
            snapshot: desc(concat!($label, ".snapshot"), Admin, FN_SNAPSHOT, ZERO, true),
            resize: desc(concat!($label, ".resize"), Admin, FN_RESIZE, ZERO, true),
            repl_get: desc(concat!($label, ".repl_get"), Read, FN_REPL_GET, ZERO, false),
            repl_flush: desc(concat!($label, ".repl_flush"), Admin, FN_REPL_FLUSH, ZERO, false),
            mig_arm: desc(concat!($label, ".mig_arm"), Admin, FN_MIG_ARM, ZERO, true),
            mig_begin: desc(concat!($label, ".mig_begin"), Admin, FN_MIG_BEGIN, ZERO, true),
            mig_extract: desc(concat!($label, ".mig_extract"), Admin, FN_MIG_EXTRACT, ZERO, true),
            mig_install: desc(concat!($label, ".mig_install"), Write, FN_MIG_INSTALL, W1, true),
            mig_end: desc(concat!($label, ".mig_end"), Admin, FN_MIG_END, ZERO, true),
        }
    }};
}
pub(crate) use keyed_ops;

/// Const constructor behind [`keyed_ops!`].
pub(crate) const fn desc(
    name: &'static str,
    class: crate::dispatch::OpClass,
    fn_off: u32,
    cost: crate::dispatch::CostSig,
    degradable: bool,
) -> OpDescriptor {
    OpDescriptor { name, class, fn_off, cost, degradable }
}

/// Op-log record: `(tag, key, value)`; tag 0 = put, 1 = erase.
type LogRec<K, V> = (u8, K, Option<V>);

/// Stripes of the log-order lock (a power of two: indexed by mask).
const ORDER_STRIPES: usize = 64;

/// Server-side state of one keyed partition.
pub(crate) struct KeyedPart<S: LocalStore> {
    index: usize,
    /// The rank hosting this part (the key of `KeyedCore::parts`).
    home: u32,
    store: S,
    /// Entries replicated *to* this partition from others.
    replica: S,
    log: Option<OpLog<LogRec<S::K, S::V>>>,
    /// Log-order stripes, present iff `log` is: a key's log append, store
    /// write and version bump happen under its stripe, so two writers to
    /// one key (a NIC worker and the hybrid bypass) can never log in one
    /// order and apply in the other — replay must rebuild the live state.
    order: Option<Box<[Mutex<()>]>>,
    /// Recovery-descriptor sequence for mutations applied outside an RPC
    /// worker (the hybrid local bypass); see [`crate::persist::op_identity`].
    local_seq: AtomicU64,
    repl: ReplForwarder,
    fn_base: FnId,
    servers: Vec<u32>,
    replicas: usize,
    costs: CostCounters,
    /// Monotone mutation version: bumped *after* every applied mutation,
    /// read *before* the value on a lease grant, and piggybacked on every
    /// `FLAG_STAMPED` response (the stamper in [`bind_handlers`]). That
    /// ordering guarantees a mutation racing a grant always yields a stamp
    /// strictly newer than the granted version.
    version: AtomicU64,
    /// The world's membership view — `Some` for elastic containers (no
    /// explicit `servers`), whose shards can move between ranks. `None`
    /// pins the partition forever (static placement).
    membership: Option<Arc<Membership>>,
    /// Old-owner side of live migration: virtual partitions currently in a
    /// write-forwarding window, mapped to their new owner. Mutations whose
    /// key hashes into a forwarding vpart are dual-applied at the target.
    forwarding: RwLock<HashMap<usize, u32>>,
    /// New-owner side: keys erased by a forwarded write during the window.
    /// A tombstoned key must not be resurrected by a racing copy-install
    /// whose snapshot predates the erase.
    tombstones: Mutex<HashSet<S::K>>,
    /// New-owner side: keys the migration wrote during the window (copy or
    /// forwarded put), retained so an aborted rebalance can purge exactly
    /// what the migration wrote. Also the window's write lock: installs and
    /// forwarded applies serialize on it, which makes install's
    /// check-then-insert an atomic insert-if-absent on any store.
    installed: Mutex<Vec<S::K>>,
}

impl<S: LocalStore> KeyedPart<S> {
    /// The local structure (reads and container-specific views).
    pub(crate) fn store(&self) -> &S {
        &self.store
    }

    /// Current mutation version (see the field docs).
    pub(crate) fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Hold `key`'s log-order stripe (no-op without a log).
    fn order_key(&self, key: &S::K) -> Option<MutexGuard<'_, ()>> {
        let stripes = self.order.as_ref()?;
        Some(stripes[crate::stable_hash(key) as usize & (ORDER_STRIPES - 1)].lock())
    }

    /// Log one put (`Some`) or erase (`None`) of `key` with its dispatch op
    /// index and recovery descriptor (no-op without a log).
    fn log_op(&self, key: &S::K, value: Option<&S::V>, fn_off: u32) {
        if let Some(log) = &self.log {
            let ident = crate::persist::op_identity(self.home, &self.local_seq);
            let rec: LogRec<S::K, S::V> = (value.is_none() as u8, key.clone(), value.cloned());
            let _ = log.append_op(&rec, fn_off as u16, ident);
        }
    }

    /// Log, apply and version-stamp one put or erase under the key's
    /// stripe; returns the previous value.
    fn write(&self, key: &S::K, value: Option<&S::V>, fn_off: u32) -> Option<S::V> {
        let _order = self.order_key(key);
        self.log_op(key, value, fn_off);
        let prev = match value {
            Some(v) => self.store.insert(key.clone(), v.clone()),
            None => self.store.remove(key),
        };
        self.version.fetch_add(1, Ordering::Release);
        prev
    }

    /// Put; `true` when the key was newly inserted.
    pub(crate) fn put(&self, key: S::K, value: S::V) -> bool {
        self.costs.l(1);
        self.costs.w(1);
        let prev = self.write(&key, Some(&value), FN_PUT);
        self.propagate(key, Some(value));
        prev.is_none()
    }

    /// Erase; returns the removed value.
    pub(crate) fn erase(&self, key: &S::K) -> Option<S::V> {
        self.costs.l(1);
        self.costs.w(1);
        let prev = self.write(key, None, FN_ERASE);
        self.propagate(key.clone(), None);
        prev
    }

    /// Lookup.
    pub(crate) fn get(&self, key: &S::K) -> Option<S::V> {
        self.costs.l(1);
        self.costs.r(1);
        self.store.get(key)
    }

    /// A read-modify-write at the target: `apply` computes and stores the
    /// key's new value, which is then logged (the *result*, so replay never
    /// re-runs `apply` against recovered state), forwarded and replicated.
    pub(crate) fn put_computed(
        &self,
        key: S::K,
        fn_off: u32,
        apply: impl FnOnce(&S) -> S::V,
    ) -> S::V {
        self.costs.l(1);
        self.costs.r(1);
        self.costs.w(1);
        let value = {
            let _order = self.order_key(&key);
            let value = apply(&self.store);
            self.log_op(&key, Some(&value), fn_off);
            self.version.fetch_add(1, Ordering::Release);
            value
        };
        self.propagate(key, Some(value.clone()));
        value
    }

    /// Hand an applied mutation to the migration window and the replicas.
    fn propagate(&self, key: S::K, value: Option<S::V>) {
        self.forward_migration(&key, value.as_ref());
        if self.replicas > 0 {
            self.repl.forward(
                self.index,
                &self.servers,
                self.replicas,
                self.fn_base + FN_REPL_PUT,
                &(key, value).to_bytes(),
            );
        }
    }

    /// Wait until every outstanding replication forward is acknowledged.
    pub(crate) fn flush_replication(&self) {
        self.repl.flush();
    }

    /// Compact the op log to the live contents. Every stripe is held, so no
    /// write can land in the old log after the snapshot and be dropped.
    pub(crate) fn compact(&self) -> std::io::Result<()> {
        let (Some(log), Some(stripes)) = (&self.log, &self.order) else { return Ok(()) };
        let _all: Vec<_> = stripes.iter().map(|s| s.lock()).collect();
        let snapshot: Vec<LogRec<S::K, S::V>> =
            self.store.snapshot().into_iter().map(|(k, v)| (0, k, Some(v))).collect();
        log.compact(snapshot.iter())
    }

    /// Per-part server-side cost counters.
    pub(crate) fn costs(&self) -> CostSnapshot {
        self.costs.snapshot()
    }

    /// The virtual partition `key` hashes into (elastic containers only;
    /// `usize::MAX` for pinned parts, which never match a window).
    fn vpart_of(&self, key: &S::K) -> usize {
        self.membership
            .as_ref()
            .map_or(usize::MAX, |m| m.current().vpart_of_hash(crate::stable_hash(key)))
    }

    /// Old-owner side of the write-forwarding window: a mutation whose key
    /// hashes into a moving vpart is dual-applied at the new owner, so
    /// writes racing the copy are not lost when the old shard is purged.
    ///
    /// Remote mutations are epoch-gated at the server, but the hybrid
    /// shared-memory bypass is not: a bypass that resolved the owner just
    /// before a commit can apply here after the window already closed. The
    /// fallback arm catches that — if this part no longer owns the key's
    /// vpart it dual-applies at the current map owner, so the write is never
    /// stranded in the purged shard.
    ///
    /// The window is read before the owner. A source closes its window only
    /// after the commit that moved the vpart, so a closed window is always
    /// followed by the new owner. Reading the owner first could see the old
    /// one (this part) and then find the window already closed, leaving the
    /// write in a shard that the close purges.
    fn forward_migration(&self, key: &S::K, value: Option<&S::V>) {
        let Some(m) = &self.membership else { return };
        // Transitions move vparts but never change their count.
        let vp = m.current().vpart_of_hash(crate::stable_hash(key));
        let window = self.forwarding.read().get(&vp).copied();
        let target = match window {
            Some(t) => t,
            None => {
                let owner = m.current().owner_of_vpart(vp);
                if owner == self.home {
                    return;
                }
                owner
            }
        };
        self.repl.forward_to(
            target,
            self.fn_base + FN_MIG_APPLY,
            &(key.clone(), value.cloned()).to_bytes(),
        );
        m.counters().forwarded_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// New-owner side: clear window bookkeeping for `vpart` left by a
    /// previously aborted attempt, so this window starts clean.
    fn mig_arm(&self, vpart: usize) {
        self.tombstones.lock().retain(|k| self.vpart_of(k) != vpart);
        self.installed.lock().retain(|k| self.vpart_of(k) != vpart);
    }

    /// Old-owner side: open the forwarding window for `vpart` toward `to`.
    fn mig_begin(&self, vpart: usize, to: u32) {
        self.forwarding.write().insert(vpart, to);
    }

    /// Old-owner side: copy (do not remove) every entry of `vpart`. The
    /// shard stays fully served here until the transition commits.
    fn mig_extract(&self, vpart: usize) -> Vec<(S::K, S::V)> {
        self.store.snapshot().into_iter().filter(|(k, _)| self.vpart_of(k) == vpart).collect()
    }

    /// New-owner side: install one copied entry — insert-if-absent under
    /// the window lock, so a fresher forwarded put is never overwritten by
    /// the older copy and tombstoned keys (forwarded erases) stay dead.
    fn mig_install(&self, key: S::K, value: S::V) -> bool {
        let mut installed = self.installed.lock();
        if self.tombstones.lock().contains(&key) || self.store.get(&key).is_some() {
            return false;
        }
        // Durability follows ownership: a migrated-in entry is logged at
        // its new home so a crash after the commit replays it here.
        self.write(&key, Some(&value), FN_MIG_INSTALL);
        installed.push(key);
        true
    }

    /// New-owner side: apply one forwarded write. Puts overwrite (the
    /// forward is fresher than any copy) and revive tombstones; erases
    /// tombstone the key against late-arriving copies.
    fn mig_apply(&self, key: S::K, value: Option<S::V>) {
        let mut installed = self.installed.lock();
        self.write(&key, value.as_ref(), FN_MIG_APPLY);
        if value.is_some() {
            self.tombstones.lock().remove(&key);
            installed.push(key);
        } else {
            self.tombstones.lock().insert(key);
        }
    }

    /// Close the window for `vpart`. At the source (old owner): stop
    /// forwarding, and on commit flush in-flight forwards then purge the
    /// moved entries. At the target (new owner): clear tombstones, and on
    /// abort purge exactly the keys the migration installed.
    fn mig_end(&self, vpart: usize, committed: bool, source: bool) {
        if source {
            self.forwarding.write().remove(&vpart);
            if committed {
                // Every dual-applied write must be acknowledged by the new
                // owner before the authoritative copy disappears here.
                self.repl.flush();
                for (k, _) in self.store.snapshot() {
                    if self.vpart_of(&k) == vpart {
                        self.store.remove(&k);
                    }
                }
                self.version.fetch_add(1, Ordering::Release);
                // The moved shard now lives (and logs) at the new owner;
                // compact this side's log to the post-purge contents so a
                // crash here never resurrects the migrated keys.
                let _ = self.compact();
            }
        } else {
            let mut installed = self.installed.lock();
            if committed {
                installed.retain(|k| self.vpart_of(k) != vpart);
            } else {
                let mut i = 0;
                while i < installed.len() {
                    if self.vpart_of(&installed[i]) == vpart {
                        let k = installed.swap_remove(i);
                        self.store.remove(&k);
                    } else {
                        i += 1;
                    }
                }
            }
            drop(installed);
            self.tombstones.lock().retain(|k| self.vpart_of(k) != vpart);
            self.version.fetch_add(1, Ordering::Release);
        }
    }
}

/// What a keyed container is built from (each map maps its own config
/// onto this).
pub(crate) struct KeyedSpec<S: LocalStore> {
    /// Partition owners; `None` = elastic (ownership follows membership).
    pub servers: Option<Vec<u32>>,
    pub hybrid: bool,
    pub persist: Option<PersistConfig>,
    pub replicas: usize,
    pub lease: Option<LeaseConfig>,
    pub merger: Option<Merger<S::V>>,
    /// Fn ids to allocate: [`N_SHARED`] plus the container's own ops.
    pub n_fns: u32,
    /// Fresh local structure (one per partition and one per replica).
    pub new_store: Box<dyn Fn() -> S + Send>,
}

/// World-shared core of one keyed container.
pub(crate) struct KeyedCore<S: LocalStore> {
    /// Background sync thread bounding the relaxed-policy flush gap across
    /// all this container's partition logs (`None` for strict/manual).
    /// Declared first so it drops first: its final pass syncs every log
    /// while the logs are still alive.
    _flusher: Option<Flusher>,
    pub ops: &'static KeyedOps,
    pub fn_base: FnId,
    servers: Vec<u32>,
    /// Static replica ring over `servers` (one slot per server). Doubles as
    /// the owner map for pinned containers — `owner_of_hash` is bit-identical
    /// to the historical `servers[hash % len]` placement.
    repl_map: Arc<PartitionMap>,
    pub parts: HashMap<u32, Arc<KeyedPart<S>>>,
    pinned: bool,
    hybrid: bool,
    pub replicas: usize,
    pub lease: Option<LeaseConfig>,
    pub merger: Option<Merger<S::V>>,
}

impl<S: LocalStore> KeyedCore<S> {
    /// The partition hosted on `owner`.
    pub(crate) fn part(&self, owner: u32) -> &KeyedPart<S> {
        &self.parts[&owner]
    }

    /// Build every partition of the container (runs once per world, inside
    /// the shared-object create closure).
    fn build(
        rank: &Rank,
        name: &str,
        ops: &'static KeyedOps,
        spec: KeyedSpec<S>,
        pmetrics: PersistMetrics,
    ) -> Self {
        let world = rank.world();
        // Elastic (no explicit `servers`): ownership follows the world's
        // membership, so every rank hosts a part — any rank may be admitted
        // as an owner later. Pinned (explicit `servers`): exactly the
        // historical static placement.
        let pinned = spec.servers.is_some();
        let servers = spec.servers.clone().unwrap_or_else(|| default_servers(world));
        let fn_base = world.alloc_fn_ids(spec.n_fns);
        let repl_map = Arc::new(PartitionMap::round_robin(&servers, 1));
        let hosts: Vec<u32> =
            if pinned { servers.clone() } else { (0..world.config().world_size()).collect() };
        // One relaxed-policy flusher bounds the flush gap of every partition
        // log this container opens.
        let flusher = spec.persist.as_ref().and_then(|p| p.policy.interval()).map(Flusher::spawn);
        let mut parts = HashMap::new();
        for &owner in &hosts {
            // Non-leader elastic hosts start empty — but under a persist
            // config they still open a log, because live rebalancing can
            // migrate shards onto them; durability follows ownership.
            let leader = servers.iter().position(|&s| s == owner);
            let store = (spec.new_store)();
            let log = spec.persist.as_ref().map(|p| {
                // Stems are keyed by owner rank: stable across a restart of
                // the same world shape, unique per host.
                let log = OpLog::open_with(
                    p.stem(name, owner as usize),
                    p.policy,
                    p.segment_bytes,
                    pmetrics.clone(),
                    |rec: LogRec<S::K, S::V>| match rec {
                        (0, k, Some(v)) => {
                            store.insert(k, v);
                        }
                        (1, k, None) => {
                            store.remove(&k);
                        }
                        _ => {}
                    },
                )
                .expect("open partition op log");
                if let Some(f) = &flusher {
                    f.register(log.wal());
                }
                log
            });
            let order = log.as_ref().map(|_| (0..ORDER_STRIPES).map(|_| Mutex::new(())).collect());
            let part = Arc::new(KeyedPart {
                index: leader.unwrap_or(0),
                home: owner,
                store,
                replica: (spec.new_store)(),
                log,
                order,
                local_seq: AtomicU64::new(0),
                repl: ReplForwarder::new(owner, world),
                fn_base,
                servers: servers.clone(),
                replicas: if leader.is_some() { spec.replicas } else { 0 },
                costs: CostCounters::default(),
                version: AtomicU64::new(0),
                membership: (!pinned).then(|| Arc::clone(world.membership())),
                forwarding: RwLock::new(HashMap::new()),
                tombstones: Mutex::new(HashSet::new()),
                installed: Mutex::new(Vec::new()),
            });
            // Replay identities restart in every world, so a later world's
            // appends could dedup against this history: compact a replayed
            // log to the live contents (anonymous records) before any append.
            if part.log.as_ref().is_some_and(|l| l.replay_report().replayed > 0) {
                part.compact().expect("compact replayed partition log");
            }
            parts.insert(owner, part);
        }
        bind_handlers(world.registry(), fn_base, spec.n_fns, &parts);
        if !pinned {
            // Keyed mutations carry the client's membership epoch; the
            // server rejects mismatches typed (`WrongEpoch`) so an op routed
            // by a stale map is never served by the wrong rank.
            let cell = world.membership().epoch_cell();
            world
                .registry()
                .set_epoch_gate(fn_base, spec.n_fns, move || cell.load(Ordering::Acquire));
        }
        KeyedCore {
            _flusher: flusher,
            ops,
            fn_base,
            servers,
            repl_map,
            parts,
            pinned,
            hybrid: spec.hybrid,
            replicas: spec.replicas,
            lease: spec.lease,
            merger: spec.merger,
        }
    }
}

/// Bind the shared keyed handlers for the fn-id range at `fn_base`.
fn bind_handlers<S: LocalStore>(
    reg: &RpcRegistry,
    fn_base: FnId,
    n_fns: u32,
    parts: &HashMap<u32, Arc<KeyedPart<S>>>,
) {
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_PUT, move |server: EpId, _, (k, v): (S::K, S::V)| {
        p[&server.rank].put(k, v)
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_GET, move |server: EpId, _, k: S::K| p[&server.rank].get(&k));
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_ERASE, move |server: EpId, _, k: S::K| p[&server.rank].erase(&k));
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_LEN, move |server: EpId, _, ()| p[&server.rank].store.len() as u64);
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_SNAPSHOT, move |server: EpId, _, ()| {
        p[&server.rank].store.snapshot()
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_RESIZE, move |server: EpId, _, buckets: u64| {
        p[&server.rank].store.resize(buckets as usize);
        true
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_REPL_PUT, move |server: EpId, _, (k, v): (S::K, Option<S::V>)| {
        let replica = &p[&server.rank].replica;
        match v {
            Some(v) => {
                replica.insert(k, v);
            }
            None => {
                replica.remove(&k);
            }
        }
        true
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_REPL_GET, move |server: EpId, _, k: S::K| {
        p[&server.rank].replica.get(&k)
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_REPL_FLUSH, move |server: EpId, _, ()| {
        p[&server.rank].flush_replication();
        true
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_MIG_ARM, move |server: EpId, _, vpart: u64| {
        p[&server.rank].mig_arm(vpart as usize);
        true
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_MIG_BEGIN, move |server: EpId, _, (vpart, to): (u64, u32)| {
        p[&server.rank].mig_begin(vpart as usize, to);
        true
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_MIG_EXTRACT, move |server: EpId, _, vpart: u64| {
        p[&server.rank].mig_extract(vpart as usize)
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_MIG_INSTALL, move |server: EpId, _, (k, v): (S::K, S::V)| {
        p[&server.rank].mig_install(k, v)
    });
    let p = parts.clone();
    reg.bind_typed(fn_base + FN_MIG_APPLY, move |server: EpId, _, (k, v): (S::K, Option<S::V>)| {
        p[&server.rank].mig_apply(k, v);
        true
    });
    let p = parts.clone();
    reg.bind_typed(
        fn_base + FN_MIG_END,
        move |server: EpId, _, (vpart, committed, source): (u64, bool, bool)| {
            p[&server.rank].mig_end(vpart as usize, committed, source);
            true
        },
    );
    // Every `FLAG_STAMPED` response from this container's fn-id range
    // piggybacks the serving partition's current mutation version — the
    // lease cache's third invalidation channel (after TTL and epoch).
    let p = parts.clone();
    reg.set_stamper(fn_base, n_fns, move |server: EpId| {
        p.get(&server.rank).map_or(0, |part| part.version())
    });
}

/// A distributed keyed map over partitions of `S`: the client handle behind
/// [`crate::UnorderedMap`] (`S` = cuckoo hash) and [`crate::OrderedMap`]
/// (`S` = skiplist).
pub struct KeyedMap<'a, S: LocalStore> {
    pub(crate) core: Arc<KeyedCore<S>>,
    pub(crate) d: Dispatcher<'a>,
    /// Per-handle lease cache (config `lease`); `None` = caching off.
    pub(crate) cache: Option<Arc<LeaseCache<S::K, S::V>>>,
}

impl<'a, S: LocalStore> KeyedMap<'a, S> {
    /// Collective constructor shared by both maps: build (or attach to) the
    /// world-shared core named `hcl.<label>.<name>`; `bind_extra` binds the
    /// container's own handlers (fn offsets from [`N_SHARED`]) once.
    pub(crate) fn build(
        rank: &'a Rank,
        name: &str,
        ops: &'static KeyedOps,
        spec: KeyedSpec<S>,
        bind_extra: impl FnOnce(&RpcRegistry, &KeyedCore<S>),
    ) -> Self {
        let pmetrics = if rank.telemetry().enabled() {
            PersistMetrics::from_registry(rank.telemetry().registry())
        } else {
            PersistMetrics::detached()
        };
        let core = rank.get_or_create_shared(&format!("hcl.{}.{name}", ops.label), || {
            let core = KeyedCore::build(rank, name, ops, spec, pmetrics);
            bind_extra(rank.world().registry(), &core);
            core
        });
        let mut d = Dispatcher::new(rank, ops.label, core.fn_base, core.hybrid);
        if core.pinned {
            // Static placement: resolve through the fixed ring, untagged.
            d.set_owner_map(OwnerMap::Pinned(Arc::clone(&core.repl_map)));
        } else {
            // Elastic containers take part in live rebalances. Registered
            // outside the create closure — `get_or_create_shared` holds the
            // objects lock, and `MigratorRegistry::shared` needs it too.
            MigratorRegistry::shared(rank).register_once(
                &format!("{}:{name}", ops.label),
                Arc::new(KeyedMigrator { core: Arc::clone(&core) }),
            );
        }
        let cache = core.lease.as_ref().map(|lease| {
            let metrics = if rank.telemetry().enabled() {
                CacheMetrics::from_registry(rank.telemetry().registry())
            } else {
                CacheMetrics::detached()
            };
            // Watermark slots are indexed by owner *rank* (ownership can
            // move between ranks mid-run), so size for the whole world.
            Arc::new(LeaseCache::new(lease.clone(), rank.world_size() as usize, metrics))
        });
        if let Some(cache) = &cache {
            // Responses travel FLAG_STAMPED; fold each owner's piggybacked
            // version into the cache's watermark.
            let sink_cache = Arc::clone(cache);
            d.set_version_sink(Arc::new(move |owner, stamp| {
                sink_cache.observe_version(owner as usize, stamp);
            }));
            // The hot-key sketch rides the observer seam: every keyed
            // remote read dispatch feeds it.
            d.add_observer(cache.detector());
        }
        KeyedMap { core, d, cache }
    }

    /// Attach a shared history recorder: every synchronous `put`/`get`/
    /// `erase` through this handle is logged as an invoke/return pair for
    /// offline linearizability checking ([`crate::check`]). Asynchronous,
    /// bulk and range variants are not recorded; an op whose RPC fails
    /// never enters the log.
    #[cfg(feature = "history")]
    pub fn set_recorder(&mut self, rec: crate::HistoryRecorder) {
        self.d.set_recorder(rec);
    }

    /// First-level hash: which partition (member index in the current
    /// ownership map) owns `key`.
    pub fn partition_of(&self, key: &S::K) -> usize {
        self.d.member_index_for(crate::stable_hash(key))
    }

    /// Number of partitions (owning members of the current map).
    pub fn partitions(&self) -> usize {
        self.d.owner_map().current().members().len()
    }

    /// Current owner of a key hash — a snapshot for async/batch paths,
    /// which stage work addressed at a fixed rank. Keyed sync ops instead
    /// resolve inside the dispatcher so `WrongEpoch` rejections re-route.
    pub(crate) fn owner_now(&self, hash: u64) -> u32 {
        self.d.resolve(hash).0
    }

    /// Insert `key -> value`; returns `true` when the key was newly
    /// inserted (`false` = overwrite). One remote invocation worst case
    /// (Table I: `F + L + W`; `F + L·log(N) + W` on the ordered map).
    pub fn put(&self, key: S::K, value: S::V) -> HclResult<bool> {
        let tok = hist_invoke!(
            self.d,
            crate::DsOp::MapPut {
                key: crate::history_enc(&key),
                value: crate::history_enc(&value),
            }
        );
        let hash = crate::stable_hash(&key);
        let route = Route::Key(hash);
        let result = self.d.sync(&self.core.ops.put, route, 1, (key, value), |o, (k, v)| {
            self.core.part(o).put(k, v)
        });
        hist_return!(self.d, tok, &result, |newly| crate::DsRet::Inserted(*newly));
        result
    }

    /// Asynchronous insert (§III-C4). Remote inserts stage on the rank's op
    /// coalescer and may ride a batched message with neighbouring async ops
    /// to the same partition (§III-B request aggregation).
    pub fn put_async(&self, key: S::K, value: S::V) -> HclResult<HclFuture<bool>> {
        let owner = self.owner_now(crate::stable_hash(&key));
        self.d.dispatch_async(&self.core.ops.put, owner, (key, value), |(k, v)| {
            self.core.part(owner).put(k, v)
        })
    }

    /// Look up `key` (Table I: `F + L + R`). Falls back to a replica when
    /// the owner has been marked down (requires `replicas >= 1`); with a
    /// [`LeaseConfig`], hot remote keys are served from the local lease
    /// cache (`F` elided entirely).
    pub fn get(&self, key: &S::K) -> HclResult<Option<S::V>> {
        let hash = crate::stable_hash(key);
        let owner = self.owner_now(hash);
        if let Some(cache) = &self.cache {
            if !self.d.is_local(owner) && !self.d.is_down(owner) {
                return self.get_cached(cache, hash, owner, key);
            }
        }
        let tok = hist_invoke!(self.d, crate::DsOp::MapGet { key: crate::history_enc(key) });
        // Without replicas there is nowhere to degrade to: dispatch normally
        // so the gate rejects the downed owner with `OwnerDown` immediately.
        let result = if self.d.is_down(owner) && self.core.replicas >= 1 {
            self.get_from_replica(hash, key)
        } else {
            self.get_owner(hash, key)
        };
        hist_return!(self.d, tok, &result, |v| crate::DsRet::Value(
            v.as_ref().map(crate::history_enc)
        ));
        result
    }

    /// Plain keyed lookup at the current owner.
    pub(crate) fn get_owner(&self, hash: u64, key: &S::K) -> HclResult<Option<S::V>> {
        self.d.sync(&self.core.ops.get, Route::Key(hash), 1, key, |o, k| self.core.part(o).get(k))
    }

    /// Replica read: replicas live on the *static* ring regardless of
    /// membership — the ring successor of the key's home server backs it.
    pub(crate) fn get_from_replica(&self, hash: u64, key: &S::K) -> HclResult<Option<S::V>> {
        let nparts = self.core.servers.len();
        let succ = self.core.repl_map.member_index_of_hash(hash) + 1;
        let succ = if succ >= nparts { succ - nparts } else { succ };
        let replica_owner = self.core.servers[succ];
        self.d.sync(&self.core.ops.repl_get, Route::to(replica_owner), 1, key, |o, k| {
            self.core.part(o).replica.get(k)
        })
    }

    /// Remove `key`, returning its value.
    pub fn erase(&self, key: &S::K) -> HclResult<Option<S::V>> {
        let tok = hist_invoke!(self.d, crate::DsOp::MapErase { key: crate::history_enc(key) });
        let hash = crate::stable_hash(key);
        let result = self.d.sync(&self.core.ops.erase, Route::Key(hash), 1, key, |o, k| {
            self.core.part(o).erase(k)
        });
        hist_return!(self.d, tok, &result, |v| crate::DsRet::Value(
            v.as_ref().map(crate::history_enc)
        ));
        result
    }

    /// Presence check.
    pub fn contains(&self, key: &S::K) -> HclResult<bool> {
        Ok(self.get(key)?.is_some())
    }

    /// Total entries across all partitions (collective-free; issues one
    /// call per remote partition).
    pub fn len(&self) -> HclResult<u64> {
        let map = self.d.owner_map().current();
        let mut total = 0u64;
        for &owner in map.members() {
            total += self.d.sync(&self.core.ops.len, Route::to(owner), 1, (), |o, ()| {
                self.core.part(o).store.len() as u64
            })?;
        }
        Ok(total)
    }

    /// True when no partition holds entries.
    pub fn is_empty(&self) -> HclResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Resize one partition (the paper's `resize(partition_id, new_size)`;
    /// Table I: `F + N(R+W)`). "This operation is localized to the involved
    /// partition." Skiplist partitions grow node by node, so on the ordered
    /// map it is trivially satisfied.
    pub fn resize(&self, partition_id: usize, new_size: usize) -> HclResult<bool> {
        let map = self.d.owner_map().current();
        let owner = *map.members().get(partition_id).ok_or(HclError::BadPartition(partition_id))?;
        self.d.sync(&self.core.ops.resize, Route::to(owner), 1, new_size as u64, |o, _| {
            self.core.part(o).store.resize(new_size);
            true
        })
    }

    /// Clone out every entry of every partition (not atomic, unordered).
    pub(crate) fn snapshot_parts(&self) -> HclResult<Vec<(S::K, S::V)>> {
        let map = self.d.owner_map().current();
        let mut out = Vec::new();
        for &owner in map.members() {
            let part = self.d.sync(&self.core.ops.snapshot, Route::to(owner), 1, (), |o, ()| {
                self.core.part(o).store.snapshot()
            })?;
            out.extend(part);
        }
        Ok(out)
    }

    /// Mark a partition owner as failed: `get`s for its keys are served
    /// from the replica on the next partition (requires `replicas >= 1`),
    /// and every other op targeting it degrades immediately with
    /// [`crate::HclError::OwnerDown`].
    pub fn mark_down(&self, owner_rank: u32) {
        self.d.mark_down(owner_rank);
    }

    /// Clear a failure mark.
    pub fn mark_up(&self, owner_rank: u32) {
        self.d.mark_up(owner_rank);
    }

    /// Wait until every partition's outstanding replication forwards have
    /// been acknowledged.
    pub fn flush_replication(&self) -> HclResult<()> {
        for &owner in &self.core.servers {
            self.d.sync(&self.core.ops.repl_flush, Route::to(owner), 1, (), |o, ()| {
                self.core.part(o).flush_replication();
                true
            })?;
        }
        Ok(())
    }

    /// Flush and compact every *local* partition's op log to a snapshot.
    pub fn compact_local_logs(&self) -> HclResult<()> {
        for &owner in &self.core.servers {
            if self.d.rank().same_node(owner) {
                self.core.part(owner).compact().map_err(|e| HclError::Persist(e.to_string()))?;
            }
        }
        Ok(())
    }

    /// Client-side cost counters (Table I terms observed by this rank).
    pub fn costs(&self) -> CostSnapshot {
        self.d.costs()
    }
}

/// Live-migration adapter for one elastic keyed container: translates the
/// rebalance driver's shard-move callbacks into the container's `MIG_*`
/// control RPCs. All ops address explicit ranks (the map mid-transition is
/// exactly what they operate on), so none are epoch-tagged; the copy itself
/// rides the dispatcher's bulk path.
struct KeyedMigrator<S: LocalStore> {
    core: Arc<KeyedCore<S>>,
}

impl<S: LocalStore> KeyedMigrator<S> {
    fn dispatcher<'r>(&self, rank: &'r Rank) -> Dispatcher<'r> {
        Dispatcher::new(rank, self.core.ops.label, self.core.fn_base, self.core.hybrid)
    }
}

impl<S: LocalStore> ShardMigrator for KeyedMigrator<S> {
    fn name(&self) -> &str {
        self.core.ops.label
    }

    fn begin(&self, rank: &Rank, mv: &ShardMove) -> HclResult<()> {
        let (d, ops, vp) = (self.dispatcher(rank), self.core.ops, mv.vpart as u64);
        // Arm the target first: its window bookkeeping must be clean before
        // the source starts forwarding writes into it.
        d.sync(&ops.mig_arm, Route::to(mv.to), 1, vp, |o, _| {
            self.core.part(o).mig_arm(mv.vpart);
            true
        })?;
        d.sync(&ops.mig_begin, Route::to(mv.from), 1, (vp, mv.to), |o, _| {
            self.core.part(o).mig_begin(mv.vpart, mv.to);
            true
        })?;
        Ok(())
    }

    fn transfer(&self, rank: &Rank, mv: &ShardMove) -> HclResult<(u64, u64)> {
        let (d, ops, vp) = (self.dispatcher(rank), self.core.ops, mv.vpart as u64);
        let entries = d.sync(&ops.mig_extract, Route::to(mv.from), 1, vp, |o, _| {
            self.core.part(o).mig_extract(mv.vpart)
        })?;
        let keys = entries.len() as u64;
        let bytes: u64 = entries.iter().map(|e| e.to_bytes().len() as u64).sum();
        if !entries.is_empty() {
            let to = mv.to;
            let reply = d.bulk(&ops.mig_install, to, entries, |(k, v)| {
                self.core.part(to).mig_install(k, v)
            })?;
            let _: Vec<bool> = reply.wait()?;
        }
        Ok((keys, bytes))
    }

    fn end(&self, rank: &Rank, mv: &ShardMove, committed: bool) -> HclResult<()> {
        let (d, ops, vp) = (self.dispatcher(rank), self.core.ops, mv.vpart as u64);
        // Source first: it stops forwarding, flushes in-flight forwards to
        // the target, then (on commit) purges the moved entries.
        d.sync(&ops.mig_end, Route::to(mv.from), 1, (vp, committed, true), |o, _| {
            self.core.part(o).mig_end(mv.vpart, committed, true);
            true
        })?;
        d.sync(&ops.mig_end, Route::to(mv.to), 1, (vp, committed, false), |o, _| {
            self.core.part(o).mig_end(mv.vpart, committed, false);
            true
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::SyncPolicy;
    use hcl_runtime::{World, WorldConfig};
    use std::time::Duration;

    /// A store whose insert sleeps before it applies: it widens the window
    /// between a writer's log append and its store write, so two writers to
    /// one key interleave there almost every time.
    #[derive(Default)]
    struct SlowStore(Mutex<HashMap<u64, u64>>);

    impl LocalStore for SlowStore {
        type K = u64;
        type V = u64;
        fn get(&self, key: &u64) -> Option<u64> {
            self.0.lock().get(key).copied()
        }
        fn insert(&self, key: u64, value: u64) -> Option<u64> {
            std::thread::sleep(Duration::from_micros(20 + value % 3 * 20));
            self.0.lock().insert(key, value)
        }
        fn remove(&self, key: &u64) -> Option<u64> {
            self.0.lock().remove(key)
        }
        fn snapshot(&self) -> Vec<(u64, u64)> {
            self.0.lock().iter().map(|(k, v)| (*k, *v)).collect()
        }
        fn len(&self) -> usize {
            self.0.lock().len()
        }
    }

    #[test]
    fn concurrent_writers_log_in_apply_order() {
        let dir = std::env::temp_dir().join(format!("hcl-keyed-order-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("part");
        let world = World::shared(WorldConfig::small());
        let log = OpLog::open(&stem, SyncPolicy::Manual, |_: LogRec<u64, u64>| {}).unwrap();
        let part = KeyedPart {
            index: 0,
            home: 0,
            store: SlowStore::default(),
            replica: SlowStore::default(),
            log: Some(log),
            order: Some((0..ORDER_STRIPES).map(|_| Mutex::new(())).collect()),
            local_seq: AtomicU64::new(0),
            repl: ReplForwarder::new(0, &world),
            fn_base: 0,
            servers: vec![0],
            replicas: 0,
            costs: CostCounters::default(),
            version: AtomicU64::new(0),
            membership: None,
            forwarding: RwLock::new(HashMap::new()),
            tombstones: Mutex::new(HashSet::new()),
            installed: Mutex::new(Vec::new()),
        };
        // Two writers meet at every key, each with its own value: the key's
        // final live value is whichever applied last, its replayed value
        // whichever logged last.
        const KEYS: u64 = 64;
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for w in 0..2u64 {
                let (part, gate) = (&part, &gate);
                s.spawn(move || {
                    for k in 0..KEYS {
                        gate.wait();
                        part.put(k, k * 2 + w);
                    }
                });
            }
        });
        part.log.as_ref().unwrap().sync().unwrap();
        let mut live = part.store.snapshot();
        live.sort();
        drop(part);
        let mut replayed = HashMap::new();
        let _ = OpLog::open(&stem, SyncPolicy::Manual, |(_, k, v): LogRec<u64, u64>| {
            replayed.insert(k, v.unwrap());
        })
        .unwrap();
        let mut replayed: Vec<(u64, u64)> = replayed.into_iter().collect();
        replayed.sort();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(live.len() as u64, KEYS);
        assert_eq!(live, replayed, "replay diverged from the live store");
    }
}
