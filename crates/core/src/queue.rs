//! `HCL::queue` — the distributed MWMR FIFO queue (paper §III-D3A).
//!
//! "HCL queues are implemented as a single-partitioned structure, but are
//! globally visible. The queues are identified by the process ID that hosts
//! the partition." Elements may be of variable length; the queue grows
//! dynamically (our lock-free MS queue is unbounded, so the paper's
//! stall-pushes-during-migration resize protocol is satisfied without
//! stalls).
//!
//! Every operation is one [`Dispatcher`] call against a [`SingleOps`]
//! table: the engine owns locality, issue, degradation and cost accounting.
//! Both single-partition containers — this queue and
//! [`crate::PriorityQueue`] — are a [`SingleQueue`] over their local
//! structure: one hosting partition ([`SinglePart`]: log open and replay,
//! the push/pop paths, host-move extract and compaction), one set of
//! handler bindings and one client handle. Only the local structure differs.

use std::sync::Arc;

use hcl_containers::LockFreeQueue;
use hcl_databox::DataBox;
use hcl_fabric::EpId;
use hcl_rpc::{FnId, RpcRegistry};
use hcl_runtime::Rank;
use parking_lot::{Mutex, MutexGuard};

use crate::cost::CostSnapshot;
use crate::dispatch::{hist_invoke, hist_return, Dispatcher, OpDescriptor, Route};
use crate::persist::{Flusher, PersistConfig, PersistMetrics, SpLog};
use crate::{HclFuture, HclResult};

// Fn-id offsets shared by both single-partition containers ([`SinglePart`]);
// a container's own ops start at `N_SINGLE`.
pub(crate) const FN_PUSH: u32 = 0;
pub(crate) const FN_POP: u32 = 1;
pub(crate) const FN_PUSH_BULK: u32 = 2;
pub(crate) const FN_POP_BULK: u32 = 3;
pub(crate) const FN_LEN: u32 = 4;
pub(crate) const FN_SNAPSHOT: u32 = 5;
// Migration seam (host move): drain every element in one invocation. The
// install half reuses `push_bulk` — a queue shard is just its elements.
pub(crate) const FN_MIG_EXTRACT: u32 = 6;
pub(crate) const N_SINGLE: u32 = 7;

/// Table I op descriptors of the shared single-partition ops, named per
/// container (`queue.push`, `pq.push`, ...).
pub(crate) struct SingleOps {
    pub(crate) label: &'static str,
    pub(crate) push: OpDescriptor,
    pub(crate) pop: OpDescriptor,
    pub(crate) push_bulk: OpDescriptor,
    pub(crate) pop_bulk: OpDescriptor,
    pub(crate) len: OpDescriptor,
    pub(crate) snapshot: OpDescriptor,
    pub(crate) mig_extract: OpDescriptor,
}

/// Build a container's [`SingleOps`] table under `label`. Every op fails
/// fast (`OwnerDown`) once the host is marked down: there is no replica to
/// serve it.
macro_rules! single_ops {
    ($label:literal) => {{
        use $crate::dispatch::{CostSig, OpClass, OpClass::*, OpDescriptor};
        use $crate::queue::*;
        const fn d(name: &'static str, class: OpClass, fn_off: u32, cost: CostSig) -> OpDescriptor {
            OpDescriptor { name, class, fn_off, cost, degradable: true }
        }
        const ZERO: CostSig = CostSig::ZERO;
        // Table I: `F + L + W`, `F + L + R`, and their `E`-element forms.
        const W1: CostSig = CostSig::lrw(1, 0, 1);
        const R1: CostSig = CostSig::lrw(1, 1, 0);
        const WE: CostSig = CostSig::write_scaled(1, 1);
        const RE: CostSig = CostSig::read_scaled(1, 1);
        SingleOps {
            label: $label,
            push: d(concat!($label, ".push"), Write, FN_PUSH, W1),
            pop: d(concat!($label, ".pop"), ReadWrite, FN_POP, R1),
            push_bulk: d(concat!($label, ".push_bulk"), Write, FN_PUSH_BULK, WE),
            pop_bulk: d(concat!($label, ".pop_bulk"), ReadWrite, FN_POP_BULK, RE),
            len: d(concat!($label, ".len"), Admin, FN_LEN, ZERO),
            snapshot: d(concat!($label, ".snapshot"), Admin, FN_SNAPSHOT, ZERO),
            mig_extract: d(concat!($label, ".mig_extract"), ReadWrite, FN_MIG_EXTRACT, ZERO),
        }
    }};
}
pub(crate) use single_ops;

static OPS: SingleOps = single_ops!("queue");

/// Configuration for [`Queue`] (and [`crate::PriorityQueue`]).
#[derive(Debug, Clone)]
pub struct QueueConfig {
    /// The rank hosting the single partition (default: rank 0).
    pub owner: u32,
    /// Hybrid access model toggle.
    pub hybrid: bool,
    /// Durability: when set, the hosting partition appends pushes and pops
    /// to a segmented write-ahead log and replays it on (re)construction —
    /// same subsystem and guarantees as [`crate::UnorderedMap`] (§III-C6,
    /// DESIGN.md §16).
    pub persist: Option<PersistConfig>,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig { owner: 0, hybrid: true, persist: None }
    }
}

/// The local structure of a single-partition container.
pub trait LocalQueue: Send + Sync + 'static {
    /// Element type.
    type T: DataBox + Clone + Send + Sync + 'static;
    /// Insert one element.
    fn push(&self, v: Self::T);
    /// Remove the next element (FIFO head, or the minimum).
    fn pop(&self) -> Option<Self::T>;
    /// Insert many; returns how many.
    fn push_bulk(&self, vs: Vec<Self::T>) -> usize;
    /// Remove up to `max` elements in pop order.
    fn pop_bulk(&self, max: usize) -> Vec<Self::T>;
    /// Elements currently held.
    fn len(&self) -> usize;
    /// Live elements in pop order, without consuming them.
    fn snapshot(&self) -> Vec<Self::T>;
    /// The history op of a push of the encoded `value` (feature `history`).
    #[cfg(feature = "history")]
    fn hist_push(value: Vec<u8>) -> crate::DsOp;
    /// The history op of a pop (feature `history`).
    #[cfg(feature = "history")]
    fn hist_pop() -> crate::DsOp;
}

impl<T: DataBox + Clone + Send + Sync + 'static> LocalQueue for LockFreeQueue<T> {
    type T = T;
    fn push(&self, v: T) {
        LockFreeQueue::push(self, v)
    }
    fn pop(&self) -> Option<T> {
        LockFreeQueue::pop(self)
    }
    fn push_bulk(&self, vs: Vec<T>) -> usize {
        LockFreeQueue::push_bulk(self, vs)
    }
    fn pop_bulk(&self, max: usize) -> Vec<T> {
        LockFreeQueue::pop_bulk(self, max)
    }
    fn len(&self) -> usize {
        LockFreeQueue::len(self)
    }
    fn snapshot(&self) -> Vec<T> {
        self.iter_snapshot()
    }
    #[cfg(feature = "history")]
    fn hist_push(value: Vec<u8>) -> crate::DsOp {
        crate::DsOp::QueuePush { value }
    }
    #[cfg(feature = "history")]
    fn hist_pop() -> crate::DsOp {
        crate::DsOp::QueuePop
    }
}

/// The hosting partition of a single-partition container (queue or
/// priority queue): the local structure, its op log and flusher, and the
/// push/pop paths both the NIC handlers and the hybrid bypass run.
pub(crate) struct SinglePart<Q: LocalQueue> {
    /// Background sync thread bounding the relaxed-policy flush gap.
    /// Declared first so it drops first: its final pass syncs the log
    /// while the log is still alive.
    _flusher: Option<Flusher>,
    pub(crate) q: Q,
    log: Option<SpLog<Q::T>>,
    /// Present iff `log` is: held across record and apply, so the log order
    /// of pushes and pops is the order they took effect and replay rebuilds
    /// the live contents exactly.
    order: Option<Mutex<()>>,
}

impl<Q: LocalQueue> SinglePart<Q> {
    /// Build the partition hosted on `owner`, replaying any existing log of
    /// container `name` into `q`.
    pub(crate) fn open(
        q: Q,
        persist: Option<&PersistConfig>,
        name: &str,
        owner: u32,
        metrics: PersistMetrics,
    ) -> Self {
        let flusher = persist.and_then(|p| p.policy.interval()).map(Flusher::spawn);
        let log = persist.map(|p| {
            let log = SpLog::open(p, name, owner, metrics, |tag, v: Option<Q::T>| match (tag, v) {
                (0, Some(v)) => q.push(v),
                (1, _) => {
                    q.pop();
                }
                _ => {}
            })
            .expect("open single-partition op log");
            if let Some(f) = &flusher {
                f.register(log.wal());
            }
            log
        });
        let order = log.as_ref().map(|_| Mutex::new(()));
        let part = SinglePart { _flusher: flusher, q, log, order };
        // Replay identities restart in every world: compact a replayed log
        // to the live contents before any append (see `KeyedCore::build`).
        if part.log.as_ref().is_some_and(|l| l.replayed() > 0) {
            part.compact().expect("compact replayed single-partition log");
        }
        part
    }

    fn ordered(&self) -> Option<MutexGuard<'_, ()>> {
        self.order.as_ref().map(|m| m.lock())
    }

    pub(crate) fn push(&self, v: Q::T) -> bool {
        let _order = self.ordered();
        if let Some(l) = &self.log {
            l.record(0, Some(&v), FN_PUSH);
        }
        self.q.push(v);
        true
    }

    pub(crate) fn pop(&self) -> Option<Q::T> {
        let _order = self.ordered();
        let v = self.q.pop();
        if let (Some(l), Some(_)) = (&self.log, &v) {
            l.record(1, None, FN_POP);
        }
        v
    }

    pub(crate) fn push_bulk(&self, vs: Vec<Q::T>) -> u64 {
        let _order = self.ordered();
        if let Some(l) = &self.log {
            for v in &vs {
                l.record_local(0, Some(v), FN_PUSH_BULK);
            }
        }
        self.q.push_bulk(vs) as u64
    }

    pub(crate) fn pop_bulk(&self, max: u64) -> Vec<Q::T> {
        let _order = self.ordered();
        let vs = self.q.pop_bulk(max as usize);
        if let Some(l) = &self.log {
            for _ in &vs {
                l.record_local(1, None, FN_POP_BULK);
            }
        }
        vs
    }

    /// Drain every element; the shard moved wholesale, so the log compacts
    /// to the (now empty) contents and a restart never resurrects them.
    pub(crate) fn extract_all(&self) -> Vec<Q::T> {
        let _order = self.ordered();
        let vs = self.q.pop_bulk(usize::MAX);
        if let Some(l) = &self.log {
            let _ = l.compact_to(&[]);
        }
        vs
    }

    /// Compact the log to a push-per-element snapshot of the live contents.
    pub(crate) fn compact(&self) -> HclResult<()> {
        let _order = self.ordered();
        if let Some(l) = &self.log {
            l.compact_to(&self.q.snapshot())
                .map_err(|e| crate::HclError::Persist(e.to_string()))?;
        }
        Ok(())
    }

    /// Bind the shared single-partition handlers at `fn_base`.
    pub(crate) fn bind(self: &Arc<Self>, reg: &RpcRegistry, fn_base: FnId) {
        let p = Arc::clone(self);
        reg.bind_typed(fn_base + FN_PUSH, move |_: EpId, _, v: Q::T| p.push(v));
        let p = Arc::clone(self);
        reg.bind_typed(fn_base + FN_POP, move |_: EpId, _, ()| p.pop());
        let p = Arc::clone(self);
        reg.bind_typed(fn_base + FN_PUSH_BULK, move |_: EpId, _, vs: Vec<Q::T>| p.push_bulk(vs));
        let p = Arc::clone(self);
        reg.bind_typed(fn_base + FN_POP_BULK, move |_: EpId, _, max: u64| p.pop_bulk(max));
        let p = Arc::clone(self);
        reg.bind_typed(fn_base + FN_LEN, move |_: EpId, _, ()| p.q.len() as u64);
        let p = Arc::clone(self);
        reg.bind_typed(fn_base + FN_SNAPSHOT, move |_: EpId, _, ()| p.q.snapshot());
        let p = Arc::clone(self);
        reg.bind_typed(fn_base + FN_MIG_EXTRACT, move |_: EpId, _, ()| p.extract_all());
    }
}

/// World-shared core of one single-partition container.
pub(crate) struct SingleCore<Q: LocalQueue> {
    pub(crate) fn_base: FnId,
    pub(crate) part: Arc<SinglePart<Q>>,
    pub(crate) cfg: QueueConfig,
}

/// A single-partition container handle: the client side of [`Queue`] and
/// [`crate::PriorityQueue`], hosted on one rank and pushed/popped by all.
pub struct SingleQueue<'a, Q: LocalQueue> {
    pub(crate) core: Arc<SingleCore<Q>>,
    pub(crate) d: Dispatcher<'a>,
    ops: &'static SingleOps,
}

/// A distributed FIFO queue hosted on one rank, pushed/popped by all.
pub type Queue<'a, T> = SingleQueue<'a, LockFreeQueue<T>>;

impl<'a, T> SingleQueue<'a, LockFreeQueue<T>>
where
    T: DataBox + Clone + Send + Sync + 'static,
{
    /// Collective constructor with defaults (hosted on rank 0).
    pub fn new(rank: &'a Rank, name: &str) -> Self {
        Self::with_config(rank, name, QueueConfig::default())
    }

    /// Collective constructor with configuration.
    pub fn with_config(rank: &'a Rank, name: &str, cfg: QueueConfig) -> Self {
        SingleQueue::build(rank, &OPS, name, cfg, LockFreeQueue::new(), N_SINGLE, |_, _, _| {})
    }
}

impl<'a, Q: LocalQueue> SingleQueue<'a, Q> {
    /// Collective constructor shared by both queues: build (or attach to)
    /// the world-shared container `hcl.<label>.<name>` hosting `q`, with
    /// `n_fns` fn ids (shared ones first); `bind_extra` binds the
    /// container's own handlers once.
    pub(crate) fn build(
        rank: &'a Rank,
        ops: &'static SingleOps,
        name: &str,
        cfg: QueueConfig,
        q: Q,
        n_fns: u32,
        bind_extra: impl FnOnce(&RpcRegistry, FnId, &Arc<SinglePart<Q>>),
    ) -> Self {
        let metrics = if rank.telemetry().enabled() {
            PersistMetrics::from_registry(rank.telemetry().registry())
        } else {
            PersistMetrics::detached()
        };
        let core = rank.get_or_create_shared(&format!("hcl.{}.{name}", ops.label), || {
            let world = rank.world();
            let fn_base = world.alloc_fn_ids(n_fns);
            let part =
                Arc::new(SinglePart::open(q, cfg.persist.as_ref(), name, cfg.owner, metrics));
            part.bind(world.registry(), fn_base);
            bind_extra(world.registry(), fn_base, &part);
            SingleCore { fn_base, part, cfg }
        });
        let d = Dispatcher::new(rank, ops.label, core.fn_base, core.cfg.hybrid);
        SingleQueue { core, d, ops }
    }

    /// Attach a shared history recorder: synchronous `push`/`pop` through
    /// this handle are logged as invoke/return pairs for offline
    /// linearizability checking ([`crate::check`]). Asynchronous and bulk
    /// variants are not recorded. The sequential priority-queue spec orders
    /// elements by their encoded bytes, so recorded priority-queue workloads
    /// should use element types whose `DataBox` encoding is order-preserving
    /// (e.g. fixed-width strings).
    #[cfg(feature = "history")]
    pub fn set_recorder(&mut self, rec: crate::HistoryRecorder) {
        self.d.set_recorder(rec);
    }

    /// The hosting rank.
    pub fn owner(&self) -> u32 {
        self.core.cfg.owner
    }

    /// The route of every op: the hosting rank.
    pub(crate) fn at(&self) -> Route {
        Route::to(self.core.cfg.owner)
    }

    /// Mark the hosting rank failed: subsequent ops through this handle
    /// degrade immediately with [`crate::HclError::OwnerDown`] instead of
    /// issuing RPCs that cannot be served.
    pub fn mark_down(&self, owner_rank: u32) {
        self.d.mark_down(owner_rank);
    }

    /// Clear a failure mark set by [`SingleQueue::mark_down`].
    pub fn mark_up(&self, owner_rank: u32) {
        self.d.mark_up(owner_rank);
    }

    /// Push one element (Table I: `F + L + W`; `F + L·log(N) + W` on the
    /// priority queue, whose placement is an ordered descent).
    pub fn push(&self, value: Q::T) -> HclResult<bool> {
        let tok = hist_invoke!(self.d, Q::hist_push(crate::history_enc(&value)));
        let result = self.d.sync(&self.ops.push, self.at(), 1, value, |_, v| {
            self.core.part.push(v)
        });
        hist_return!(self.d, tok, &result, |acked| crate::DsRet::Pushed(*acked));
        result
    }

    /// Asynchronous push. Remote pushes stage on the rank's op coalescer
    /// and may ride a batched message with neighbouring async ops.
    pub fn push_async(&self, value: Q::T) -> HclResult<HclFuture<bool>> {
        self.d.dispatch_async(&self.ops.push, self.owner(), value, |v| self.core.part.push(v))
    }

    /// Pop the next element — the FIFO head, or the priority queue's
    /// minimum (Table I: `F + L + R`).
    pub fn pop(&self) -> HclResult<Option<Q::T>> {
        let tok = hist_invoke!(self.d, Q::hist_pop());
        let result = self.d.sync(&self.ops.pop, self.at(), 1, (), |_, ()| self.core.part.pop());
        hist_return!(self.d, tok, &result, |v| crate::DsRet::Popped(
            v.as_ref().map(crate::history_enc)
        ));
        result
    }

    /// Bulk push (Table I: `F + L + E·W`): one invocation carries `E`
    /// elements.
    pub fn push_bulk(&self, values: Vec<Q::T>) -> HclResult<u64> {
        let n = values.len() as u64;
        self.d.sync(&self.ops.push_bulk, self.at(), n, values, |_, vs| self.core.part.push_bulk(vs))
    }

    /// Bulk pop of up to `max` elements, in pop order (Table I:
    /// `F + L + E·R`).
    pub fn pop_bulk(&self, max: u64) -> HclResult<Vec<Q::T>> {
        self.d.sync(&self.ops.pop_bulk, self.at(), max, max, |_, m| self.core.part.pop_bulk(m))
    }

    /// Elements currently queued (approximate under concurrency).
    pub fn len(&self) -> HclResult<u64> {
        self.d.sync(&self.ops.len, self.at(), 1, (), |_, ()| self.core.part.q.len() as u64)
    }

    /// True when the queue appears empty.
    pub fn is_empty(&self) -> HclResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Clone out the queued elements in pop order without consuming them.
    pub fn snapshot(&self) -> HclResult<Vec<Q::T>> {
        self.d.sync(&self.ops.snapshot, self.at(), 1, (), |_, ()| self.core.part.q.snapshot())
    }

    /// Migration seam, extract half: drain *every* queued element from the
    /// hosting partition in one invocation, in pop order. Pair with
    /// [`SingleQueue::install_bulk`] against a twin hosted elsewhere to move
    /// the shard (the single-partition analogue of the maps' live-migration
    /// extract/install; see [`crate::rebalance`]).
    pub fn extract_all(&self) -> HclResult<Vec<Q::T>> {
        self.d.sync(&self.ops.mig_extract, self.at(), 1, (), |_, ()| self.core.part.extract_all())
    }

    /// Compact the op log down to a push-per-element snapshot of the live
    /// contents (no-op when persistence is off). Call from the owner rank.
    pub fn compact_log(&self) -> HclResult<()> {
        self.core.part.compact()
    }

    /// Migration seam, install half: append extracted elements in order
    /// (the priority queue recovers its order itself).
    pub fn install_bulk(&self, values: Vec<Q::T>) -> HclResult<u64> {
        self.push_bulk(values)
    }

    /// Persist the current contents to `path` as a DataBox-encoded snapshot
    /// (§III-C6 durability for single-partition structures).
    pub fn persist_snapshot(&self, path: impl AsRef<std::path::Path>) -> HclResult<()> {
        let snap = self.snapshot()?;
        std::fs::write(path, &snap.to_bytes()).map_err(|e| crate::HclError::Persist(e.to_string()))
    }

    /// Reload a snapshot written by [`SingleQueue::persist_snapshot`],
    /// appending its elements (call on an empty queue for exact recovery).
    /// Returns the number of restored elements.
    pub fn restore_snapshot(&self, path: impl AsRef<std::path::Path>) -> HclResult<u64> {
        let bytes = std::fs::read(path).map_err(|e| crate::HclError::Persist(e.to_string()))?;
        let snap: Vec<Q::T> = hcl_databox::DataBox::from_bytes(&bytes)
            .map_err(|e| crate::HclError::Persist(e.to_string()))?;
        self.push_bulk(snap)
    }

    /// Client-side cost counters.
    pub fn costs(&self) -> CostSnapshot {
        self.d.costs()
    }
}
