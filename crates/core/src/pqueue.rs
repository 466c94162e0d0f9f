//! `HCL::priority_queue` (paper §III-D3B).
//!
//! Single-partitioned like the FIFO queue, but pops deliver the *minimum*
//! element. The local structure is the lock-free logical-deletion priority
//! queue of [`hcl_containers::SkipListPq`] (DESIGN.md substitution #6):
//! traversals unlink deleted nodes opportunistically, and
//! [`PriorityQueue::purge`] runs a full purge pass on demand. The hosting
//! partition (log, push/pop paths, host-move extract) is the queue's
//! [`crate::queue::SinglePart`].
//!
//! Push cost is `F + L·log(N) + W` (Table I): one invocation, then an
//! ordered O(log n) placement at local-memory speed on the owner — this is
//! exactly what lets the ISx port keep data sorted "for free" while it
//! arrives (§IV-D1).
//!
//! Every operation is one [`crate::dispatch::Dispatcher`] call: the shared
//! single-partition ops through [`crate::queue::SingleQueue`], plus `peek`
//! and `purge` here.

use std::sync::Arc;

use hcl_containers::SkipListPq;
use hcl_databox::DataBox;
use hcl_fabric::EpId;
use hcl_runtime::Rank;

use crate::dispatch::{CostSig, OpClass, OpDescriptor};
use crate::queue::{LocalQueue, QueueConfig, SingleOps, SingleQueue, N_SINGLE};
use crate::HclResult;

// The priority queue's own ops, after the shared single-partition ones.
const FN_PEEK: u32 = N_SINGLE;
const FN_PURGE: u32 = FN_PEEK + 1;
const N_FNS: u32 = FN_PURGE + 1;

/// Table I op descriptors for the priority queue: the shared
/// single-partition table plus `peek` and `purge`.
static OPS: SingleOps = crate::queue::single_ops!("pq");
const PEEK: OpDescriptor = OpDescriptor {
    name: "pq.peek",
    class: OpClass::Read,
    fn_off: FN_PEEK,
    cost: CostSig::lrw(1, 1, 0),
    degradable: true,
};
const PURGE: OpDescriptor = OpDescriptor {
    name: "pq.purge",
    class: OpClass::Admin,
    fn_off: FN_PURGE,
    cost: CostSig::ZERO,
    degradable: true,
};

impl<T: DataBox + Ord + Clone + Send + Sync + 'static> LocalQueue for SkipListPq<T> {
    type T = T;
    fn push(&self, v: T) {
        SkipListPq::push(self, v)
    }
    fn pop(&self) -> Option<T> {
        SkipListPq::pop(self)
    }
    fn push_bulk(&self, vs: Vec<T>) -> usize {
        SkipListPq::push_bulk(self, vs)
    }
    fn pop_bulk(&self, max: usize) -> Vec<T> {
        SkipListPq::pop_bulk(self, max)
    }
    fn len(&self) -> usize {
        SkipListPq::len(self)
    }
    fn snapshot(&self) -> Vec<T> {
        self.iter_snapshot()
    }
    #[cfg(feature = "history")]
    fn hist_push(value: Vec<u8>) -> crate::DsOp {
        crate::DsOp::PqPush { value }
    }
    #[cfg(feature = "history")]
    fn hist_pop() -> crate::DsOp {
        crate::DsOp::PqPop
    }
}

/// A distributed min-priority queue hosted on one rank.
pub type PriorityQueue<'a, T> = SingleQueue<'a, SkipListPq<T>>;

impl<'a, T> SingleQueue<'a, SkipListPq<T>>
where
    T: DataBox + Ord + Clone + Send + Sync + 'static,
{
    /// Collective constructor with defaults (hosted on rank 0).
    pub fn new(rank: &'a Rank, name: &str) -> Self {
        Self::with_config(rank, name, QueueConfig::default())
    }

    /// Collective constructor with configuration.
    pub fn with_config(rank: &'a Rank, name: &str, cfg: QueueConfig) -> Self {
        let pq = SkipListPq::new();
        SingleQueue::build(rank, &OPS, name, cfg, pq, N_FNS, |reg, base, part| {
            let p = Arc::clone(part);
            reg.bind_typed(base + FN_PEEK, move |_: EpId, _, ()| p.q.peek());
            let p = Arc::clone(part);
            reg.bind_typed(base + FN_PURGE, move |_: EpId, _, ()| p.q.purge() as u64);
        })
    }

    /// Clone of the minimum without removing it.
    pub fn peek(&self) -> HclResult<Option<T>> {
        self.d.sync(&PEEK, self.at(), 1, (), |_, ()| self.core.part.q.peek())
    }

    /// Run one physical-unlink pass over logically deleted nodes (the
    /// paper's background purge, run on demand; traversals also unlink
    /// opportunistically).
    pub fn purge(&self) -> HclResult<u64> {
        self.d.sync(&PURGE, self.at(), 1, (), |_, ()| self.core.part.q.purge() as u64)
    }
}
