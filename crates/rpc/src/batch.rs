//! Argument arena for explicit request aggregation (paper §III-B).
//!
//! Bulk container operations group calls by destination partition and ship
//! each group as *one* `FLAG_BATCH` message. This builder is the encode path
//! for that: every call's arguments are packed back-to-back into a single
//! arena (no per-call allocation), and [`BatchArena::calls`] yields the
//! `(FnId, &[u8])` borrowed slices that
//! [`RpcClient::invoke_batch_slices`](crate::client::RpcClient::invoke_batch_slices)
//! frames directly into the request buffer.

use hcl_databox::Pack;

use crate::FnId;

/// A reusable arena of same-function batched call arguments.
#[derive(Debug)]
pub struct BatchArena {
    fn_id: FnId,
    arena: Vec<u8>,
    /// Exclusive end offset of each call's argument bytes in `arena`.
    ends: Vec<usize>,
}

impl BatchArena {
    /// An empty arena whose calls all target `fn_id`.
    pub fn new(fn_id: FnId) -> Self {
        BatchArena { fn_id, arena: Vec::new(), ends: Vec::new() }
    }

    /// An empty arena pre-reserved for `calls` calls of ~`bytes_per_call`
    /// encoded bytes each.
    pub fn with_capacity(fn_id: FnId, calls: usize, bytes_per_call: usize) -> Self {
        BatchArena {
            fn_id,
            arena: Vec::with_capacity(calls * bytes_per_call),
            ends: Vec::with_capacity(calls),
        }
    }

    /// Append one call's arguments.
    pub fn push<A: Pack + ?Sized>(&mut self, args: &A) {
        self.arena.reserve(args.pack_hint());
        args.pack_into(&mut self.arena);
        self.ends.push(self.arena.len());
    }

    /// Number of staged calls.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no call has been staged.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total staged argument bytes.
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// The staged calls as borrowed slices, in push order — feed this to
    /// `invoke_batch_slices`.
    pub fn calls(&self) -> impl ExactSizeIterator<Item = (FnId, &[u8])> + Clone {
        let fn_id = self.fn_id;
        (0..self.ends.len()).map(move |i| {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            (fn_id, &self.arena[start..self.ends[i]])
        })
    }

    /// Drop every staged call, keeping the allocations.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.ends.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_databox::DataBox;

    #[test]
    fn slices_roundtrip_in_push_order() {
        let mut b = BatchArena::with_capacity(7, 3, 8);
        assert!(b.is_empty());
        b.push(&1u64);
        b.push(&(2u64, "xy".to_string()));
        b.push(&3u64);
        assert_eq!(b.len(), 3);
        let calls: Vec<(FnId, &[u8])> = b.calls().collect();
        assert_eq!(calls.len(), 3);
        assert!(calls.iter().all(|(id, _)| *id == 7));
        assert_eq!(u64::from_bytes(calls[0].1).unwrap(), 1);
        assert_eq!(
            <(u64, String)>::from_bytes(calls[1].1).unwrap(),
            (2, "xy".to_string())
        );
        assert_eq!(u64::from_bytes(calls[2].1).unwrap(), 3);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.calls().len(), 0);
    }
}
