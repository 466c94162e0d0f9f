//! The dispatcher's keyed route against an owner whose epoch gate never
//! agrees: the op re-resolves a bounded number of times and then fails
//! typed, and pinned placements never carry an epoch tag at all.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hcl::dispatch::{
    CostSig, Dispatcher, IssueMode, Locality, OpClass, OpDescriptor, OpEvent, OpObserver,
    OwnerMap, Route, EPOCH_RETRY_MAX,
};
use hcl::{HclError, UnorderedMap, UnorderedMapConfig};
use hcl_runtime::{PartitionMap, Rank, World, WorldConfig};

fn two_node_world() -> WorldConfig {
    WorldConfig { nodes: 2, ranks_per_node: 1, ..WorldConfig::small() }
}

/// An epoch no membership ever reaches: a gate returning it rejects every
/// tagged request.
const NEVER: u64 = u64::MAX;

static ECHO: OpDescriptor = OpDescriptor {
    name: "probe.echo",
    class: OpClass::Read,
    fn_off: 0,
    cost: CostSig::ZERO,
    degradable: true,
};

/// Counts remote attempts and failed completions.
#[derive(Default)]
struct Attempts {
    issued: AtomicU64,
    failed: AtomicU64,
}

impl OpObserver for Attempts {
    fn on_issue(&self, _ev: &OpEvent<'_>, _mode: IssueMode) {
        self.issued.fetch_add(1, Ordering::Relaxed);
    }

    fn on_complete(&self, _ev: &OpEvent<'_>, _at: Locality, _dt: Duration, ok: bool) {
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One echo handler (`x -> x + 1`) per world behind a gate that always
/// disagrees; returns its fn id.
fn gated_echo(rank: &Rank) -> u32 {
    *rank.get_or_create_shared("probe.echo", || {
        let world = rank.world();
        let fn_id = world.alloc_fn_ids(1);
        world.registry().bind_typed(fn_id, |_, _, x: u64| x + 1);
        world.registry().set_epoch_gate(fn_id, 1, || NEVER);
        fn_id
    })
}

#[test]
fn keyed_route_gives_up_after_bounded_reresolves() {
    World::run(two_node_world(), |rank| {
        let fn_id = gated_echo(rank);
        rank.barrier();
        if rank.id() == 0 {
            // No hybrid bypass: every attempt is a remote, epoch-tagged RPC.
            let mut d = Dispatcher::new(rank, "probe", fn_id, false);
            let attempts = Arc::new(Attempts::default());
            d.add_observer(Arc::clone(&attempts) as Arc<dyn OpObserver>);
            let membership = rank.world().membership();
            let before = membership.snapshot().wrong_epoch_rejects;
            let res: Result<u64, _> =
                d.sync(&ECHO, Route::Key(0x5eed), 1, 7u64, |_, _| unreachable!("no bypass"));
            let want = u64::from(EPOCH_RETRY_MAX) + 1;
            match res {
                Err(HclError::WrongEpoch { current, .. }) => assert_eq!(current, NEVER),
                other => panic!("expected a typed WrongEpoch, got {other:?}"),
            }
            assert_eq!(attempts.issued.load(Ordering::Relaxed), want);
            assert_eq!(attempts.failed.load(Ordering::Relaxed), want);
            assert_eq!(membership.snapshot().wrong_epoch_rejects - before, want);

            // The same op under a pinned placement travels untagged, so the
            // gate never sees it: one attempt, served.
            let pinned = Arc::new(PartitionMap::round_robin(&[0, 1], 1));
            d.set_owner_map(OwnerMap::Pinned(pinned));
            let got: u64 = d.sync(&ECHO, Route::Key(0x5eed), 1, 7u64, |_, _| 0).unwrap();
            assert_eq!(got, 8);
            assert_eq!(attempts.issued.load(Ordering::Relaxed), want + 1);
            assert_eq!(membership.snapshot().wrong_epoch_rejects - before, want);
        }
        rank.barrier();
    });
}

#[test]
fn pinned_container_sends_untagged() {
    World::run(two_node_world(), |rank| {
        // Explicit `servers` pin the placement.
        let map: UnorderedMap<u64, u64> = UnorderedMap::with_config(
            rank,
            "probe.pinned",
            UnorderedMapConfig { servers: Some(vec![0, 1]), ..Default::default() },
        );
        rank.barrier();
        if rank.id() == 0 {
            // A gate over every fn id rejects any tagged request this world
            // sends from here on.
            rank.world().registry().set_epoch_gate(0, u32::MAX, || NEVER);
        }
        rank.barrier();
        if rank.id() == 0 {
            let remote = (0..).find(|k| map.server_of(map.partition_of(k)) == 1).unwrap();
            let rejected = rank.world().server_stats().wrong_epoch;
            assert!(map.put(remote, 1).unwrap());
            assert_eq!(map.get(&remote).unwrap(), Some(1));
            assert_eq!(map.erase(&remote).unwrap(), Some(1));
            assert_eq!(rank.world().server_stats().wrong_epoch, rejected);
        }
        rank.barrier();
    });
}
