//! End-to-end RoR tests over both fabric providers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hcl_fabric::memory::MemoryFabric;
use hcl_fabric::tcp::TcpFabric;
use hcl_fabric::{EpId, Fabric};
use hcl_rpc::client::RpcClient;
use hcl_rpc::server::{RpcServer, ServerConfig};
use hcl_rpc::{RpcRegistry, DEFAULT_SLOT_CAP};

const FN_ADD: u32 = 1;
const FN_ECHO: u32 = 2;
const FN_DOUBLE: u32 = 3;
const FN_SUM_VEC: u32 = 4;
const FN_COUNT: u32 = 5;

fn registry(counter: Arc<AtomicU64>) -> Arc<RpcRegistry> {
    let reg = Arc::new(RpcRegistry::new());
    reg.bind_typed(FN_ADD, |_, _, (a, b): (u64, u64)| a + b);
    reg.bind_typed(FN_ECHO, |_, _, s: String| s);
    reg.bind_typed(FN_DOUBLE, |_, _, v: u64| v * 2);
    reg.bind_typed(FN_SUM_VEC, |_, _, v: Vec<u64>| v.iter().sum::<u64>());
    reg.bind_typed(FN_COUNT, move |_, _, ()| counter.fetch_add(1, Ordering::Relaxed));
    reg
}

fn run_suite(fabric: Arc<dyn Fabric>) {
    let server_ep = EpId::new(0, 0);
    let counter = Arc::new(AtomicU64::new(0));
    let server = RpcServer::start(
        server_ep,
        Arc::clone(&fabric),
        registry(Arc::clone(&counter)),
        ServerConfig { max_clients: 8, slot_cap: 1024, nic_cores: 2, ..ServerConfig::default() },
    );

    let client = RpcClient::new(EpId::new(1, 1), Arc::clone(&fabric), 1024);

    // Synchronous invocation.
    let sum: u64 = client.invoke(server_ep, FN_ADD, &(40u64, 2u64)).unwrap();
    assert_eq!(sum, 42);

    // String payloads.
    let echoed: String = client.invoke(server_ep, FN_ECHO, &"κλειδί".to_string()).unwrap();
    assert_eq!(echoed, "κλειδί");

    // Asynchronous invocations: several in flight.
    let futs: Vec<_> = (0..10u64)
        .map(|i| client.invoke_async::<u64, u64>(server_ep, FN_DOUBLE, &i).unwrap())
        .collect();
    for (i, f) in futs.iter().enumerate() {
        assert_eq!(f.wait().unwrap(), 2 * i as u64);
    }

    // Callback chain: double twice = ×4.
    let f = client
        .invoke_chain::<u64, u64>(server_ep, vec![FN_DOUBLE, FN_DOUBLE], &5u64)
        .unwrap();
    assert_eq!(f.wait().unwrap(), 20);

    // Batch aggregation.
    use hcl_databox::DataBox;
    let calls: Vec<(u32, Vec<u8>)> = (0..5u64)
        .map(|i| (FN_DOUBLE, i.to_bytes().to_vec()))
        .collect();
    let batch = client.invoke_batch(server_ep, &calls).unwrap();
    let results: Vec<u64> = batch.wait_typed().unwrap();
    assert_eq!(results, vec![0, 2, 4, 6, 8]);

    // Oversize response (overflow path): response > slot_cap of 1024.
    let big: Vec<u64> = (0..1000).collect();
    let reg_sum: u64 = client.invoke(server_ep, FN_SUM_VEC, &big).unwrap();
    assert_eq!(reg_sum, 999 * 1000 / 2);

    // Each invocation executed exactly once server-side.
    let before = counter.load(Ordering::Relaxed);
    let _: u64 = client.invoke(server_ep, FN_COUNT, &()).unwrap();
    let _: u64 = client.invoke(server_ep, FN_COUNT, &()).unwrap();
    assert_eq!(counter.load(Ordering::Relaxed), before + 2);

    let stats = server.stats();
    assert!(stats.requests >= 20);
    server.shutdown();
}

#[test]
fn ror_over_memory_fabric() {
    run_suite(Arc::new(MemoryFabric::new()));
}

#[test]
fn ror_over_tcp_fabric() {
    run_suite(Arc::new(TcpFabric::new()));
}

#[test]
fn many_clients_concurrent() {
    let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
    let server_ep = EpId::new(0, 0);
    let counter = Arc::new(AtomicU64::new(0));
    let _server = RpcServer::start(
        server_ep,
        Arc::clone(&fabric),
        registry(Arc::clone(&counter)),
        ServerConfig { max_clients: 32, slot_cap: 512, nic_cores: 4, ..ServerConfig::default() },
    );
    std::thread::scope(|s| {
        for r in 1..17u32 {
            let fabric = Arc::clone(&fabric);
            s.spawn(move || {
                let client = RpcClient::new(EpId::new(1 + r % 4, r), fabric, 512);
                for i in 0..200u64 {
                    let got: u64 = client.invoke(server_ep, FN_ADD, &(i, r as u64)).unwrap();
                    assert_eq!(got, i + r as u64);
                }
            });
        }
    });
}

#[test]
fn threads_sharing_one_client_never_lose_a_response() {
    // Request ids must claim their slot in id order: the server skips
    // publishing a response whose slot already holds a larger id, so a
    // thread that claimed a slot after a later id would wait forever.
    let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
    let server_ep = EpId::new(0, 0);
    let counter = Arc::new(AtomicU64::new(0));
    let _server = RpcServer::start(
        server_ep,
        Arc::clone(&fabric),
        registry(counter),
        ServerConfig { max_clients: 8, slot_cap: 256, nic_cores: 1, ..ServerConfig::default() },
    );
    let mut client = RpcClient::new(EpId::new(1, 1), Arc::clone(&fabric), 256);
    client.set_timeout(Duration::from_secs(5));
    let client = &client;
    std::thread::scope(|s| {
        for t in 0..4u64 {
            s.spawn(move || {
                for i in 0..2_000u64 {
                    let got: u64 = client.invoke(server_ep, FN_ADD, &(i, t)).unwrap();
                    assert_eq!(got, i + t);
                }
            });
        }
    });
}

#[test]
fn slot_reuse_discipline_allows_unbounded_async_stream() {
    // Issue far more async invocations than there are slots without waiting;
    // the client must transparently drain previous slot occupants.
    let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
    let server_ep = EpId::new(0, 0);
    let counter = Arc::new(AtomicU64::new(0));
    let _server = RpcServer::start(
        server_ep,
        Arc::clone(&fabric),
        registry(counter),
        ServerConfig { max_clients: 8, slot_cap: 256, nic_cores: 1, ..ServerConfig::default() },
    );
    let client = RpcClient::new(EpId::new(1, 1), Arc::clone(&fabric), 256);
    let futs: Vec<_> = (0..100u64)
        .map(|i| client.invoke_async::<u64, u64>(server_ep, FN_DOUBLE, &i).unwrap())
        .collect();
    for (i, f) in futs.iter().enumerate() {
        assert_eq!(f.wait().unwrap(), 2 * i as u64);
    }
}

#[test]
fn unknown_function_yields_empty_response_not_hang() {
    let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
    let server_ep = EpId::new(0, 0);
    let _server = RpcServer::start(
        server_ep,
        Arc::clone(&fabric),
        Arc::new(RpcRegistry::new()),
        ServerConfig::default(),
    );
    let mut client = RpcClient::new(EpId::new(1, 1), Arc::clone(&fabric), DEFAULT_SLOT_CAP);
    client.set_timeout(Duration::from_secs(5));
    // An unknown fn produces an empty response, which fails to decode as u64.
    let got: Result<u64, _> = client.invoke(server_ep, 999, &1u64);
    assert!(got.is_err());
}

#[test]
fn try_get_transitions_to_ready() {
    let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
    let server_ep = EpId::new(0, 0);
    let reg = Arc::new(RpcRegistry::new());
    reg.bind_typed(1, |_, _, v: u64| {
        std::thread::sleep(Duration::from_millis(30));
        v + 1
    });
    let _server = RpcServer::start(server_ep, Arc::clone(&fabric), reg, ServerConfig::default());
    let client = RpcClient::new(EpId::new(1, 1), Arc::clone(&fabric), DEFAULT_SLOT_CAP);
    let f = client.invoke_async::<u64, u64>(server_ep, 1, &7).unwrap();
    // Immediately after issue it is almost certainly pending.
    let mut polls = 0;
    while !f.is_ready() {
        polls += 1;
        std::thread::sleep(Duration::from_millis(1));
        assert!(polls < 5_000, "future never became ready");
    }
    assert_eq!(f.wait().unwrap(), 8);
}

#[test]
fn repeated_oversize_responses_reuse_overflow_space() {
    // Each response exceeds the slot capacity; the server must free the
    // previous overflow block when a slot is reused, so the response buffer
    // stays bounded instead of growing per call.
    let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
    let server_ep = EpId::new(0, 0);
    let reg = Arc::new(RpcRegistry::new());
    reg.bind_typed(1, |_, _, n: u64| vec![7u8; n as usize]);
    let server = RpcServer::start(
        server_ep,
        Arc::clone(&fabric),
        reg,
        ServerConfig { max_clients: 4, slot_cap: 512, nic_cores: 1, ..ServerConfig::default() },
    );
    let client = RpcClient::new(EpId::new(1, 1), Arc::clone(&fabric), 512);
    // Warm up one oversize call, record the buffer size.
    let first: Vec<u8> = client.invoke(server_ep, 1, &8_000u64).unwrap();
    assert_eq!(first.len(), 8_000);
    let after_first = server.response_buffer_bytes();
    for _ in 0..100 {
        let got: Vec<u8> = client.invoke(server_ep, 1, &8_000u64).unwrap();
        assert_eq!(got.len(), 8_000);
    }
    let after_many = server.response_buffer_bytes();
    assert!(
        after_many <= after_first * 4,
        "overflow space leaked: {after_first} -> {after_many} bytes"
    );
    assert!(server.stats().overflow_responses >= 101);
}

#[test]
fn batch_aggregate_response_spills_past_slot_cap() {
    // A FLAG_BATCH request whose *aggregate* response exceeds the slot
    // capacity must travel through the overflow (spill) path and still
    // decode per-call.
    use hcl_databox::DataBox;
    let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
    let server_ep = EpId::new(0, 0);
    let reg = Arc::new(RpcRegistry::new());
    // Each call echoes a payload of `n` bytes, values distinct per call.
    reg.bind_typed(1, |_, _, (seed, n): (u64, u64)| vec![seed as u8; n as usize]);
    let server = RpcServer::start(
        server_ep,
        Arc::clone(&fabric),
        reg,
        ServerConfig { max_clients: 4, slot_cap: 1024, nic_cores: 1, ..ServerConfig::default() },
    );
    let client = RpcClient::new(EpId::new(1, 1), Arc::clone(&fabric), 1024);
    // 8 calls x 400-byte responses = ~3.2 KB aggregate against a 1 KB slot.
    let calls: Vec<(u32, Vec<u8>)> =
        (0..8u64).map(|i| (1, (i, 400u64).to_bytes().to_vec())).collect();
    let batch = client.invoke_batch(server_ep, &calls).unwrap();
    let results: Vec<Vec<u8>> = batch.wait_typed().unwrap();
    assert_eq!(results.len(), 8);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.len(), 400);
        assert!(r.iter().all(|&b| b == i as u8));
    }
    assert!(
        server.stats().overflow_responses >= 1,
        "aggregate batch response should have spilled"
    );
    server.shutdown();
}

#[test]
fn single_rank_world_degenerate_but_functional() {
    // nodes=1, ranks=1: everything is local, RPC still works when forced.
    let fabric: Arc<dyn Fabric> = Arc::new(MemoryFabric::new());
    let server_ep = EpId::new(0, 0);
    let reg = Arc::new(RpcRegistry::new());
    reg.bind_typed(1, |_, _, v: u64| v * v);
    let _server = RpcServer::start(
        server_ep,
        Arc::clone(&fabric),
        reg,
        ServerConfig { max_clients: 2, slot_cap: 256, nic_cores: 1, ..ServerConfig::default() },
    );
    // Self-invocation: the client endpoint IS the server endpoint.
    let client = RpcClient::new(server_ep, Arc::clone(&fabric), 256);
    let got: u64 = client.invoke(server_ep, 1, &9u64).unwrap();
    assert_eq!(got, 81);
}
