//! `telemetry` suite — what telemetry costs and what it exports.
//!
//! **Overhead** (full run only): the `rpc` suite's headline workload and
//! its `run_case` (8 ranks over the memory fabric, 8 B values, every op a
//! genuine remote put to rank 0's partition) in four cells, {baseline sync, batched async} × {telemetry
//! on, off}, five runs each with on and off interleaved, so both series
//! sample the same stretch of host noise. Telemetry-on cells also record
//! p50/p99 read from the telemetry histograms themselves
//! (`hcl_core_op_latency_remote_ns` for the sync path,
//! `hcl_rpc_batch_latency_ns` for the coalesced path), merged across ranks.
//! Gate: the batched on/off median ratio stays within [0.95, 1.05] — the
//! point of the counter-only async record path (DESIGN.md §11).
//!
//! **Export surface** (every run): a 4-rank workload touching every
//! instrumented layer runs with `HCL_TELEMETRY_DIR` set; every rank's
//! `telemetry-rank<N>.json` must carry the snapshot schema with `hcl_`
//! metric names, and the Prometheus exposition must render counters,
//! gauges and summary quantiles.

use hcl::{Queue, UnorderedMap};
use hcl_bench::harness::{artifact, cell, figure, gate, obj, Bound, Figures, Gate, Json, Stage};
use hcl_fabric::LatencyModel;
use hcl_runtime::{FabricKind, World, WorldConfig, TELEMETRY_DIR_ENV};

use crate::rpc::{run_case, Op, LATENCY_HIST};

const RANKS: u32 = 8;
const VALUE_BYTES: usize = 8;
const OPS_PER_RANK: u64 = 20_000;
const ITERS: u32 = 5;
const EXPORT_OPS: u64 = 400;

/// The 4-rank export workload; returns every rank's snapshot file body and
/// rank 0's Prometheus exposition.
fn run_export() -> (Vec<String>, String) {
    let dir = std::env::temp_dir().join(format!("hcl-telemetry-export-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var(TELEMETRY_DIR_ENV, &dir);
    let cfg = WorldConfig {
        nodes: 2,
        ranks_per_node: 2,
        fabric: FabricKind::Memory(LatencyModel::NONE),
        ..WorldConfig::small()
    };
    let world_size = cfg.world_size();
    let prometheus: Vec<String> = World::run(cfg, |rank| {
        let map: UnorderedMap<u64, u64> = UnorderedMap::new(rank, "bench.export.map");
        let q: Queue<u64> = Queue::new(rank, "bench.export.q");
        rank.barrier();
        let me = rank.id() as u64;
        // Sync ops: keys spread over both node partitions, so every rank
        // sees both the hybrid local bypass and the remote sync path.
        for i in 0..EXPORT_OPS {
            map.put(me * EXPORT_OPS + i, i).unwrap();
        }
        for i in 0..EXPORT_OPS {
            assert_eq!(map.get(&(me * EXPORT_OPS + i)).unwrap(), Some(i));
        }
        // Async ops: staged on the per-destination coalescer, flushed as
        // FLAG_BATCH messages — feeds the batch-size/latency histograms.
        let futs: Vec<_> =
            (0..EXPORT_OPS).map(|i| map.put_async(me * EXPORT_OPS + i, i + 1).unwrap()).collect();
        for f in futs {
            f.wait().unwrap();
        }
        // Queue ops: a single-partition container for per-op histograms.
        q.push(me).unwrap();
        rank.barrier();
        let _ = q.pop().unwrap();
        rank.barrier();
        rank.telemetry_snapshot().to_prometheus()
    });
    // Later suites' worlds must not export.
    std::env::remove_var(TELEMETRY_DIR_ENV);
    let files = (0..world_size)
        .map(|r| {
            std::fs::read_to_string(dir.join(format!("telemetry-rank{r}.json"))).unwrap_or_default()
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (files, prometheus.into_iter().next().unwrap_or_default())
}

/// Check the export surface: every rank's snapshot file carries the schema
/// and `hcl_`-prefixed metric names; the Prometheus text renders counters,
/// gauges and summary quantiles. Returns one message per failure.
pub fn export_failures(files: &[String], prometheus: &str) -> Vec<String> {
    let mut fails = Vec::new();
    for (r, body) in files.iter().enumerate() {
        let rank_key = format!("\"rank\": {r}");
        for key in [
            rank_key.as_str(),
            "\"counters\"",
            "\"gauges\"",
            "\"histograms\"",
            "\"hcl_core_ops_issued\"",
            "\"hcl_core_ops_local_bypass\"",
            "\"hcl_core_op_latency_remote_ns\"",
            "\"hcl_rpc_batch_size\"",
            "\"hcl_fabric_sends\"",
            "\"count\"",
            "\"sum\"",
            "\"max\"",
            "\"p50\"",
            "\"p90\"",
            "\"p99\"",
        ] {
            if !body.contains(key) {
                fails.push(format!("telemetry-rank{r}.json: missing {key}"));
            }
        }
        // The METRIC lint guards registration sites; this guards the files
        // operators see.
        for line in body
            .lines()
            .map(str::trim_start)
            .filter(|l| l.starts_with("\"hcl") && !l.starts_with("\"hcl_"))
        {
            fails.push(format!("telemetry-rank{r}.json: metric without hcl_ prefix: {line}"));
        }
    }
    for needle in [
        "# TYPE hcl_core_ops_issued counter",
        "# TYPE hcl_fabric_sends gauge",
        "# TYPE hcl_core_op_latency_remote_ns summary",
        "quantile=\"0.99\"",
        "hcl_core_op_latency_remote_ns_count{rank=\"0\"}",
    ] {
        if !prometheus.contains(needle) {
            fails.push(format!("prometheus exposition missing {needle:?}"));
        }
    }
    fails
}

pub fn run(smoke: bool) -> Json {
    let (files, prometheus) = run_export();
    let export = export_failures(&files, &prometheus);
    for f in &export {
        eprintln!("export: {f}");
    }
    let mut summary = vec![("export_failures".to_string(), export.len().into())];
    let mut cells = Vec::new();
    if !smoke {
        for batched in [false, true] {
            let mode = if batched { "batched" } else { "baseline" };
            let (mut on, mut off): (Vec<Figures>, Vec<Figures>) = (Vec::new(), Vec::new());
            for _ in 0..ITERS {
                let put = (Op::Put, batched);
                let (rate, hist) = run_case("memory", RANKS, VALUE_BYTES, put, OPS_PER_RANK, true);
                let (p50, p99) = hist.map_or((0.0, 0.0), |h| (h.p50() as f64, h.p99() as f64));
                on.push(vec![("op/s", rate), ("p50_ns", p50), ("p99_ns", p99)]);
                off.push(vec![(
                    "op/s",
                    run_case("memory", RANKS, VALUE_BYTES, put, OPS_PER_RANK, false).0,
                )]);
            }
            for (telemetry, runs) in [("on", &on), ("off", &off)] {
                let mut params = vec![("mode", mode.into()), ("telemetry", telemetry.into())];
                if telemetry == "on" {
                    params.push(("latency_hist", LATENCY_HIST[batched as usize].into()));
                }
                cells.push(cell(obj(params), "op/s", runs));
            }
            let [c_on, c_off] = [&cells[cells.len() - 2], &cells[cells.len() - 1]];
            for q in ["p50_ns", "p99_ns"] {
                summary.push((format!("{mode}_on_{q}"), figure(c_on, q).into()));
            }
            let ratio = figure(c_on, "median") / figure(c_off, "median");
            summary.push((format!("overhead_ratio_{mode}"), ratio.into()));
        }
    }
    artifact(
        "telemetry",
        "8-rank memory-fabric remote put throughput with telemetry on vs off (interleaved runs), p50/p99 from the telemetry histograms merged across ranks, and the 4-rank export-surface check",
        RANKS,
        None,
        obj(vec![
            ("value_bytes", VALUE_BYTES.into()),
            ("ops_per_rank", OPS_PER_RANK.into()),
            ("runs", ITERS.into()),
        ]),
        cells,
        Json::Obj(summary),
    )
}

pub fn gates(_: &Json, stage: Stage) -> Vec<Gate> {
    let mut g = vec![gate(
        "export_failures",
        Bound::Exactly(0.0),
        "telemetry export surface (snapshot files, hcl_ prefix, Prometheus)",
    )];
    if stage != Stage::Smoke {
        g.push(gate(
            "overhead_ratio_batched",
            Bound::Within(0.95, 1.05),
            "batched telemetry on/off median throughput ratio",
        ));
        for key in
            ["baseline_on_p50_ns", "baseline_on_p99_ns", "batched_on_p50_ns", "batched_on_p99_ns"]
        {
            g.push(gate(key, Bound::Above(0.0), "telemetry-on latency percentile"));
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::export_failures;

    const GOOD: &str = "{\n  \"rank\": 0,\n  \"counters\": {\n    \"hcl_core_ops_issued\": 6,\n    \"hcl_core_ops_local_bypass\": 9,\n    \"hcl_fabric_sends\": 1\n  },\n  \"gauges\": {},\n  \"histograms\": {\n    \"hcl_core_op_latency_remote_ns\": {\"count\": 5, \"sum\": 9, \"max\": 4, \"p50\": 1, \"p90\": 2, \"p99\": 4},\n    \"hcl_rpc_batch_size\": {\"count\": 1, \"sum\": 1, \"max\": 1, \"p50\": 1, \"p90\": 1, \"p99\": 1}\n  }\n}\n";
    const PROM: &str = "# TYPE hcl_core_ops_issued counter\n# TYPE hcl_fabric_sends gauge\n# TYPE hcl_core_op_latency_remote_ns summary\nhcl_core_op_latency_remote_ns{rank=\"0\",quantile=\"0.99\"} 4\nhcl_core_op_latency_remote_ns_count{rank=\"0\"} 5\n";

    #[test]
    fn good_export_passes() {
        assert_eq!(export_failures(&[GOOD.to_string()], PROM), Vec::<String>::new());
    }

    #[test]
    fn missing_key_wrong_rank_unprefixed_metric_and_missing_needle_fail() {
        let no_key = GOOD.replace("\"hcl_rpc_batch_size\"", "\"hcl_rpc_other\"");
        assert!(export_failures(&[no_key], PROM)[0].contains("missing \"hcl_rpc_batch_size\""));
        // The same file claimed as rank 1's lacks `"rank": 1`.
        let fails = export_failures(&[GOOD.to_string(), GOOD.to_string()], PROM);
        assert_eq!(fails, vec!["telemetry-rank1.json: missing \"rank\": 1".to_string()]);
        let unprefixed = GOOD.replace("\"hcl_fabric_sends\"", "\"hclfabric_sends\"");
        assert!(export_failures(&[unprefixed], PROM)
            .iter()
            .any(|f| f.contains("without hcl_ prefix")));
        let prom = PROM.replace("# TYPE hcl_fabric_sends gauge\n", "");
        assert_eq!(export_failures(&[GOOD.to_string()], &prom).len(), 1);
    }
}
