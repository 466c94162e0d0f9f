//! `hcl-bench`: the bench-gate runner. Five named suites share one
//! artifact schema and one gate check (`hcl_bench::harness`): `rpc`
//! (request aggregation), `telemetry` (overhead and export surface),
//! `cache` (lease-cached reads), `rebalance` (live shard migration) and
//! `persist` (WAL sync epochs). Each suite's module states its workload and
//! gates. Every gate reads medians, and every cell's rate must be > 0.
//!
//! ```text
//! hcl-bench <suite>... | all               full run: write BENCH_<suite>.json, gate it
//! hcl-bench <suite>... | all --smoke       reduced fresh run gated, then the committed file
//! hcl-bench <suite>... | all --validate    gate the committed files only
//! ```

use std::process::ExitCode;

use hcl_bench::harness::{check, Gate, Json, Stage};

mod cache;
mod persist;
mod rebalance;
mod rpc;
mod telemetry;

struct Suite {
    name: &'static str,
    /// One fresh run of the suite; `true` selects the reduced smoke subset.
    run: fn(bool) -> Json,
    /// The gates an artifact must pass at a stage.
    gates: fn(&Json, Stage) -> Vec<Gate>,
}

const SUITES: [Suite; 5] = [
    Suite { name: "rpc", run: rpc::run, gates: rpc::gates },
    Suite { name: "telemetry", run: telemetry::run, gates: telemetry::gates },
    Suite { name: "cache", run: cache::run, gates: cache::gates },
    Suite { name: "rebalance", run: rebalance::run, gates: rebalance::gates },
    Suite { name: "persist", run: persist::run, gates: persist::gates },
];

/// Gate one suite; returns its failure messages.
fn run_suite(suite: &Suite, stage: Stage) -> Vec<String> {
    let path = format!("BENCH_{}.json", suite.name);
    let mut fails = Vec::new();
    if stage != Stage::Committed {
        let fresh = (suite.run)(stage == Stage::Smoke);
        println!("summary {}", fresh.get("summary").unwrap_or(&Json::Null));
        fails.extend(
            check(&fresh, &(suite.gates)(&fresh, stage)).into_iter().map(|f| format!("fresh {f}")),
        );
        if stage == Stage::Full {
            match std::fs::write(&path, format!("{fresh}\n")) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => fails.push(format!("cannot write {path}: {e}")),
            }
        }
    }
    let committed = std::fs::read_to_string(&path)
        .map_err(|e| {
            format!("cannot read {path}: {e} (regenerate with `hcl-bench {}`)", suite.name)
        })
        .and_then(|body| Json::parse(&body).map_err(|e| format!("{path}: {e}")));
    match committed {
        Ok(a) => fails.extend(
            check(&a, &(suite.gates)(&a, Stage::Committed))
                .into_iter()
                .map(|f| format!("{path}: {f}")),
        ),
        Err(e) => fails.push(e),
    }
    fails
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |f: &str| args.iter().any(|a| a == f);
    let stage = match (flag("--smoke"), flag("--validate")) {
        (false, false) => Stage::Full,
        (true, false) => Stage::Smoke,
        (false, true) => Stage::Committed,
        (true, true) => return usage("--smoke and --validate are exclusive"),
    };
    let mut selected: Vec<&Suite> = Vec::new();
    for name in args.iter().filter(|a| !a.starts_with("--")) {
        match SUITES.iter().find(|s| s.name == name) {
            Some(s) => selected.push(s),
            None if name == "all" => selected.extend(&SUITES),
            None => return usage(&format!("unknown suite `{name}`")),
        }
    }
    if selected.is_empty() {
        return usage("no suite named");
    }

    let mut failed = 0;
    for suite in selected {
        println!("=== {} ({stage:?}) ===", suite.name);
        let fails = run_suite(suite, stage);
        for f in &fails {
            eprintln!("GATE FAIL {}: {f}", suite.name);
        }
        println!(
            "{}: {}",
            suite.name,
            if fails.is_empty() { "all gates pass" } else { "GATES FAILED" }
        );
        failed += !fails.is_empty() as usize;
    }
    if failed > 0 {
        eprintln!("{failed} suite(s) failed their gates");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}\nusage: hcl-bench <rpc|telemetry|cache|rebalance|persist|all>... [--smoke | --validate]");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcl_bench::harness::{artifact, cell, obj};
    use Stage::*;

    const ALL: &[Stage] = &[Smoke, Full, Committed];
    const FULL: &[Stage] = &[Full, Committed];
    const FRESH: &[Stage] = &[Smoke, Full];

    /// Summary figures some gates read their bar from.
    const INPUTS: &[(&str, f64)] = &[
        ("p99_uncached_ns", 1e6),
        ("cycles", 8.0),
        ("strict_puts", 160.0),
        ("relaxed_puts", 160.0),
    ];

    /// Every carried-over gate, pinned by value: (suite, stages, summary key,
    /// a value at the threshold, which passes, and one a step past it, which
    /// fails).
    const GATES: &[(&str, &[Stage], &str, f64, f64)] = &[
        ("rpc", ALL, "speedup_put_memory_8r_8b", 2.0, 1.99),
        ("telemetry", ALL, "export_failures", 0.0, 1.0),
        ("telemetry", FULL, "overhead_ratio_batched", 0.95, 0.9499),
        ("telemetry", FULL, "overhead_ratio_batched", 1.05, 1.0501),
        ("telemetry", FULL, "baseline_on_p50_ns", 1.0, 0.0),
        ("telemetry", FULL, "baseline_on_p99_ns", 1.0, 0.0),
        ("telemetry", FULL, "batched_on_p50_ns", 1.0, 0.0),
        ("telemetry", FULL, "batched_on_p99_ns", 1.0, 0.0),
        ("cache", &[Committed], "speedup_cached_vs_uncached", 2.0, 1.99),
        ("cache", FRESH, "speedup_cached_vs_uncached", 1.5, 1.49),
        ("cache", &[Committed], "p99_cached_ns", 999_999.0, 1e6),
        ("cache", ALL, "cache_hits", 1.0, 0.0),
        ("cache", ALL, "steered_reads", 1.0, 0.0),
        ("rebalance", ALL, "migrated_keys", 1.0, 0.0),
        ("rebalance", ALL, "lost_keys", 0.0, 1.0),
        ("rebalance", ALL, "non_typed_errors", 0.0, 1.0),
        ("rebalance", ALL, "throughput_ratio_rebalance_vs_steady", 0.1, 0.0999),
        ("rebalance", &[Committed], "commits", 2.0, 1.99),
        ("rebalance", FRESH, "commits", 16.0, 15.99),
        ("persist", ALL, "none_appended", 0.0, 1.0),
        ("persist", ALL, "strict_appended", 160.0, 159.0),
        ("persist", ALL, "relaxed_appended", 160.0, 161.0),
        ("persist", ALL, "strict_fsyncs", 160.0, 159.0),
        ("persist", ALL, "flush_gap_strict_over_relaxed", 10.0, 9.99),
        ("persist", ALL, "throughput_ratio_relaxed_vs_strict", 0.5, 0.4999),
    ];

    /// An artifact whose summary holds `key` at `v`, then every gated figure
    /// of `suite` at `stage` at its threshold (lookups take the first entry).
    fn with(suite: &str, stage: Stage, key: &'static str, v: f64) -> Json {
        let rows = GATES.iter().filter(|r| r.0 == suite && r.1.contains(&stage));
        let mut summary = vec![(key, v.into())];
        summary.extend(rows.map(|r| (r.2, r.3.into())));
        summary.extend(INPUTS.iter().map(|&(k, x)| (k, x.into())));
        let cells = vec![cell(obj(vec![]), "op/s", &[vec![("op/s", 1.0)]])];
        artifact("t", "t", 8, None, obj(vec![]), cells, obj(summary))
    }

    #[test]
    fn every_gate_passes_at_its_threshold_and_fails_one_step_past_it() {
        for suite in &SUITES {
            for &stage in ALL {
                let rows: Vec<_> =
                    GATES.iter().filter(|r| r.0 == suite.name && r.1.contains(&stage)).collect();
                let at = with(suite.name, stage, "", 0.0);
                let mut applied: Vec<&str> =
                    (suite.gates)(&at, stage).iter().map(|g| g.key).collect();
                let mut pinned: Vec<&str> = rows.iter().map(|r| r.2).collect();
                applied.sort();
                pinned.sort();
                pinned.dedup();
                assert_eq!(applied, pinned, "{} {stage:?}: gate list", suite.name);
                for &&(_, _, key, threshold, past) in &rows {
                    let good = with(suite.name, stage, key, threshold);
                    let fails = check(&good, &(suite.gates)(&good, stage));
                    assert!(
                        fails.is_empty(),
                        "{} {stage:?} {key} = {threshold}: {fails:?}",
                        suite.name
                    );
                    let bad = with(suite.name, stage, key, past);
                    let fails = check(&bad, &(suite.gates)(&bad, stage));
                    let expected = format!("summary.{key} = {past}, need ");
                    assert!(
                        fails.len() == 1 && fails[0].contains(&expected),
                        "{} {stage:?} {key} = {past}: {fails:?}",
                        suite.name
                    );
                }
            }
        }
    }
}
