//! Artifact provenance check (`cargo run -p xtask -- artifacts`).
//!
//! Every committed `FIG_*.json` at the workspace root must carry enough
//! provenance to regenerate itself: a top-level RNG **seed**, the measured
//! **rank counts**, and — for every scenario cell it contains — the
//! **workload mix**, the cell's own seed, and the rank series it measured.
//! An artifact someone cannot re-run is a plot, not a benchmark result.
//!
//! Every committed `BENCH_*.json` (the `hcl-bench` gate runner's output)
//! must record the **host block** — cores, ranks and whether the ranks
//! oversubscribe the cores — and, for every cell, its per-run **samples**
//! and their **median**: a number without its host and its spread cannot
//! be compared with a rerun.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

pub fn run() -> ExitCode {
    let root = match workspace_root() {
        Some(r) => r,
        None => {
            eprintln!("artifacts: cannot locate workspace root");
            return ExitCode::FAILURE;
        }
    };
    let files = committed_artifacts(&root);
    if files.is_empty() {
        println!("artifacts: no FIG_*.json or BENCH_*.json committed at {}", root.display());
        return ExitCode::SUCCESS;
    }
    let mut failures = 0usize;
    for path in &files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let body = match std::fs::read_to_string(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("artifacts: FAIL {name}: unreadable: {e}");
                failures += 1;
                continue;
            }
        };
        let checked = if name.starts_with("BENCH_") {
            check_bench_artifact(&name, &body)
        } else {
            check_artifact(&name, &body)
        };
        match checked {
            Ok(cells) => println!("artifacts: ok   {name} ({cells} cell(s))"),
            Err(msg) => {
                eprintln!("artifacts: FAIL {name}: {msg}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        println!("artifacts: {} artifact(s) carry full provenance", files.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("artifacts: {failures} artifact(s) missing provenance");
        ExitCode::FAILURE
    }
}

/// The workspace root: walk up from this file's manifest dir.
fn workspace_root() -> Option<PathBuf> {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(Path::to_path_buf)
}

/// All `FIG_*.json` and `BENCH_*.json` files at the workspace root, sorted
/// for stable output.
fn committed_artifacts(root: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(root)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .map(|n| (n.starts_with("FIG_") || n.starts_with("BENCH_")) && n.ends_with(".json"))
                .unwrap_or(false)
        })
        .collect();
    out.sort();
    out
}

/// Validate one artifact body. Returns the cell count on success.
///
/// Rules (hand-rolled string checks — the artifacts are written by our own
/// binaries with a fixed field order, no JSON parser in the dev tree):
/// 1. a top-level `"seed":` field;
/// 2. a rank-count record: `"measured_ranks":` (scenario matrices) or a
///    `"ranks":` field (single-series artifacts);
/// 3. every `{"cell": ...}` object carries its own `"seed":`, a
///    `"mix":` label, and a `"ranks":` series.
pub(crate) fn check_artifact(name: &str, body: &str) -> Result<usize, String> {
    if !body.contains("\"seed\":") {
        return Err(format!("{name} records no \"seed\""));
    }
    if !body.contains("\"measured_ranks\":") && !body.contains("\"ranks\":") {
        return Err(format!("{name} records no rank counts"));
    }
    let cells: Vec<&str> = body.split("{\"cell\":").skip(1).collect();
    for (i, cell) in cells.iter().enumerate() {
        // A cell's fields end where the next cell begins; `split` already
        // scoped `cell` to exactly that span.
        for field in ["\"seed\":", "\"mix\":", "\"ranks\":"] {
            if !cell.contains(field) {
                let label = cell
                    .split('"')
                    .nth(1)
                    .unwrap_or("?");
                return Err(format!("{name} cell {i} ({label}) records no {field}"));
            }
        }
    }
    Ok(cells.len())
}

/// Validate one `BENCH_*.json` body. Returns the cell count on success.
///
/// Rules (string checks against the runner's fixed field order):
/// 1. a `"host"` object recording `"cores"`, `"ranks"` and
///    `"oversubscribed"`;
/// 2. at least one `{"params": ...}` cell, each carrying a non-empty
///    `"samples"` array and a `"median"`.
pub(crate) fn check_bench_artifact(name: &str, body: &str) -> Result<usize, String> {
    let host = body
        .split("\"host\": {")
        .nth(1)
        .and_then(|rest| rest.split('}').next())
        .ok_or_else(|| format!("{name} records no host block"))?;
    for field in ["\"cores\":", "\"ranks\":", "\"oversubscribed\":"] {
        if !host.contains(field) {
            return Err(format!("{name} host block records no {field}"));
        }
    }
    let cells: Vec<&str> = body.split("{\"params\":").skip(1).collect();
    if cells.is_empty() {
        return Err(format!("{name} records no cells"));
    }
    for (i, cell) in cells.iter().enumerate() {
        if !cell.contains("\"samples\": [") || cell.contains("\"samples\": []") {
            return Err(format!("{name} cell {i} records no \"samples\""));
        }
        if !cell.contains("\"median\":") {
            return Err(format!("{name} cell {i} records no \"median\""));
        }
    }
    Ok(cells.len())
}

#[cfg(test)]
mod tests {
    use super::{check_artifact, check_bench_artifact};

    const GOOD: &str = r#"{"bench": "fig_x", "config": {"seed": 42, "measured_ranks": [1, 2, 4, 8]},
        "cells": [
        {"cell": "umap/a/zipf", "seed": 42, "mix": "ycsb_a_update_heavy",
         "measured": [{"ranks": 1, "ops_per_sec": 10.0}]},
        {"cell": "q/b/unif", "seed": 43, "mix": "queue_push_pop",
         "measured": [{"ranks": 2, "ops_per_sec": 11.0}]}
    ]}"#;

    #[test]
    fn full_provenance_passes() {
        assert_eq!(check_artifact("FIG_good.json", GOOD), Ok(2));
    }

    #[test]
    fn missing_top_level_seed_fails() {
        let body = GOOD.replace("\"seed\": 42", "\"sd\": 42");
        // Cell 1 still has its own seed (43), so the top-level check is the
        // one that must fire ... except cell 0's seed was also renamed; use
        // the error text to pin which rule tripped.
        let err = check_artifact("FIG_bad.json", &body).unwrap_err();
        assert!(err.contains("seed"), "wrong failure: {err}");
    }

    #[test]
    fn missing_rank_counts_fails() {
        let body = GOOD.replace("measured_ranks", "mr").replace("\"ranks\":", "\"r\":");
        let err = check_artifact("FIG_bad.json", &body).unwrap_err();
        assert!(err.contains("rank counts"), "wrong failure: {err}");
    }

    #[test]
    fn cell_without_mix_fails() {
        let body = GOOD.replace("\"mix\": \"queue_push_pop\"", "\"m\": \"x\"");
        let err = check_artifact("FIG_bad.json", &body).unwrap_err();
        assert!(err.contains("\"mix\"") && err.contains("cell 1"), "wrong failure: {err}");
    }

    #[test]
    fn cell_without_seed_fails() {
        let body = GOOD.replace("\"seed\": 43", "\"sd\": 43");
        let err = check_artifact("FIG_bad.json", &body).unwrap_err();
        assert!(err.contains("cell 1"), "wrong failure: {err}");
    }

    #[test]
    fn artifact_without_cells_passes_on_top_level_fields_alone() {
        let body = r#"{"bench": "fig_y", "seed": 7, "ranks": [1, 2, 4], "series": []}"#;
        assert_eq!(check_artifact("FIG_flat.json", body), Ok(0));
    }

    const BENCH: &str = r#"{
  "suite": "demo",
  "host": {"cores": 2, "ranks": 8, "oversubscribed": true},
  "cells": [
    {"params": {"mode": "a"}, "unit": "op/s", "samples": [3, 1, 2], "median": 2, "stats": {}},
    {"params": {"mode": "b"}, "unit": "op/s", "samples": [5], "median": 5, "stats": {"p99_ns": 7}}
  ],
  "summary": {"ratio": 2.5}
}"#;

    #[test]
    fn bench_with_host_samples_and_medians_passes() {
        assert_eq!(check_bench_artifact("BENCH_good.json", BENCH), Ok(2));
    }

    #[test]
    fn bench_without_host_block_fails() {
        let body = BENCH.replace("\"host\"", "\"machine\"");
        let err = check_bench_artifact("BENCH_bad.json", &body).unwrap_err();
        assert!(err.contains("no host block"), "wrong failure: {err}");
    }

    #[test]
    fn bench_host_without_oversubscription_fails() {
        let body = BENCH.replace(", \"oversubscribed\": true", "");
        let err = check_bench_artifact("BENCH_bad.json", &body).unwrap_err();
        assert!(err.contains("oversubscribed"), "wrong failure: {err}");
    }

    #[test]
    fn bench_cell_without_samples_fails() {
        for body in [BENCH.replace("\"samples\": [5]", "\"best\": 5"), BENCH.replace("[5]", "[]")] {
            let err = check_bench_artifact("BENCH_bad.json", &body).unwrap_err();
            assert!(err.contains("cell 1") && err.contains("samples"), "wrong failure: {err}");
        }
    }

    #[test]
    fn bench_cell_without_median_fails() {
        let body = BENCH.replace("\"median\": 2", "\"best\": 3");
        let err = check_bench_artifact("BENCH_bad.json", &body).unwrap_err();
        assert!(err.contains("cell 0") && err.contains("median"), "wrong failure: {err}");
    }

    #[test]
    fn bench_without_cells_fails() {
        let body = r#"{"suite": "x", "host": {"cores": 2, "ranks": 8, "oversubscribed": true}, "cells": []}"#;
        let err = check_bench_artifact("BENCH_bad.json", body).unwrap_err();
        assert!(err.contains("no cells"), "wrong failure: {err}");
    }
}
