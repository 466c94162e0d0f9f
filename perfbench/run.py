#!/usr/bin/env python3
"""HCL reproduction benchmark: one workload, several rounds, medians.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (a Cargo
package of its own that depends on the repository's crates by path) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the workload as
several closed-loop rounds that share `seconds` between them, every round in a
process of its own so its peak RSS is its own. Each round builds a 2-rank
world, prefills it, runs the op mix, and checks its outputs.

With `--trace 0` the result carries the `end_to_end` metrics of
BENCHMARK.json, each the median over the rounds. With `--trace 1`, traced
and untraced rounds alternate; the result carries the `per_layer` metrics,
medians over the traced rounds, and `trace.overhead_ratio` (traced over
untraced `ops_per_s`). Each traced round writes its spans to
`.bench_out/trace-<workload>-seed<n>-round<i>.tsv`. Rounds that lost more
than STEAL_MAX of the host's CPU time to hypervisor steal stay out of the
medians (see `steady`).

Human-readable lines come first; the last line of stdout is the JSON
result, whose `correct` is false when an output check failed. Exits
non-zero, printing no result, when the build fails or a round crashes or
overruns the time budget.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROUNDS = 10
TRACE_PAIRS = 3
# Every round must end within this many seconds after the build.
RUN_BUDGET_S = 170
OUT_DIR = Path(".bench_out")
# A round whose host lost more than this share of CPU time to steal (time a
# vCPU was runnable but the hypervisor ran something else, from /proc/stat)
# measured the neighbours, not the code: such rounds stay out of the medians.
STEAL_MAX = 0.05

# Every end-to-end metric each round reports, with its unit. A metric is
# only reported on workloads that issue that kind of op.
E2E_UNITS = {
    "ops_per_s": "1/s",
    "read_p50_us": "us",
    "write_p50_us": "us",
    "scan_p50_us": "us",
    "window_p50_us": "us",
    "sync_p50_us": "us",
    "sync_p99_us": "us",
    "setup_s": "s",
    "recover_s": "s",
    "peak_rss_mib": "MiB",
    "fail_ratio": "ratio",
}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_contract():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json from the repository root: {e}")


def build():
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    binary = target / "release" / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def run_round(binary, args, i, seconds, traced, deadline):
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--round", str(i),
        "--seconds", repr(seconds),
        "--trace", "1" if traced else "0",
        "--out", str(OUT_DIR),
    ]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"round {i} overran the run's {RUN_BUDGET_S} s budget")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"round {i} exited {done.returncode} without a result")
    result["traced"] = traced
    return result


def git_rev():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != Path.cwd().resolve():
            return "unknown"
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return rev.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def steady(rounds):
    """The rounds the medians are taken over, and whether the host was
    overloaded: the rounds within STEAL_MAX, or, when fewer than half of
    them are, the half with the least steal."""
    ok = [r for r in rounds if r["metrics"]["cpu_steal_share"] <= STEAL_MAX]
    if 2 * len(ok) >= len(rounds):
        return ok, False
    least = sorted(rounds, key=lambda r: r["metrics"]["cpu_steal_share"])
    return least[: (len(rounds) + 1) // 2], True


def medians(rounds, names):
    out = {}
    for name in names:
        vals = [r["metrics"][name] for r in rounds if r["metrics"].get(name) is not None]
        if vals:
            out[name] = (statistics.median(vals), min(vals), max(vals))
    return out


def main():
    contract = load_contract()
    why = {w["name"]: w["why"] for w in contract["workloads"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(why))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if not 0 <= args.seed < 2**64:
        fail("--seed must fit in 64 unsigned bits")
    if not 0 < args.seconds <= 60:
        fail("--seconds must be in (0, 60]")
    traced = args.trace == "1"

    binary = build()
    OUT_DIR.mkdir(exist_ok=True)

    if traced:
        plan = [False, True] * TRACE_PAIRS
    else:
        plan = [False] * ROUNDS
    seconds = args.seconds / len(plan)
    deadline = time.monotonic() + RUN_BUDGET_S
    rounds = [run_round(binary, args, i, seconds, t, deadline) for i, t in enumerate(plan)]
    plain, plain_overloaded = steady([r for r in rounds if not r["traced"]])
    spanned, spanned_overloaded = steady([r for r in rounds if r["traced"]])
    overloaded = plain_overloaded or (traced and spanned_overloaded)
    for r in rounds:
        r["kept"] = any(r is k for k in plain + spanned)

    summary = medians(plain, E2E_UNITS)
    print(f"workload {args.workload}: {why[args.workload]}")
    print(f"{len(plain)} untraced rounds of {seconds:.3f} s" + (f", {len(spanned)} traced" if traced else "")
          + f" kept, {sum(not r['kept'] for r in rounds)} left out for CPU steal above {STEAL_MAX}")
    if overloaded:
        print(f"WARNING: host overloaded: fewer than half the rounds had CPU steal within {STEAL_MAX}; "
              "the medians are over the least-stolen half and are not comparable with a quiet host")
    print(f"{'metric':<34} {'median':>14} {'min':>14} {'max':>14}  unit    samples/round")
    for name, unit in E2E_UNITS.items():
        if name in summary:
            med, lo, hi = summary[name]
            n = [r["samples"].get(name) for r in plain]
            counts = "" if n[0] is None else " ".join(str(c) for c in n)
            print(f"{name:<34} {med:>14.6g} {lo:>14.6g} {hi:>14.6g}  {unit:<7} {counts}")
        else:
            print(f"{name:<34} {'n/a':>14}  (this workload issues no such op)")

    if traced:
        wanted = {m["name"]: m["unit"] for m in contract["per_layer"]}
        layer = medians(spanned, wanted)
        ratio = medians(spanned, ["ops_per_s"])["ops_per_s"][0] / summary["ops_per_s"][0]
        layer["trace.overhead_ratio"] = (ratio, ratio, ratio)
        print(f"{'per-layer metric':<34} {'median':>14} {'min':>14} {'max':>14}  unit      samples/round")
        for name, unit in wanted.items():
            if name in layer:
                med, lo, hi = layer[name]
                counts = " ".join(str(r["samples"][name]) for r in spanned if name in r["samples"])
                print(f"{name:<34} {med:>14.6g} {lo:>14.6g} {hi:>14.6g}  {unit:<9} {counts}")
            else:
                print(f"{name:<34} {'n/a':>14}  (layer not used by this workload; reported as 0)")
        metrics = {n: {"value": layer[n][0] if n in layer else 0.0, "unit": u} for n, u in wanted.items()}
    else:
        missing = [m["name"] for m in contract["end_to_end"] if m["name"] not in summary]
        if missing:
            fail(f"rounds reported no {', '.join(missing)}")
        metrics = {m["name"]: {"value": summary[m["name"]][0], "unit": m["unit"]} for m in contract["end_to_end"]}

    info = dict(rounds[0]["info"])
    info.update(seed=str(args.seed), git_rev=git_rev(), rounds=str(len(rounds)))
    info["threads_peak"] = str(max(int(r["info"]["threads_peak"]) for r in rounds))
    info["oversubscribed"] = str(int(info["threads_peak"]) > int(info["cores"])).lower()
    info["cpu_steal_share"] = f"{statistics.median(r['metrics']['cpu_steal_share'] for r in rounds):.4f}"
    info["rounds_left_out"] = str(sum(not r["kept"] for r in rounds))
    info["host_overloaded"] = str(overloaded).lower()
    print("host: " + ", ".join(f"{k}={v}" for k, v in info.items()))

    errors = [e for r in rounds for e in r["errors"]]
    for e in errors:
        print(f"CHECK FAILED: {e}")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    empty = sum(r["empty"] for r in rounds)
    print(f"ops attempted {attempted}, failed {failed}, empty {empty}, output checks {'FAILED' if errors else 'passed'}")

    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seconds=args.seconds, trace=traced, info=info, rounds=rounds)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
