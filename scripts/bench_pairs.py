#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and summarize them.

    python scripts/bench_pairs.py PARENT CHANGE --pairs 10 --seed 2301 \\
        --out BENCH_23.json [--trace-seed 1]

Run it from the repository root.  Each commit is exported with `git
archive` into a directory of its own, so the benchmark builds the program
from the committed files as in a fresh checkout, and the repository gets
no worktree to clean up.  The benchmark is `BENCHMARK.json`'s command
(`perfbench/run.py`) and every one of its workloads, read from the
change's export; the script only runs it.

Pair k (1..N) runs every workload at seed SEED+k-1 on both sides, the
parent first in odd pairs and the change first in even ones.
--trace-seed adds pair 0, one --trace 1 run per side and workload, which
gives the per-layer metrics.  Each run's last line of output, a JSON object,
is its `result`; the records go to --out after every run, in the format of
the committed BENCH_*.json files.

Then, per workload and end-to-end metric, it prints each side's median over
pairs 1..N in which both sides ran correctly, the parent's quartiles, the
pairs the change won out of all N (ties count for neither, and a pair whose
change run failed or was incorrect counts as lost), and two verdicts:
- `claim`: at least ten pairs, the change won at least nine tenths of them,
  its median is better than the parent's by more than the parent's
  interquartile range, and no larger share of its operations failed;
- `bound`: `ok` when the change's median is no worse than the parent's by
  more than the metric's bound (a fraction of the parent's median), else
  `WORSE`; but `unresolved`, not `ok`, when the parent's interquartile
  range is wider than the bound, unless every change run reads better than
  every parent run.
Last, each side's failed operations per workload, out of those attempted.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib import metadata
from pathlib import Path

SIDES = ("parent", "change")
CLAIM_SHARE = 0.9  # share of pairs the change must win for a claim
CLAIM_PAIRS = 10   # fewest pairs a claim rests on


def git(repo: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True).stdout


def export(repo: Path, commit: str, dest: Path):
    """The committed files of `commit`, written under `dest`."""
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git(repo, "archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")


def run_benchmark(checkout: Path, command: list[str], workload: str, seed: int,
                  seconds: float, trace: int) -> tuple[int, dict | None]:
    """One benchmark run in `checkout`: its exit status, and its last line
    of standard output parsed as JSON (None when that is not JSON)."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result if isinstance(result, dict) else None


def schedule(workloads: list[str], pairs: int, seed: int, trace_seed: int | None):
    """(pair, workload, seed, trace, sides in running order) of every run
    pair, the traced pair 0 first."""
    if trace_seed is not None:
        for workload in workloads:
            yield 0, workload, trace_seed, 1, SIDES
    for pair in range(1, pairs + 1):
        sides = SIDES if pair % 2 else SIDES[::-1]
        for workload in workloads:
            yield pair, workload, seed + pair - 1, 0, sides


def run_pairs(runner, commits: dict, workloads: list[str], pairs: int, seed: int,
              trace_seed: int | None, save=lambda runs: None) -> list[dict]:
    """Every run of the schedule, as records; runner(side, workload, seed,
    trace) returns a run's exit status and result.  `save` gets the records
    after each run."""
    runs = []
    for pair, workload, run_seed, trace, sides in schedule(workloads, pairs, seed, trace_seed):
        for side in sides:
            started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
            returncode, result = runner(side, workload, run_seed, trace)
            runs.append({"workload": workload, "side": side, "commit": commits[side],
                         "seed": run_seed, "trace": trace, "pair": pair,
                         "first": sides[0], "returncode": returncode,
                         "started_utc": started, "result": result})
            save(runs)
    return runs


def _value(run: dict, metric: str) -> float | None:
    result = run["result"] or {}
    if run["returncode"] != 0 or not result.get("correct"):
        return None
    entry = result.get("metrics", {}).get(metric)
    return None if entry is None else float(entry["value"])


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: list[dict], benchmark: dict) -> list[dict]:
    """One row per workload and end-to-end metric of `benchmark`: medians
    and quartiles over the untraced pairs in which both sides ran
    correctly, wins and the claim over every untraced pair run."""
    rows = []
    failed = failures(runs)
    for workload in [w["name"] for w in benchmark["workloads"]]:
        scheduled = len({run["pair"] for run in runs
                         if run["workload"] == workload and run["trace"] == 0})
        fails_more = _share(failed, workload, "change") > _share(failed, workload, "parent")
        for metric in benchmark["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            by_pair: dict[int, dict[str, float]] = {}
            for run in runs:
                if run["workload"] == workload and run["trace"] == 0:
                    value = _value(run, name)
                    if value is not None:
                        by_pair.setdefault(run["pair"], {})[run["side"]] = value
            both = [v for v in by_pair.values() if len(v) == 2]
            if not both:
                continue
            old = [v["parent"] for v in both]
            new = [v["change"] for v in both]
            sign = 1.0 if lower else -1.0  # positive: the change is better
            wins = sum(sign * (v["parent"] - v["change"]) > 0 for v in both)
            med_old, med_new = statistics.median(old), statistics.median(new)
            q1, q3 = _quartiles(old)
            gain = sign * (med_old - med_new)
            clear = max(new) < min(old) if lower else min(new) > max(old)
            if -gain > metric["bound"] * abs(med_old):
                bound = "WORSE"
            elif q3 - q1 > metric["bound"] * abs(med_old) and not clear:
                bound = "unresolved"
            else:
                bound = "ok"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "pairs": len(both), "scheduled": scheduled, "parent_median": med_old,
                "parent_q1": q1, "parent_q3": q3, "change_median": med_new, "wins": wins,
                "claim": scheduled >= CLAIM_PAIRS and wins >= CLAIM_SHARE * scheduled
                and gain > q3 - q1 and not fails_more,
                "bound": bound})
    return rows


def failures(runs: list[dict]) -> dict[tuple[str, str], tuple[int, int]]:
    """(failed, attempted) operations per (workload, side) over the untraced
    runs; a run that printed no result counts one failed of one."""
    out: dict[tuple[str, str], tuple[int, int]] = {}
    for run in runs:
        if run["trace"]:
            continue
        result = run["result"] or {"failed": 1, "attempted": 1}
        failed, attempted = out.get((run["workload"], run["side"]), (0, 0))
        out[run["workload"], run["side"]] = (failed + result["failed"],
                                             attempted + result["attempted"])
    return out


def _share(failed: dict, workload: str, side: str) -> float:
    count, attempted = failed.get((workload, side), (0, 0))
    return count / attempted if attempted else 0.0


def report(runs: list[dict], benchmark: dict) -> str:
    lines = [f"{'workload':<12} {'metric':<12} {'pairs':>5} {'parent':>10} "
             f"{'[q1, q3]':>22} {'change':>10} {'delta':>8} {'won':>6} claim bound"]
    rows = summarize(runs, benchmark)
    for workload in [w["name"] for w in benchmark["workloads"]]:
        if not any(row["workload"] == workload for row in rows):
            lines.append(f"{workload}: no pair in which both sides ran correctly")
    for row in rows:
        old, new = row["parent_median"], row["change_median"]
        delta = f"{(new - old) / old:+.1%}" if old else "n/a"
        spread = f"[{row['parent_q1']:.4g}, {row['parent_q3']:.4g}]"
        won = f"{row['wins']}/{row['scheduled']}"
        claim = "yes" if row["claim"] else "no"
        lines.append(
            f"{row['workload']:<12} {row['metric']:<12} {row['pairs']:>5} {old:>10.4g} "
            f"{spread:>22} {new:>10.4g} {delta:>8} {won:>6} {claim:<5} {row['bound']}")
    for (workload, side), (failed, attempted) in sorted(failures(runs).items()):
        lines.append(f"{workload} {side}: {failed} of {attempted} operations failed")
    return "\n".join(lines)


def _machine() -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            pass
    return {"vcpus": os.cpu_count(), "python": platform.python_version(), **versions}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="seed of pair 1")
    ap.add_argument("--trace-seed", type=int, help="add a --trace 1 pair 0 at this seed")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--what", default="", help="what the change does, for the record")
    args = ap.parse_args(argv)
    repo = Path.cwd()
    commits = {side: git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
               for side, rev in zip(SIDES, (args.parent, args.change))}
    work = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        for side in SIDES:
            export(repo, commits[side], work / side)
        benchmark = json.loads((work / "change" / "BENCHMARK.json").read_text(encoding="utf-8"))
        workloads = [w["name"] for w in benchmark["workloads"]]
        command, seconds = benchmark["command"], benchmark["run_seconds"]
        record = {"what": args.what,
                  "command": " ".join(command) + " --workload <workload> --seed <seed> "
                             f"--seconds {seconds} --trace <trace>",
                  "machine": _machine(), **commits, "runs": []}

        def save(runs):
            record["runs"] = runs
            args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

        def runner(side, workload, seed, trace):
            code, result = run_benchmark(work / side, command, workload, seed, seconds, trace)
            print(f"{side} {workload} seed {seed} trace {trace}: exit {code}", flush=True)
            return code, result

        runs = run_pairs(runner, commits, workloads, args.pairs, args.seed,
                         args.trace_seed, save)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(report(runs, benchmark))
    return 0


if __name__ == "__main__":
    sys.exit(main())
