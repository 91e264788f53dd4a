"""scripts/bench_pairs.py: alternating benchmark pairs and their verdicts."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bp)

BENCHMARK = {
    "run_seconds": 2,
    "workloads": [{"name": "fast"}, {"name": "slow"}],
    "end_to_end": [
        {"name": "study_s", "unit": "s", "better": "lower", "bound": 0.2},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    ],
}
RECORD_KEYS = {"workload", "side", "commit", "seed", "trace", "pair", "first",
               "returncode", "started_utc", "result"}


def _result(study_s, rss, failed=0):
    return {"correct": True, "attempted": 10, "failed": failed,
            "metrics": {"study_s": {"value": study_s, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_pairs_alternate_and_the_verdicts_follow_the_rules():
    """Pair k runs at seed SEED+k-1 with the parent first in odd pairs; the
    traced pair 0 comes first and counts in no verdict.  A change faster in
    every pair by more than the parent's spread meets the claim rule; one
    whose memory rose past the bound is WORSE; one inside a spread wider
    than the bound is unresolved."""
    calls = []

    def runner(side, workload, seed, trace):
        calls.append((side, workload, seed, trace))
        jitter = 0.01 * (seed % 3)
        if trace:
            return 0, _result(100.0, 100.0)
        if workload == "fast":
            return 0, (_result(1.0 + jitter, 50.0) if side == "parent"
                       else _result(0.8 + jitter, 60.0))
        # slow: the parent's study time spreads by 50 %, the change's sits inside
        study = 1.0 + 0.5 * (seed % 2)
        return 0, _result(study if side == "parent" else 1.1, 50.0)

    commits = {"parent": "aaa", "change": "bbb"}
    runs = bp.run_pairs(runner, commits, ["fast", "slow"], 10, 2301, trace_seed=1)
    assert len(runs) == 2 * 2 + 10 * 2 * 2
    assert all(set(run) == RECORD_KEYS for run in runs)
    assert calls[:4] == [("parent", "fast", 1, 1), ("change", "fast", 1, 1),
                         ("parent", "slow", 1, 1), ("change", "slow", 1, 1)]
    assert calls[4:8] == [("parent", "fast", 2301, 0), ("change", "fast", 2301, 0),
                          ("parent", "slow", 2301, 0), ("change", "slow", 2301, 0)]
    assert calls[8:10] == [("change", "fast", 2302, 0), ("parent", "fast", 2302, 0)]
    assert all(run["commit"] == commits[run["side"]] for run in runs)
    assert [run["first"] for run in runs if run["pair"] == 2] == ["change"] * 4
    rows = {(r["workload"], r["metric"]): r for r in bp.summarize(runs, BENCHMARK)}
    fast = rows["fast", "study_s"]
    assert fast["pairs"] == 10 and fast["wins"] == 10
    assert fast["claim"] and fast["bound"] == "ok"
    assert fast["parent_median"] == 1.01 and fast["change_median"] == 0.81
    assert rows["fast", "peak_rss_mb"]["bound"] == "WORSE"
    assert not rows["fast", "peak_rss_mb"]["claim"]
    slow = rows["slow", "study_s"]
    assert (slow["parent_q1"], slow["parent_q3"]) == (1.0, 1.5)
    assert slow["bound"] == "unresolved" and not slow["claim"]
    assert rows["slow", "peak_rss_mb"]["wins"] == 0  # ties count for neither side
    assert rows["slow", "peak_rss_mb"]["bound"] == "ok"


def test_failed_runs_count_and_drop_out_of_the_pairs():
    """A run that exits non-zero or prints no result takes its pair out of
    the medians, and counts as failed operations.  A pair whose change run
    failed or reads incorrect counts as lost: a change that wins the other
    10 of 12 pairs wins 10/12, short of the claim rule's nine tenths.  A
    change faster in all 10 pairs that fails a larger share of its
    operations than the parent claims nothing either."""
    def runner(side, workload, seed, trace):
        if side == "change" and seed == 2302:
            return 1, None
        return 0, _result(1.0, 50.0, failed=1 if side == "parent" else 0)

    runs = bp.run_pairs(runner, {"parent": "a", "change": "b"}, ["fast"], 3, 2301, None)
    rows = bp.summarize(runs, BENCHMARK)
    assert {row["pairs"] for row in rows} == {2}
    assert {row["scheduled"] for row in rows} == {3}
    assert bp.failures(runs) == {("fast", "parent"): (3, 30), ("fast", "change"): (1, 21)}
    printed = bp.report(runs, BENCHMARK)
    assert "fast change: 1 of 21 operations failed" in printed
    assert "slow: no pair in which both sides ran correctly" in printed

    def flaky(side, workload, seed, trace):
        if side == "parent":
            return 0, _result(1.0 + 0.01 * (seed % 3), 50.0)
        if seed == 2302:
            return 1, None
        if seed == 2305:
            return 0, dict(_result(0.5, 50.0), correct=False)
        return 0, _result(0.5, 50.0)

    runs = bp.run_pairs(flaky, {"parent": "a", "change": "b"}, ["fast"], 12, 2301, None)
    study = {row["metric"]: row for row in bp.summarize(runs, BENCHMARK)}["study_s"]
    assert (study["pairs"], study["scheduled"], study["wins"]) == (10, 12, 10)
    assert not study["claim"]
    assert "10/12" in bp.report(runs, BENCHMARK)

    def failing(side, workload, seed, trace):
        if side == "parent":
            return 0, _result(1.0 + 0.01 * (seed % 3), 50.0)
        return 0, _result(0.5, 50.0, failed=1)

    runs = bp.run_pairs(failing, {"parent": "a", "change": "b"}, ["fast"], 10, 2301, None)
    study = {row["metric"]: row for row in bp.summarize(runs, BENCHMARK)}["study_s"]
    assert (study["pairs"], study["wins"]) == (10, 10)
    assert not study["claim"]
    ok = bp.run_pairs(lambda side, *rest: failing("parent", *rest) if side == "parent"
                      else (0, _result(0.5, 50.0)),
                      {"parent": "a", "change": "b"}, ["fast"], 10, 2301, None)
    assert {row["metric"]: row for row in bp.summarize(ok, BENCHMARK)}["study_s"]["claim"]


STUB_RUN = """import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
value = SCALE * (1.0 + 0.001 * int(args["--seed"]))
print("stub benchmark")
print(json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": {
    "study_s": {"value": value, "unit": "s"},
    "peak_rss_mb": {"value": 50.0, "unit": "MB"}}}))
"""


def _commit(repo: Path, scale: float) -> str:
    (repo / "perfbench" / "run.py").write_text(STUB_RUN.replace("SCALE", repr(scale)))
    git = ["git", "-C", str(repo), "-c", "user.name=bench", "-c", "user.email=bench@example.org"]
    subprocess.run(git + ["add", "-A"], check=True, capture_output=True)
    subprocess.run(git + ["commit", "-q", "-m", f"scale {scale}"], check=True,
                   capture_output=True)
    return subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True,
                          text=True).stdout.strip()


def test_main_runs_each_commit_from_its_own_export(tmp_path, monkeypatch, capsys):
    """Against a stub benchmark in a scratch repository, each side runs the
    benchmark as committed (the working tree holds a third version), the
    record names both commits, and the summary prints."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    benchmark = dict(BENCHMARK, workloads=[{"name": "fast"}],
                     command=[sys.executable, "perfbench/run.py"])
    (repo / "BENCHMARK.json").write_text(json.dumps(benchmark))
    parent = _commit(repo, 1.0)
    change = _commit(repo, 0.5)
    (repo / "perfbench" / "run.py").write_text("raise SystemExit(3)\n")
    monkeypatch.chdir(repo)
    out = tmp_path / "BENCH_1.json"
    assert bp.main([parent, "HEAD", "--pairs", "2", "--seed", "10", "--out", str(out),
                    "--what", "halves the stub's time"]) == 0
    record = json.loads(out.read_text())
    assert (record["parent"], record["change"]) == (parent, change)
    assert record["what"] == "halves the stub's time"
    assert [(r["side"], r["seed"], r["returncode"]) for r in record["runs"]] == [
        ("parent", 10, 0), ("change", 10, 0), ("change", 11, 0), ("parent", 11, 0)]
    values = {(r["side"], r["seed"]): r["result"]["metrics"]["study_s"]["value"]
              for r in record["runs"]}
    assert values["parent", 10] == 1.01 and values["change", 10] == 0.505
    printed = capsys.readouterr().out
    assert "fast         study_s" in printed and "2/2" in printed
