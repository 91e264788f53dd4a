"""windsed benchmark: one workload per run, checked against HiGHS.

    python3 perfbench/run.py --workload conv3-j2 --seed 7 --seconds 2 --trace 0

Run it from the repository root.  The program runs from `src/` in its own
processes, as a user runs it: `python3 -m windsed.cli ...` with `src` on
PYTHONPATH and the environment otherwise as given.

--trace 0 times `windsed dispatch` at the zero germ (set-up) and then
`windsed study` a set number of times, and more until --seconds of study
time have passed, and prints the end-to-end metrics.  --trace 1 runs the
study once untraced and once under tracer.py, and prints the per-layer
metrics.  Both check every output
against computations made apart from the program (checks.py).  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  Model evaluations are the operations counted.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0   # every process is killed past this, so a run ends in time


@dataclass(frozen=True)
class Workload:
    config: str
    jobs: int
    setups: int        # dispatches timed per run
    reps: int          # studies timed per run, at least
    uncongested: bool  # 3-bus: the merit-order references are valid


# study118-j1 pays two ~25 s cold solves per run, so it times one of each;
# conv3-j2 is cheap, so it times seven dispatches and three studies and
# reports medians.
WORKLOADS = {
    "study118-j1": Workload("configs/study118.yaml", 1, 1, 1, False),
    "conv3-j2": Workload("configs/conv3.yaml", 2, 7, 3, True),
}


@dataclass
class Proc:
    rc: int
    wall: float
    cpu: float      # user + system, the process and every child it reaped
    rss_mb: float   # peak resident set of the largest of those processes
    out: str


def run_timed(argv, env, outfile: Path, deadline: float) -> Proc:
    """Run argv to its end, timed from launch to exit; kill its session at
    the deadline.  wait4 gives the rusage of the process and its reaped
    pool workers."""
    with open(outfile, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            try:    # nothing the command started outlives it
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, outfile.read_text(encoding="utf-8"))


def program(command, config, seed, out, jobs=None):
    argv = [command, "--config", str(config), "--seed", str(seed), "--out", str(out)]
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    if command == "study":
        argv.append("--verify")
    return argv


class Bench:
    def __init__(self, name: str, seed: int, root: Path):
        self.name, self.seed, self.root = name, seed, root
        self.wl = WORKLOADS[name]
        self.config = HERE / self.wl.config
        self.work = root / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.fails: list[str] = []

    def windsed(self, command, tag, trace_dir=None) -> tuple[Proc, Path]:
        out = self.work / tag
        args = program(command, self.config, self.seed, out,
                       self.wl.jobs if command == "study" else None)
        if trace_dir is None:
            argv = [sys.executable, "-m", "windsed.cli"] + args
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_dir)] + args
        proc = run_timed(argv, self.env, self.work / f"{tag}.log", self.deadline)
        if time.monotonic() >= self.deadline:
            raise TimeoutError(f"{command} did not finish within the run limit")
        return proc, out

    # -- checks ------------------------------------------------------------

    def start_checks(self):
        sys.path.insert(0, str(self.root / "src"))
        import checks
        self.checks = checks
        self.study = checks.Study(self.config, self.seed)
        self.highs = checks.HighsDispatch(self.study)
        self.ref = checks.reference(self.study, self.highs, self.wl.uncongested)

    def check_study(self, proc: Proc, out: Path):
        if proc.rc != 0 or "verify pass" not in proc.out:
            self.fails.append(f"study --verify did not pass (exit {proc.rc})")
            return None
        rep = self.checks.read_report(out / "report.csv")
        self.fails += self.checks.check_report(self.study, rep, self.ref)
        return rep

    def check_inprocess_q(self):
        """Q from the program's evaluator, in this process, at a fixed sample
        of grid nodes and MC germs (3-bus only: the cold solve is cheap)."""
        import numpy as np
        from windsed.sed_model import SedEvaluator
        ev = SedEvaluator(self.study.case, self.study.spec, self.study.cfg.segments)
        germs = np.vstack(self.checks.sample_germs(self.study, 6))
        self.fails += self.checks.check_q_values(
            self.study, self.highs, germs, [ev(g) for g in germs], True)

    # -- runs --------------------------------------------------------------

    def warm_up(self):
        """Import the program once untimed, so the first timed command does
        not pay for a cold page cache or for writing bytecode."""
        run_timed([sys.executable, "-m", "windsed.cli", "--print-schema"],
                  self.env, self.work / "warmup.log", self.deadline)

    def end_to_end(self, seconds: float):
        self.warm_up()
        setups = [self.windsed("dispatch", f"dispatch{k}") for k in range(self.wl.setups)]
        studies = []
        while len(studies) < self.wl.reps or sum(p.wall for p, _ in studies) < seconds:
            studies.append(self.windsed("study", f"study{len(studies)}"))
        self.start_checks()
        per_study = self.study.n_evals
        attempted = per_study * len(studies) + len(setups)
        failed = per_study * sum(p.rc != 0 for p, _ in studies) \
            + sum(p.rc != 0 for p, _ in setups)
        for proc, out in setups:
            if proc.rc == 0:
                self.fails += self.checks.check_dispatch(self.study, out, self.ref)
        for proc, out in studies:
            if proc.rc == 0:
                self.check_study(proc, out)
        if self.wl.uncongested:
            self.check_inprocess_q()
        ok = [p for p, _ in studies if p.rc == 0] or [p for p, _ in studies]
        metrics = {
            "study_s": (statistics.median(p.wall for p in ok), "s"),
            "setup_s": (statistics.median(p.wall for p, _ in setups), "s"),
            "cpu_s": (statistics.median(p.cpu for p in ok), "s"),
            "peak_rss_mb": (statistics.median(p.rss_mb for p in ok), "MB"),
        }
        return attempted, failed, metrics

    def traced(self):
        import layers
        self.warm_up()
        plain, plain_out = self.windsed("study", "study-plain")
        span_dir = self.work / "spans"
        span_dir.mkdir()
        traced, traced_out = self.windsed("study", "study-traced", trace_dir=span_dir)
        self.start_checks()
        per_study = self.study.n_evals
        attempted = 2 * per_study
        failed = per_study * ((plain.rc != 0) + (traced.rc != 0))
        rep = None
        for proc, out in ((plain, plain_out), (traced, traced_out)):
            if proc.rc == 0:
                rep = self.check_study(proc, out) or rep
        spans = layers.load_spans(span_dir)
        # program Q recorded by the trace, at a fixed sample of nodes and draws
        evals = {tuple(s["germ"]): s["q"] for s in spans
                 if s["name"] == layers.EVAL_SPAN}
        nodes, draws = self.checks.sample_germs(self.study, 4)
        sample = [g for g in list(nodes) + list(draws) if tuple(g) in evals]
        if len(sample) != len(nodes) + len(draws):
            self.fails.append("the trace misses evaluations the study must make")
        self.fails += self.checks.check_q_values(
            self.study, self.highs, sample, [evals[tuple(g)] for g in sample],
            self.wl.uncongested)
        values = layers.layer_metrics(spans, self.study.finest_nodes)
        fits = rep.fits if rep is not None else {}
        values["estimate.pce_evals_to_target"] = self.checks.evals_to_target(
            fits.get("pce"), self.checks.TARGET_ERROR)
        values["estimate.mc_evals_to_target"] = self.checks.evals_to_target(
            fits.get("mc"), self.checks.TARGET_ERROR)
        values["bench.trace_overhead_s"] = traced.wall - plain.wall
        metrics = {k: (values[k], layers.UNITS[k]) for k in layers.UNITS}
        return attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "windsed" / "cli.py").is_file():
        print(f"perfbench: no windsed sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, root)
    try:
        if args.trace:
            attempted, failed, metrics = bench.traced()
        else:
            attempted, failed, metrics = bench.end_to_end(args.seconds)
    except TimeoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    for msg in bench.fails:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"checks failed: {len(bench.fails)}")
    print(json.dumps({
        "correct": not bench.fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
