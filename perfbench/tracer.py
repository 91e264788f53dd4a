"""Run one windsed command with spans recorded around calls into its layers.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS_DIR study --config ...

The public functions and methods of `grid_model`, `forecast`, `sed_model`,
`lp_solver`, `pce` and `estimate` that `windsed study` reaches (plus
`cli.build_forecast_spec` and the import of `windsed.cli`) are wrapped, in
every module that holds a reference to them, before `cli.main` runs.  Each
call becomes one span: name, start and end (`time.perf_counter`,
CLOCK_MONOTONIC on Linux, so comparable across processes), process CPU
time, the caller's span, and a few counts.

Spans stay in memory and are appended to SPANS_DIR/spans-<pid>.jsonl: by
the main process when the command ends, and by forked pool workers each
time an outermost span ends, because a pool terminates its workers and
nothing at worker exit would run.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time

TARGETS = {
    "cli": ["build_forecast_spec"],
    "grid_model": ["load_case"],
    "forecast": ["SiteModel.kl_basis", "ForecastSpec.germ_layout"],
    "sed_model": ["build_instance", "SedEvaluator.__call__",
                  "SedEvaluator.evaluate_batch"],
    "pce": ["build_sparse_grid"],
    "estimate": ["parallel_map"],
}


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.counter = 0
        self.warm_solvers: set[int] = set()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        # a worker starts with no open spans; solvers it inherits stay warm
        self.spans, self.stack = [], []

    @contextlib.contextmanager
    def record(self, name: str):
        rec = {"id": f"{os.getpid()}:{self.counter}", "name": name,
               "parent": self.stack[-1] if self.stack else None}
        self.counter += 1
        self.stack.append(rec["id"])
        cpu0 = time.process_time()
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["cpu"] = time.process_time() - cpu0
            self.stack.pop()
            self.spans.append(rec)
            if not self.stack and os.getpid() != self.main_pid:
                self.flush()

    def flush(self):
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
        self.spans = []

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.record(name) as rec:
                result = fn(*args, **kwargs)
                if name == "sed_model.SedEvaluator.__call__":
                    rec["germ"] = [float(v) for v in args[1]]
                    rec["q"] = result
                elif name == "pce.build_sparse_grid":
                    rec["nodes"] = len(result)
            return result
        return traced

    def wrap_repeat_solver(self, lp_solver):
        """Serve `RepeatSolver.solve_value` from `RepeatSolver.solve`, whose
        solution carries the pivot count; the first call on a solver is its
        cold solve."""
        tracer = self
        solve = lp_solver.RepeatSolver.solve

        def solve_value(solver):
            cold = id(solver) not in tracer.warm_solvers
            tracer.warm_solvers.add(id(solver))
            with tracer.record("lp_solver.RepeatSolver.solve_value") as rec:
                sol = solve(solver)
                rec["iterations"] = sol.iterations
                rec["cold"] = cold
            if sol.status != "optimal":
                raise lp_solver.LpError(f"repeat solve ended {sol.status}")
            return sol.objective

        lp_solver.RepeatSolver.solve_value = solve_value


def install(tracer: Tracer):
    mods = {name: importlib.import_module(f"windsed.{name}")
            for name in (*TARGETS, "lp_solver")}
    for modname, names in TARGETS.items():
        mod = mods[modname]
        for qual in names:
            span = f"{modname}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, tracer.wrap(span, cls.__dict__[meth]))
                continue
            orig = getattr(mod, qual)
            traced = tracer.wrap(span, orig)
            for other in mods.values():  # `from .x import f` copies too
                for key, value in list(vars(other).items()):
                    if value is orig:
                        setattr(other, key, traced)
    tracer.wrap_repeat_solver(mods["lp_solver"])


def main(argv) -> int:
    out_dir, command = argv[0], argv[1:]
    cpu0 = time.process_time()
    start = time.perf_counter()
    import windsed.cli as cli
    end = time.perf_counter()
    tracer = Tracer(out_dir)
    tracer.spans.append({"id": f"{os.getpid()}:import", "name": "cli.import",
                         "parent": None, "start": start, "end": end,
                         "cpu": time.process_time() - cpu0})
    install(tracer)
    try:
        return cli.main(command)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
