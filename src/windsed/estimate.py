"""The one model-evaluation map, `parallel_map`, and the Monte Carlo vs
sparse-quadrature PCE convergence experiment, which estimates E[Q] both
ways: a realization's sample mean, and a level's c0 from one quadrature
sum, `SparseGrid.integrate`, of the node values.

The experiment's report is its rows, one `Estimate` per `report.csv` row,
and one error rule serves both methods: a row's error is its value v
against the mean m_{i+1}, over realizations, of the next finer resolution's
values, E_i = |v - m_{i+1}| / |m_{i+1}|.  A quadrature level has one
realization, its c0, so E_PC,i = |c0_i - c0_{i+1}| / |c0_{i+1}|; each MC
realization at sample count i is measured against count i+1's grand mean.
Two levels may share a grid: in one dimension levels 1 and 2 both use the
3-point rule (delayed growth), so level 1's error is exactly 0.  Power-law
rates come from ordinary least squares in log-log space on each
resolution's mean error against its evaluation count; zero errors are left
out of the fit.
"""
from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass

import numpy as np

from .pce import build_sparse_grid

_PHILOX_TAG_MC = 0x3C000000


def _mc_stream(seed: int, size_index: int, realization: int) -> np.random.Generator:
    """Independent Philox stream per (seed, size, realization); the report is
    therefore identical no matter how work is scheduled."""
    tag = np.uint64(_PHILOX_TAG_MC) + (np.uint64(size_index) << np.uint64(20)) \
        + np.uint64(realization)
    return np.random.Generator(np.random.Philox(key=[np.uint64(seed), tag]))


class _WorkerState:
    model = None


def _init_worker(model):
    _WorkerState.model = model


def _eval_chunk(chunk):
    return _apply(_WorkerState.model, chunk)


class ModelEvaluationError(Exception):
    """A model call raised or returned a non-finite value; carries the germ."""

    def __init__(self, node, cause):
        super().__init__(node, str(cause))  # the args rebuild it when pickled
        self.node = node

    def __str__(self):
        return f"model failed at germ {self.args[0]}: {self.args[1]}"


def _apply(model, germs):
    """Model values at a chunk of germs.  A plain callable runs germ by germ
    and the first germ that raises is named, with no later germ evaluated;
    the first non-finite value of either kind of model is named too."""
    batch = getattr(model, "evaluate_batch", None)
    if batch is not None:
        values = np.asarray(batch(germs), dtype=float)
    else:
        values = np.empty(len(germs))
        for k, germ in enumerate(germs):
            try:
                values[k] = model(germ)
            except Exception as exc:
                raise ModelEvaluationError(germ, exc) from exc
    finite = np.isfinite(values)
    if not finite.all():
        raise ModelEvaluationError(germs[np.argmin(finite)],
                                   "non-finite model value")
    return values


def parallel_map(model, germs, jobs: int = 1) -> np.ndarray:
    """Model values at each germ, in germ order.

    The germs are cut into min(16, max(1, n // 64)) contiguous chunks, a
    number fixed by the germ count alone.  The chunks run in this process
    when jobs <= 1 or there is only one, else on one pool of
    min(jobs, chunks) workers.  Models exposing an `evaluate_batch` method
    (warm-startable dispatch evaluators) get whole chunks at once; since a
    batch's values depend on its germs alone, the result does not depend on
    `jobs` or on the pool's start method.  A model that raises or returns a
    non-finite value stops the map with a ModelEvaluationError naming the
    germ.
    """
    germs = np.atleast_2d(np.asarray(germs, dtype=float))
    chunks = np.array_split(germs, min(16, max(1, len(germs) // 64)))
    if jobs <= 1 or len(chunks) == 1:
        parts = [_apply(model, chunk) for chunk in chunks]
    else:
        with multiprocessing.Pool(min(jobs, len(chunks)), initializer=_init_worker,
                                  initargs=(model,)) as pool:
            parts = pool.map(_eval_chunk, chunks)
    return np.concatenate(parts)


@dataclass(frozen=True)
class Estimate:
    """One `report.csv` row: a method's estimate of E[Q] at one resolution
    (quadrature level or MC sample count) and realization, the model
    evaluations behind it, and its relative error against the mean of the
    next resolution's values (None at the method's finest resolution)."""
    method: str
    resolution: int
    realization: int
    n_evals: int
    value: float
    error: float | None


@dataclass(frozen=True)
class PowerLawFit:
    """error ~ amplitude * N^(-rate), fitted in log-log space."""
    amplitude: float
    rate: float


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple   # Estimates, PCE then MC, by resolution then realization
    pce_fit: PowerLawFit | None
    mc_fit: PowerLawFit | None

    def to_csv(self) -> str:
        out = ["method,resolution,realization,value,error"]
        for r in self.rows:
            err = "" if r.error is None else repr(r.error)
            out.append(f"{r.method},{r.resolution},{r.realization},{r.value!r},{err}")
        for name, fit in (("pce", self.pce_fit), ("mc", self.mc_fit)):
            if fit is not None:
                out.append(f"fit_{name},,,{fit.amplitude!r},{fit.rate!r}")
        return "\n".join(out) + "\n"

    def long_table(self) -> str:
        """Plot-friendly long format: one row per error point (n_evals, error)."""
        out = ["method,n_evals,error"]
        for r in self.rows:
            if r.error is not None:
                out.append(f"{r.method},{r.n_evals},{r.error!r}")
        return "\n".join(out) + "\n"

    def problems(self) -> list:
        """One line per row whose error disagrees with the values it is
        taken from, re-derived here with arithmetic of its own (`math.fsum`,
        not the study's `np.mean`) so that it checks the study's code rather
        than repeating it; empty when every error holds."""
        values = {}
        for r in self.rows:
            values.setdefault(r.method, {}).setdefault(r.resolution, []).append(r.value)
        found = []
        for r in self.rows:
            finer = sorted(res for res in values[r.method] if res > r.resolution)
            if not finer:
                ok = r.error is None
            else:
                nxt = values[r.method][finer[0]]
                ref = math.fsum(nxt) / len(nxt)
                want = abs(r.value - ref) / abs(ref)
                ok = r.error is not None and math.isfinite(r.error) \
                    and abs(r.error - want) <= 1e-12 * (1 + want)
            if not ok:
                found.append(f"{r.method.upper()} error at resolution {r.resolution}, "
                             f"realization {r.realization} inconsistent with the values "
                             f"it is taken from")
        return found


def fit_power_law(counts, errors) -> PowerLawFit | None:
    """OLS in log-log space; None when fewer than two positive errors exist."""
    pts = [(n, e) for n, e in zip(counts, errors) if e > 0]
    if len(pts) < 2:
        return None
    logn = np.log([p[0] for p in pts])
    loge = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(logn, loge, 1)
    return PowerLawFit(float(math.exp(intercept)), float(-slope))


def convergence_study(model, dimension: int, levels, mc_schedule,
                      realizations: int = 10, seed: int = 0,
                      jobs: int = 1) -> ConvergenceReport:
    """Run the dual convergence experiment at the given quadrature levels and
    MC sample counts; nested quadrature nodes are evaluated once and shared
    across levels, and all evaluations go through one `parallel_map` call."""
    levels = sorted(levels)
    mc_schedule = sorted(mc_schedule)
    if len(levels) < 2 or len(mc_schedule) < 2:
        raise ValueError("need at least two levels and two MC sample sizes")
    if realizations < 1:
        raise ValueError("need at least one realization")

    # every germ of the study goes through one map: the nested nodes of all
    # levels, each once in first-seen order, then each MC realization's draws
    grids = [build_sparse_grid(dimension, lvl) for lvl in levels]
    row_of: dict = {}
    for grid in grids:
        for node in grid.nodes:
            row_of.setdefault(tuple(node), len(row_of))
    draws = [_mc_stream(seed, i + 1, j).standard_normal((n, dimension))
             for i, n in enumerate(mc_schedule) for j in range(realizations)]
    germs = np.concatenate([np.array(list(row_of)), *draws])
    values = parallel_map(model, germs, jobs)

    pce = []
    for lvl, grid in zip(levels, grids):
        rows = [row_of[tuple(node)] for node in grid.nodes]
        pce.append((lvl, len(grid), [grid.integrate(values[rows])]))
    mc = []
    start = len(row_of)
    for n in mc_schedule:
        means = []
        for _ in range(realizations):
            means.append(float(values[start:start + n].mean()))
            start += n
        mc.append((n, n, means))
    estimates = _estimates("pce", pce) + _estimates("mc", mc)
    return ConvergenceReport(estimates, _fit(estimates, "pce"), _fit(estimates, "mc"))


def _estimates(method: str, resolutions) -> tuple:
    """An Estimate per value of each (resolution, n_evals, values), finest
    last, with its error against the mean of the next resolution's values."""
    out = []
    for (res, n_evals, vals), nxt in zip(resolutions, resolutions[1:] + [None]):
        ref = None if nxt is None else float(np.mean(nxt[2]))
        if ref == 0:
            raise ZeroDivisionError(f"relative {method.upper()} error undefined: "
                                    f"next resolution's mean estimate is zero")
        for j, value in enumerate(vals):
            error = None if ref is None else abs(value - ref) / abs(ref)
            out.append(Estimate(method, res, j, n_evals, value, error))
    return tuple(out)


def _fit(rows, method: str) -> PowerLawFit | None:
    """Power law through each resolution's mean error against its
    evaluation count."""
    errors = {}
    for r in rows:
        if r.method == method and r.error is not None:
            errors.setdefault((r.resolution, r.n_evals), []).append(r.error)
    return fit_power_law([n for _, n in errors], [float(np.mean(e)) for e in errors.values()])
