"""Expected-cost estimators and the Monte Carlo vs sparse-quadrature PCE
convergence experiment.

Error conventions follow the self-referencing form used throughout: each
resolution's estimate is compared against the next finer one,
E_PC,i = |c0_i - c0_{i+1}| / c0_{i+1} for quadrature levels and
E_MC,i^j = |mean_i^j - grand_mean_{i+1}| / grand_mean_{i+1} for sample
counts, with the grand mean taken over realizations.  Power-law rates come
from ordinary least squares in log-log space on the per-resolution mean
errors.
"""
from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass

import numpy as np

from .pce import PCESurrogate, build_sparse_grid

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


def mc_estimate(model, dimension: int, n_samples: int, seed: int,
                jobs: int = 1):
    """Sample mean and standard error of the model over iid N(0,1) germs."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    rng = _mc_stream(seed, 0, 0)
    vals = parallel_map(model, rng.standard_normal((n_samples, dimension)), jobs)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_samples))


@dataclass(frozen=True)
class PceRecord:
    level: int
    n_nodes: int
    c0: float


@dataclass(frozen=True)
class McRecord:
    n_samples: int
    realization: int
    mean: float


@dataclass(frozen=True)
class PowerLawFit:
    """error ~ amplitude * N^(-rate), fitted in log-log space."""
    amplitude: float
    rate: float


@dataclass
class ConvergenceReport:
    pce_records: tuple
    pce_errors: tuple   # (level, n_nodes, error) vs next level
    mc_records: tuple
    mc_errors: tuple    # (n_samples, realization, error) vs next size's grand mean
    pce_fit: PowerLawFit | None
    mc_fit: PowerLawFit | None

    def __post_init__(self):
        if any(e < 0 for *_, e in self.pce_errors):
            raise ValueError("negative PCE error")
        if any(e < 0 for *_, e in self.mc_errors):
            raise ValueError("negative MC error")
        nodes = [r.n_nodes for r in self.pce_records]
        sizes = sorted({r.n_samples for r in self.mc_records})
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise ValueError("PCE node counts must be strictly increasing")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("MC sample counts must be strictly increasing")

    def to_csv(self) -> str:
        out = ["method,resolution,realization,value,error"]
        pce_err = {lvl: e for lvl, _, e in self.pce_errors}
        for rec in self.pce_records:
            err = pce_err.get(rec.level, "")
            out.append(f"pce,{rec.level},0,{rec.c0!r},{err if err == '' else repr(err)}")
        mc_err = {(n, j): e for n, j, e in self.mc_errors}
        for rec in self.mc_records:
            err = mc_err.get((rec.n_samples, rec.realization), "")
            out.append(f"mc,{rec.n_samples},{rec.realization},{rec.mean!r},"
                       f"{err if err == '' else repr(err)}")
        for name, fit in (("pce", self.pce_fit), ("mc", self.mc_fit)):
            if fit is not None:
                out.append(f"fit_{name},,,{fit.amplitude!r},{fit.rate!r}")
        return "\n".join(out) + "\n"

    def long_table(self) -> str:
        """Plot-friendly long format: one row per error point (n_evals, error)."""
        out = ["method,n_evals,error"]
        node_of = {r.level: r.n_nodes for r in self.pce_records}
        for lvl, _, e in self.pce_errors:
            out.append(f"pce,{node_of[lvl]},{e!r}")
        for n, _, e in self.mc_errors:
            out.append(f"mc,{n},{e!r}")
        return "\n".join(out) + "\n"


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

    pce_records = []
    for lvl, grid in zip(levels, grids):
        rows = [row_of[tuple(node)] for node in grid.nodes]
        pce_records.append(PceRecord(lvl, len(grid), grid.integrate(values[rows])))

    pce_errors = []
    for cur, nxt in zip(pce_records, pce_records[1:]):
        if nxt.c0 == 0:
            raise ZeroDivisionError(
                "relative PCE error undefined: next-level estimate is zero")
        pce_errors.append((cur.level, cur.n_nodes,
                           abs(cur.c0 - nxt.c0) / abs(nxt.c0)))

    mc_records = []
    means = {}
    start = len(row_of)
    for i, n in enumerate(mc_schedule):
        for j in range(realizations):
            mean = float(values[start:start + n].mean())
            start += n
            means[(i, j)] = mean
            mc_records.append(McRecord(n, j, mean))

    mc_errors = []
    for i, n in enumerate(mc_schedule[:-1]):
        grand = float(np.mean([means[(i + 1, j)] for j in range(realizations)]))
        if grand == 0:
            raise ZeroDivisionError(
                "relative MC error undefined: next-size grand mean is zero")
        for j in range(realizations):
            mc_errors.append((n, j, abs(means[(i, j)] - grand) / abs(grand)))

    pce_fit = fit_power_law([n for _, n, _ in pce_errors],
                            [e for _, _, e in pce_errors])
    per_size = {}
    for n, _, e in mc_errors:
        per_size.setdefault(n, []).append(e)
    mc_fit = fit_power_law(list(per_size), [float(np.mean(v)) for v in per_size.values()])
    return ConvergenceReport(tuple(pce_records), tuple(pce_errors),
                             tuple(mc_records), tuple(mc_errors),
                             pce_fit, mc_fit)


def cross_validate(surrogate: PCESurrogate, model, n_test: int, seed: int,
                   jobs: int = 1) -> dict:
    """Relative L1 surrogate error on fresh test germs, normalized by the mean
    model value over the test set, reported as percentage quantiles."""
    if n_test < 1:
        raise ValueError("need at least one test sample")
    rng = _mc_stream(seed, 0x7E57, 0)
    germs = rng.standard_normal((n_test, surrogate.dimension))
    truth = parallel_map(model, germs, jobs)
    approx = surrogate(germs)
    ref = float(truth.mean())
    if ref == 0:
        raise ZeroDivisionError("relative error undefined: zero mean reference")
    rel = np.abs(truth - approx) / abs(ref) * 100.0
    qs = {q: float(np.percentile(rel, q)) for q in (10, 25, 50, 75, 90, 99)}
    return {"percent_errors": rel, "quantiles": qs, "median": qs[50]}
