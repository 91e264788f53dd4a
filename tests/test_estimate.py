import dataclasses
import math
import pickle
import threading

import numpy as np
import pytest

from windsed import estimate as est
from windsed.pce import build_sparse_grid


def quadratic_4d(g):
    return 100.0 + 3.0 * g[0] - 2.0 * g[1] + 1.5 * g[2] ** 2 + 0.8 * g[3] ** 2 \
        + 0.5 * g[0] * g[1]


QUAD_MEAN = 100.0 + 1.5 + 0.8  # analytic expectation


def pce_mean(model, dimension, level):
    """The PCE estimate of E[model], the zeroth coefficient: the level's
    weighted node sum, as `estimate.convergence_study` forms it."""
    grid = build_sparse_grid(dimension, level)
    return grid.integrate(est.parallel_map(model, grid.nodes))


def errors(rep, method):
    return [r.error for r in rep.rows if r.method == method and r.error is not None]


def values(rep, method, resolution):
    return [r.value for r in rep.rows
            if r.method == method and r.resolution == resolution]


def fails_at_200(g):
    """Pool-picklable model that raises at exactly one germ, (200, 0)."""
    if g[0] == 200:
        raise RuntimeError("no dispatch")
    return float(g[0])


def test_pce_estimate_constant_and_lognormal():
    assert pce_mean(lambda g: 3.25, 2, level=2) == pytest.approx(3.25, abs=1e-12)
    got = pce_mean(lambda g: math.exp(0.1 * g[0]), 1, level=4)
    assert got == pytest.approx(math.exp(0.005), abs=1e-8)


def test_pce_estimate_equals_weighted_node_sum():
    grid = build_sparse_grid(3, 2)
    model = lambda g: 1.0 + g[0] ** 2 + math.sin(g[1])
    direct = math.fsum(w * model(x) for w, x in zip(grid.weights, grid.nodes))
    assert pce_mean(model, 3, level=2) == pytest.approx(direct, abs=1e-12)


def test_pce_and_mc_agree_on_smooth_model():
    model = lambda g: math.exp(0.2 * g[0] - 0.1 * g[1])
    c0 = pce_mean(model, 2, level=4)
    draws = np.random.Generator(np.random.Philox(key=[5, 0x3C000000]))
    values = est.parallel_map(model, draws.standard_normal((400_000, 2)))
    assert abs(c0 - values.mean()) < 4 * values.std(ddof=1) / math.sqrt(len(values))


# -- convergence study --------------------------------------------------------

def test_constant_model_all_errors_zero():
    rep = est.convergence_study(lambda g: 42.0, 2, levels=[1, 2],
                                mc_schedule=[10, 100], realizations=3, seed=0)
    # c0 per level is 42 * sum(weights); sums agree with 1 only to ~1e-15
    assert all(e < 1e-13 for e in errors(rep, "pce"))
    assert all(e == 0.0 for e in errors(rep, "mc"))
    assert rep.mc_fit is None  # no positive MC errors to fit


def test_quadratic_mc_rate_near_half():
    rep = est.convergence_study(quadratic_4d, 4, levels=[1, 2, 3],
                                mc_schedule=[10, 100, 1000, 10000],
                                realizations=10, seed=42)
    assert 0.35 <= rep.mc_fit.rate <= 0.65
    # quadrature integrates the quadratic exactly at every level
    assert all(e < 1e-10 for e in errors(rep, "pce"))
    assert values(rep, "pce", 3) == [pytest.approx(QUAD_MEAN)]


def test_study_is_bitwise_deterministic():
    kwargs = dict(levels=[1, 2], mc_schedule=[10, 100], realizations=4, seed=9)
    r1 = est.convergence_study(quadratic_4d, 4, **kwargs)
    r2 = est.convergence_study(quadratic_4d, 4, **kwargs)
    assert r1.to_csv() == r2.to_csv()
    assert r1.long_table() == r2.long_table()


def test_study_input_validation():
    with pytest.raises(ValueError):
        est.convergence_study(quadratic_4d, 4, levels=[2],
                              mc_schedule=[10, 100], realizations=2, seed=0)
    with pytest.raises(ValueError):
        est.convergence_study(quadratic_4d, 4, levels=[1, 2],
                              mc_schedule=[10], realizations=2, seed=0)
    with pytest.raises(ValueError):
        est.convergence_study(quadratic_4d, 4, levels=[1, 2],
                              mc_schedule=[10, 100], realizations=0, seed=0)


def test_zero_reference_reported_as_failure():
    with pytest.raises(ZeroDivisionError):
        est.convergence_study(lambda g: g[0], 1, levels=[1, 2],
                              mc_schedule=[10, 100], realizations=2, seed=0)


def test_report_csv_shape():
    rep = est.convergence_study(quadratic_4d, 4, levels=[1, 2],
                                mc_schedule=[10, 100], realizations=2, seed=3)
    lines = rep.to_csv().splitlines()
    assert lines[0] == "method,resolution,realization,value,error"
    assert sum(1 for l in lines if l.startswith("pce,")) == 2
    assert sum(1 for l in lines if l.startswith("mc,")) == 4
    long_lines = rep.long_table().splitlines()
    assert long_lines[0] == "method,n_evals,error"
    assert len(long_lines) == 1 + 1 + 2  # one PCE error pair, two MC errors


def test_mc_grand_mean_converges_to_c0():
    model = lambda g: math.exp(0.15 * g[0]) + 0.5 * g[1] ** 2
    rep = est.convergence_study(model, 2, levels=[2, 3, 4],
                                mc_schedule=[100, 1000, 10000],
                                realizations=10, seed=21)
    [c0_best] = values(rep, "pce", 4)
    biggest = values(rep, "mc", 10000)
    grand = float(np.mean(biggest))
    spread = float(np.std(biggest, ddof=1) / math.sqrt(len(biggest)))
    assert abs(grand - c0_best) < 4 * max(spread, 1e-12)


def test_problems_names_each_row_whose_error_is_off():
    """`problems()` re-derives every row's error from the rows' values: it
    names a PCE error shifted by 1e-9 relative and a NaN MC error, and no
    other row."""
    model = lambda g: math.exp(1.5 * g[0]) + g[1] ** 2
    rep = est.convergence_study(model, 2, levels=[1, 2, 3], mc_schedule=[10, 100],
                                realizations=2, seed=4)
    assert rep.problems() == []
    rows = list(rep.rows)
    k = next(i for i, r in enumerate(rows) if r.method == "pce" and r.error > 1e-2)
    m = next(i for i, r in enumerate(rows) if r.method == "mc" and r.error is not None)
    rows[k] = dataclasses.replace(rows[k], error=rows[k].error * (1 + 1e-9))
    rows[m] = dataclasses.replace(rows[m], error=float("nan"))
    found = dataclasses.replace(rep, rows=tuple(rows)).problems()
    assert len(found) == 2
    assert f"PCE error at resolution {rows[k].resolution}, realization 0 " in found[0]
    assert f"MC error at resolution 10, realization {rows[m].realization} " in found[1]


def test_nested_nodes_evaluated_once():
    calls = []

    def counting(g):
        calls.append(tuple(g))
        return 1.0 + g[0] ** 2

    est.convergence_study(counting, 2, levels=[1, 2, 3],
                          mc_schedule=[10, 100], realizations=1, seed=0)
    grid_calls = len(calls) - (10 + 100)
    assert grid_calls == len(build_sparse_grid(2, 3))  # shared across levels


# -- power-law fit ------------------------------------------------------------

def test_fit_power_law_recovers_slope():
    ns = np.array([10, 100, 1000, 10000])
    errs = 3.0 * ns ** -0.5
    fit = est.fit_power_law(ns, errs)
    assert fit.rate == pytest.approx(0.5, abs=1e-12)
    assert fit.amplitude == pytest.approx(3.0, rel=1e-9)
    assert est.fit_power_law([10, 100], [0.0, 0.0]) is None


def test_parallel_map_matches_serial():
    germs = np.random.default_rng(0).standard_normal((300, 4))
    serial = est.parallel_map(quadratic_4d, germs, jobs=1)
    twice = est.parallel_map(quadratic_4d, germs, jobs=2)
    assert np.array_equal(serial, twice)


@pytest.mark.parametrize("n, jobs, workers", [(128, 8, 2), (256, 2, 2)])
def test_pool_starts_no_more_workers_than_chunks(n, jobs, workers, monkeypatch):
    """The pool holds min(jobs, chunks) workers: 128 germs make 2 chunks,
    so 8 jobs ask for 2 processes.  The stand-in pool records the count and
    runs the chunks in this process, so no process starts."""
    asked = []

    class StandInPool:
        def __init__(self, processes, initializer, initargs):
            asked.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return [func(item) for item in items]

    monkeypatch.setattr(est._WorkerState, "model", None)
    monkeypatch.setattr(est.multiprocessing, "Pool", StandInPool)
    germs = np.random.default_rng(0).standard_normal((n, 4))
    values = est.parallel_map(quadratic_4d, germs, jobs=jobs)
    assert asked == [workers]
    assert np.array_equal(values, est.parallel_map(quadratic_4d, germs, jobs=1))


def test_model_evaluation_error_survives_pickling():
    err = est.ModelEvaluationError(np.array([0.5, -1.0]), RuntimeError("boom"))
    back = pickle.loads(pickle.dumps(err))
    assert np.array_equal(back.node, err.node)
    assert str(back) == str(err) and "boom" in str(back)


def test_pool_worker_failure_names_its_germ():
    """A model that raises inside a pool worker stops the map with the
    germ named, and the map returns instead of hanging."""
    germs = np.stack([np.arange(256.0), np.zeros(256)], axis=1)  # 4 chunks
    caught = []

    def run():
        try:
            est.parallel_map(fails_at_200, germs, jobs=2)
        except est.ModelEvaluationError as exc:
            caught.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "parallel_map hung on a worker failure"
    assert len(caught) == 1 and "no dispatch" in str(caught[0])
    assert np.array_equal(caught[0].node, [200.0, 0.0])


def test_non_finite_batch_value_names_its_germ():
    class Batch:
        def evaluate_batch(self, germs):
            return np.where(germs[:, 0] > 1, np.inf, 1.0)

    germs = np.array([[0.0], [0.5], [1.5], [2.5]])
    with pytest.raises(est.ModelEvaluationError, match="non-finite") as info:
        est.parallel_map(Batch(), germs)
    assert np.array_equal(info.value.node, [1.5])
