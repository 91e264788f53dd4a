import inspect
import math
import re
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from windsed.estimate import ModelEvaluationError, parallel_map
from windsed.pce import (MAX_LEVEL, MultiIndexSet, PCESurrogate,
                         build_sparse_grid, eval_basis, hermite, project,
                         rule_1d)
from sparse_grid_reference import build_sparse_grid_dense


def fit(model, grid, idx):
    """Surrogate projected from the model's values at the grid nodes."""
    return project(grid, idx, parallel_map(model, grid.nodes))


def gaussian_moment(alpha):
    """Analytic E[prod x_i^a_i] for iid standard normals: double factorials."""
    m = 1.0
    for a in alpha:
        if a % 2:
            return 0.0
        m *= math.prod(range(a - 1, 0, -2)) if a else 1.0
    return m


# -- multi-index sets ---------------------------------------------------------

@pytest.mark.parametrize("n,p,count", [(16, 1, 17), (16, 2, 153), (2, 3, 10)])
def test_truncation_counts(n, p, count):
    assert len(MultiIndexSet.total_degree(n, p)) == count


def test_index_zero_is_origin_and_order_graded():
    idx = MultiIndexSet.total_degree(3, 2)
    assert idx.indices[0] == (0, 0, 0)
    assert idx.indices[1] == (1, 0, 0)  # first coordinate leads within degree 1
    degrees = [sum(t) for t in idx.indices]
    assert degrees == sorted(degrees)
    assert len(set(idx.indices)) == len(idx.indices)


def test_norms_are_factorial_products():
    idx = MultiIndexSet.total_degree(2, 3)
    norms = dict(zip(idx.indices, idx.norms_squared()))
    assert norms[(0, 0)] == 1.0
    assert norms[(3, 0)] == 6.0
    assert norms[(1, 2)] == 2.0


# -- Hermite polynomials ---------------------------------------------------------

def test_hermite_base_cases():
    assert hermite(0, 123.4) == 1.0
    assert hermite(1, 0.7) == 0.7
    assert hermite(2, 0.0) == -1.0  # He_2 = x^2 - 1


def test_hermite_norm_via_quadrature_oracle():
    xs, ws = hermegauss(10)
    ws = ws / ws.sum()
    h3 = hermite(3, xs)
    assert abs(np.sum(ws * h3 * h3) - 6.0) < 1e-10
    h2 = hermite(2, xs)
    assert abs(np.sum(ws * h2 * h3)) < 1e-10  # orthogonality


def test_eval_basis_tensor_structure():
    idx = MultiIndexSet.total_degree(2, 2)
    vals = dict(zip(idx.indices, eval_basis(idx, np.array([0.3, -1.2]))))
    assert vals[(0, 0)] == 1.0
    assert vals[(1, 1)] == pytest.approx(0.3 * -1.2)
    assert vals[(2, 0)] == pytest.approx(0.3 ** 2 - 1)
    with pytest.raises(ValueError):
        eval_basis(idx, np.zeros(3))


def test_eval_basis_over_many_points_matches_one_at_a_time():
    """Rows for an (N, d) array of points are bit-identical to one call per
    point, and a (2, 3, d) array keeps its leading axes."""
    idx = MultiIndexSet.total_degree(3, 3)
    pts = np.random.default_rng(5).standard_normal((6, 3))
    rows = eval_basis(idx, pts)
    assert rows.shape == (6, len(idx))
    for row, pt in zip(rows, pts):
        assert np.array_equal(row, eval_basis(idx, pt))
    assert np.array_equal(eval_basis(idx, pts.reshape(2, 3, 3)),
                          rows.reshape(2, 3, len(idx)))
    with pytest.raises(ValueError):
        eval_basis(idx, pts[:, :2])


# -- sparse grids ------------------------------------------------------------------

def test_grid_counts_16d():
    assert len(build_sparse_grid(16, 1)) == 33
    assert len(build_sparse_grid(16, 2)) == 513


@pytest.mark.parametrize("n,level", [(n, level) for n in range(1, 9)
                                     for level in range(1, 6)]
                         + [(16, 1), (16, 2), (16, 3)])
def test_grid_matches_dense_reference_bit_for_bit(n, level):
    """The walk over raised axes visits level vectors in the dense walk's
    order, so nodes and weights agree to the last bit."""
    grid, want = build_sparse_grid(n, level), build_sparse_grid_dense(n, level)
    assert grid.nodes.shape == want.nodes.shape
    assert grid.nodes.tobytes() == want.nodes.tobytes()
    assert grid.weights.tobytes() == want.weights.tobytes()


def test_grid_builds_beyond_32_dimensions():
    """`np.meshgrid` capped the dense builder at 32 axes."""
    grid = build_sparse_grid(48, 3)
    assert len(grid) == 143169
    assert abs(math.fsum(grid.weights) - 1.0) < 1e-8


def test_weights_sum_to_one():
    for n, level in ((1, 3), (4, 2), (16, 2)):
        g = build_sparse_grid(n, level)
        assert abs(g.weights.sum() - 1.0) < 1e-12


def test_grids_nest():
    for n in (2, 5):
        prev = set()
        for level in range(1, 5):
            nodes = set(map(tuple, build_sparse_grid(n, level).nodes))
            assert prev <= nodes
            prev = nodes


def test_1d_rules_match_table_and_moments():
    nodes, weights = rule_1d(1)
    assert nodes.tolist() == [0.0] and weights.tolist() == [1.0]
    for level in range(2, MAX_LEVEL + 2):  # the 1-point rule is exact to deg 1 only
        nodes, weights = rule_1d(level)
        assert abs(np.sum(weights * nodes ** 2) - 1.0) < 1e-12
        assert abs(weights.sum() - 1.0) < 1e-14
        assert np.all(weights > 0)
    with pytest.raises(ValueError):
        rule_1d(MAX_LEVEL + 2)


def test_gen_quadrature_rules_regenerates_each_rung():
    """scripts/gen_quadrature_rules.py prints, rule by rule, the decimal
    constants whose floats every rung of `rule_1d` holds, float for float."""
    root = Path(__file__).parent.parent
    proc = subprocess.run([sys.executable, str(root / "scripts" / "gen_quadrature_rules.py")],
                          capture_output=True, text=True, check=True)
    printed = [np.array([[float(v) for v in re.findall(r'"([^"]+)"', line)]
                         for line in block.splitlines() if line.startswith("    (")])
               for block in proc.stdout.strip().split("\n\n")]
    assert [len(rule) for rule in printed] == [1, 3, 7, 15]
    by_size = {len(rule): rule for rule in printed}
    for level in range(1, MAX_LEVEL + 2):
        nodes, weights = rule_1d(level)
        rule = by_size[len(nodes)]
        assert np.array_equal(nodes, rule[:, 0]) and np.array_equal(weights, rule[:, 1])


def test_monomial_exactness_through_2l_minus_1():
    for n in range(1, 5):
        for level in (1, 2, 3, 4):
            g = build_sparse_grid(n, level)
            maxdeg = 2 * level - 1
            for alpha in product(range(maxdeg + 1), repeat=n):
                if sum(alpha) > maxdeg:
                    continue
                vals = np.prod(g.nodes ** np.array(alpha), axis=1)
                assert abs(g.integrate(vals) - gaussian_moment(alpha)) < 1e-10, \
                    (n, level, alpha)


def test_level_bounds_checked():
    with pytest.raises(ValueError):
        build_sparse_grid(2, 0)
    with pytest.raises(ValueError):
        build_sparse_grid(2, MAX_LEVEL + 1)
    with pytest.raises(ValueError):
        build_sparse_grid(0, 1)


# -- projection --------------------------------------------------------------------

def test_project_constant():
    grid = build_sparse_grid(3, 2)
    idx = MultiIndexSet.total_degree(3, 1)
    s = fit(lambda x: 7.0, grid, idx)
    assert s.mean() == pytest.approx(7.0, abs=1e-12)
    assert np.max(np.abs(s.coefficients[1:])) < 1e-12
    assert s.variance() == pytest.approx(0.0, abs=1e-12)


def test_project_polynomial_in_span():
    grid = build_sparse_grid(3, 3)
    idx = MultiIndexSet.total_degree(3, 2)
    s = fit(lambda x: 2 + 3 * x[0] + x[0] * x[1], grid, idx)
    coeff = dict(zip(idx.indices, s.coefficients))
    assert coeff[(0, 0, 0)] == pytest.approx(2.0, abs=1e-10)
    assert coeff[(1, 0, 0)] == pytest.approx(3.0, abs=1e-10)
    assert coeff[(1, 1, 0)] == pytest.approx(1.0, abs=1e-10)
    others = [v for k, v in coeff.items()
              if k not in ((0, 0, 0), (1, 0, 0), (1, 1, 0))]
    assert max(abs(v) for v in others) < 1e-10


def test_project_quartic_mean_is_third_moment():
    grid = build_sparse_grid(2, 4)  # integrates degree 4+2 exactly
    idx = MultiIndexSet.total_degree(2, 2)
    s = fit(lambda x: x[0] ** 4, grid, idx)
    assert s.mean() == pytest.approx(3.0, abs=1e-10)


def test_projection_idempotent():
    grid = build_sparse_grid(3, 3)
    idx = MultiIndexSet.total_degree(3, 2)
    s1 = fit(lambda x: math.exp(0.3 * x[0]) + x[1] * x[2], grid, idx)
    s2 = project(grid, idx, s1(grid.nodes))
    assert np.max(np.abs(s1.coefficients - s2.coefficients)) < 1e-10


def test_project_requires_sufficient_level():
    grid = build_sparse_grid(3, 2)
    idx = MultiIndexSet.total_degree(3, 2)  # order 2 needs level >= 3
    with pytest.raises(ValueError, match="level"):
        project(grid, idx, np.ones(len(grid)))


def test_model_failure_carries_node():
    """A non-finite value is named by its germ, the first in germ order."""
    grid = build_sparse_grid(2, 2)

    def bad(x):
        return float("nan") if abs(x[0]) > 1 else 1.0

    with pytest.raises(ModelEvaluationError, match="non-finite") as info:
        parallel_map(bad, grid.nodes)
    first = next(node for node in grid.nodes if abs(node[0]) > 1)
    assert np.array_equal(info.value.node, first)


def test_model_exception_names_its_node():
    """Germs are evaluated one at a time in germ order; the first that
    raises is named, and no later germ is evaluated."""
    grid = build_sparse_grid(2, 2)
    bad = grid.nodes[5]
    seen = []

    def model(x):
        seen.append(x.copy())
        if np.array_equal(x, bad):
            raise RuntimeError("boom")
        return 1.0

    with pytest.raises(ModelEvaluationError, match="boom") as info:
        parallel_map(model, grid.nodes)
    assert np.array_equal(info.value.node, bad)
    assert np.array_equal(seen, grid.nodes[:6])


def test_project_names_failing_node():
    """Projection takes values only; the map that produces them names a
    failing node, and values that do not match the grid are refused."""
    grid = build_sparse_grid(2, 2)
    idx = MultiIndexSet.total_degree(2, 1)
    bad = grid.nodes[-1]

    def model(x):
        if np.array_equal(x, bad):
            raise ValueError("no dispatch")
        return 1.0

    with pytest.raises(ModelEvaluationError, match="no dispatch") as info:
        fit(model, grid, idx)
    assert np.array_equal(info.value.node, bad)
    assert list(inspect.signature(project).parameters) == ["grid", "idxset",
                                                           "values"]
    with pytest.raises(ValueError, match="nodes"):
        project(grid, idx, np.ones(len(grid) - 1))


# -- surrogate ---------------------------------------------------------------------

def test_surrogate_moments_and_eval():
    idx = MultiIndexSet.total_degree(2, 1)
    coeffs = np.zeros(len(idx))
    coeffs[list(idx.indices).index((1, 0))] = 3.0
    s = PCESurrogate(idx, coeffs)
    assert s.mean() == 0.0
    assert s.variance() == pytest.approx(9.0)  # <He_1^2> = 1
    assert s(np.array([2.0, 5.0])) == pytest.approx(6.0)


def test_surrogate_reproduces_span_model_at_nodes():
    grid = build_sparse_grid(2, 3)
    idx = MultiIndexSet.total_degree(2, 2)
    model = lambda x: 1 + x[0] - 2 * x[1] + 0.5 * x[0] * x[1] + x[1] ** 2
    s = fit(model, grid, idx)
    for node in grid.nodes:
        assert s(node) == pytest.approx(model(node), abs=1e-9)
    # one call for many points gives the same correctly rounded sums
    assert np.array_equal(s(grid.nodes), [s(node) for node in grid.nodes])
    assert isinstance(s(grid.nodes[0]), float)


def test_surrogate_variance_matches_monte_carlo():
    grid = build_sparse_grid(2, 3)
    idx = MultiIndexSet.total_degree(2, 2)
    s = fit(lambda x: x[0] + 0.5 * x[0] * x[1] + 0.2 * (x[1] ** 2 - 1),
            grid, idx)
    rng = np.random.default_rng(99)
    draws = rng.standard_normal((1_000_000, 2))
    vals = (draws[:, 0] + 0.5 * draws[:, 0] * draws[:, 1]
            + 0.2 * (draws[:, 1] ** 2 - 1))
    assert s.variance() == pytest.approx(float(vals.var()), rel=0.01)
