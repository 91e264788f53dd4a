import math
import re
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from pce_oracle import basis, project, total_degree
from windsed.estimate import ModelEvaluationError, parallel_map
from windsed.pce import MAX_LEVEL, build_sparse_grid, rule_1d
from sparse_grid_reference import build_sparse_grid_dense


def fit(model, grid, indices):
    """The oracle's coefficients of the model's values at the grid nodes,
    by multi-index."""
    return dict(zip(indices, project(grid, indices, parallel_map(model, grid.nodes))))


def gaussian_moment(alpha):
    """Analytic E[prod x_i^a_i] for iid standard normals: double factorials."""
    m = 1.0
    for a in alpha:
        if a % 2:
            return 0.0
        m *= math.prod(range(a - 1, 0, -2)) if a else 1.0
    return m


# -- the projection oracle ------------------------------------------------------

@pytest.mark.parametrize("n,p,count", [(16, 1, 17), (16, 2, 153), (2, 3, 10)])
def test_truncation_counts(n, p, count):
    indices = total_degree(n, p)
    assert len(indices) == count == len(set(indices))
    assert indices[0] == (0,) * n and max(map(sum, indices)) == p


def test_eval_basis_tensor_structure():
    indices = [(0, 0), (1, 1), (2, 0), (0, 3)]
    vals = basis(indices, np.array([[0.3, -1.2]]))[0]
    assert vals[0] == 1.0
    assert vals[1] == pytest.approx(0.3 * -1.2)
    assert vals[2] == pytest.approx(0.3 ** 2 - 1)  # He_2 = x^2 - 1
    assert vals[3] == pytest.approx((-1.2) ** 3 - 3 * -1.2)  # He_3 = x^3 - 3x


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
    coeff = fit(lambda x: 7.0, grid, total_degree(3, 1))
    assert coeff[(0, 0, 0)] == pytest.approx(7.0, abs=1e-12)
    assert max(abs(v) for k, v in coeff.items() if any(k)) < 1e-12


def test_project_polynomial_in_span():
    grid = build_sparse_grid(3, 3)
    coeff = fit(lambda x: 2 + 3 * x[0] + x[0] * x[1], grid, total_degree(3, 2))
    assert len(coeff) == 10
    assert coeff[(0, 0, 0)] == pytest.approx(2.0, abs=1e-10)
    assert coeff[(1, 0, 0)] == pytest.approx(3.0, abs=1e-10)
    assert coeff[(1, 1, 0)] == pytest.approx(1.0, abs=1e-10)
    others = [v for k, v in coeff.items()
              if k not in ((0, 0, 0), (1, 0, 0), (1, 1, 0))]
    assert max(abs(v) for v in others) < 1e-10


def test_project_quartic_mean_is_third_moment():
    """x^4 = He_4 + 6 He_2 + 3: the order-2 projection keeps c_0 = 3, and
    c_(2,0) = 6 divides by <He_2^2> = 2."""
    grid = build_sparse_grid(2, 4)  # integrates degree 4+2 exactly
    coeff = fit(lambda x: x[0] ** 4, grid, total_degree(2, 2))
    assert coeff[(0, 0)] == pytest.approx(3.0, abs=1e-10)
    assert coeff[(2, 0)] == pytest.approx(6.0, abs=1e-10)
    assert grid.integrate(grid.nodes[:, 0] ** 4) == pytest.approx(3.0, abs=1e-10)


def test_projection_idempotent():
    grid = build_sparse_grid(3, 3)
    indices = total_degree(3, 2)
    c1 = project(grid, indices, parallel_map(
        lambda x: math.exp(0.3 * x[0]) + x[1] * x[2], grid.nodes))
    c2 = project(grid, indices, basis(indices, grid.nodes) @ c1)
    assert np.max(np.abs(c1 - c2)) < 1e-10


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
