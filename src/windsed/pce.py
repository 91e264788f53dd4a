"""Nested sparse quadrature for the standard normal weight.  A Hermite
chaos's zeroth coefficient, the PCE estimate of E[Q], is the grid's
weighted sum of the model values at its nodes, `SparseGrid.integrate`:
Psi_0 = 1 has unit norm, so no basis or projection is needed for it.

The 1-D quadrature ladder is the nested family regenerated by
scripts/gen_quadrature_rules.py (1, 3, 7, 15 points, polynomial exactness
1/5/9/17).  Growth is delayed -- successive levels reuse a rule until the
next extension exists -- which is what makes a 16-dimensional level-1 grid
cost 33 model evaluations and a level-2 grid 513.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

# -- tabulated nested 1-D rules (node, weight), exact decimal constants ------
# Shared nodes repeat verbatim across rules so deduplication is exact.

_R1 = (
    ("0.0", "1.0"),
)
_R3 = (
    ("-1.73205080756887729352744634151", "0.166666666666666666666666666667"),
    ("0.0", "0.666666666666666666666666666667"),
    ("1.73205080756887729352744634151", "0.166666666666666666666666666667"),
)
_R7 = (
    ("-3.0", "0.00694444444444444444444444444444"),
    ("-1.73205080756887729352744634151", "0.0833333333333333333333333333333"),
    ("-1.0", "0.1875"),
    ("0.0", "0.444444444444444444444444444444"),
    ("1.0", "0.1875"),
    ("1.73205080756887729352744634151", "0.0833333333333333333333333333333"),
    ("3.0", "0.00694444444444444444444444444444"),
)
_R15 = (
    ("-4.58257569495584000658804719373", "0.0000158139224000116653205313553502"),
    ("-3.39116499156263406953227816331", "0.00108218889107669403155454680189"),
    ("-3.0", "0.00172637756257786838826594178276"),
    ("-2.23606797749978969640917366873", "0.0249694368131868131868131868132"),
    ("-1.73205080756887729352744634151", "0.0414410994476353953478136484672"),
    ("-1.0", "0.206570263975155279503105590062"),
    ("-0.628280862437543260472012226692", "0.0403929637020542809489768729446"),
    ("0.0", "0.367603711371827313856299363546"),
    ("0.628280862437543260472012226692", "0.0403929637020542809489768729446"),
    ("1.0", "0.206570263975155279503105590062"),
    ("1.73205080756887729352744634151", "0.0414410994476353953478136484672"),
    ("2.23606797749978969640917366873", "0.0249694368131868131868131868132"),
    ("3.0", "0.00172637756257786838826594178276"),
    ("3.39116499156263406953227816331", "0.00108218889107669403155454680189"),
    ("4.58257569495584000658804719373", "0.0000158139224000116653205313553502"),
)


def _parse(rule):
    nodes = np.array([float(x) for x, _ in rule])
    weights = np.array([float(w) for _, w in rule])
    return nodes, weights


# delayed growth: 1-D level -> rule; a rule repeats until its extension exists
_LADDER = [_parse(r) for r in (_R1, _R3, _R3, _R7, _R7, _R15)]
MAX_LEVEL = len(_LADDER) - 1  # grid level L uses 1-D levels up to L+1


def rule_1d(level: int):
    """Nodes and weights of the 1-D rule used at ladder position `level`
    (1-based)."""
    if not 1 <= level <= len(_LADDER):
        raise ValueError(f"no tabulated 1-D rule at level {level}")
    nodes, weights = _LADDER[level - 1]
    return nodes.copy(), weights.copy()


# -- sparse quadrature ---------------------------------------------------------

@dataclass(frozen=True)
class SparseGrid:
    dimension: int
    level: int
    nodes: np.ndarray    # (num_nodes, dimension)
    weights: np.ndarray  # (num_nodes,)

    def __len__(self):
        return len(self.weights)

    def integrate(self, values) -> float:
        values = np.asarray(values, dtype=float)
        if values.shape != self.weights.shape:
            raise ValueError("values/weights length mismatch")
        return math.fsum(self.weights * values)


def _delta(level: int):
    """Difference rule R_level - R_{level-1} on the nodes of R_level."""
    nodes, weights = _LADDER[level - 1]
    if level == 1:
        return nodes, weights
    pnodes, pweights = _LADDER[level - 2]
    w = weights.copy()
    pos = {x: i for i, x in enumerate(nodes)}
    for x, pw in zip(pnodes, pweights):
        w[pos[x]] -= pw  # nested: every parent node reappears verbatim
    return nodes, w


def _raised(total: int, first: int, dimension: int):
    """Level vectors over axes first.. whose parts l_i - 1 sum to total, as
    (axis, part) pairs for the raised axes alone, in the dense vectors'
    lexicographic order: the first raised axis runs from the last one down."""
    if total == 0:
        yield ()
        return
    for axis in range(dimension - 1, first - 1, -1):
        for part in range(1, total + 1):
            for rest in _raised(total - part, axis + 1, dimension):
                yield ((axis, part),) + rest


def build_sparse_grid(dimension: int, level: int) -> SparseGrid:
    """Smolyak combination of the nested 1-D ladder.

    Uses the telescoping (difference-rule) form: tensor products of
    Delta_l = R_l - R_{l-1} over all 1-D level vectors with
    sum(l_i - 1) <= level.  Only the axes a level vector raises above 1 are
    tensored; every other axis holds the one-node rule at 0 with weight 1.
    Delayed ladder positions have Delta = 0 and contribute nothing, which is
    what produces the 33/513 node counts in 16 dimensions at levels 1 and 2.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if not 1 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in 1..{MAX_LEVEL} (tabulated rules)")
    deltas = [_delta(l) for l in range(1, level + 2)]  # deltas[part]: l = part + 1
    acc: dict[tuple, float] = {}
    for surplus in range(0, level + 1):
        for raised in _raised(surplus, 0, dimension):
            rules = [deltas[part] for _, part in raised]
            if not all(w.any() for _, w in rules):
                continue
            for point in product(*(zip(x, w) for x, w in rules)):
                key, weight = [0.0] * dimension, 1.0
                for (axis, _), (x, w) in zip(raised, point):
                    key[axis] = round(float(x), 14)
                    weight *= float(w)
                key = tuple(key)
                acc[key] = acc.get(key, 0.0) + weight
    keys = sorted(acc.keys())
    nodes = np.array(keys, dtype=float).reshape(len(keys), dimension)
    weights = np.array([acc[k] for k in keys])
    return SparseGrid(dimension, level, nodes, weights)
