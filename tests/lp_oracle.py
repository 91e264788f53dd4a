"""Brute-force vertex enumeration oracle for small bounded LPs, dense
dual values and bound violations of a solution, and a reader of the LP text
dump (`LinearProgram.to_text`, `--dump-lp`).

The oracle is independent of the simplex implementation: it enumerates
every choice of n active hyperplanes drawn from {row at lower, row at
upper, var at lower, var at upper}, solves the square systems in batches,
keeps feasible points, and takes the best objective.  It requires finite
variable bounds so the feasible set is a polytope (every nonempty one has a
vertex).
"""
import itertools

import numpy as np

from windsed.lp_solver import LinearProgram

FEAS_EPS = 1e-9
INF = float("inf")


def _planes(A, rlo, rhi, lo, up):
    m, n = A.shape
    planes = []
    for i in range(m):
        if np.isfinite(rlo[i]):
            planes.append((A[i], rlo[i]))
        if np.isfinite(rhi[i]) and rhi[i] != rlo[i]:
            planes.append((A[i], rhi[i]))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        planes.append((e, lo[j]))
        if up[j] != lo[j]:
            planes.append((e, up[j]))
    return planes


def count_combinations(A, rlo, rhi, lo, up) -> int:
    from math import comb
    n = A.shape[1]
    return comb(len(_planes(A, rlo, rhi, lo, up)), n)


def vertex_enumeration(c, A, rlo, rhi, lo, up, batch: int = 50_000):
    """Return ("infeasible", None) or ("optimal", best_objective)."""
    A = np.asarray(A, dtype=float).reshape(len(rlo), len(c))
    m, n = A.shape
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(up))):
        raise ValueError("oracle needs finite variable bounds")
    planes = _planes(A, rlo, rhi, lo, up)
    normals = np.array([p[0] for p in planes])
    offsets = np.array([p[1] for p in planes])
    best = None
    combos = itertools.combinations(range(len(planes)), n)
    while True:
        chunk = list(itertools.islice(combos, batch))
        if not chunk:
            break
        idx = np.array(chunk)                      # (B, n)
        M = normals[idx]                           # (B, n, n)
        b = offsets[idx]                           # (B, n)
        dets = np.linalg.det(M)
        ok = np.abs(dets) > 1e-10
        if not ok.any():
            continue
        x = np.linalg.solve(M[ok], b[ok][..., None])[..., 0]
        scale = 1.0 + np.max(np.abs(x), axis=1)
        feas = np.all(x >= lo - FEAS_EPS * scale[:, None], axis=1)
        feas &= np.all(x <= up + FEAS_EPS * scale[:, None], axis=1)
        if m:
            ax = x @ A.T
            feas &= np.all(ax >= rlo - FEAS_EPS * scale[:, None], axis=1)
            feas &= np.all(ax <= rhi + FEAS_EPS * scale[:, None], axis=1)
        if feas.any():
            vals = x[feas] @ c
            lo_val = float(vals.min())
            if best is None or lo_val < best:
                best = lo_val
    if best is None:
        return "infeasible", None
    return "optimal", best


def random_lp(rng, max_vars: int = 8, max_rows: int = 8,
              max_combos: int = 120_000):
    """Random bounded LP whose oracle cost stays below max_combos systems."""
    while True:
        n = int(rng.integers(1, max_vars + 1))
        m = int(rng.integers(0, max_rows + 1))
        A = np.round(rng.normal(size=(m, n)) * rng.choice([0.5, 2.0, 8.0]), 3)
        A = A * (rng.random((m, n)) < 0.85)
        c = np.round(rng.normal(size=n) * 3, 2)
        lo = np.round(rng.uniform(-4, 0, n), 2)
        up = lo + np.round(rng.uniform(0, 5, n), 2)
        fix = rng.random(n) < 0.1
        up[fix] = lo[fix]
        rlo = np.full(m, -np.inf)
        rhi = np.full(m, np.inf)
        for i in range(m):
            kind = rng.integers(0, 4)
            a, b = sorted(rng.uniform(-5, 5, 2))
            if kind == 0:
                rlo[i] = a
            elif kind == 1:
                rhi[i] = b
            elif kind == 2:
                rlo[i], rhi[i] = a, b
            else:
                rlo[i] = rhi[i] = round(a, 2)
        if count_combinations(A, rlo, rhi, lo, up) <= max_combos:
            return c, A, rlo, rhi, lo, up


def basis_duals(lp: LinearProgram, basis) -> tuple[np.ndarray, np.ndarray]:
    """Row duals y and structural reduced costs d of a basis, by dense
    solves: with every row's logical s in A x - s = 0, B' y = c_B over the
    basic columns of [A, -I], and d = c - A' y."""
    A = lp.matrix().toarray()
    full = np.hstack([A, -np.eye(lp.num_rows)])
    cost = np.concatenate([lp.objective, np.zeros(lp.num_rows)])
    y = np.linalg.solve(full[:, basis.basic].T, cost[basis.basic])
    return y, lp.objective - A.T @ y


def bound_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """The largest amount by which x breaks a column bound or a row's
    activity A x breaks a row bound; zero when x is feasible."""
    ax = lp.matrix() @ x
    return float(np.max(np.concatenate([
        lp.col_lower - x, x - lp.col_upper, lp.row_lower - ax, ax - lp.row_upper]),
        initial=0.0))


def lp_from_text(text: str) -> LinearProgram:
    """Parse the to_text dump back into an equivalent program."""
    header, *lines = [l for l in text.splitlines() if l.strip()]
    sizes = dict(kv.split("=") for kv in header.split()[1:])
    m, n = int(sizes["rows"]), int(sizes["cols"])
    section = None
    obj = np.zeros(n)
    rlo = np.full(m, -INF)
    rhi = np.full(m, INF)
    clo = np.full(n, -INF)
    cup = np.full(n, INF)
    rows, cols, vals = [], [], []
    for line in lines:
        token = line.strip()
        if token in ("OBJECTIVE", "MATRIX", "ROWBOUNDS", "COLBOUNDS"):
            section = token
            continue
        parts = token.split()
        if section == "OBJECTIVE":
            obj[int(parts[0])] = float(parts[1])
        elif section == "MATRIX":
            rows.append(int(parts[0]))
            cols.append(int(parts[1]))
            vals.append(float(parts[2]))
        elif section == "ROWBOUNDS":
            rlo[int(parts[0])] = float(parts[1])
            rhi[int(parts[0])] = float(parts[2])
        elif section == "COLBOUNDS":
            clo[int(parts[0])] = float(parts[1])
            cup[int(parts[0])] = float(parts[2])
        else:
            raise ValueError(f"unexpected line outside section: {line!r}")
    return LinearProgram(n, m, obj, rows, cols, vals, rlo, rhi, clo, cup)
