"""Per-candidate loop form of `RepeatSolver._ratio_test`, kept as the reference
the vectorized version is checked against."""
import numpy as np

from windsed.lp_solver import FEAS_TOL, PIVOT_TOL

INF = float("inf")


def ratio_test_loop(sim, q, sigma, delta, phase1):
    best_t = INF
    best_pos = -2
    best_bound = 0.0
    span = sim.upper[q] - sim.lower[q]
    if np.isfinite(span):
        best_t = span
        best_pos = -1
    rate = -sigma * delta
    xb = sim.x[sim.basic]
    lob = sim.lower[sim.basic]
    upb = sim.upper[sim.basic]
    ftol = FEAS_TOL
    idx = np.flatnonzero(np.abs(delta) > PIVOT_TOL)
    cand_t = np.full(len(idx), INF)
    cand_bound = np.zeros(len(idx))
    for k, i in enumerate(idx):
        r = rate[i]
        xi, lo, up = xb[i], lob[i], upb[i]
        if r > 0:
            if phase1 and xi > up + ftol:
                continue
            if phase1 and xi < lo - ftol:
                cand_t[k] = (lo - xi) / r
                cand_bound[k] = lo
            elif up != INF:
                cand_t[k] = max((up - xi) / r, 0.0)
                cand_bound[k] = up
        else:
            if phase1 and xi < lo - ftol:
                continue
            if phase1 and xi > up + ftol:
                cand_t[k] = max((up - xi) / r, 0.0)
                cand_bound[k] = up
            elif lo != -INF:
                cand_t[k] = max((lo - xi) / r, 0.0)
                cand_bound[k] = lo
    if len(idx):
        tmin = cand_t.min()
        if tmin < best_t:
            close = np.flatnonzero(cand_t <= tmin + 1e-9)
            if sim.use_bland:
                order = np.argsort(sim.basic[idx[close]])
                k = close[order[0]]
            else:
                k = close[np.argmax(np.abs(delta[idx[close]]))]
            best_t = cand_t[k]
            best_pos = int(idx[k])
            best_bound = cand_bound[k]
    return best_t, best_pos, best_bound
