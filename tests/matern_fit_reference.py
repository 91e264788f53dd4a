"""The 25-start Nelder-Mead search that once fitted every Matern kernel,
kept as the reference `forecast.fit_matern` is checked against: its
residual evaluates the model at all 576 pooled lags, and a search runs
from each point of a 5 x 5 (l, nu) grid."""
import numpy as np
from scipy.optimize import minimize

from windsed.forecast import MaternKernel, _pooled_lag_data, matern

STARTS = [(ell, nu) for ell in (2.0, 5.0, 11.0, 20.0, 40.0)
          for nu in (0.3, 0.5, 0.8, 1.5, 3.0)]


def pooled_residual(cov):
    """The least-squares residual of the normalized Matern model over the
    pooled lag-decay data of `cov`, a function of (l, nu)."""
    lags, vals = _pooled_lag_data(np.asarray(cov, dtype=float))

    def residual(params):
        ell, nu = params
        if ell <= 0 or nu <= 0:
            return 1e12
        model = matern(lags, MaternKernel(ell, nu, 1.0))
        return float(np.sum((model - vals) ** 2))
    return residual


def search(cov, start):
    """One Nelder-Mead search of the pooled residual from `start`."""
    return minimize(pooled_residual(cov), start, method="Nelder-Mead",
                    options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 4000})


def multistart_fit(cov):
    """The search of least residual among those from every grid start that
    end at a positive (l, nu); None when none does."""
    best = None
    for start in STARTS:
        res = search(cov, start)
        if res.x[0] > 0 and res.x[1] > 0 and (best is None or res.fun < best.fun):
            best = res
    return best
