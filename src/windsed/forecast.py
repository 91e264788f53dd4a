"""Forecast-consistent wind power scenario generation.

Per site: fit or specify a Matern covariance over the 24-hour lag grid,
scale it by a sigma_W derived from the forecast power uncertainty sigma_P,
eigendecompose, and map iid standard-normal germs through the truncated
expansion into log-wind fields around the day-ahead forecast profile, then
through the rated power curve.  Cross-site dependence of leading modes is
modeled as exact sharing of germ coordinates.

A scenario is its germ: everything here is a deterministic function of the
germs it is given, which the estimators (`estimate`) or the caller draw.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as gamma_fn, kv

from .wind_kl import HOURS, KLBasis, PowerCurve, kl_decompose, reconstruct


class ForecastError(Exception):
    pass


@dataclass(frozen=True)
class MaternKernel:
    length_scale: float  # hours
    smoothness: float    # nu

    def __post_init__(self):
        if self.length_scale <= 0 or self.smoothness <= 0:
            raise ValueError("length scale and smoothness must be positive")

    def covariance_matrix(self) -> np.ndarray:
        lags = np.abs(np.arange(HOURS)[:, None] - np.arange(HOURS)[None, :])
        return matern(lags.astype(float), self)


def matern(lag, kernel: MaternKernel):
    """Matern correlation at time lag(s) >= 0 hours.

    Standard form 2^(1-nu)/Gamma(nu) * z^nu * K_nu(z) with
    z = sqrt(2 nu) lag / l; the zero-lag limit is 1.  A site scales it by
    its sigma_W^2 (`SiteModel`).
    """
    lag = np.asarray(lag, dtype=float)
    if np.any(lag < 0):
        raise ValueError("lag must be nonnegative")
    nu, ell = kernel.smoothness, kernel.length_scale
    z = math.sqrt(2.0 * nu) * lag / ell
    with np.errstate(invalid="ignore", over="ignore"):
        vals = (2.0 ** (1.0 - nu) / gamma_fn(nu)) * z ** nu * kv(nu, z)
    vals = np.where(z == 0.0, 1.0, vals)
    vals = np.nan_to_num(vals, nan=0.0)  # kv underflow at huge lags
    return vals if vals.ndim else float(vals)


def _pooled_lag_data(cov: np.ndarray):
    """Diagonal-normalized covariance values against lag, pooled over all
    anchor rows (the grey-line cloud of a covariance-decay plot)."""
    n = cov.shape[0]
    diag = np.diag(cov)
    if np.any(diag <= 0):
        raise ForecastError("covariance has nonpositive diagonal")
    r = np.arange(n, dtype=float)
    return np.abs(r[:, None] - r[None, :]).ravel(), (cov / diag[:, None]).ravel()


def fit_matern(cov: np.ndarray) -> MaternKernel:
    """Least-squares (l, nu) fit of the normalized Matern model to pooled
    lag-decay data: one Nelder-Mead search from the best point of a grid."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape[0] != cov.shape[1] or np.max(np.abs(cov - cov.T)) > 1e-8:
        raise ForecastError("need a symmetric covariance")
    # only this fit needs scipy.optimize; importing it with the module
    # would slow every process's start-up
    from scipy.optimize import minimize

    lags, vals = _pooled_lag_data(cov)
    if float(np.std(vals[lags > 0])) < 1e-12:
        raise ForecastError("covariance shows no lag decay to fit")
    ulags, inverse = np.unique(lags, return_inverse=True)  # matern is elementwise

    def residual(params):
        ell, nu = params
        if ell <= 0 or nu <= 0:
            return 1e12
        model = matern(ulags, MaternKernel(ell, nu))[inverse]
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum((model - vals) ** 2))
        return total if math.isfinite(total) else 1e12

    start = min(((ell, nu) for ell in (2.0, 5.0, 11.0, 20.0, 40.0)
                 for nu in (0.3, 0.5, 0.8, 1.5, 3.0)), key=residual)
    res = minimize(residual, start, method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 4000})
    ell, nu = res.x
    if ell <= 0 or nu <= 0:
        raise ForecastError(f"Matern fit from (l, nu) = {start} ended at ({ell!r}, {nu!r})")
    return MaternKernel(float(ell), float(nu))


SIGMA_W_MAX = 3.0  # the largest log-wind sigma_W the bracket scan tries


def sigma_w_from_sigma_p(sigma_p: float, mean_wind, curve: PowerCurve) -> float:
    """Log-wind sigma_W such that pushing N(0, sigma_W^2) log-wind
    perturbations through the power curve yields an hourly-averaged relative
    power spread (std/mean) of sigma_p.

    The pushforward moments are evaluated with the in-repo 15-point nested
    Gaussian rule, so the construction is deterministic; the root is found
    by bisection.
    """
    if sigma_p < 0:
        raise ValueError("sigma_p must be nonnegative")
    if sigma_p == 0.0:
        return 0.0
    w = np.asarray(mean_wind, dtype=float)
    base = np.asarray(curve(w), dtype=float)
    active = base > 1e-9 * curve.nameplate
    if not np.any(active):
        raise ForecastError("mean wind sits entirely in flat curve regions")
    w = w[active]

    from .pce import rule_1d
    qx, qw = rule_1d(6)

    def spread(s):
        # speeds (hours, nodes); per-hour pushforward mean and std
        speeds = w[:, None] * np.exp(s * qx[None, :])
        power = np.asarray(curve(speeds), dtype=float)
        mean = power @ qw
        var = np.maximum((power ** 2) @ qw - mean ** 2, 0.0)
        ok = mean > 1e-12 * curve.nameplate
        if not np.any(ok):
            return 0.0
        return float(np.mean(np.sqrt(var[ok]) / mean[ok]))

    # spread(s) rises while the perturbed winds stay inside the operating
    # range and collapses once exp(s) crosses cut-out, so bracket the first
    # crossing on a scan grid before bisecting.
    grid = np.linspace(0.0, SIGMA_W_MAX, 241)[1:]
    cross = next((k for k, s in enumerate(grid) if spread(float(s)) >= sigma_p), None)
    if cross is None:
        raise ForecastError(
            f"target spread {sigma_p} unreachable within sigma_W <= {SIGMA_W_MAX} "
            "(curve sensitivity too low)")
    lo_s = 0.0 if cross == 0 else float(grid[cross - 1])
    hi_s = float(grid[cross])
    for _ in range(100):
        mid = 0.5 * (lo_s + hi_s)
        if spread(mid) < sigma_p:
            lo_s = mid
        else:
            hi_s = mid
    return 0.5 * (lo_s + hi_s)


@dataclass(frozen=True)
class SiteModel:
    label: str
    mean_wind: np.ndarray  # day-ahead forecast profile, m/s, length 24
    kernel: MaternKernel   # correlation shape; sigma_W scales it
    sigma_w: float
    truncation: int
    curve: PowerCurve
    basis: KLBasis = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mw = np.asarray(self.mean_wind, dtype=float)
        if mw.shape != (HOURS,):
            raise ValueError("mean wind profile must have 24 hours")
        if np.any(mw <= 0):
            raise ValueError("mean wind must be positive (log transform)")
        if not 1 <= self.truncation <= HOURS:
            raise ValueError("truncation must be in 1..24")
        object.__setattr__(self, "mean_wind", mw)
        object.__setattr__(self, "basis", self.kl_basis())

    def kl_basis(self) -> KLBasis:
        """KL basis of the site's log-wind field: sigma_W^2 times the
        kernel's correlation, about the log of the mean wind."""
        cov = (self.sigma_w ** 2) * self.kernel.covariance_matrix()
        return kl_decompose(cov, np.log(self.mean_wind))

    def speeds(self, xi) -> np.ndarray:
        """Hourly wind speeds, shape (..., 24), of germs xi of shape
        (..., >= truncation): the exponentiated truncated KL expansion
        (`wind_kl.reconstruct`) of the site's log-wind field."""
        return np.exp(reconstruct(self.basis, xi, self.truncation))


@dataclass(frozen=True)
class ForecastSpec:
    sites: tuple  # SiteModel, in declaration order
    dependence_groups: tuple = ()  # each: tuple of (site_label, mode) pairs
    dimension: int = field(init=False)  # germ coordinates in all
    # per site, the germ coordinate of each of its modes
    columns: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        truncation = {s.label: s.truncation for s in self.sites}
        if len(truncation) != len(self.sites):
            raise ValueError("duplicate site label")
        seen = set()
        for k, group in enumerate(self.dependence_groups, start=1):
            for pair in group:
                label, mode = pair
                if pair in seen:
                    raise ValueError(f"dependence groups must be disjoint: {label} mode "
                                     f"{mode} repeats in group {k}")
                seen.add(pair)
                if label not in truncation:
                    raise ValueError(f"unknown site {label} (group {k})")
                if not 1 <= mode <= truncation[label]:
                    raise ValueError(f"mode {mode} outside truncation of {label} (group {k})")
        layout, dim = self.germ_layout()
        object.__setattr__(self, "dimension", dim)
        object.__setattr__(self, "columns", tuple(
            np.array([layout[(s.label, mode)] for mode in range(1, s.truncation + 1)])
            for s in self.sites))

    def germ_layout(self):
        """Germ coordinate index for every (site, mode), and the germ
        dimension; shared-group members reuse the coordinate of the first
        member encountered."""
        group_of = {pair: group for group in self.dependence_groups for pair in group}
        coordinate: dict = {}  # group, or an ungrouped (site, mode) pair -> index
        layout = {}
        for site in self.sites:
            for mode in range(1, site.truncation + 1):
                pair = (site.label, mode)
                layout[pair] = coordinate.setdefault(group_of.get(pair, pair),
                                                     len(coordinate))
        return layout, len(coordinate)

    def power(self, germs) -> np.ndarray:
        """Hourly power per site, shape (..., n_sites, 24), for germs of
        shape (..., dimension): each site's wind speeds of its germ
        coordinates (`SiteModel.speeds`) pushed through its power curve.  Sites
        come in declaration order, which for a spec that drives a dispatch
        is the case's RENEWABLE order (`sed_model.SedEvaluator` checks it)."""
        germs = np.asarray(germs, dtype=float)
        out = np.empty(germs.shape[:-1] + (len(self.sites), HOURS))
        for j, (site, columns) in enumerate(zip(self.sites, self.columns)):
            out[..., j, :] = site.curve(site.speeds(germs[..., columns]))
        return out


@dataclass(frozen=True)
class ScenarioSet:
    power: np.ndarray  # (n_scenarios, n_sites, 24) MW
    site_labels: tuple


def generate_scenarios(spec: ForecastSpec, germs) -> ScenarioSet:
    """Map germ vectors into per-site hourly power.  Shared dependence-group
    modes consume a single germ coordinate."""
    dim = spec.dimension
    germs = np.atleast_2d(np.asarray(germs, dtype=float))
    if germs.shape[1] != dim:
        raise ForecastError(
            f"germ dimension {germs.shape[1]} != spec dimension {dim}")
    return ScenarioSet(spec.power(germs), tuple(s.label for s in spec.sites))
