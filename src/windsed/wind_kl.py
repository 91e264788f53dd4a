"""Karhunen-Loeve representation of daily log-wind profiles plus the
diagnostics used to justify it: explained-variance fractions, KS distances
against a standard normal, distance correlation between mode coordinates,
and the filtered rated-power curve for converting wind speed to power.

Days are 24-dimensional samples of W_L = log(wind speed); the discrete
Fredholm eigenproblem with unit-width midpoint weights reduces to the plain
symmetric eigendecomposition of the 24x24 covariance matrix.
"""
from __future__ import annotations

import datetime
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

HOURS = 24
INTERVALS_PER_DAY = 144  # 10-minute raw cadence


class WindDataError(Exception):
    pass


@dataclass(frozen=True)
class KLBasis:
    mean: np.ndarray          # (24,)
    eigenvalues: np.ndarray   # (24,), nonincreasing
    eigenvectors: np.ndarray  # (24, 24), columns orthonormal

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        vec = np.asarray(self.eigenvectors, dtype=float)
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape != (HOURS,) or lam.shape != (HOURS,) or vec.shape != (HOURS, HOURS):
            raise ValueError("KLBasis shapes must be 24 / 24 / 24x24")
        if np.any(np.diff(lam) > 1e-12):
            raise ValueError("eigenvalues must be nonincreasing")
        if np.any(lam < -1e-10):
            raise ValueError("eigenvalues must be nonnegative")
        if np.max(np.abs(vec.T @ vec - np.eye(HOURS))) > 1e-10:
            raise ValueError("eigenvectors must be orthonormal")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vec)

    def to_text(self) -> str:
        out = ["KLBASIS 24"]
        out.append("MEAN " + " ".join(repr(float(v)) for v in self.mean))
        out.append("EIGENVALUES " + " ".join(repr(float(v)) for v in self.eigenvalues))
        for k in range(HOURS):
            out.append(f"VEC {k} " + " ".join(repr(float(v)) for v in self.eigenvectors[:, k]))
        return "\n".join(out) + "\n"


# -- data preparation ---------------------------------------------------------

def _mark(ts: str) -> int | None:
    """The ten-minute mark of its day (0..143) an ISO-8601 timestamp sits
    on; None when it sits between marks or does not parse."""
    try:
        t = datetime.datetime.fromisoformat(ts)
    except ValueError:
        return None
    if t.minute % 10 or t.second or t.microsecond:
        return None
    return t.hour * 6 + t.minute // 10


def hourly_average(records, site_label: str = "") -> tuple[np.ndarray, list, dict]:
    """Collapse 10-minute (timestamp, speed) records into daily 24-vectors of
    log hourly-mean speed: the (n_days, 24) samples, the date (YYYY-MM-DD)
    of each, and the count of dropped days by reason.

    A day counts only when its 144 records sit on its 144 ten-minute marks;
    a day with a missing, repeated or off-mark interval, or with a
    nonpositive speed, is dropped and counted rather than raising.  A kept day whose hourly means are not
    finite (a `nan` or `inf` speed, or speeds whose sum overflows) raises
    WindDataError naming the site and day.
    """
    by_day = {}
    for ts, speed in records:
        day = str(ts)[:10]
        by_day.setdefault(day, []).append((_mark(str(ts)), float(speed)))
    rows, days = [], []
    dropped = {"missing": 0, "nonpositive": 0}
    for day in sorted(by_day):
        recs = by_day[day]
        if len(recs) != INTERVALS_PER_DAY or \
                {m for m, _ in recs} != set(range(INTERVALS_PER_DAY)):
            dropped["missing"] += 1
            continue
        speeds = np.array([s for _, s in sorted(recs)])
        if np.any(speeds <= 0):
            dropped["nonpositive"] += 1
            continue
        row = np.log(speeds.reshape(HOURS, 6).mean(axis=1))
        if not np.all(np.isfinite(row)):
            raise WindDataError(f"site {site_label}: day {day}: an hourly mean speed "
                                "is not finite")
        rows.append(row)
        days.append(day)
    if not rows:
        raise WindDataError(
            f"no complete days (dropped: {dropped})" if any(dropped.values())
            else "no records")
    return np.array(rows), days, dropped


def empirical_covariance(samples: np.ndarray) -> np.ndarray:
    """Unbiased (n-1) sample covariance across days; symmetric PSD."""
    mat = np.asarray(samples, dtype=float)
    if len(mat) < 2:
        raise WindDataError("need at least 2 samples for a covariance")
    centered = mat - mat.mean(axis=0)
    cov = centered.T @ centered / (len(mat) - 1)
    return 0.5 * (cov + cov.T)


# -- KL decomposition -----------------------------------------------------------

def kl_decompose(cov: np.ndarray, mean: np.ndarray) -> KLBasis:
    """Eigendecomposition of the covariance, sorted by nonincreasing
    eigenvalue, with each eigenvector's largest-magnitude entry made positive.

    With unit-width midpoint weights on the hourly grid the Nystrom
    discretization of the covariance eigenproblem is exactly this matrix
    problem.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (HOURS, HOURS):
        raise ValueError("covariance must be 24x24")
    if np.max(np.abs(cov - cov.T)) > 1e-8:
        raise ValueError("covariance is not symmetric")
    lam, vec = np.linalg.eigh(0.5 * (cov + cov.T))
    lam = np.maximum(lam[::-1], 0.0)  # clip eigh's roundoff-negative tail
    vec = vec[:, ::-1].copy()
    for k in range(HOURS):
        j = int(np.argmax(np.abs(vec[:, k])))
        if vec[j, k] < 0:
            vec[:, k] = -vec[:, k]
    return KLBasis(np.asarray(mean, dtype=float), lam, vec)


def variance_fraction(basis: KLBasis, n_modes: int) -> float:
    """Percentage of total variance captured by the first n_modes modes."""
    if not 1 <= n_modes <= HOURS:
        raise ValueError("n_modes must be in 1..24")
    total = float(basis.eigenvalues.sum())
    if total == 0.0:
        return 100.0  # constant field: any truncation is exact
    return 100.0 * float(basis.eigenvalues[:n_modes].sum()) / total


def project_samples(basis: KLBasis, samples: np.ndarray):
    """Mode coordinates xi_jk = (sample_j - mean).f_k / sqrt(lambda_k).

    Modes with lambda <= 1e-12 are skipped (their xi column is zero) and
    returned in the second element.
    """
    centered = np.asarray(samples, dtype=float) - basis.mean
    proj = centered @ basis.eigenvectors
    lam = basis.eigenvalues
    keep = lam > 1e-12
    xi = np.zeros_like(proj)
    xi[:, keep] = proj[:, keep] / np.sqrt(lam[keep])
    return xi, np.flatnonzero(~keep).tolist()


def reconstruct(basis: KLBasis, xi, n_modes: int) -> np.ndarray:
    """Truncated expansion mean + sum_{k<=N} sqrt(lambda_k) xi_k f_k.

    Accepts a single germ vector or a (n_samples, >=N) matrix of them.  Modes
    are summed one at a time, elementwise, so a germ gives the same bits
    alone as in any batch (a matrix product would not).
    """
    if n_modes > HOURS:
        raise ValueError("truncation exceeds 24 modes")
    xi = np.asarray(xi, dtype=float)
    if xi.shape[-1] < n_modes:
        raise ValueError("germ vector shorter than truncation order")
    modes = basis.eigenvectors[:, :n_modes] * np.sqrt(basis.eigenvalues[:n_modes])
    field = np.zeros(xi.shape[:-1] + (HOURS,))
    for k in range(n_modes):
        field += xi[..., k:k + 1] * modes[:, k]
    return basis.mean + field


# -- distribution diagnostics ----------------------------------------------------

def _normal_cdf(x):
    return 0.5 * (1.0 + np.vectorize(math.erf)(np.asarray(x) / math.sqrt(2.0)))


def compare_to_normal(values) -> float:
    """Kolmogorov-Smirnov distance between the sample and N(0,1)."""
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        raise ValueError("need at least 2 samples")
    xs = np.sort(values)
    n = len(xs)
    phi = _normal_cdf(xs)
    upper = np.max(np.arange(1, n + 1) / n - phi)
    lower = np.max(phi - np.arange(0, n) / n)
    return float(max(upper, lower))


DCOR_BLOCK = 1024  # rows of the distance matrices held at once


def distance_correlation(x, y) -> float:
    """Szekely sample distance correlation via double-centered distance
    matrices, computed blockwise so 1e4-sample inputs stay in memory.

    Returns 0 for inputs with zero distance variance (constant samples).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    n = len(x)
    if n != len(y):
        raise ValueError("samples must be paired")
    if n < 2:
        raise ValueError("need at least 2 samples")

    ax = np.zeros(n)
    ay = np.zeros(n)
    sxx = syy = sxy = 0.0
    for lo in range(0, n, DCOR_BLOCK):
        hi = min(lo + DCOR_BLOCK, n)
        dx = np.sqrt(np.sum((x[lo:hi, None, :] - x[None, :, :]) ** 2, axis=2))
        dy = np.sqrt(np.sum((y[lo:hi, None, :] - y[None, :, :]) ** 2, axis=2))
        ax[lo:hi] = dx.sum(axis=1)
        ay[lo:hi] = dy.sum(axis=1)
        sxx += float(np.sum(dx * dx))
        syy += float(np.sum(dy * dy))
        sxy += float(np.sum(dx * dy))
    sx = float(ax.sum())
    sy = float(ay.sum())

    def centered_dot(sab, ra, rb, ta, tb):
        # sum over ij of (a_ij - rowmean_i - colmean_j + grand)(same for b)
        return (sab / n ** 2 - 2.0 * float(ra @ rb) / n ** 3
                + ta * tb / n ** 4)

    dcov2 = centered_dot(sxy, ax, ay, sx, sy)
    dvarx = centered_dot(sxx, ax, ax, sx, sx)
    dvary = centered_dot(syy, ay, ay, sy, sy)
    if dvarx <= 1e-24 or dvary <= 1e-24:
        return 0.0
    val = dcov2 / math.sqrt(dvarx * dvary)
    return float(min(max(val, 0.0), 1.0) ** 0.5)


# -- rated power curve ------------------------------------------------------------

def _natural_spline(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients (4, len(x) - 1) of the natural cubic spline through
    (x, y), highest power first, per interval in the local coordinate
    s = speed - x[i].  The knot slopes solve the same tridiagonal system,
    and the slopes become coefficients by the same Hermite formulas, as in
    scipy's CubicSpline(x, y, bc_type="natural"), so both give the same
    bits without importing scipy.interpolate."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    ab = np.zeros((3, len(x)))  # super-, main and subdiagonal
    ab[0, 1], ab[0, 2:] = dx[0], dx[:-1]
    ab[1, 0], ab[1, 1:-1], ab[1, -1] = 2 * dx[0], 2 * (dx[:-1] + dx[1:]), 2 * dx[-1]
    ab[2, :-2], ab[2, -2] = dx[1:], dx[-1]
    rhs = np.empty(len(x))
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    rhs[0], rhs[-1] = 3 * (y[1] - y[0]), 3 * (y[-1] - y[-2])
    s = solve_banded((1, 1), ab, rhs, overwrite_ab=True, overwrite_b=True,
                     check_finite=False)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


@dataclass(frozen=True)
class PowerCurve:
    """Natural cubic-spline interpolant of power vs wind speed through its
    knots, clamped to [0, nameplate] and zero outside [cut_in, cut_out]."""

    knot_speeds: np.ndarray
    knot_powers: np.ndarray
    cut_in: float
    cut_out: float
    nameplate: float

    def __post_init__(self):
        ks = np.asarray(self.knot_speeds, dtype=float)
        kp = np.asarray(self.knot_powers, dtype=float)
        if len(ks) < 2 or len(ks) != len(kp):
            raise ValueError("need at least two knots")
        if not (np.all(np.isfinite(ks)) and np.all(np.isfinite(kp))
                and np.all(np.diff(ks) > 0)):
            raise ValueError("knots must be finite, with strictly increasing speeds")
        object.__setattr__(self, "knot_speeds", ks)
        object.__setattr__(self, "knot_powers", kp)
        object.__setattr__(self, "_coef", _natural_spline(ks, kp))

    def _spline(self, speed: np.ndarray) -> np.ndarray:
        """The spline at speeds inside the knot span, summed in powers of s
        as scipy's PPoly sums them."""
        ks = self.knot_speeds
        i = np.searchsorted(ks[1:-1], speed, side="right")  # interval, the last one closed
        s = speed - ks[i]
        c = self._coef[:, i]
        z = s * s
        value = c[3] + c[2] * s
        value += c[1] * z
        z *= s
        value += c[0] * z
        return value

    def __call__(self, speed):
        speed = np.asarray(speed, dtype=float)
        # hold end-knot values outside the fitted span (no cubic extrapolation)
        inside = np.clip(speed, self.knot_speeds[0], self.knot_speeds[-1])
        power = np.clip(self._spline(inside), 0.0, self.nameplate)
        power = np.where((speed < self.cut_in) | (speed > self.cut_out), 0.0, power)
        return power if power.ndim else float(power)
