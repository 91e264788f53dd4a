"""The general top-hat scatter filter that once built every power curve,
kept as the reference `datagen.default_power_curve` is checked against."""
import math

import numpy as np

from windsed.wind_kl import PowerCurve, WindDataError


def build_power_curve(speeds, powers, bin_width: float = 0.05,
                      cut_in: float = 3.2, cut_out: float = 26.0,
                      nameplate: float | None = None) -> PowerCurve:
    """Top-hat filter of the (speed, power) scatter: per-bin mean power at bin
    centers, empty interior bins filled by linear interpolation, then a
    natural cubic spline through the knots."""
    speeds = np.asarray(speeds, dtype=float)
    powers = np.asarray(powers, dtype=float)
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    if speeds.size == 0 or speeds.size != powers.size:
        raise ValueError("need a nonempty paired scatter")
    lo, hi = float(speeds.min()), float(speeds.max())
    nbins = max(int(math.ceil((hi - lo) / bin_width)), 1)
    which = np.clip(((speeds - lo) / bin_width).astype(int), 0, nbins - 1)
    sums = np.bincount(which, weights=powers, minlength=nbins)
    counts = np.bincount(which, minlength=nbins)
    centers = lo + (np.arange(nbins) + 0.5) * bin_width
    filled = counts > 0
    if filled.sum() < 2:
        raise WindDataError("scatter collapses to fewer than two bins")
    means = np.empty(nbins)
    means[filled] = sums[filled] / counts[filled]
    means[~filled] = np.interp(centers[~filled], centers[filled], means[filled])
    if nameplate is None:
        nameplate = float(powers.max())
    return PowerCurve(centers, means, cut_in, cut_out, nameplate)


def default_power_curve_filtered(nameplate: float = 150.0) -> PowerCurve:
    """The default curve as the scatter filter builds it: the logistic
    sampled at 4,000 speeds, through `build_power_curve`."""
    speeds = np.linspace(2.0, 30.0, 4000)
    powers = nameplate / (1.0 + np.exp(-(speeds - 9.0) / 1.7))
    return build_power_curve(speeds, powers, 0.05, cut_in=3.2, cut_out=26.0,
                             nameplate=nameplate)
