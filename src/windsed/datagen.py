"""Synthetic wind data generator.

Stands in for real 10-minute SCADA exports: draws daily log-wind fields from
a site's KL model (`forecast.SiteModel`), holds each hourly value across its
six 10-minute intervals, and writes the same `timestamp,speed_mps,power_mw`
CSV the ingestion path reads.
"""
from __future__ import annotations

import datetime
import math

import numpy as np

from .forecast import SiteModel
from .wind_kl import HOURS, PowerCurve, WindDataError

_PHILOX_TAG_DATAGEN = 0xDA7A0001


def default_power_curve(nameplate: float = 150.0) -> PowerCurve:
    """The rated-power curve of every site: a logistic rise toward the
    nameplate, sampled at 4,000 speeds from 2 to 30 m/s, averaged in
    0.05 m/s bins counted from the first speed (each bin holds 7 or 8
    samples), and splined through the bin centers; zero below cut-in
    3.2 m/s and above cut-out 26 m/s."""
    speeds = np.linspace(2.0, 30.0, 4000)
    powers = nameplate / (1.0 + np.exp(-(speeds - 9.0) / 1.7))
    nbins = math.ceil((speeds[-1] - speeds[0]) / 0.05)
    which = np.minimum(((speeds - speeds[0]) / 0.05).astype(int), nbins - 1)
    means = np.bincount(which, weights=powers) / np.bincount(which)
    centers = speeds[0] + (np.arange(nbins) + 0.5) * 0.05
    return PowerCurve(centers, means, 3.2, 26.0, nameplate)


def synthetic_wind_table(site: SiteModel, days: int, seed: int,
                         start: str = "2004-01-01"):
    """Rows of (timestamp, speed_mps, power_mw) at 10-minute cadence: one
    standard-normal germ per day through the site's KL expansion, to its
    truncation, and the power from the site's curve."""
    if days < 1:
        raise ValueError("need at least one day")
    rng = np.random.Generator(np.random.Philox(
        key=[np.uint64(seed), np.uint64(_PHILOX_TAG_DATAGEN)]))
    xi = rng.standard_normal((days, HOURS))
    speeds = site.speeds(xi)  # (days, 24)
    powers = site.curve(speeds)
    day0 = datetime.date.fromisoformat(start)
    rows = []
    for d in range(days):
        stamp_day = day0 + datetime.timedelta(days=d)
        for h in range(HOURS):
            s, p = float(speeds[d, h]), float(powers[d, h])
            for m in range(0, 60, 10):
                ts = f"{stamp_day.isoformat()}T{h:02d}:{m:02d}:00"
                rows.append((ts, s, p))
    return rows


def write_wind_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp,speed_mps,power_mw\n")
        for ts, s, p in rows:
            fh.write(f"{ts},{s!r},{p!r}\n")


def read_wind_csv(path):
    """Parse a wind CSV into (timestamp, speed) records; a `power_mw`
    column is checked but not kept.  Blank lines are skipped; a bad header
    or row, a truncated one included, raises WindDataError naming the file
    and line."""
    records = []
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if header[:2] != ["timestamp", "speed_mps"]:
                raise WindDataError(f"{path}: line 1: not a wind CSV (header {header})")
            has_power = len(header) > 2 and header[2] == "power_mw"
            for lineno, line in enumerate(fh, start=2):
                parts = line.strip().split(",")
                if parts == [""]:
                    continue
                try:
                    if not parts[0]:
                        raise ValueError("empty timestamp")
                    speed = float(parts[1])
                    if has_power:
                        float(parts[2])
                except (ValueError, IndexError):
                    raise WindDataError(
                        f"{path}: line {lineno}: bad row {line.strip()!r}") from None
                records.append((parts[0], speed))
    except UnicodeDecodeError as exc:
        raise WindDataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return records
