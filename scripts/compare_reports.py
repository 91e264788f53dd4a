#!/usr/bin/env python3
"""Check that two `windsed study` reports agree up to roundoff in Q.

    python scripts/compare_reports.py A/report.csv B/report.csv

Both reports must hold the same rows in the same order.  On the `pce` and
`mc` rows, `value` (an estimate Q_k of E[Q]) must agree to 1e-12 relative.
The `error` column and the `fit_*` rows derive from differences of those
estimates, which amplify roundoff: when Q_k and the estimate it is compared
with, Q_next (the next PCE level, or the next MC size's grand mean), move
by 1e-12 relative, the error |Q_k - Q_next| / |Q_next| moves by up to
1e-12 * (|Q_k| + |Q_next|) / |Q_k - Q_next| relative.  That is each error's
tolerance, and a `fit_*` row (fitted to its method's errors) takes the
largest tolerance among them.

Exit status: 0 when the reports agree, 1 when some value differs (one line
per difference on standard output), 2 when they do not hold the same rows.
"""
from __future__ import annotations

import csv
import math
import sys

REL = 1e-12  # agreement asked of the estimates of E[Q]


def read_report(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _key(row: dict) -> tuple:
    return row["method"], row["resolution"], row["realization"]


def error_tolerances(rows: list[dict]) -> dict[tuple, float]:
    """Relative tolerance of each `error` entry, from the estimates of `rows`."""
    estimates: dict[str, dict[int, list[float]]] = {}
    for row in rows:
        if row["method"] in ("pce", "mc"):
            by_res = estimates.setdefault(row["method"], {})
            by_res.setdefault(int(row["resolution"]), []).append(float(row["value"]))
    tol = {}
    for method, by_res in estimates.items():
        res = sorted(by_res)
        for cur, nxt in zip(res, res[1:]):
            q_next = math.fsum(by_res[nxt]) / len(by_res[nxt])
            for realization, q in enumerate(by_res[cur]):
                gap = abs(q - q_next)
                tol[(method, str(cur), str(realization))] = (
                    REL * (abs(q) + abs(q_next)) / gap if gap else math.inf)
    return tol


def _differs(a: str, b: str, rel: float) -> bool:
    if a == b:
        return False
    if not a or not b:
        return True
    x, y = float(a), float(b)
    return not abs(x - y) <= rel * max(abs(x), abs(y))


def compare(rows_a: list[dict], rows_b: list[dict]) -> list[str]:
    """One line per value of `rows_b` that differs from `rows_a` beyond its
    tolerance."""
    tol = error_tolerances(rows_a)
    fit_tol = {}
    for (method, *_), t in tol.items():
        fit_tol[f"fit_{method}"] = max(fit_tol.get(f"fit_{method}", 0.0), t)
    out = []
    for a, b in zip(rows_a, rows_b):
        key = _key(a)
        if key[0].startswith("fit_"):
            checks = {"value": fit_tol.get(key[0], REL), "error": fit_tol.get(key[0], REL)}
        else:
            checks = {"value": REL, "error": tol.get(key, REL)}
        for column, rel in checks.items():
            if _differs(a[column], b[column], rel):
                out.append(f"{','.join(key)} {column}: {a[column]} != {b[column]} "
                           f"(relative tolerance {rel:.3g})")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_reports.py A/report.csv B/report.csv", file=sys.stderr)
        return 2
    rows_a, rows_b = read_report(argv[0]), read_report(argv[1])
    if [_key(r) for r in rows_a] != [_key(r) for r in rows_b]:
        print("the reports do not hold the same rows", file=sys.stderr)
        return 2
    differences = compare(rows_a, rows_b)
    for line in differences:
        print(line)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
