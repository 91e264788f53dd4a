"""Input fuzz: token and line mutations of the bundled 3-bus case, of a
config and of a wind CSV, each run through `windsed`.

Whatever the mutation, a run exits 0, 2, 3 or 4, raises nothing out of
`cli.main` (the command line would print that as a traceback), and writes
no traceback to stderr.  After a nonzero exit it leaves its output
directory empty; after exit 0 every number it wrote is finite.  The
examples are derandomized with a fixed budget, so the test is
deterministic.  The fuzz finds defects; each one it found has its own row
in `test_cli.test_bad_input_exits_without_traceback`, and those rows are
the contract.
"""
import contextlib
import io
import json
import math
import os
import random
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from windsed import cli, datagen, forecast

DATA = Path(__file__).parent.parent / "data"

# malformed tokens of each kind the input checks must catch: empty, zero,
# negative, fractional, non-finite, subnormal, huge, non-numeric, YAML
# punctuation and scalars, a date that does not exist, and a byte that is
# not UTF-8
TOKENS = [b"", b"0", b"1", b"-1", b"2", b"0.5", b"-0.5", b"99", b"nan", b"inf",
          b"-inf", b"1e-320", b"1e308", b"x", b"#", b"-", b"[", b"]", b"{", b"}",
          b"null", b"yes", b"2004-02-30T00:00:00", b"\xff"]
TOKEN = re.compile(rb"[^\s,:\[\]{}]+")


def mutations(seed: int) -> list:
    """One to three mutations drawn uniformly from `seed`: mostly a token
    replaced by one of TOKENS, else a line deleted, repeated, swapped with
    the next or cut short.  Positions are fractions of the text.  (Drawn by
    hypothesis itself, tokens and positions crowd toward the first of
    each, which leaves most of a file untouched.)"""
    rng = random.Random(seed)
    return [("token", rng.random(), rng.choice(TOKENS)) if rng.random() < 0.7
            else (rng.choice(["delete", "repeat", "swap", "cut"]), rng.random(), None)
            for _ in range(rng.randint(1, 3))]


def mutate(text: bytes, changes) -> bytes:
    """text with each mutation applied in turn: a token replaced, a line
    deleted, repeated or swapped with the next, or the text cut short inside
    a line, at the token or line the fraction `at` points to.  A mutation
    with nothing left to act on is skipped."""
    for kind, at, token in changes:
        if kind == "token":
            spans = [m.span() for m in TOKEN.finditer(text)]
            if spans:
                start, end = spans[int(at * len(spans))]
                text = text[:start] + token + text[end:]
            continue
        lines = text.splitlines(keepends=True)
        if not lines:
            continue
        k = int(at * len(lines))
        if kind == "delete":
            del lines[k]
        elif kind == "repeat":
            lines.insert(k, lines[k])
        elif kind == "swap" and k + 1 < len(lines):
            lines[k], lines[k + 1] = lines[k + 1], lines[k]
        elif kind == "cut":
            lines[k:] = [lines[k][:len(lines[k]) // 2]]
        text = b"".join(lines)
    return text


def _wind_csv() -> bytes:
    """Three complete days of one synthetic site."""
    site = forecast.SiteModel("x", np.full(24, 8.0), forecast.MaternKernel(11.4, 0.56),
                              0.3, 24, datagen.default_power_curve())
    rows = datagen.synthetic_wind_table(site, 3, seed=5)
    return b"timestamp,speed_mps,power_mw\n" + b"".join(
        f"{ts},{s!r},{p!r}\n".encode() for ts, s, p in rows)


def _config() -> bytes:
    """A config for the 3-bus case with the wind CSV, a two-day synthetic
    site and a study of a few dozen evaluations."""
    return yaml.safe_dump({
        "case": "case3.txt", "segments": 3, "seed": 42, "out": "out", "jobs": 1,
        "wind": {"data": {"site_a": "wind.csv"},
                 "synthetic": {"days": 2, "start": "2004-01-01", "sites": {
                     "site_b": {"matern_l": 9.79, "matern_nu": 0.78, "sigma_w": 0.3,
                                "mean_wind": 8.5}}}},
        "forecast": {"sigma_p": 0.35, "truncation": 2, "sites": {
            "site_a": {"mean_wind": 8.0, "matern_l": 11.4, "matern_nu": 0.56},
            "site_b": {"mean_wind": 8.5, "matern_l": 9.79, "matern_nu": 0.78}},
            "dependence": [[["site_a", 1], ["site_b", 1]]]},
        "pce": {"levels": [1, 2]},
        "mc": {"schedule": [4, 8], "realizations": 1},
    }, sort_keys=False).encode()


SOURCES = {"case": (DATA / "case3.txt").read_bytes(), "wind": _wind_csv(),
           "config": _config()}


# the CSV columns that hold labels; every other column holds numbers
TEXT_COLUMNS = {"entity", "method", "site", "site_a", "site_b", "timestamp"}


def _no_constant(name):
    raise ValueError(f"JSON has no {name}")


def check_outputs(out: Path):
    """Every JSON output parses as strict JSON (RFC 8259 has no NaN or
    Infinity), and every non-empty field of a numeric CSV column is a
    finite number.  Columns are picked by header, since a site may be
    labelled `inf`; an empty field is a blank (a failed Matern fit, the
    finest resolution's error).  The LP dump's infinite bounds are by
    design."""
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            json.loads(path.read_text(encoding="utf-8"), parse_constant=_no_constant)
        elif path.suffix == ".csv":
            header, *rows = path.read_text(encoding="utf-8").splitlines()
            numeric = [k for k, name in enumerate(header.split(","))
                       if name not in TEXT_COLUMNS]
            for row in rows:
                fields = row.split(",")
                assert all(fields[k] == "" or math.isfinite(float(fields[k]))
                           for k in numeric), (path.name, row)


def run_mutated(target: str, command: str, changes) -> tuple[int, str]:
    """Run `windsed <command>` in a fresh directory holding the case, the
    wind CSV and the config, with `target` mutated; the output directory
    and worker count come from the command line.  Returns the exit
    code, checked against the contract, and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, file in (("case", "case3.txt"), ("wind", "wind.csv"),
                           ("config", "config.yaml")):
            text = SOURCES[name]
            (work / file).write_bytes(mutate(text, changes) if name == target else text)
        out = work / "out"
        err = io.StringIO()
        here = os.getcwd()
        os.chdir(work)  # the config's relative paths, mutated or not, stay here
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, "--config", "config.yaml", "--out", str(out),
                                 "--jobs", "1"])
        finally:
            os.chdir(here)
        stderr = err.getvalue()
        assert code in (0, 2, 3, 4), (code, stderr)
        assert "Traceback" not in stderr, stderr
        if code:
            assert not out.exists() or not any(out.iterdir()), sorted(out.iterdir())
        else:
            check_outputs(out)
        return code, stderr


@pytest.mark.parametrize("target,command,examples", [
    ("case", "dispatch", 250), ("config", "dispatch", 200), ("config", "kl", 100),
    ("config", "study", 50), ("wind", "kl", 150)])
def test_mutated_inputs_keep_the_exit_code_contract(target, command, examples):
    @settings(max_examples=examples, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1))
    def check(seed):
        run_mutated(target, command, mutations(seed))

    check()
