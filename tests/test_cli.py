import dataclasses
import json
import multiprocessing
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from lp_oracle import lp_from_text
from specs import sample_germs
from windsed import estimate
from windsed.cli import ExperimentConfig, build_forecast_spec, main
from windsed.grid_model import linearize_cost, load_case
from windsed.sed_model import SedEvaluator, build_instance

DATA = Path(__file__).parent.parent / "data"


def write_config(tmp_path, **overrides):
    cfg = {
        "case": str(DATA / "case3.txt"),
        "segments": 3,
        "seed": 42,
        "out": str(tmp_path / "out"),
        "forecast": {
            "sigma_p": 0.35,
            "truncation": 3,
            "sites": {
                "site_a": {"mean_wind": 8.0, "matern_l": 11.40, "matern_nu": 0.56},
                "site_b": {"mean_wind": 8.0, "matern_l": 9.79, "matern_nu": 0.78},
            },
        },
        "pce": {"levels": [1, 2]},
        "mc": {"schedule": [10, 30], "realizations": 2},
    }
    cfg.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def synthetic_wind_block(days=40):
    return {
        "synthetic": {
            "days": days,
            "sites": {
                "site_a": {"matern_l": 11.40, "matern_nu": 0.56,
                           "sigma_w": 0.30, "mean_wind": 8.0},
                "site_b": {"matern_l": 9.79, "matern_nu": 0.78,
                           "sigma_w": 0.30, "mean_wind": 8.5},
            },
        }
    }


def test_print_schema(tmp_path, capsys, monkeypatch):
    """The printed schema is a config the loader takes: its scalars are the
    loader's defaults, as its header says, and its forecast block builds a
    spec for its case, so the schema and the loader cannot drift apart."""
    assert main(["--print-schema"]) == 0
    path = tmp_path / "schema.yaml"
    path.write_text(capsys.readouterr().out)
    cfg = ExperimentConfig.load(str(path))
    defaults = ExperimentConfig(cfg.case_path)
    for name in ("segments", "seed", "out", "jobs", "pce_levels", "mc_schedule",
                 "mc_realizations"):
        assert getattr(cfg, name) == getattr(defaults, name), name
    monkeypatch.chdir(DATA.parent)  # the schema's case path is relative to the repo
    spec = build_forecast_spec(cfg, load_case(cfg.case_path))
    assert [s.label for s in spec.sites] == ["site_a", "site_b"]


def test_missing_config_is_config_error(tmp_path):
    assert main(["kl", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_unknown_key_is_config_error(tmp_path):
    path = write_config(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw["tyop"] = 1
    path.write_text(yaml.safe_dump(raw))
    assert main(["kl", "--config", str(path)]) == 2


@pytest.mark.parametrize("block,key", [("pce", "order"), ("mc", "sampels")])
def test_unknown_block_key_is_config_error(tmp_path, capsys, block, key):
    path = write_config(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw[block][key] = 1
    path.write_text(yaml.safe_dump(raw))
    assert main(["study", "--config", str(path)]) == 2
    assert key in capsys.readouterr().err


def test_non_mapping_block_is_config_error(tmp_path):
    assert main(["study", "--config", str(write_config(tmp_path, mc=[10, 30]))]) == 2


@pytest.mark.parametrize("text,line", [
    ("time,speed\n2004-01-01T00:00:00,7.5\n", 1),
    ("timestamp,speed_mps,power_mw\n2004-01-01T00:00:00,7.5,40.0\n"
     "2004-01-01T00:10:00,fast,40.0\n", 3),
    ("timestamp,speed_mps,power_mw\n2004-01-01T00:00:00,7.5,n/a\n", 2),
    ("timestamp,speed_mps,power_mw\n2004-01-01T00:00:00,7.5\n", 2),
    ("timestamp,speed_mps\n2004-01-01T00:00:00,7.5\n\n2004-01-01T00:10:00\n", 4),
    ("timestamp,speed_mps\n,7.5\n", 2),
])
def test_kl_malformed_wind_csv_is_data_error(tmp_path, capsys, text, line):
    csv = tmp_path / "site_a.csv"
    csv.write_text(text)
    path = write_config(tmp_path, wind={"data": {"site_a": str(csv)}})
    assert main(["kl", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert str(csv) in err and f"line {line}:" in err


def test_kl_non_utf8_wind_csv_is_data_error(tmp_path, capsys):
    csv = tmp_path / "site_a.csv"
    csv.write_bytes(b"timestamp,speed_mps\n2004-01-01T00:00:00,\xff7.5\n")
    path = write_config(tmp_path, wind={"data": {"site_a": str(csv)}})
    assert main(["kl", "--config", str(path)]) == 3
    assert str(csv) in capsys.readouterr().err


def test_bad_case_path_is_data_error(tmp_path):
    path = write_config(tmp_path, case=str(tmp_path / "missing_case.txt"))
    assert main(["dispatch", "--config", str(path)]) == 3


def test_kl_synthetic_pipeline(tmp_path):
    path = write_config(tmp_path, wind=synthetic_wind_block())
    out = tmp_path / "out"
    assert main(["kl", "--config", str(path)]) == 0
    varfrac = (out / "variance_fraction.csv").read_text().splitlines()
    rows = {(r.split(",")[0], int(r.split(",")[1])): float(r.split(",")[2])
            for r in varfrac[1:]}
    # long-range Matern kernels concentrate variance in few modes
    assert rows[("site_a", 6)] >= 90.0
    assert rows[("site_b", 24)] == pytest.approx(100.0)
    assert (out / "klbasis_site_a.txt").exists()
    assert (out / "ks_normal.csv").exists()
    assert (out / "matern_fit.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 42 and manifest["command"] == "kl"


def test_kl_synthetic_sites_match_their_written_csvs(tmp_path):
    """`kl` decomposes a synthetic site from its rows in memory; reading the
    CSVs it writes back through `wind.data` gives every output file the
    same bytes."""
    path = write_config(tmp_path, wind=synthetic_wind_block())
    out, again = tmp_path / "out", tmp_path / "again"
    assert main(["kl", "--config", str(path)]) == 0
    csvs = {label: str(out / f"wind_{label}.csv") for label in ("site_a", "site_b")}
    path = write_config(tmp_path, wind={"data": csvs}, out=str(again))
    assert main(["kl", "--config", str(path)]) == 0
    names = sorted(p.name for p in again.iterdir() if p.name != "manifest.json")
    assert len(names) == 6
    for name in names:
        assert (again / name).read_bytes() == (out / name).read_bytes(), name


def test_kl_synthetic_mean_wind_takes_24_speeds(tmp_path):
    """A synthetic site's mean_wind takes the forms a forecast site's does:
    24 equal hourly speeds write the same files as the one speed."""
    wind = synthetic_wind_block(days=3)
    one, hourly = tmp_path / "one", tmp_path / "hourly"
    assert main(["kl", "--config", str(write_config(tmp_path, wind=wind)),
                 "--out", str(one)]) == 0
    wind["synthetic"]["sites"]["site_a"]["mean_wind"] = [8.0] * 24
    assert main(["kl", "--config", str(write_config(tmp_path, wind=wind)),
                 "--out", str(hourly)]) == 0
    names = sorted(p.name for p in one.iterdir() if p.name != "manifest.json")
    assert len(names) == 8
    for name in names:
        assert (hourly / name).read_bytes() == (one / name).read_bytes(), name


def test_kl_site_seeds_wrap_at_the_largest_seed(tmp_path):
    """Site k is seeded with (seed + k) mod 2^64: at the largest uint64 seed
    the second site draws what the first draws at seed 0."""
    wind = synthetic_wind_block(days=3)
    sites = wind["synthetic"]["sites"]
    sites["site_b"] = dict(sites["site_a"])
    top, zero = tmp_path / "top", tmp_path / "zero"
    path = write_config(tmp_path, wind=wind)
    assert main(["kl", "--config", str(path), "--out", str(top),
                 "--seed", str(2 ** 64 - 1)]) == 0
    assert main(["kl", "--config", str(path), "--out", str(zero), "--seed", "0"]) == 0
    assert (top / "wind_site_b.csv").read_bytes() == (zero / "wind_site_a.csv").read_bytes()


def test_kl_cloned_sites_have_unit_dcor(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    from windsed.datagen import (default_power_curve, synthetic_wind_table,
                                 write_wind_csv)
    from windsed.forecast import MaternKernel, SiteModel
    site = SiteModel("x", np.full(24, 8.0), MaternKernel(11.4, 0.56), 0.3, 24,
                     default_power_curve())
    rows = synthetic_wind_table(site, 40, seed=5)
    write_wind_csv(out / "a.csv", rows)
    write_wind_csv(out / "b.csv", rows)  # identical clone
    path = write_config(tmp_path, wind={
        "data": {"site_a": str(out / "a.csv"), "site_b": str(out / "b.csv")}})
    assert main(["kl", "--config", str(path)]) == 0
    dcor = (out / "dcor_modes.csv").read_text().splitlines()[1:]
    first = dict((int(r.split(",")[2]), float(r.split(",")[3])) for r in dcor)
    assert first[1] == pytest.approx(1.0, abs=1e-9)


def _mode_coordinates(rows):
    """A site's KL mode coordinates per kept day, as `kl` computes them,
    and the date of each."""
    from windsed import wind_kl as wk
    samples, days, _ = wk.hourly_average([row[:2] for row in rows])
    basis = wk.kl_decompose(wk.empirical_covariance(samples), samples.mean(axis=0))
    return wk.project_samples(basis, samples)[0], days


def test_kl_pairs_two_sites_days_by_date(tmp_path, capsys):
    """dcor_modes.csv pairs the days both sites kept by date: a record cut
    from the first day of one site drops that day from the pairs alone.
    Sites that share fewer than 2 days get empty dcor fields and a line
    naming the pair."""
    out = tmp_path / "out"
    out.mkdir()
    from windsed.datagen import (default_power_curve, synthetic_wind_table,
                                 write_wind_csv)
    from windsed.forecast import MaternKernel, SiteModel
    from windsed.wind_kl import distance_correlation
    site = SiteModel("x", np.full(24, 8.0), MaternKernel(11.4, 0.56), 0.3, 24,
                     default_power_curve())
    rows_a = synthetic_wind_table(site, 40, seed=5)
    rows_b = synthetic_wind_table(site, 40, seed=6)
    del rows_b[7]  # the first day of site_b misses 01:10
    write_wind_csv(out / "a.csv", rows_a)
    write_wind_csv(out / "b.csv", rows_b)
    path = write_config(tmp_path, wind={
        "data": {"site_a": str(out / "a.csv"), "site_b": str(out / "b.csv")}})
    assert main(["kl", "--config", str(path)]) == 0
    (xi_a, days_a), (xi_b, days_b) = _mode_coordinates(rows_a), _mode_coordinates(rows_b)
    assert days_b == days_a[1:]
    want = [f"site_a,site_b,{mode + 1},"
            f"{distance_correlation(xi_a[1:, mode], xi_b[:, mode])!r}" for mode in range(4)]
    assert (out / "dcor_modes.csv").read_text().splitlines()[1:] == want

    last_day = rows_a[-1][0][:10]
    write_wind_csv(out / "b.csv", synthetic_wind_table(site, 40, seed=6, start=last_day))
    capsys.readouterr()
    assert main(["kl", "--config", str(path)]) == 0
    assert "kl: sites site_a and site_b share 1 day(s); dcor needs 2" in \
        capsys.readouterr().out
    assert (out / "dcor_modes.csv").read_text().splitlines()[1:] == [
        f"site_a,site_b,{mode + 1}," for mode in range(4)]


def test_kl_constant_wind_reports_degenerate(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    rows = [(f"2004-01-{d + 1:02d}T{h:02d}:{m:02d}:00", 6.0, 10.0)
            for d in range(5) for h in range(24) for m in range(0, 60, 10)]
    from windsed.datagen import write_wind_csv
    write_wind_csv(out / "const.csv", rows)
    path = write_config(tmp_path, wind={"data": {"flat": str(out / "const.csv")}})
    assert main(["kl", "--config", str(path)]) == 0
    assert "degenerate" in capsys.readouterr().out


def test_kl_reports_dropped_days(tmp_path, capsys):
    """A site whose CSV misses an interval of one day and has a zero speed
    on another gets one line with its tally; a complete site gets none."""
    out = tmp_path / "out"
    out.mkdir()
    from windsed.datagen import (default_power_curve, synthetic_wind_table,
                                 write_wind_csv)
    from windsed.forecast import MaternKernel, SiteModel
    site = SiteModel("x", np.full(24, 8.0), MaternKernel(11.4, 0.56), 0.3, 24,
                     default_power_curve())
    rows = synthetic_wind_table(site, 40, seed=5)
    write_wind_csv(out / "b.csv", rows)
    gappy = rows[:150] + rows[151:]  # the second day misses 00:40
    ts, _, power = gappy[400]
    gappy[400] = (ts, 0.0, power)  # the third day holds a zero speed
    write_wind_csv(out / "a.csv", gappy)
    path = write_config(tmp_path, wind={
        "data": {"site_a": str(out / "a.csv"), "site_b": str(out / "b.csv")}})
    assert main(["kl", "--config", str(path)]) == 0
    sites = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("kl: site")]
    assert sites == ["kl: site site_a: dropped 2 day(s) "
                     "{'missing': 1, 'nonpositive': 1}"]


def test_dispatch_takes_unlimited_lines(tmp_path):
    """Flow limits of -inf and inf mean an unlimited line: the uncongested
    3-bus case solves to the same Q with every line unlimited."""
    text = (DATA / "case3.txt").read_text().replace("-250.0 250.0", "-inf inf")
    assert text.count("-inf inf") == 3
    case_path = tmp_path / "unlimited.txt"
    case_path.write_text(text)
    limited, unlimited = tmp_path / "limited", tmp_path / "unlimited"
    assert main(["dispatch", "--config", str(write_config(tmp_path)),
                 "--out", str(limited)]) == 0
    assert main(["dispatch", "--config", str(write_config(tmp_path, case=str(case_path))),
                 "--out", str(unlimited)]) == 0
    q = [json.loads((out / "dispatch_summary.json").read_text())["objective"]
         for out in (limited, unlimited)]
    assert q[1] == pytest.approx(q[0], rel=1e-12)


def merit_order_dispatch(case, loads_by_period):
    """Independent greedy oracle: with no congestion and loose ramps the LP
    reduces to filling cost segments in slope order each hour."""
    segs = []
    for g_idx, gen in enumerate(case.generators):
        pwl = linearize_cost(gen, 3)
        for s, slope in enumerate(pwl.slopes):
            segs.append((slope, pwl.breakpoints[s + 1] - pwl.breakpoints[s]))
    segs.sort()
    base = sum(linearize_cost(g, 3).value_at_first for g in case.generators)
    total = 0.0
    for demand in loads_by_period:
        need = demand - sum(g.p_min for g in case.generators)
        cost = base
        for slope, width in segs:
            take = min(max(need, 0.0), width)
            cost += slope * take
            need -= take
        total += cost
    return total


def test_dispatch_zero_germ_matches_merit_order_oracle(tmp_path, case3):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["dispatch", "--config", str(path)]) == 0
    summary = json.loads((out / "dispatch_summary.json").read_text())
    from windsed.datagen import default_power_curve
    loads = []
    for t in range(24):
        wind = sum(default_power_curve(s.nameplate)(8.0)
                   for s in case3.renewable_sites)
        loads.append(sum(b.load[t] for b in case3.buses) - wind)
    oracle = merit_order_dispatch(case3, loads)
    assert summary["objective"] == pytest.approx(oracle, abs=1e-6 * oracle)


def test_dispatch_dump_lp_parseable(tmp_path, case3):
    """The `dispatch.lp` that `--dump-lp` writes reads back as the LP that
    `build_instance` assembles at the germ: the objective, the matrix
    triplets in row-major order and all four bound arrays, bit for bit."""
    path = write_config(tmp_path)
    germ = "-0.5,0.25,0,1.5,0,-2"
    assert main(["dispatch", "--config", str(path), "--germ", germ, "--dump-lp"]) == 0
    got = lp_from_text((tmp_path / "out" / "dispatch.lp").read_text())
    cfg = ExperimentConfig.load(str(path))
    spec = build_forecast_spec(cfg, case3)

    def lp_at(g):
        return build_instance(case3, spec.power(g), cfg.segments).lp

    want = lp_at(np.array([float(v) for v in germ.split(",")]))
    assert not np.array_equal(want.row_lower, lp_at(np.zeros(6)).row_lower)
    assert (got.num_rows, got.num_cols) == (want.num_rows, want.num_cols)
    order = np.lexsort((want.col_idx, want.row_idx))  # no duplicate entries
    for mine, theirs in ((got.objective, want.objective),
                         (got.row_idx, want.row_idx[order]),
                         (got.col_idx, want.col_idx[order]),
                         (got.values, want.values[order]),
                         (got.row_lower, want.row_lower), (got.row_upper, want.row_upper),
                         (got.col_lower, want.col_lower), (got.col_upper, want.col_upper)):
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


def _edit(key, value=None):
    """Config edit setting the dotted `key` to `value`, or deleting it."""
    def edit(raw):
        *parents, last = key.split(".")
        for name in parents:
            raw = raw[name]
        if value is None:
            del raw[last]
        else:
            raw[last] = value
    return edit


def _wind(key, value=None):
    """Config edit adding a wind block with a synthetic source, then setting
    or deleting the dotted `key` inside it."""
    def edit(raw):
        raw["wind"] = synthetic_wind_block()
        _edit(f"wind.{key}", value)(raw)
    return edit


def _synthetic(key, value=None):
    """`_wind` for a key inside wind.synthetic."""
    return _wind(f"synthetic.{key}", value)


def _number_label(key):
    """Config edit relabelling the dotted `key`'s entry as 1, a number."""
    def edit(raw):
        *parents, last = key.split(".")
        for name in parents:
            raw = raw[name]
        raw[1] = raw.pop(last)
    return edit


def _case_edit(old: bytes, new: bytes):
    """Config edit pointing `case` at a copy of the 3-bus case with `old`
    replaced by `new`, written next to the output directory."""
    def edit(raw):
        text = (DATA / "case3.txt").read_bytes()
        assert old in text
        path = Path(raw["out"]).parent / "edited_case.txt"
        path.write_bytes(text.replace(old, new, 1))
        raw["case"] = str(path)
    return edit


def _raw_line(key, line: bytes):
    """Config edit replacing `key` with `line`, raw bytes written after the
    rest of the config."""
    def edit(raw):
        del raw[key]
        return line
    return edit


def _one_day(speed_at_ten_past: str) -> str:
    """A wind CSV of one complete day at 8 m/s, but for its 00:10 speed."""
    speeds = ["8.0"] * 144
    speeds[1] = speed_at_ten_past
    return "timestamp,speed_mps\n" + "".join(
        f"2004-01-01T{k // 6:02d}:{k % 6 * 10:02d}:00,{v}\n" for k, v in enumerate(speeds))


def _wind_csv(text: str, synthetic: bool = False):
    """Config edit pointing `wind.data.site_b` at a wind CSV holding `text`,
    written next to the output directory; with `synthetic`, beside a
    synthetic `site_a`, whose files must not be written when `site_b`
    fails."""
    def edit(raw):
        path = Path(raw["out"]).parent / "site_b.csv"
        path.write_text(text)
        raw["wind"] = {"data": {"site_b": str(path)}}
        if synthetic:
            block = synthetic_wind_block()["synthetic"]
            del block["sites"]["site_b"]
            raw["wind"]["synthetic"] = block
    return edit


SITE_A = "forecast.sites.site_a"
SYN_A = "wind.synthetic.sites.site_a"


@pytest.mark.parametrize("args,edit,code,needle", [
    (["dispatch", "--germ", "0,0", "--dump-lp"], None, 2, "--germ needs 6"),
    (["dispatch", "--germ", "a,b"], None, 2, "--germ needs 6"),
    (["dispatch", "--germ", "nan,0,0,0,0,0"], None, 2, "--germ needs 6 finite"),
    (["dispatch", "--scenario-file", "{good}", "--scenario-index", "3"], None, 2,
     "--scenario-index 3 is outside 0..2"),
    (["dispatch", "--scenario-file", "{corrupt}"], None, 3,
     "corrupt.txt: line 1 needs 6 finite"),
    (["dispatch", "--scenario-file", "{other}", "--scenario-index", "2"], None, 3,
     "other.txt: line 3 needs 6 finite"),
    (["dispatch", "--scenario-file", "{empty}"], None, 3, "empty.txt holds no germs"),
    (["dispatch", "--scenario-file", "{dump}"], None, 3, "dump.bin: not UTF-8 text"),
    (["dispatch", "--germ", "0,0,0,0,0,0", "--scenario-file", "{good}"], None, 2,
     "--germ and --scenario-file both give the germ"),
    (["dispatch", "--scenario-index", "1"], None, 2,
     "--scenario-index picks a germ of --scenario-file"),
    (["dispatch", "--germ="], None, 2,
     "--germ needs 6 finite comma-separated numbers, got ''"),
    (["dispatch", "--scenario-file=", "--scenario-index", "2"], None, 3,
     "--scenario-file names no file"),
    (["study"], _edit("segments", "abc"), 2, "`segments`"),
    (["study"], _edit("pce.levels", [1, 6]), 2, "`pce.levels`"),
    (["study"], _edit("pce.levels", [0, 1]), 2, "`pce.levels`"),
    (["study"], _edit("pce.levels", [2]), 2, "`pce.levels`"),
    (["study"], _edit("mc.realizations", 0), 2, "`mc.realizations`"),
    (["study"], _edit("forecast.truncation", 0), 2, "`forecast.truncation`"),
    (["study"], _edit("forecast.sigma_p", "abc"), 2, "`forecast.sigma_p`"),
    (["study"], _edit("forecast.sigma_p", -0.35), 2, "`forecast.sigma_p`"),
    (["study"], _edit(f"{SITE_A}.matern_l"), 2, f"`{SITE_A}.matern_l`"),
    (["study"], _edit(f"{SITE_A}.matern_l", -11.4), 2, f"`{SITE_A}.matern_l`"),
    (["study"], _edit("forecast.dependence", [[["site_a", 4], ["site_b", 4]]]), 2,
     "`forecast.dependence`: mode 4 outside truncation"),
    (["study", "--jobs", "0"], None, 2, "`jobs`"),
    (["study", "--seed", "-1"], None, 2, "`seed`"),
    (["study"], _edit("seed", 1e23), 2, "`seed` must fit in a uint64"),
    (["study"], _edit("case", str(DATA)), 3, f"Is a directory: '{DATA}'"),
    (["kl"], _synthetic("sites.site_a.matern_l"), 2, f"`{SYN_A}.matern_l`"),
    (["kl"], _synthetic("sites.site_a.matern_l", -1), 2, f"`{SYN_A}.matern_l`"),
    (["kl"], _synthetic("sites.site_a.sigma_w", "abc"), 2, f"`{SYN_A}.sigma_w`"),
    (["kl"], _synthetic("sites.site_a.mean_wind", -2), 2, f"`{SYN_A}.mean_wind`"),
    (["kl"], _synthetic("days", "abc"), 2, "`wind.synthetic.days`"),
    (["kl"], _synthetic("days", 0), 2, "`wind.synthetic.days`"),
    (["kl"], _synthetic("days", 1), 2, "`wind.synthetic.days` must be at least 2, got 1"),
    (["kl"], _synthetic("start", "nope"), 2, "`wind.synthetic.start`"),
    (["kl"], _synthetic("sites.site_a", 3), 2, f"`{SYN_A}` must be a mapping"),
    (["kl"], _edit("wind", [1]), 2, "`wind` must be a mapping"),
    (["study"], _edit(f"{SITE_A}.mean_wind", "abc"), 2, f"`{SITE_A}.mean_wind`"),
    (["study"], _edit(f"{SITE_A}.mean_wind", -1), 2, f"`{SITE_A}.mean_wind`"),
    (["study"], _edit(SITE_A, 3), 2, f"`{SITE_A}` must be a mapping"),
    (["study"], _edit("forecast", [1, 2]), 2, "`forecast` must be a mapping"),
    (["study"], _edit(f"{SITE_A}.mean_wnd", 12), 2,
     f"unknown `{SITE_A}` keys: ['mean_wnd']"),
    (["study"], _edit("forecast.sigma_P", 0.9), 2, "unknown `forecast` keys: ['sigma_P']"),
    (["study"], _edit("forecast.nameplate", 150.0), 2,
     "unknown `forecast` keys: ['nameplate']"),
    (["kl"], _synthetic("sites.site_a.mean_wnd", 12), 2,
     f"unknown `{SYN_A}` keys: ['mean_wnd']"),
    (["kl"], _synthetic("dayz", 40), 2, "unknown `wind.synthetic` keys: ['dayz']"),
    (["kl"], _wind("dta", {}), 2, "unknown `wind` keys: ['dta']"),
    (["kl"], _edit("wind", {"data": {1: "a.csv", "site_b": "b.csv"}}), 2,
     "`wind.data` keys must be strings, got 1"),
    (["kl"], _edit("wind", {"data": {"site_a": 0}}), 2,
     "`wind.data.site_a` must be a file path, got 0"),
    (["dispatch"], _number_label(SITE_A), 2,
     "`forecast.sites` keys must be strings, got 1"),
    (["study"], _raw_line("seed", b"seed: \xff\xfe\n"), 2, "config.yaml: not UTF-8 text"),
    (["dispatch"], _case_edit(b"# Three-bus", b"# \xff Three-bus"), 3,
     "edited_case.txt: not UTF-8 text"),
    (["dispatch"], _case_edit(b"T=24", b"T=0"), 3,
     "edited_case.txt: line 5: T must be at least 1"),
    (["dispatch"], _case_edit(b"SHED_PENALTY=5000.0", b"SHED_PENALTY=-5"), 3,
     "edited_case.txt: line 5: SHED_PENALTY must be positive and finite, got -5"),
    (["dispatch"], _case_edit(b"SHED_PENALTY=5000.0", b"SHED_PENALTY=inf"), 3,
     "edited_case.txt: line 5: SHED_PENALTY must be positive and finite, got inf"),
    (["dispatch"], _case_edit(b"BASE_MVA=100.0", b"BASE_MVA=nan"), 3,
     "edited_case.txt: line 5: BASE_MVA must be positive and finite, got nan"),
    (["dispatch"], _case_edit(b"BASE_MVA=100.0", b"BASE_MVA=-100"), 3,
     "edited_case.txt: line 5: BASE_MVA must be positive and finite, got -100"),
    (["dispatch", "--germ", "2,0,0,2,0,0"],
     _case_edit(b"site_a 40.0\n3 site_b 30.0", b"site_a 90.0\n3 site_b 90.0"), 4,
     "germ array([2., 0., 0., 2., 0., 0.])"),
    (["dispatch"], _case_edit(b"\n2 10.0", b"\n2 1e306"), 4,
     "dispatch at germ array([0., 0., 0., 0., 0., 0.]): objective overflows"),
    (["dispatch"], _case_edit(b"COMMITMENT\n0 1", b"COMMITMENT\n0 0.5"), 3,
     "edited_case.txt: line 25: commitment entries must be 0/1"),
    (["dispatch"], _case_edit(b"\n2 10.0", b"\n2.7 10.0"), 3,
     "edited_case.txt: line 9: bus id must be an integer, got 2.7"),
    (["dispatch"], _case_edit(b"2 3 0.12", b"2 3.5 0.12"), 3,
     "edited_case.txt: line 15: branch bus id must be an integer, got 3.5"),
    (["dispatch"], _case_edit(b"1 10.0 120.0", b"1 10.0 inf"), 3,
     "edited_case.txt: line 18: non-finite number in GEN"),
    (["dispatch"], _case_edit(b"1 2 0.1 ", b"1 2 nan "), 3,
     "edited_case.txt: line 13: non-finite number in BRANCH"),
    (["dispatch"], _case_edit(b"1 2 0.1 -250.0", b"1 2 0.1 nan"), 3,
     "edited_case.txt: line 13: non-finite number in BRANCH"),
    (["dispatch"], _case_edit(b"3 90.0", b"3 nan"), 3,
     "edited_case.txt: line 10: non-finite number in BUS"),
    (["dispatch"], _case_edit(b"site_a 40.0", b"site_a nan"), 3,
     "edited_case.txt: line 22: nameplate must be positive and finite, got nan"),
    (["dispatch"], _case_edit(b"site_b 30.0", b"site_b -30.0"), 3,
     "edited_case.txt: line 23: nameplate must be positive and finite, got -30.0"),
    (["dispatch"], _case_edit(b"1 site_a", b"one site_a"), 3,
     "edited_case.txt: line 22: non-numeric token in RENEWABLE"),
    (["dispatch"], _case_edit(b"1 2 0.1 ", b"1 2 1e-320 "), 3,
     "edited_case.txt: line 13: reactance must be positive with a finite "
     "reciprocal, got 1e-320"),
    (["dispatch"], _case_edit(b"COMMITMENT\n0 1", b"COMMITMENT\n5 1"), 3,
     "edited_case.txt: line 25: COMMITMENT references unknown generator 5"),
    (["dispatch"], _case_edit(b"COMMITMENT\n0 1", b"COMMITMENT\n0" + b" 0" * 24 + b"\n0 1"),
     3, "edited_case.txt: line 26: second COMMITMENT row for generator 0"),
    (["study"], _edit("segments", 2.7), 2, "`segments` must be an integer, got 2.7"),
    (["study"], _raw_line("segments", b"segments: yes\n"), 2,
     "`segments` must be an integer, got True"),
    (["study"], _edit("forecast.truncation", 2.5), 2,
     "`forecast.truncation` must be an integer, got 2.5"),
    (["study"], _edit("mc.schedule", [10, 30.5]), 2, "`mc.schedule` must be an integer"),
    (["study"], _edit("forecast.dependence", [[["site_a", 1.5], ["site_b", 1]]]), 2,
     "`forecast.dependence` must be an integer, got 1.5"),
    (["study"], _edit("forecast.sigma_p", float("inf")), 2,
     "`forecast.sigma_p` must be a positive finite number, got inf"),
    (["study"], _edit(f"{SITE_A}.matern_l", float("inf")), 2, f"`{SITE_A}.matern_l`"),
    (["study"], _edit(f"{SITE_A}.mean_wind", float("inf")), 2, f"`{SITE_A}.mean_wind`"),
    (["kl"], _synthetic("sites.site_a.mean_wind", float("inf")), 2,
     f"`{SYN_A}.mean_wind`"),
    (["kl"], _wind_csv(_one_day("nan")), 3,
     "site site_b: day 2004-01-01: an hourly mean speed is not finite"),
    (["kl"], _wind_csv(_one_day("inf")), 3,
     "site site_b: day 2004-01-01: an hourly mean speed is not finite"),
    (["kl"], _synthetic("sites.site_a.mean_wind", 1e308), 3,
     "site site_a: day 2004-01-01: an hourly mean speed is not finite"),
    (["dispatch"], _case_edit(b"26.0 0.09", b"26.0 1e308"), 3,
     "edited_case.txt: line 19: cost must be finite from p_min to p_max"),
    (["dispatch"], _raw_line("seed", b"seed: 2004-02-30\n"), 2,
     "config is not valid YAML: day is out of range for month"),
    (["kl"], _wind_csv("timestamp,speed_mps\n2004-01-01T00:00:00,7.5\n", synthetic=True),
     3, "no complete days"),
    (["dispatch"], _case_edit(b"\n2 10.0", b"\n1 10.0"), 3,
     "edited_case.txt: line 9: duplicate bus id 1"),
    (["dispatch"], _case_edit(b"3 site_b", b"3 site_a"), 3,
     "edited_case.txt: line 23: duplicate renewable site label site_a"),
    (["dispatch"], _edit("forecast.dependence", [[["site_a"]]]), 2,
     "`forecast.dependence` group 1 must be a list of [site, mode] pairs, "
     "got [['site_a']]"),
    (["dispatch"], _edit("forecast.dependence", [["site_a", 1]]), 2,
     "`forecast.dependence` group 1 must be a list of [site, mode] pairs, "
     "got ['site_a', 1]"),
    (["dispatch"], _edit("forecast.dependence", [[["site_a", 1]], [["site_x", 1]]]), 2,
     "`forecast.dependence`: unknown site site_x (group 2)"),
    (["study"], _edit("forecast.truncation", 40), 2,
     "`forecast.truncation` must be in 1..24, got 40"),
    (["study"], _edit("forecast.sigma_p", True), 2,
     "`forecast.sigma_p` must be a positive finite number, got True"),
    (["study"], _edit(f"{SITE_A}.mean_wind", True), 2,
     f"`{SITE_A}.mean_wind` must be a positive finite number or 24 of them, got True"),
    (["kl"], _synthetic("sites.site_a.mean_wind", True), 2,
     f"`{SYN_A}.mean_wind` must be a positive finite number or 24 of them, got True"),
    (["kl"], _synthetic("sites.site_a.sigma_w", True), 2,
     f"`{SYN_A}.sigma_w` must be a positive finite number, got True"),
    (["study"], _edit("forecast.sigma_p", 10 ** 400), 2,
     "`forecast.sigma_p` must be a positive finite number, got 1000"),
    (["study"], _edit(f"{SITE_A}.mean_wind", [10 ** 400] * 24), 2,
     f"`{SITE_A}.mean_wind` must be a positive finite number or 24 of them"),
], ids=["germ-too-short", "germ-not-numeric", "germ-not-finite",
        "scenario-index-out-of-range", "scenario-file-corrupt",
        "scenario-file-other-spec", "scenario-file-empty",
        "scenario-file-binary-dump", "germ-beside-scenario-file",
        "scenario-index-without-file", "germ-empty", "scenario-file-name-empty",
        "segments-not-integer",
        "level-too-high", "level-too-low", "one-level", "no-realizations",
        "zero-truncation", "sigma_p-not-numeric", "sigma_p-negative",
        "matern_l-missing", "matern_l-negative", "dependence-beyond-truncation",
        "jobs-zero", "seed-negative", "seed-too-large", "case-is-directory",
        "synthetic-matern_l-missing", "synthetic-matern_l-negative",
        "synthetic-sigma_w-not-numeric", "synthetic-mean_wind-negative",
        "synthetic-days-not-integer", "synthetic-days-zero", "synthetic-days-one",
        "synthetic-start-not-a-date", "synthetic-site-not-mapping",
        "wind-not-mapping", "mean_wind-not-numeric", "mean_wind-negative",
        "forecast-site-not-mapping", "forecast-not-mapping",
        "forecast-site-unknown-key", "forecast-unknown-key", "forecast-nameplate",
        "synthetic-site-unknown-key", "synthetic-unknown-key", "wind-unknown-key",
        "wind-data-label-not-a-string", "wind-data-path-not-a-string",
        "forecast-site-label-not-a-string", "config-not-utf8", "case-not-utf8",
        "case-periods-zero", "case-shed-penalty-negative", "case-shed-penalty-inf",
        "case-base-mva-nan", "case-base-mva-negative", "dispatch-over-generation",
        "dispatch-objective-overflows",
        "case-commitment-fractional", "case-bus-id-fractional",
        "case-branch-bus-fractional", "case-pmax-inf", "case-reactance-nan",
        "case-flow-limit-nan", "case-load-nan", "case-nameplate-nan",
        "case-nameplate-negative", "case-renewable-bus-not-numeric",
        "case-reactance-reciprocal-overflows", "case-commitment-unknown-generator",
        "case-commitment-repeated",
        "segments-fractional", "segments-yes", "truncation-fractional",
        "mc-schedule-fractional", "dependence-mode-fractional", "sigma_p-inf",
        "matern_l-inf", "mean_wind-inf", "synthetic-mean_wind-inf",
        "wind-speed-nan", "wind-speed-inf", "synthetic-mean_wind-overflows",
        "case-cost-overflows", "config-date-does-not-exist",
        "kl-site-fails-beside-a-synthetic-site", "case-bus-id-repeated",
        "case-site-label-repeated", "dependence-group-not-pairs",
        "dependence-pair-not-in-a-group", "dependence-site-unknown",
        "truncation-above-24", "sigma_p-yes", "mean_wind-yes", "synthetic-mean_wind-yes",
        "synthetic-sigma_w-yes", "sigma_p-int-overflows", "mean_wind-int-overflows"])
def test_bad_input_exits_without_traceback(tmp_path, capsys, spec3, args, edit,
                                           code, needle):
    """Every bad argument or config value exits with its documented code and
    a message naming it, before any output is written."""
    germs = sample_germs(5, 3, spec3.dimension)
    good = tmp_path / "good.txt"
    np.savetxt(good, germs, delimiter=",")
    corrupt = tmp_path / "corrupt.txt"  # cut inside its first germ
    corrupt.write_text(good.read_text()[:11])
    other = tmp_path / "other.txt"  # written for a spec with one site
    np.savetxt(other, germs[:, :3], delimiter=",")
    empty = tmp_path / "empty.txt"
    empty.write_text("\n  \n")
    dump = tmp_path / "dump.bin"  # the binary scenario dump of earlier versions
    dump.write_bytes(struct.pack("<4sIIIIB", b"WSCN", 3, 2, 6, 13, 0)
                     + b"site_a,site_b" + germs.astype("<f8").tobytes())
    path = write_config(tmp_path)
    if edit:
        raw = yaml.safe_load(path.read_text())
        tail = edit(raw) or b""
        path.write_bytes(yaml.safe_dump(raw).encode() + tail)
    argv = [a.format(good=good, corrupt=corrupt, other=other, empty=empty, dump=dump)
            for a in args]
    assert main([argv[0], "--config", str(path), *argv[1:]]) == code
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_dispatch_builds_no_atlas(tmp_path, monkeypatch):
    """`windsed dispatch` solves its one LP directly: no study evaluator, so
    no atlas."""
    def no_atlas(self):
        raise AssertionError("dispatch built an atlas")

    monkeypatch.setattr(SedEvaluator, "_build_atlas", no_atlas)
    assert main(["dispatch", "--config", str(write_config(tmp_path))]) == 0


def test_dispatch_objective_is_the_evaluators_q(tmp_path, monkeypatch):
    """At three germs of the bundled small study, `windsed dispatch` gives
    the Q a study evaluator gives, to 1e-12 relative."""
    monkeypatch.chdir(DATA.parent)  # case paths are relative to the repo
    config = str(DATA / "study_small.yaml")
    cfg = ExperimentConfig.load(config)
    spec = build_forecast_spec(cfg, load_case(cfg.case_path))
    ev = SedEvaluator(load_case(cfg.case_path), spec, cfg.segments)
    for k, germ in enumerate(sample_germs(6, 3, spec.dimension)):
        out = tmp_path / f"germ{k}"
        assert main(["dispatch", "--config", config, "--out", str(out),
                     "--germ=" + ",".join(map(repr, germ.tolist()))]) == 0
        summary = json.loads((out / "dispatch_summary.json").read_text())
        assert summary["objective"] == pytest.approx(ev(germ), rel=1e-12, abs=0.0)


def test_dispatch_all_off_commitment_full_shed(tmp_path, case3):
    import dataclasses

    from case_text import serialize_case
    from windsed.datagen import default_power_curve
    gens = tuple(dataclasses.replace(g, commitment=(0,) * 24)
                 for g in case3.generators)
    dark = dataclasses.replace(case3, generators=gens)
    case_path = tmp_path / "dark.txt"
    case_path.write_text(serialize_case(dark))
    path = write_config(tmp_path, case=str(case_path))
    out = tmp_path / "out"
    assert main(["dispatch", "--config", str(path), "--germ",
                 ",".join(["0"] * 6)]) == 0
    summary = json.loads((out / "dispatch_summary.json").read_text())
    total_load = sum(sum(b.load) for b in case3.buses)
    # at the mean forecast, wind still injects; everything else is shed
    wind = 24 * sum(default_power_curve(s.nameplate)(8.0)
                    for s in case3.renewable_sites)
    assert summary["objective"] == pytest.approx(
        5000.0 * (total_load - wind), rel=1e-9)
    assert summary["total_shed_mw"] == pytest.approx(total_load - wind, rel=1e-9)


def test_dispatch_reads_scenario_file(tmp_path, spec3):
    """A germ list written by np.savetxt gives back its germs bit for bit,
    and the dispatch of the same germ passed as --germ."""
    germs = sample_germs(5, 3, spec3.dimension)
    scen_path = tmp_path / "germs.txt"
    np.savetxt(scen_path, germs, delimiter=",")
    path = write_config(tmp_path)
    out, again = tmp_path / "out", tmp_path / "again"
    assert main(["dispatch", "--config", str(path), "--scenario-file",
                 str(scen_path), "--scenario-index", "2"]) == 0
    summary = json.loads((out / "dispatch_summary.json").read_text())
    assert summary["germ"] == germs[2].tolist()
    assert main(["dispatch", "--config", str(path), "--out", str(again),
                 "--germ=" + ",".join(map(repr, germs[2].tolist()))]) == 0
    assert (out / "dispatch.csv").read_bytes() == (again / "dispatch.csv").read_bytes()


def test_dispatch_germ_may_start_with_a_minus_sign(tmp_path):
    """A germ whose first coordinate is negative passes as the next token,
    as it does after `--germ=`."""
    path = write_config(tmp_path)
    out, again = tmp_path / "out", tmp_path / "again"
    assert main(["dispatch", "--config", str(path), "--germ", "-0.5,0,0,0,0,0"]) == 0
    assert main(["dispatch", "--config", str(path), "--out", str(again),
                 "--germ=-0.5,0,0,0,0,0"]) == 0
    assert (out / "dispatch.csv").read_bytes() == (again / "dispatch.csv").read_bytes()


def test_study_runs_verifies_and_reproduces(tmp_path):
    path = write_config(tmp_path)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["study", "--config", str(path), "--out", str(out1),
                 "--verify"]) == 0
    assert main(["study", "--config", str(path), "--out", str(out2)]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
    header = (out1 / "report.csv").read_text().splitlines()[0]
    assert header == "method,resolution,realization,value,error"


def test_study_verify_failure_exits_4(tmp_path, capsys, monkeypatch):
    """A report with an MC error that is not a number fails `--verify`:
    exit 4, with the row named on stderr."""
    study = estimate.convergence_study

    def nan_mc_error(*args, **kwargs):
        rep = study(*args, **kwargs)
        rows = list(rep.rows)
        k = next(i for i, r in enumerate(rows) if r.method == "mc" and r.error is not None)
        rows[k] = dataclasses.replace(rows[k], error=float("nan"))
        return dataclasses.replace(rep, rows=tuple(rows))

    monkeypatch.setattr(estimate, "convergence_study", nan_mc_error)
    assert main(["study", "--config", str(write_config(tmp_path)), "--verify"]) == 4
    err = capsys.readouterr().err
    assert "study: VERIFY FAILED: MC error at resolution 10, realization 0 " in err


def test_one_dimensional_study_reports_a_zero_error(tmp_path, capsys):
    """One site with one KL mode: under delayed growth 1-D levels 1 and 2
    share the 3-point rule, so they give the same c0 and level 1's error
    is exactly 0.0."""
    case = (DATA / "case3.txt").read_text()
    assert "3 site_b 30.0\n" in case
    (tmp_path / "case1.txt").write_text(case.replace("3 site_b 30.0\n", ""))
    forecast = {"sigma_p": 0.35, "truncation": 1, "sites": {
        "site_a": {"mean_wind": 8.0, "matern_l": 11.40, "matern_nu": 0.56}}}
    path = write_config(tmp_path, case=str(tmp_path / "case1.txt"), forecast=forecast,
                        pce={"levels": [1, 2]})
    assert main(["study", "--config", str(path), "--verify"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = [line.split(",") for line in
            (tmp_path / "out" / "report.csv").read_text().splitlines()]
    assert [row[4] for row in rows if row[:2] == ["pce", "1"]] == ["0.0"]


def test_study_runs_above_32_germ_dimensions(tmp_path):
    """Seventeen modes at each of two sites make a 34-dimensional germ; the
    sparse grid has no dimension cap, so the study exits 0 without a
    traceback and writes both reports."""
    forecast = yaml.safe_load(write_config(tmp_path).read_text())["forecast"]
    path = write_config(tmp_path, forecast=dict(forecast, truncation=17))
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = "import sys; from windsed.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, "study", "--config", str(path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert (tmp_path / "out" / "report.csv").is_file()
    assert (tmp_path / "out" / "report_long.csv").is_file()


def reports_by_jobs_and_start_method(path, tmp_path, monkeypatch):
    """The study's report.csv bytes at --jobs 1, on a forked pool of 2 and on
    a spawned pool of 2."""
    reports = []
    for jobs, method in ((1, None), (2, "fork"), (2, "spawn")):
        if method:
            monkeypatch.setattr(multiprocessing, "Pool",
                                multiprocessing.get_context(method).Pool)
        out = tmp_path / f"jobs{jobs}-{method}"
        assert main(["study", "--config", str(path), "--out", str(out),
                     "--jobs", str(jobs)]) == 0
        reports.append((out / "report.csv").read_bytes())
    return reports


def test_study_report_does_not_depend_on_jobs_or_start_method(tmp_path,
                                                              monkeypatch):
    """The study's germs go through one map whose chunks the germ count
    alone fixes, so the report is byte-identical in one process, on a
    forked pool and on a spawned one.  This sweep's report differs in three
    rows between --jobs 1 and 2 when the chunks depend on the worker count."""
    path = write_config(tmp_path, seed=3, pce={"levels": [1, 2, 3, 4]},
                        mc={"schedule": [10, 100], "realizations": 2})
    single, forked, spawned = reports_by_jobs_and_start_method(path, tmp_path, monkeypatch)
    assert forked == single
    assert spawned == single


@pytest.mark.slow
def test_118_bus_report_does_not_depend_on_jobs_or_start_method(tmp_path, monkeypatch):
    """The 118-bus LP has no atlas, so each chunk chains its re-solves from
    the anchor; a chunk's chain depends on its germs alone, so the report is
    byte-identical in one process, on a forked pool and on a spawned one
    (141 germs in 2 chunks)."""
    sites = {
        "site_15414": {"mean_wind": 8.0, "matern_l": 11.40, "matern_nu": 0.56},
        "site_16238": {"mean_wind": 8.0, "matern_l": 11.15, "matern_nu": 0.57},
        "site_3560": {"mean_wind": 8.5, "matern_l": 9.79, "matern_nu": 0.78},
    }
    dependence = [[["site_15414", k], ["site_16238", k]] for k in (1, 2)]
    path = write_config(tmp_path, case=str(DATA / "case118.txt"), seed=3,
                        forecast={"sigma_p": 0.35, "truncation": 3, "sites": sites,
                                  "dependence": dependence},
                        pce={"levels": [1, 2]}, mc={"schedule": [10, 32], "realizations": 1})
    single, forked, spawned = reports_by_jobs_and_start_method(path, tmp_path, monkeypatch)
    assert forked == single
    assert spawned == single


def test_seed_override_changes_outputs(tmp_path):
    path = write_config(tmp_path)
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert main(["study", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["study", "--config", str(path), "--out", str(out2),
                 "--seed", "7"]) == 0
    assert (out1 / "report.csv").read_text() != (out2 / "report.csv").read_text()


@pytest.mark.parametrize("name", ["convergence3", "study_small", "study118"])
def test_bundled_config_builds_its_spec(name, monkeypatch):
    monkeypatch.chdir(DATA.parent)  # case paths are relative to the repo
    cfg = ExperimentConfig.load(str(DATA / f"{name}.yaml"))
    spec = build_forecast_spec(cfg, load_case(cfg.case_path))
    assert len(cfg.pce_levels) >= 2 and len(cfg.mc_schedule) >= 2
    assert spec.dimension > 0


def test_config_round_trip_and_digest(tmp_path):
    path = write_config(tmp_path)
    cfg = ExperimentConfig.load(str(path))
    assert cfg.segments == 3
    d1 = cfg.digest()
    cfg.out = "elsewhere"
    cfg.jobs = 4
    assert cfg.digest() == d1  # workspace knobs excluded
    cfg.seed = 77
    assert cfg.digest() != d1


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    """Importing the CLI loads none of scipy.interpolate, scipy.optimize,
    scipy.sparse.csgraph and scipy.spatial, which would cost every process
    (and every pool worker) start-up time and memory; the Matern fit
    imports scipy.optimize when it runs."""
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    heavy = ["scipy.interpolate", "scipy.optimize", "scipy.sparse.csgraph", "scipy.spatial"]
    code = ("import sys, windsed.cli; "
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("given, want", [(None, "1"), ("2", "2")])
def test_openblas_threads_default_to_one(given, want):
    """Importing windsed sets OPENBLAS_NUM_THREADS to 1 before numpy loads,
    so OpenBLAS starts no helper thread, and an explicit count is kept."""
    src = Path(__file__).parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    code = ("import os, windsed.cli; "
            "print(os.environ['OPENBLAS_NUM_THREADS']); "
            "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') "
            "else 1)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    value, threads = proc.stdout.split()
    assert value == want
    if given is None:
        assert threads == "1"  # no OpenBLAS helper thread beside the main one
