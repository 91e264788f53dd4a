import json
import multiprocessing
from pathlib import Path

import pytest
import yaml

from windsed.cli import ExperimentConfig, build_forecast_spec, main
from windsed.grid_model import linearize_cost, load_case

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


def test_print_schema():
    assert main(["--print-schema"]) == 0


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


def test_kl_cloned_sites_have_unit_dcor(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    from windsed.datagen import (SyntheticSite, synthetic_wind_table,
                                 write_wind_csv)
    from windsed.forecast import MaternKernel
    site = SyntheticSite("x", MaternKernel(11.4, 0.56, 1.0), 0.3)
    rows = synthetic_wind_table(site, 40, seed=5)
    write_wind_csv(out / "a.csv", rows)
    write_wind_csv(out / "b.csv", rows)  # identical clone
    path = write_config(tmp_path, wind={
        "data": {"site_a": str(out / "a.csv"), "site_b": str(out / "b.csv")}})
    assert main(["kl", "--config", str(path)]) == 0
    dcor = (out / "dcor_modes.csv").read_text().splitlines()[1:]
    first = dict((int(r.split(",")[2]), float(r.split(",")[3])) for r in dcor)
    assert first[1] == pytest.approx(1.0, abs=1e-9)


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


def test_dispatch_dump_lp_parseable(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["dispatch", "--config", str(path), "--dump-lp"]) == 0
    from windsed.lp_solver import LinearProgram
    lp = LinearProgram.from_text((out / "dispatch.lp").read_text())
    assert lp.num_rows > 0 and lp.num_cols > 0


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


SITE_A = "forecast.sites.site_a"


@pytest.mark.parametrize("args,edit,code,needle", [
    (["dispatch", "--germ", "0,0", "--dump-lp"], None, 2, "--germ needs 6"),
    (["dispatch", "--germ", "a,b"], None, 2, "--germ needs 6"),
    (["dispatch", "--germ", "nan,0,0,0,0,0"], None, 2, "--germ needs 6 finite"),
    (["dispatch", "--scenario-file", "{good}", "--scenario-index", "3"], None, 2,
     "--scenario-index 3 is outside 0..2"),
    (["dispatch", "--scenario-file", "{corrupt}"], None, 3, "not a scenario dump"),
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
    (["study"], _edit("case", str(DATA)), 3, "data error"),
], ids=["germ-too-short", "germ-not-numeric", "germ-not-finite",
        "scenario-index-out-of-range", "scenario-file-corrupt", "segments-not-integer",
        "level-too-high", "level-too-low", "one-level", "no-realizations",
        "zero-truncation", "sigma_p-not-numeric", "sigma_p-negative",
        "matern_l-missing", "matern_l-negative", "dependence-beyond-truncation",
        "jobs-zero", "seed-negative", "seed-too-large", "case-is-directory"])
def test_bad_input_exits_without_traceback(tmp_path, capsys, spec3, args, edit,
                                           code, needle):
    """Every bad argument or config value exits with its documented code and
    a message naming it, before any output is written."""
    from windsed import forecast as fc
    good = tmp_path / "good.bin"
    good.write_bytes(fc.generate_scenarios(spec3, seed=5, n_scenarios=3).to_binary())
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(good.read_bytes()[:11])
    path = write_config(tmp_path)
    if edit:
        raw = yaml.safe_load(path.read_text())
        edit(raw)
        path.write_text(yaml.safe_dump(raw))
    argv = [a.format(good=good, corrupt=corrupt) for a in args]
    assert main([argv[0], "--config", str(path), *argv[1:]]) == code
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_dispatch_all_off_commitment_full_shed(tmp_path, case3):
    import dataclasses

    from windsed.datagen import default_power_curve
    from windsed.grid_model import serialize_case
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


def test_dispatch_reads_scenario_file(tmp_path, case3, spec3):
    from windsed import forecast as fc
    ss = fc.generate_scenarios(spec3, seed=5, n_scenarios=3)
    scen_path = tmp_path / "scen.bin"
    scen_path.write_bytes(ss.to_binary())
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["dispatch", "--config", str(path), "--scenario-file",
                 str(scen_path), "--scenario-index", "2"]) == 0
    summary = json.loads((out / "dispatch_summary.json").read_text())
    assert summary["germ"] == [float(v) for v in ss.germs[2]]


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


def test_study_report_does_not_depend_on_jobs_or_start_method(tmp_path,
                                                              monkeypatch):
    """The study's germs go through one map whose chunks the germ count
    alone fixes, so the report is byte-identical in one process, on a
    forked pool and on a spawned one.  This sweep's report differs in three
    rows between --jobs 1 and 2 when the chunks depend on the worker count."""
    path = write_config(tmp_path, seed=3, pce={"levels": [1, 2, 3, 4]},
                        mc={"schedule": [10, 100], "realizations": 2})
    reports = []
    for jobs, method in ((1, None), (2, "fork"), (2, "spawn")):
        if method:
            monkeypatch.setattr(multiprocessing, "Pool",
                                multiprocessing.get_context(method).Pool)
        out = tmp_path / f"jobs{jobs}-{method}"
        assert main(["study", "--config", str(path), "--out", str(out),
                     "--jobs", str(jobs)]) == 0
        reports.append((out / "report.csv").read_bytes())
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


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
