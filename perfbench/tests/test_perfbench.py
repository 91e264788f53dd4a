"""Tests of the benchmark itself: its checks pass on the program's outputs
and fail on corrupted ones, its trace yields the layer metrics, and it
refuses to run without the program's sources.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""
import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import checks
import layers
from conftest import BENCH, ROOT
from windsed import cli
from windsed.sed_model import SedEvaluator

CONFIG = f"""\
case: {ROOT / 'data' / 'case3.txt'}
segments: 3
seed: 11
forecast:
  sigma_p: 0.35
  truncation: 3
  sites:
    site_a: {{mean_wind: 8.0, matern_l: 11.40, matern_nu: 0.56}}
    site_b: {{mean_wind: 8.5, matern_l: 9.79, matern_nu: 0.78}}
pce:
  levels: [1, 2, 3]
mc:
  schedule: [10, 20, 40]
  realizations: 2
"""


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A small 3-bus study and dispatch, with the benchmark's references."""
    work = tmp_path_factory.mktemp("small")
    config = work / "small.yaml"
    config.write_text(CONFIG)
    assert cli.main(["study", "--config", str(config), "--out", str(work / "study"),
                     "--verify"]) == 0
    assert cli.main(["dispatch", "--config", str(config),
                     "--out", str(work / "dispatch")]) == 0
    study = checks.Study(config, 11)
    highs = checks.HighsDispatch(study)
    ref = checks.reference(study, highs, uncongested=True)
    return work, config, study, highs, ref


def _rewrite(path, edit):
    rows = list(csv.DictReader(open(path, newline="")))
    for row in rows:
        edit(row)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_checks_pass_on_program_outputs(small):
    work, _, study, highs, ref = small
    rep = checks.read_report(work / "study" / "report.csv")
    assert checks.check_report(study, rep, ref) == []
    assert checks.check_dispatch(study, work / "dispatch", ref) == []
    ev = SedEvaluator(study.case, study.spec, study.cfg.segments)
    germs = np.vstack(checks.sample_germs(study, 4))
    assert checks.check_q_values(study, highs, germs, [ev(g) for g in germs], True) == []
    assert study.n_evals == study.n_nodes + 2 * (10 + 20 + 40)


@pytest.mark.parametrize("row_key", [("pce", "1"), ("mc", "10")])
def test_corrupted_report_fails(small, tmp_path, row_key):
    work, _, study, _, ref = small
    path = tmp_path / "report.csv"
    path.write_text((work / "study" / "report.csv").read_text())

    def nudge(row):
        if (row["method"], row["resolution"], row["realization"]) == (*row_key, "0"):
            row["value"] = repr(float(row["value"]) * (1 + 1e-7))
    _rewrite(path, nudge)
    fails = checks.check_report(study, checks.read_report(path), ref)
    assert fails and row_key[0] in fails[0]


def test_pce_errors_that_do_not_fall_fail(small, tmp_path):
    work, _, study, _, ref = small
    path = tmp_path / "report.csv"
    path.write_text((work / "study" / "report.csv").read_text())

    def raise_level2(row):
        if (row["method"], row["resolution"]) == ("pce", "2"):
            row["error"] = "1.0"
    _rewrite(path, raise_level2)
    fails = checks.check_report(study, checks.read_report(path), ref)
    assert any("fall with level" in f for f in fails)


def test_wrong_q_fails(small, tmp_path, monkeypatch):
    """A study whose Q is off by one part in 10^7 fails the report checks."""
    _, config, study, highs, ref = small
    honest = SedEvaluator.__call__
    monkeypatch.setattr(SedEvaluator, "__call__",
                        lambda self, germ: honest(self, germ) * (1 + 1e-7))
    assert cli.main(["study", "--config", str(config), "--out", str(tmp_path)]) == 0
    fails = checks.check_report(study, checks.read_report(tmp_path / "report.csv"),
                                ref)
    assert any("HiGHS" in f for f in fails)
    germs = np.vstack(checks.sample_germs(study, 2))
    ev = SedEvaluator(study.case, study.spec, study.cfg.segments)
    assert checks.check_q_values(study, highs, germs, [ev(g) for g in germs], True)


def test_corrupted_dispatch_fails(small, tmp_path):
    work, _, study, _, ref = small
    for name in ("dispatch.csv", "dispatch_summary.json"):
        (tmp_path / name).write_text((work / "dispatch" / name).read_text())
    summary = json.loads((tmp_path / "dispatch_summary.json").read_text())
    summary["objective"] += 1.0
    (tmp_path / "dispatch_summary.json").write_text(json.dumps(summary))
    assert any("HiGHS" in f for f in checks.check_dispatch(study, tmp_path, ref))

    def shift(row):
        if (row["entity"], row["index"], row["period"]) == ("generator", "0", "5"):
            row["value"] = repr(float(row["value"]) + 1.0)
    _rewrite(tmp_path / "dispatch.csv", shift)
    fails = checks.check_dispatch(study, tmp_path, ref)
    assert any("load" in f for f in fails)


def test_merit_order_matches_lp_on_the_3bus_case(small):
    _, _, study, highs, _ = small
    germs = np.random.default_rng(5).standard_normal((8, study.dim)) * 2.0
    merit = study.merit_order_q(study.wind(germs))
    np.testing.assert_allclose(merit, highs.q(germs), rtol=1e-9)


def test_evals_to_target():
    assert checks.evals_to_target((0.01, 1.0), 1e-4) == pytest.approx(100.0)
    assert checks.evals_to_target(None, 1e-4) == 0.0


def _span(pid, sid, name, start, end, parent=None, **extra):
    return {"id": f"{pid}:{sid}", "pid": pid, "name": name, "parent": parent,
            "start": start, "end": end, "cpu": end - start, **extra}


def test_layer_metrics_on_synthetic_spans():
    call, solve = layers.EVAL_SPAN, "lp_solver.RepeatSolver.solve_value"
    spans = [
        _span(1, "i", "cli.import", 0.0, 0.5),
        _span(1, 0, layers.MAP_SPAN, 1.0, 2.0),
        _span(1, 1, layers.BATCH_SPAN, 1.1, 1.9, "1:0"),
        _span(1, 2, call, 1.1, 1.5, "1:1", germ=[0.0], q=1.0),
        _span(1, 3, solve, 1.2, 1.5, "1:2", iterations=40, cold=True),
        _span(1, 4, call, 1.5, 1.6, "1:1", germ=[0.3], q=1.0),
        _span(1, 5, solve, 1.55, 1.6, "1:4", iterations=0, cold=False),
        _span(1, 6, layers.MAP_SPAN, 3.0, 4.0),
        _span(2, 0, layers.BATCH_SPAN, 3.2, 3.7),
        _span(2, 1, call, 3.2, 3.7, "2:0", germ=[0.5], q=1.0),
        _span(2, 2, solve, 3.3, 3.7, "2:1", iterations=4, cold=False),
    ]
    m = layers.layer_metrics(spans, grid_nodes={(0.0,)})
    assert m["lp_solver.cold_pivots"] == 40
    assert m["lp_solver.warm_pivots_total"] == 4
    assert m["lp_solver.zero_pivot_share"] == pytest.approx(0.5)
    assert m["lp_solver.s_per_pivot"] == pytest.approx(0.1)
    assert m["sed_model.evals"] == 3
    assert m["sed_model.eval_node_s_p50"] == pytest.approx(0.4)
    assert m["sed_model.overhead_s_p50"] == pytest.approx(0.1)
    assert m["estimate.pools"] == 1
    assert m["estimate.pool_overhead_s"] == pytest.approx(0.1 + 0.1 + 0.2 + 0.3)
    assert m["estimate.parallel_map_s"] == pytest.approx(2.0)
    assert set(m) | {"estimate.pce_evals_to_target", "estimate.mc_evals_to_target",
                     "bench.trace_overhead_s"} == set(layers.UNITS)


def test_tracer_records_every_layer(small, tmp_path):
    """A traced two-worker study gives spans from the workers too, one
    evaluation span per model evaluation, and the same report."""
    work, config, study, _, _ = small
    spans_dir = tmp_path / "spans"
    spans_dir.mkdir()
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(spans_dir), "study",
                    "--config", str(config), "--out", str(tmp_path / "out"),
                    "--jobs", "2"], check=True, env=env, timeout=120)
    spans = layers.load_spans(spans_dir)
    m = layers.layer_metrics(spans, study.finest_nodes)
    assert m["sed_model.evals"] == study.n_evals
    assert m["estimate.pools"] >= 1
    assert m["lp_solver.cold_pivots"] > 0
    assert m["pce.grid_nodes"] == study.n_nodes
    traced = checks.read_report(tmp_path / "out" / "report.csv")
    plain = checks.read_report(work / "study" / "report.csv")
    for level, (value, _) in plain.pce.items():
        assert traced.pce[level][0] == pytest.approx(value, rel=1e-12)


def test_run_refuses_without_program_sources(tmp_path):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                           "conv3-j2", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
