"""Output checks made apart from windsed's own solver.

The case, config and forecast spec are loaded through windsed's public API,
and the dispatch LP's matrix comes from `sed_model.build_instance`.
Everything else is recomputed here:

- the balance right-hand side, from the case loads, committed minimum
  outputs and the wind that `forecast.generate_scenarios` gives for a germ;
- the optimal cost Q, by scipy's HiGHS (`linprog(method="highs")`);
- on an uncongested case, Q again by a merit-order fill of secant cost
  segments, which needs no LP at all;
- the cost, balance and limits of a dispatch schedule, from the case data.

Every check function returns a list of failure messages; empty means it held.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from windsed import cli, estimate, forecast, pce
from windsed.grid_model import load_case
from windsed.sed_model import build_instance

REL_TOL = 1e-9      # program Q against HiGHS Q and the merit-order fill
MW_TOL = 1e-6       # balance and limit slack, MW
SE_BOUND = 4.0      # finest PCE mean against the benchmark's own E[Q], in SEs
REF_SEED = 20150818  # germs of the benchmark's own E[Q]; fixed, not per run
TARGET_ERROR = 1e-4  # relative error of the evaluations-to-target figures


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


@dataclass
class Report:
    """`report.csv` read without windsed's code."""

    pce: dict = field(default_factory=dict)   # level -> (c0, error or None)
    mc: dict = field(default_factory=dict)    # (n, realization) -> (mean, error or None)
    fits: dict = field(default_factory=dict)  # "pce"/"mc" -> (amplitude, rate)


def read_report(path) -> Report:
    rep = Report()
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            value = float(row["value"])
            err = float(row["error"]) if row["error"] else None
            if row["method"] == "pce":
                rep.pce[int(row["resolution"])] = (value, err)
            elif row["method"] == "mc":
                rep.mc[(int(row["resolution"]), int(row["realization"]))] = (value, err)
            elif row["method"].startswith("fit_"):
                rep.fits[row["method"][4:]] = (value, err)
            else:
                raise ValueError(f"unknown report method {row['method']!r}")
    return rep


def evals_to_target(fit, target: float) -> float:
    """Evaluations a fitted power law error = a * N^-b needs to reach `target`."""
    if fit is None or fit[1] <= 0:
        return 0.0
    amplitude, rate = fit
    return (amplitude / target) ** (1.0 / rate)


class _Recorder:
    """Stand-in model that records every germ a study would evaluate."""

    def __init__(self):
        self.germs = []

    def __call__(self, germ):
        self.germs.append(np.array(germ, dtype=float))
        return 1.0


class Study:
    """One workload's config, case and spec, plus the germs its study visits."""

    def __init__(self, config_path, seed: int):
        self.cfg = cli.ExperimentConfig.load(str(config_path))
        self.cfg.seed = seed
        self.case = load_case(self.cfg.case_path)
        self.spec = cli.build_forecast_spec(self.cfg, self.case)
        self.dim = self.spec.dimension
        case = self.case
        self.T = case.periods
        self.load = np.array([b.load for b in case.buses], dtype=float)
        gens = case.generators
        self.commit = np.array([g.commitment for g in gens], dtype=float)
        self.pmin = np.array([g.p_min for g in gens])
        self.pmax = np.array([g.p_max for g in gens])
        bus_pos = {b.id: k for k, b in enumerate(case.buses)}
        self.gen_bus = np.array([bus_pos[g.bus] for g in gens])
        self.site_bus = np.array([bus_pos[s.bus] for s in case.renewable_sites])
        self.site_labels = [s.site_label for s in case.renewable_sites]
        self.line_ends = np.array([(bus_pos[l.from_bus], bus_pos[l.to_bus])
                                   for l in case.lines]).reshape(-1, 2)
        self.flow_lim = np.array([(l.flow_min, l.flow_max)
                                  for l in case.lines]).reshape(-1, 2)
        self.fixed_cost = float(sum(
            g.commitment[t] * g.quadratic_cost(g.p_min)
            for g in gens for t in range(self.T)))
        # secant segments of each quadratic cost on [p_min, p_max]
        segs = self.cfg.segments
        self.seg_width = np.empty((len(gens), segs))
        self.seg_slope = np.empty((len(gens), segs))
        for k, g in enumerate(gens):
            bp = np.linspace(g.p_min, g.p_max, segs + 1)
            val = g.cost_const + g.cost_linear * bp + g.cost_quad * bp * bp
            width = np.diff(bp)
            self.seg_width[k] = width
            self.seg_slope[k] = np.where(width > 0, np.diff(val) / np.where(
                width > 0, width, 1.0), g.cost_linear)
        # the study's germs, in the order `estimate.convergence_study` visits them
        rec = _Recorder()
        estimate.convergence_study(
            rec, self.dim, levels=self.cfg.pce_levels,
            mc_schedule=self.cfg.mc_schedule,
            realizations=self.cfg.mc_realizations, seed=seed, jobs=1)
        self.n_evals = len(rec.germs)
        finest = pce.build_sparse_grid(self.dim, max(self.cfg.pce_levels))
        self.n_nodes = len(finest)
        self.finest_nodes = {tuple(n) for n in finest.nodes}
        self.mc_germs = {}
        pos = self.n_nodes
        for n in sorted(self.cfg.mc_schedule):
            for j in range(self.cfg.mc_realizations):
                self.mc_germs[(n, j)] = np.array(rec.germs[pos:pos + n])
                pos += n

    def wind(self, germs) -> np.ndarray:
        """(n, sites, T) wind power in the case's site order."""
        scen = forecast.generate_scenarios(self.spec, germs=np.atleast_2d(germs))
        order = [scen.site_labels.index(label) for label in self.site_labels]
        return scen.power[:, order, :]

    def net_load(self, wind) -> np.ndarray:
        """(n, B, T) load minus committed minimum output minus wind, per bus."""
        base = self.load.copy()
        np.add.at(base, self.gen_bus, -self.pmin[:, None] * self.commit)
        net = np.repeat(base[None], len(wind), axis=0)
        for s, bus in enumerate(self.site_bus):
            net[:, bus, :] -= wind[:, s, :]
        return net

    def merit_order_q(self, wind) -> np.ndarray:
        """Q for an uncongested network with slack ramps: fill the committed
        cost segments cheapest first, shed the rest at the penalty price."""
        net = self.net_load(wind).sum(axis=1)              # (n, T)
        total = np.full(net.shape[0], self.fixed_cost)
        for t in range(self.T):
            width = (self.seg_width * self.commit[:, t:t + 1]).ravel()
            slope = self.seg_slope.ravel()
            order = np.argsort(slope, kind="stable")
            width, slope = width[order], slope[order]
            before = np.concatenate([[0.0], np.cumsum(width)[:-1]])
            fill = np.clip(net[:, t:t + 1] - before[None], 0.0, width[None])
            shed = np.maximum(net[:, t] - width.sum(), 0.0)
            total += fill @ slope + self.case.shed_penalty * shed
            total[net[:, t] < -MW_TOL] = np.nan  # over-generation: no feasible fill
        return total

    def schedule_cost(self, gen, shed) -> float:
        """Production cost of a schedule on the secant segments, plus shedding."""
        fill = gen - self.pmin[:, None] * self.commit         # (G, T)
        bp = np.cumsum(self.seg_width, axis=1) - self.seg_width
        seg_fill = np.clip(fill[:, :, None] - bp[:, None, :], 0.0,
                           self.seg_width[:, None, :])
        var = float(np.sum(seg_fill * self.seg_slope[:, None, :]
                           * self.commit[:, :, None]))
        return self.fixed_cost + var + self.case.shed_penalty * float(shed.sum())


class HighsDispatch:
    """The program's dispatch LP, solved by HiGHS with a recomputed balance."""

    def __init__(self, study: Study):
        self.study = study
        case = study.case
        inst = build_instance(case, np.zeros((len(case.renewable_sites), study.T)),
                              study.cfg.segments)
        lp = inst.lp
        self.cost = lp.objective
        self.bounds = np.c_[lp.col_lower, lp.col_upper]
        self.bal_rows = np.array([[inst.balance_row(i, t) for t in range(study.T)]
                                  for i in range(len(case.buses))])
        amat = lp.matrix().tocsr()
        lo, hi = lp.row_lower.copy(), lp.row_upper.copy()
        is_bal = np.zeros(lp.num_rows, dtype=bool)
        is_bal[self.bal_rows.ravel()] = True
        eq = is_bal | (lo == hi)
        up = ~eq & np.isfinite(hi)
        dn = ~eq & np.isfinite(lo)
        self.eq_rows = np.flatnonzero(eq)
        self.a_eq = amat[self.eq_rows]
        self.b_eq0 = lo[self.eq_rows]
        self.a_ub = sp.vstack([amat[up], -amat[dn]]).tocsr()
        self.b_ub = np.concatenate([hi[up], -lo[dn]])
        # where each balance row sits among the equality rows
        slot = np.full(lp.num_rows, -1)
        slot[self.eq_rows] = np.arange(len(self.eq_rows))
        self.bal_slot = slot[self.bal_rows]

    def q(self, germs) -> np.ndarray:
        germs = np.atleast_2d(germs)
        net = self.study.net_load(self.study.wind(germs))
        out = np.empty(len(germs))
        for k in range(len(germs)):
            b_eq = self.b_eq0.copy()
            b_eq[self.bal_slot.ravel()] = net[k].ravel()
            res = linprog(self.cost, A_ub=self.a_ub, b_ub=self.b_ub,
                          A_eq=self.a_eq, b_eq=b_eq, bounds=self.bounds,
                          method="highs")
            out[k] = res.fun + self.study.fixed_cost if res.status == 0 else np.nan
        return out


@dataclass
class Reference:
    """Independent numbers computed once per run, shared by every check."""

    q_zero: float              # HiGHS Q at the zero germ
    mc_first: np.ndarray       # HiGHS Q at the study's first MC batch
    grid_level1: float | None  # sum of level-1 weights x HiGHS Q, if computed
    eq_mean: float             # own estimate of E[Q]
    eq_se: float
    eq_method: str


def reference(study: Study, highs: HighsDispatch, uncongested: bool) -> Reference:
    """Uncongested cases get the merit-order E[Q] over 20,000 germs and a
    level-1 grid check; others 10 HiGHS solves for E[Q] and no grid check."""
    first = study.mc_germs[(min(study.cfg.mc_schedule), 0)]
    ref_germs = np.random.default_rng(REF_SEED).standard_normal(
        (20_000 if uncongested else 10, study.dim))
    grid_level1 = None
    if uncongested:
        q = study.merit_order_q(study.wind(ref_germs))
        method = f"merit-order fill over {len(ref_germs)} germs"
        grid = pce.build_sparse_grid(study.dim, 1)
        grid_level1 = math.fsum(grid.weights * highs.q(grid.nodes))
    else:
        q = highs.q(ref_germs)
        method = f"HiGHS over {len(ref_germs)} germs"
    return Reference(
        q_zero=float(highs.q(np.zeros(study.dim))[0]),
        mc_first=highs.q(first),
        grid_level1=grid_level1,
        eq_mean=float(np.mean(q)),
        eq_se=float(np.std(q, ddof=1) / math.sqrt(len(q))),
        eq_method=method)


# -- checks --------------------------------------------------------------------

def check_report(study: Study, rep: Report, ref: Reference) -> list:
    """The report's shape, its PCE and MC values against HiGHS, the finest
    PCE mean against the own E[Q], and, on a convergence sweep (three or
    more levels and MC sizes, so both power laws rest on two points), that PCE
    errors fall with level and that the fitted power laws give PCE fewer
    evaluations than MC to reach TARGET_ERROR.

    The fitted rates themselves are not compared: the MC rate rests on two
    noisy points, and on the conv3 sweep it passed the PCE rate for one
    seed in 400 while MC still needed 17 times the evaluations."""
    fails = []
    cfg = study.cfg
    if sorted(rep.pce) != sorted(cfg.pce_levels):
        fails.append(f"report PCE levels {sorted(rep.pce)} != {sorted(cfg.pce_levels)}")
        return fails
    want_mc = {(n, j) for n in cfg.mc_schedule for j in range(cfg.mc_realizations)}
    if set(rep.mc) != want_mc:
        fails.append("report MC rows do not match the schedule")
        return fails
    values = [v for v, _ in rep.pce.values()] + [v for v, _ in rep.mc.values()]
    if not all(math.isfinite(v) and v > 0 for v in values):
        fails.append("report holds a non-finite or non-positive estimate")
    n_first = min(cfg.mc_schedule)
    got, want = rep.mc[(n_first, 0)][0], float(np.mean(ref.mc_first))
    if not rel_diff(got, want) <= REL_TOL:
        fails.append(f"mc,{n_first},0 = {got!r} but HiGHS gives {want!r}")
    if ref.grid_level1 is not None and 1 in rep.pce:
        got = rep.pce[1][0]
        if not rel_diff(got, ref.grid_level1) <= REL_TOL:
            fails.append(f"pce,1 = {got!r} but HiGHS on the level-1 nodes "
                         f"gives {ref.grid_level1!r}")
    finest = rep.pce[max(rep.pce)][0]
    z = abs(finest - ref.eq_mean) / ref.eq_se
    if not z <= SE_BOUND:
        fails.append(f"finest PCE mean {finest!r} is {z:.1f} SE from "
                     f"E[Q] = {ref.eq_mean!r} ({ref.eq_method})")
    if len(cfg.pce_levels) >= 3 and len(cfg.mc_schedule) >= 3:
        errs = [rep.pce[lvl][1] for lvl in sorted(rep.pce)[:-1]]
        if any(b >= a for a, b in zip(errs, errs[1:])):
            fails.append(f"PCE errors do not fall with level: {errs}")
        pce_n = evals_to_target(rep.fits.get("pce"), TARGET_ERROR)
        mc_n = evals_to_target(rep.fits.get("mc"), TARGET_ERROR)
        if not 0 < pce_n < mc_n:
            fails.append(f"PCE needs {pce_n:.4g} evaluations to reach a relative "
                         f"error of {TARGET_ERROR:g}, MC {mc_n:.4g}")
    return fails


def read_schedule(path, study: Study):
    G, B, E, T = len(study.pmin), study.load.shape[0], len(study.line_ends), study.T
    arrays = {"generator": np.full((G, T), np.nan), "flow": np.full((E, T), np.nan),
              "angle": np.full((B, T), np.nan), "shed": np.full((B, T), np.nan)}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            arrays[row["entity"]][int(row["index"]), int(row["period"])] = float(row["value"])
    return arrays


def check_dispatch(study: Study, outdir, ref: Reference) -> list:
    """`windsed dispatch` at the zero germ: its objective against HiGHS, and
    its schedule's balance, limits and cost against the case data."""
    fails = []
    outdir = Path(outdir)
    summary = json.loads((outdir / "dispatch_summary.json").read_text())
    obj = float(summary["objective"])
    if not rel_diff(obj, ref.q_zero) <= REL_TOL:
        fails.append(f"dispatch objective {obj!r} but HiGHS gives {ref.q_zero!r}")
    sched = read_schedule(outdir / "dispatch.csv", study)
    if any(np.isnan(a).any() for a in sched.values()):
        fails.append("dispatch.csv misses schedule entries")
        return fails
    gen, flow, shed = sched["generator"], sched["flow"], sched["shed"]
    wind = study.wind(np.zeros(study.dim))[0]
    inject = np.zeros_like(study.load)
    np.add.at(inject, study.gen_bus, gen)
    np.add.at(inject, study.site_bus, wind)
    if len(flow):
        np.add.at(inject, study.line_ends[:, 1], flow)
        np.add.at(inject, study.line_ends[:, 0], -flow)
    scale = MW_TOL * max(1.0, float(study.load.max()))
    system = gen.sum(0) + wind.sum(0) + shed.sum(0) - study.load.sum(0)
    if np.abs(system).max() > scale:
        fails.append(f"generation + wind + shed != load by {np.abs(system).max():.3g} MW")
    if np.abs(inject + shed - study.load).max() > scale:
        fails.append("a bus balance fails in the dispatch schedule")
    lo, hi = study.pmin[:, None] * study.commit, study.pmax[:, None] * study.commit
    if (gen < lo - MW_TOL).any() or (gen > hi + MW_TOL).any():
        fails.append("generation leaves its committed limits")
    if len(flow) and ((flow < study.flow_lim[:, :1] - MW_TOL).any()
                      or (flow > study.flow_lim[:, 1:] + MW_TOL).any()):
        fails.append("a line flow leaves its limits")
    if (shed < -MW_TOL).any():
        fails.append("negative load shedding")
    cost = study.schedule_cost(gen, shed)
    if not rel_diff(cost, obj) <= REL_TOL:
        fails.append(f"schedule costs {cost!r} but the objective is {obj!r}")
    return fails


def check_q_values(study: Study, highs: HighsDispatch, germs, values,
                   uncongested: bool) -> list:
    """Program Q at given germs against HiGHS and, if uncongested, merit order."""
    germs = np.atleast_2d(germs)
    fails = []
    refs = [("HiGHS", highs.q(germs))]
    if uncongested:
        refs.append(("merit order", study.merit_order_q(study.wind(germs))))
    for name, want in refs:
        for g, got, w in zip(germs, values, want):
            if not rel_diff(got, w) <= REL_TOL:
                fails.append(f"Q{np.round(g, 4).tolist()} = {got!r} but {name} gives {w!r}")
    return fails


def sample_germs(study: Study, per_kind: int):
    """A fixed sample of grid nodes and of the study's MC germs."""
    finest = pce.build_sparse_grid(study.dim, max(study.cfg.pce_levels))
    pick = np.linspace(0, len(finest) - 1, per_kind).round().astype(int)
    nodes = finest.nodes[pick]
    mc = np.concatenate([study.mc_germs[k] for k in sorted(study.mc_germs)])
    pick = np.linspace(0, len(mc) - 1, per_kind).round().astype(int)
    return nodes, mc[pick]


if __name__ == "__main__":
    import sys
    from run import HERE, WORKLOADS
    workload = WORKLOADS[sys.argv[1]]
    study = Study(HERE / workload.config, int(sys.argv[2]))
    highs = HighsDispatch(study)
    ref = reference(study, highs, workload.uncongested)
    print(json.dumps({"evaluations_per_study": study.n_evals,
                      "q_zero_germ": ref.q_zero,
                      "mc_first_batch_mean": float(np.mean(ref.mc_first)),
                      "pce_level1_from_highs": ref.grid_level1,
                      "expected_cost": ref.eq_mean, "expected_cost_se": ref.eq_se,
                      "expected_cost_method": ref.eq_method}, indent=2))
