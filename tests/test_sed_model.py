import multiprocessing
import pickle
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from dispatch_lp_reference import (loop_build_instance, loop_extract,
                                   recompute_objective)
from windsed import estimate as est
from windsed.cli import ExperimentConfig, build_forecast_spec
from windsed import forecast as fc
from windsed.grid_model import linearize_cost, parse_case
from windsed import lp_solver
from windsed.lp_solver import LinearProgram, LpSolution, RepeatSolver, solve_lp
from windsed import sed_model as sed
from windsed.sed_model import (DispatchError, DispatchInstance, SedEvaluator,
                               _extract, _lead_buses, build_instance,
                               solve_dispatch)
from sorted_chain_reference import ascending_total_chain, atlas_powers
from specs import make_spec3, sample_germs

ROOT = Path(__file__).parent.parent
DATA = ROOT / "data"

ONE_BUS = """
CASE T=3 SHED_PENALTY=5000.0
BUS
1 50.0 60.0 55.0
GEN
1 0.0 100.0 10.0 20.0 0.1 100.0 100.0 100.0 100.0
"""

ONE_BUS_WIND = """
CASE T=2 SHED_PENALTY=5000.0
BUS
1 50.0 60.0
GEN
1 0.0 100.0 0.0 20.0 0.0 100.0 100.0 100.0 100.0
RENEWABLE
1 w 100.0
"""


def test_single_generator_serves_load_exactly():
    case = parse_case(ONE_BUS)
    sol = solve_dispatch(case, np.zeros((0, 3)), segments=10)
    pwl = linearize_cost(case.generators[0], 10)
    want = sum(pwl(d) for d in (50.0, 60.0, 55.0))
    assert sol.objective == pytest.approx(want, rel=1e-10)
    assert np.allclose(sol.generation[0], [50.0, 60.0, 55.0])
    assert sol.total_shed() == 0.0


def test_fixed_renewable_offsets_thermal():
    case = parse_case(ONE_BUS_WIND)
    sol = solve_dispatch(case, np.array([[30.0, 60.0]]))
    assert np.allclose(sol.generation[0], [20.0, 0.0])
    assert sol.objective == pytest.approx(20.0 * 20.0)


def test_all_off_commitment_sheds_everything():
    case = parse_case(ONE_BUS + "COMMITMENT\n0 0 0 0\n")
    sol = solve_dispatch(case, np.zeros((0, 3)))
    total_load = 50.0 + 60.0 + 55.0
    assert sol.total_shed() == pytest.approx(total_load)
    assert sol.objective == pytest.approx(5000.0 * total_load)


def test_flow_definition_residual(case3):
    sol = solve_dispatch(case3, np.zeros((2, 24)))
    bus_pos = case3.bus_index()
    for e_idx, line in enumerate(case3.lines):
        i, j = bus_pos[line.from_bus], bus_pos[line.to_bus]
        flows = case3.base_mva * line.susceptance * (
            sol.angles[i] - sol.angles[j])
        assert np.max(np.abs(flows - sol.flows[e_idx])) < 1e-6


def test_objective_recomputed_independently(case3):
    sol = solve_dispatch(case3, np.full((2, 24), 10.0))
    pwl = tuple(linearize_cost(g, 3) for g in case3.generators)
    again = recompute_objective(sol, case3, pwl)
    assert abs(again - sol.objective) <= 1e-6 * (1 + abs(sol.objective))


def test_generation_bounds_respected(case3):
    sol = solve_dispatch(case3, np.zeros((2, 24)))
    for g_idx, gen in enumerate(case3.generators):
        assert np.all(sol.generation[g_idx] >= gen.p_min - 1e-7)
        assert np.all(sol.generation[g_idx] <= gen.p_max + 1e-7)


def test_ramp_relaxation_never_increases_cost():
    rng = np.random.default_rng(6)
    for _ in range(5):
        loads = np.round(rng.uniform(30, 120, 6), 1)
        tight = parse_case(f"""
CASE T=6 SHED_PENALTY=5000.0
BUS
1 {' '.join(map(str, loads))}
GEN
1 0.0 90.0 10.0 20.0 0.1 12.0 12.0 25.0 25.0
1 0.0 70.0 15.0 30.0 0.05 9.0 9.0 20.0 20.0
""")
        loose = parse_case(f"""
CASE T=6 SHED_PENALTY=5000.0
BUS
1 {' '.join(map(str, loads))}
GEN
1 0.0 90.0 10.0 20.0 0.1 1e6 1e6 1e6 1e6
1 0.0 70.0 15.0 30.0 0.05 1e6 1e6 1e6 1e6
""")
        q_tight = solve_dispatch(tight, np.zeros((0, 6))).objective
        q_loose = solve_dispatch(loose, np.zeros((0, 6))).objective
        assert q_loose <= q_tight + 1e-6 * (1 + abs(q_tight))


def test_linear_cost_invariant_to_segment_count():
    case = parse_case(ONE_BUS_WIND)  # c_g = 0
    qs = [solve_dispatch(case, np.array([[25.0, 10.0]]), segments=s).objective
          for s in (1, 3, 7)]
    assert max(qs) - min(qs) <= 1e-8 * (1 + abs(qs[0]))


def test_renewable_shape_and_site_checked(case3, spec3):
    with pytest.raises(DispatchError, match="shape"):
        build_instance(case3, np.zeros((1, 24)))
    with pytest.raises(DispatchError, match="do not match forecast sites"):
        SedEvaluator(case3, fc.ForecastSpec(spec3.sites[:1]))
    # the case's sites in another order: the spec's power rows would land
    # on the wrong buses
    with pytest.raises(DispatchError, match=re.escape(
            "case sites ['site_a', 'site_b'] do not match forecast sites "
            "['site_b', 'site_a']")):
        SedEvaluator(case3, fc.ForecastSpec(spec3.sites[::-1]))


FLAT_T1 = """
CASE T=1 SHED_PENALTY=4000.0 BASE_MVA=50.0
BUS
1 40.0
2 75.0
BRANCH
1 2 0.2 -30.0 30.0
GEN
1 20.0 20.0 5.0 12.0 0.0 10.0 10.0 20.0 20.0
2 0.0 90.0 8.0 15.0 0.02 40.0 40.0 50.0 50.0
RENEWABLE
2 w 60.0
"""


# Three islands: the reference bus 1 with a line that binds, a windy island
# without the reference bus whose two buses a pair of parallel lines joins,
# and an island without generation that can only shed.
ISLANDS = """
CASE T=2 SHED_PENALTY=5000.0
BUS
1 0.0 0.0
2 30.0 40.0
3 50.0 60.0
4 10.0 15.0
5 25.0 30.0
6 20.0 10.0
7 5.0 8.0
BRANCH
1 2 0.1 -100.0 100.0
1 3 0.1 -40.0 40.0
2 3 0.2 -100.0 100.0
5 4 0.3 -5.0 5.0
4 5 0.1 -100.0 100.0
6 7 0.2 -10.0 10.0
GEN
1 10.0 150.0 10.0 20.0 0.05 100.0 100.0 150.0 150.0
5 10.0 60.0 5.0 30.0 0.1 50.0 50.0 60.0 60.0
RENEWABLE
4 w 30.0
"""

# A cheap generator that ramps 15 MW/h under a load that swings by 80 MW:
# the merit-order crash gives it its full 90 MW in the second period only.
RAMPS = """
CASE T=3 SHED_PENALTY=5000.0
BUS
1 20.0 100.0 40.0
GEN
1 0.0 90.0 10.0 20.0 0.01 15.0 15.0 90.0 90.0
1 0.0 100.0 20.0 40.0 0.01 100.0 100.0 100.0 100.0
"""

CASE_TEXTS = {"one_bus": ONE_BUS + "COMMITMENT\n0 1 0 1\n", "flat_t1": FLAT_T1,
              "islands": ISLANDS, "ramps": RAMPS}


def _named_case(name, request):
    """A bundled case by its fixture name, else one of CASE_TEXTS."""
    if name not in CASE_TEXTS:
        return request.getfixturevalue(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # "case network is not connected"
        return parse_case(CASE_TEXTS[name])


@pytest.mark.parametrize("segments", [1, 3, 10])
@pytest.mark.parametrize("name", ["case3", "case118", "one_bus", "flat_t1", "islands"])
def test_block_assembly_matches_loop_reference(name, segments, request):
    """The numpy block assembly builds the per-element loop's LP, constant,
    crash basis and schedule bit for bit: on the bundled cases, a case with
    no lines, a one-period case (no ramp rows) whose first generator has
    p_min == p_max (fewer cost slopes than segments), and a case of three
    islands."""
    case = _named_case(name, request)
    rng = np.random.default_rng(segments)
    power = rng.uniform(0.0, 50.0, (len(case.renewable_sites), case.periods))
    inst = build_instance(case, power, segments)
    ref = loop_build_instance(case, power, segments)
    assert inst.lp.to_text() == ref.lp.to_text()
    assert inst.objective_offset == ref.objective_offset
    ours, theirs = inst.start_basis(), ref.start_basis()
    assert np.array_equal(ours.basic, theirs.basic)
    assert np.array_equal(ours.status, theirs.status)
    x = rng.standard_normal(inst.lp.num_cols)
    sol = _extract(inst, LpSolution("optimal", 0.0, x, 0))
    want = loop_extract(ref, x)
    for got, expected in zip((sol.generation, sol.flows, sol.angles, sol.shed), want):
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("name", ["case3", "case118", "one_bus", "islands"])
def test_lead_buses_are_those_of_connected_components(name, request):
    """The breadth-first island search labels the buses as scipy's
    connected_components does, and leads each island with the bus that
    labelling gave: the island's first bus, islands ordered by it, and the
    reference bus in its own island."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components
    case = _named_case(name, request)
    pos = case.bus_index()
    ends = ([pos[l.from_bus] for l in case.lines], [pos[l.to_bus] for l in case.lines])
    n_bus = len(case.buses)
    graph = csr_matrix((np.ones(len(case.lines)), ends), shape=(n_bus, n_bus))
    island = connected_components(graph, directed=False)[1]
    want = np.unique(island, return_index=True)[1]
    want[island[pos[case.reference_bus]]] = pos[case.reference_bus]
    got, got_island = _lead_buses(case)
    assert got.dtype == np.int64 and got.tolist() == want.tolist()
    assert got_island.tolist() == island.tolist()
    assert got.tolist() == {"case3": [0], "case118": [pos[case.reference_bus]],
                            "one_bus": [0], "islands": [0, 3, 5]}[name]


def test_ramp_rows_only_for_later_periods(case3):
    inst = build_instance(case3, np.zeros((2, 24)))
    T, G, B, E = 24, 2, 3, 3
    assert inst.lp.num_rows == B * T + E * T + 2 * G * (T - 1)


# -- germ evaluation ----------------------------------------------------------

def test_zero_germ_matches_direct_mean_solve(case3, spec3):
    ev = SedEvaluator(case3, spec3)
    q0 = ev(np.zeros(spec3.dimension))
    power = np.stack([site.curve(site.mean_wind) for site in spec3.sites])
    order = [["site_a", "site_b"].index(s.site_label)
             for s in case3.renewable_sites]
    direct = solve_dispatch(case3, power[order]).objective
    assert q0 == pytest.approx(direct, rel=1e-9)


def test_more_wind_never_costs_more():
    case = parse_case(ONE_BUS_WIND)
    qs = [solve_dispatch(case, np.array([[p, p]])).objective
          for p in (0.0, 10.0, 25.0, 40.0, 49.0)]
    assert all(b <= a + 1e-9 for a, b in zip(qs, qs[1:]))


def test_every_germ_is_feasible(case3, spec3):
    """Every germ's dispatch is optimal, and the evaluator's Q is its cost."""
    ev = SedEvaluator(case3, spec3)
    germs = sample_germs(77, 64, spec3.dimension)
    for g in germs:
        sol = solve_dispatch(case3, spec3.power(g))
        assert ev(g) == pytest.approx(sol.objective, rel=1e-9)


def test_q_bounded_below_by_best_case_wind(case3, spec3):
    ev = SedEvaluator(case3, spec3)
    nameplate = np.stack([np.full(24, s.nameplate)
                          for s in case3.renewable_sites])
    q_best = solve_dispatch(case3, nameplate).objective
    germs = sample_germs(5, 16, spec3.dimension)
    for g in germs:
        assert ev(g) >= q_best - 1e-6 * abs(q_best)


def test_batch_matches_pointwise(case3, spec3):
    ev = SedEvaluator(case3, spec3)
    germs = sample_germs(31, 40, spec3.dimension)
    batch = ev.evaluate_batch(germs)
    fresh = SedEvaluator(case3, spec3)
    for k in (0, 13, 39):
        assert batch[k] == pytest.approx(fresh(germs[k]), rel=1e-9)


def test_power_path_matches_generate_scenarios(case3, spec3, monkeypatch):
    """The power rows an evaluation moves the LP to are the germ's
    scenario, its sites in the case's order."""
    ev = SedEvaluator(case3, spec3)
    germ = sample_germs(1, 1, spec3.dimension)[0]
    ss = fc.generate_scenarios(spec3, germs=germ[None, :])
    order = [list(ss.site_labels).index(s.site_label)
             for s in case3.renewable_sites]
    seen = []
    set_renewable = DispatchInstance.set_renewable

    def record(inst, renewable):
        seen.append(np.array(renewable))
        set_renewable(inst, renewable)

    monkeypatch.setattr(DispatchInstance, "set_renewable", record)
    ev(germ)
    assert len(seen) == 1 and np.array_equal(seen[0], ss.power[0][order])


def test_solver_failure_names_the_germ(case3, spec3, monkeypatch):
    def fail(self):
        raise lp_solver.LpError("singular basis")

    ev = SedEvaluator(case3, spec3)
    ev(np.zeros(spec3.dimension))  # builds the LP and solves the zero germ
    monkeypatch.setattr(lp_solver.RepeatSolver, "solve_value", fail)
    germ = np.full(spec3.dimension, 0.5)
    with pytest.raises(DispatchError,
                       match=r"at germ array\(\[0\.5, 0\.5.*singular basis"):
        ev(germ)


def test_germ_dimension_checked(case3, spec3):
    ev = SedEvaluator(case3, spec3)
    with pytest.raises(DispatchError, match="shape"):
        ev(np.zeros(spec3.dimension + 1))


def test_bad_germs_are_named_before_any_solve(case3, spec3):
    """A batch checks its germs before its tour, and a single germ before
    its LP: the first non-finite germ, or a wrong length, is named."""
    ev = SedEvaluator(case3, spec3)
    germs = sample_germs(13, 80, spec3.dimension)
    germs[5, 2], germs[40, 0] = np.nan, np.inf
    with pytest.raises(DispatchError, match=re.escape(f"germ {germs[5]!r} is not finite")):
        est.parallel_map(ev, germs)
    with pytest.raises(DispatchError, match=re.escape(f"germ {germs[40]!r} is not finite")):
        ev(germs[40])
    with pytest.raises(DispatchError, match=r"shape \(7,\), spec needs \(6,\)"):
        ev.evaluate_batch(np.zeros((3, 7)))
    assert ev(germs[0]) == SedEvaluator(case3, spec3)(germs[0])


@pytest.mark.parametrize("n", [1, 7, 600])
def test_batch_power_rows_equal_single_germs_bit_for_bit(spec3, n):
    germs = sample_germs(20 + n, n, spec3.dimension)
    batch = spec3.power(germs)
    for k in {0, n // 2, n - 1}:
        assert np.array_equal(batch[k], spec3.power(germs[k]))


def test_batch_maps_power_per_block_and_calls_each_germ_once(case3, spec3, monkeypatch):
    """A 1,100-germ batch maps power in three blocks, after the constructor
    maps the zero germ and the atlas's block of its 512 germs, and passes
    every batch germ once through `__call__` as its one argument, and no
    atlas germ.  Its values agree with calling the evaluator germ by germ
    in input order from the anchor, which runs the simplex on every germ,
    to 1e-12: a screened Q moves by about an ulp."""
    germs = sample_germs(14, 1100, spec3.dimension)
    honest_call, honest_power = SedEvaluator.__call__, fc.ForecastSpec.power
    calls, blocks = [], []

    def call(self, *args, **kwargs):
        calls.append((args, kwargs))
        return honest_call(self, *args, **kwargs)

    def power(self, g):
        blocks.append(len(np.atleast_2d(g)))
        return honest_power(self, g)

    monkeypatch.setattr(SedEvaluator, "__call__", call)
    monkeypatch.setattr(fc.ForecastSpec, "power", power)
    ev = SedEvaluator(case3, spec3)
    batch = ev.evaluate_batch(germs)
    monkeypatch.undo()
    assert blocks == [1, sed.ATLAS_GERMS, 512, 512, 76]
    assert all(len(args) == 1 and not kwargs for args, kwargs in calls)
    seen = sorted(tuple(args[0]) for args, _ in calls)
    assert seen == sorted(tuple(g) for g in germs)
    ev._solver.begin_at(ev._anchor)
    simplex = np.array([ev(g) for g in germs])
    assert np.allclose(batch, simplex, rtol=1e-12, atol=0.0)


def test_failed_batch_leaves_no_power_behind(case3, spec3, monkeypatch):
    def fail(self):
        raise lp_solver.LpError("singular basis")

    germs = sample_germs(15, 20, spec3.dimension)
    germs[7] = 3.0  # outside every region of the atlas: a simplex solve
    ev = SedEvaluator(case3, spec3)
    assert np.isnan(ev._screen(spec3.power(germs))[0]).sum() == 1
    monkeypatch.setattr(lp_solver.RepeatSolver, "solve_value", fail)
    with pytest.raises(DispatchError, match="singular basis"):
        ev.evaluate_batch(germs)
    monkeypatch.undo()
    assert ev._next_power is None and ev._next_q is None
    germ = np.full(spec3.dimension, -1.5)
    assert ev(germ) == SedEvaluator(case3, spec3)(germ)


def _violations(ev: SedEvaluator, germ: np.ndarray) -> np.ndarray:
    """Each atlas region's summed bound violation at the germ (zero inside)."""
    p = ev.spec.power(germ).ravel()
    out = []
    for region in ev._atlas:
        slack = region.f + region.m @ (p - region.p0)
        out.append(-np.minimum(slack, 0.0).sum())
    return np.array(out)


def test_screened_q_matches_the_simplex(case3, spec3):
    """Most germs of a batch take their Q from a region of the atlas, and
    that Q equals what the simplex gives a fresh evaluator at the germ to
    1e-12 relative."""
    germs = sample_germs(16, 2000, spec3.dimension)
    ev = SedEvaluator(case3, spec3)
    batch = ev.evaluate_batch(germs)
    screened = ~np.isnan(ev._screen(spec3.power(germs))[0])
    assert screened.mean() > 0.8
    fresh = SedEvaluator(case3, spec3)
    simplex = np.array([fresh(g) for g in germs])
    assert np.allclose(batch, simplex, rtol=1e-12, atol=0.0)


def test_screened_q_matches_the_simplex_on_a_region_boundary(case3, spec3):
    """Bisect from a germ inside the first region of the atlas toward one
    outside it, onto the point where its basis stops being feasible and a
    second region's basis holds: both regions' Q, and the batch's, equal
    the simplex's there to 1e-12 relative."""
    ev = SedEvaluator(case3, spec3)
    germs = sample_germs(17, 40, spec3.dimension)
    inside = [_violations(ev, g)[0] == 0.0 for g in germs]
    a, b = germs[inside.index(True)], germs[inside.index(False)]
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _violations(ev, a + mid * (b - a))[0] == 0.0 else (lo, mid)
    edge = a + hi * (b - a)
    viol = _violations(ev, edge)
    assert 0.0 < viol[0] <= lp_solver.FEAS_TOL
    holds = np.flatnonzero(viol[1:] == 0.0) + 1
    assert len(holds)  # a second basis of the atlas is feasible at the edge
    simplex = SedEvaluator(case3, spec3)(edge)
    p = spec3.power(edge[None]).reshape(1, -1)
    for k in (0, holds[0]):
        hit, q, _ = ev._atlas[k].screen(p)
        assert hit[0] and q[0] == pytest.approx(simplex, rel=1e-12)
    assert ev.evaluate_batch(edge[None])[0] == pytest.approx(simplex, rel=1e-12)


def test_atlas_germs_are_not_evaluations(case3, spec3, monkeypatch):
    """The atlas solves its germs on the solver directly, never through
    `__call__`, so a tracer counting evaluations sees the batch's alone."""
    def no_call(self, germ):
        raise AssertionError("atlas germ passed through __call__")

    monkeypatch.setattr(SedEvaluator, "__call__", no_call)
    ev = SedEvaluator(case3, spec3)
    assert len(ev._atlas) > 1


def test_workers_inherit_the_atlas(case3, spec3, monkeypatch):
    """The constructor builds the atlas, so neither a forked pool worker nor
    an unpickled copy builds one of its own: with `_build_atlas` made to
    fail once the evaluator exists, both return the in-process values."""
    germs = sample_germs(18, 200, spec3.dimension)  # three chunks: a pool
    ev = SedEvaluator(case3, spec3)

    def no_atlas(self):
        raise AssertionError("atlas built after construction")

    monkeypatch.setattr(SedEvaluator, "_build_atlas", no_atlas)
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("fork").Pool)
    serial = est.parallel_map(ev, germs, jobs=1)
    assert np.array_equal(est.parallel_map(ev, germs, jobs=2), serial)
    copy = pickle.loads(pickle.dumps(ev))
    assert np.array_equal(est.parallel_map(copy, germs, jobs=1), serial)


def test_solution_csv_export(case3):
    sol = solve_dispatch(case3, np.zeros((2, 24)))
    lines = sol.to_csv().splitlines()
    assert lines[0] == "entity,index,period,value"
    assert len(lines) == 1 + 24 * (2 + 3 + 3 + 3)


@pytest.mark.parametrize("name, leads", [("case3", None), ("case118", None),
                                         ("islands", [1, 4, 6])],
                         ids=["case3", "case118", "islands"])
def test_start_basis_is_a_dc_power_flow(name, leads, request):
    """The crash basis factorizes, is structurally symmetric apart from the
    lead buses' balance slots, and starts from the DC power flow that
    serves every bus's net load, less its merit-order fills, from its
    island's lead bus: filled segments sit at their upper bound and the
    rest at zero, angles and flows solve the network equations with the
    lead angles at zero, and only the lead buses shed."""
    case = _named_case(name, request)
    rng = np.random.default_rng(8)
    power = rng.uniform(0.0, 20.0, (len(case.renewable_sites), case.periods))
    inst = build_instance(case, power)
    basis = inst.start_basis()
    sim = lp_solver.RepeatSolver(inst.lp)
    sim.load(basis)  # raises LpError if singular
    bus_pos = case.bus_index()
    lead = np.array([bus_pos[b] for b in leads or [case.reference_bus]])
    pattern = sim.fmat[:, basis.basic] != 0
    rows, cols = (pattern != pattern.T).nonzero()
    lead_slots = (lead[:, None] * case.periods + np.arange(case.periods)).ravel()
    assert len(rows) and np.all(np.isin(rows, lead_slots) | np.isin(cols, lead_slots))
    rest = np.setdiff1d(np.arange(len(case.buses)), lead)
    filled = basis.status[inst.seg] == lp_solver.AT_UPPER
    assert filled.any()
    assert np.array_equal(sim.x[inst.seg], np.where(filled, inst.lp.col_upper[inst.seg], 0.0))
    net_load = inst.lp.row_lower[:inst.shed.size].reshape(inst.shed.shape).copy()
    np.subtract.at(net_load, [bus_pos[g.bus] for g in case.generators],
                   sim.x[inst.seg].sum(axis=2))
    laplacian = np.zeros((len(case.buses),) * 2)
    for line in case.lines:
        ends = [bus_pos[line.from_bus], bus_pos[line.to_bus]]
        laplacian[np.ix_(ends, ends)] += (case.base_mva * line.susceptance
                                          * np.array([[1.0, -1.0], [-1.0, 1.0]]))
    theta = np.zeros(net_load.shape)
    theta[rest] = np.linalg.solve(laplacian[np.ix_(rest, rest)], -net_load[rest])
    flows = [case.base_mva * line.susceptance
             * (theta[bus_pos[line.from_bus]] - theta[bus_pos[line.to_bus]])
             for line in case.lines]
    assert np.allclose(sim.x[inst.angle], theta, rtol=1e-9, atol=1e-12)
    assert np.allclose(sim.x[inst.flow], np.reshape(flows, inst.flow.shape),
                       rtol=1e-9, atol=1e-9)
    assert np.all(sim.x[inst.shed[rest]] == 0.0)
    assert np.allclose(sim.x[inst.shed[lead]], net_load[lead] + (laplacian @ theta)[lead],
                       rtol=1e-9, atol=1e-9)


def test_crash_start_matches_slack_start(case3, spec3):
    ev = SedEvaluator(case3, spec3)
    rng = np.random.default_rng(5)
    for germ in [np.zeros(spec3.dimension), *rng.standard_normal((4, spec3.dimension))]:
        inst = build_instance(case3, ev.spec.power(germ))
        crash = solve_lp(inst.lp, warm_basis=inst.start_basis())
        slack = solve_lp(inst.lp)
        assert crash.status == slack.status == "optimal"
        assert crash.objective == pytest.approx(slack.objective, rel=1e-12)


def _highs_objective(lp: LinearProgram) -> float:
    """The dispatch LP's optimum by scipy's HiGHS."""
    from scipy.optimize import linprog

    A = lp.matrix()
    eq = lp.row_lower == lp.row_upper
    ub = ~eq & np.isfinite(lp.row_upper)
    assert not np.any(~eq & np.isfinite(lp.row_lower))  # ramp rows: <= only
    bounds = [(lo if np.isfinite(lo) else None, up if np.isfinite(up) else None)
              for lo, up in zip(lp.col_lower, lp.col_upper)]
    ref = linprog(lp.objective, A_ub=A[ub], b_ub=lp.row_upper[ub], A_eq=A[eq],
                  b_eq=lp.row_lower[eq], bounds=bounds, method="highs")
    assert ref.status == 0
    return ref.fun


def test_merit_fills_break_a_ramp_row():
    """The crash fills each period in merit order on its own, so on RAMPS
    its x breaks ramp rows, which phase 1 then repairs (the HiGHS check
    below solves the case)."""
    case = _named_case("ramps", None)
    inst = build_instance(case, np.zeros((0, case.periods)))
    sim = lp_solver.RepeatSolver(inst.lp)
    sim.load(inst.start_basis())
    ramp = np.arange(inst.shed.size + inst.flow.size, inst.lp.num_rows)
    activity = inst.lp.matrix()[ramp] @ sim.x[:inst.lp.num_cols]
    assert np.any(activity > inst.lp.row_upper[ramp] + 1.0)


@pytest.mark.parametrize("name", ["islands", "one_bus", "ramps"])
def test_crash_and_slack_starts_match_highs_off_a_connected_network(name, request):
    """On three islands (one without generation, one without the reference
    bus), on a bus with no lines, and on a case whose merit-order crash
    breaks its ramp rows, the crash start, the slack start and HiGHS reach
    the same optimum."""
    case = _named_case(name, request)
    rng = np.random.default_rng(9)
    for _ in range(3):
        power = rng.uniform(0.0, 20.0, (len(case.renewable_sites), case.periods))
        inst = build_instance(case, power)
        crash = solve_lp(inst.lp, warm_basis=inst.start_basis())
        slack = solve_lp(inst.lp)
        assert crash.status == slack.status == "optimal"
        want = _highs_objective(inst.lp)
        assert crash.objective == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert slack.objective == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_118_zero_germ_matches_highs(case118, spec118):
    """The crash-started cold solve of the 118-bus LP reaches HiGHS's
    optimum in tens of pivots, against the slack start's ~11k."""
    power = spec118.power(np.zeros(spec118.dimension))
    sol = solve_dispatch(case118, power)  # no warm basis: the crash start
    inst = build_instance(case118, power)
    assert sol.objective - inst.objective_offset == pytest.approx(
        _highs_objective(inst.lp), rel=1e-9)
    assert sol.iterations < 100


@pytest.mark.parametrize("name", ["case3", "case118"])
def test_cold_solve_makes_no_bound_flips(name, request, monkeypatch):
    """With the cheap segments filled up front, the cold solve reaches the
    optimum without one phase-2 bound flip: every pivot changes the basis."""
    case = request.getfixturevalue(name)
    spec = request.getfixturevalue(name.replace("case", "spec"))
    real = lp_solver.RepeatSolver._pivot
    flips = []

    def pivot(sim, q, sigma, delta, t, pos, leave_bound):
        flips.append(pos == -1)
        return real(sim, q, sigma, delta, t, pos, leave_bound)

    monkeypatch.setattr(lp_solver.RepeatSolver, "_pivot", pivot)
    power = spec.power(np.zeros(spec.dimension))
    sol = solve_dispatch(case, power)
    assert len(flips) == sol.iterations > 0
    assert not any(flips)


def test_batch_values_do_not_depend_on_history(case3, spec3):
    """Every batch starts from the zero germ's optimal basis, so what the
    evaluator solved before cannot move a batch's values, even at roundoff."""
    germs = sample_germs(8, 48, spec3.dimension)
    fresh = SedEvaluator(case3, spec3).evaluate_batch(germs)
    used = SedEvaluator(case3, spec3)
    used.evaluate_batch(sample_germs(9, 30, spec3.dimension))
    used(2.0 * np.ones(spec3.dimension))
    assert np.array_equal(used.evaluate_batch(germs), fresh)


def test_parallel_map_values_do_not_depend_on_jobs(case3, spec3):
    """The germ count alone sets the chunks (here 3), so a pool of two
    workers returns exactly what one process does, whatever state the
    workers inherit and however the chunks fall to them."""
    germs = sample_germs(10, 200, spec3.dimension)
    serial = est.parallel_map(SedEvaluator(case3, spec3), germs, jobs=1)
    ev = SedEvaluator(case3, spec3)
    ev(np.ones(spec3.dimension))  # workers inherit a moved basis
    assert np.array_equal(est.parallel_map(ev, germs, jobs=2), serial)


def _spy_starts(monkeypatch) -> list:
    """Spy on the bases the solver factorizes to begin a solve from: the
    returned list collects each one's statuses as bytes."""
    real = lp_solver.RepeatSolver._start
    starts = []

    def spy(sim, basis):
        starts.append(basis.status.tobytes())
        return real(sim, basis)

    monkeypatch.setattr(lp_solver.RepeatSolver, "_start", spy)
    return starts


def _crash(ev: SedEvaluator) -> bytes:
    """The statuses of the crash basis of the evaluator's LP, at the zero
    germ, where the evaluator builds its solver."""
    inst = build_instance(ev.case, ev.spec.power(np.zeros(ev.dim)), ev.segments)
    return inst.start_basis().status.tobytes()


def test_unpickled_evaluator_starts_from_the_anchor(case3, spec3, monkeypatch):
    """The constructor solves the zero germ; a pickled copy rebuilds its LP
    and begins at that anchor, so a worker pays no cold solve of its own
    and returns what the original does.  The copy still builds the crash
    basis, for retries only: no solve in it starts there."""
    ev = SedEvaluator(case3, spec3)
    blob = pickle.dumps(ev)
    germs = sample_germs(12, 40, spec3.dimension)
    starts = _spy_starts(monkeypatch)
    copy = pickle.loads(blob)
    values = copy.evaluate_batch(germs)
    monkeypatch.undo()
    assert starts[0] == ev._anchor.basis.status.tobytes()
    assert _crash(copy) not in starts
    assert copy._solver.restarts == 0
    assert np.array_equal(values, ev.evaluate_batch(germs))


def test_a_batch_without_an_atlas_chains_along_a_nearest_neighbour_tour(case3, spec3,
                                                                          monkeypatch):
    """Without an atlas a batch re-solves its germs from the anchor along a
    greedy tour of their hourly total wind power: it visits every germ
    once, a duplicate right after its twin, starts at the germ nearest the
    anchor's totals in L1 distance and goes on each time to the nearest
    germ not yet visited, and returns the values in input order.  A
    shuffled batch makes the same tour, so it returns the same values bit
    for bit."""
    monkeypatch.setattr(sed, "REGION_ROWS", 0)
    ev = SedEvaluator(case3, spec3)
    assert ev._atlas == ()
    germs = sample_germs(11, 200, spec3.dimension)
    germs[50] = germs[7]
    seen = []
    set_renewable = DispatchInstance.set_renewable

    def record(inst, renewable):
        seen.append(np.array(renewable))
        set_renewable(inst, renewable)

    monkeypatch.setattr(DispatchInstance, "set_renewable", record)
    values = ev.evaluate_batch(germs)
    chain = np.stack(seen)
    power = spec3.power(germs)
    assert sorted(row.tobytes() for row in chain) == sorted(row.tobytes() for row in power)
    twins = [k for k, row in enumerate(chain) if np.array_equal(row, power[7])]
    assert len(twins) == 2 and twins[1] == twins[0] + 1
    totals = chain.sum(axis=1)
    here = spec3.power(np.zeros(spec3.dimension)).sum(axis=0)
    for k, row in enumerate(totals):
        dist = np.abs(totals[k:] - here).sum(axis=1)
        assert dist[0] == dist.min()
        here = row
    shuffle = np.random.default_rng(11).permutation(len(germs))
    assert np.array_equal(ev.evaluate_batch(germs[shuffle]), values[shuffle])
    assert ev.evaluate_batch(np.empty((0, spec3.dimension))).shape == (0,)


def test_the_atlas_tour_reaches_the_bases_of_the_ascending_chain(case3, spec3,
                                                                 monkeypatch):
    """The atlas build tours its germs, and its regions hold the same set of
    optimal bases as the chain in ascending total power that it replaced
    (`sorted_chain_reference`), reached in fewer pivots."""
    pivots = _spy_pivots(monkeypatch)
    ev = SedEvaluator(case3, spec3)
    monkeypatch.undo()
    tour = sum(pivots[1:])  # the first solve is the anchor's cold solve
    bases, ascending = ascending_total_chain(ev, atlas_powers(ev))
    assert {region.start.basis.status.tobytes() for region in ev._atlas} == bases
    assert tour < ascending


def _misses(ev: SedEvaluator, germs: np.ndarray) -> np.ndarray:
    """Which germs no region of the atlas holds."""
    return ev._screen(ev.spec.power(germs))[1] >= 0


def test_a_batch_value_is_the_germs_own(case3, spec3):
    """With an atlas, each Q depends on its germ and the atlas alone: a
    germ's value in a batch equals its value in a batch of its own, bit for
    bit, for screened germs and for misses, in a shuffled batch too, and in
    a pickled copy (as a spawned worker gets), which keeps no factorization
    of the original's region starts and builds its own."""
    ev = SedEvaluator(case3, spec3)
    germs = sample_germs(19, 300, spec3.dimension)
    miss = _misses(ev, germs)
    assert 10 <= miss.sum() < len(germs) - 10
    batch = ev.evaluate_batch(germs)
    alone = SedEvaluator(case3, spec3)
    assert np.array_equal([alone.evaluate_batch(g[None])[0] for g in germs], batch)
    shuffle = np.random.default_rng(19).permutation(len(germs))
    assert np.array_equal(ev.evaluate_batch(germs[shuffle]), batch[shuffle])
    assert any(region.start.factors is not None for region in ev._atlas)
    copy = pickle.loads(pickle.dumps(ev))
    assert all(region.start.factors is None for region in copy._atlas)
    assert np.array_equal(copy.evaluate_batch(germs[shuffle]), batch[shuffle])


def test_a_miss_from_a_kept_factorization_is_a_fresh_solve(case3, spec3):
    """A miss re-solved from its nearest region's kept factorization equals
    the same miss in a fresh evaluator, which factorizes that region's
    basis on first use, and a new solver that starts from it, bit for bit;
    and the kept LU and reduced costs stay as they were built, though the
    solves begun from them pivot."""
    ev = SedEvaluator(case3, spec3)
    germs = sample_germs(21, 400, spec3.dimension)
    misses = germs[_misses(ev, germs)]
    first = ev.evaluate_batch(misses)
    kept = {k: (region.start.factors.lu.solve(np.arange(1.0, ev.inst.lp.num_rows + 1)),
                region.start.reduced_costs.copy())
            for k, region in enumerate(ev._atlas) if region.start.factors is not None}
    assert kept
    pivots = []
    for g in misses[::-1]:
        ev.evaluate_batch(g[None])
        pivots.append(ev._solver.iterations)
    assert sum(pivots) > 0
    again = ev.evaluate_batch(misses[::-1])[::-1]
    assert np.array_equal(again, first)
    fresh = SedEvaluator(case3, spec3)
    assert np.array_equal([fresh.evaluate_batch(g[None])[0] for g in misses[:20]],
                          first[:20])
    nearest = fresh._screen(spec3.power(misses[:20]))[1]
    for g, k, q in zip(misses[:20], nearest, first[:20]):
        fresh.inst.set_renewable(spec3.power(g))
        assert RepeatSolver(fresh.inst.lp, fresh._atlas[k].start.basis).solve_value() \
            + fresh.inst.objective_offset == q
    for k, (lu_solve, d) in kept.items():
        start = ev._atlas[k].start
        assert start.factors.etas == [] and start.factors.eta_nnz == 0
        assert np.array_equal(
            start.factors.lu.solve(np.arange(1.0, ev.inst.lp.num_rows + 1)), lu_solve)
        assert np.array_equal(start.reduced_costs, d)


def test_a_constructed_evaluator_has_factorized_no_region_start(case3, spec3):
    """The constructor factorizes the anchor, where the atlas build and
    every batch without an atlas begin, but no region's basis: the first
    miss that begins at a region factorizes it."""
    # A prototype that factorized every region start in the constructor
    # raised the perfbench conv3-j2 peak RSS from 73.5 to 101.2 MB, about
    # 0.4 MB per region.
    ev = SedEvaluator(case3, spec3)
    assert len(ev._atlas) > 1 and ev._anchor.factors is not None
    assert all(region.start.factors is None for region in ev._atlas)


def test_a_failed_miss_retries_from_the_crash_basis_in_every_process(case3, spec3,
                                                                     monkeypatch):
    """A pickled evaluator carries its anchor and region starts without
    their factors.  When a miss's solve fails (a forced eta update
    failure), its one retry starts from the crash basis, in the original
    and in an unpickled copy alike, and both give the same Q, which an
    unforced solve gives to 1e-12."""
    ev = SedEvaluator(case3, spec3)
    germs = sample_germs(21, 400, spec3.dimension)
    for germ in germs[_misses(ev, germs)]:
        want = ev.evaluate_batch(germ[None])[0]
        if ev._solver.iterations:
            break
    assert ev._solver.iterations and ev._anchor.factors is not None
    assert any(region.start.factors is not None for region in ev._atlas)
    state = pickle.loads(pickle.dumps(ev.__getstate__()))
    assert state["_anchor"].factors is None and state["_anchor"].reduced_costs is None
    assert all(region.start.factors is None for region in state["_atlas"])
    copy = pickle.loads(pickle.dumps(ev))
    crash = _crash(ev)
    real_update = lp_solver._Factors.update
    values = []
    for model in (ev, copy):
        calls = []

        def failing(factors, row, eta):
            calls.append(row)
            if len(calls) == 1:
                raise lp_solver.LpError("forced update failure")
            return real_update(factors, row, eta)

        starts = _spy_starts(monkeypatch)
        monkeypatch.setattr(lp_solver._Factors, "update", failing)
        values.append(model.evaluate_batch(germ[None])[0])
        monkeypatch.undo()
        assert model._solver.restarts == 1 and starts[-1] == crash
    assert values[0] == values[1]
    assert values[0] == pytest.approx(want, rel=1e-12)


def _spy_solver(monkeypatch):
    """Spy on the solver's drivers: pivots made by each primal `run_phase`
    call, and the status each `run_dual` call ends in."""
    real_phase, real_dual = lp_solver.RepeatSolver.run_phase, lp_solver.RepeatSolver.run_dual
    seen = {"primal": [], "dual": []}

    def phase(sim, phase1):
        before = sim.iterations
        try:
            return real_phase(sim, phase1)
        finally:
            seen["primal"].append(sim.iterations - before)

    def dual(sim, d):
        seen["dual"].append(real_dual(sim, d))
        return seen["dual"][-1]

    monkeypatch.setattr(lp_solver.RepeatSolver, "run_phase", phase)
    monkeypatch.setattr(lp_solver.RepeatSolver, "run_dual", dual)
    return seen


def _spy_pivots(monkeypatch) -> list:
    """Spy on the pivots each `solve_value` call takes, in the order solved."""
    real = lp_solver.RepeatSolver.solve_value
    seen = []

    def spy(sim):
        try:
            return real(sim)
        finally:
            seen.append(sim.iterations)

    monkeypatch.setattr(lp_solver.RepeatSolver, "solve_value", spy)
    return seen


def _spy_refactorizations(monkeypatch) -> list:
    """Spy on refactorizations: the returned list collects, for each
    factorization one replaces, its eta count, its eta nonzeros with their
    per-eta overhead, and its L+U nonzeros."""
    real = lp_solver.RepeatSolver._refactorize
    seen = []

    def spy(sim):
        if sim.factors is not None:
            seen.append((len(sim.factors.etas), sim.factors.eta_nnz, sim.factors.lu_nnz))
        return real(sim)

    monkeypatch.setattr(lp_solver.RepeatSolver, "_refactorize", spy)
    return seen


def test_118_batch_re_solves_take_no_primal_pivots(case118, spec118, monkeypatch):
    """From the anchor on, each 118-bus re-solve is a dual simplex; the
    primal phases only certify its optimum, with no pivot of their own.
    Its etas never grow as large as the LU, so only their count triggers
    refactorization: twelve germs chain enough dual pivots for two."""
    ev = SedEvaluator(case118, spec118)
    seen = _spy_solver(monkeypatch)
    refactors = _spy_refactorizations(monkeypatch)
    values = ev.evaluate_batch(sample_germs(3, 12, spec118.dimension))
    assert ev._atlas == ()  # above REGION_ROWS: every germ takes the simplex
    assert np.all(np.isfinite(values))
    assert sum(seen["primal"]) == 0
    assert seen["dual"] == ["optimal"] * 12
    assert len(refactors) >= 2
    assert all(eta_nnz < lu_nnz for _, eta_nnz, lu_nnz in refactors)


@pytest.mark.slow
def test_118_tour_takes_fewer_pivots_than_ascending_total_power(case118, monkeypatch):
    """On the benchmark's 118-bus study at seed 1 (141 germs in two
    batches), the tour of hourly totals takes fewer warm pivots than
    re-solving the same batches in ascending total power (669 against
    1,059 when this test was written), and gives the same Q to 1e-12."""
    cfg = ExperimentConfig.load(str(ROOT / "perfbench" / "configs" / "study118.yaml"))
    spec = build_forecast_spec(cfg, case118)
    ev = SedEvaluator(case118, spec, cfg.segments)
    batches = []
    evaluate_batch = SedEvaluator.evaluate_batch

    def record(model, germs):
        batches.append(np.array(germs))
        return evaluate_batch(model, germs)

    monkeypatch.setattr(SedEvaluator, "evaluate_batch", record)
    pivots = _spy_pivots(monkeypatch)
    est.convergence_study(ev, spec.dimension, cfg.pce_levels, cfg.mc_schedule,
                          cfg.mc_realizations, seed=1)
    monkeypatch.undo()
    assert [len(b) for b in batches] == [71, 70]
    tour = sum(pivots)
    ascending = sum(ascending_total_chain(ev, spec.power(b))[1] for b in batches)
    assert tour < ascending
    toured = np.concatenate([ev.evaluate_batch(b) for b in batches])
    ev._solver.begin_at(ev._anchor)
    assert np.allclose(toured, [ev(g) for b in batches for g in b], rtol=1e-12, atol=0.0)


def test_small_lp_refactorizes_when_its_etas_reach_the_lu_size(case3, spec3, monkeypatch):
    """A 3-bus LU is so small that solving with a few dozen etas costs more
    than refactorizing, so the eta file is refactorized once its nonzeros,
    with a per-eta overhead, reach the LU's: long before `REFACTOR_EVERY`
    etas."""
    refactors = _spy_refactorizations(monkeypatch)
    ev = SedEvaluator(case3, spec3)
    ev.evaluate_batch(sample_germs(4, 300, spec3.dimension))
    by_size = [etas for etas, eta_nnz, lu_nnz in refactors if eta_nnz >= lu_nnz]
    assert len(by_size) >= 5
    assert max(by_size) < lp_solver.REFACTOR_EVERY // 2


def _over_generation_case():
    """The 3-bus case with 90 MW sites, where a windy germ pushes wind above
    load less committed minimum output: its dispatch LP has no feasible
    point."""
    text = (DATA / "case3.txt").read_text()
    for label in ("site_a 40.0", "site_b 30.0"):
        text = text.replace(label, label.split()[0] + " 90.0")
    return parse_case(text)


def test_over_generation_fails_naming_the_germ(monkeypatch):
    """The dual re-solve reports a windy germ infeasible, the evaluator names
    the germ, and it still evaluates feasible germs afterwards.  A cold
    dispatch at the germ says why its LP has no feasible point."""
    case = _over_generation_case()
    spec = make_spec3(case)
    ev = SedEvaluator(case, spec)
    q0 = ev(np.zeros(spec.dimension))
    seen = _spy_solver(monkeypatch)
    germ = np.array([2.0, 0.0, 0.0, 2.0, 0.0, 0.0])
    with pytest.raises(DispatchError, match=r"at germ array\(\[2\., 0\., .*infeasible"):
        ev(germ)
    assert seen["dual"][:1] == ["infeasible"]
    with pytest.raises(DispatchError, match="ended infeasible: .* not a surplus, such as wind"):
        solve_dispatch(case, spec.power(germ))
    assert ev(np.zeros(spec.dimension)) == pytest.approx(q0, rel=1e-12)


def test_atlas_failures_do_not_abort_a_batch(monkeypatch):
    """On the over-generation case many atlas germs are infeasible.  They add
    no region and the atlas goes on from the anchor, so a batch of calm
    germs evaluates, and a windy germ inside a batch is still named."""
    case = _over_generation_case()
    spec = make_spec3(case)
    seen = _spy_solver(monkeypatch)
    ev = SedEvaluator(case, spec)
    calm = -np.abs(sample_germs(5, 40, spec.dimension))
    values = ev.evaluate_batch(calm)
    assert seen["dual"].count("infeasible") > 10  # atlas germs that failed
    assert len(ev._atlas) > 1
    fresh = SedEvaluator(case, spec)
    assert np.allclose(values, [fresh(g) for g in calm], rtol=1e-12, atol=0.0)
    calm[17] = [2.0, 0.0, 0.0, 2.0, 0.0, 0.0]
    with pytest.raises(DispatchError, match=r"at germ array\(\[2\., 0\., .*infeasible"):
        ev.evaluate_batch(calm)
    assert ev._next_power is None and ev._next_q is None
