import pickle

import numpy as np
import pytest

from dispatch_lp_reference import loop_build_instance, loop_extract
from windsed import estimate as est
from windsed import forecast as fc
from windsed.grid_model import linearize_cost, parse_case
from windsed import lp_solver
from windsed.lp_solver import LinearProgram, LpSolution, SolveOptions, solve_lp
from windsed.sed_model import (DispatchError, DispatchInstance, SedEvaluator,
                               _extract, build_instance, solve_dispatch)

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
    assert sol.status == "optimal"
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
    again = sol.recompute_objective(case3, pwl)
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
        SedEvaluator(case3, fc.ForecastSpec(spec3.sites[:1], spec3.sigma_p))


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


@pytest.mark.parametrize("segments", [1, 3, 10])
@pytest.mark.parametrize("name", ["case3", "case118", "one_bus", "flat_t1"])
def test_block_assembly_matches_loop_reference(name, segments, request):
    """The numpy block assembly builds the per-element loop's LP, constant,
    crash basis and schedule bit for bit: on the bundled cases, a case with
    no lines, and a one-period case (no ramp rows) whose first generator has
    p_min == p_max (fewer cost slopes than segments)."""
    texts = {"one_bus": ONE_BUS + "COMMITMENT\n0 1 0 1\n", "flat_t1": FLAT_T1}
    case = parse_case(texts[name]) if name in texts else request.getfixturevalue(name)
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
    sol = _extract(inst, LpSolution("optimal", 0.0, x, None, None, 0))
    want = loop_extract(ref, x)
    for got, expected in zip((sol.generation, sol.flows, sol.angles, sol.shed), want):
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


def test_ramp_rows_only_for_later_periods(case3):
    inst = build_instance(case3, np.zeros((2, 24)))
    T, G, B, E = 24, 2, 3, 3
    assert inst.lp.num_rows == B * T + E * T + 2 * G * (T - 1)


def test_dump_lp_round_trips(case3):
    inst = build_instance(case3, np.zeros((2, 24)))
    text = inst.lp.to_text()
    again = LinearProgram.from_text(text)
    assert np.array_equal(again.matrix().toarray(), inst.lp.matrix().toarray())
    assert np.array_equal(again.row_upper, inst.lp.row_upper)


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
    ev = SedEvaluator(case3, spec3)
    germs = fc.sample_germs(77, 64, spec3.dimension)
    for g in germs:
        sol = ev.solve(g)
        assert sol.status == "optimal"


def test_q_bounded_below_by_best_case_wind(case3, spec3):
    ev = SedEvaluator(case3, spec3)
    nameplate = np.stack([np.full(24, s.nameplate)
                          for s in case3.renewable_sites])
    q_best = solve_dispatch(case3, nameplate).objective
    germs = fc.sample_germs(5, 16, spec3.dimension)
    for g in germs:
        assert ev(g) >= q_best - 1e-6 * abs(q_best)


def test_batch_matches_pointwise(case3, spec3):
    ev = SedEvaluator(case3, spec3)
    germs = fc.sample_germs(31, 40, spec3.dimension)
    batch = ev.evaluate_batch(germs)
    fresh = SedEvaluator(case3, spec3)
    for k in (0, 13, 39):
        assert batch[k] == pytest.approx(fresh(germs[k]), rel=1e-9)


def test_power_path_matches_generate_scenarios(case3, spec3):
    ev = SedEvaluator(case3, spec3)
    germ = fc.sample_germs(1, 1, spec3.dimension)[0]
    ss = fc.generate_scenarios(spec3, germs=germ[None, :])
    order = [list(ss.site_labels).index(s.site_label)
             for s in case3.renewable_sites]
    assert np.array_equal(ev._power_for(germ), ss.power[0][order])


def test_solver_failure_names_the_germ(case3, spec3, monkeypatch):
    def fail(self):
        raise lp_solver.LpError("singular basis")

    ev = SedEvaluator(case3, spec3)
    ev(np.zeros(spec3.dimension))  # builds the LP and solves the zero germ
    monkeypatch.setattr(lp_solver.RepeatSolver, "solve", fail)
    monkeypatch.setattr(lp_solver.RepeatSolver, "solve_value", fail)
    germ = np.full(spec3.dimension, 0.5)
    for evaluate in (ev.solve, ev):
        with pytest.raises(DispatchError,
                           match=r"at germ array\(\[0\.5, 0\.5.*singular basis"):
            evaluate(germ)


def test_germ_dimension_checked(case3, spec3):
    ev = SedEvaluator(case3, spec3)
    with pytest.raises(DispatchError, match="shape"):
        ev(np.zeros(spec3.dimension + 1))


def test_solution_csv_export(case3):
    sol = solve_dispatch(case3, np.zeros((2, 24)))
    lines = sol.to_csv().splitlines()
    assert lines[0] == "entity,index,period,value"
    assert len(lines) == 1 + 24 * (2 + 3 + 3 + 3)


@pytest.mark.parametrize("name", ["case3", "case118"])
def test_start_basis_factorizes_with_flows_at_zero(name, request):
    case = request.getfixturevalue(name)
    inst = build_instance(case, np.zeros((len(case.renewable_sites), case.periods)))
    sim = lp_solver._Simplex(inst.lp, SolveOptions())
    sim.start_warm(inst.start_basis())  # raises LpError if singular
    assert np.all(sim.x[inst.flow] == 0.0)
    assert np.allclose(sim.x[inst.shed].ravel(), inst.lp.row_lower[:inst.shed.size],
                       atol=1e-9)
    assert len(set(inst.start_basis().basic)) == inst.lp.num_rows


def test_crash_start_matches_slack_start(case3, spec3):
    ev = SedEvaluator(case3, spec3)
    rng = np.random.default_rng(5)
    for germ in [np.zeros(spec3.dimension), *rng.standard_normal((4, spec3.dimension))]:
        inst = build_instance(case3, ev._power_for(germ))
        crash = solve_lp(inst.lp, warm_basis=inst.start_basis())
        slack = solve_lp(inst.lp)
        assert crash.status == slack.status == "optimal"
        assert crash.objective == pytest.approx(slack.objective, rel=1e-12)


def test_118_zero_germ_matches_highs(case118, spec118):
    """The crash-started cold solve of the 118-bus LP reaches HiGHS's
    optimum in well under half the slack start's ~11k pivots."""
    from scipy.optimize import linprog

    power = spec118.power(np.zeros(spec118.dimension),
                          [s.site_label for s in case118.renewable_sites])
    sol = solve_dispatch(case118, power)  # no warm basis: the crash start
    inst = build_instance(case118, power)
    lp = inst.lp
    A = lp.matrix()
    eq = lp.row_lower == lp.row_upper
    ub = ~eq & np.isfinite(lp.row_upper)
    assert not np.any(~eq & np.isfinite(lp.row_lower))  # ramp rows: <= only
    bounds = [(lo if np.isfinite(lo) else None, up if np.isfinite(up) else None)
              for lo, up in zip(lp.col_lower, lp.col_upper)]
    ref = linprog(lp.objective, A_ub=A[ub], b_ub=lp.row_upper[ub], A_eq=A[eq],
                  b_eq=lp.row_lower[eq], bounds=bounds, method="highs")
    assert ref.status == 0 and sol.status == "optimal"
    assert sol.objective - inst.objective_offset == pytest.approx(ref.fun, rel=1e-9)
    assert sol.iterations < 5000


def test_batch_values_do_not_depend_on_history(case3, spec3):
    """Every batch starts from the zero germ's optimal basis, so what the
    evaluator solved before cannot move a batch's values, even at roundoff."""
    germs = fc.sample_germs(8, 48, spec3.dimension)
    fresh = SedEvaluator(case3, spec3).evaluate_batch(germs)
    used = SedEvaluator(case3, spec3)
    used.evaluate_batch(fc.sample_germs(9, 30, spec3.dimension))
    used(2.0 * np.ones(spec3.dimension))
    assert np.array_equal(used.evaluate_batch(germs), fresh)


def test_parallel_map_values_do_not_depend_on_jobs(case3, spec3):
    """The germ count alone sets the chunks (here 3), so a pool of two
    workers returns exactly what one process does, whatever state the
    workers inherit and however the chunks fall to them."""
    germs = fc.sample_germs(10, 200, spec3.dimension)
    serial = est.parallel_map(SedEvaluator(case3, spec3), germs, jobs=1)
    ev = SedEvaluator(case3, spec3)
    ev(np.ones(spec3.dimension))  # workers inherit a moved basis
    assert np.array_equal(est.parallel_map(ev, germs, jobs=2), serial)


def test_unpickled_evaluator_starts_from_the_anchor(case3, spec3, monkeypatch):
    """The constructor solves the zero germ; a pickled copy rebuilds its LP
    and starts from that anchor, so a worker pays no cold solve of its own
    and returns what the original does."""
    ev = SedEvaluator(case3, spec3)
    blob = pickle.dumps(ev)

    def no_crash_start(self):
        raise AssertionError("cold solve from the crash basis")

    monkeypatch.setattr(DispatchInstance, "start_basis", no_crash_start)
    germs = fc.sample_germs(12, 40, spec3.dimension)
    assert np.array_equal(pickle.loads(blob).evaluate_batch(germs),
                          ev.evaluate_batch(germs))


def test_visit_order_is_a_tour_from_the_zero_germ(case3, spec3):
    ev = SedEvaluator(case3, spec3)
    germs = fc.sample_germs(11, 200, spec3.dimension)
    germs[50] = germs[7]  # duplicates are visited too
    germs[120] = 0.01
    order = ev._visit_order(germs)
    assert sorted(order.tolist()) == list(range(len(germs)))
    assert order[0] == 120
    assert ev._visit_order(germs[:1]).tolist() == [0]
    assert ev.evaluate_batch(np.empty((0, spec3.dimension))).shape == (0,)
