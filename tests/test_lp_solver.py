import numpy as np
import pytest

from lp_oracle import basis_duals, bound_violation, random_lp, vertex_enumeration
from ratio_test_reference import ratio_test_loop
from windsed import lp_solver
from windsed.lp_solver import (KeptStart, LinearProgram, LpError, RepeatSolver,
                               make_basis, solve_lp)

INF = np.inf


def simple_lp(c, A, rlo, rhi, lo, up):
    A = np.asarray(A, dtype=float).reshape(len(rlo), len(c))
    rows, cols = np.nonzero(np.ones_like(A))
    return LinearProgram(len(c), len(rlo), c, rows, cols, A[rows, cols],
                         rlo, rhi, lo, up)


def test_bound_constrained_minimum():
    lp = LinearProgram(1, 0, [1.0], [], [], [], [], [], [0.0], [INF])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == 0.0
    assert sol.x[0] == 0.0


def test_box_vertex_against_enumeration():
    # min -x-y s.t. x+y <= 1, x,y in [0,1]
    lp = simple_lp([-1.0, -1.0], [[1.0, 1.0]], [-INF], [1.0], [0, 0], [1, 1])
    sol = solve_lp(lp)
    status, val = vertex_enumeration(
        np.array([-1.0, -1.0]), np.array([[1.0, 1.0]]),
        np.array([-INF]), np.array([1.0]), np.zeros(2), np.ones(2))
    assert sol.status == status == "optimal"
    assert abs(sol.objective - val) < 1e-12
    assert abs(sol.objective + 1.0) < 1e-12


def test_contradictory_bounds_infeasible():
    lp = simple_lp([0.0], [[1.0]], [-INF], [-1.0], [0.0], [INF])
    assert solve_lp(lp).status == "infeasible"


def test_unbounded_detected():
    lp = LinearProgram(1, 0, [-1.0], [], [], [], [], [], [0.0], [INF])
    assert solve_lp(lp).status == "unbounded"


def test_iteration_limit_reported(monkeypatch):
    """This LP takes two pivots, so a limit of one ends the solve early."""
    rng = np.random.default_rng(3)
    c, A, rlo, rhi, lo, up = random_lp(rng)
    lp = simple_lp(c, A, rlo, rhi, lo, up)
    assert solve_lp(lp).iterations == 2
    monkeypatch.setattr(lp_solver, "MAX_ITERATIONS", 1)
    assert solve_lp(lp).status == "iteration_limit"


def test_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        LinearProgram(2, 0, [1.0], [], [], [], [], [], [0, 0], [1, 1])
    with pytest.raises(ValueError):
        LinearProgram(1, 0, [np.nan], [], [], [], [], [], [0.0], [1.0])
    with pytest.raises(ValueError):
        LinearProgram(1, 0, [1.0], [], [], [], [], [], [2.0], [1.0])
    with pytest.raises(ValueError):
        LinearProgram(1, 1, [1.0], [0], [5], [1.0], [0.0], [0.0], [0.0], [1.0])


def loop_dual_objective(basis, lp, drop_tol=1e-9):
    """Dual bound from the row duals and reduced costs of the final basis,
    by dense solves (`lp_oracle.basis_duals`); equals the primal objective
    at an exact optimum.  Multipliers below drop_tol count as zero, so
    roundoff-level duals do not pair with infinite bounds."""
    total = 0.0
    row_duals, reduced_costs = basis_duals(lp, basis)
    for y, lo, up in zip(row_duals, lp.row_lower, lp.row_upper):
        if abs(y) > drop_tol:
            total += y * (lo if y > 0 else up)
    for d, lo, up in zip(reduced_costs, lp.col_lower, lp.col_upper):
        if abs(d) > drop_tol:
            total += d * (lo if d > 0 else up)
    return total


def test_random_lps_match_oracle_and_duality():
    rng = np.random.default_rng(2718)
    n_opt = n_inf = 0
    for _ in range(120):
        c, A, rlo, rhi, lo, up = random_lp(rng)
        lp = simple_lp(c, A, rlo, rhi, lo, up)
        rs = RepeatSolver(lp)
        sol = rs.solve()
        status, val = vertex_enumeration(c, A, rlo, rhi, lo, up)
        if status == "optimal":
            n_opt += 1
            assert sol.status == "optimal"
            assert abs(sol.objective - val) <= 1e-8 * (1 + abs(val))
            dual = loop_dual_objective(rs.basis(), lp)
            assert abs(sol.objective - dual) <= 1e-7 * (1 + abs(sol.objective))
        else:
            n_inf += 1
            assert sol.status == "infeasible"
    assert n_opt >= 20 and n_inf >= 20  # both branches exercised


def test_deterministic_bases():
    rng = np.random.default_rng(11)
    for _ in range(20):
        c, A, rlo, rhi, lo, up = random_lp(rng)
        lp = simple_lp(c, A, rlo, rhi, lo, up)
        r1, r2 = RepeatSolver(lp), RepeatSolver(lp)
        assert r1.solve().status == r2.solve().status
        b1, b2 = r1.basis(), r2.basis()
        assert np.array_equal(b1.basic, b2.basic)
        assert np.array_equal(b1.status, b2.status)


def test_warm_start_after_bound_change():
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(30):
        c, A, rlo, rhi, lo, up = random_lp(rng)
        lp = simple_lp(c, A, rlo, rhi, lo, up)
        rs = RepeatSolver(lp)
        if rs.solve().status != "optimal":
            continue
        hits += 1
        lp.row_lower = lp.row_lower - 0.05
        lp.row_upper = lp.row_upper + 0.05
        warm = solve_lp(lp, warm_basis=rs.basis())
        cold = solve_lp(lp)
        assert warm.status == cold.status
        if warm.status == "optimal":
            assert abs(warm.objective - cold.objective) <= 1e-8 * (1 + abs(cold.objective))
            assert warm.iterations <= cold.iterations + 5
    assert hits >= 5


def test_warm_start_rejects_malformed_basis():
    lp = simple_lp([1.0, 1.0], [[1.0, 1.0]], [1.0], [1.0], [0, 0], [5, 5])
    rs = RepeatSolver(lp)
    rs.solve()
    bad = rs.basis()
    bad.status[:] = 0  # no basic columns at all
    with pytest.raises(ValueError):
        solve_lp(lp, warm_basis=bad)


def test_repeat_solver_tracks_bound_sweeps():
    # min x+y s.t. x+y >= b, tracking b
    lp = simple_lp([1.0, 1.0], [[1.0, 1.0]], [1.0], [INF], [0, 0], [10, 10])
    rs = RepeatSolver(lp)
    for b in (1.0, 3.5, 2.0, 7.25, 0.5):
        lp.row_lower[0] = b
        sol = rs.solve()
        assert sol.status == "optimal"
        assert abs(sol.objective - b) < 1e-9
    assert abs(rs.solve_value() - 0.5) < 1e-9


def test_ratio_test_matches_reference_loop(monkeypatch):
    """Every ratio test on the random oracle LPs, in both phases and under
    Bland's rule, agrees bit for bit with the per-candidate loop."""
    vectorized = lp_solver.RepeatSolver._ratio_test
    seen = {True: 0, False: 0, "bland": 0}
    force_bland = [False]

    def checked(sim, q, sigma, delta, phase1):
        sim.use_bland |= force_bland[0]
        got = vectorized(sim, q, sigma, delta, phase1)
        assert got == ratio_test_loop(sim, q, sigma, delta, phase1)
        seen[phase1] += 1
        seen["bland"] += sim.use_bland
        # coarsened columns make near-tied ratios and pivots common
        bland = sim.use_bland
        for coarse in (np.round(delta, 1), np.sign(delta) * (1 + 1e-10 * np.arange(len(delta)))):
            for sim.use_bland in (False, True):
                for p1 in (False, True):
                    assert vectorized(sim, q, sigma, coarse, p1) == \
                        ratio_test_loop(sim, q, sigma, coarse, p1)
        sim.use_bland = bland
        return got

    monkeypatch.setattr(lp_solver.RepeatSolver, "_ratio_test", checked)
    rng = np.random.default_rng(2718)
    for k in range(120):
        force_bland[0] = k % 4 == 0
        solve_lp(simple_lp(*random_lp(rng)))
    assert seen[True] >= 100 and seen[False] >= 50 and seen["bland"] >= 20


def test_ratio_test_matches_reference_on_near_ties():
    """Basic values a few 1e-9 apart, some outside their bounds, against
    pivot columns drawn from a few magnitudes: ratios tie, nearly tie and
    sit just outside the tie window."""
    rng = np.random.default_rng(99)
    m, n = 12, 3
    for _ in range(300):
        row_lo = rng.choice([-INF, -1.0, 0.0], m)
        row_up = np.where(rng.random(m) < 0.3, INF, row_lo + rng.choice([0.0, 1.0], m))
        row_up[row_lo == -INF] = rng.choice([INF, 1.0])
        lp = LinearProgram(n, m, np.zeros(n), [], [], [], row_lo, row_up,
                           np.zeros(n), rng.choice([1.0, INF], n))
        sim = RepeatSolver(lp)
        sim.load(make_basis(lp))
        bound = np.where(np.isfinite(row_lo), row_lo, np.where(np.isfinite(row_up), row_up, 0.0))
        sim.x[sim.basic] = bound + rng.choice([-2e-7, -1e-8, 0.0, 3e-9, 5e-8, 0.5], m)
        delta = rng.choice([-2.0, -1.0, -0.5, 0.0, 1e-10, 0.5, 1.0, 2.0], m)
        q, sigma = int(rng.integers(n)), float(rng.choice([-1.0, 1.0]))
        for sim.use_bland in (False, True):
            for phase1 in (False, True):
                assert sim._ratio_test(q, sigma, delta, phase1) == \
                    ratio_test_loop(sim, q, sigma, delta, phase1)


def test_make_basis_defaults_to_slack_start():
    lp = simple_lp([1.0, -1.0, 0.0], [[1.0, 1.0, 1.0]], [-INF], [4.0],
                   [0.0, -INF, -INF], [2.0, 3.0, INF])
    basis = make_basis(lp)
    assert basis.basic.tolist() == [3]
    assert basis.status.tolist() == [lp_solver.AT_LOWER, lp_solver.AT_UPPER,
                                     lp_solver.FREE_NB, lp_solver.BASIC]
    crash = make_basis(lp, [0])
    assert crash.basic.tolist() == [0]
    assert crash.status[0] == lp_solver.BASIC
    assert crash.status[3] == lp_solver.AT_UPPER  # row logical at |4| < |-inf|
    assert solve_lp(lp, warm_basis=crash).objective == pytest.approx(
        solve_lp(lp).objective, abs=1e-12)


def test_repeat_solver_restarts_after_failed_update(monkeypatch):
    """A factor update that fails mid-solve triggers one rebuild from the
    start basis, which still reaches the optimum: in the primal phases of a
    first solve, and in a dual pivot of a re-solve after a bound move."""
    lp = simple_lp([1.0, 2.0, 3.0], [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
                   [2.0, -1.0], [INF, 1.0], [0, 0, 0], [5, 5, 5])
    real = lp_solver._Factors.update
    real_dual = lp_solver.RepeatSolver.run_dual
    for start, row_lower in ((None, 2.0), (make_basis(lp), 2.0), (None, 12.0)):
        rs = RepeatSolver(lp, start=start)
        if row_lower != lp.row_lower[0]:
            rs.solve()
            lp.row_lower[0] = row_lower  # the re-solve goes dual
        want = solve_lp(lp).objective
        calls = []
        in_dual = []

        def failing(self, row, eta):
            calls.append(row)
            if len(calls) == 1:
                raise LpError("forced update failure")
            return real(self, row, eta)

        def dual(sim, d):
            in_dual.append(len(calls))
            try:
                return real_dual(sim, d)
            finally:
                in_dual.append(len(calls))

        monkeypatch.setattr(lp_solver._Factors, "update", failing)
        monkeypatch.setattr(lp_solver.RepeatSolver, "run_dual", dual)
        sol = rs.solve()
        monkeypatch.undo()
        assert rs.restarts == 1
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(want, rel=1e-12)
        assert bound_violation(lp, sol.x) <= 1e-9
        assert len(calls) >= 2  # the rebuilt solve pivoted again
        if row_lower == 12.0:  # the forced failure landed in a dual pivot
            assert in_dual[:2] == [0, 1]


@pytest.mark.parametrize("drifts", [1, 3, 100])
def test_drifted_optimum_is_re_certified_on_a_fresh_factorization(monkeypatch, drifts):
    """An optimum whose x has drifted out of its bounds is solved again on a
    fresh factorization, which recomputes x: up to three times, and past
    that the solve restarts once from the start basis and then fails."""
    lp = simple_lp([1.0, 2.0, 3.0], [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
                   [2.0, -1.0], [INF, 1.0], [0, 0, 0], [5, 5, 5])
    want = solve_lp(lp).objective
    real = lp_solver.RepeatSolver.run_phase
    passes = []

    def drifting(sim, phase1):
        status = real(sim, phase1)
        if not phase1:
            passes.append(status)
            if len(passes) <= drifts:
                slot = np.flatnonzero(np.isfinite(sim.lb))[0]
                sim.x[sim.basic[slot]] = sim.lb[slot] - 1.0
        return status

    monkeypatch.setattr(lp_solver.RepeatSolver, "run_phase", drifting)
    rs = RepeatSolver(lp)
    if drifts > 3:
        with pytest.raises(LpError, match="could not certify"):
            rs.solve()
        assert rs.restarts == 1 and passes == ["optimal"] * 8
        return
    sol = rs.solve()
    assert rs.restarts == 0 and passes == ["optimal"] * (drifts + 1)
    assert sol.status == "optimal" and sol.objective == pytest.approx(want, rel=1e-12)
    assert bound_violation(lp, sol.x) <= 1e-9


def test_repeat_solver_begun_at_an_optimal_basis_needs_no_pivots():
    """A solve begun at a kept optimal basis, after the bounds moved away
    and back, takes no pivot, as does a new solver that starts there."""
    lp = simple_lp([1.0, 2.0, 3.0], [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
                   [2.0, -1.0], [INF, 1.0], [0, 0, 0], [5, 5, 5])
    rs = RepeatSolver(lp)
    want = rs.solve_value()
    optimal = rs.basis()
    lp.row_lower[0] = 4.0
    moved = rs.solve_value()
    assert moved == pytest.approx(solve_lp(lp).objective, rel=1e-12)
    lp.row_lower[0] = 2.0
    rs.begin_at(KeptStart(optimal))
    sol = rs.solve()
    assert sol.iterations == 0
    assert sol.objective == pytest.approx(want, rel=1e-12)
    assert RepeatSolver(lp, optimal).solve().iterations == 0


def test_solves_begun_at_a_kept_start_match_fresh_factorizations():
    """A solve begun from a `KeptStart` ends with the status, pivots and
    objective bits of a new solver that starts from the same basis, after
    any bound move; its pivots leave the kept LU with no eta and the kept
    reduced costs as they were priced."""
    rng = np.random.default_rng(23)
    pivoted = checked = 0
    for _ in range(200):
        c, A, rlo, rhi, lo, up = random_lp(rng)
        lp = simple_lp(c, A, rlo, rhi, lo, up)
        rs = RepeatSolver(lp)
        if rs.solve().status != "optimal":
            continue
        start = KeptStart(rs.basis())
        for _ in range(4):
            shift = rng.normal(size=len(rlo)) * rng.choice([0.1, 1.0, 3.0])
            lp.row_lower, lp.row_upper = rlo + shift, rhi + shift
            rs.begin_at(start)
            kept = rs.solve()
            want = RepeatSolver(lp, start.basis).solve()
            assert (kept.status, kept.iterations) == (want.status, want.iterations)
            if want.status == "optimal":
                assert kept.objective == want.objective
            pivoted += kept.iterations
        assert start.factors.etas == [] and start.factors.eta_nnz == 0
        fresh = RepeatSolver(lp)
        fresh.load(start.basis)
        assert np.array_equal(start.reduced_costs, fresh._reduced_costs(fresh.cost))
        checked += 1
    assert checked >= 50 and pivoted >= 30


def test_a_solve_after_load_begins_at_the_loaded_basis(monkeypatch):
    """The solve after `load(basis)` begins at that basis, on the factors
    `load` made, and factorizes no start basis: it ends with the status,
    pivots and objective bits of a new solver that starts from the basis."""
    real_start = lp_solver.RepeatSolver._start
    started = []

    def start(sim, basis):
        started.append(basis)
        return real_start(sim, basis)

    monkeypatch.setattr(lp_solver.RepeatSolver, "_start", start)
    rng = np.random.default_rng(25)
    pivoted = checked = 0
    for _ in range(200):
        c, A, rlo, rhi, lo, up = random_lp(rng)
        lp = simple_lp(c, A, rlo, rhi, lo, up)
        first = RepeatSolver(lp)
        if first.solve().status != "optimal":
            continue
        basis = first.basis()
        for _ in range(4):
            shift = rng.normal(size=len(rlo)) * rng.choice([0.1, 1.0, 3.0])
            lp.row_lower, lp.row_upper = rlo + shift, rhi + shift
            sim = RepeatSolver(lp)
            sim.load(basis)
            del started[:]
            got = sim.solve()
            assert started == []
            want = RepeatSolver(lp, basis).solve()
            assert (got.status, got.iterations) == (want.status, want.iterations)
            if want.status == "optimal":
                assert got.objective == want.objective
            pivoted += got.iterations
        checked += 1
    assert checked >= 50 and pivoted >= 30


def test_a_failed_solve_begun_at_a_kept_start_retries_from_the_start_basis(monkeypatch):
    """`begin_at` moves only the next solve's beginning: when that solve
    fails, its one retry starts from the solver's start basis."""
    lp = simple_lp([1.0, 2.0, 3.0], [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]],
                   [2.0, -1.0], [INF, 1.0], [0, 0, 0], [5, 5, 5])
    first = make_basis(lp)
    rs = RepeatSolver(lp, start=first)
    rs.solve()
    start = KeptStart(rs.basis())
    lp.row_lower[0] = 12.0  # the re-solve goes dual
    want = solve_lp(lp).objective
    real_update, real_start = lp_solver._Factors.update, lp_solver.RepeatSolver._start
    calls, starts = [], []

    def failing(self, row, eta):
        calls.append(row)
        if len(calls) == 1:
            raise LpError("forced update failure")
        return real_update(self, row, eta)

    def spy(sim, basis):
        starts.append(basis)
        return real_start(sim, basis)

    monkeypatch.setattr(lp_solver._Factors, "update", failing)
    monkeypatch.setattr(lp_solver.RepeatSolver, "_start", spy)
    rs.begin_at(start)
    sol = rs.solve()
    assert rs.restarts == 1 and starts == [start.basis, first]
    assert sol.status == "optimal" and sol.objective == pytest.approx(want, rel=1e-12)


def _count_primal_pivots(monkeypatch) -> list:
    """Spy on the primal phase driver: the returned list collects the
    pivots each `run_phase` call makes."""
    real = lp_solver.RepeatSolver.run_phase
    pivots = []

    def counted(sim, phase1):
        before = sim.iterations
        try:
            return real(sim, phase1)
        finally:
            pivots.append(sim.iterations - before)

    monkeypatch.setattr(lp_solver.RepeatSolver, "run_phase", counted)
    return pivots


def test_bound_sweeps_re_solve_dual_and_match_fresh_solves(monkeypatch):
    """Random bounded LPs, some columns made free, some fixed, follow sweeps
    of row-bound moves through one RepeatSolver.  Every re-solve matches a
    fresh solve in status and objective, and takes no primal pivot: the
    dual simplex does all the work, infeasible sweeps included.  The
    reduced costs a re-solve reuses from its previous solve are still
    exactly those of its basis."""
    rng = np.random.default_rng(4242)
    primal = _count_primal_pivots(monkeypatch)
    real_optimize = lp_solver.RepeatSolver._optimize
    reused = []

    def optimize(sim):
        if sim.basic is not None and sim.certified_d is not None:
            assert np.array_equal(sim.certified_d, sim._reduced_costs(sim.cost))
            reused.append(sim.iterations)
        return real_optimize(sim)

    monkeypatch.setattr(lp_solver.RepeatSolver, "_optimize", optimize)
    seen = {"optimal": 0, "infeasible": 0}
    dual_pivots = n_fixed = n_free = 0
    for _ in range(100):
        c, A, rlo, rhi, lo, up = random_lp(rng)
        free = rng.random(len(c)) < 0.15
        lo[free], up[free] = -INF, INF
        lp = simple_lp(c, A, rlo, rhi, lo, up)
        rs = RepeatSolver(lp)
        if rs.solve().status != "optimal":
            continue
        first = KeptStart(rs.basis())
        n_fixed += np.count_nonzero(lo == up)
        n_free += np.count_nonzero(free)
        for sweep in range(6):
            shift = rng.normal(size=len(rlo)) * rng.choice([0.1, 1.0, 3.0])
            lp.row_lower, lp.row_upper = rlo + shift, rhi + shift
            if sweep == 3:
                rs.begin_at(first)  # as each evaluate_batch does
            del primal[:]
            warm = rs.solve()
            assert sum(primal) == 0
            dual_pivots += warm.iterations
            fresh = solve_lp(lp)
            assert warm.status == fresh.status
            seen[fresh.status] += 1
            if fresh.status == "optimal":
                assert warm.objective == pytest.approx(fresh.objective, rel=1e-9, abs=1e-9)
                assert bound_violation(lp, warm.x) <= 1e-7
    assert seen["optimal"] >= 100 and seen["infeasible"] >= 10
    assert dual_pivots >= 30 and n_fixed >= 5 and n_free >= 5
    assert len(reused) >= 100


def test_phase2_bound_flip_keeps_exact_reduced_costs(monkeypatch):
    """A phase-2 bound flip changes neither the basis nor the costs, so the
    reduced costs `run_phase` keeps across it are bitwise those a fresh
    pricing pass gives."""
    rng = np.random.default_rng(99)
    real_phase = lp_solver.RepeatSolver.run_phase
    real_pivot = lp_solver.RepeatSolver._pivot
    real_choose = lp_solver.RepeatSolver._choose_entering
    kept = []

    def run_phase(sim, phase1):
        sim.test_phase2, sim.test_flipped = not phase1, False
        return real_phase(sim, phase1)

    def pivot(sim, q, sigma, delta, t, pos, leave_bound):
        sim.test_flipped = pos == -1
        return real_pivot(sim, q, sigma, delta, t, pos, leave_bound)

    def choose(sim, d):
        if getattr(sim, "test_phase2", False) and sim.test_flipped:
            assert np.array_equal(d, sim._reduced_costs(sim.cost))
            kept.append(sim.iterations)
        return real_choose(sim, d)

    monkeypatch.setattr(lp_solver.RepeatSolver, "run_phase", run_phase)
    monkeypatch.setattr(lp_solver.RepeatSolver, "_pivot", pivot)
    monkeypatch.setattr(lp_solver.RepeatSolver, "_choose_entering", choose)
    for _ in range(200):
        c, A, rlo, rhi, lo, up = random_lp(rng)
        solve_lp(simple_lp(c, A, rlo, rhi, lo, up))
    assert len(kept) >= 50


def _loosen_slack_rows(lp, basic):
    """Move apart the bounds of every row whose logical is basic: the basis
    and x stay as they are, and stay primal feasible."""
    slack = basic[basic >= lp.num_cols] - lp.num_cols
    lp.row_lower[slack] -= 1.0
    lp.row_upper[slack] += 1.0
    return len(slack)


def test_feasible_re_solve_certifies_with_its_kept_reduced_costs(monkeypatch):
    """A re-solve whose basis stays primal feasible makes no pricing pass:
    its phase 2 ends on the reduced costs its previous solve certified.
    Its value is bit-identical to a re-solve that prices afresh."""
    real = lp_solver.RepeatSolver._reduced_costs
    calls = []

    def counted(sim, cost):
        calls.append(1)
        return real(sim, cost)

    monkeypatch.setattr(lp_solver.RepeatSolver, "_reduced_costs", counted)
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(200):
        c, A, rlo, rhi, lo, up = random_lp(rng)
        lp = simple_lp(c, A, rlo, rhi, lo, up)
        kept, fresh = RepeatSolver(lp), RepeatSolver(lp)
        if kept.solve().status != "optimal":
            continue
        fresh.solve()
        if not _loosen_slack_rows(lp, kept.basis().basic):
            continue
        del calls[:]
        value = kept.solve_value()
        assert not calls and kept.iterations == 0
        fresh.certified_d = None
        assert fresh.solve_value() == value
        assert len(calls) == 1
        checked += 1
    assert checked >= 30


def test_factor_solves_after_eta_updates_match_dense_solves():
    """ftran and btran through the LU and a file of product-form etas solve
    with the current basis matrix to 1e-12, on random sparse bases."""
    rng = np.random.default_rng(8)
    for _ in range(30):
        m, n = int(rng.integers(5, 40)), int(rng.integers(5, 40))
        A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.2)
        lp = simple_lp(np.zeros(n), A, -np.ones(m), np.ones(m), -np.ones(n), np.ones(n))
        sim = RepeatSolver(lp)
        basic = np.arange(n, n + m)
        factors = lp_solver._Factors(sim.fmat, basic)
        for _ in range(int(rng.integers(1, 25))):
            q = int(rng.choice(np.setdiff1d(np.arange(n + m), basic)))
            eta = factors.ftran(sim._column(q))
            row = int(np.argmax(np.abs(eta)))
            if abs(eta[row]) < 0.1:
                continue
            assert factors.update(row, eta)
            basic[row] = q
            B = sim.fmat[:, basic].toarray()
            rhs = rng.normal(size=m)
            assert np.allclose(factors.ftran(rhs.copy()), np.linalg.solve(B, rhs),
                               rtol=1e-12, atol=1e-12)
            assert np.allclose(factors.btran(rhs), np.linalg.solve(B.T, rhs),
                               rtol=1e-12, atol=1e-12)
        assert len(factors.etas) >= 1
