"""Multi-period DC dispatch LP per scenario and the cost evaluation Q(x, xi).

Thermal power is expressed through its piecewise-linear cost segments
(p = p_min*x + sum of segment fills), so the LP columns are segment fills,
line flows, bus angles, and load shedding.  Renewable output enters the
bus-balance right-hand side as a fixed injection; scenario re-solves only
move those row bounds, which is what makes warm-started bases effective.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .forecast import ForecastSpec
from .grid_model import GridCase, linearize_cost
from .lp_solver import (AT_UPPER, BASIC, FEAS_TOL, Basis, KeptStart, LinearProgram,
                        LpError, LpSolution, RepeatSolver, make_basis, solve_lp)

INF = float("inf")
POWER_BLOCK = 512  # germs a batch maps to power at once: bounds its memory
ATLAS_GERMS = 512  # fixed germs whose optimal bases make an evaluator's atlas
REGION_ROWS = 2_000  # largest LP, in rows, that screens its germs against an atlas


class DispatchError(Exception):
    pass


@dataclass
class DispatchInstance:
    """The dispatch LP and where each quantity sits in it.

    Columns hold the segment fills `seg` (G, T, S), then the line flows
    `flow` (E, T), bus angles `angle` (B, T) and load shedding `shed`
    (B, T); each array gives the column index of every entry.  Rows hold
    the bus balances (B*T, bus-major), the flow definitions (E*T), then
    the up- and down-ramp rows (G*(T-1) each)."""

    case: GridCase
    segments: int
    lp: LinearProgram
    objective_offset: float   # committed-cost constant outside the LP
    seg: np.ndarray
    flow: np.ndarray
    angle: np.ndarray
    shed: np.ndarray
    p_floor: np.ndarray       # (G, T) committed minimum output p_min * x
    balance_base: np.ndarray  # (B, T) renewable-free balance D - sum(p_min * x)
    site_bus: np.ndarray      # bus position of each renewable site

    def balance_row(self, i: int, t: int) -> int:
        return i * self.case.periods + t

    def start_basis(self) -> Basis:
        """DC power-flow crash basis with merit-order fills: in each island
        and period the cheapest committed segments sit at their upper bound
        while their cumulative width fits within the island's net load
        (Bixby, "Implementing the simplex method: the initial basis", 1992),
        the lead bus of each island (the reference bus in its own island)
        sheds the rest, and the angles and flows carry it as a DC power
        flow.

        Each bus's balance row holds its angle, or at a lead bus its shed;
        each flow row holds its flow, and each ramp row its logical.  The
        lead angles stay nonbasic (the reference angle is fixed at zero,
        another island's lead angle is free at zero), so the network
        equations have one solution and the basis always factorizes.  In
        this order the basis matrix is structurally symmetric apart from
        the lead buses' slots, which keeps the minimum-degree ordering of
        B'+B sparse, for the crash and for the optimal basis the cold solve
        reaches from it.  Phase 1 repairs only lines over their limits,
        ramp rows the fills break, and islands whose committed p_min (or
        wind) exceeds their load."""
        lead, island = _lead_buses(self.case)
        bal_slot = self.angle.copy()
        bal_slot[lead] = self.shed[lead]
        n = self.lp.num_cols
        ramp = np.arange(n + self.shed.size + self.flow.size, n + self.lp.num_rows)
        basis = make_basis(self.lp, np.concatenate(
            [bal_slot.ravel(), self.flow.ravel(), ramp]))
        net = np.zeros((len(lead), self.case.periods))
        np.add.at(net, island, self.lp.row_lower[:self.shed.size].reshape(self.shed.shape))
        gen_island = island[_bus_of(self.case, self.case.generators, "bus")]
        cost, width = self.lp.objective, self.lp.col_upper
        for k in range(len(lead)):
            cols = self.seg[gen_island == k].transpose(1, 0, 2).reshape(self.case.periods, -1)
            cols = cols[:, np.argsort(cost[cols[0]], kind="stable")]  # same every period
            fill = (np.cumsum(width[cols], axis=1) <= net[k, :, None]) & (width[cols] > 0.0)
            basis.status[cols[fill]] = AT_UPPER
        return basis

    def set_renewable(self, renewable: np.ndarray):
        """Move the balance-row constants for a new renewable scenario."""
        rhs = self.balance_base.copy()
        np.subtract.at(rhs, self.site_bus, _check_renewable(self.case, renewable))
        n_bal = rhs.size
        self.lp.row_lower[:n_bal] = self.lp.row_upper[:n_bal] = rhs.ravel()


def _check_renewable(case: GridCase, renewable) -> np.ndarray:
    renewable = np.asarray(renewable, dtype=float)
    want = (len(case.renewable_sites), case.periods)
    if renewable.shape != want:
        raise DispatchError(f"renewable array shape {renewable.shape} != {want}")
    return renewable


def _bus_of(case: GridCase, items, attr: str) -> np.ndarray:
    """Bus position of each item's `attr` bus."""
    bus_pos = case.bus_index()
    return np.array([bus_pos[getattr(k, attr)] for k in items], dtype=np.int64)


def _lead_buses(case: GridCase) -> tuple[np.ndarray, np.ndarray]:
    """Position of one bus per island of the network (the reference bus in
    its own island, else the island's first bus), and each bus's island
    (`GridCase.islands`)."""
    island = case.islands()
    lead = np.unique(island, return_index=True)[1]
    ref = case.bus_index()[case.reference_bus]
    lead[island[ref]] = ref
    return lead, island


def _blocks(*shapes):
    """Consecutive index ranges from zero, one array of each shape."""
    start = 0
    for shape in shapes:
        size = int(np.prod(shape))
        yield np.arange(start, start + size).reshape(shape)
        start += size


def build_instance(case: GridCase, renewable, segments: int = 3) -> DispatchInstance:
    """Assemble the dispatch LP: power balance with shedding, flow definition
    and limits, commitment-scaled generation bounds via cost segments, and
    ramp constraints for consecutive periods (t=1 has no prior-period row)."""
    T = case.periods
    G = len(case.generators)
    B = len(case.buses)
    E = len(case.lines)
    bus_pos = case.bus_index()
    seg, flow, angle, shed = _blocks((G, T, segments), (E, T), (B, T), (B, T))
    bal, flow_def, ramp_up, ramp_dn = _blocks((B, T), (E, T), (G, T - 1), (G, T - 1))
    n_cols = seg.size + flow.size + angle.size + shed.size
    n_rows = bal.size + flow_def.size + ramp_up.size + ramp_dn.size

    def per_gen(name):
        return np.array([getattr(g, name) for g in case.generators], dtype=float)[:, None]

    on = np.array([g.commitment for g in case.generators], dtype=np.int64).reshape(G, T)
    gen_bus = _bus_of(case, case.generators, "bus")
    frm, to = _bus_of(case, case.lines, "from_bus"), _bus_of(case, case.lines, "to_bus")
    pwl = [linearize_cost(g, segments) for g in case.generators]
    slopes = np.zeros((G, segments))
    widths = np.zeros((G, segments))
    for g_idx, cost in enumerate(pwl):  # p_min == p_max leaves one segment
        slopes[g_idx, :len(cost.slopes)] = cost.slopes
        widths[g_idx, :len(cost.slopes)] = np.diff(cost.breakpoints)
    first = np.array([cost.value_at_first for cost in pwl]).reshape(G, 1)
    offset = 0.0  # a running total: np.sum's pairwise order would move Q's last digit
    for value in (on * first).ravel():
        offset += value

    # columns: segment fills scaled by commitment, lines' flow limits, free
    # angles with the reference bus pinned at zero, penalized shedding
    obj = np.zeros(n_cols)
    col_lo = np.zeros(n_cols)
    col_up = np.full(n_cols, INF)
    obj[seg] = slopes[:, None, :]
    col_up[seg] = widths[:, None, :] * on[:, :, None]
    col_lo[flow] = np.array([ln.flow_min for ln in case.lines]).reshape(E, 1)
    col_up[flow] = np.array([ln.flow_max for ln in case.lines]).reshape(E, 1)
    col_lo[angle] = -INF
    ref = angle[bus_pos[case.reference_bus]]
    col_lo[ref] = col_up[ref] = 0.0
    obj[shed] = case.shed_penalty

    # (rows, columns, value) blocks:
    # balance: sum(seg) + flow_in - flow_out + q = D - p_r - sum(pmin*x);
    # flow definition: base * b_pu * (theta_i - theta_j) - f = 0;
    # ramps between consecutive periods, on the segment fills
    bcoef = case.base_mva * np.array([ln.susceptance for ln in case.lines]).reshape(E, 1)
    up, dn = ramp_up[:, :, None], ramp_dn[:, :, None]
    now, before = seg[:, 1:], seg[:, :-1]
    parts = [np.broadcast_arrays(r, c, v) for r, c, v in (
        (bal[gen_bus][:, :, None], seg, 1.0), (bal[to], flow, 1.0),
        (bal[frm], flow, -1.0), (bal, shed, 1.0),
        (flow_def, angle[frm], bcoef), (flow_def, angle[to], -bcoef),
        (flow_def, flow, -1.0),
        (up, now, 1.0), (up, before, -1.0), (dn, before, 1.0), (dn, now, -1.0))]
    rows, cols, vals = (np.concatenate([p[k].ravel() for p in parts]) for k in range(3))
    nonzero = vals != 0.0

    x0, x1 = on[:, :-1], on[:, 1:]
    dx = x1 - x0
    p_min, p_max = per_gen("p_min"), per_gen("p_max")
    row_lo = np.zeros(n_rows)
    row_up = np.zeros(n_rows)
    row_lo[ramp_up] = row_lo[ramp_dn] = -INF
    row_up[ramp_up] = (per_gen("ramp_up") * x0 + per_gen("startup") * dx
                       + p_max * (1 - x1) - p_min * dx)
    row_up[ramp_dn] = (per_gen("ramp_down") * x1 + per_gen("shutdown") * (-dx)
                       + p_max * (1 - x0) + p_min * dx)

    p_floor = p_min * on
    base = np.array([bus.load for bus in case.buses], dtype=float).reshape(B, T)
    np.subtract.at(base, gen_bus, p_floor)
    lp = LinearProgram(n_cols, n_rows, obj, rows[nonzero], cols[nonzero], vals[nonzero],
                       row_lo, row_up, col_lo, col_up)
    inst = DispatchInstance(case, segments, lp, offset, seg, flow, angle, shed,
                            p_floor, base, _bus_of(case, case.renewable_sites, "bus"))
    inst.set_renewable(renewable)
    return inst


@dataclass
class DispatchSolution:
    objective: float          # Q: production cost + shed penalty, $
    generation: np.ndarray    # (G, T) MW
    flows: np.ndarray         # (E, T) MW
    angles: np.ndarray        # (B, T) rad
    shed: np.ndarray          # (B, T) MW
    iterations: int

    def total_shed(self) -> float:
        return float(self.shed.sum())

    def to_csv(self) -> str:
        out = ["entity,index,period,value"]
        for name, arr in (("generator", self.generation), ("flow", self.flows),
                          ("angle", self.angles), ("shed", self.shed)):
            for k in range(arr.shape[0]):
                for t in range(arr.shape[1]):
                    out.append(f"{name},{k},{t},{float(arr[k, t])!r}")
        return "\n".join(out) + "\n"


def _extract(inst: DispatchInstance, sol: LpSolution) -> DispatchSolution:
    x = sol.x
    # a running total in segment order: np.sum's pairwise order would move
    # the schedule's last digit
    fill = sum(x[inst.seg[:, :, s]] for s in range(inst.segments))
    return DispatchSolution(sol.objective + inst.objective_offset,
                            inst.p_floor + fill, x[inst.flow], x[inst.angle],
                            x[inst.shed], sol.iterations)


def solve_dispatch(case: GridCase, renewable, segments: int = 3) -> DispatchSolution:
    """The dispatch at one renewable injection: one cold solve of its LP
    from the crash basis (`DispatchInstance.start_basis`); its Q must be finite."""
    inst = build_instance(case, renewable, segments)
    sol = solve_lp(inst.lp, warm_basis=inst.start_basis())
    if sol.status != "optimal":
        raise DispatchError(
            f"dispatch LP ended {sol.status}: shedding covers a shortfall but not "
            "a surplus, such as wind above load less committed minimum output")
    if not np.isfinite(sol.objective + inst.objective_offset):
        raise DispatchError("objective overflows: Q is not finite")
    return _extract(inst, sol)


class _Region:
    """Where one optimal basis of a dispatch LP stays optimal, over a
    scenario's power row p (sites x T values, site-major).

    A bound move keeps a basis dual feasible, so wherever it is also primal
    feasible it is optimal (Gal & Nedoma, "Multiparametric linear
    programming", Management Science 18(7), 1972).  Within the basis the
    basic variables and Q are affine in p.  Taken about a power row p0,
    with u = p - p0, the slacks of the basic variables' finite bounds are
    the rows of f + M u, and Q = q0 + g.u.  With D the derivative of each
    basic variable less its lower bound (a basic balance-row logical's
    bounds move with p too), a lower bound's row of M is D's and an upper
    bound's is -D's.  The region comes from the solver's fresh
    factorization of the basis at p0 (`RepeatSolver.load`), so it depends on
    the basis and p0 alone.  It keeps the basis as a `KeptStart`, for the
    simplex solves of germs outside it that begin there; the first such
    solve in a process factorizes it."""

    def __init__(self, inst: DispatchInstance, solver: RepeatSolver, basis: Basis,
                 p0: np.ndarray):
        self.start = KeptStart(basis)
        lp, status, basic = inst.lp, basis.status, basis.basic
        n, T = lp.num_cols, inst.case.periods
        inst.set_renewable(p0)
        solver.load(basis)
        x, lower, upper = solver.x, solver.lower, solver.upper
        # the balance-row logical each entry of p moves: its value is
        # balance_base - p, and its [A, -I] column is -e_row
        logical = n + (inst.site_bus[:, None] * T + np.arange(T)).ravel()
        entry = np.arange(logical.size)
        moves = np.zeros((lp.num_rows, logical.size))
        nonbasic = status[logical] != BASIC
        moves[logical[nonbasic] - n, entry[nonbasic]] = -1.0
        grad = solver.factors.lu.solve(moves)  # d x_B / d p
        slot = np.full(len(status), -1)
        slot[basic] = np.arange(len(basic))
        held = slot[logical] >= 0
        slack = grad.copy()  # d (x_B - lower bound) / d p
        slack[slot[logical[held]], entry[held]] += 1.0
        lo, up = np.isfinite(lower[basic]), np.isfinite(upper[basic])
        self.p0 = p0.ravel()
        self.f = np.concatenate([(x[basic] - lower[basic])[lo],
                                 (upper[basic] - x[basic])[up]])
        self.m = sp.csr_matrix(np.vstack([slack[lo], -slack[up]]))
        self.ones = sp.csr_matrix(np.ones((1, len(self.f))))
        self.q0 = solver.objective()
        self.offset = inst.objective_offset
        cost_b = solver.cost[basic]
        self.g = sp.csr_matrix(np.sum(cost_b[:, None] * grad, axis=0)[None])

    def screen(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Which rows of p (germs x sites*T) lie in the region, Q at each of
        those, and each row's negative slacks summed (zero inside).  A germ
        lies in it when that sum is at least -FEAS_TOL, the simplex's
        feasibility tolerance.  Every product is CSR times dense, which is
        single-threaded C and sums term by term in a fixed order; the rows
        `ones` and `g` sum the slacks and Q that way, where numpy's sum
        would switch to pairwise order for a single germ.  So no BLAS
        routine runs, and a germ's screen and Q have the same bits in any
        block."""
        u = p - self.p0
        slack = self.m @ u.T  # (rows, germs)
        slack += self.f[:, None]
        np.minimum(slack, 0.0, out=slack)
        total = (self.ones @ slack)[0]
        hit = total >= -FEAS_TOL
        q = (self.g @ u[hit].T)[0]
        return hit, (self.q0 + q) + self.offset, total


class SedEvaluator:
    """A study's cost evaluator Q(germ) with warm-started basis reuse.

    The spec lists the case's renewable sites in the case's RENEWABLE
    order, so `spec.power` rows are the case's sites; another order or set
    of sites raises DispatchError naming both.

    The constructor builds the instance (`inst`) at the zero germ, solves
    its LP from the crash basis and keeps the optimal basis as the anchor.
    On a small LP (at most REGION_ROWS rows) it then builds the atlas: the
    regions (`_Region`) of the optimal bases reached on ATLAS_GERMS fixed
    germs.  Within a region its basis is optimal and Q is affine in the
    wind power, so a batch takes most of its values from the atlas without
    a simplex solve.  Each other evaluation regenerates the renewable
    injection from the germ, moves the balance-row bounds, and re-solves:
    in a batch with an atlas, from the basis of the region nearest the
    germ; else from the previous optimal basis, a batch taking its germs
    in ascending total wind power and the first from the anchor.

    So the cold solve and the atlas happen once, in the process that
    constructs the evaluator.  Forked workers inherit them.  A pickled
    evaluator carries the anchor and the atlas but not the LP, the solver
    or the factorizations of the anchor and region bases (`KeptStart`),
    which each process builds for itself: unpickling rebuilds the solver
    and begins it at the anchor.  Safe to use from one worker at a time.
    """

    def __init__(self, case: GridCase, spec: ForecastSpec, segments: int = 3):
        case_labels = [s.site_label for s in case.renewable_sites]
        spec_labels = [s.label for s in spec.sites]
        if case_labels != spec_labels:
            raise DispatchError(
                f"case sites {case_labels} do not match forecast sites {spec_labels}")
        self.case = case
        self.spec = spec
        self.segments = segments
        self.dim = spec.dimension
        self._next_power = None  # power row for the next call, mapped by a batch
        self._next_q = None  # Q for the next call, screened by a batch
        self._build()
        try:
            self._solver.solve_value()
        except LpError as exc:
            raise DispatchError(f"dispatch LP failed at the zero germ: {exc}") from exc
        self._anchor = KeptStart(self._solver.basis())  # optimal basis at the zero germ
        # above REGION_ROWS germs rarely share a basis (on the 118-bus case
        # each ends in its own), so such an LP has no atlas
        self._atlas = self._build_atlas() if self.inst.lp.num_rows <= REGION_ROWS else ()
        self._solver.begin_at(self._anchor)

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["inst"], state["_solver"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._build()
        self._solver.begin_at(self._anchor)

    def _build(self):
        """The LP at the zero germ, and a solver whose first solve, and
        every retry, starts from the crash basis."""
        self.inst = build_instance(self.case, self.spec.power(np.zeros(self.dim)),
                                   self.segments)
        self._solver = RepeatSolver(self.inst.lp, self.inst.start_basis())

    def _check(self, germs: np.ndarray):
        """DispatchError naming the first germ (row of `germs`) that has the
        wrong length or is not finite."""
        if germs.shape[1:] != (self.dim,):
            raise DispatchError(f"germ has shape {germs.shape[1:]}, spec needs ({self.dim},)")
        finite = np.isfinite(germs).all(axis=1)
        if not finite.all():
            raise DispatchError(f"germ {germs[np.argmin(finite)]!r} is not finite")

    def __call__(self, germ) -> float:
        """Q(germ).  A value `evaluate_batch` screened for the germ is
        returned as it is; else the LP moves to the power row the batch
        mapped for it, or to the checked germ's own, and is re-solved."""
        value, self._next_q = self._next_q, None  # never left stale
        if value is not None:
            return value
        power, self._next_power = self._next_power, None  # never left stale
        germ = np.asarray(germ, dtype=float)
        if power is None:
            self._check(germ[None])
            power = self.spec.power(germ)
        self.inst.set_renewable(power)
        try:
            value = self._solver.solve_value()
        except LpError as exc:
            raise DispatchError(f"dispatch LP failed at germ {germ!r}: {exc}") from exc
        return value + self.inst.objective_offset

    def _build_atlas(self) -> tuple[_Region, ...]:
        """The regions of the optimal bases the solver reaches on ATLAS_GERMS
        standard-normal germs from a fixed Philox key, chained from the
        anchor in ascending total wind power: one region per distinct basis,
        the most reached first (ties in the order reached), each taken about
        the power row of the germ with the smallest squared norm.  A germ
        whose LP fails adds no region, and the solver starts again from the
        anchor.  The germs go to the solver directly, not through
        `__call__`, so they are not evaluations."""
        rng = np.random.Generator(np.random.Philox(key=0xA71A5))
        germs = rng.standard_normal((ATLAS_GERMS, self.dim))
        powers = self.spec.power(germs)
        p0 = powers[np.argmin(np.einsum("ij,ij->i", germs, germs))]
        reached: dict[bytes, list] = {}
        self._solver.begin_at(self._anchor)
        for power in powers[np.argsort(powers.sum(axis=(1, 2)), kind="stable")]:
            self.inst.set_renewable(power)
            try:
                self._solver.solve_value()
            except LpError:
                self._solver.begin_at(self._anchor)
                continue
            basis = self._solver.basis()
            reached.setdefault(basis.status.tobytes(), [0, basis])[0] += 1
        ranked = sorted(reached.values(), key=lambda hits_basis: -hits_basis[0])
        return tuple(_Region(self.inst, self._solver, basis, p0) for _, basis in ranked)

    def _screen(self, power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Q at each power row (germs x sites x T) that lies in a region of
        the atlas, from the first such region in atlas order, NaN at the
        rest; and the position of the region nearest each of the rest, -1
        at a screened row.  The nearest region is the one whose negative
        slacks sum closest to zero, the first in atlas order on a tie."""
        p = power.reshape(len(power), -1)
        q = np.full(len(p), np.nan)
        nearest = np.full(len(p), -1)
        closest = np.full(len(p), -np.inf)
        pending = np.arange(len(p))
        for k, region in enumerate(self._atlas):
            if not len(pending):
                break
            hit, value, total = region.screen(p[pending])
            q[pending[hit]] = value
            nearest[pending[hit]] = -1
            closer = ~hit & (total > closest[pending])
            nearest[pending[closer]] = k
            closest[pending[closer]] = total[closer]
            pending = pending[~hit]
        return q, nearest

    def evaluate_batch(self, germs) -> np.ndarray:
        """Q for a batch of germs, in input order.  The germs are checked
        once, and mapped to power one block at a time.  Each value depends
        on the batch's germs and the evaluator's anchor and atlas alone, not
        on what the evaluator solved before, so pool results do not depend
        on which worker ran which chunk.

        With an atlas, each block, in input order, is screened against it
        before any simplex solve: a germ inside a region takes that
        region's Q, from the first region in atlas order.  A bound move
        keeps a basis dual feasible, so a basis primal feasible within the
        simplex's FEAS_TOL is the simplex's own optimum there, and the
        screened Q agrees with a simplex solve to about an ulp.  Each other
        germ is re-solved by the dual simplex from the basis of its nearest
        region, whatever the batch or its place in it.  Without an atlas,
        the batch starts from the anchor basis and re-solves its germs in
        ascending total wind power (a stable sort; the totals are mapped a
        block at a time too), each from the previous germ's optimal basis.
        Total power is what moves the balance rows' sum, so consecutive
        scenarios stay close and warm starts need few pivots.  Each germ,
        screened or not, still goes once through `self(germ)`."""
        germs = np.atleast_2d(np.asarray(germs, dtype=float))
        self._check(germs)
        out = np.empty(len(germs))
        if not len(germs):
            return out
        if self._atlas:
            order = np.arange(len(germs))
        else:
            self._solver.begin_at(self._anchor)
            total = np.concatenate([
                self.spec.power(germs[i:i + POWER_BLOCK]).sum(axis=(1, 2))
                for i in range(0, len(germs), POWER_BLOCK)])
            order = np.argsort(total, kind="stable")
        for start in range(0, len(order), POWER_BLOCK):
            block = order[start:start + POWER_BLOCK]
            power = self.spec.power(germs[block])
            for i, row, q, k in zip(block, power, *self._screen(power)):
                # `__call__` stays the one path to Q
                if np.isnan(q):
                    if k >= 0:  # a miss of the atlas
                        self._solver.begin_at(self._atlas[k].start)
                    self._next_power = row
                else:
                    self._next_q = float(q)
                out[i] = self(germs[i])
        return out

