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
from scipy.spatial import cKDTree

from .forecast import ForecastSpec
from .grid_model import GridCase, linearize_cost
from .lp_solver import (Basis, LinearProgram, LpError, LpSolution,
                        RepeatSolver, SolveOptions, make_basis, solve_lp)

INF = float("inf")


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
        """Triangular crash basis: the shed column basic in each balance
        row, the flow column in each flow row, the logical in each ramp row.

        Ordered by rows, the basis matrix is block upper triangular with +-1
        on its diagonal, so it always factorizes.  With every other column
        at its slack-start bound, each flow starts at zero and each shed at
        its bus's residual load, so phase 1 only has to repair buses whose
        committed p_min (or wind) exceeds their load."""
        n = self.lp.num_cols
        ramp = np.arange(n + self.shed.size + self.flow.size, n + self.lp.num_rows)
        return make_basis(self.lp, np.concatenate(
            [self.shed.ravel(), self.flow.ravel(), ramp]))

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

    def bus_of(items, attr):
        return np.array([bus_pos[getattr(k, attr)] for k in items], dtype=np.int64)

    on = np.array([g.commitment for g in case.generators], dtype=np.int64).reshape(G, T)
    gen_bus, frm, to = (bus_of(case.generators, "bus"), bus_of(case.lines, "from_bus"),
                        bus_of(case.lines, "to_bus"))
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
                            p_floor, base, bus_of(case.renewable_sites, "bus"))
    inst.set_renewable(renewable)
    return inst


@dataclass
class DispatchSolution:
    status: str
    objective: float          # Q: production cost + shed penalty, $
    generation: np.ndarray    # (G, T) MW
    flows: np.ndarray         # (E, T) MW
    angles: np.ndarray        # (B, T) rad
    shed: np.ndarray          # (B, T) MW
    iterations: int
    basis: Basis | None

    def total_shed(self) -> float:
        return float(self.shed.sum())

    def recompute_objective(self, case: GridCase, pwl) -> float:
        """Independent cost recomputation from the schedule (not via the LP
        objective): piecewise-linear production cost plus shed penalty."""
        total = 0.0
        for g_idx, gen in enumerate(case.generators):
            for t in range(case.periods):
                if gen.commitment[t]:
                    total += pwl[g_idx](self.generation[g_idx, t])
        return total + case.shed_penalty * float(self.shed.sum())

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
    return DispatchSolution(sol.status, sol.objective + inst.objective_offset,
                            inst.p_floor + fill, x[inst.flow], x[inst.angle],
                            x[inst.shed], sol.iterations, sol.basis)


def solve_dispatch(case: GridCase, renewable, segments: int = 3,
                   opts: SolveOptions | None = None,
                   warm: Basis | None = None) -> DispatchSolution:
    inst = build_instance(case, renewable, segments)
    sol = solve_lp(inst.lp, opts,
                   warm_basis=inst.start_basis() if warm is None else warm)
    if sol.status != "optimal":
        raise DispatchError(
            f"dispatch LP unexpectedly {sol.status}: shedding should make the "
            "balance satisfiable for any renewable injection")
    return _extract(inst, sol)


class SedEvaluator:
    """Per-worker cost evaluator Q(germ) with warm-started basis reuse.

    The constructor builds the instance (`inst`) at the zero germ, solves
    its LP from the crash basis and keeps the optimal basis as the anchor.
    Each evaluation regenerates the renewable injection from the germ, moves
    the balance-row bounds, and re-solves from the previous optimal basis.  A
    pickled evaluator carries the anchor but not the LP or the solver, which
    unpickling rebuilds to start from the anchor, so the cold solve happens
    once, in the process that constructs the evaluator.  Safe to use from
    one worker at a time.
    """

    def __init__(self, case: GridCase, spec: ForecastSpec, segments: int = 3,
                 opts: SolveOptions | None = None):
        case_labels = [s.site_label for s in case.renewable_sites]
        spec_labels = [s.label for s in spec.sites]
        if set(case_labels) != set(spec_labels):
            raise DispatchError(
                f"case sites {case_labels} do not match forecast sites {spec_labels}")
        self.case = case
        self.spec = spec
        self._site_labels = case_labels
        self.segments = segments
        self.opts = opts or SolveOptions()
        self.dim = spec.dimension
        self._build(None)
        try:
            self._solver.solve_value()
        except LpError as exc:
            raise DispatchError(f"dispatch LP failed at the zero germ: {exc}") from exc
        self._anchor = self._solver.basis()  # optimal basis at the zero germ

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["inst"], state["_solver"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._build(self._anchor)

    def _build(self, start: Basis | None):
        """The LP at the zero germ, and a solver whose first solve starts
        from `start` (None: the crash basis)."""
        self.inst = build_instance(self.case, self._power_for(np.zeros(self.dim)),
                                   self.segments)
        self._solver = RepeatSolver(self.inst.lp, self.opts,
                                    self.inst.start_basis() if start is None else start)

    def _power_for(self, germ: np.ndarray) -> np.ndarray:
        """Hourly power per site in the case's renewable-site order."""
        return self.spec.power(germ, self._site_labels)

    def _load(self, germ) -> np.ndarray:
        """Check the germ and move the LP to its scenario."""
        germ = np.asarray(germ, dtype=float)
        if germ.shape != (self.dim,):
            raise DispatchError(f"germ has shape {germ.shape}, spec needs ({self.dim},)")
        self.inst.set_renewable(self._power_for(germ))
        return germ

    def solve(self, germ) -> DispatchSolution:
        germ = self._load(germ)
        try:
            sol = self._solver.solve()
        except LpError as exc:
            raise DispatchError(f"dispatch LP failed at germ {germ!r}: {exc}") from exc
        if sol.status != "optimal":
            raise DispatchError(
                f"dispatch LP unexpectedly {sol.status} at germ {germ!r}")
        return _extract(self.inst, sol)

    def __call__(self, germ) -> float:
        """Q(germ) only: skips schedule extraction on the hot path."""
        germ = self._load(germ)
        try:
            value = self._solver.solve_value()
        except LpError as exc:
            raise DispatchError(f"dispatch LP failed at germ {germ!r}: {exc}") from exc
        return value + self.inst.objective_offset

    def _germ_scale(self) -> np.ndarray:
        """Weight per germ coordinate ~ how strongly it moves total wind."""
        scale = np.zeros(self.dim)
        columns = self.spec.germ_columns()
        for site in self.spec.sites:
            lam = site.kl_basis().eigenvalues[:site.truncation]
            np.add.at(scale, columns[site.label], np.sqrt(lam))
        return scale

    def _visit_order(self, germs: np.ndarray) -> np.ndarray:
        """Greedy nearest-neighbour tour through the germs, in coordinates
        scaled by how strongly each moves total wind, from the germ nearest
        the zero germ.  Each step goes to the nearest unvisited germ among
        the current one's 8 nearest, widening the search when all of those
        are visited."""
        z = germs * self._germ_scale()
        n = len(z)
        tree = cKDTree(z)
        near8 = tree.query(z, k=min(8, n))[1]
        free = np.ones(n, dtype=bool)
        order = np.empty(n, dtype=np.int64)
        cur = int(np.argmin(np.einsum("ij,ij->i", z, z)))
        for step in range(n):
            order[step] = cur
            free[cur] = False
            if step + 1 == n:
                break
            near = near8[cur][free[near8[cur]]]
            k = near8.shape[1]
            while not len(near):
                k *= 4
                near = tree.query(z[cur], k=min(k, n))[1]
                near = near[free[near]]
            cur = int(near[0])
        return order

    def evaluate_batch(self, germs) -> np.ndarray:
        """Q for a batch of germs.  The batch starts from the anchor basis
        and visits its germs along a nearest-neighbour tour, so consecutive
        scenarios stay close and warm starts need few pivots.  Its values
        depend on its germs alone, not on what the evaluator solved before,
        so pool results do not depend on which worker ran which chunk.
        Results return in input order."""
        germs = np.atleast_2d(np.asarray(germs, dtype=float))
        out = np.empty(len(germs))
        if not len(germs):
            return out
        self._solver.restart_from(self._anchor)
        for i in self._visit_order(germs):
            out[i] = self(germs[i])
        return out

