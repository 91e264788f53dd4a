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
    case: GridCase
    segments: int
    lp: LinearProgram
    objective_offset: float  # committed-cost constant outside the LP
    pwl: tuple               # PiecewiseLinearCost per generator

    # column blocks
    n_seg: int
    n_flow: int
    n_angle: int
    n_shed: int

    def seg_col(self, g: int, t: int, s: int) -> int:
        return (g * self.case.periods + t) * self.segments + s

    def flow_col(self, e: int, t: int) -> int:
        return self.n_seg + e * self.case.periods + t

    def angle_col(self, i: int, t: int) -> int:
        return self.n_seg + self.n_flow + i * self.case.periods + t

    def shed_col(self, i: int, t: int) -> int:
        return self.n_seg + self.n_flow + self.n_angle + i * self.case.periods + t

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
        n_bal = len(self.case.buses) * self.case.periods
        shed0 = self.n_seg + self.n_flow + self.n_angle
        ramp0 = self.lp.num_cols + n_bal + self.n_flow
        basic = np.concatenate([
            np.arange(shed0, shed0 + self.n_shed),
            np.arange(self.n_seg, self.n_seg + self.n_flow),
            np.arange(ramp0, self.lp.num_cols + self.lp.num_rows)])
        return make_basis(self.lp, basic)

    def _balance_base(self) -> np.ndarray:
        """Renewable-independent balance constant D - sum(p_min * x)."""
        cached = getattr(self, "_balance_base_cache", None)
        if cached is None:
            case = self.case
            bus_pos = case.bus_index()
            cached = np.zeros((len(case.buses), case.periods))
            for i, bus in enumerate(case.buses):
                cached[i] = np.asarray(bus.load, dtype=float)
            for g in case.generators:
                cached[bus_pos[g.bus]] -= g.p_min * np.asarray(g.commitment, dtype=float)
            self._balance_base_cache = cached
            self._site_rows = [bus_pos[s.bus] for s in case.renewable_sites]
        return cached

    def set_renewable(self, renewable: np.ndarray):
        """Move the balance-row constants for a new renewable scenario."""
        renewable = _check_renewable(self.case, renewable)
        rhs = self._balance_base().copy()
        for s_idx, row in enumerate(self._site_rows):
            rhs[row] -= renewable[s_idx]
        flat = rhs.reshape(-1)
        n_bal = flat.shape[0]
        self.lp.row_lower[:n_bal] = flat
        self.lp.row_upper[:n_bal] = flat


def _check_renewable(case: GridCase, renewable) -> np.ndarray:
    if isinstance(renewable, dict):
        labels = [s.site_label for s in case.renewable_sites]
        unknown = set(renewable) - set(labels)
        if unknown:
            raise DispatchError(f"renewable data for unknown site(s) {sorted(unknown)}")
        renewable = np.array([renewable[l] for l in labels], dtype=float) \
            if labels else np.zeros((0, case.periods))
    renewable = np.asarray(renewable, dtype=float)
    want = (len(case.renewable_sites), case.periods)
    if renewable.shape != want:
        raise DispatchError(f"renewable array shape {renewable.shape} != {want}")
    return renewable


def build_instance(case: GridCase, renewable, segments: int = 3) -> DispatchInstance:
    """Assemble the dispatch LP: power balance with shedding, flow definition
    and limits, commitment-scaled generation bounds via cost segments, and
    ramp constraints for consecutive periods (t=1 has no prior-period row)."""
    renewable = _check_renewable(case, renewable)
    T = case.periods
    G = len(case.generators)
    B = len(case.buses)
    E = len(case.lines)
    bus_pos = case.bus_index()

    pwl = tuple(linearize_cost(g, segments) for g in case.generators)

    n_seg = G * T * segments
    n_flow = E * T
    n_angle = B * T
    n_shed = B * T
    n_cols = n_seg + n_flow + n_angle + n_shed
    n_rows = B * T + E * T + 2 * G * max(T - 1, 0)

    obj = np.zeros(n_cols)
    col_lo = np.zeros(n_cols)
    col_up = np.full(n_cols, INF)
    row_lo = np.zeros(n_rows)
    row_up = np.zeros(n_rows)
    rows_t, cols_t, vals_t = [], [], []

    def put(r, c, v):
        if v != 0.0:
            rows_t.append(r)
            cols_t.append(c)
            vals_t.append(v)

    inst = DispatchInstance(case, segments, None, 0.0, pwl,
                            n_seg, n_flow, n_angle, n_shed)

    # segment columns: bounds scaled by commitment, objective = slopes
    offset = 0.0
    for g_idx, gen in enumerate(case.generators):
        cost = pwl[g_idx]
        widths = [cost.breakpoints[s + 1] - cost.breakpoints[s]
                  for s in range(len(cost.slopes))]
        for t in range(T):
            on = gen.commitment[t]
            offset += on * cost.value_at_first
            for s in range(segments):
                c = inst.seg_col(g_idx, t, s)
                obj[c] = cost.slopes[s] if s < len(cost.slopes) else 0.0
                col_up[c] = widths[s] * on if s < len(widths) else 0.0

    # flow columns: line limits
    for e_idx, line in enumerate(case.lines):
        for t in range(T):
            c = inst.flow_col(e_idx, t)
            col_lo[c] = line.flow_min
            col_up[c] = line.flow_max

    # angle columns: free, reference bus pinned at zero
    ref = bus_pos[case.reference_bus]
    for i in range(B):
        for t in range(T):
            c = inst.angle_col(i, t)
            col_lo[c] = -INF
            col_up[c] = INF
            if i == ref:
                col_lo[c] = col_up[c] = 0.0

    # shed columns: nonnegative, penalized
    for i in range(B):
        for t in range(T):
            c = inst.shed_col(i, t)
            obj[c] = case.shed_penalty

    # balance rows: sum(seg) + flow_in - flow_out + q = D - p_r - sum(pmin*x)
    for g_idx, gen in enumerate(case.generators):
        i = bus_pos[gen.bus]
        for t in range(T):
            r = inst.balance_row(i, t)
            for s in range(segments):
                put(r, inst.seg_col(g_idx, t, s), 1.0)
    for e_idx, line in enumerate(case.lines):
        i, j = bus_pos[line.from_bus], bus_pos[line.to_bus]
        for t in range(T):
            put(inst.balance_row(j, t), inst.flow_col(e_idx, t), 1.0)
            put(inst.balance_row(i, t), inst.flow_col(e_idx, t), -1.0)
    for i in range(B):
        for t in range(T):
            put(inst.balance_row(i, t), inst.shed_col(i, t), 1.0)

    # flow definition rows: base * b_pu * (theta_i - theta_j) - f = 0
    flow_row0 = B * T
    for e_idx, line in enumerate(case.lines):
        i, j = bus_pos[line.from_bus], bus_pos[line.to_bus]
        bcoef = case.base_mva * line.susceptance
        for t in range(T):
            r = flow_row0 + e_idx * T + t
            put(r, inst.angle_col(i, t), bcoef)
            put(r, inst.angle_col(j, t), -bcoef)
            put(r, inst.flow_col(e_idx, t), -1.0)

    # ramp rows for t >= 2 (0-based t >= 1)
    ramp_row0 = flow_row0 + E * T
    for g_idx, gen in enumerate(case.generators):
        x = gen.commitment
        for t in range(1, T):
            r_up = ramp_row0 + g_idx * (T - 1) + (t - 1)
            r_dn = ramp_row0 + G * (T - 1) + g_idx * (T - 1) + (t - 1)
            for s in range(segments):
                put(r_up, inst.seg_col(g_idx, t, s), 1.0)
                put(r_up, inst.seg_col(g_idx, t - 1, s), -1.0)
                put(r_dn, inst.seg_col(g_idx, t - 1, s), 1.0)
                put(r_dn, inst.seg_col(g_idx, t, s), -1.0)
            dx = x[t] - x[t - 1]
            row_lo[r_up] = -INF
            row_up[r_up] = (gen.ramp_up * x[t - 1] + gen.startup * dx
                            + gen.p_max * (1 - x[t]) - gen.p_min * dx)
            row_lo[r_dn] = -INF
            row_up[r_dn] = (gen.ramp_down * x[t] + gen.shutdown * (-dx)
                            + gen.p_max * (1 - x[t - 1]) + gen.p_min * dx)

    lp = LinearProgram(n_cols, n_rows, obj, rows_t, cols_t, vals_t,
                       row_lo, row_up, col_lo, col_up)
    inst.lp = lp
    inst.objective_offset = offset
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
    case = inst.case
    T = case.periods
    G = len(case.generators)
    B = len(case.buses)
    E = len(case.lines)
    gen = np.zeros((G, T))
    for g_idx, g in enumerate(case.generators):
        for t in range(T):
            fill = sum(sol.x[inst.seg_col(g_idx, t, s)] for s in range(inst.segments))
            gen[g_idx, t] = g.p_min * g.commitment[t] + fill
    flows = np.array([[sol.x[inst.flow_col(e, t)] for t in range(T)] for e in range(E)]) \
        if E else np.zeros((0, T))
    angles = np.array([[sol.x[inst.angle_col(i, t)] for t in range(T)] for i in range(B)])
    shed = np.array([[sol.x[inst.shed_col(i, t)] for t in range(T)] for i in range(B)])
    return DispatchSolution(sol.status, sol.objective + inst.objective_offset,
                            gen, flows, angles, shed, sol.iterations, sol.basis)


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

    The instance LP is built once; each evaluation regenerates the renewable
    injection from the germ, moves the balance-row bounds, and re-solves from
    the previous optimal basis.  The first build solves the zero germ from
    the crash basis and keeps its optimal basis as the anchor, which travels
    with the evaluator when it is pickled to a worker.  Safe to use from one
    worker at a time.
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
        self._inst = None
        self._solver = None
        self._anchor: Basis | None = None  # optimal basis at the zero germ

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_inst"] = None   # rebuilt lazily in each worker
        state["_solver"] = None
        return state

    def _power_for(self, germ: np.ndarray) -> np.ndarray:
        """Hourly power per site in the case's renewable-site order."""
        return self.spec.power(germ, self._site_labels)

    def _build(self):
        """Build the LP at the zero germ and its solver.  A rebuild (in a
        worker, after unpickling) starts from the anchor; the first build
        solves from the crash basis to find it."""
        self._inst = build_instance(self.case, self._power_for(np.zeros(self.dim)),
                                    self.segments)
        if self._anchor is not None:
            self._solver = RepeatSolver(self._inst.lp, self.opts, self._anchor)
            return
        self._solver = RepeatSolver(self._inst.lp, self.opts,
                                    self._inst.start_basis())
        try:
            self._solver.solve_value()
        except LpError as exc:
            raise DispatchError(f"dispatch LP failed at the zero germ: {exc}") from exc
        self._anchor = self._solver.basis()

    def _load(self, germ) -> np.ndarray:
        """Check the germ and move the LP to its scenario, building the
        instance and its solver on first use."""
        germ = np.asarray(germ, dtype=float)
        if germ.shape != (self.dim,):
            raise DispatchError(f"germ has shape {germ.shape}, spec needs ({self.dim},)")
        power = self._power_for(germ)
        if self._inst is None:
            self._build()
        self._inst.set_renewable(power)
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
        return _extract(self._inst, sol)

    def __call__(self, germ) -> float:
        """Q(germ) only: skips schedule extraction on the hot path."""
        germ = self._load(germ)
        try:
            value = self._solver.solve_value()
        except LpError as exc:
            raise DispatchError(f"dispatch LP failed at germ {germ!r}: {exc}") from exc
        return value + self._inst.objective_offset

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
        if self._inst is None:
            self._build()
        self._solver.restart_from(self._anchor)
        for i in self._visit_order(germs):
            out[i] = self(germs[i])
        return out


def evaluate_q(case: GridCase, spec: ForecastSpec, germ,
               segments: int = 3) -> float:
    """One-shot Q(x, xi): scenario from the germ, build, solve, objective."""
    return SedEvaluator(case, spec, segments)(germ)
