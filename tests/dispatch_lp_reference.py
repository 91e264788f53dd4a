"""Per-element loop form of `sed_model.build_instance`, `start_basis` and
`_extract`, kept as the reference the numpy block assembly is checked
against bit for bit."""
import numpy as np

from windsed.grid_model import linearize_cost
from windsed.lp_solver import LinearProgram, make_basis

INF = float("inf")


class LoopInstance:
    """The dispatch LP with its column layout given by index functions."""

    def __init__(self, case, segments, lp, objective_offset):
        self.case = case
        self.segments = segments
        self.lp = lp
        self.objective_offset = objective_offset
        T = case.periods
        self.n_seg = len(case.generators) * T * segments
        self.n_flow = len(case.lines) * T
        self.n_angle = len(case.buses) * T
        self.n_shed = len(case.buses) * T

    def seg_col(self, g, t, s):
        return (g * self.case.periods + t) * self.segments + s

    def flow_col(self, e, t):
        return self.n_seg + e * self.case.periods + t

    def angle_col(self, i, t):
        return self.n_seg + self.n_flow + i * self.case.periods + t

    def shed_col(self, i, t):
        return self.n_seg + self.n_flow + self.n_angle + i * self.case.periods + t

    def balance_row(self, i, t):
        return i * self.case.periods + t

    def start_basis(self):
        n_bal = len(self.case.buses) * self.case.periods
        shed0 = self.n_seg + self.n_flow + self.n_angle
        ramp0 = self.lp.num_cols + n_bal + self.n_flow
        basic = np.concatenate([
            np.arange(shed0, shed0 + self.n_shed),
            np.arange(self.n_seg, self.n_seg + self.n_flow),
            np.arange(ramp0, self.lp.num_cols + self.lp.num_rows)])
        return make_basis(self.lp, basic)


def loop_build_instance(case, renewable, segments=3):
    renewable = np.asarray(renewable, dtype=float)
    T = case.periods
    G = len(case.generators)
    B = len(case.buses)
    E = len(case.lines)
    bus_pos = case.bus_index()
    pwl = tuple(linearize_cost(g, segments) for g in case.generators)
    n_cols = (G * T * segments) + E * T + 2 * B * T
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

    inst = LoopInstance(case, segments, None, 0.0)

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
    for e_idx, line in enumerate(case.lines):
        for t in range(T):
            c = inst.flow_col(e_idx, t)
            col_lo[c] = line.flow_min
            col_up[c] = line.flow_max
    ref = bus_pos[case.reference_bus]
    for i in range(B):
        for t in range(T):
            c = inst.angle_col(i, t)
            col_lo[c] = -INF
            col_up[c] = INF
            if i == ref:
                col_lo[c] = col_up[c] = 0.0
    for i in range(B):
        for t in range(T):
            obj[inst.shed_col(i, t)] = case.shed_penalty

    for g_idx, gen in enumerate(case.generators):
        i = bus_pos[gen.bus]
        for t in range(T):
            for s in range(segments):
                put(inst.balance_row(i, t), inst.seg_col(g_idx, t, s), 1.0)
    for e_idx, line in enumerate(case.lines):
        i, j = bus_pos[line.from_bus], bus_pos[line.to_bus]
        for t in range(T):
            put(inst.balance_row(j, t), inst.flow_col(e_idx, t), 1.0)
            put(inst.balance_row(i, t), inst.flow_col(e_idx, t), -1.0)
    for i in range(B):
        for t in range(T):
            put(inst.balance_row(i, t), inst.shed_col(i, t), 1.0)

    flow_row0 = B * T
    for e_idx, line in enumerate(case.lines):
        i, j = bus_pos[line.from_bus], bus_pos[line.to_bus]
        bcoef = case.base_mva * line.susceptance
        for t in range(T):
            r = flow_row0 + e_idx * T + t
            put(r, inst.angle_col(i, t), bcoef)
            put(r, inst.angle_col(j, t), -bcoef)
            put(r, inst.flow_col(e_idx, t), -1.0)

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

    # balance rows: D - sum(p_min * x) - renewable
    rhs = np.zeros((B, T))
    for i, bus in enumerate(case.buses):
        rhs[i] = np.asarray(bus.load, dtype=float)
    for g in case.generators:
        rhs[bus_pos[g.bus]] -= g.p_min * np.asarray(g.commitment, dtype=float)
    for s_idx, site in enumerate(case.renewable_sites):
        rhs[bus_pos[site.bus]] -= renewable[s_idx]
    row_lo[:B * T] = rhs.reshape(-1)
    row_up[:B * T] = rhs.reshape(-1)

    inst.lp = LinearProgram(n_cols, n_rows, obj, rows_t, cols_t, vals_t,
                            row_lo, row_up, col_lo, col_up)
    inst.objective_offset = offset
    return inst


def loop_extract(inst, x):
    """Schedule (generation, flows, angles, shed) from an LP solution x."""
    case = inst.case
    T = case.periods
    G = len(case.generators)
    B = len(case.buses)
    E = len(case.lines)
    gen = np.zeros((G, T))
    for g_idx, g in enumerate(case.generators):
        for t in range(T):
            fill = sum(x[inst.seg_col(g_idx, t, s)] for s in range(inst.segments))
            gen[g_idx, t] = g.p_min * g.commitment[t] + fill
    flows = np.array([[x[inst.flow_col(e, t)] for t in range(T)] for e in range(E)]) \
        if E else np.zeros((0, T))
    angles = np.array([[x[inst.angle_col(i, t)] for t in range(T)] for i in range(B)])
    shed = np.array([[x[inst.shed_col(i, t)] for t in range(T)] for i in range(B)])
    return gen, flows, angles, shed
