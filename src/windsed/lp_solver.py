"""Self-contained revised simplex solver for bounded-variable linear programs.

Solves   min c.x   s.t.  rlo <= A x <= rhi,  lo <= x <= up
with a two-phase primal simplex from a cold or crash start, and with a
bounded dual simplex whenever a start or a bound move leaves a dual
feasible basis primal infeasible, which is every scenario re-solve.
Internally every row gets a logical (slack) column,  A x - s = 0,  so the
right-hand side is always zero and scenario re-solves only touch bounds.
The basis inverse is kept as a sparse LU factorization (minimum-degree
ordering, no relaxed supernodes) plus sparse product-form eta updates,
refactorized after `REFACTOR_EVERY` etas or sooner, once the etas cost a
solve as much as the LU does, which keeps dispatch-sized instances
(roughly 10^4 rows) tractable while remaining exact on toy problems.
Per pivot, the simplex gathers as little as it can: the basic variables'
bounds are kept per basis slot, a phase-2 bound flip keeps the reduced
costs it was priced with, and a re-solve that stays primal feasible
certifies its optimum with the reduced costs its previous solve ended on.

One object, `RepeatSolver`, holds [A, -I], the bounds, the basis, the
factors and the counters; one driver, `RepeatSolver._optimize`, runs the
dual (`run_dual`) and primal (`run_phase`) loops and every recovery path.
`solve_lp` is a single solve through it.

No external LP solver is used anywhere; scipy supplies only the sparse LU.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

INF = float("inf")

AT_LOWER = 0
AT_UPPER = 1
BASIC = 2
FREE_NB = 3  # nonbasic free variable, held at zero

FEAS_TOL = 1e-7  # primal bound violation accepted as feasible
OPT_TOL = 1e-7  # reduced cost accepted as dual feasible
PIVOT_TOL = 1e-9  # smallest pivot entry a ratio test or eta update takes
MAX_ITERATIONS = 200_000  # pivots per solve before "iteration_limit"
REFACTOR_EVERY = 64  # etas after which the basis is refactorized at the latest
STALL_LIMIT = 60  # degenerate pivots before switching to Bland's rule


class LpError(Exception):
    """Numerical failure inside the solver (singular basis, lost feasibility)."""


@dataclass
class LinearProgram:
    """min objective.x subject to row and variable bounds.

    The constraint matrix is given in triplet form; duplicate entries are
    summed.  All bounds may be +-inf.
    """

    num_cols: int
    num_rows: int
    objective: np.ndarray
    row_idx: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.row_idx = np.asarray(self.row_idx, dtype=np.int64)
        self.col_idx = np.asarray(self.col_idx, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        self.row_lower = np.asarray(self.row_lower, dtype=float)
        self.row_upper = np.asarray(self.row_upper, dtype=float)
        self.col_lower = np.asarray(self.col_lower, dtype=float)
        self.col_upper = np.asarray(self.col_upper, dtype=float)
        self.validate()

    def validate(self):
        n, m = self.num_cols, self.num_rows
        if self.objective.shape != (n,):
            raise ValueError("objective length does not match num_cols")
        for name, arr, size in (("row_lower", self.row_lower, m),
                                ("row_upper", self.row_upper, m),
                                ("col_lower", self.col_lower, n),
                                ("col_upper", self.col_upper, n)):
            if arr.shape != (size,):
                raise ValueError(f"{name} has wrong length")
        if not (self.row_idx.shape == self.col_idx.shape == self.values.shape):
            raise ValueError("triplet arrays must have equal length")
        if len(self.row_idx) and (self.row_idx.min() < 0 or self.row_idx.max() >= m):
            raise ValueError("row index out of range")
        if len(self.col_idx) and (self.col_idx.min() < 0 or self.col_idx.max() >= n):
            raise ValueError("column index out of range")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("matrix coefficients must be finite")
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective coefficients must be finite")
        if np.any(self.row_lower > self.row_upper) or np.any(self.col_lower > self.col_upper):
            raise ValueError("lower bound exceeds upper bound")

    def matrix(self) -> sp.csc_matrix:
        return sp.csc_matrix(
            (self.values, (self.row_idx, self.col_idx)),
            shape=(self.num_rows, self.num_cols),
        )

    def to_text(self) -> str:
        """Debug dump in the documented LP text format (docs/file_formats.md)."""
        out = [f"LP rows={self.num_rows} cols={self.num_cols}", "OBJECTIVE"]
        out += [f"  {j} {float(self.objective[j])!r}" for j in range(self.num_cols)
                if self.objective[j] != 0.0]
        out.append("MATRIX")
        coo = self.matrix().tocoo()
        order = np.lexsort((coo.col, coo.row))
        out += [f"  {coo.row[k]} {coo.col[k]} {float(coo.data[k])!r}" for k in order]
        out.append("ROWBOUNDS")
        out += [f"  {i} {float(self.row_lower[i])!r} {float(self.row_upper[i])!r}"
                for i in range(self.num_rows)]
        out.append("COLBOUNDS")
        out += [f"  {j} {float(self.col_lower[j])!r} {float(self.col_upper[j])!r}"
                for j in range(self.num_cols)]
        return "\n".join(out) + "\n"


@dataclass
class Basis:
    """Warm-start state: which column sits in each basis slot, plus statuses.

    Columns 0..n-1 are structural, n..n+m-1 are the row logicals.
    """

    basic: np.ndarray   # (m,) column indices
    status: np.ndarray  # (n+m,) AT_LOWER/AT_UPPER/BASIC/FREE_NB


def make_basis(lp: LinearProgram, basic=None) -> Basis:
    """Basis with column basic[i] in slot i; by default every row's logical
    (the slack start).  Each nonbasic column sits at its finite bound of
    smaller magnitude, or is free at zero when it has none."""
    lower = np.concatenate([lp.col_lower, lp.row_lower])
    upper = np.concatenate([lp.col_upper, lp.row_upper])
    status = np.where(np.abs(lower) <= np.abs(upper), AT_LOWER, AT_UPPER).astype(np.int8)
    status[(lower == -INF) & (upper == INF)] = FREE_NB
    if basic is None:
        basic = np.arange(lp.num_cols, lp.num_cols + lp.num_rows)
    basic = np.array(basic, dtype=np.int64)
    status[basic] = BASIC
    return Basis(basic, status)


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded | iteration_limit
    objective: float
    x: np.ndarray
    iterations: int


# what one eta costs a triangular solve beyond its nonzeros, in nonzeros:
# the Python step per eta in `ftran` and `btran`
_ETA_OVERHEAD = 32


class _Factors:
    """B = LU * E1 * ... * Ek product-form representation.

    The LU comes from SuperLU with the minimum-degree ordering on B'+B,
    which fills the dispatch bases far less than the default COLAMD.
    `relax=1` and `panel_size=1` turn off relaxed supernodes and multi-
    column panels: relaxation pads the factors of a hypersparse basis with
    explicit zeros, which every factorization and triangular solve then
    runs over (on the 118-bus anchor basis SuperLU stores 70.8k entries
    for 59.6k nonzeros with it, and 59.7k for 59.7k without).  Each eta is stored sparse, as (row, nonzero rows,
    their values, pivot), so `ftran` and `btran` touch only its nonzeros
    (Hall & McKinnon, "Hyper-sparsity in the revised simplex method",
    2005)."""

    def __init__(self, fmat: sp.csc_matrix, basic: np.ndarray):
        bmat = fmat[:, basic].tocsc()
        try:
            self.lu = splu(bmat, permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)
        except RuntimeError as exc:  # singular factorization
            raise LpError(f"singular basis: {exc}") from exc
        self.etas: list[tuple[int, np.ndarray, np.ndarray, float]] = []
        self.lu_nnz = self.lu.L.nnz + self.lu.U.nnz
        self.eta_nnz = 0  # the etas' nonzeros plus _ETA_OVERHEAD per eta
        # splu tolerates some exactly singular matrices by inserting tiny
        # pivots; probe with a solve so we fail loudly instead.
        probe = self.lu.solve(np.ones(bmat.shape[0]))
        if not np.all(np.isfinite(probe)):
            raise LpError("singular basis (non-finite factor solve)")

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        v = self.lu.solve(rhs)
        for r, rows, vals, pivot in self.etas:
            piv = v[r] / pivot
            if piv != 0.0:
                v[rows] -= piv * vals
            v[r] = piv
        return v

    def btran(self, rhs: np.ndarray) -> np.ndarray:
        v = rhs.copy()
        for r, rows, vals, pivot in reversed(self.etas):
            v[r] = (v[r] - vals @ v[rows]) / pivot
        return self.lu.solve(v, trans="T")

    def update(self, row: int, eta: np.ndarray) -> bool:
        pivot = eta[row]
        if abs(pivot) < PIVOT_TOL:
            return False
        rows = np.flatnonzero(eta)
        rows = rows[rows != row]
        self.etas.append((row, rows, eta[rows], pivot))
        self.eta_nnz += len(rows) + _ETA_OVERHEAD
        return True

    def fresh(self) -> "_Factors":
        """The same LU, shared and never changed, with an empty eta file of
        its own."""
        twin = copy.copy(self)
        twin.etas, twin.eta_nnz = [], 0
        return twin

    def stale(self) -> bool:
        """Whether a fresh LU would be cheaper to solve with: the eta file
        has reached `REFACTOR_EVERY` etas, or costs as much per solve as
        the LU itself (on small LPs, long before the count)."""
        return len(self.etas) >= REFACTOR_EVERY or self.eta_nnz >= self.lu_nnz


class KeptStart:
    """A basis that many solves begin from (`RepeatSolver.begin_at`), with
    what they share because bound moves leave it alone: the basis's LU
    factorization and its reduced costs.  The first solve in a process that
    begins here factorizes and prices the basis; the later ones take both
    as they are.  Each solve pivots on its own empty eta file and its own
    copy of the reduced costs, so nothing here changes once built.  A
    pickled start carries its basis alone, so the unpickling process
    factorizes it afresh."""

    def __init__(self, basis: Basis):
        self.basis = basis
        self.factors: _Factors | None = None
        self.reduced_costs: np.ndarray | None = None

    def __reduce__(self):
        return KeptStart, (self.basis,)


def solve_lp(lp: LinearProgram, warm_basis: Basis | None = None) -> LpSolution:
    """Solve an LP once; deterministic for identical inputs.

    A warm-start basis (typically from a previous scenario that differs only
    in bound data) is validated and used as the starting point; a singular
    warm basis raises LpError rather than being silently repaired.

    The `LpSolution` holds the final `status`, the `objective` c.x (NaN when
    infeasible), the structural columns' `x` and the pivot count
    `iterations`; no duals are priced for it.  For the final basis, solve
    through a `RepeatSolver` and read `basis()`.
    """
    return RepeatSolver(lp, warm_basis).solve()


class RepeatSolver:
    """Re-solves one LP structure under changing bounds.

    Keeps the constraint matrix [A, -I], the basis and its LU factors alive
    between calls, so a scenario sweep pays for factorization once.  The
    matrix must not change; bounds may, and each solve takes the LP's
    current ones.  Bound moves leave reduced costs untouched, so the
    previous optimal basis stays dual feasible.  When it is also still
    primal feasible it is still optimal, and the re-solve costs one
    triangular solve for x and no pivot and no pricing pass: the reduced
    costs the previous solve certified belong to the same basis and
    factors, so they certify it again.  Otherwise the dual simplex repairs
    primal feasibility from it, and one phase-2 pricing pass certifies the
    result.

    The first solve starts from `start` when given (a crash basis built for
    the LP's structure, such as the dispatch LP's DC power flow, which puts
    the cold solve's phase 1 close to feasibility), else from the slack
    basis.  A solve that fails numerically is retried once from that same
    start basis, through the same phases and feasibility certification;
    `restarts` counts these retries.  `begin_at` makes the next solve begin
    from a `KeptStart` instead, on its kept factorization, so a caller can
    pin a sweep's starting point; an optimal basis given there is re-solved
    by the dual simplex too.  `load` takes a basis without solving, for a
    caller that reads its x and factors; the next solve begins there.
    """

    def __init__(self, lp: LinearProgram, start: Basis | None = None):
        self.lp = lp
        lp.validate()
        self.m = lp.num_rows
        self.n = lp.num_cols
        self.fmat = sp.hstack(
            [lp.matrix(), -sp.identity(self.m, format="csc")], format="csc"
        )
        self.fmat.sum_duplicates()
        self.fmat_t = self.fmat.T.tocsr()  # cached for pricing
        self.cost = np.concatenate([lp.objective, np.zeros(self.m)])
        self._reset()
        self.factors: _Factors | None = None
        self.basic: np.ndarray | None = None
        self.status: np.ndarray | None = None
        self.x: np.ndarray | None = None
        # bounds of the basic variables, per basis slot
        self.lb: np.ndarray | None = None
        self.ub: np.ndarray | None = None
        # reduced costs of the current basis and factors, from the phase-2
        # pass that ended the last solve; bound moves leave them valid, so
        # the next solve takes them up, and a basis change or a
        # refactorization drops them
        self.certified_d: np.ndarray | None = None
        self._start_basis = start if start is not None else make_basis(lp)
        self.restarts = 0

    def basis(self) -> Basis:
        """The current basis (after a solve: the optimal one)."""
        return Basis(self.basic.copy(), self.status.copy())

    def begin_at(self, start: KeptStart):
        """Begin the next solve from `start`'s basis, on its LU with a fresh,
        empty eta file and with its reduced costs, after factorizing and
        pricing it if no solve began there yet.  A solve that fails is still
        retried from the start basis.  The solve's value has the same bits
        as that of a solver constructed to start from the basis."""
        if start.factors is None:
            self._start(start.basis)
            start.factors = self.factors
            start.reduced_costs = self._reduced_costs(self.cost)
        else:
            self.basic = start.basis.basic.copy()
            self.status = start.basis.status.copy()
        self.factors = start.factors.fresh()
        self.certified_d = start.reduced_costs.copy()

    def load(self, basis: Basis):
        """Take `basis` at the LP's current bounds, with no pivot: factorize
        it afresh and set x (and `lower`, `upper`, `factors`).  The next
        solve begins at it, on these factors."""
        self._reset()
        self._start(basis)

    def solve(self) -> LpSolution:
        """Solve against the LP's current bound arrays (mutate lp.row_lower
        etc. between calls)."""
        status = self._optimize()
        return LpSolution(status, float("nan") if status == "infeasible" else self.objective(),
                          self.x[: self.n].copy(), self.iterations)

    def solve_value(self) -> float:
        """Optimal objective only; any other final status raises LpError."""
        status = self._optimize()
        if status != "optimal":
            raise LpError(f"repeat solve ended {status}")
        return self.objective()

    def objective(self) -> float:
        """c.x over the structural columns.  An elementwise product and a
        numpy sum, not a dot: at dispatch sizes a BLAS dot wakes OpenBLAS
        helper threads that then spin between solves."""
        return float(np.sum(self.cost[: self.n] * self.x[: self.n]))

    # -- basis management ---------------------------------------------------

    def _reset(self):
        """Take the LP's current bounds and zero the per-solve counters."""
        self.lower = np.concatenate([self.lp.col_lower, self.lp.row_lower])
        self.upper = np.concatenate([self.lp.col_upper, self.lp.row_upper])
        self.fixed = self.lower == self.upper
        self.iterations = 0
        self.stall = 0  # degenerate pivots in a row
        self.use_bland = False

    def _start(self, basis: Basis):
        if basis.basic.shape != (self.m,) or basis.status.shape != (self.n + self.m,):
            raise ValueError("warm-start basis has wrong dimensions")
        if np.count_nonzero(basis.status == BASIC) != self.m:
            raise ValueError("warm-start basis must have exactly one basic column per row")
        self.basic = basis.basic.copy()
        self.status = basis.status.copy()
        self._refactorize()  # raises LpError if singular

    def _recompute_x(self):
        x = np.where(self.status == AT_UPPER, self.upper, self.lower)
        x[self.status == FREE_NB] = 0.0
        x[self.basic] = 0.0
        rhs = -(self.fmat @ x)
        x[self.basic] = self.factors.ftran(rhs)
        self.x = x
        self.lb = self.lower[self.basic]
        self.ub = self.upper[self.basic]

    def _refactorize(self):
        self.factors = _Factors(self.fmat, self.basic)
        self.certified_d = None
        self._recompute_x()

    # -- pricing ------------------------------------------------------------

    def _phase1_cost(self) -> np.ndarray:
        c = np.zeros(self.n + self.m)
        xb = self.x[self.basic]
        c[self.basic[xb < self.lb - FEAS_TOL]] = -1.0
        c[self.basic[xb > self.ub + FEAS_TOL]] = 1.0
        return c

    def _violations(self) -> tuple[np.ndarray, np.ndarray]:
        """How far each basic variable lies below its lower bound and
        above its upper bound, per slot (negative where it does not)."""
        xb = self.x[self.basic]
        return self.lb - xb, xb - self.ub

    def _infeasibility(self, below=None, above=None) -> float:
        if below is None:
            below, above = self._violations()
        return float(np.sum(np.maximum(below, 0.0)) + np.sum(np.maximum(above, 0.0)))

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        return cost - self.fmat_t @ self.factors.btran(cost[self.basic])

    def _dual_infeasibility(self, d: np.ndarray) -> np.ndarray:
        """Per column, how far d says moving it off its bound would lower
        the cost; zero for columns that cannot move that way."""
        st = self.status
        viol = np.zeros_like(d)
        can_up = ((st == AT_LOWER) | (st == FREE_NB)) & ~self.fixed & (d < -OPT_TOL)
        can_dn = ((st == AT_UPPER) | (st == FREE_NB)) & ~self.fixed & (d > OPT_TOL)
        viol[can_up] = -d[can_up]
        viol[can_dn] = d[can_dn]
        return viol

    def _choose_entering(self, d: np.ndarray) -> int:
        """Dantzig's rule: the column with the largest `_dual_infeasibility`
        (under Bland's rule: the lowest column with one), or -1 when d is
        dual feasible."""
        viol = self._dual_infeasibility(d)
        if not viol.any():
            return -1
        if self.use_bland:
            return int(np.flatnonzero(viol > 0)[0])
        return int(np.argmax(viol))

    # -- pivoting -----------------------------------------------------------

    def _column(self, j: int) -> np.ndarray:
        col = np.zeros(self.m)
        start, end = self.fmat.indptr[j], self.fmat.indptr[j + 1]
        col[self.fmat.indices[start:end]] = self.fmat.data[start:end]
        return col

    def _ratio_test(self, q: int, sigma: float, delta: np.ndarray, phase1: bool):
        """Largest step t>=0 for entering column q moving with sign sigma.

        Returns (t, leaving_pos, leaving_bound) where leaving_pos is the basis
        slot of the blocking variable, or -1 for a bound flip of q itself,
        or -2 if the step is unbounded.
        """
        best_t = INF
        best_pos = -2
        best_bound = 0.0
        # entering variable hitting its own opposite bound
        span = self.upper[q] - self.lower[q]
        if np.isfinite(span):
            best_t = span
            best_pos = -1
        idx = np.flatnonzero(np.abs(delta) > PIVOT_TOL)
        if len(idx):
            rate = -sigma * delta[idx]  # movement of basic vars per unit step
            basic = self.basic[idx]
            xb = self.x[basic]
            lob = self.lb[idx]
            upb = self.ub[idx]
            rising = rate > 0
            if phase1:
                below = xb < lob - FEAS_TOL
                above = xb > upb + FEAS_TOL
            else:
                below = above = np.zeros_like(rising)
            # A basic moving up blocks at its upper bound, or at its lower
            # bound if it starts below it; moving down, the mirror image.  An
            # infeasible basic moving away from its violated bound never
            # blocks (its phase-1 cost charges the move).
            cand_bound = np.where(rising, np.where(below, lob, upb),
                                  np.where(above, upb, lob))
            cand_t = np.maximum((cand_bound - xb) / rate, 0.0)
            cand_t[np.where(rising, above, below)] = INF
            tmin = cand_t.min()
            if tmin < best_t:
                # among near-minimal ratios prefer the largest pivot magnitude
                close = np.flatnonzero(cand_t <= tmin + 1e-9)
                if self.use_bland:
                    k = close[np.argmin(basic[close])]
                else:
                    k = close[np.argmax(np.abs(delta[idx[close]]))]
                best_t = cand_t[k]
                best_pos = int(idx[k])
                best_bound = cand_bound[k]
        return best_t, best_pos, best_bound

    def _pivot(self, q: int, sigma: float, delta: np.ndarray, t: float,
               pos: int, leave_bound: float):
        self.x[self.basic] -= sigma * t * delta
        if pos == -1:  # bound flip
            up = self.status[q] == AT_LOWER
            self.status[q] = AT_UPPER if up else AT_LOWER
            self.x[q] = self.upper[q] if up else self.lower[q]
            return
        leaving = self.basic[pos]
        self.x[q] += sigma * t  # a nonbasic x holds its bound, or 0 if free
        self.x[leaving] = leave_bound
        self.status[leaving] = (
            AT_LOWER if leave_bound == self.lower[leaving] else AT_UPPER
        )
        if self.lower[leaving] == -INF and self.upper[leaving] == INF:
            self.status[leaving] = FREE_NB
        self.status[q] = BASIC
        self.basic[pos] = q
        self.lb[pos] = self.lower[q]
        self.ub[pos] = self.upper[q]
        self.certified_d = None
        if not self.factors.update(pos, delta) or self.factors.stale():
            self._refactorize()

    def _count_step(self, step: float):
        """After more than STALL_LIMIT degenerate pivots in a row, switch to
        Bland's rule until a pivot makes progress."""
        if step <= 1e-12:
            self.stall += 1
            if self.stall > STALL_LIMIT:
                self.use_bland = True
        else:
            self.stall = 0
            self.use_bland = False

    # -- the driver ----------------------------------------------------------

    def _optimize(self) -> str:
        """Solve at the LP's current bounds: from the current basis when
        there is one (its nonbasic variables snap to the moved bounds), else
        from the start basis.

        A basis that a bound move left primal infeasible but dual feasible
        (every re-solve of a sweep) goes through the dual simplex, checked
        on the reduced costs the previous solve certified, so in no pricing
        pass.  Then phase 1 (re-checked on a fresh factorization before
        declaring infeasibility) and phase 2 certify the result: one that
        stayed primal feasible, with those same reduced costs.  An optimum's
        primal side is re-verified, and the solve resumes on a fresh
        factorization, up to three times, if the incremental x drifted.  A
        solve that fails numerically is retried once from the start basis."""
        self._reset()
        if self.basic is None:
            self._start(self._start_basis)
        else:
            self._recompute_x()
        for retry in (False, True):
            try:
                for check in range(4):  # a solve, then up to three re-certifications
                    if check:
                        self._refactorize()
                    status = "optimal"
                    if self._infeasibility() > FEAS_TOL:
                        d = self.certified_d
                        if d is None:
                            d = self._reduced_costs(self.cost)
                        if self._choose_entering(d) < 0:
                            status = self.run_dual(d)
                    if status == "optimal":
                        status = self.run_phase(phase1=True)
                        if status == "infeasible":
                            self._refactorize()
                            status = self.run_phase(phase1=True)
                        if status == "feasible":
                            status = self.run_phase(phase1=False)
                    if status != "optimal" or self._infeasibility() <= FEAS_TOL:
                        return status
                raise LpError("could not certify feasibility in repeat solve")
            except LpError:
                if retry:
                    raise
                self.restarts += 1
                self._start(self._start_basis)

    def run_phase(self, phase1: bool) -> str:
        """Primal simplex until optimal for the phase's costs.  A phase-2
        bound flip leaves the basis, and so y and d, unchanged, so d is
        kept across it rather than priced again.  Phase 2 starts from
        `certified_d` when the basis still holds it."""
        d = None if phase1 else self.certified_d
        while True:
            if self.iterations >= MAX_ITERATIONS:
                return "iteration_limit"
            if phase1 and self._infeasibility() <= FEAS_TOL:
                return "feasible"
            if d is None:
                d = self._reduced_costs(self._phase1_cost() if phase1 else self.cost)
            q = self._choose_entering(d)
            if q < 0:
                if phase1:
                    return "feasible" if self._infeasibility() <= FEAS_TOL else "infeasible"
                self.certified_d = d
                return "optimal"
            sigma = 1.0 if (self.status[q] in (AT_LOWER, FREE_NB) and d[q] < 0) else -1.0
            delta = self.factors.ftran(self._column(q))
            t, pos, leave_bound = self._ratio_test(q, sigma, delta, phase1)
            if pos == -2:
                if phase1:
                    # cannot happen: infeasibility is bounded below by zero
                    raise LpError("phase-1 ratio test found no blocking bound")
                return "unbounded"
            self.iterations += 1
            self._count_step(t)
            self._pivot(q, sigma, delta, t, pos, leave_bound)
            if phase1 or pos != -1:
                d = None

    # -- dual simplex ---------------------------------------------------------

    def _leaving_row(self, below: np.ndarray, above: np.ndarray) -> tuple[int, float]:
        """Basis slot of the largest bound violation (under Bland's rule:
        of the lowest violating column), and +1 when it lies below its lower
        bound, -1 when above its upper."""
        viol = np.maximum(below, above)
        if self.use_bland:
            cand = np.flatnonzero(viol > 0.0)
            pos = int(cand[np.argmin(self.basic[cand])])
        else:
            pos = int(np.argmax(viol))
        return pos, 1.0 if below[pos] > 0.0 else -1.0

    def _dual_ratio_test(self, d: np.ndarray, a: np.ndarray) -> tuple[int, float]:
        """Entering column and dual step t for the pivot row a (signed so
        that reduced costs move as d + t*a).  Only nonbasic columns whose
        reduced cost moves toward zero block; among near-minimal ratios the
        largest |a| wins (under Bland's rule: the lowest column).  Returns
        (-1, 0) when none blocks: the leaving row cannot reach its bound."""
        idx = np.flatnonzero(np.abs(a) > PIVOT_TOL)
        st = self.status[idx]
        rising = a[idx] > 0.0
        free = st == FREE_NB
        idx = idx[~self.fixed[idx] & np.where(rising, (st == AT_UPPER) | free,
                                              (st == AT_LOWER) | free)]
        if not len(idx):
            return -1, 0.0
        ratio = np.maximum(d[idx] / -a[idx], 0.0)
        close = np.flatnonzero(ratio <= ratio.min() + 1e-9)
        k = close[0] if self.use_bland else close[np.argmax(np.abs(a[idx[close]]))]
        return int(idx[k]), float(ratio[k])

    def run_dual(self, d: np.ndarray) -> str:
        """Bounded dual simplex from a dual feasible basis with reduced
        costs d (Koberstein, "The dual simplex method", 2005): the largest
        primal violation leaves at its violated bound, the textbook ratio
        test picks the entering column, and d follows the pivot row between
        refactorizations.  Returns "optimal" once primal feasible, and
        "infeasible" when a violated row cannot move toward its bound on a
        fresh factorization."""
        while True:
            below, above = self._violations()
            if self._infeasibility(below, above) <= FEAS_TOL:
                return "optimal"
            if self.iterations >= MAX_ITERATIONS:
                return "iteration_limit"
            pos, side = self._leaving_row(below, above)
            unit = np.zeros(self.m)
            unit[pos] = 1.0
            alpha = self.fmat_t @ self.factors.btran(unit)
            q, step = self._dual_ratio_test(d, side * alpha)
            delta = self.factors.ftran(self._column(q)) if q >= 0 else None
            unstable = q >= 0 and abs(delta[pos] - alpha[q]) > 1e-7 * (1.0 + abs(alpha[q]))
            if (q < 0 or unstable) and self.factors.etas:
                # no blocking column, or the pivot row and column disagree
                # on the pivot: decide again on a fresh factorization
                self._refactorize()
                d = self._reduced_costs(self.cost)
                continue
            if q < 0:
                return "infeasible"
            leaving = self.basic[pos]
            bound = self.lower[leaving] if side > 0 else self.upper[leaving]
            shift = (self.x[leaving] - bound) / delta[pos]
            self.iterations += 1
            self._count_step(step)
            factors = self.factors
            self._pivot(q, 1.0 if shift > 0 else -1.0, delta, abs(shift), pos, bound)
            if self.factors is factors:
                alpha *= side * step
                d += alpha
                d[self.basic] = 0.0
                d[leaving] = side * step
            else:  # refactorized: start d afresh too
                d = self._reduced_costs(self.cost)
