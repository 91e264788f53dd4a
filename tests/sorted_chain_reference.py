"""The warm-start chain the evaluator ran before its nearest-neighbour tour:
power rows re-solved from the anchor in ascending total wind power (a
stable sort), each from the previous row's optimal basis.  The tests
measure the tour against it."""
import numpy as np

from windsed.lp_solver import LpError
from windsed.sed_model import ATLAS_GERMS


def atlas_powers(ev) -> np.ndarray:
    """The power rows of the evaluator's ATLAS_GERMS atlas germs."""
    rng = np.random.Generator(np.random.Philox(key=0xA71A5))
    return ev.spec.power(rng.standard_normal((ATLAS_GERMS, ev.dim)))


def ascending_total_chain(ev, powers: np.ndarray) -> tuple[set, int]:
    """Re-solve the evaluator's LP at each power row (germs x sites x T)
    from its anchor in ascending total power: the optimal bases reached
    (their statuses as bytes) and the pivots taken.  A row whose LP fails
    reaches no basis, and the next starts from the anchor again."""
    ev._solver.begin_at(ev._anchor)
    bases, pivots = set(), 0
    for power in powers[np.argsort(powers.sum(axis=(1, 2)), kind="stable")]:
        ev.inst.set_renewable(power)
        try:
            ev._solver.solve_value()
        except LpError:
            pivots += ev._solver.iterations
            ev._solver.begin_at(ev._anchor)
            continue
        pivots += ev._solver.iterations
        bases.add(ev._solver.basis().status.tobytes())
    return bases, pivots
