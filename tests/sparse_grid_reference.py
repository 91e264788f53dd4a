"""Dense-composition form of `pce.build_sparse_grid`, kept as the reference
the sparse walk over raised axes is checked against.  `np.meshgrid` caps it
at 32 dimensions."""
import numpy as np

from windsed.pce import MAX_LEVEL, SparseGrid, _delta


def _compositions(total: int, parts: int):
    """Nonnegative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def build_sparse_grid_dense(dimension: int, level: int) -> SparseGrid:
    """Smolyak combination of the nested 1-D ladder.

    Uses the telescoping (difference-rule) form: tensor products of
    Delta_l = R_l - R_{l-1} over all 1-D level vectors with
    sum(l_i - 1) <= level.  Delayed ladder positions have Delta = 0 and
    contribute nothing, which is what produces the 33/513 node counts in
    16 dimensions at levels 1 and 2.
    """
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if not 1 <= level <= MAX_LEVEL:
        raise ValueError(f"level must be in 1..{MAX_LEVEL} (tabulated rules)")
    deltas = [_delta(l) for l in range(1, level + 2)]
    nonzero = [l for l in range(1, level + 2)
               if l == 1 or np.any(np.abs(deltas[l - 1][1]) > 0)]
    acc: dict[tuple, float] = {}
    for surplus in range(0, level + 1):
        for comp in _compositions(surplus, dimension):
            levels = [c + 1 for c in comp]
            if any(l not in nonzero for l in levels):
                continue
            axes = [deltas[l - 1] for l in levels]
            # tensor the (typically tiny) difference rules
            grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
            wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
            pts = np.stack([g.ravel() for g in grids], axis=1)
            wts = np.prod(np.stack([w.ravel() for w in wgrids], axis=1), axis=1)
            for pt, w in zip(pts, wts):
                key = tuple(round(float(v), 14) for v in pt)
                acc[key] = acc.get(key, 0.0) + float(w)
    keys = sorted(acc.keys())
    nodes = np.array(keys, dtype=float).reshape(len(keys), dimension)
    weights = np.array([acc[k] for k in keys])
    return SparseGrid(dimension, level, nodes, weights)
