"""Galerkin projection onto a total-degree Hermite chaos, for the tests: the
coefficients c_k = sum_nodes w * value * Psi_k / <Psi_k^2> of model values
at a sparse grid's nodes, with Psi_k(xi) = prod_i He_{k_i}(xi_i) and
<Psi_k^2> = prod_i k_i!.  The program itself needs only c_0, the grid's
weighted node sum (`SparseGrid.integrate`)."""
import math

import numpy as np
from numpy.polynomial.hermite_e import hermevander


def total_degree(dimension: int, order: int) -> list:
    """Every multi-index of `dimension` entries with total degree <= `order`,
    the all-zeros index first."""
    if dimension == 0:
        return [()]
    return [(k,) + rest for k in range(order + 1)
            for rest in total_degree(dimension - 1, order - k)]


def basis(indices, points) -> np.ndarray:
    """Psi_k at each of the (N, d) points: one row per point, one column per
    multi-index."""
    exponents = np.array(indices)
    table = hermevander(np.asarray(points, dtype=float), exponents.max())
    return table[:, np.arange(exponents.shape[1]), exponents].prod(axis=-1)


def project(grid, indices, values) -> np.ndarray:
    """Coefficients of the node values' projection onto `indices`."""
    norms = [math.prod(map(math.factorial, k)) for k in indices]
    return (grid.weights * values) @ basis(indices, grid.nodes) / norms
