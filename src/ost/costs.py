"""Transport cost matrices: quadratic, harmonic-invariant, noise column.

Costs are in Hz^2. The harmonic cost allows a bin at frequency f to be
treated as the q-th partial of a target frequency nu, paying (f - q*nu)^2
plus a penalty for q > 1; with col_freqs set to dictionary fundamentals it
yields the reduced M x K matrix used by the closed-form solvers.
"""

from dataclasses import dataclass

import numpy as np

from .frontend import _check_finite_non_negative


@dataclass(eq=False)
class CostMatrix:
    """Dense non-negative transport cost: rows are spectral bins, columns
    transport targets (bins, or note fundamentals for the reduced M x K
    cost, then possibly a flat noise column). It keeps no frequency axes;
    the cost functions take them.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("cost values must be a matrix")
        _check_finite_non_negative(self.values, "cost values")


def quadratic_cost(row_freqs, col_freqs) -> CostMatrix:
    """c_ij = (f_i - f_j)^2."""
    row_freqs = np.asarray(row_freqs, dtype=np.float64)
    col_freqs = np.asarray(col_freqs, dtype=np.float64)
    if np.any(row_freqs <= 0) or np.any(col_freqs <= 0):
        raise ValueError("frequencies must be positive")
    values = (row_freqs[:, None] - col_freqs[None, :]) ** 2
    return CostMatrix(values=values)


def harmonic_cost(row_freqs, col_freqs, eps0: float,
                  octave_scaling: bool = True) -> CostMatrix:
    """Harmonic-invariant cost.

    c_ij = min over q in 1..q_max of (f_i - q*f_j)^2 + pen(q), with
    q_max = ceil(f_i/f_j), pen(1) = 0 and pen(q) = q*eps0 if octave_scaling
    else eps0.

    Only the candidates able to attain the minimum are evaluated: q = 1 and
    the floor/ceil of the continuous minimizer of the q >= 2 branch (the
    branch objective is a convex quadratic in q, so the integer minimum is
    at one of the two integers bracketing its vertex, clipped to [2, q_max]).
    """
    row_freqs = np.asarray(row_freqs, dtype=np.float64)
    col_freqs = np.asarray(col_freqs, dtype=np.float64)
    if np.any(col_freqs <= 0):
        raise ValueError("column frequencies must be positive")
    if np.any(row_freqs <= 0):
        raise ValueError("row frequencies must be positive")
    if eps0 < 0 or not np.isfinite(eps0):
        raise ValueError("eps0 must be finite and non-negative")

    f = row_freqs[:, None]
    nu = col_freqs[None, :]
    ratio = f / nu
    qmax = np.ceil(ratio)

    best = (f - nu) ** 2  # q = 1, no penalty

    # q >= 2 branch: minimize (f - q*nu)^2 + pen(q) over integers 2..q_max.
    # A huge eps0 may overflow the vertex shift or the penalty: +-inf is the
    # exact limit there, and the branch then never wins.
    has_branch = qmax >= 2
    with np.errstate(over="ignore"):
        if octave_scaling:
            q_vertex = ratio - eps0 / (2.0 * nu ** 2)
        else:
            q_vertex = ratio
        for q_int in (np.floor(q_vertex), np.ceil(q_vertex)):
            q = np.clip(q_int, 2.0, np.maximum(qmax, 2.0))
            pen = q * eps0 if octave_scaling else eps0
            cand = (f - q * nu) ** 2 + pen
            np.minimum(best, np.where(has_branch, cand, np.inf), out=best)

    return CostMatrix(values=best)


def append_noise_column(cost: CostMatrix, amplitude: float) -> CostMatrix:
    """Add a flat catch-all column with every entry equal to `amplitude`."""
    if not np.isfinite(amplitude) or amplitude < 0:
        raise ValueError("noise amplitude must be finite and non-negative")
    values = np.hstack([cost.values, np.full((cost.values.shape[0], 1), amplitude)])
    return CostMatrix(values=values)
