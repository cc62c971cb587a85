"""Baseline methods: PLCA, exact-LP transport, and divergence evaluators.

PLCA unmixes onto harmonic templates by EM (plca_unmix). ot_unmix_lp
solves the exact joint LP over a bin-to-bin plan and the template
activations (`ot_h`) on a candidate support certified by reduced costs;
wasserstein_divergence solves the transport LP between two spectra. Both
use HiGHS' dual revised simplex (scipy's linprog), imported on first use.
"""

from dataclasses import dataclass

import numpy as np

from .costs import CostMatrix
from .dictionary import _check_templates
from .errors import NumericError
from .frontend import NormalizedFrames
from .solvers import MM_BLOCK_FRAMES

KL_FLOOR = 1e-300
LP_TOL = 1e-9
LP_CANDIDATES = 16
LP_GUARD = 5000
OT_LP_MAX_BINS = 64
PLCA_MAX_ITER = 1000
PLCA_REL_TOL = 1e-5


@dataclass(eq=False)
class PlcaState:
    """Per-frame iteration counts of a PLCA run."""

    iterations: np.ndarray


def kl_divergence(v, vhat) -> float:
    """Sum of v_i log(v_i / vhat_i) with 0 log 0 = 0; +inf when some
    v_i > 0 sits on vhat_i = 0."""
    v = np.asarray(v, dtype=np.float64)
    vhat = np.asarray(vhat, dtype=np.float64)
    if v.shape != vhat.shape:
        raise ValueError("length mismatch")
    support = v > 0
    if np.any(vhat[support] == 0):
        return float("inf")
    return float(np.sum(v[support] * np.log(v[support] / vhat[support])))


def _plca_block(w, v, active, max_iter, rel_tol):
    """EM on the columns `active` of v in a live set of MM_BLOCK_FRAMES
    slots, one matrix product pair per step. A column that stops hands its
    slot to the next waiting one, read from v as it enters; once none
    waits, the set shrinks. ratio = v / vhat gives both the objective (its
    log where v > 0) and the next update. Returns (h, iterations) of the
    active columns, in their order."""
    (m, k), n = w.shape, active.size
    h_out, iters = np.empty((k, n)), np.empty(n, dtype=int)
    width = min(n, MM_BLOCK_FRAMES)
    vhat_start = np.maximum(w @ np.full((k, 1), 1.0 / k), KL_FLOOR)
    frame = np.empty(width, dtype=int)  # the active column in each slot
    start, prev = np.empty(width, dtype=int), np.empty(width)  # entry step, objective
    h = np.empty((k, width))
    vs, ratio, vhat = (np.empty((m, width)) for _ in range(3))
    positive = np.empty((m, width), dtype=bool)
    log_ratio = np.zeros((m, width))  # only ever finite, so 0 * log_ratio is 0
    queued, stopped, step = 0, np.arange(width), 0  # every slot starts empty
    while True:
        if stopped.size:
            refill = stopped[:n - queued]
            new = np.arange(queued, queued + refill.size)
            queued += refill.size
            frame[refill], start[refill] = new, step
            prev[refill] = np.nan  # compares false: no stop on a first iteration
            vs[:, refill] = v[:, active[new]]
            positive[:, refill] = vs[:, refill] > 0
            h[:, refill] = 1.0 / k
            ratio[:, refill] = vs[:, refill] / vhat_start
            if refill.size < stopped.size:  # the queue is empty
                keep = np.ones(frame.size, dtype=bool)
                keep[stopped[refill.size:]] = False
                frame, start, prev = (a[keep] for a in (frame, start, prev))
                vs, positive, h, ratio, log_ratio, vhat = (
                    a[:, keep] for a in (vs, positive, h, ratio, log_ratio, vhat))
            where = True if positive.all() else positive  # unmasked log is faster
        if not frame.size:
            return h_out, iters
        h *= w.T @ ratio
        total = h.sum(axis=0)
        total[total == 0] = 1.0  # a frame whose mass vanished stays at zero
        h /= total
        np.matmul(w, h, out=vhat)
        np.maximum(vhat, KL_FLOOR, out=vhat)
        np.divide(vs, vhat, out=ratio)
        np.log(ratio, out=log_ratio, where=where)
        log_ratio *= vs
        obj = log_ratio.sum(axis=0)
        step += 1
        done = np.abs(prev - obj) <= rel_tol * np.maximum(np.abs(prev), KL_FLOOR)
        if step >= max_iter:  # no slot reaches the cap in fewer steps
            done |= start == step - max_iter
        prev = obj
        stopped = np.flatnonzero(done)
        h_out[:, frame[stopped]] = h[:, stopped]
        iters[frame[stopped]] = step - start[stopped]


def plca_unmix(frames: NormalizedFrames, templates,
               max_iter: int = PLCA_MAX_ITER, rel_tol: float = PLCA_REL_TOL):
    """Multiplicative EM for min D_KL(v | W h) on the simplex, per frame,
    with W the M x K template matrix `templates`.

    h starts uniform; the update h_k <- h_k * sum_i w_ik v_i / (Wh)_i is
    followed by renormalization. A frame stops when the relative objective
    change drops below rel_tol (from its second iteration) or after max_iter
    iterations. Active frames share a live set of MM_BLOCK_FRAMES slots, one
    matrix product pair per step: a frame that stops hands its slot to the
    next waiting frame, so every step runs full width until the queue
    drains. Returns (the K x N activations, PlcaState); raises NumericError
    on non-finite activations.
    """
    w = _check_templates(templates, frames.columns.shape[0])
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if rel_tol < 0:
        raise ValueError("rel_tol must be non-negative")
    n = frames.columns.shape[1]
    out = np.zeros((w.shape[1], n))
    iters = np.zeros(n, dtype=int)
    active = np.flatnonzero(frames.active_mask)
    out[:, active], iters[active] = _plca_block(w, frames.columns, active,
                                                max_iter, rel_tol)
    if not np.all(np.isfinite(out)):
        raise NumericError("plca produced non-finite activations")
    return out, PlcaState(iterations=iters)


def solve_lp(objective, eq_matrix, eq_rhs, duals=False):
    """Solve min c.x s.t. Ax = b, x >= 0 with HiGHS' dual revised simplex,
    for c = objective, A = eq_matrix (dense or scipy.sparse) and
    b = eq_rhs, finite and of matching shapes (ValueError otherwise).

    Returns (x, objective), plus the equality duals y (reduced costs
    c - A^T y) if `duals`. HiGHS runs without presolve, with LP_TOL as its
    primal and dual feasibility tolerance. Raises NumericError above
    LP_GUARD variables (before any solve), on an infeasible or unbounded
    problem (HiGHS' message), on any other solver failure, and when the
    point misses a constraint by more than 1e-9 relative to the largest |b|.
    """
    from scipy.optimize import linprog  # ~0.17 s to import; keep it off start-up
    from scipy.sparse import issparse

    objective, eq_rhs = (np.asarray(a, dtype=np.float64) for a in (objective, eq_rhs))
    sparse = issparse(eq_matrix)
    eq_matrix = eq_matrix if sparse else np.asarray(eq_matrix, dtype=np.float64)
    if eq_matrix.ndim != 2:
        raise ValueError("eq_matrix must be a matrix")
    if eq_matrix.shape != (eq_rhs.size, objective.size):
        raise ValueError("constraint matrix shape must match rhs and objective")
    if not all(np.all(np.isfinite(a)) for a in
               (eq_rhs, eq_matrix.data if sparse else eq_matrix, objective)):
        raise ValueError("LP data must be finite")
    n = objective.size
    if n > LP_GUARD:
        raise NumericError(f"{n} variables exceed the desk-scale guard ({LP_GUARD})")
    res = linprog(objective, A_eq=eq_matrix, b_eq=eq_rhs,
                  bounds=(0, None), method="highs",
                  options={"presolve": False,
                           "primal_feasibility_tolerance": LP_TOL,
                           "dual_feasibility_tolerance": LP_TOL})
    if res.status in (2, 3):  # infeasible, unbounded
        raise NumericError(res.message)
    if res.status != 0:
        raise NumericError(f"LP solver failed: {res.message}")
    x = np.maximum(res.x, 0.0)  # HiGHS keeps bounds only to within LP_TOL
    residual = np.abs(eq_matrix @ x - eq_rhs).max(initial=0.0)
    if residual > 1e-9 * max(1.0, np.abs(eq_rhs).max(initial=0.0)):
        raise NumericError(f"constraint residual {residual:.3e} exceeds tolerance")
    return (x, float(objective @ x)) + ((res.eqlin.marginals,) if duals else ())


def _marginal_constraints(rows, cols, r, w):
    """Sparse equality matrix over the entries (rows[p], cols[p]) of an
    r x s plan, then k more variables: its first r rows sum the plan's rows,
    the last s its columns minus w (s x k) times the k variables."""
    from scipy.sparse import csc_array

    n, (j, k) = rows.size, np.nonzero(w)
    return csc_array((np.concatenate([np.ones(2 * n), -w[j, k]]),
                      (np.concatenate([rows, r + cols, r + j]),
                       np.concatenate([np.arange(n), np.arange(n), n + k]))),
                     shape=(r + w.shape[0], n + w.shape[1]))


def wasserstein_divergence(v, vhat, cost: CostMatrix) -> float:
    """Exact transport divergence: LP optimum over plans with row marginal v
    and column marginal vhat."""
    v = np.asarray(v, dtype=np.float64)
    vhat = np.asarray(vhat, dtype=np.float64)
    r, s = cost.values.shape
    if v.size != r or vhat.size != s:
        raise ValueError("marginal lengths must match the cost shape")
    eq = _marginal_constraints(*np.indices((r, s)).reshape(2, -1), r, np.zeros((s, 0)))
    _, objective = solve_lp(cost.values.ravel(), eq, np.concatenate([v, vhat]))
    return objective


def _north_west_corner(v, u):
    """(rows, cols) holding the north-west-corner plan from v to u (of equal
    mass): the pair at the start of each interval their cumulative sums cut."""
    cums = np.cumsum(v), np.cumsum(u)
    starts = np.concatenate([[0.0], cums[0][:-1], cums[1][:-1]])
    return tuple(np.minimum(np.searchsorted(c, starts, side="right"), c.size - 1)
                 for c in cums)


def _unmix_lp_frame(v, w, cost_values):
    """Joint LP over (vec T, h): min <T,C> s.t. T 1 = v, T^T 1 = W h; returns
    (h, objective). T starts on each row's LP_CANDIDATES cheapest columns,
    each column's cheapest rows and the north-west-corner plan to W h0 (h0
    flat: feasible). Pairs with reduced cost C_ij - y_i - y_{M+j} below
    -LP_TOL max(1, max C) under the equality duals y join until none is left,
    the full LP's optimum. A failed restricted LP is redone on full support."""
    (m, k), near = w.shape, min(LP_CANDIDATES, v.size)
    support = np.zeros((m, m), dtype=bool)
    for axis in (0, 1):  # each column's cheapest rows, each row's cheapest columns
        order = np.argpartition(cost_values, near - 1, axis=axis)
        np.put_along_axis(support, order.take(range(near), axis=axis), True, axis=axis)
    support[_north_west_corner(v, w.sum(axis=1) * (v.sum() / w.sum()))] = True
    bound = -LP_TOL * max(1.0, cost_values.max())
    while True:
        rows, cols = np.nonzero(support)
        try:
            x, objective, y = solve_lp(np.append(cost_values[rows, cols], np.zeros(k)),
                                       _marginal_constraints(rows, cols, m, w),
                                       np.append(v, np.zeros(m)), duals=True)
        except NumericError:
            if support.all():
                raise
            support[:] = True
            continue
        priced = (cost_values - y[:m, None] - y[m:] < bound) & ~support
        if not priced.any():
            return x[rows.size:], objective
        support |= priced


def ot_unmix_lp(frames: NormalizedFrames, templates, cost: CostMatrix):
    """Exact LP unmixing onto the M x K template matrix `templates`: the
    joint LP of _unmix_lp_frame over an M x M plan and h, per active frame,
    under an M x M cost. Masked frames yield zero columns. Returns the K x N
    activations; raises NumericError if they are not finite.
    """
    m = frames.columns.shape[0]
    if m > OT_LP_MAX_BINS:
        raise NumericError(f"M={m} exceeds the LP unmixing guard ({OT_LP_MAX_BINS})")
    if cost.values.shape != (m, m):
        raise ValueError("harmonic-dictionary unmixing needs an M x M cost")
    w = _check_templates(templates, m)
    out = np.zeros((w.shape[1], frames.n_frames))
    for idx in np.flatnonzero(frames.active_mask):
        out[:, idx] = _unmix_lp_frame(frames.columns[:, idx], w, cost.values)[0]
    if not np.all(np.isfinite(out)):
        raise NumericError("ot_h produced non-finite activations")
    return out
