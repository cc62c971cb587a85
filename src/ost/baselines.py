"""Reference methods: PLCA, exact-LP transport, and divergence evaluators.

The LP solver is a dense two-phase revised simplex with Bland's rule. It is
deliberately independent of the closed-form solvers so the reduced problem
can be cross-checked against an exact optimizer.
"""

from dataclasses import dataclass, field

import numpy as np

from .costs import CostMatrix
from .dictionary import Dictionary
from .errors import LpGuardError, LpInfeasibleError, LpUnboundedError, NumericError
from .frontend import NormalizedFrames
from .solvers import MM_BLOCK_FRAMES, Activations

KL_FLOOR = 1e-300
LP_TOL = 1e-9
LP_GUARD = 5000
OT_LP_MAX_BINS = 64
PLCA_MAX_ITER = 1000
PLCA_REL_TOL = 1e-5


@dataclass(eq=False)
class LpProblem:
    """min objective . x  s.t.  eq_matrix @ x = eq_rhs, x >= 0."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=np.float64)
        self.eq_matrix = np.asarray(self.eq_matrix, dtype=np.float64)
        self.eq_rhs = np.asarray(self.eq_rhs, dtype=np.float64)
        if self.eq_matrix.ndim != 2:
            raise ValueError("eq_matrix must be a matrix")
        if self.eq_matrix.shape != (self.eq_rhs.size, self.objective.size):
            raise ValueError("constraint matrix shape must match rhs and objective")
        if not (np.all(np.isfinite(self.eq_rhs)) and np.all(np.isfinite(self.eq_matrix))
                and np.all(np.isfinite(self.objective))):
            raise ValueError("LP data must be finite")

    @property
    def n_variables(self) -> int:
        return self.objective.size


@dataclass(eq=False)
class PlcaState:
    """Converged activations plus per-frame KL objective traces."""

    h_matrix: np.ndarray
    objective_traces: list = field(default_factory=list)
    iterations: np.ndarray = None


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


def _plca_block(w, v, max_iter, rel_tol):
    """EM on all columns of v at once. A column leaves the live set when it
    stops, so the arrays shrink only on iterations where some column stops.
    Off the support of v the objective term 0 * log(1 / vhat) is 0, so no
    mask is needed. Returns (h, iterations, objective traces)."""
    k, b = w.shape[1], v.shape[1]
    h_out, iters = np.empty((k, b)), np.empty(b, dtype=int)
    trace_buf = np.empty((b, max_iter))
    live = np.arange(b)
    v_log = np.where(v > 0, v, 1.0)
    h = np.full((k, b), 1.0 / k)
    vhat = np.maximum(w @ h, KL_FLOOR)
    prev = np.full(b, np.nan)  # compares false: no stop on the first iteration
    for it in range(1, max_iter + 1):
        h *= w.T @ (v / vhat)
        total = h.sum(axis=0)
        total[total == 0] = 1.0  # a frame whose mass vanished stays at zero
        h /= total
        vhat = np.maximum(w @ h, KL_FLOOR)
        obj = np.sum(v * np.log(v_log / vhat), axis=0)
        trace_buf[live, it - 1] = obj
        done = (np.abs(prev - obj) <= rel_tol * np.maximum(np.abs(prev), KL_FLOOR)) \
            | (it == max_iter)
        prev = obj
        if done.any():
            stopped, keep = live[done], ~done
            h_out[:, stopped] = h[:, done]
            iters[stopped] = it
            live = live[keep]
            if live.size == 0:
                break
            h, v, v_log, vhat, prev = (h[:, keep], v[:, keep], v_log[:, keep],
                                       vhat[:, keep], prev[keep])
    return h_out, iters, [trace_buf[j, :iters[j]].copy() for j in range(b)]


def plca_unmix(frames: NormalizedFrames, dictionary: Dictionary,
               max_iter: int = PLCA_MAX_ITER, rel_tol: float = PLCA_REL_TOL):
    """Multiplicative EM for min D_KL(v | W h) on the simplex, per frame.

    h starts uniform; the update h_k <- h_k * sum_i w_ik v_i / (Wh)_i is
    followed by renormalization. A frame stops when the relative objective
    change drops below rel_tol (from its second iteration) or after max_iter
    iterations. Active frames run in blocks of MM_BLOCK_FRAMES, one matrix
    product pair per step. Raises NumericError on non-finite activations.
    """
    if dictionary.kind != "harmonic":
        raise ValueError("plca_unmix requires stored templates (kind='harmonic')")
    w = dictionary.templates
    if frames.columns.shape[0] != w.shape[0]:
        raise ValueError("frame rows must match dictionary rows")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if rel_tol < 0:
        raise ValueError("rel_tol must be non-negative")
    k = w.shape[1]
    n = frames.columns.shape[1]
    out = np.zeros((k, n))
    traces = [np.array([])] * n
    iters = np.zeros(n, dtype=int)
    active = np.flatnonzero(frames.active_mask)
    for start in range(0, active.size, MM_BLOCK_FRAMES):
        idx = active[start:start + MM_BLOCK_FRAMES]
        out[:, idx], iters[idx], block_traces = _plca_block(
            w, frames.columns[:, idx], max_iter, rel_tol)
        for j, trace in zip(idx, block_traces):
            traces[j] = trace
    if not np.all(np.isfinite(out)):
        raise NumericError("plca produced non-finite activations")
    acts = Activations(values=out, frame_hop_seconds=frames.frame_hop_seconds)
    return acts, PlcaState(h_matrix=out, objective_traces=traces, iterations=iters)


# ---------------------------------------------------------------------------
# Dense two-phase revised simplex with Bland's rule.


def _refactorize(a, b, basis):
    basis_matrix = a[:, basis]
    try:
        b_inv = np.linalg.inv(basis_matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError("singular basis during refactorization") from exc
    return b_inv, b_inv @ b


def _simplex_iterate(a, b, c, basis, b_inv, x_basic, tol, enter_limit, max_iter,
                     refactor_every=64):
    """Run simplex pivots until optimality/unboundedness.

    Entering variable: most-negative reduced cost while the walk makes
    progress; after a long streak of degenerate pivots the rule drops to
    Bland's lowest-index choice (with Bland ties on the leaving row) until
    a positive step escapes the vertex, which keeps the walk cycle-free.
    Mutates basis/b_inv/x_basic in place; returns the final (b_inv, x_basic).
    """
    m, _ = a.shape
    in_basis = np.zeros(c.size, dtype=bool)
    in_basis[basis] = True
    stall_limit = 2 * m + 16
    stalled = 0
    for iteration in range(max_iter):
        if iteration and iteration % refactor_every == 0:
            b_inv, x_basic = _refactorize(a, b, basis)
        duals = c[basis] @ b_inv
        reduced = c[:enter_limit] - duals @ a[:, :enter_limit]
        eligible = np.flatnonzero((reduced < -tol) & ~in_basis[:enter_limit])
        if eligible.size == 0:
            return b_inv, x_basic
        if stalled > stall_limit:
            j = int(eligible[0])
        else:
            j = int(eligible[np.argmin(reduced[eligible])])
        direction = b_inv @ a[:, j]
        positive = direction > tol
        if not np.any(positive):
            raise LpUnboundedError("objective unbounded below")
        rows = np.flatnonzero(positive)
        ratios = x_basic[rows] / direction[rows]
        theta = ratios.min()
        near = rows[ratios <= theta + tol * (1.0 + abs(theta))]
        r = int(near[np.argmin(np.asarray(basis)[near])])
        stalled = stalled + 1 if theta <= tol else 0
        # pivot on row r, column j
        in_basis[basis[r]] = False
        in_basis[j] = True
        pivot = direction[r]
        x_basic -= (theta if theta > 0 else 0.0) * direction
        x_basic[r] = theta if theta > 0 else 0.0
        b_inv[r] /= pivot
        others = np.arange(m) != r
        b_inv[others] -= np.outer(direction[others], b_inv[r])
        basis[r] = j
        np.maximum(x_basic, 0.0, out=x_basic)
    raise NumericError("simplex iteration limit exceeded")


def solve_lp(problem: LpProblem, tol: float = LP_TOL, guard: int = LP_GUARD):
    """Solve min c.x s.t. Ax = b, x >= 0 by dense revised simplex.

    Returns (x, objective). Raises LpInfeasibleError / LpUnboundedError /
    LpGuardError. Product-form updates can drift on ill-conditioned bases,
    so a failed feasibility check retries with a tighter refactorization
    cadence before giving up.
    """
    n = problem.n_variables
    if n > guard:
        raise LpGuardError(f"{n} variables exceed the desk-scale guard ({guard})")
    last = None
    for refactor_every in (64, 8, 1):
        try:
            return _solve_lp_once(problem, tol, refactor_every)
        except NumericError as exc:
            last = exc
    raise last


def _solve_lp_once(problem: LpProblem, tol: float, refactor_every: int):
    a = problem.eq_matrix.copy()
    b = problem.eq_rhs.copy()
    c = problem.objective
    n = problem.n_variables
    m = b.size
    if m == 0:
        return np.zeros(n), 0.0
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    max_iter = 5000 + 50 * (m + n)

    # Phase 1: minimize the sum of artificial variables.
    a1 = np.hstack([a, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = list(range(n, n + m))
    b_inv = np.eye(m)
    x_basic = b.copy()
    b_inv, x_basic = _simplex_iterate(a1, b, c1, basis, b_inv, x_basic,
                                      tol, n + m, max_iter, refactor_every)
    if float(c1[basis] @ x_basic) > 1e-8 * max(1.0, np.abs(b).sum()):
        raise LpInfeasibleError("phase-1 optimum is positive: no feasible point")

    # Drive remaining artificials out of the basis; rows where no original
    # column can pivot are redundant and dropped.
    redundant = []
    for r in range(m):
        if basis[r] < n:
            continue
        tableau_row = b_inv[r] @ a
        candidates = np.flatnonzero(np.abs(tableau_row) > 1e-7)
        candidates = [j for j in candidates if j not in basis]
        if candidates:
            j = int(candidates[0])
            direction = b_inv @ a1[:, j]
            pivot = direction[r]
            b_inv[r] /= pivot
            others = np.arange(m) != r
            b_inv[others] -= np.outer(direction[others], b_inv[r])
            basis[r] = j
        else:
            redundant.append(r)
    if redundant:
        keep = [r for r in range(m) if r not in redundant]
        a = a[keep]
        b = b[keep]
        m = len(keep)
        basis = [basis[r] for r in keep]
        if any(idx >= n for idx in basis):
            raise NumericError("redundant-row elimination left an artificial basic")
        b_inv, x_basic = _refactorize(a, b, basis)
    else:
        b_inv, x_basic = _refactorize(a, b, basis)

    # Phase 2 on original columns only.
    b_inv, x_basic = _simplex_iterate(a, b, c, basis, b_inv, x_basic,
                                      tol, n, max_iter, refactor_every)
    b_inv, x_basic = _refactorize(a, b, basis)
    np.maximum(x_basic, 0.0, out=x_basic)
    x = np.zeros(n)
    x[basis] = x_basic
    residual = np.abs(problem.eq_matrix @ x - problem.eq_rhs).max() if m else 0.0
    if residual > 1e-9 * max(1.0, np.abs(problem.eq_rhs).max()):
        raise NumericError(f"constraint residual {residual:.3e} exceeds tolerance")
    return x, float(c @ x)


def wasserstein_divergence(v, vhat, cost: CostMatrix) -> float:
    """Exact transport divergence: LP optimum over plans with row marginal v
    and column marginal vhat."""
    v = np.asarray(v, dtype=np.float64)
    vhat = np.asarray(vhat, dtype=np.float64)
    r, s = cost.values.shape
    if v.size != r or vhat.size != s:
        raise ValueError("marginal lengths must match the cost shape")
    n = r * s
    eq = np.zeros((r + s, n))
    for i in range(r):
        eq[i, i * s:(i + 1) * s] = 1.0
    for j in range(s):
        eq[r + j, j::s] = 1.0
    problem = LpProblem(objective=cost.values.ravel(), eq_matrix=eq,
                        eq_rhs=np.concatenate([v, vhat]))
    _, objective = solve_lp(problem)
    return objective


def _unmix_lp_frame(v, w, cost_values):
    """Joint LP over (vec T, h): min <T,C> s.t. T 1 = v, T^T 1 = W h."""
    m = v.size
    k = w.shape[1]
    n = m * m + k
    eq = np.zeros((2 * m, n))
    for i in range(m):
        eq[i, i * m:(i + 1) * m] = 1.0          # row sums of T = v
    for j in range(m):
        eq[m + j, j:m * m:m] = 1.0              # column sums of T
        eq[m + j, m * m:] = -w[j]               # ... equal (W h)_j
    rhs = np.concatenate([v, np.zeros(m)])
    problem = LpProblem(objective=np.concatenate([cost_values.ravel(), np.zeros(k)]),
                        eq_matrix=eq, eq_rhs=rhs)
    x, objective = solve_lp(problem)
    return x[m * m:], x[:m * m].reshape(m, m), objective


def _reduced_lp_frame(v, cost_values):
    """Reduced LP over T~ alone: min <T~, C~> s.t. T~ 1 = v; h = column sums."""
    m, k = cost_values.shape
    eq = np.zeros((m, m * k))
    for i in range(m):
        eq[i, i * k:(i + 1) * k] = 1.0
    problem = LpProblem(objective=cost_values.ravel(), eq_matrix=eq, eq_rhs=v)
    x, objective = solve_lp(problem)
    plan = x.reshape(m, k)
    return plan.sum(axis=0), plan, objective


def ot_unmix_lp(frames: NormalizedFrames, dictionary: Dictionary,
                cost: CostMatrix, return_detail: bool = False):
    """Exact LP unmixing.

    With a harmonic dictionary this solves the joint problem over the full
    M x M plan and h (M^2 + K variables, both marginal constraint families).
    With a Dirac dictionary the plan targets the fundamentals directly
    through the reduced M x K cost, which is the exact LP form of the
    problem the closed-form solver answers.
    """
    m = frames.columns.shape[0]
    if m > OT_LP_MAX_BINS:
        raise LpGuardError(f"M={m} exceeds the LP unmixing guard ({OT_LP_MAX_BINS})")
    if frames.columns.shape[0] != cost.values.shape[0]:
        raise ValueError("frame rows must match cost rows")
    if dictionary.kind == "harmonic":
        if cost.values.shape[1] != m:
            raise ValueError("harmonic-dictionary unmixing needs a full M x M cost")
        if dictionary.templates.shape[0] != m:
            raise ValueError("dictionary rows must match frame rows")
        k = dictionary.n_templates
    else:
        if cost.n_targets < dictionary.n_templates:
            raise ValueError("reduced cost columns must cover the dictionary")
        k = cost.n_targets
    n = frames.columns.shape[1]
    out = np.zeros((k, n))
    details = []
    for idx in np.flatnonzero(frames.active_mask):
        v = frames.columns[:, idx]
        if dictionary.kind == "harmonic":
            h, plan, objective = _unmix_lp_frame(v, dictionary.templates, cost.values)
        else:
            h, plan, objective = _reduced_lp_frame(v, cost.values)
        out[:, idx] = h
        if return_detail:
            details.append({"frame": int(idx), "plan": plan, "objective": objective})
    acts = Activations(values=out, frame_hop_seconds=frames.frame_hop_seconds)
    if return_detail:
        return acts, details
    return acts
