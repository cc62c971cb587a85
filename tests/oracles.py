"""Per-frame reference solvers that the batched kernels of `ost` are checked
against.

Transport onto Dirac targets decouples row by row, so one frame v (length
M) under a reduced M x K cost is solved by:

- ost_frame: each bin's mass goes to its cheapest column (an argmin scan);
- ost_entropic_frame: the argmin replaced by a row softmax;
- ost_group_frame: majorization-minimization for group-sparse masses,
  re-solving the assignment against the cost plus a per-column penalty
  linearised at the current column masses;
- ost_combined_frame: the same MM loop with the entropic inner solve.

Each builds the dense M x K plan and returns (plan, h, trace): the column
masses h and the penalized objective after the first solve and after every
MM step. They share the penalty with `ost.solvers` and compute the softmax
themselves, so the batched kernels of `unmix` match them bit for bit (ost,
ost_g) or to rounding (ost_e, ost_eg).

reduced_lp solves the same frame as an exact LP (HiGHS' dual revised
simplex) over every plan with row marginal v. It shares nothing with the
closed forms: it never uses the row-by-row split that Dirac targets allow,
so agreement checks that split rather than restating it.

plca_frame is the per-frame EM loop that `plca_unmix` batches.
"""

import numpy as np

from ost.baselines import KL_FLOOR, kl_divergence, solve_lp
from ost.solvers import _group_penalty_row

SMALLEST_NORMAL = np.finfo(float).tiny


def transport_objective(plan, values):
    """<T, C>."""
    return float(np.sum(plan * values))


def entropy_term(plan):
    """Sum of t * log t with the 0 * log 0 = 0 convention."""
    positive = plan[plan > 0]
    return float(np.sum(positive * np.log(positive)))


def group_term(h):
    """Sum of sqrt(h_k)."""
    return float(np.sum(np.sqrt(np.maximum(h, 0.0))))


def _assign(values, v):
    """Hard assignment: each row's mass goes to its cheapest column (ties
    break to the lowest index, which is argmin's convention)."""
    labels = np.argmin(values, axis=1)
    plan = np.zeros_like(values)
    plan[np.arange(v.size), labels] = v
    return plan, np.bincount(labels, weights=v, minlength=values.shape[1])


def _softmax_labels(values, lambda_e):
    """Row-softmax labelling matrix exp(-c/lambda_e), rows normalized,
    computed with per-row max subtraction; shares below the smallest normal
    double are stored as 0. exp is evaluated only where z >= -708.5, below
    which its result is subnormal (same bits, without exp's slow path)."""
    z = -values / lambda_e
    z -= z.max(axis=1, keepdims=True)
    labels = np.exp(z, out=np.zeros_like(z), where=z >= -708.5)
    labels[labels < SMALLEST_NORMAL] = 0.0
    labels /= labels.sum(axis=1, keepdims=True)
    return labels


def _entropic(values, v, lambda_e):
    """t_ik = v_i * softmax_k(-c_ik / lambda_e), and its column masses."""
    labels = _softmax_labels(values, lambda_e)
    return v[:, None] * labels, labels.T @ v


def _mm(values, lambda_g, iterations, solve, objective):
    """Solve against the cost, then `iterations` times against the cost plus
    lambda_g times the penalty linearised at the current masses."""
    plan, h = solve(values)
    trace = [objective(plan, h)]
    for _ in range(iterations):
        plan, h = solve(values + lambda_g * _group_penalty_row(h)[None, :])
        trace.append(objective(plan, h))
    return plan, h, np.array(trace)


def ost_frame(v, cost):
    """Unregularized transport onto Dirac targets: row argmin assignment."""
    plan, h = _assign(cost.values, v)
    return plan, h, np.array([transport_objective(plan, cost.values)])


def ost_entropic_frame(v, cost, lambda_e):
    """Entropy-smoothed transport, lambda_e > 0."""
    plan, h = _entropic(cost.values, v, lambda_e)
    objective = transport_objective(plan, cost.values) + lambda_e * entropy_term(plan)
    return plan, h, np.array([objective])


def ost_group_frame(v, cost, lambda_g, mm_iterations):
    """Group-sparse transport by `mm_iterations` MM steps from the plain
    assignment. The penalized objective <T, C> + lambda_g * sum_k sqrt(h_k)
    never increases."""
    values = cost.values

    def objective(plan, h):
        return transport_objective(plan, values) + lambda_g * group_term(h)

    return _mm(values, lambda_g, mm_iterations, lambda c: _assign(c, v), objective)


def ost_combined_frame(v, cost, lambda_e, lambda_g, mm_iterations):
    """The MM loop of ost_group_frame with the entropic solve as its inner
    step, lambda_e > 0. <T, C> + lambda_e * sum t log t + lambda_g * sum
    sqrt(h_k) is non-increasing across outer iterations."""
    values = cost.values

    def objective(plan, h):
        return (transport_objective(plan, values)
                + lambda_e * entropy_term(plan) + lambda_g * group_term(h))

    return _mm(values, lambda_g, mm_iterations,
               lambda c: _entropic(c, v, lambda_e), objective)


def reduced_lp(v, cost_values):
    """The exact LP over the M x K plan alone: min <T, C> s.t. T 1 = v.
    Returns (h, plan, objective) with h the plan's column sums."""
    m, k = cost_values.shape
    eq = np.zeros((m, m * k))
    for i in range(m):
        eq[i, i * k:(i + 1) * k] = 1.0
    x, objective = solve_lp(cost_values.ravel(), eq, v)
    plan = x.reshape(m, k)
    return plan.sum(axis=0), plan, objective


def plca_frame(v, w, max_iter, rel_tol):
    """The per-frame EM loop plca_unmix batches: returns (h, trace)."""
    k = w.shape[1]
    h = np.full(k, 1.0 / k)
    trace = []
    prev = None
    for _ in range(max_iter):
        vhat = np.maximum(w @ h, KL_FLOOR)
        h = h * (w.T @ (v / vhat))
        total = h.sum()
        if total > 0:
            h /= total
        obj = kl_divergence(v, np.maximum(w @ h, KL_FLOOR))
        trace.append(obj)
        if prev is not None and abs(prev - obj) <= rel_tol * max(abs(prev), KL_FLOOR):
            break
        prev = obj
    return h, np.array(trace)
