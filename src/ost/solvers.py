"""Closed-form spectral transport solvers on the reduced cost matrix.

Every solver works per frame on a simplex vector v (length M) and a reduced
M x K cost. Transporting onto Dirac targets decouples row-wise, so:

- ost_frame assigns each bin's mass to its cheapest column (an argmin scan);
- ost_entropic_frame replaces the argmin with a row softmax;
- ost_group_frame promotes sparse activations by majorization-minimization,
  re-solving the assignment against a cost augmented with a per-column
  penalty derived from the current column masses;
- ost_combined_frame runs the same MM loop with the entropic inner solve.

These per-frame functions build the dense plan (and, on request, the
objective trace) and are the reference for `unmix`, which solves all active
frames at once without either. Its ost_g loop works on column masses and
stops a frame once they repeat (the step depends on them alone, so every
later iteration would be identical), and once at most half of the columns
hold mass each step takes the argmin only over the columns that can still
win a row. Float addition rounds monotonically, so this pruning is exact,
ties included (see _group_mm); the penalty leaves a frame a few notes
within a few steps, so most steps scan a handful of the K columns. Its
ost_eg step uses that the group penalty p only rescales columns:
softmax_k(-(c_ik + p_k)/lambda_e) = E_ik w_k / sum_k E_ik w_k, with
E = exp(-C/lambda_e) computed once. For a block of frames V one MM step is
H = W * E^T (V / E W), two matrix products in place of an M x K exp per
frame (the scaling step of Sinkhorn's algorithm). The products run over the
block's support, the columns whose weight is nonzero in some frame: the
penalty leaves a frame a few notes, so on piece30 the support falls from a
mean of 86 of 88 columns at the first step to 42 at the third and 29 at
the tenth. The (row, frame) pairs where E W underflows are solved by the
per-frame softmax, all pairs of a block-step at once.
Entries of E below the smallest normal double are stored as 0, as in the
harmonic templates: subnormal operands slow BLAS products 2x or more. For
the same reason exp is evaluated only where its result can be normal (in
E) or nonzero (in W): numpy's exp is ~100x slower on subnormal results.
"""

from dataclasses import dataclass

import numpy as np

from .costs import CostMatrix
from .dictionary import SMALLEST_NORMAL
from .errors import NumericError
from .frontend import NormalizedFrames

DEFAULT_MM_ITERATIONS = 10
EMPTY_COLUMN_MASS = 1e-12  # mass floor used when linearizing sqrt at an empty column
# Frames per block of the batched ost and ost_eg steps; bounds their M x block
# temporaries.
MM_BLOCK_FRAMES = 128
# Entries of E W below this are near the subnormal range, where they lose
# relative precision (and V / E W nears overflow); their rows are re-solved
# with per-row max subtraction.
UNDERFLOW_FLOOR = 1e-280
# exp(z) is below the smallest normal double for z < -708.5 (exp(-708.5) is
# about 2.0e-308) and rounds to 0 for z < -746. Evaluating exp only above
# these floors gives the same bits and skips exp's slow subnormal path.
EXP_NORMAL_FLOOR = -708.5
EXP_ZERO_FLOOR = -746.0

VARIANTS = ("ost", "ost_e", "ost_g", "ost_eg")


@dataclass(eq=False)
class TransportPlan:
    """Non-negative M x K plan whose row sums reproduce the input frame."""

    plan: np.ndarray
    row_freqs: np.ndarray
    col_fundamentals: np.ndarray

    def __post_init__(self):
        self.plan = np.asarray(self.plan, dtype=np.float64)
        if self.plan.ndim != 2:
            raise ValueError("plan must be a matrix")
        if np.any(self.plan < 0):
            raise ValueError("plan entries must be non-negative")


@dataclass(eq=False)
class Activations:
    """K x N activation matrix; column n carries the mass of frame n."""

    values: np.ndarray
    frame_hop_seconds: float = 1.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be a K x N matrix")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("activations must be finite")
        if np.any(self.values < 0):
            raise ValueError("activations must be non-negative")
        if self.frame_hop_seconds <= 0:
            raise ValueError("frame_hop_seconds must be positive")


@dataclass
class SolverConfig:
    """Regularization weights and iteration counts for the solver family."""

    lambda_e: float = 0.0
    lambda_g: float = 0.0
    mm_iterations: int = DEFAULT_MM_ITERATIONS

    def __post_init__(self):
        if self.lambda_e < 0:
            raise ValueError("lambda_e must be non-negative")
        if self.lambda_g < 0:
            raise ValueError("lambda_g must be non-negative")
        if self.mm_iterations < 1:
            raise ValueError("mm_iterations must be >= 1")


def _check_frame(v, cost: CostMatrix) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size != cost.values.shape[0]:
        raise ValueError("frame length must match the cost row count")
    if np.any(v < 0):
        raise ValueError("frame entries must be non-negative")
    return v


def _assign(values: np.ndarray, v: np.ndarray):
    """Hard assignment: each row's mass goes to its cheapest column
    (ties break to the lowest index, which is argmin's convention)."""
    labels = np.argmin(values, axis=1)
    k = values.shape[1]
    plan = np.zeros_like(values)
    plan[np.arange(v.size), labels] = v
    h = np.bincount(labels, weights=v, minlength=k)
    return plan, h, labels


def _gibbs_kernel(values: np.ndarray, lambda_e: float) -> np.ndarray:
    """exp(-c/lambda_e) with each row scaled so that its largest entry is 1
    (per-row max subtraction in the exponent), subnormal entries stored as 0."""
    z = -values / lambda_e
    z -= z.max(axis=1, keepdims=True)
    kernel = np.exp(z, out=np.zeros_like(z), where=z >= EXP_NORMAL_FLOOR)
    kernel[kernel < SMALLEST_NORMAL] = 0.0
    return kernel


def _softmax_labels(values: np.ndarray, lambda_e: float) -> np.ndarray:
    """Row-softmax labelling matrix exp(-c/lambda_e), rows normalized,
    computed with per-row max subtraction."""
    labels = _gibbs_kernel(values, lambda_e)
    labels /= labels.sum(axis=1, keepdims=True)
    return labels


def _group_penalty_row(h: np.ndarray) -> np.ndarray:
    """Per-column MM penalty 0.5 * ||t_k||_1^(-1/2); empty columns use the
    value at the mass floor instead of the infinite limit."""
    return 0.5 / np.sqrt(np.maximum(h, EMPTY_COLUMN_MASS))


def transport_objective(plan: np.ndarray, values: np.ndarray) -> float:
    """<T, C>."""
    return float(np.sum(plan * values))


def entropy_term(plan: np.ndarray) -> float:
    """Sum of t * log t with the 0 * log 0 = 0 convention."""
    positive = plan[plan > 0]
    return float(np.sum(positive * np.log(positive)))


def group_term(h: np.ndarray) -> float:
    """Sum of sqrt(h_k)."""
    return float(np.sum(np.sqrt(np.maximum(h, 0.0))))


def ost_frame(v, cost: CostMatrix):
    """Unregularized transport onto Dirac targets: row argmin assignment.

    Returns (TransportPlan, h) where h_k collects the mass of all bins
    assigned to column k. O(M*K) for the argmin scan, O(M) given
    precomputed row argmins.
    """
    v = _check_frame(v, cost)
    plan, h, _ = _assign(cost.values, v)
    return _wrap_plan(plan, cost), h


def ost_entropic_frame(v, cost: CostMatrix, lambda_e: float):
    """Entropy-smoothed transport: t_ik = v_i * softmax_k(-c_ik/lambda_e)."""
    if lambda_e <= 0:
        raise ValueError("lambda_e must be positive (use ost_frame for the hard limit)")
    v = _check_frame(v, cost)
    labels = _softmax_labels(cost.values, lambda_e)
    plan = v[:, None] * labels
    h = labels.T @ v
    return _wrap_plan(plan, cost), h


def ost_group_frame(v, cost: CostMatrix, config: SolverConfig, return_trace: bool = False):
    """Group-sparse transport by majorization-minimization.

    Starting from the plain assignment, each iteration linearizes the
    concave penalty sum_k sqrt(h_k) at the current column masses and
    re-solves the assignment against C + lambda_g * R. The penalized
    objective <T, C> + lambda_g * sum_k sqrt(h_k) never increases.

    With return_trace=True also returns the penalized objective after the
    initial solve and after every iteration.
    """
    v = _check_frame(v, cost)
    values = cost.values
    lam = config.lambda_g
    plan, h, _ = _assign(values, v)
    trace = [transport_objective(plan, values) + lam * group_term(h)]
    for _ in range(config.mm_iterations):
        r = _group_penalty_row(h)
        plan, h, _ = _assign(values + lam * r[None, :], v)
        trace.append(transport_objective(plan, values) + lam * group_term(h))
    wrapped = _wrap_plan(plan, cost)
    if return_trace:
        return wrapped, h, np.array(trace)
    return wrapped, h


def ost_combined_frame(v, cost: CostMatrix, config: SolverConfig, return_trace: bool = False):
    """Entropy-smoothed MM: the group loop of ost_group_frame with the
    entropic solve as the inner step. The doubly-penalized objective
    <T, C> + lambda_e * sum t log t + lambda_g * sum sqrt(h_k) is
    non-increasing across outer iterations."""
    if config.lambda_e <= 0:
        raise ValueError("lambda_e must be positive for the combined solver")
    v = _check_frame(v, cost)
    values = cost.values
    lam_e, lam_g = config.lambda_e, config.lambda_g

    def solve(modified):
        labels = _softmax_labels(modified, lam_e)
        plan = v[:, None] * labels
        return plan, labels.T @ v

    def objective(plan, h):
        return (transport_objective(plan, values)
                + lam_e * entropy_term(plan) + lam_g * group_term(h))

    plan, h = solve(values)
    trace = [objective(plan, h)]
    for _ in range(config.mm_iterations):
        r = _group_penalty_row(h)
        plan, h = solve(values + lam_g * r[None, :])
        trace.append(objective(plan, h))
    wrapped = _wrap_plan(plan, cost)
    if return_trace:
        return wrapped, h, np.array(trace)
    return wrapped, h


def _wrap_plan(plan: np.ndarray, cost: CostMatrix) -> TransportPlan:
    return TransportPlan(plan=plan, row_freqs=cost.row_freqs,
                         col_fundamentals=cost.col_freqs)


def _hard_assign(values: np.ndarray, v: np.ndarray) -> np.ndarray:
    """ost_frame's masses for every column of v (M x N), bit for bit: per
    block of frames, one flat bincount over (column, frame) cells sums each
    cell's rows in ascending order, as ost_frame does. Blocks bound the
    index array to M x MM_BLOCK_FRAMES."""
    labels = np.argmin(values, axis=1)
    k = values.shape[1]
    out = np.empty((k, v.shape[1]))
    for start in range(0, v.shape[1], MM_BLOCK_FRAMES):
        block = v[:, start:start + MM_BLOCK_FRAMES]
        n = block.shape[1]
        cells = (labels[:, None] * n + np.arange(n)).ravel()
        h = np.bincount(cells, weights=block.ravel(), minlength=k * n)
        out[:, start:start + n] = h.reshape(k, n)
    return out


def _group_mm(values: np.ndarray, v: np.ndarray, config: SolverConfig) -> np.ndarray:
    """ost_group_frame's masses for every column of v (M x N), each frame
    stopping at its fixed point. The hard step does not factorise, so
    frames stay in a loop, and each step takes the argmin only over the
    columns that can still win a row.

    With penalty p and the previous step's labels l (the unpenalised
    argmin before the first step), every row's new minimum is at most
    bound = max_i fl(c_{i,l_i} + p_{l_i}). Float addition rounds
    monotonically, so a column with fl(min_i c_ik + p_k) > bound costs more
    than bound on every row and wins none, not even a tie. Dropping those
    columns leaves the argmin as it was: the kept ones stay in ascending
    order, so ties still break to the lowest index, and each row's
    previous label is among them, so every column that holds mass is kept.

    Gathering the kept columns costs more than the full add once they are
    about half of K (at 1024 x 88 both take the same time at 44-50 columns;
    at 81 the gather is 5x slower). So while more than half of the columns
    hold mass the step adds the penalty to all of them, as the oracle does,
    and skips the bound. On piece30 these were exactly the steps that would
    keep more than half of K."""
    lam = config.lambda_g
    m, k = values.shape
    rows = np.arange(m)
    by_column = np.ascontiguousarray(values.T)  # kept columns gather as rows
    col_min = values.min(axis=0)
    first = np.argmin(values, axis=1)
    out = np.empty((k, v.shape[1]))
    for j in range(v.shape[1]):
        frame = np.ascontiguousarray(v[:, j])
        labels = first
        h = np.bincount(labels, weights=frame, minlength=k)
        for _ in range(config.mm_iterations):
            pen = lam * _group_penalty_row(h)
            if 2 * np.count_nonzero(h) > k:
                labels = np.argmin(values + pen, axis=1)
            else:
                bound = np.max(by_column[labels, rows] + pen[labels])
                keep = np.flatnonzero(col_min + pen <= bound)
                cand = by_column[keep]
                cand += pen[keep, None]
                labels = keep[np.argmin(cand, axis=0)]
            new = np.bincount(labels, weights=frame, minlength=k)
            if np.array_equal(new, h):
                break
            h = new
        out[:, j] = h
    return out


def _combined_mm(values: np.ndarray, v: np.ndarray, config: SolverConfig) -> np.ndarray:
    """ost_combined_frame's masses for every column of v (M x N), by the
    factorised step H = W * E^T (V / E W) over blocks of frames. Every
    iteration runs: the entropic loop has no exact fixed point.

    Both products run over the support, the columns whose weight is nonzero
    in some frame of the block; the others get mass exactly 0, as in the
    full products. The penalty empties most columns within a few steps."""
    lam_e, lam_g = config.lambda_e, config.lambda_g
    k = values.shape[1]
    kernel = _gibbs_kernel(values, lam_e)
    labels = kernel / kernel.sum(axis=1, keepdims=True)
    out = np.empty((k, v.shape[1]))
    # block / s may overflow or be 0 / 0 where s underflows; those entries
    # are reset below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, v.shape[1], MM_BLOCK_FRAMES):
            block = v[:, start:start + MM_BLOCK_FRAMES]
            h = labels.T @ block
            for _ in range(config.mm_iterations):
                pen = lam_g * _group_penalty_row(h)
                z = (pen.min(axis=0) - pen) / lam_e
                w = np.exp(z, out=np.zeros_like(z), where=z >= EXP_ZERO_FLOOR)
                support = np.flatnonzero(w.any(axis=1))
                full = support.size == k
                e = kernel if full else kernel[:, support]
                w_s = w if full else w[support]
                s = e @ w_s
                low = s < UNDERFLOW_FLOOR
                ratio = block / s
                ratio[low] = 0.0
                h_s = w_s * (e.T @ ratio)
                if full:
                    h = h_s
                else:
                    h = np.zeros_like(w)
                    h[support] = h_s
                if low.any():
                    _add_underflowed_rows(h, values, block, pen,
                                          low & (block > 0), lam_e)
            out[:, start:start + MM_BLOCK_FRAMES] = h
    return out


def _add_underflowed_rows(h, values, block, pen, under, lam_e):
    """Add to h the mass of the (row, frame) pairs flagged in `under`, each
    row solved by the softmax ost_combined_frame evaluates. All pairs are
    solved together, M at a time, so the temporaries stay within one M x K
    matrix."""
    m, n = under.shape
    rows, cols = np.divmod(np.flatnonzero(under), n)
    for lo in range(0, rows.size, m):
        r, c = rows[lo:lo + m], cols[lo:lo + m]
        labels = _softmax_labels(values[r] + pen.T[c], lam_e)
        weights = np.zeros((n, r.size))
        weights[c, np.arange(r.size)] = block[r, c]
        h += (weights @ labels).T


def unmix(frames: NormalizedFrames, cost: CostMatrix,
          config: SolverConfig = None, variant: str = "ost") -> Activations:
    """Solve every active frame column with one batched kernel per variant
    (see the module docstring); masked frames yield zero columns.

    `ost` and `ost_g` match ost_frame and ost_group_frame bit for bit;
    `ost_eg` sums in another order and matches ost_combined_frame to
    rounding. Raises NumericError if the activations are not finite.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if config is None:
        config = SolverConfig()
    columns = frames.columns
    if columns.shape[0] != cost.values.shape[0]:
        raise ValueError("frame rows must match cost rows")
    k = cost.values.shape[1]
    n = columns.shape[1]
    out = np.zeros((k, n))
    active = np.flatnonzero(frames.active_mask)
    if active.size == 0:
        return Activations(values=out, frame_hop_seconds=frames.frame_hop_seconds)
    # No kernel writes into its frame argument, so an all-active input is
    # passed as is, without an M x N copy.
    v_active = columns if active.size == n else columns[:, active]

    if variant == "ost":
        out[:, active] = _hard_assign(cost.values, v_active)
    elif variant == "ost_g":
        out[:, active] = _group_mm(cost.values, v_active, config)
    elif config.lambda_e <= 0:
        raise ValueError(f"variant {variant} requires lambda_e > 0")
    elif variant == "ost_e":
        labels = _softmax_labels(cost.values, config.lambda_e)
        out[:, active] = labels.T @ v_active
    else:
        out[:, active] = _combined_mm(cost.values, v_active, config)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"variant {variant} produced non-finite activations")
    return Activations(values=out, frame_hop_seconds=frames.frame_hop_seconds)
