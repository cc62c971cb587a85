"""Batched spectral transport solvers on the reduced cost matrix.

`unmix` solves every active frame v (length M) of a frame matrix under a
reduced M x K cost. Transporting onto Dirac targets decouples row-wise, so:

- ost assigns each bin's mass to its cheapest column (an argmin scan);
- ost_e replaces the argmin with a row softmax;
- ost_g promotes sparse activations by majorization-minimization,
  re-solving the assignment against a cost augmented with a per-column
  penalty derived from the current column masses;
- ost_eg runs the same MM loop with the entropic inner solve.

The kernels return the column masses only, never a plan. Their per-frame
references, which build the plan and the objective trace, are the
functions of tests/oracles.py; ost and ost_g match them bit for bit.

Both MM variants run on one driver over blocks of frames (_mm_blocks); an
ost_g frame leaves its block's live set once its masses repeat, an ost_eg
frame runs every iteration. The ost_g step takes each frame's argmin only
over the columns that can still win one of its rows, exact because float
addition rounds monotonically (see _group_mm); the penalty leaves a frame
a few notes within a few steps, and frames that keep about as many columns
share one gather. The ost_eg step uses that the group penalty p only
rescales columns:
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
from .frontend import NormalizedFrames, _check_finite_non_negative

DEFAULT_MM_ITERATIONS = 10
EMPTY_COLUMN_MASS = 1e-12  # mass floor used when linearizing sqrt at an empty column
# Frames per block of the batched ost, ost_g and ost_eg kernels; bounds their
# M x block temporaries.
MM_BLOCK_FRAMES = 128
_GATHER_CELLS = 2 ** 17  # cost cells an ost_g step gathers at once: 1 MB, in cache
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
class Activations:
    """K x N activation matrix; column n carries the mass of frame n."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("values must be a K x N matrix")
        _check_finite_non_negative(self.values, "activations")


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


def _column_masses(labels: np.ndarray, frames: np.ndarray, k: int) -> np.ndarray:
    """K x n masses of frames (M x n) whose row i goes to column labels[f, i]
    (labels n x M, or one M-vector for all frames). One flat bincount visits
    frame after frame, rows ascending, so each (column, frame) cell sums its
    rows in ascending order from 0.0, as the bincount of
    tests/oracles.py's per-frame solvers."""
    n = frames.shape[1]
    cells = labels + np.arange(0, n * k, k)[:, None]
    return np.bincount(cells.ravel(), weights=frames.T.ravel(),
                       minlength=n * k).reshape(n, k).T


def _hard_assign(values: np.ndarray, v: np.ndarray, active: np.ndarray) -> np.ndarray:
    """The masses of tests/oracles.py's ost_frame for the columns `active`
    of v (M x N): the block driver with no step, so that the cell index
    array stays within one block."""
    labels = np.argmin(values, axis=1)
    k = values.shape[1]
    return _mm_blocks(v, active, k, 0,
                      lambda block: (_column_masses(labels, block, k), None), None)


def _mm_blocks(v: np.ndarray, active: np.ndarray, k: int, iterations: int,
               start, step) -> np.ndarray:
    """K x N masses of an MM kernel for the columns `active` of v (M x N),
    zero in the others, per block of MM_BLOCK_FRAMES active columns. Each
    block is gathered from v as it starts, so no M x active copy of v is
    made. start(block) gives a block's first masses (K x n) and step state
    (frames along its first axis); step(block, h, state) the next ones and
    the mask of frames at their fixed point (None: no frame stops), which
    leave the live set: a step depends on the masses alone."""
    out = np.zeros((k, v.shape[1]))
    for lo in range(0, active.size, MM_BLOCK_FRAMES):
        live = active[lo:lo + MM_BLOCK_FRAMES]
        block = v[:, live]
        h, state = start(block)
        for _ in range(iterations):
            h, state, done = step(block, h, state)
            if done is not None and done.any():
                out[:, live[done]] = h[:, done]
                live, block, h, state = live[~done], block[:, ~done], h[:, ~done], state[~done]
                if live.size == 0:
                    break
        out[:, live] = h
    return out


def _group_mm(values: np.ndarray, v: np.ndarray, active: np.ndarray,
              config: SolverConfig) -> np.ndarray:
    """The masses of tests/oracles.py's ost_group_frame for the columns
    `active` of v (M x N), bit for bit, each step taking a frame's argmin
    only over the columns that can still win one of its rows. With penalty
    p and the previous step's labels l (the unpenalised argmin before the
    first step), every row's new minimum is at most
    bound = max_i fl(c_{i,l_i} + p_{l_i}). Float addition rounds
    monotonically, so a column with fl(min_i c_ik + p_k) > bound costs more
    than bound on every row: it is never a row's minimum, nor ties it.

    A frame that keeps more than half of K takes the full argmin, as the
    oracle does: gathering would save less than half of its cells. While
    every live frame holds mass in more than half of K, as at the first
    step, the bound is not computed. The other frames go to buckets of at
    most 2, 4, 8, 16, 32 or K/2 kept columns, gathered _GATHER_CELLS cost
    cells at a time."""
    m, k = values.shape
    by_column = np.ascontiguousarray(values.T)  # gathered columns are rows
    col_min = by_column.min(axis=1)
    caps = [w for w in (2, 4, 8, 16, 32) if w < k // 2] + [k // 2] * (k > 1)
    full_step = np.empty((m, k))
    first = values.argmin(axis=1)

    def start(block):
        return _column_masses(first, block, k), np.tile(first, (block.shape[1], 1))

    def step(block, h, labels):
        n = block.shape[1]
        pen = config.lambda_g * _group_penalty_row(h)
        full = range(n)
        if 2 * min((h > 0).sum(axis=0).tolist()) <= k:
            bound = values[np.arange(m), labels] + pen[labels, np.arange(n)[:, None]]
            keep = col_min[:, None] + pen <= bound.max(axis=1)
            bucket = np.searchsorted(caps, np.count_nonzero(keep, axis=0))
            order = np.argsort(bucket, kind="stable")
            ends = [0] + np.cumsum(np.bincount(bucket, minlength=len(caps) + 1)).tolist()
            # each frame's kept columns, then the others, which pad a bucket's
            # rows and, costing more than the bound, change no minimum
            ranked = np.argsort(~keep, axis=0, kind="stable")
            for w, lo, hi in zip(caps, ends, ends[1:]):
                chunk = max(1, _GATHER_CELLS // (w * m))
                for c in range(lo, hi, chunk):
                    sel = order[c:min(c + chunk, hi)]
                    labels[sel] = _gathered_labels(by_column, pen, ranked[:w, sel].T, sel)
            full = order[ends[len(caps)]:].tolist()
        for f in full:  # the oracle's argmin
            np.add(values, pen[:, f], out=full_step)
            labels[f] = full_step.argmin(axis=1)
        new = _column_masses(labels, block, k)
        return new, labels, (new == h).all(axis=0)

    return _mm_blocks(v, active, k, config.mm_iterations, start, step)


def _gathered_labels(by_column, pen, cols, frames):
    """The frames' labels over their gathered columns cols (a row of column
    indices per frame): each row's lowest column whose penalised cost is the
    row minimum, argmin's tie rule. Min and equality do not round."""
    k = by_column.shape[0]
    index = np.min_scalar_type(2 * k - 1).type  # a column, or k plus one
    cand = by_column[cols]
    cand += pen[cols, frames[:, None]][:, :, None]
    low = cand.min(axis=1)
    key = (cand != low[:, None]).view(np.uint8) * index(k)
    key += cols.astype(index)[:, :, None]
    return key.min(axis=1)


def _combined_mm(values: np.ndarray, v: np.ndarray, active: np.ndarray,
                 config: SolverConfig) -> np.ndarray:
    """The masses of tests/oracles.py's ost_combined_frame for the columns
    `active` of v (M x N), by the factorised step H = W * E^T (V / E W) over
    blocks of frames. Every iteration runs: the entropic loop has no exact
    fixed point.

    Both products run over the support, the columns whose weight is nonzero
    in some frame of the block; the others get mass exactly 0, as in the
    full products. The penalty empties most columns within a few steps."""
    lam_e, lam_g = config.lambda_e, config.lambda_g
    k = values.shape[1]
    kernel = _gibbs_kernel(values, lam_e)
    labels = kernel / kernel.sum(axis=1, keepdims=True)

    def step(block, h, _):
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
            _add_underflowed_rows(h, values, block, pen, low & (block > 0), lam_e)
        return h, None, None

    # block / s may overflow or be 0 / 0 where s underflows; those entries
    # are reset in the step
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _mm_blocks(v, active, k, config.mm_iterations,
                          lambda block: (labels.T @ block, None), step)


def _add_underflowed_rows(h, values, block, pen, under, lam_e):
    """Add to h the mass of the (row, frame) pairs flagged in `under`, each
    row solved by the softmax that tests/oracles.py's ost_combined_frame
    evaluates. All pairs are solved together, M at a time, so the
    temporaries stay within one M x K matrix."""
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

    `ost` and `ost_g` match ost_frame and ost_group_frame of
    tests/oracles.py bit for bit; `ost_eg` sums in another order and
    matches its ost_combined_frame to rounding. Raises NumericError if the
    activations are not finite.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if config is None:
        config = SolverConfig()
    columns = frames.columns
    if columns.shape[0] != cost.values.shape[0]:
        raise ValueError("frame rows must match cost rows")
    active = np.flatnonzero(frames.active_mask)
    if active.size == 0:
        return Activations(values=np.zeros((cost.values.shape[1], columns.shape[1])))

    # The kernels gather the active columns block by block (no kernel writes
    # into its frame argument), so no M x N copy of the frames is made.
    if variant == "ost":
        out = _hard_assign(cost.values, columns, active)
    elif variant == "ost_g":
        out = _group_mm(cost.values, columns, active, config)
    elif config.lambda_e <= 0:
        raise ValueError(f"variant {variant} requires lambda_e > 0")
    elif variant == "ost_e":
        # one product over every column, masked ones zeroed after: a product
        # per block of columns would sum in another order
        out = _softmax_labels(cost.values, config.lambda_e).T @ columns
        out[:, ~frames.active_mask] = 0.0
    else:
        out = _combined_mm(cost.values, columns, active, config)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"variant {variant} produced non-finite activations")
    return Activations(values=out)
