"""Batched spectral transport solvers on the reduced cost matrix.

`unmix` solves every active frame v (length M) of a frame matrix under a
reduced M x K cost. Transporting onto Dirac targets decouples row-wise, so:

- ost assigns each bin's mass to its cheapest column (an argmin scan);
- ost_e replaces the argmin with a row softmax;
- ost_g promotes sparse activations by majorization-minimization,
  re-solving the assignment against a cost augmented with a per-column
  penalty derived from the current column masses;
- ost_eg runs the same MM loop with the entropic inner solve.

So the four variants are two kernels, hard (_group_mm) and entropic
(_combined_mm), each run for config.mm_iterations MM steps or none: ost is
ost_g's start alone and ost_e is ost_eg's. Both kernels run on one driver
over blocks of MM_BLOCK_FRAMES active frames (_mm_blocks). They return the
column masses only, never a plan. Their per-frame references, which build
the plan and the objective trace, are the functions of tests/oracles.py;
ost and ost_g match them bit for bit, ost_e and ost_eg to rounding (their
products sum in another order).

An ost_g frame leaves its block's live set once its masses repeat, an
ost_eg frame runs every iteration. Every ost_g step takes each frame's
argmin only over the columns that can still win one of its rows, by a
bound from each column's smallest and largest cost, exact as float
addition rounds monotonically (see _kept_columns); the penalty leaves a
frame a few notes within a few steps, and frames that keep about as many
columns share one gather. The hard kernel runs with numpy's ufunc buffer
at one cost row, so that operands broadcast along the rows are not copied
across rows, and gives the caller's buffer size back. The ost_eg step uses
that the group penalty p only rescales columns:
softmax_k(-(c_ik + p_k)/lambda_e) = E_ik w_k / sum_k E_ik w_k, with
E = exp(-C/lambda_e) computed once. For a block of frames V one MM step is
H = W * E^T (V / E W), two matrix products in place of an M x K exp per
frame (the scaling step of Sinkhorn's algorithm). The products run over the
block's support, the columns whose weight is nonzero in some frame: the
penalty leaves a frame a few notes, so on piece30 the support falls from a
mean of 86 of 88 columns at the first step to 42 at the third and 29 at
the tenth. Blocks are gathered in F order and E is kept transposed, so
that E W comes out in the block's layout (a divide of mixed layouts costs
over twice as much). The (row, frame) pairs where E W underflows are solved
by the per-frame softmax over the columns it gives a normal share, all
pairs of a block-step at once.
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
# The largest lambda_g whose product with an empty column's penalty, 5e5, is
# finite; past it that penalty is infinite and ost_g sends all to column 0.
MAX_LAMBDA_G = 3.595386269724631e+302
# Frames per block of the batched kernels; bounds their M x block temporaries.
MM_BLOCK_FRAMES = 128
_GATHER_CELLS = 2 ** 17  # cost cells an ost_g step gathers at once: 1 MB, in cache
_FULL_ARGMIN_CELLS = 2 ** 14  # fewer cost cells in an ost_g block-step: no bound
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


@dataclass
class SolverConfig:
    """Regularization weights and iteration counts for the solver family."""

    lambda_e: float = 0.0
    lambda_g: float = 0.0
    mm_iterations: int = DEFAULT_MM_ITERATIONS

    def __post_init__(self):
        if not 0 <= self.lambda_e < np.inf:
            raise ValueError("lambda_e must be finite and non-negative")
        if not 0 <= self.lambda_g <= MAX_LAMBDA_G:
            raise ValueError(f"lambda_g must be finite, non-negative and at "
                             f"most {MAX_LAMBDA_G!r}")
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


def _mm_blocks(v: np.ndarray, active: np.ndarray, k: int, iterations: int,
               start, step) -> np.ndarray:
    """K x N masses of an MM kernel for the columns `active` of v (M x N),
    zero in the others, per block of MM_BLOCK_FRAMES active columns, each
    gathered from v in F order, whatever v's layout, as it starts (fastest
    from F-ordered frames, as load_frames returns). start(block) gives a
    block's first masses (K x n); step(block, h) the next ones and the mask
    of frames at their fixed point (None: none), which leave the live set."""
    out = np.zeros((k, v.shape[1]))
    for lo in range(0, active.size, MM_BLOCK_FRAMES):
        live = active[lo:lo + MM_BLOCK_FRAMES]
        block = np.asfortranarray(v[:, live])
        h = start(block)
        for _ in range(iterations):
            h, done = step(block, h)
            if done is not None and done.any():
                out[:, live[done]] = h[:, done]
                live, block, h = live[~done], block[:, ~done], h[:, ~done]
                if live.size == 0:
                    break
        out[:, live] = h
    return out


def _kept_columns(col_min, col_max, pen):
    """K x n mask of the columns that can hold a row minimum of values + p
    for each frame's penalty p (a column of pen). Float addition rounds
    monotonically, so no row's minimum exceeds bound = min_k fl(colmax_k +
    p_k), and a column with fl(colmin_k + p_k) > bound is never a row's
    minimum, nor ties one. The column setting the bound is always kept."""
    bound = (col_max[:, None] + pen).min(axis=0)
    return col_min[:, None] + pen <= bound


def _group_mm(values: np.ndarray, v: np.ndarray, active: np.ndarray,
              config: SolverConfig, iterations: int) -> np.ndarray:
    """The masses of tests/oracles.py's ost_group_frame with `iterations`
    MM steps (ost_frame's at 0) for the columns `active` of v (M x N), bit
    for bit, each step taking a frame's argmin only over the columns
    _kept_columns keeps for its penalty.

    A frame that keeps more than half of K takes the full argmin, as the
    oracle does: gathering would save less than half of its cells. The
    other frames go to buckets of at most 2, 4, 8, 16, 32 or K/2 kept
    columns, gathered _GATHER_CELLS cost cells at a time. A block-step of
    fewer than _FULL_ARGMIN_CELLS cost cells (M x K x live frames), where
    the bound costs more than it saves, takes the full argmin for all."""
    m, k = values.shape
    lambda_g = config.lambda_g
    by_column = np.ascontiguousarray(values.T)  # gathered columns are rows
    col_min, col_max = by_column.min(axis=1), by_column.max(axis=1)
    caps = [w for w in (2, 4, 8, 16, 32) if w < k // 2] + [k // 2] * (k > 1)
    full_step = np.empty((m, k))
    first = values.argmin(axis=1)

    def step(block, h):
        n = block.shape[1]
        pen = lambda_g * _group_penalty_row(h)
        pen_rows = np.ascontiguousarray(pen.T)  # a frame's penalty, read per row
        labels = np.empty((n, m), dtype=np.intp)
        full = range(n)
        if m * k * n >= _FULL_ARGMIN_CELLS:
            keep = _kept_columns(col_min, col_max, pen)
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
                    labels[sel] = _gathered_labels(by_column, pen_rows, ranked[:w, sel].T, sel)
            full = order[ends[len(caps)]:].tolist()
        for f in full:  # the oracle's argmin
            np.add(values, pen_rows[f], out=full_step)
            labels[f] = full_step.argmin(axis=1)
        new = _column_masses(labels, block, k)
        return new, (new == h).all(axis=0)

    # A ufunc buffer of one cost row (numpy 1.x wants a multiple of 16): the
    # stride-0 operands broadcast along the rows are then not copied across
    # rows. The caller's size comes back in the finally; errstate does not
    # restore it on numpy 1.x. A penalty that overflows is +inf, as in
    # tests/oracles.py's ost_group_frame.
    bufsize = np.setbufsize(max(16, m // 16 * 16))
    try:
        with np.errstate(over="ignore"):
            return _mm_blocks(v, active, k, iterations,
                              lambda block: _column_masses(first, block, k), step)
    finally:
        np.setbufsize(bufsize)


def _gathered_labels(by_column, pen_rows, cols, frames):
    """The frames' labels over their gathered columns cols (a row of column
    indices per frame): each row's lowest column whose penalised cost is the
    row minimum, argmin's tie rule. Min and equality do not round."""
    k = by_column.shape[0]
    index = np.min_scalar_type(2 * k - 1).type  # a column, or k plus one
    cand = by_column[cols]
    cand += pen_rows[frames[:, None], cols][:, :, None]
    low = cand.min(axis=1)
    key = (cand != low[:, None]).view(np.uint8) * index(k)
    key += cols.astype(index)[:, :, None]
    return key.min(axis=1)


def _combined_mm(values: np.ndarray, v: np.ndarray, active: np.ndarray,
                 config: SolverConfig, iterations: int) -> np.ndarray:
    """The masses of tests/oracles.py's ost_combined_frame with `iterations`
    MM steps (ost_entropic_frame's at 0) for the columns `active` of v
    (M x N), by the factorised step H = W * E^T (V / E W) over blocks of
    frames. Every iteration runs: the entropic loop has no exact fixed
    point.

    Both products run over the support, the columns whose weight is nonzero
    in some frame of the block; the others get mass exactly 0, as in the
    full products. The penalty empties most columns within a few steps."""
    lam_e, lam_g = config.lambda_e, config.lambda_g
    k = values.shape[1]
    kernel = _gibbs_kernel(values, lam_e)
    labels = kernel / kernel.sum(axis=1, keepdims=True)
    kernel_t = np.ascontiguousarray(kernel.T) if iterations else None

    def step(block, h):
        pen = lam_g * _group_penalty_row(h)
        z = (pen.min(axis=0) - pen) / lam_e
        w = np.exp(z, out=np.zeros_like(z), where=z >= EXP_ZERO_FLOOR)
        support = np.flatnonzero(w.any(axis=1))
        full = support.size == k
        e_t = kernel_t if full else kernel_t[support]
        w_s = w if full else w[support]
        s = (w_s.T @ e_t).T  # E W in the F order of block
        low = s < UNDERFLOW_FLOOR
        ratio = np.divide(block, s, out=s)
        ratio[low] = 0.0
        h_s = w_s * (e_t @ ratio)
        if full:
            h = h_s
        else:
            h = np.zeros_like(w)
            h[support] = h_s
        if low.any():
            _add_underflowed_rows(h, values, block, pen, low & (block > 0), lam_e)
        return h, None

    # block / s may overflow or be 0 / 0 where s underflows; those entries
    # are reset in the step
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _mm_blocks(v, active, k, iterations,
                          lambda block: labels.T @ block, step)


def _add_underflowed_rows(h, values, block, pen, under, lam_e):
    """Add to h the mass of the (row, frame) pairs flagged in `under`, each
    row solved by tests/oracles.py's softmax over the columns within
    -EXP_NORMAL_FLOOR * lam_e of its least c + p, the only ones whose share
    is normal (Schmitzer's kernel truncation). One pass over all K columns
    finds them; the exp, sums and scatter run over those cells alone, M
    pairs at a time, so the temporaries stay within a few M x K matrices."""
    m, n = under.shape
    k = values.shape[1]
    cols, rows = np.divmod(np.flatnonzero(under.T), m)  # frame by frame
    for lo in range(0, rows.size, m):
        r, c = rows[lo:lo + m], cols[lo:lo + m]
        x = values[r] + pen.T[c]
        least = x.min(axis=1)
        edge = (least - EXP_NORMAL_FLOOR * lam_e)[:, None]
        pair, col = np.divmod(np.flatnonzero(x <= edge), k)
        z = x[pair, col] / -lam_e
        z -= (least / -lam_e)[pair]  # the softmax's per-row max subtraction
        share = np.exp(z)
        share[share < SMALLEST_NORMAL] = 0.0
        share /= np.bincount(pair, weights=share, minlength=r.size)[pair]
        share *= block[r, c][pair]
        h += np.bincount(col * n + c[pair], weights=share,
                         minlength=k * n).reshape(k, n)


def unmix(frames: NormalizedFrames, cost: CostMatrix,
          config: SolverConfig = None, variant: str = "ost") -> np.ndarray:
    """The K x N activations of the frames: column n holds the column
    masses of frame n, zero for a masked frame. The entropic variants run
    _combined_mm, the others _group_mm, with config.mm_iterations MM steps
    for ost_g and ost_eg and none for ost and ost_e: ost is ost_g's start,
    ost_e is ost_eg's. ost and ost_g match tests/oracles.py's ost_frame and
    ost_group_frame bit for bit, ost_e and ost_eg match its
    ost_entropic_frame and ost_combined_frame to rounding. Raises
    NumericError if the activations are not finite.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if config is None:
        config = SolverConfig()
    entropic = variant in ("ost_e", "ost_eg")
    if entropic and config.lambda_e <= 0:
        raise ValueError(f"variant {variant} requires lambda_e > 0")
    if frames.columns.shape[0] != cost.values.shape[0]:
        raise ValueError("frame rows must match cost rows")
    kernel = _combined_mm if entropic else _group_mm
    iterations = config.mm_iterations if variant in ("ost_g", "ost_eg") else 0
    # The kernels gather the active columns block by block (no kernel writes
    # into its frame argument), so no M x N copy of the frames is made.
    out = kernel(cost.values, frames.columns, np.flatnonzero(frames.active_mask),
                 config, iterations)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"variant {variant} produced non-finite activations")
    return out
