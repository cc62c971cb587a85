"""Independent reference for every output the benchmark checks.

Written from the formulas in the package docstrings, not by importing the
package, so a later change to the program cannot move its own reference.
The paths that must agree bit for bit (frontend, cost, `ost`, `ost_g`,
toy synthesis) evaluate the same floating-point expressions in the same
order as commit 84281d5. The iterative paths are batched over frames, so
they agree within the tolerances below:

- ENTROPIC_ATOL: `ost_e`/`ost_eg` activations, the 1e-12 bound that
  refactors of the entropic solvers must keep; the factorised MM step used
  here stays near 1e-15 of the per-frame softmax.
- PLCA_ATOL: PLCA activations. Batched EM (W @ H products in place of one
  matrix-vector product per frame) was measured 1.8e-6 away from the
  per-frame loop after 1000 multiplicative steps; the bound leaves room for
  that. The batched EM here stops each frame where the loop stops.
- LP_ATOL: `ot_h` l1 errors. The reference LP is solved by HiGHS, an
  independent solver; it and the dense simplex agree to about 1e-7.

Text read back from the program is rounded to 12 significant digits, so
every tolerance also admits half a unit in that digit.
"""

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

ENTROPIC_ATOL = 1e-12
PLCA_ATOL = 1e-5
LP_ATOL = 1e-6
ROUND_RTOL = 5e-12

MIDI_LOW, MIDI_HIGH = 21, 108
SILENCE = 1e-10
MM_ITERATIONS = 10
MASS_FLOOR = 1e-12
KL_FLOOR = 1e-300
PLCA_MAX_ITER = 1000
PLCA_REL_TOL = 1e-5
STFT_CHUNK = 512


def midi_to_freq(midi):
    return 440.0 * 2.0 ** ((midi - 69) / 12.0)


def fundamentals():
    return np.array([midi_to_freq(m) for m in range(MIDI_LOW, MIDI_HIGH + 1)])


# ---------------------------------------------------------------------------
# frontend


def frames_from_pcm(pcm, sample_rate, window_len, hop):
    """Hann-windowed |rfft| frames without DC, each active column scaled to
    sum to one. Returns (columns M x N, active mask, bin freqs)."""
    x = pcm.astype(np.float64) / 32768.0
    window = np.hanning(window_len)
    n_frames = (x.size - window_len) // hop + 1
    m = window_len // 2
    values = np.empty((n_frames, m))
    for start in range(0, n_frames, STFT_CHUNK):
        stop = min(start + STFT_CHUNK, n_frames)
        idx = np.arange(start, stop)[:, None] * hop + np.arange(window_len)
        values[start:stop] = np.abs(np.fft.rfft(x[idx] * window, axis=1)[:, 1:])
    sums = values.sum(axis=1)
    active = sums > SILENCE
    columns = np.zeros((m, n_frames))
    columns[:, active] = values[active].T / sums[active]
    freqs = (np.arange(m) + 1) * (sample_rate / window_len)
    return columns, active, freqs


# ---------------------------------------------------------------------------
# costs and templates


def harmonic_cost(f_rows, f_cols, eps0):
    """min over q of (f - q nu)^2 + q eps0 [q >= 2], evaluated at q = 1 and
    at the two integers bracketing the q >= 2 branch's vertex."""
    f = f_rows[:, None]
    nu = f_cols[None, :]
    ratio = f / nu
    qmax = np.ceil(ratio)
    best = (f - nu) ** 2
    vertex = ratio - eps0 / (2.0 * nu ** 2)
    for q_int in (np.floor(vertex), np.ceil(vertex)):
        q = np.clip(q_int, 2.0, np.maximum(qmax, 2.0))
        cand = (f - q * nu) ** 2 + q * eps0
        np.minimum(best, np.where(qmax >= 2, cand, np.inf), out=best)
    return best


def comb(freqs, nu, width, weights):
    col = np.zeros_like(freqs)
    two_var = 2.0 * width ** 2
    for p, w in enumerate(weights, start=1):
        center = p * nu
        if center > freqs[-1]:
            break
        col += w * np.exp(-((freqs - center) ** 2) / two_var)
    return col


def templates(freqs, fund, width, damping=0.3, n_partials=8):
    weights = np.exp(-damping * np.arange(1, n_partials + 1))
    out = np.empty((freqs.size, fund.size))
    for k, nu in enumerate(fund):
        col = comb(freqs, nu, width, weights)
        out[:, k] = col / col.sum()
    return out


# ---------------------------------------------------------------------------
# solvers, batched over the active frames V (M x N)


def solve_ost(cost, v):
    h = np.zeros((cost.shape[1], v.shape[1]))
    np.add.at(h, np.argmin(cost, axis=1), v)
    return h


def softmax_rows(cost, lambda_e):
    z = -cost / lambda_e
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    e /= e.sum(axis=1, keepdims=True)
    return e


def solve_ost_e(cost, v, lambda_e):
    return softmax_rows(cost, lambda_e).T @ v


def _penalty(h):
    return 0.5 / np.sqrt(np.maximum(h, MASS_FLOOR))


def _masses(labels, v, k):
    """Row-wise bincount: masses of each frame (row of v) per label."""
    n = labels.shape[0]
    flat = np.bincount((labels + k * np.arange(n)[:, None]).ravel(),
                       weights=v.ravel(), minlength=n * k)
    return flat.reshape(n, k)


def solve_ost_g(cost, v, lambda_g, iterations=MM_ITERATIONS, chunk=32):
    """MM with the hard inner step. A frame whose masses repeat has reached
    a fixed point (every later iteration is identical), so it drops out."""
    k = cost.shape[1]
    out = np.empty((k, v.shape[1]))
    for start in range(0, v.shape[1], chunk):
        vc = v[:, start:start + chunk].T.copy()
        h = _masses(np.broadcast_to(np.argmin(cost, axis=1), vc.shape), vc, k)
        live = np.arange(vc.shape[0])
        for _ in range(iterations):
            if live.size == 0:
                break
            pen = lambda_g * _penalty(h[live])
            labels = np.argmin(cost[None, :, :] + pen[:, None, :], axis=2)
            new = _masses(labels, vc[live], k)
            moved = np.any(new != h[live], axis=1)
            h[live] = new
            live = live[moved]
        out[:, start:start + chunk] = h.T
    return out


def solve_ost_eg(cost, v, lambda_e, lambda_g, iterations=MM_ITERATIONS):
    """MM with the entropic inner step, factorised: the group penalty only
    rescales columns, so softmax_k(-(C_ik + lambda_g r_k)/lambda_e) is
    E_ik w_k / sum_k E_ik w_k with E fixed. Frames where some row's sum
    underflows are solved directly with per-row max subtraction."""
    z = -cost / lambda_e
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    h = (e / e.sum(axis=1, keepdims=True)).T @ v
    for _ in range(iterations):
        pen = lambda_g * _penalty(h)
        scaled = -(pen - pen.min(axis=0, keepdims=True)) / lambda_e
        w = np.exp(scaled)
        s = e @ w
        bad = np.any((s < 1e-280) & (v > 0), axis=0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            new = w * (e.T @ np.where(v > 0, v / s, 0.0))
        for j in np.flatnonzero(bad):
            new[:, j] = softmax_rows(cost + pen[:, j][None, :], lambda_e).T @ v[:, j]
        h = new
    return h


def solve_plca(w, v, max_iter=PLCA_MAX_ITER, rel_tol=PLCA_REL_TOL):
    """Multiplicative EM on the simplex, batched over frames, each frame
    stopping where the per-frame loop stops (relative KL change <= rel_tol)."""
    k, n = w.shape[1], v.shape[1]
    h = np.full((k, n), 1.0 / k)
    prev = np.full(n, np.nan)
    live = np.arange(n)
    support = v > 0
    vhat = np.maximum(w @ h, KL_FLOOR)
    for _ in range(max_iter):
        vl = v[:, live]
        hl = h[:, live] * (w.T @ (vl / vhat))
        total = hl.sum(axis=0)
        hl = np.where(total > 0, hl / np.where(total > 0, total, 1.0), hl)
        h[:, live] = hl
        vhat = np.maximum(w @ hl, KL_FLOOR)
        sl = support[:, live]
        obj = np.sum(np.where(sl, vl * np.log(np.where(sl, vl / vhat, 1.0)), 0.0),
                     axis=0)
        p = prev[live]
        done = ~np.isnan(p) & (np.abs(p - obj)
                               <= rel_tol * np.maximum(np.abs(p), KL_FLOOR))
        prev[live] = obj
        live, vhat = live[~done], vhat[:, ~done]
        if live.size == 0:
            break
    return h


def solve_lp_unmix(frame, w, cost):
    """Joint LP over (vec T, h): min <T, C> s.t. T 1 = v, T^T 1 = W h."""
    m, k = w.shape
    rows = sp.kron(sp.eye(m), np.ones((1, m)))
    cols = sp.kron(np.ones((1, m)), sp.eye(m))
    a = sp.vstack([sp.hstack([rows, sp.csr_matrix((m, k))]),
                   sp.hstack([cols, sp.csr_matrix(-w)])]).tocsr()
    res = linprog(np.concatenate([cost.ravel(), np.zeros(k)]), A_eq=a,
                  b_eq=np.concatenate([frame, np.zeros(m)]), bounds=(0, None),
                  method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return res.x[m * m:]


# ---------------------------------------------------------------------------
# transcription and scoring


def piece_activations(method, columns, active, freqs, eps0, lambda_e,
                      lambda_g, noise):
    """Full activation matrix (pitch rows, then a noise row if any) and the
    row labels `ost transcribe` writes."""
    fund = fundamentals()
    labels = [str(m) for m in range(MIDI_LOW, MIDI_HIGH + 1)]
    v = columns[:, active]
    if method == "plca":
        width = 2.0 * float(freqs[1] - freqs[0])
        h = solve_plca(templates(freqs, fund, width), v)
    else:
        cost = harmonic_cost(freqs, fund, eps0)
        if noise is not None:
            cost = np.hstack([cost, np.full((cost.shape[0], 1), noise)])
            labels.append("noise")
        if method == "ost":
            h = solve_ost(cost, v)
        elif method == "ost_e":
            h = solve_ost_e(cost, v, lambda_e)
        elif method == "ost_g":
            h = solve_ost_g(cost, v, lambda_g)
        else:
            h = solve_ost_eg(cost, v, lambda_e, lambda_g)
    out = np.zeros((h.shape[0], columns.shape[1]))
    out[:, active] = h
    return out, labels


def truth_roll(events, n_frames, t0, hop_seconds):
    centers = t0 + np.arange(n_frames) * hop_seconds
    roll = np.zeros((MIDI_HIGH - MIDI_LOW + 1, n_frames), dtype=bool)
    for onset, offset, pitch in events:
        if MIDI_LOW <= pitch <= MIDI_HIGH:
            roll[pitch - MIDI_LOW, (centers >= onset) & (centers < offset)] = True
    return roll


def score(values, truth):
    """Frame-level (tp, fp, fn, F) after keeping, per frame, the P_n largest
    activations, P_n the true polyphony (ties to the lowest index)."""
    estimate = np.zeros_like(truth)
    polyphony = truth.sum(axis=0)
    order = np.argsort(-values, axis=0, kind="stable")
    for n in np.flatnonzero(polyphony):
        estimate[order[:polyphony[n], n], n] = True
    tp = int((estimate & truth).sum())
    fp = int((estimate & ~truth).sum())
    fn = int((~estimate & truth).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return tp, fp, fn, f


# ---------------------------------------------------------------------------
# toy problems (`ost toy` defaults: eps0 1, lambda_e = lambda_g = 300,
# 2-bin kernels, damping 0.3, 8 partials)

TOY_PITCHES = (48, 52, 55, 57, 59, 62, 64, 60)


def toy_problem(scenario, seed, bins, f_max, damping=0.3, n_partials=8):
    """(freqs, frame, h_true, fundamentals, kernel width) of one draw."""
    delta = f_max / bins
    freqs = delta * np.arange(1, bins + 1)
    sigma = 2.0 * delta
    fund = np.array([midi_to_freq(m) for m in TOY_PITCHES])
    rng = np.random.default_rng(seed)
    clean = np.exp(-damping * np.arange(1, n_partials + 1))
    pair = (0, 3) if scenario == "a" else (0, 5)
    v = np.zeros_like(freqs)
    for note, weight in zip(pair, (0.5, 0.5)):
        nu = fund[note]
        if scenario == "a":
            nu = nu * (1.0 + rng.choice((-1.0, 1.0)) * 1.5 / 100.0)
            partials = clean
        else:
            lo, hi = np.log(0.25), np.log(4.0)
            decay = np.exp(-0.1 * np.arange(1, n_partials + 1))
            partials = decay * np.exp(rng.uniform(lo, hi, n_partials))
        col = comb(freqs, nu, sigma, partials)
        v += weight * (col / col.sum())
    h_true = np.zeros(fund.size)
    h_true[list(pair)] = 0.5
    return freqs, v, h_true, fund, sigma


def toy_l1(method, scenario, seed, bins, f_max):
    freqs, v, h_true, fund, sigma = toy_problem(scenario, seed, bins, f_max)
    frame = v[:, None]
    if method == "plca":
        h = solve_plca(templates(freqs, fund, sigma), frame)[:, 0]
    elif method == "ot_h":
        h = solve_lp_unmix(v, templates(freqs, fund, sigma),
                           harmonic_cost(freqs, freqs, 1.0))
    else:
        cost = harmonic_cost(freqs, fund, 1.0)
        if method == "ost":
            h = solve_ost(cost, frame)[:, 0]
        elif method == "ost_e":
            h = solve_ost_e(cost, frame, 300.0)[:, 0]
        elif method == "ost_g":
            h = solve_ost_g(cost, frame, 300.0)[:, 0]
        else:
            h = solve_ost_eg(cost, frame, 300.0, 300.0)[:, 0]
    return float(np.abs(h - h_true).sum())


# ---------------------------------------------------------------------------
# comparisons


def tolerance(method):
    """Absolute tolerance on one activation, or None for exact text."""
    return {"ost": None, "ost_g": None, "ost_e": ENTROPIC_ATOL,
            "ost_eg": ENTROPIC_ATOL, "plca": PLCA_ATOL, "ot_h": LP_ATOL}[method]


def within(measured, expected, atol):
    """measured (read back from 12-digit text) against expected."""
    expected = np.asarray(expected, dtype=np.float64)
    bound = atol + ROUND_RTOL * np.abs(expected)
    return bool(np.all(np.abs(np.asarray(measured) - expected) <= bound))
