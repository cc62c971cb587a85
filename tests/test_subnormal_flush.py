"""Subnormal-free BLAS operands.

make_harmonic_dictionary and the Gibbs kernel E = exp(-C/lambda_e) store
entries below the smallest normal double as 0, because subnormal operands
slow BLAS products 2x or more. These tests check that no such entry is left
on a realistic grid, and that the flush does not change what PLCA, ost_e
and ost_eg compute: each is compared with the same solver run on unflushed
operands built here. The Gibbs kernel and the ost_eg weights evaluate exp
only where the result can be normal or nonzero; that cut is bitwise equal.
"""

import numpy as np
import pytest

from ost import solvers
from ost.baselines import plca_unmix
from ost.costs import append_noise_column, harmonic_cost
from ost.dictionary import (DEFAULT_DAMPING, DEFAULT_N_PARTIALS, SMALLEST_NORMAL,
                            harmonic_column, make_harmonic_dictionary,
                            midi_range_fundamentals)
from ost.evaluation import NoteEvent
from ost.frontend import normalize_frames, stft_magnitude
from ost.solvers import unmix
from ost.synth import render_notes

FS, WINDOW_LEN, HOP = 22050, 2048, 1024  # M = 1024 bins of 10.77 Hz
FUNDAMENTALS = midi_range_fundamentals(21, 108)  # 88 notes
KERNEL_WIDTH_BINS = 2.0
EPS0, LAMBDA_E, LAMBDA_G, NOISE = 10.0, 30.0, 300.0, 30.0


def subnormal_count(a):
    return int(np.count_nonzero((a > 0) & (a < SMALLEST_NORMAL)))


def grid():
    return (np.arange(WINDOW_LEN // 2) + 1) * (FS / WINDOW_LEN)


def kernel_width(freqs):
    return KERNEL_WIDTH_BINS * (freqs[1] - freqs[0])


def unflushed_templates(freqs):
    """make_harmonic_dictionary's columns, at its default damping and
    partial count, before the flush."""
    weights = np.exp(-DEFAULT_DAMPING * np.arange(1, DEFAULT_N_PARTIALS + 1))
    cols = [harmonic_column(freqs, nu, kernel_width(freqs), weights)
            for nu in FUNDAMENTALS]
    return np.stack([c / c.sum() for c in cols], axis=1)


def unflushed_kernel(values, lambda_e):
    """_gibbs_kernel before the flush."""
    z = -values / lambda_e
    z -= z.max(axis=1, keepdims=True)
    return np.exp(z)


def test_harmonic_dictionary_has_no_subnormal_entries():
    freqs = grid()
    w = make_harmonic_dictionary(freqs, FUNDAMENTALS, kernel_width(freqs))
    raw = unflushed_templates(freqs)
    assert w.shape == (1024, 88)
    assert subnormal_count(raw) > 0  # the grid does produce some
    assert subnormal_count(w) == 0
    np.testing.assert_array_equal(w, np.where(raw < SMALLEST_NORMAL, 0.0, raw))
    assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-12


def test_gibbs_kernel_has_no_subnormal_entries():
    freqs = grid()
    values = harmonic_cost(freqs, FUNDAMENTALS, EPS0).values
    kernel = solvers._gibbs_kernel(values, LAMBDA_E)
    raw = unflushed_kernel(values, LAMBDA_E)
    assert subnormal_count(raw) > 0
    assert subnormal_count(kernel) == 0
    np.testing.assert_array_equal(kernel, np.where(raw < SMALLEST_NORMAL, 0.0, raw))


def test_exp_cut_is_bitwise_equal():
    # _gibbs_kernel evaluates exp only for z >= EXP_NORMAL_FLOOR and the MM
    # weights only for z >= EXP_ZERO_FLOOR: below the first exp is
    # subnormal (flushed anyway), below the second it is exactly 0
    z = np.concatenate([np.linspace(-760.0, -700.0, 60001),
                        [solvers.EXP_NORMAL_FLOOR, solvers.EXP_ZERO_FLOOR,
                         np.log(SMALLEST_NORMAL)]])
    z = np.concatenate([z, np.nextafter(z, 0.0), np.nextafter(z, -np.inf)])
    values = np.stack([np.zeros_like(z), -z], axis=1)  # row max 0 at column 0
    kernel = solvers._gibbs_kernel(values, 1.0)
    np.testing.assert_array_equal(kernel[:, 1], np.where(np.exp(z) < SMALLEST_NORMAL,
                                                         0.0, np.exp(z)))
    assert np.any((kernel[:, 1] > 0) & (z < -708.3))  # the flush boundary is inside
    np.testing.assert_array_equal(np.exp(z[z < solvers.EXP_ZERO_FLOOR]), 0.0)
    assert np.any(np.exp(z[z >= solvers.EXP_ZERO_FLOOR]) > 0)
    assert np.exp(solvers.EXP_NORMAL_FLOOR) < SMALLEST_NORMAL


@pytest.fixture(scope="module")
def piece_frames():
    """Four seconds of random one- to three-note chords, rendered and
    analysed on the grid above."""
    rng = np.random.default_rng(0)
    events, t = [], 0.0
    while t < 4.0:
        length = min(rng.uniform(0.4, 0.9), 4.0 - t)
        if length < 0.2:
            break
        for pitch in rng.choice(np.arange(45, 81), size=rng.integers(1, 4),
                                replace=False):
            events.append(NoteEvent(t, t + length, int(pitch)))
        t += length
    audio = render_notes(events, sample_rate=FS, inharmonicity=0.01, seed=0)
    spec = stft_magnitude(audio, WINDOW_LEN, HOP)
    np.testing.assert_array_equal(spec.freqs, grid())
    return normalize_frames(spec)


def test_plca_matches_unflushed_templates(piece_frames):
    freqs = grid()
    flushed = make_harmonic_dictionary(freqs, FUNDAMENTALS, kernel_width(freqs))
    raw = unflushed_templates(freqs)
    acts, state = plca_unmix(piece_frames, flushed)
    ref_acts, ref_state = plca_unmix(piece_frames, raw)
    np.testing.assert_array_equal(state.iterations, ref_state.iterations)
    np.testing.assert_allclose(acts, ref_acts, rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", ["ost_e", "ost_eg"])
def test_entropic_variants_match_unflushed_kernel(piece_frames, variant, monkeypatch):
    cost = harmonic_cost(grid(), FUNDAMENTALS, EPS0)
    if variant == "ost_e":
        cost = append_noise_column(cost, NOISE)
    acts = unmix(piece_frames, cost, variant, lambda_e=LAMBDA_E, lambda_g=LAMBDA_G)
    monkeypatch.setattr(solvers, "_gibbs_kernel", unflushed_kernel)
    ref = unmix(piece_frames, cost, variant, lambda_e=LAMBDA_E, lambda_g=LAMBDA_G)
    np.testing.assert_allclose(acts, ref, rtol=0, atol=1e-12)
