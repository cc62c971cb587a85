"""Closed-form solver tests.

Oracles used here:
- a scalar per-row argmin loop for the hard assignment (vectorization check);
- KKT stationarity for the entropic solve: on each row the quantity
  c_ik + lambda_e * (1 + log t_ik) must be constant across the columns that
  carry mass, which pins the row softmax as the unique optimum;
- the penalized-objective traces for the MM loops, which must never increase;
- the per-frame solvers of tests/oracles.py for the batched kernels of
  `unmix`: bit for bit for ost and ost_g, within 1e-12 for ost_e and ost_eg
  (their products sum in another order).
- the row minima of the penalised cost for the ost_g step's column bound:
  every column that is some row's minimum, or ties it, must be kept.
- full_softmax_guard, the ost_eg underflow guard over all K columns, for
  the guard that keeps only the columns with a normal share: within 1e-12.
"""

import re
import warnings

import numpy as np
import pytest

from ost import solvers
from ost.costs import CostMatrix, append_noise_column, harmonic_cost
from ost.dictionary import midi_range_fundamentals
from ost.errors import NumericError
from ost.evaluation import NoteEvent
from ost.frontend import NormalizedFrames, normalize_frames, stft_magnitude
from ost.solvers import DEFAULT_MM_ITERATIONS, MM_BLOCK_FRAMES, unmix
from ost.synth import render_notes

from helpers import active_copy, partly_masked_frames, traced_peak
from oracles import (_softmax_labels, entropy_term, group_term,
                     ost_combined_frame, ost_entropic_frame, ost_frame,
                     ost_group_frame, transport_objective)


FULL_ARGMIN_CELLS = solvers._FULL_ARGMIN_CELLS  # before any test patches it


def toy_cost(values):
    return CostMatrix(values=values)


def random_instance(rng, m, k, scale=5.0):
    cost = toy_cost(rng.uniform(0.0, scale, size=(m, k)))
    v = rng.dirichlet(np.ones(m))
    return v, cost


class TestOstFrame:
    def test_worked_three_bin_example(self):
        cost = toy_cost([[0.0, 4.0],
                         [1.0, 0.0],
                         [5.0, 2.0]])
        v = np.array([0.5, 0.3, 0.2])
        plan, h, _ = ost_frame(v, cost)
        np.testing.assert_array_equal(plan, [[0.5, 0.0],
                                             [0.0, 0.3],
                                             [0.0, 0.2]])
        np.testing.assert_allclose(h, [0.5, 0.5], atol=0)
        assert transport_objective(plan, cost.values) == pytest.approx(0.4)

    def test_matches_scalar_argmin_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            m, k = rng.integers(1, 20), rng.integers(1, 9)
            v, cost = random_instance(rng, m, k)
            _, h, _ = ost_frame(v, cost)
            expected = np.zeros(k)
            for i in range(m):
                expected[min(range(k), key=lambda j: cost.values[i, j])] += v[i]
            np.testing.assert_allclose(h, expected, atol=1e-15)

    def test_marginals(self):
        rng = np.random.default_rng(2)
        v, cost = random_instance(rng, 30, 7)
        plan, h, _ = ost_frame(v, cost)
        np.testing.assert_allclose(plan.sum(axis=1), v, atol=1e-15)
        np.testing.assert_allclose(plan.sum(axis=0), h, atol=1e-15)
        assert h.sum() == pytest.approx(v.sum())

    def test_ties_break_to_lowest_column(self):
        cost = toy_cost([[3.0, 3.0, 3.0]])
        _, h, _ = ost_frame(np.array([1.0]), cost)
        np.testing.assert_array_equal(h, [1.0, 0.0, 0.0])

    def test_row_constant_shift_leaves_assignment_alone(self):
        rng = np.random.default_rng(3)
        v, cost = random_instance(rng, 12, 5)
        shifts = rng.uniform(0.0, 10.0, size=12)
        shifted = toy_cost(cost.values + shifts[:, None])
        _, h, _ = ost_frame(v, cost)
        _, h_shifted, _ = ost_frame(v, shifted)
        np.testing.assert_array_equal(h, h_shifted)


class TestEntropicFrame:
    def test_single_bin_two_target_example(self):
        lam = 2.0
        cost = toy_cost([[0.0, lam * np.log(3.0)]])
        _, h, _ = ost_entropic_frame(np.array([1.0]), cost, lam)
        np.testing.assert_allclose(h, [0.75, 0.25], atol=1e-12)

    def test_kkt_stationarity(self):
        # on every row, c_ik + lam*(1 + log t_ik) must be level across
        # columns: that is the first-order condition of the strictly convex
        # row problem, so it certifies the optimum independently
        rng = np.random.default_rng(10)
        for lam in (0.3, 1.0, 7.0):
            v, cost = random_instance(rng, 15, 6)
            plan, h, _ = ost_entropic_frame(v, cost, lam)
            for i in range(15):
                row = plan[i]
                if v[i] == 0:
                    continue
                mult = cost.values[i] + lam * (1.0 + np.log(row))
                assert mult.max() - mult.min() < 1e-8
            np.testing.assert_allclose(plan.sum(axis=1), v, atol=1e-12)
            np.testing.assert_allclose(plan.sum(axis=0), h, atol=1e-12)

    def test_small_lambda_approaches_hard_assignment(self):
        rng = np.random.default_rng(11)
        v, cost = random_instance(rng, 20, 5)
        _, h_hard, _ = ost_frame(v, cost)
        _, h_soft, _ = ost_entropic_frame(v, cost, 1e-9)
        np.testing.assert_allclose(h_soft, h_hard, atol=1e-6)

    def test_large_lambda_approaches_uniform(self):
        rng = np.random.default_rng(12)
        v, cost = random_instance(rng, 20, 5)
        _, h, _ = ost_entropic_frame(v, cost, 1e12)
        np.testing.assert_allclose(h, 0.2, atol=1e-6)

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(13)
        v, cost = random_instance(rng, 10, 4)
        shifts = rng.uniform(0.0, 4.0, size=10)
        base = toy_cost(cost.values)
        shifted = toy_cost(cost.values + shifts[:, None])
        _, h0, _ = ost_entropic_frame(v, base, 0.7)
        _, h1, _ = ost_entropic_frame(v, shifted, 0.7)
        np.testing.assert_allclose(h0, h1, atol=1e-12)

    def test_joint_scaling_invariance(self):
        # scaling cost and lambda_e together cancels inside the softmax
        rng = np.random.default_rng(14)
        v, cost = random_instance(rng, 10, 4)
        _, h0, _ = ost_entropic_frame(v, cost, 0.9)
        _, h1, _ = ost_entropic_frame(v, toy_cost(37.0 * cost.values), 37.0 * 0.9)
        np.testing.assert_allclose(h0, h1, atol=1e-12)


class TestGroupFrame:
    def test_trace_never_increases(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            m, k = rng.integers(2, 24), rng.integers(2, 8)
            v, cost = random_instance(rng, m, k)
            lam = 10.0 ** rng.uniform(-2, 2)
            _, _, trace = ost_group_frame(v, cost, lam, 12)
            assert trace.size == 13
            assert np.all(np.diff(trace) <= 1e-12)

    def test_penalty_consolidates_split_mass(self):
        # two near-tied columns: the group penalty moves the smaller pile
        # onto the larger one once lambda_g outweighs the 0.1 cost gap
        cost = toy_cost([[0.0, 0.1],
                         [0.1, 0.0]])
        v = np.array([0.6, 0.4])
        _, h_plain, _ = ost_frame(v, cost)
        np.testing.assert_allclose(h_plain, [0.6, 0.4])
        _, h, _ = ost_group_frame(v, cost, 1.0, 10)
        np.testing.assert_allclose(h, [1.0, 0.0], atol=0)

    def test_zero_lambda_reduces_to_plain(self):
        rng = np.random.default_rng(21)
        v, cost = random_instance(rng, 15, 5)
        _, h_plain, _ = ost_frame(v, cost)
        _, h, _ = ost_group_frame(v, cost, 0.0, DEFAULT_MM_ITERATIONS)
        np.testing.assert_array_equal(h, h_plain)

    def test_mass_conserved(self):
        rng = np.random.default_rng(22)
        v, cost = random_instance(rng, 18, 6)
        plan, h, _ = ost_group_frame(v, cost, 5.0, DEFAULT_MM_ITERATIONS)
        np.testing.assert_allclose(plan.sum(axis=1), v, atol=1e-15)
        assert h.sum() == pytest.approx(1.0)


class TestCombinedFrame:
    def test_trace_never_increases(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            m, k = rng.integers(2, 24), rng.integers(2, 8)
            v, cost = random_instance(rng, m, k)
            lam_e, lam_g = 10.0 ** rng.uniform(-1.5, 1.5), 10.0 ** rng.uniform(-2, 2)
            _, _, trace = ost_combined_frame(v, cost, lam_e, lam_g, 12)
            assert np.all(np.diff(trace) <= 1e-10)

    def test_zero_group_weight_matches_entropic(self):
        rng = np.random.default_rng(31)
        v, cost = random_instance(rng, 12, 5)
        _, h_combined, _ = ost_combined_frame(v, cost, 0.8, 0.0, DEFAULT_MM_ITERATIONS)
        _, h_entropic, _ = ost_entropic_frame(v, cost, 0.8)
        np.testing.assert_allclose(h_combined, h_entropic, atol=1e-15)


class TestObjectiveHelpers:
    def test_entropy_term_zero_convention(self):
        plan = np.array([[0.5, 0.0],
                         [0.0, 0.5]])
        assert entropy_term(plan) == pytest.approx(np.log(0.5))

    def test_group_term(self):
        assert group_term(np.array([0.25, 0.0, 1.0])) == pytest.approx(1.5)

    def test_transport_objective(self):
        plan = np.array([[0.5, 0.0], [0.25, 0.25]])
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert transport_objective(plan, values) == pytest.approx(2.25)


class TestColumnPermutationEquivariance:
    @pytest.mark.parametrize("variant", ["ost", "ost_e", "ost_g", "ost_eg"])
    def test_permuting_columns_permutes_h(self, variant):
        rng = np.random.default_rng(40)
        v, cost = random_instance(rng, 14, 6)
        # break any possible ties so the permutation cannot change argmins
        cost = toy_cost(cost.values + rng.uniform(0, 1e-6, cost.values.shape))
        perm = rng.permutation(6)
        permuted = toy_cost(cost.values[:, perm])
        its = DEFAULT_MM_ITERATIONS
        solvers = {
            "ost": lambda vv, cc: ost_frame(vv, cc)[1],
            "ost_e": lambda vv, cc: ost_entropic_frame(vv, cc, 0.5)[1],
            "ost_g": lambda vv, cc: ost_group_frame(vv, cc, 0.5, its)[1],
            "ost_eg": lambda vv, cc: ost_combined_frame(vv, cc, 0.5, 0.5, its)[1],
        }
        h = solvers[variant](v, cost)
        h_perm = solvers[variant](v, permuted)
        np.testing.assert_allclose(h_perm, h[perm], atol=1e-12)


def make_frames(rng, m, n, inactive=(), zero_bins=0, concentration=1.0):
    """Dirichlet frames, `inactive` columns zeroed and masked; `zero_bins`
    random bins of each frame set to exactly zero before renormalizing."""
    columns = rng.dirichlet(np.full(m, concentration), size=n).T
    if zero_bins:
        for j in range(n):
            columns[rng.choice(m, size=zero_bins, replace=False), j] = 0.0
        columns /= columns.sum(axis=0)
    mask = np.ones(n, dtype=bool)
    mask[list(inactive)] = False
    columns[:, ~mask] = 0.0
    return NormalizedFrames(columns=columns, active_mask=mask)


class TestUnmix:
    @pytest.mark.parametrize("variant", ["ost", "ost_e", "ost_g", "ost_eg"])
    def test_matches_per_frame_solvers(self, variant):
        rng = np.random.default_rng(50)
        frames = make_frames(rng, 12, 7, inactive=(2,))
        cost = toy_cost(rng.uniform(0, 3, size=(12, 4)))
        params = dict(lambda_e=0.6, lambda_g=1.2)
        acts = unmix(frames, cost, variant, **params)
        assert acts.shape == (4, 7)
        np.testing.assert_array_equal(acts[:, 2], 0.0)
        for n in range(7):
            if n == 2:
                continue
            v = frames.columns[:, n]
            if variant == "ost":
                _, h, _ = ost_frame(v, cost)
            elif variant == "ost_e":
                _, h, _ = ost_entropic_frame(v, cost, 0.6)
            elif variant == "ost_g":
                _, h, _ = ost_group_frame(v, cost, 1.2, DEFAULT_MM_ITERATIONS)
            else:
                _, h, _ = ost_combined_frame(v, cost, 0.6, 1.2, DEFAULT_MM_ITERATIONS)
            np.testing.assert_allclose(acts[:, n], h, atol=1e-12)

    def test_all_frames_masked(self):
        rng = np.random.default_rng(52)
        frames = make_frames(rng, 6, 3, inactive=(0, 1, 2))
        cost = toy_cost(rng.uniform(0, 3, size=(6, 2)))
        acts = unmix(frames, cost)
        np.testing.assert_array_equal(acts, np.zeros((2, 3)))

    def test_harmonic_reduced_cost_roundtrip(self):
        # a clean fundamental-plus-partials frame lands on its own column
        freqs = np.arange(1.0, 121.0) * 10.0
        cost = harmonic_cost(freqs, [100.0, 230.0, 410.0], eps0=1.0)
        v = np.zeros(120)
        for p, w in zip((1, 2, 3, 4), (0.4, 0.3, 0.2, 0.1)):
            v[np.argmin(np.abs(freqs - p * 230.0))] += w
        frames = NormalizedFrames(columns=v[:, None],
                                  active_mask=np.array([True]))
        acts = unmix(frames, cost)
        np.testing.assert_allclose(acts[:, 0], [0.0, 1.0, 0.0], atol=0)

    @pytest.mark.parametrize("variant", ["ost", "ost_e", "ost_g", "ost_eg"])
    def test_masked_frames_solved_without_a_copy(self, variant):
        # the kernels read the active columns block by block from
        # frames.columns: the outputs are those of the copied-out active
        # columns, and the traced peak stays below what that copy alone takes
        rng = np.random.default_rng(55)
        m, n = 512, 16 * MM_BLOCK_FRAMES
        frames = partly_masked_frames(rng, m, n)
        cost = toy_cost(rng.uniform(0, 3, size=(m, 8)))
        params = dict(lambda_e=0.6, lambda_g=1.2)
        acts, peak = traced_peak(unmix, frames, cost, variant, **params)
        active = frames.active_mask
        expected = unmix(active_copy(frames), cost, variant, **params)
        np.testing.assert_array_equal(acts[:, ~active], 0.0)
        assert_same_masses(acts[:, active], expected, variant)
        assert peak < m * active.sum() * 8

    @pytest.mark.parametrize("variant", ["ost", "ost_e", "ost_g", "ost_eg"])
    def test_kernels_do_not_write_into_frames(self, variant):
        # unmix hands frames.columns itself to the kernels, which gather
        # their blocks from it; a write into the read-only array would raise
        rng = np.random.default_rng(54)
        frames = make_frames(rng, 12, MM_BLOCK_FRAMES + 3)
        frames.columns.flags.writeable = False
        cost = toy_cost(rng.uniform(0, 3, size=(12, 4)))
        unmix(frames, cost, variant, lambda_e=0.6, lambda_g=1.2)

    @pytest.mark.parametrize("variant", ["ost", "ost_e", "ost_g", "ost_eg"])
    def test_frame_layout_does_not_change_the_masses(self, variant, monkeypatch):
        # the kernels gather every block in F order, so C-ordered frames give
        # the bits of F-ordered ones; ost_g reaches its bound and ost_eg its
        # underflow guard on this problem
        layouts = []
        mm_blocks = solvers._mm_blocks

        def spy(v, active, k, iterations, start, step):
            def spied_start(block):
                layouts.append(block.flags.f_contiguous)
                return start(block)
            return mm_blocks(v, active, k, iterations, spied_start, step)

        monkeypatch.setattr(solvers, "_mm_blocks", spy)
        rng = np.random.default_rng(56)
        frames = make_frames(rng, 64, MM_BLOCK_FRAMES + 5, inactive=(3, 130),
                             zero_bins=4)
        c_frames = NormalizedFrames(columns=np.ascontiguousarray(frames.columns),
                                    active_mask=frames.active_mask)
        assert frames.columns.flags.f_contiguous
        assert not c_frames.columns.flags.f_contiguous
        cost = toy_cost(rng.uniform(0, 30, size=(64, 8)))
        params = dict(lambda_e=0.01, lambda_g=10.0)
        np.testing.assert_array_equal(unmix(c_frames, cost, variant, **params),
                                      unmix(frames, cost, variant, **params))
        assert layouts == [True] * 4

    def test_validation(self):
        rng = np.random.default_rng(53)
        frames = make_frames(rng, 6, 3)
        cost = toy_cost(rng.uniform(0, 3, size=(6, 2)))
        with pytest.raises(ValueError):
            unmix(frames, cost, variant="sinkhorn")
        with pytest.raises(ValueError):
            unmix(frames, cost, "ost_e", lambda_e=0.0)
        with pytest.raises(ValueError):
            unmix(frames, cost, "ost_eg", lambda_e=0.0)
        masked = make_frames(rng, 6, 3, inactive=(0, 1, 2))
        for variant in ("ost_e", "ost_eg"):  # checked before any frame is read
            with pytest.raises(ValueError, match="lambda_e"):
                unmix(masked, cost, variant, lambda_e=0.0)
        bad_cost = toy_cost(rng.uniform(0, 3, size=(5, 2)))
        with pytest.raises(ValueError):
            unmix(frames, bad_cost)


def oracle_masses(frames, cost, variant, lambda_e=0.0, lambda_g=0.0,
                  mm_iterations=DEFAULT_MM_ITERATIONS):
    """The per-frame solvers' masses, with unmix's defaults."""
    per_frame = {"ost": lambda v: ost_frame(v, cost),
                 "ost_e": lambda v: ost_entropic_frame(v, cost, lambda_e),
                 "ost_g": lambda v: ost_group_frame(v, cost, lambda_g, mm_iterations),
                 "ost_eg": lambda v: ost_combined_frame(v, cost, lambda_e, lambda_g,
                                                        mm_iterations)}
    out = np.zeros((cost.values.shape[1], frames.n_frames))
    for n in np.flatnonzero(frames.active_mask):
        _, out[:, n], _ = per_frame[variant](frames.columns[:, n])
    return out


def fixed_point_step(v, cost, lambda_g, mm_iterations):
    """The first MM step of ost_group_frame whose masses repeat the previous
    step's, or None if there is none within mm_iterations."""
    previous = ost_frame(v, cost)[1]
    for t in range(1, mm_iterations + 1):
        _, h, _ = ost_group_frame(v, cost, lambda_g, t)
        if np.array_equal(h, previous):
            return t
        previous = h
    return None


def rendered_piece(noise=False):
    """2 s of chords at 22.05 kHz with the piano's 88 notes on 1024 bins, as
    the benchmark's piece: (frames, harmonic cost at eps0 = 10, with the
    benchmark's noise column if `noise`)."""
    rng = np.random.default_rng(80)
    events = [NoteEvent(0.5 * c, 0.5 * (c + 1), int(p)) for c in range(4)
              for p in rng.choice(np.arange(45, 81), size=3, replace=False)]
    audio = render_notes(events, sample_rate=22050, inharmonicity=0.01, seed=80)
    spec = stft_magnitude(audio, 2048, 1024)
    frames = normalize_frames(spec)
    cost = harmonic_cost(spec.freqs, midi_range_fundamentals(21, 108), eps0=10.0)
    return frames, append_noise_column(cost, 30.0) if noise else cost


def assert_same_masses(got, expected, variant):
    """Bit for bit for ost and ost_g, within 1e-12 for ost_e and ost_eg."""
    if variant in ("ost", "ost_g"):
        np.testing.assert_array_equal(got, expected)
    else:
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def assert_matches_oracle(frames, cost, variant, **params):
    assert_same_masses(unmix(frames, cost, variant, **params),
                       oracle_masses(frames, cost, variant, **params), variant)


class TestBatchedMM:
    """unmix's batched kernels against the per-frame solvers: bit for bit
    for ost and ost_g, within 1e-12 for ost_e and ost_eg. The ost_g small-cost floor is
    set to 0 here, so that the small hand-built costs reach the bound and
    the buckets."""

    @pytest.fixture(autouse=True)
    def prune_small_costs(self, monkeypatch):
        monkeypatch.setattr(solvers, "_FULL_ARGMIN_CELLS", 0)

    @pytest.mark.parametrize("variant", ["ost", "ost_e", "ost_g", "ost_eg"])
    def test_several_blocks_with_masked_frames(self, variant):
        rng = np.random.default_rng(60)
        n = 2 * MM_BLOCK_FRAMES + 7
        inactive = (0, 5, MM_BLOCK_FRAMES - 1, MM_BLOCK_FRAMES, 200, n - 1)
        frames = make_frames(rng, 10, n, inactive=inactive)
        cost = toy_cost(rng.uniform(0, 3, size=(10, 4)))
        params = dict(lambda_e=0.4, lambda_g=2.0)
        assert_matches_oracle(frames, cost, variant, **params)

    @pytest.mark.parametrize("variant", ["ost", "ost_e", "ost_g", "ost_eg"])
    def test_noise_column(self, variant):
        rng = np.random.default_rng(61)
        freqs = np.arange(1.0, 41.0) * 25.0
        cost = append_noise_column(harmonic_cost(freqs, [100.0, 150.0, 220.0],
                                                 eps0=10.0), 400.0)
        frames = make_frames(rng, 40, 9, inactive=(3,))
        params = dict(lambda_e=200.0, lambda_g=300.0)
        assert_matches_oracle(frames, cost, variant, **params)
        masses = unmix(frames, cost, variant, **params)
        assert masses[-1].sum() > 0  # the noise column takes part

    @staticmethod
    def exact_ties_problem():
        """Integer costs with two identical columns: ties are everywhere,
        and ost / ost_g must break them to the lowest index as the oracle
        does."""
        rng = np.random.default_rng(62)
        values = rng.integers(0, 3, size=(12, 4)).astype(float)
        values[:, 3] = values[:, 1]
        frames = make_frames(rng, 12, 20)
        return frames, toy_cost(values), dict(lambda_e=0.5, lambda_g=0.3)

    @pytest.mark.parametrize("variant", ["ost", "ost_e", "ost_g", "ost_eg"])
    def test_exact_cost_ties(self, variant):
        frames, cost, params = self.exact_ties_problem()
        assert_matches_oracle(frames, cost, variant, **params)

    @pytest.mark.parametrize("variant", ["ost_g", "ost_eg"])
    def test_many_iterations(self, variant):
        # a low concentration spreads bin masses over orders of magnitude,
        # so late MM steps move little mass: an exit on nearly repeated
        # masses, rather than on exactly repeated ones, would show here
        rng = np.random.default_rng(63)
        frames = make_frames(rng, 16, 25, inactive=(7,), concentration=0.3)
        cost = toy_cost(rng.uniform(0, 3, size=(16, 5)))
        params = dict(lambda_e=0.4, lambda_g=1.5, mm_iterations=50)
        assert_matches_oracle(frames, cost, variant, **params)
        if variant == "ost_g":
            # every frame reaches its fixed point well before 50 iterations,
            # so the batched loop takes its early exit on all of them
            for n in np.flatnonzero(frames.active_mask):
                _, _, trace = ost_group_frame(frames.columns[:, n], cost, 1.5, 50)
                assert trace[-1] == trace[-25]

    def test_group_mm_on_rendered_chords(self):
        # the piano's 88 notes on a 256-bin grid and lambda_g = 300: the
        # penalty leaves each frame a few notes within a few steps, so most
        # steps take the argmin over a handful of kept columns
        rng = np.random.default_rng(65)
        events = [NoteEvent(0.08 * c, 0.08 * (c + 1), int(p))
                  for c in range(4)
                  for p in rng.choice(np.arange(40, 80), size=3, replace=False)]
        audio = render_notes(events, sample_rate=16000, seed=65)
        spec = stft_magnitude(audio, 512, 256)
        frames = normalize_frames(spec)
        assert frames.columns.shape[0] >= 256
        assert 16 <= frames.active_mask.sum() <= 24
        cost = harmonic_cost(spec.freqs, midi_range_fundamentals(21, 108),
                             eps0=10.0)
        params = dict(lambda_g=300.0)
        assert_matches_oracle(frames, cost, "ost_g", **params)
        masses = unmix(frames, cost, "ost_g", **params)
        support = (masses[:, frames.active_mask] > 0).sum(axis=0)
        assert np.mean(support <= 88 // 2) > 0.5

    @staticmethod
    def empty_column_problem():
        """Column 0 is empty after step 1 and column 1 holds row 0 alone.
        Column 1 costs at most c_tie on every row, so at step 2 it sets the
        bound, c_tie + p_1, and column 0's smallest cost (row 0) plus its
        penalty is exactly that bound. Row 0 ties between columns 0 and 1:
        column 0 must stay a candidate and take the row, as in the oracle.
        Columns 3-5 cost more than the bound on every row, so step 2 keeps
        3 of 6 columns and takes the pruned argmin."""
        v_r, big = 2e-12, 1e7
        p_empty, p_row = solvers._group_penalty_row(np.array([0.0, v_r]))
        c_tie = p_empty - p_row  # exact: p_row <= p_empty <= 2 * p_row
        assert c_tie + p_row == p_empty
        values = np.array([[0.0, c_tie, big, big, big, big],
                           [big, 0.0, 0.25, big, big, big],
                           [big, c_tie, 0.0, big, big, big]])
        frames = NormalizedFrames(columns=np.array([[v_r], [0.25], [0.75]]),
                                  active_mask=np.array([True]))
        return frames, toy_cost(values), dict(lambda_g=1.0, mm_iterations=2)

    def test_group_mm_keeps_an_empty_column_at_the_bound(self):
        frames, cost, params = self.empty_column_problem()
        assert_matches_oracle(frames, cost, "ost_g", **params)
        masses = unmix(frames, cost, "ost_g", **params)
        v_r = frames.columns[0, 0]
        assert masses[0, 0] == v_r and masses[1, 0] == 0.0

    @staticmethod
    def edge_cost_problem(case):
        rng = np.random.default_rng(66)
        freqs = np.arange(1.0, 61.0) * 25.0
        notes = 25.0 * np.arange(2, 14)
        if case == "one_column":
            cost = harmonic_cost(freqs, [100.0], eps0=10.0)
        elif case == "eps0_zero":
            # exact partials cost 0 for a note and for its sub-multiples, so
            # rows tie across columns
            cost = harmonic_cost(freqs, notes, eps0=0.0)
        else:
            cost = append_noise_column(harmonic_cost(freqs, notes, eps0=10.0),
                                       400.0)
        frames = make_frames(rng, 60, 12, inactive=(4,), concentration=0.2)
        return frames, cost, dict(lambda_g=300.0)

    @pytest.mark.parametrize("case", ["one_column", "eps0_zero", "noise_column"])
    def test_group_mm_edge_costs(self, case):
        frames, cost, params = self.edge_cost_problem(case)
        assert_matches_oracle(frames, cost, "ost_g", **params)

    @staticmethod
    def spy_on_routes(monkeypatch):
        """Record every ost_g step as (the frames that take the full argmin,
        the width of every gathered chunk). A step ends with the masses of
        its labels, one per live frame; a block's start has one label row."""
        steps, widths, gathered = [], [], set()
        gather, masses = solvers._gathered_labels, solvers._column_masses

        def gather_spy(by_column, pen_rows, cols, frames):
            widths.append(cols.shape[1])
            gathered.update(frames.tolist())
            return gather(by_column, pen_rows, cols, frames)

        def masses_spy(labels, frames, k):
            if labels.ndim == 2:
                full = sorted(set(range(frames.shape[1])) - gathered)
                steps.append((full, widths[:]))
            widths.clear()
            gathered.clear()
            return masses(labels, frames, k)

        monkeypatch.setattr(solvers, "_gathered_labels", gather_spy)
        monkeypatch.setattr(solvers, "_column_masses", masses_spy)
        return steps

    @pytest.mark.parametrize("problem, full, gathered", [
        ("exact_ties", True, True), ("empty_column", False, True),
        ("one_column", True, False), ("eps0_zero", False, True),
        ("noise_column", True, True)])
    def test_hand_built_costs_reach_both_routes(self, problem, full, gathered,
                                                monkeypatch):
        # the small costs above, together, take both the full argmin and
        # the gathered buckets: one_column has a single column, and the
        # frames of empty_column and eps0_zero hold mass in at most half of
        # the columns from the first step on
        if problem == "exact_ties":
            frames, cost, params = self.exact_ties_problem()
        elif problem == "empty_column":
            frames, cost, params = self.empty_column_problem()
        else:
            frames, cost, params = self.edge_cost_problem(problem)
        steps = self.spy_on_routes(monkeypatch)
        unmix(frames, cost, "ost_g", **params)
        assert any(full_frames for full_frames, _ in steps) == full
        assert any(widths for _, widths in steps) == gathered

    def test_frames_reach_fixed_points_at_every_step(self, monkeypatch):
        # one block whose frames reach their fixed points at every step from
        # 1 to mm_iterations (frame 0, a single bin, at step 1), and some
        # never: frames that leave the live set early and frames that take
        # the full argmin and the gathered buckets share block-steps
        rng = np.random.default_rng(78)
        m, k, n = 24, 12, 60
        cost = toy_cost(rng.uniform(0, 3, size=(m, k)))
        columns = rng.dirichlet(np.ones(m), size=n).T
        columns[:, 0] = np.eye(m)[5]
        frames = NormalizedFrames(columns=columns, active_mask=np.ones(n, dtype=bool))
        params = dict(lambda_g=2.0, mm_iterations=10)
        reached = {fixed_point_step(columns[:, j], cost, **params) for j in range(n)}
        assert reached == set(range(1, params["mm_iterations"] + 1)) | {None}
        steps = self.spy_on_routes(monkeypatch)
        assert_matches_oracle(frames, cost, "ost_g", **params)
        assert any(full and widths for full, widths in steps)

    def test_toy_size_block_takes_only_the_full_argmin(self, monkeypatch):
        # `ost toy`'s size, a 64 x 8 cost, here with four frames: below the
        # small-cost floor every frame takes the full argmin at every step
        # and no bound is computed, though with the floor at 0 the same
        # problem prunes
        rng = np.random.default_rng(79)
        frames = make_frames(rng, 64, 4)
        cost = toy_cost(rng.uniform(0, 3, size=(64, 8)))
        params = dict(lambda_g=3.0)
        assert 64 * 8 * 4 < FULL_ARGMIN_CELLS
        steps = self.spy_on_routes(monkeypatch)
        unmix(frames, cost, "ost_g", **params)
        assert any(widths for _, widths in steps)
        steps.clear()
        monkeypatch.setattr(solvers, "_FULL_ARGMIN_CELLS", FULL_ARGMIN_CELLS)
        monkeypatch.setattr(solvers, "_kept_columns", None)  # fails if called
        assert_matches_oracle(frames, cost, "ost_g", **params)
        assert steps and not any(widths for _, widths in steps)

    @pytest.mark.parametrize("lambda_g", [0.0, 30.0, 300.0, 3000.0])
    def test_group_mm_on_a_rendered_piece(self, lambda_g, monkeypatch):
        # bit for bit the oracle, and from lambda_g = 300 on the first step
        # already leaves the full argmin
        frames, cost = rendered_piece()
        assert cost.values.shape == (1024, 88)
        assert frames.active_mask.sum() <= MM_BLOCK_FRAMES  # one block
        steps = self.spy_on_routes(monkeypatch)
        assert_matches_oracle(frames, cost, "ost_g", lambda_g=lambda_g)
        _, first_widths = steps[0]
        assert bool(first_widths) == (lambda_g >= 300.0)

    def test_group_mm_one_frame_past_a_block(self):
        rng = np.random.default_rng(71)
        frames = make_frames(rng, 16, MM_BLOCK_FRAMES + 1)
        cost = toy_cost(rng.uniform(0, 3, size=(16, 8)))
        assert_matches_oracle(frames, cost, "ost_g", lambda_g=1.5)

    @pytest.mark.parametrize("lambda_g", [0.0, 1.0])
    def test_kept_width_one_next_to_a_duplicate_column(self, lambda_g, monkeypatch):
        # columns 0 and 1 cost 0 on every row, the others 1 or more: every
        # row takes column 0 (the lowest of the tie), and the step keeps
        # columns whose smallest cost plus penalty is at most 0 + p_0. With
        # lambda_g = 1, column 1 is empty and its penalty is too large, so
        # one column is kept and gathered with column 1, its raw duplicate,
        # as padding. With lambda_g = 0 both are kept and tie on every row.
        # Either way each frame is at its fixed point after one gathered step.
        rng = np.random.default_rng(72)
        values = rng.uniform(1, 2, size=(10, 6))
        values[:, :2] = 0.0
        frames = make_frames(rng, 10, 9, inactive=(3,))
        params = dict(lambda_g=lambda_g)
        steps = self.spy_on_routes(monkeypatch)
        assert_matches_oracle(frames, toy_cost(values), "ost_g", **params)
        assert steps == [([], [2])]

    def test_widths_in_every_bucket(self, monkeypatch):
        # Column c costs 0 on its home rows 2c and 2c + 1 and 100 elsewhere.
        # A frame with s heavy columns puts its mass on their home rows and
        # 2^-60 on every other row. Step 1 moves those rows to column 0 (the
        # other columns' penalty, at the mass floor, is 5000), so at step 2
        # the frame holds mass in s columns and keeps exactly those: the
        # bound is 100 + p_0, and every empty column costs at least 5000.
        # So step 2 gathers s columns, padded up to their bucket, for s up
        # to K/2 = 35, and takes the full argmin for s = 36 and 38.
        k = 70
        values = np.full((2 * k, k), 100.0)
        values[np.arange(2 * k), np.arange(2 * k) // 2] = 0.0
        heavy = [1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 35, 36, 38]
        columns = np.full((2 * k, len(heavy)), 2.0 ** -60)
        for j, s in enumerate(heavy):
            columns[:2 * s, j] = 1.0
        columns /= columns.sum(axis=0)
        frames = NormalizedFrames(columns=columns,
                                  active_mask=np.ones(len(heavy), dtype=bool))
        params = dict(lambda_g=0.01)
        steps = self.spy_on_routes(monkeypatch)
        assert_matches_oracle(frames, toy_cost(values), "ost_g", **params)
        masses = unmix(frames, toy_cost(values), "ost_g", **params)
        np.testing.assert_array_equal((masses > 0).sum(axis=0), heavy)
        full, widths = steps[1]
        assert sorted(set(widths)) == [2, 4, 8, 16, 32, 35]
        assert full == [j for j, s in enumerate(heavy) if s > k // 2]

    @staticmethod
    def underflow_problem():
        """Small lambda_e with a large group penalty: where a row costs more
        than ~645 lambda_e extra on the frame's least-penalised column,
        E @ W underflows and the guard solves that row directly; some bins
        are exactly zero (no 0/0 allowed)."""
        rng = np.random.default_rng(64)
        frames = make_frames(rng, 30, 40, inactive=(11,), zero_bins=5)
        cost = toy_cost(rng.uniform(0, 30, size=(30, 6)))
        return frames, cost, dict(lambda_e=0.01, lambda_g=10.0)

    @staticmethod
    def spy_on_guard(monkeypatch):
        """Record the `under` mask of every guard call."""
        masks = []
        original = solvers._add_underflowed_rows

        def spy(h, values, block, pen, under, lam_e):
            masks.append(under.copy())
            original(h, values, block, pen, under, lam_e)

        monkeypatch.setattr(solvers, "_add_underflowed_rows", spy)
        return masks

    def test_underflow_rows_use_the_per_frame_softmax(self, monkeypatch):
        frames, cost, params = self.underflow_problem()
        masks = self.spy_on_guard(monkeypatch)
        assert_matches_oracle(frames, cost, "ost_eg", **params)
        guarded = [int(under.sum()) for under in masks]
        assert sum(guarded) > 0

    def test_underflow_raises_no_warning(self):
        # the guarded rows divide by an underflowed E @ W: 0 / 0 and
        # overflowing quotients are replaced, never reported
        frames, cost, params = self.underflow_problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            unmix(frames, cost, "ost_eg", **params)

    def test_several_frames_underflow_in_one_step(self, monkeypatch):
        # the regime of underflow_problem on other data: the guard solves
        # the pairs of most frames of the block in one call, more than 2M of
        # them, so in three or more chunks of M pairs
        rng = np.random.default_rng(67)
        m, n = 20, 12
        frames = make_frames(rng, m, n, inactive=(4,), zero_bins=3)
        cost = toy_cost(rng.uniform(0, 30, size=(m, 5)))
        params = dict(lambda_e=0.01, lambda_g=20.0)
        masks = self.spy_on_guard(monkeypatch)
        assert_matches_oracle(frames, cost, "ost_eg", **params)
        assert max(int(under.any(axis=0).sum()) for under in masks) >= n - 2
        assert max(int(under.sum()) for under in masks) > 2 * m

    def test_full_support(self):
        # the penalty spread is at most 0.5 lambda_g / sqrt(1e-12), so with
        # lambda_e above it / 746 no weight underflows and both products
        # run over every column
        rng = np.random.default_rng(68)
        frames = make_frames(rng, 16, 12, inactive=(5,), concentration=0.3)
        cost = toy_cost(rng.uniform(0, 3, size=(16, 5)))
        params = dict(lambda_e=1000.0, lambda_g=1.0)
        spread = 0.5 * params["lambda_g"] / np.sqrt(solvers.EMPTY_COLUMN_MASS)
        assert spread / params["lambda_e"] < -solvers.EXP_ZERO_FLOOR
        assert_matches_oracle(frames, cost, "ost_eg", **params)
        masses = unmix(frames, cost, "ost_eg", **params)
        assert np.all(masses[:, frames.active_mask] > 0)

    def test_support_shrinks_to_one_column(self):
        # column 0 is free on every row and the others cost 400 lambda_e
        # more: after the first step they hold ~1e-174 of mass, their
        # penalty sits at the mass floor and their weight is exactly 0 in
        # every frame, so the products run over column 0 alone
        rng = np.random.default_rng(69)
        values = rng.uniform(400.0, 500.0, size=(14, 6))
        values[:, 0] = 0.0
        frames = make_frames(rng, 14, 10, inactive=(0,))
        params = dict(lambda_e=1.0, lambda_g=1.0)
        assert_matches_oracle(frames, toy_cost(values), "ost_eg", **params)
        masses = unmix(frames, toy_cost(values), "ost_eg", **params)
        active = frames.active_mask
        assert np.all(masses[1:] == 0.0)
        np.testing.assert_allclose(masses[0, active],
                                   frames.columns[:, active].sum(axis=0),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("variant", ["ost", "ost_e", "ost_g", "ost_eg"])
    def test_non_finite_output_raises(self, variant, monkeypatch):
        # simplex frames cannot make the masses overflow, so the block
        # driver, which every variant's masses come from, is replaced by one
        # returning NaN: it must end as NumericError, not as activations
        monkeypatch.setattr(solvers, "_mm_blocks",
                            lambda v, active, k, *rest: np.full((k, v.shape[1]), np.nan))
        frames = make_frames(np.random.default_rng(72), 3, 2)
        cost = toy_cost([[0.0, 5.0]] * 3)
        with pytest.raises(NumericError):
            unmix(frames, cost, variant, lambda_e=1.0, lambda_g=1.0)


def full_softmax_guard(h, values, block, pen, under, lam_e):
    """The underflow guard with no truncation: every flagged (row, frame)
    pair's softmax over all K columns, scattered into h by a frames x pairs
    product, M pairs at a time."""
    m, n = under.shape
    rows, cols = np.divmod(np.flatnonzero(under), n)
    for lo in range(0, rows.size, m):
        r, c = rows[lo:lo + m], cols[lo:lo + m]
        labels = _softmax_labels(values[r] + pen.T[c], lam_e)
        weights = np.zeros((n, r.size))
        weights[c, np.arange(r.size)] = block[r, c]
        h += (weights @ labels).T


class TestUnderflowGuard:
    """solvers._add_underflowed_rows, which takes each flagged pair's softmax
    only over the columns within -EXP_NORMAL_FLOOR * lambda_e of its least
    c + p, against full_softmax_guard: within 1e-12, and zero in the same
    cells."""

    @staticmethod
    def guarded(values, block, pen, under, lam_e):
        """The guard's masses, added to zeros, once checked against the
        full softmax's."""
        values, block = np.asarray(values, dtype=float), np.asarray(block, dtype=float)
        got = np.zeros((values.shape[1], block.shape[1]))
        ref = got.copy()
        solvers._add_underflowed_rows(got, values, block, pen, under, lam_e)
        full_softmax_guard(ref, values, block, pen, under, lam_e)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(got != 0, ref != 0)
        return got

    def test_ties_at_the_row_minimum(self):
        # frame 0's row ties three columns at its minimum; with frame 1's
        # penalty its first row ties two and its constant row four, and
        # column 2, 700 lambda_e above, keeps a normal share: tied columns
        # get equal shares, the others less by their distance
        values = [[1.0, 1.0, 1.05, 9.0, 1.0],
                  [2.0, 3.0, 2.0, 2.0, 2.02],
                  [4.0, 4.0, 4.0, 4.0, 4.0]]
        pen = np.array([[0.5, 0.0], [0.5, 0.0], [0.5, 7.0], [0.5, 0.0], [0.5, 0.0]])
        block = [[0.3, 0.2], [0.5, 0.6], [0.2, 0.2]]
        under = np.array([[True, False], [False, True], [False, True]])
        got = self.guarded(values, block, pen, under, 0.01)
        assert got[0, 0] == got[1, 0] == got[4, 0] > got[2, 0] > got[3, 0] == 0.0
        assert got[0, 1] == got[3, 1] > got[4, 1] > got[1, 1] > got[2, 1] > 0.0

    def test_one_hot_pairs(self):
        # every other column costs more than 746 lambda_e extra: the whole
        # mass of a pair goes to its row minimum, exactly
        lam_e = 0.01
        values = np.array([[0.0, 8.0, 9.0], [10.0, 2.0, 30.0], [50.0, 60.0, 40.0]])
        block = np.array([[0.25, 0.0], [0.5, 0.125], [0.25, 0.875]])
        under = np.array([[True, False], [True, True], [True, True]])
        got = self.guarded(values, block, np.zeros((3, 2)), under, lam_e)
        np.testing.assert_array_equal(got, [[0.25, 0.0], [0.5, 0.125], [0.25, 0.875]])

    @pytest.mark.parametrize("lam_e", [1.0, 0.01])
    def test_column_at_the_normal_edge(self, lam_e):
        # exp(z) is normal for z >= -708.396: the columns 708.3 and 708.39
        # lambda_e above a row's minimum keep a share, the one at 708.4 (a
        # subnormal share) and those past the guard's cut at 708.5 get
        # exactly 0 in both; the second row is the first shifted
        offsets = np.array([0.0, 300.0, 708.3, 708.39, 708.4, 708.5, 708.6, 746.0])
        values = np.stack([offsets, offsets + 1000.0]) * lam_e
        got = self.guarded(values, [[0.5], [0.5]], np.zeros((8, 1)),
                           np.ones((2, 1), dtype=bool), lam_e)
        assert np.all(got[:4, 0] > 0)
        np.testing.assert_array_equal(got[4:, 0], 0.0)

    def test_zero_mass_bins(self):
        # flagged pairs with no mass add nothing, and a frame whose flagged
        # bins are all empty keeps its masses
        rng = np.random.default_rng(91)
        values = rng.uniform(0, 30, size=(6, 4))
        block = rng.dirichlet(np.ones(6), size=3).T
        block[[0, 3], 0] = 0.0
        block[:, 2] = 0.0
        got = self.guarded(values, block, rng.uniform(0, 5, size=(4, 3)),
                           np.ones((6, 3), dtype=bool), 0.01)
        np.testing.assert_array_equal(got[:, 2], 0.0)
        np.testing.assert_allclose(got.sum(axis=0), block.sum(axis=0), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("lam_e", [0.01, 0.3, 100.0])
    def test_random_pairs_over_several_chunks(self, lam_e):
        # more than 2M flagged pairs, so three chunks of M, from one-hot
        # rows (small lambda_e) to rows that keep every column (large)
        rng = np.random.default_rng(92)
        m, n = 20, 12
        under = rng.uniform(size=(m, n)) < 0.8
        assert under.sum() > 2 * m
        self.guarded(rng.uniform(0, 30, size=(m, 7)), rng.dirichlet(np.ones(m), size=n).T,
                     rng.uniform(0, 50, size=(7, n)), under, lam_e)


class TestUfuncBuffer:
    """_group_mm runs with numpy's ufunc buffer at one cost row (a multiple
    of 16, at least 16) and gives the caller's size back however it ends."""

    CALLER_SIZE = 4096  # not numpy's default
    PARAMS = dict(lambda_e=0.5, lambda_g=1.0)

    @pytest.fixture(autouse=True)
    def caller_size(self):
        before = np.setbufsize(self.CALLER_SIZE)
        yield
        np.setbufsize(before)

    @staticmethod
    def problem(m):
        rng = np.random.default_rng(74)
        return (make_frames(rng, m, 5, inactive=(2,)),
                toy_cost(rng.uniform(0, 3, size=(m, 4))))

    @pytest.mark.parametrize("variant", ["ost", "ost_e", "ost_g", "ost_eg"])
    def test_size_restored_after_a_return(self, variant):
        unmix(*self.problem(10), variant, **self.PARAMS)
        assert np.getbufsize() == self.CALLER_SIZE

    @pytest.mark.parametrize("variant", ["ost", "ost_g"])
    def test_size_restored_after_an_exception(self, variant, monkeypatch):
        def fail(*args):
            raise RuntimeError("inside the kernel")
        monkeypatch.setattr(solvers, "_column_masses", fail)
        with pytest.raises(RuntimeError, match="inside the kernel"):
            unmix(*self.problem(10), variant, **self.PARAMS)
        assert np.getbufsize() == self.CALLER_SIZE

    @pytest.mark.parametrize("m, size", [(10, 16), (40, 32), (1024, 1024)])
    def test_kernel_runs_at_one_cost_row(self, m, size, monkeypatch):
        seen = []
        column_masses = solvers._column_masses
        def spy(*args):
            seen.append(np.getbufsize())
            return column_masses(*args)
        monkeypatch.setattr(solvers, "_column_masses", spy)
        unmix(*self.problem(m), "ost_g", **self.PARAMS)
        assert seen and set(seen) == {size}


class TestVariantCollapse:
    """ost is ost_g's start and ost_e is ost_eg's, on the shipped path of a
    rendered piece with the harmonic cost, with and without a noise column:
    at lambda_g = 0 an MM step moves no mass, and no variant's masses
    depend on the order of the frames."""

    @pytest.mark.parametrize("noise", [False, True])
    def test_zero_group_weight(self, noise):
        frames, cost = rendered_piece(noise)
        np.testing.assert_array_equal(unmix(frames, cost, "ost_g", lambda_g=0.0),
                                      unmix(frames, cost, "ost"))
        soft = dict(lambda_e=30.0, lambda_g=0.0, mm_iterations=1)
        np.testing.assert_allclose(unmix(frames, cost, "ost_eg", **soft),
                                   unmix(frames, cost, "ost_e", **soft),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("noise", [False, True])
    @pytest.mark.parametrize("variant", ["ost", "ost_e", "ost_g", "ost_eg"])
    def test_frame_permutation(self, variant, noise):
        frames, cost = rendered_piece(noise)
        perm = np.random.default_rng(81).permutation(frames.n_frames)
        permuted = NormalizedFrames(columns=frames.columns[:, perm],
                                    active_mask=frames.active_mask[perm])
        params = dict(lambda_e=30.0, lambda_g=300.0)
        assert_same_masses(unmix(permuted, cost, variant, **params),
                           unmix(frames, cost, variant, **params)[:, perm],
                           variant)


def penalties(rng, k, n, lambda_g, empty=0.3):
    """K x n penalties lambda_g * _group_penalty_row(h) of random masses,
    with a share `empty` of them 0 (penalty 0.5 * lambda_g / 1e-6)."""
    h = rng.dirichlet(np.ones(k), size=n).T
    h[rng.random((k, n)) < empty] = 0.0
    return lambda_g * solvers._group_penalty_row(h)


class TestKeptColumns:
    """The column-max bound of the ost_g step keeps, for every frame, each
    column that is a row's minimum of values + p or ties it."""

    @staticmethod
    def assert_keeps_every_minimum(values, pen):
        keep = solvers._kept_columns(values.min(axis=0), values.max(axis=0), pen)
        for f in range(pen.shape[1]):
            total = values + pen[:, f]
            at_min = (total == total.min(axis=1, keepdims=True)).any(axis=0)
            assert np.all(keep[at_min, f])
        return keep

    @staticmethod
    def cost_case(rng, case):
        if case == "ties":  # small integers: rows tie across columns
            return rng.integers(0, 3, size=(40, 9)).astype(float)
        if case == "duplicates":
            values = rng.uniform(0, 5, size=(40, 9))
            values[:, [4, 7]] = values[:, [1, 1]]
            return values
        if case == "zero_columns":
            values = rng.uniform(0, 5, size=(40, 9))
            values[:, [0, 5]] = 0.0
            return values
        freqs = np.arange(1.0, 81.0) * 25.0
        notes = 25.0 * np.arange(2, 14)
        if case == "eps0_zero":
            return harmonic_cost(freqs, notes, eps0=0.0).values
        return append_noise_column(harmonic_cost(freqs, notes, eps0=10.0), 400.0).values

    @pytest.mark.parametrize("case", ["ties", "duplicates", "zero_columns",
                                      "eps0_zero", "noise_column"])
    @pytest.mark.parametrize("lambda_g", [0.0, 1.0, 30.0, 3000.0])
    def test_keeps_every_row_minimum_and_tie(self, case, lambda_g):
        rng = np.random.default_rng(90)
        values = self.cost_case(rng, case)
        pen = penalties(rng, values.shape[1], 50, lambda_g)
        if case == "ties":
            pen = np.round(pen)  # integer penalties keep the ties exact
        self.assert_keeps_every_minimum(values, pen)

    def test_empty_column_at_the_bound_is_kept(self):
        # column 1 is constant, so it sets the bound c + p_1, which column
        # 0 (empty, at the floor penalty) meets exactly on row 0, its
        # cheapest: a strict bound would drop the row's lowest-index minimum
        lambda_g = 2.0
        p_empty, p_1 = lambda_g * solvers._group_penalty_row(np.array([0.0, 0.04]))
        c = p_empty - p_1
        assert c + p_1 == p_empty == 0.5 * lambda_g / 1e-6
        values = np.array([[0.0, c, 3 * c], [2 * c, c, 0.0], [3 * c, c, 5 * c]])
        pen = np.array([[p_empty], [p_1], [4 * c]])
        keep = self.assert_keeps_every_minimum(values, pen)
        np.testing.assert_array_equal(keep[:, 0], [True, True, False])

    def test_prunes_under_a_large_penalty(self):
        # the bound drops the columns whose penalty lifts them above every
        # row of the cheapest penalised column
        rng = np.random.default_rng(91)
        values = rng.uniform(0, 1, size=(30, 8))
        pen = np.zeros((8, 1))
        pen[3:] = 10.0
        keep = self.assert_keeps_every_minimum(values, pen)
        np.testing.assert_array_equal(keep[:, 0], [True] * 3 + [False] * 5)


class TestContainersAndConfig:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_activations_reject_non_finite(self, bad, monkeypatch):
        # unmix returns its activations only when every entry is finite: one
        # bad mass from the block driver ends as NumericError
        def one_bad(v, active, k, *rest):
            masses = np.ones((k, v.shape[1]))
            masses[0, 1] = bad
            return masses
        monkeypatch.setattr(solvers, "_mm_blocks", one_bad)
        frames = make_frames(np.random.default_rng(73), 3, 3)
        with pytest.raises(NumericError, match="non-finite"):
            unmix(frames, toy_cost([[0.0, 5.0]] * 3))

    def test_solver_config_validation(self):
        # every variant checks all three values, with these messages, before
        # any frame is read
        masked = make_frames(np.random.default_rng(75), 3, 2, inactive=(0, 1))
        cost = toy_cost([[0.0, 5.0]] * 3)
        lambda_e = "lambda_e must be finite and non-negative"
        lambda_g = ("lambda_g must be finite, non-negative and at most "
                    f"{solvers.MAX_LAMBDA_G!r}")
        cases = [(dict(lambda_e=-1.0), lambda_e), (dict(lambda_g=-0.5), lambda_g),
                 (dict(mm_iterations=0), "mm_iterations must be >= 1"),
                 (dict(mm_iterations=2.5), "mm_iterations must be an integer, got 2.5")]
        for bad in (np.nan, np.inf, -np.inf):
            cases += [(dict(lambda_e=bad), lambda_e), (dict(lambda_g=bad), lambda_g)]
        for variant in solvers.VARIANTS:
            for params, message in cases:
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    unmix(masked, cost, variant, **{"lambda_e": 1.0, **params})

    def test_lambda_g_bound_keeps_the_empty_column_penalty_finite(self):
        # past MAX_LAMBDA_G the penalty of an empty column overflows and
        # ost_g would send every frame to column 0
        empty = solvers._group_penalty_row(np.zeros(1))
        assert np.isfinite(solvers.MAX_LAMBDA_G * empty).all()
        frames = make_frames(np.random.default_rng(76), 3, 2)
        cost = toy_cost([[0.0, 5.0]] * 3)
        unmix(frames, cost, "ost_g", lambda_g=solvers.MAX_LAMBDA_G)
        above = np.nextafter(solvers.MAX_LAMBDA_G, np.inf)
        with np.errstate(over="ignore"):
            assert np.isinf(above * empty).all()
        with pytest.raises(ValueError, match="at most"):
            unmix(frames, cost, "ost_g", lambda_g=above)
