"""Baseline method tests: PLCA, the LP solver, exact transport, joint LP.

Two independent oracles drive the LP checks:
- brute-force enumeration of basic solutions on tiny instances (every vertex
  of the feasible polytope is visited, so the best feasible one is the true
  optimum);
- the cumulative-sum formula for 1-D transport under |f_i - f_j| cost, which
  computes the exact Wasserstein value without touching any LP machinery.
"""

import re
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import csc_array

from ost import baselines
from ost.baselines import (LP_CANDIDATES, OT_LP_MAX_BINS, PLCA_MAX_ITER,
                           PLCA_REL_TOL, _marginal_constraints,
                           _north_west_corner, _unmix_lp_frame, ot_unmix_lp,
                           plca_unmix, solve_lp, wasserstein_divergence)
from ost.costs import (CostMatrix, append_noise_column, harmonic_cost,
                       quadratic_cost)
from ost.errors import NumericError
from ost.evaluation import l1_activation_error, make_toy_scenario
from ost.frontend import NormalizedFrames
from ost.solvers import MM_BLOCK_FRAMES

from helpers import (active_copy, partly_masked_frames, toy_templates,
                     traced_peak)
from oracles import (kl_divergence, ost_frame, plca_frame, reduced_lp,
                     transport_objective)


def enumerate_lp_vertices(objective, eq_matrix, eq_rhs):
    """Best basic feasible solution by trying every potential basis."""
    a = np.asarray(eq_matrix, dtype=np.float64)
    b = np.asarray(eq_rhs, dtype=np.float64)
    c = np.asarray(objective, dtype=np.float64)
    m, n = a.shape
    rank = np.linalg.matrix_rank(a)
    best = np.inf
    for cols in combinations(range(n), rank):
        sub = a[:, cols]
        x_sub, residual, sub_rank, _ = np.linalg.lstsq(sub, b, rcond=None)
        if sub_rank < rank:
            continue
        if np.abs(sub @ x_sub - b).max() > 1e-9:
            continue
        if np.any(x_sub < -1e-10):
            continue
        best = min(best, float(c[list(cols)] @ x_sub))
    return best


def transport_lp_arrays(v, vhat, costs):
    """Row-major vectorization of the classic transportation constraints."""
    r, s = costs.shape
    eq = np.zeros((r + s, r * s))
    for i in range(r):
        eq[i, i * s:(i + 1) * s] = 1.0
    for j in range(s):
        eq[r + j, j::s] = 1.0
    return costs.ravel(), eq, np.concatenate([v, vhat])


def w1_cumsum(v, vhat, freqs):
    """Closed-form 1-D optimal transport under absolute-difference cost."""
    gaps = np.diff(freqs)
    cum = np.cumsum(v - vhat)[:-1]
    return float(np.sum(np.abs(cum) * gaps))


def abs_cost(freqs):
    freqs = np.asarray(freqs, dtype=np.float64)
    return CostMatrix(values=np.abs(freqs[:, None] - freqs[None, :]))


class TestKlDivergence:
    def test_identity_is_zero(self):
        v = np.array([0.2, 0.5, 0.3])
        assert kl_divergence(v, v) == 0.0

    def test_half_half_reference_value(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2.0))

    def test_support_mismatch_is_infinite(self):
        assert kl_divergence([1.0, 0.0], [0.0, 1.0]) == np.inf

    def test_zero_log_zero_convention(self):
        # the zero entry of v contributes nothing even where vhat is tiny
        got = kl_divergence([0.0, 1.0], [0.9, 0.1])
        assert got == pytest.approx(np.log(10.0))

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.dirichlet(np.ones(6))
            vhat = rng.dirichlet(np.ones(6))
            assert kl_divergence(v, vhat) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence([1.0], [0.5, 0.5])


def single_frame(v):
    v = np.asarray(v, dtype=np.float64)
    return NormalizedFrames(columns=v[:, None], active_mask=np.array([True]))


def disjoint_dictionary(m, k):
    """k templates with non-overlapping support blocks of m // k bins."""
    block = m // k
    templates = np.zeros((m, k))
    for j in range(k):
        templates[j * block:(j + 1) * block, j] = 1.0 / block
    return templates


class TestPlcaUnmix:
    def test_identity_dictionary_recovers_frame(self):
        d = np.eye(3)
        v = np.array([0.2, 0.7, 0.1])
        acts, _ = plca_unmix(single_frame(v), d)
        np.testing.assert_allclose(acts[:, 0], v, atol=1e-12)
        assert kl_divergence(v, d @ acts[:, 0]) < 1e-12

    def test_single_template_is_immediate(self):
        d = np.full((4, 1), 0.25)
        acts, state = plca_unmix(single_frame([0.1, 0.2, 0.3, 0.4]), d)
        np.testing.assert_array_equal(acts[:, 0], [1.0])

    def test_exact_column_drives_kl_to_zero(self):
        # v equal to one of several partially overlapping bump templates:
        # EM kills the wrong columns geometrically (the contraction factor
        # is the shared support mass), pushing the KL objective below 1e-8
        grid = np.arange(40.0)
        centers = np.array([5.0, 15.0, 25.0, 35.0])
        templates = np.exp(-((grid[:, None] - centers[None, :]) ** 2)
                           / (2.0 * 3.0 ** 2))
        templates /= templates.sum(axis=0)
        acts, _ = plca_unmix(single_frame(templates[:, 2]), templates,
                             max_iter=1000, rel_tol=0.0)
        assert kl_divergence(templates[:, 2], templates @ acts[:, 0]) < 1e-8
        np.testing.assert_allclose(acts[:, 0], [0, 0, 1, 0], atol=1e-4)

    def test_disjoint_supports_converge_in_one_step(self):
        d = disjoint_dictionary(12, 3)
        h_true = np.array([0.5, 0.2, 0.3])
        v = d @ h_true
        acts, _ = plca_unmix(single_frame(v), d, max_iter=1, rel_tol=0.0)
        np.testing.assert_allclose(acts[:, 0], h_true, atol=1e-12)

    def test_recovers_mixture_with_overlap(self):
        rng = np.random.default_rng(2)
        templates = rng.uniform(0.05, 1.0, size=(20, 3))
        templates /= templates.sum(axis=0)
        h_true = np.array([0.3, 0.45, 0.25])
        acts, _ = plca_unmix(single_frame(templates @ h_true), templates,
                             max_iter=5000, rel_tol=0.0)
        np.testing.assert_allclose(acts[:, 0], h_true, atol=1e-4)

    def test_objective_traces_never_increase(self):
        # the traces come from the per-frame loop, whose h and stopping
        # iteration the batched kernel reproduces
        rng = np.random.default_rng(3)
        templates = rng.uniform(0.01, 1.0, size=(16, 5))
        templates /= templates.sum(axis=0)
        columns = rng.dirichlet(np.ones(16), size=6).T
        frames = NormalizedFrames(columns=columns,
                                  active_mask=np.ones(6, dtype=bool))
        acts, state = plca_unmix(frames, templates)
        for j in range(frames.n_frames):
            h, trace = plca_frame(columns[:, j], templates, PLCA_MAX_ITER,
                                  PLCA_REL_TOL)
            assert np.all(np.diff(trace) <= 1e-10)
            np.testing.assert_allclose(acts[:, j], h, rtol=0, atol=1e-12)
            assert state.iterations[j] == trace.size

    def test_active_columns_stay_on_simplex(self):
        rng = np.random.default_rng(4)
        templates = rng.uniform(0.01, 1.0, size=(10, 4))
        templates /= templates.sum(axis=0)
        columns = rng.dirichlet(np.ones(10), size=5).T
        mask = np.array([True, False, True, True, False])
        columns[:, ~mask] = 0.0
        frames = NormalizedFrames(columns=columns, active_mask=mask)
        acts, state = plca_unmix(frames, templates)
        np.testing.assert_allclose(acts[:, mask].sum(axis=0), 1.0,
                                   atol=1e-12)
        np.testing.assert_array_equal(acts[:, ~mask], 0.0)
        assert state.iterations[1] == 0

    def test_dimension_and_parameter_validation(self):
        d = disjoint_dictionary(12, 3)
        with pytest.raises(ValueError):
            plca_unmix(single_frame([0.5, 0.5]), d)
        frames = single_frame(np.full(12, 1.0 / 12))
        with pytest.raises(ValueError):
            plca_unmix(frames, d, max_iter=0)
        for bad in (2.5, np.nan):  # each turned the iteration cap off
            with pytest.raises(ValueError, match="^max_iter must be an integer"):
                plca_unmix(frames, d, max_iter=bad)
        for bad in (-1e-3, np.nan):  # NaN ran every frame to max_iter
            with pytest.raises(ValueError, match="rel_tol"):
                plca_unmix(frames, d, rel_tol=bad)

    def test_non_finite_output_raises(self, monkeypatch):
        # simplex frames cannot make EM overflow, so the kernel is replaced by
        # one returning NaN: it must end as NumericError, not as activations
        def nan_block(w, v, active, max_iter, rel_tol):
            n = active.size
            return np.full((w.shape[1], n), np.nan), np.ones(n, dtype=int)

        monkeypatch.setattr(baselines, "_plca_block", nan_block)
        frames = NormalizedFrames(columns=np.full((12, 1), 1.0 / 12),
                                  active_mask=np.array([True]))
        with pytest.raises(NumericError):
            plca_unmix(frames, disjoint_dictionary(12, 3))


def random_dictionary(rng, m, k):
    templates = rng.uniform(0.0, 1.0, size=(m, k)) ** 4
    templates /= templates.sum(axis=0)
    return templates


class TestBatchedPlca:
    """plca_unmix against the per-frame loop: activations to 1e-12,
    iteration counts exactly."""

    def assert_matches_reference(self, frames, d, **kwargs):
        max_iter = kwargs.get("max_iter", PLCA_MAX_ITER)
        rel_tol = kwargs.get("rel_tol", PLCA_REL_TOL)
        acts, state = plca_unmix(frames, d, **kwargs)
        for j in range(frames.n_frames):
            if not frames.active_mask[j]:
                np.testing.assert_array_equal(acts[:, j], 0.0)
                assert state.iterations[j] == 0
                continue
            h, trace = plca_frame(frames.columns[:, j], d,
                                  max_iter, rel_tol)
            np.testing.assert_allclose(acts[:, j], h, rtol=0, atol=1e-12)
            assert state.iterations[j] == trace.size
        return acts, state

    def test_blocks_with_masked_edges_sparse_support_and_spread_stops(self):
        rng = np.random.default_rng(11)
        m, n = 40, 2 * MM_BLOCK_FRAMES + 44
        d = random_dictionary(rng, m, 8)
        alphas = rng.choice([0.2, 1.0, 5.0], size=n)
        columns = np.stack([rng.dirichlet(np.full(m, a)) for a in alphas], axis=1)
        sparse = np.arange(n) % 3 == 0
        columns[:m // 2, sparse] = 0.0
        columns /= columns.sum(axis=0)
        mask = np.ones(n, dtype=bool)
        edges = [MM_BLOCK_FRAMES - 1, MM_BLOCK_FRAMES, 2 * MM_BLOCK_FRAMES - 1]
        mask[edges] = False
        columns[:, edges] = 0.0
        frames = NormalizedFrames(columns=columns, active_mask=mask)
        _, state = self.assert_matches_reference(frames, d)
        assert np.unique(state.iterations[mask]).size > 10
        assert state.iterations.max() < PLCA_MAX_ITER

    def test_frame_off_every_template_keeps_zero_mass(self):
        # two templates on bins 0-7; the middle frame lives on bins 8-11
        full = disjoint_dictionary(12, 3)
        d = full[:, :2]
        columns = np.full((12, 3), 1.0 / 12)
        columns[:, 1] = 0.0
        columns[8:, 1] = 0.25
        frames = NormalizedFrames(columns=columns,
                                  active_mask=np.ones(3, dtype=bool))
        # every frame is solved in one step, so at rel_tol=0 the repeated
        # objective stops it at the second iteration
        acts, state = self.assert_matches_reference(frames, d, rel_tol=0.0)
        np.testing.assert_array_equal(acts[:, 1], 0.0)
        np.testing.assert_array_equal(state.iterations, 2)

    def test_single_iteration(self):
        rng = np.random.default_rng(12)
        columns = rng.dirichlet(np.ones(20), size=5).T
        frames = NormalizedFrames(columns=columns,
                                  active_mask=np.ones(5, dtype=bool))
        _, state = self.assert_matches_reference(frames, random_dictionary(rng, 20, 4),
                                                 max_iter=1)
        np.testing.assert_array_equal(state.iterations, 1)

    def test_zero_tolerance_runs_to_the_cap(self):
        # rel_tol=0 stops only on an exactly repeated objective, which on a
        # plateau depends on rounding; 25 iterations stay clear of plateaus.
        rng = np.random.default_rng(13)
        columns = rng.dirichlet(np.ones(20), size=6).T
        frames = NormalizedFrames(columns=columns,
                                  active_mask=np.ones(6, dtype=bool))
        _, state = self.assert_matches_reference(frames, random_dictionary(rng, 20, 4),
                                                 max_iter=25, rel_tol=0.0)
        np.testing.assert_array_equal(state.iterations, 25)

    def test_single_frame(self):
        rng = np.random.default_rng(14)
        frames = single_frame(rng.dirichlet(np.ones(64)))
        _, state = self.assert_matches_reference(frames, random_dictionary(rng, 64, 9))
        assert state.iterations[0] > 2

    @staticmethod
    def queue_by_stop(rng, n, max_iter):
        """A dictionary whose first template alone covers bins 0-3, and n
        frames ordered by their stop, slowest last. The first half are one
        frame on bins 0-3, solved in one step: each stops at the second
        iteration, and at the first if its slot kept the last objective of
        the copy before it. The rest are random mixtures, some of which run
        to max_iter."""
        m = 24
        templates = random_dictionary(rng, m, 6)
        templates[:4, 1:] = 0.0
        templates[4:, 0] = 0.0
        templates /= templates.sum(axis=0)
        columns = rng.dirichlet(np.full(m, 0.5), size=n).T
        columns[4:, 0] = 0.0
        columns[:, :n // 2] = columns[:, :1] / columns[:, 0].sum()
        stops = [plca_frame(columns[:, j], templates, max_iter, PLCA_REL_TOL)[1].size
                 for j in range(n)]
        order = np.argsort(stops, kind="stable")
        frames = NormalizedFrames(columns=columns[:, order],
                                  active_mask=np.ones(n, dtype=bool))
        return frames, templates

    def test_refill_drain_and_shrink_with_slowest_frames_last(self):
        # three full turns of the live set and five frames more, so slots are
        # refilled, the queue drains and the set shrinks to the capped frames
        max_iter = 60
        frames, d = self.queue_by_stop(np.random.default_rng(15),
                                       3 * MM_BLOCK_FRAMES + 5, max_iter)
        _, state = self.assert_matches_reference(frames, d, max_iter=max_iter)
        assert state.iterations[0] == 2
        assert state.iterations[-1] == max_iter
        assert (state.iterations == max_iter).sum() > 1
        assert np.unique(state.iterations).size > 10

    @pytest.mark.parametrize("n", [MM_BLOCK_FRAMES, MM_BLOCK_FRAMES + 1])
    def test_live_set_width_edges(self, n):
        rng = np.random.default_rng(16 + n)
        columns = rng.dirichlet(np.ones(30), size=n).T
        frames = NormalizedFrames(columns=columns,
                                  active_mask=np.ones(n, dtype=bool))
        self.assert_matches_reference(frames, random_dictionary(rng, 30, 5),
                                      max_iter=200)

    def test_frame_result_does_not_depend_on_its_neighbours(self):
        max_iter = 60
        frames, d = self.queue_by_stop(np.random.default_rng(17),
                                       MM_BLOCK_FRAMES + 40, max_iter)
        acts, state = plca_unmix(frames, d, max_iter=max_iter)
        for j in range(frames.n_frames):
            alone_acts, alone = plca_unmix(single_frame(frames.columns[:, j]), d,
                                           max_iter=max_iter)
            assert alone.iterations[0] == state.iterations[j]
            np.testing.assert_allclose(alone_acts[:, 0], acts[:, j],
                                       rtol=0, atol=1e-12)

    def test_memory_is_bounded_by_the_live_set(self):
        # state kept per frame and per step (n x max_iter) would take 16 MB
        # here; the live set holds MM_BLOCK_FRAMES columns of 32 bins
        rng = np.random.default_rng(18)
        n, max_iter = 2048, 1000
        columns = rng.dirichlet(np.ones(32), size=n).T
        frames = NormalizedFrames(columns=columns,
                                  active_mask=np.ones(n, dtype=bool))
        d = random_dictionary(rng, 32, 4)
        (_, state), peak = traced_peak(plca_unmix, frames, d, max_iter=max_iter)
        assert state.iterations.max() < max_iter
        assert peak < n * max_iter * 8 / 4

    def test_masked_frames_solved_without_a_copy(self):
        # the live set reads each active column from frames.columns as it
        # enters: the outputs are those of the copied-out active columns, bit
        # for bit, and the traced peak stays below what that copy alone takes
        rng = np.random.default_rng(19)
        m, n, max_iter = 512, 16 * MM_BLOCK_FRAMES, 50
        frames = partly_masked_frames(rng, m, n)
        d = random_dictionary(rng, m, 8)
        (acts, state), peak = traced_peak(plca_unmix, frames, d, max_iter=max_iter)
        active = frames.active_mask
        expected, expected_state = plca_unmix(active_copy(frames), d,
                                              max_iter=max_iter)
        np.testing.assert_array_equal(acts[:, ~active], 0.0)
        np.testing.assert_array_equal(acts[:, active], expected)
        np.testing.assert_array_equal(state.iterations[active],
                                      expected_state.iterations)
        assert peak < m * active.sum() * 8


class TestSolveLp:
    def test_single_variable(self):
        problem = dict(objective=np.array([1.0]),
                       eq_matrix=np.array([[1.0]]),
                       eq_rhs=np.array([1.0]))
        x, obj = solve_lp(**problem)
        np.testing.assert_allclose(x, [1.0], atol=1e-12)
        assert obj == pytest.approx(1.0)

    def test_two_bin_transportation(self):
        c, eq, rhs = transport_lp_arrays(np.array([1.0, 0.0]),
                                         np.array([0.0, 1.0]),
                                         np.array([[0.0, 1.0],
                                                   [1.0, 0.0]]))
        x, obj = solve_lp(objective=c, eq_matrix=eq, eq_rhs=rhs)
        assert obj == pytest.approx(1.0)
        np.testing.assert_allclose(x.reshape(2, 2), [[0.0, 1.0],
                                                     [0.0, 0.0]], atol=1e-12)

    def test_random_transportation_matches_vertex_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            v = rng.dirichlet(np.ones(4))
            vhat = rng.dirichlet(np.ones(4))
            costs = rng.uniform(0.0, 10.0, size=(4, 4))
            c, eq, rhs = transport_lp_arrays(v, vhat, costs)
            x, obj = solve_lp(objective=c, eq_matrix=eq, eq_rhs=rhs)
            assert obj == pytest.approx(enumerate_lp_vertices(c, eq, rhs),
                                        abs=1e-9)
            np.testing.assert_allclose(eq @ x, rhs, atol=1e-9)

    def test_small_cost_differences_are_resolved(self):
        # reduced costs near 1e-7 sit between tol (1e-9) and HiGHS' default
        # feasibility tolerances (1e-7): the optimum is found only if tol
        # reaches the solver
        rng = np.random.default_rng(7)
        for _ in range(4):
            v = rng.dirichlet(np.ones(4))
            vhat = rng.dirichlet(np.ones(4))
            costs = rng.uniform(0.0, 10.0, size=(4, 4)) * 1e-7
            c, eq, rhs = transport_lp_arrays(v, vhat, costs)
            _, obj = solve_lp(objective=c, eq_matrix=eq, eq_rhs=rhs)
            assert obj == pytest.approx(enumerate_lp_vertices(c, eq, rhs),
                                        rel=1e-9)

    def test_random_feasible_lps_match_enumeration(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m, n = 3, 7
            a = rng.normal(size=(m, n))
            x0 = np.where(rng.random(n) < 0.5, rng.uniform(0.1, 2.0, n), 0.0)
            x0[0] = max(x0[0], 0.1)  # keep the instance nontrivial
            b = a @ x0
            c = rng.uniform(0.0, 5.0, n)  # nonnegative keeps it bounded
            x, obj = solve_lp(objective=c, eq_matrix=a, eq_rhs=b)
            assert obj == pytest.approx(enumerate_lp_vertices(c, a, b),
                                        abs=1e-9)
            np.testing.assert_allclose(a @ x, b, atol=1e-9)
            assert np.all(x >= 0)

    def test_redundant_rows_are_harmless(self):
        a = np.array([[1.0, 1.0],
                      [2.0, 2.0]])  # second row is twice the first
        b = np.array([1.0, 2.0])
        x, obj = solve_lp(objective=np.array([3.0, 1.0]),
                          eq_matrix=a, eq_rhs=b)
        assert obj == pytest.approx(1.0)
        np.testing.assert_allclose(x, [0.0, 1.0], atol=1e-12)

    def test_negative_rhs_rows_flipped(self):
        problem = dict(objective=np.array([1.0]),
                       eq_matrix=np.array([[-1.0]]),
                       eq_rhs=np.array([-2.0]))
        x, obj = solve_lp(**problem)
        np.testing.assert_allclose(x, [2.0], atol=1e-12)

    def test_infeasible(self):
        problem = dict(objective=np.array([1.0]),
                       eq_matrix=np.array([[1.0], [1.0]]),
                       eq_rhs=np.array([1.0, 2.0]))
        with pytest.raises(NumericError, match="The problem is infeasible."):
            solve_lp(**problem)

    def test_unbounded(self):
        problem = dict(objective=np.array([-1.0, 0.0]),
                       eq_matrix=np.array([[1.0, -1.0]]),
                       eq_rhs=np.array([0.0]))
        with pytest.raises(NumericError, match="The problem is unbounded."):
            solve_lp(**problem)

    def test_size_guard(self):
        n = 5001
        problem = dict(objective=np.zeros(n),
                       eq_matrix=np.zeros((1, n)),
                       eq_rhs=np.array([0.0]))
        with pytest.raises(NumericError, match="desk-scale guard"):
            solve_lp(**problem)

    @pytest.mark.parametrize("status, x", [(1, None), (4, None),
                                           (0, np.array([1.0 + 1e-8]))])
    def test_solver_failure_or_residual_is_numeric_error(self, monkeypatch,
                                                         status, x):
        # 1: iteration limit, 4: numerical difficulties, 0 with a point that
        # misses its constraint by 1e-8
        import scipy.optimize
        monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: SimpleNamespace(
            status=status, message="stub", x=x))
        problem = dict(objective=np.array([1.0]),
                       eq_matrix=np.array([[1.0]]), eq_rhs=np.array([1.0]))
        with pytest.raises(NumericError):
            solve_lp(**problem)

    def test_problem_validation(self):
        with pytest.raises(ValueError, match="shape"):
            solve_lp(objective=np.ones(2), eq_matrix=np.ones((1, 3)),
                     eq_rhs=np.ones(1))
        with pytest.raises(ValueError, match="matrix"):
            solve_lp(objective=np.ones(2), eq_matrix=np.ones(2), eq_rhs=np.ones(1))
        for bad in ("objective", "eq_matrix", "eq_rhs"):
            data = dict(objective=np.ones(1), eq_matrix=np.ones((1, 1)),
                        eq_rhs=np.ones(1))
            data[bad] = np.full_like(data[bad], np.nan)
            with pytest.raises(ValueError, match="finite"):
                solve_lp(**data)


class TestSolveLpSparse:
    """solve_lp on a scipy.sparse matrix keeps every check of the dense form."""

    def test_matches_dense(self):
        rng = np.random.default_rng(14)
        c, eq, rhs = transport_lp_arrays(rng.dirichlet(np.ones(5)),
                                         rng.dirichlet(np.ones(5)),
                                         rng.uniform(0.0, 10.0, size=(5, 5)))
        x, obj = solve_lp(objective=c, eq_matrix=csc_array(eq), eq_rhs=rhs)
        x_dense, obj_dense = solve_lp(objective=c, eq_matrix=eq, eq_rhs=rhs)
        np.testing.assert_allclose(x, x_dense, atol=1e-12)
        assert obj == pytest.approx(obj_dense, rel=1e-12)

    def test_duals_certify_the_optimum(self):
        # reduced costs c - A^T y are non-negative, vanish where x > 0, and
        # b . y equals the objective (strong duality)
        rng = np.random.default_rng(15)
        c, eq, rhs = transport_lp_arrays(rng.dirichlet(np.ones(6)),
                                         rng.dirichlet(np.ones(6)),
                                         rng.uniform(0.0, 10.0, size=(6, 6)))
        x, obj, y = solve_lp(objective=c, eq_matrix=eq, eq_rhs=rhs, duals=True)
        reduced = c - eq.T @ y
        assert reduced.min() > -1e-9
        assert np.abs(x * reduced).max() < 1e-9
        assert rhs @ y == pytest.approx(obj, abs=1e-9)

    def test_nan_entry_raises(self):
        eq = csc_array(np.array([[1.0, 2.0]]))
        eq.data[1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            solve_lp(objective=np.ones(2), eq_matrix=eq, eq_rhs=np.ones(1))

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            solve_lp(objective=np.ones(2), eq_matrix=csc_array(np.ones((1, 3))),
                     eq_rhs=np.ones(1))

    @pytest.mark.parametrize("problem, message", [
        ((np.ones(1), [[1.0], [1.0]], [1.0, 2.0]), "The problem is infeasible."),
        ((np.array([-1.0, 0.0]), [[1.0, -1.0]], [0.0]), "The problem is unbounded."),
        ((np.zeros(5001), np.zeros((1, 5001)), [0.0]),
         "5001 variables exceed the desk-scale guard (5000)"),
    ], ids=["infeasible", "unbounded", "guard"])
    def test_numeric_errors(self, problem, message):
        objective, eq, rhs = problem
        with pytest.raises(NumericError, match=re.escape(message)):
            solve_lp(objective=objective, eq_matrix=csc_array(np.array(eq)),
                     eq_rhs=np.array(rhs))


class TestWassersteinDivergence:
    def test_identity_costs_nothing(self):
        freqs = np.array([100.0, 200.0, 300.0])
        v = np.array([0.2, 0.3, 0.5])
        assert wasserstein_divergence(v, v, quadratic_cost(freqs, freqs)) \
            == pytest.approx(0.0, abs=1e-12)

    def test_forced_plan_quadratic(self):
        freqs = np.array([100.0, 200.0])
        got = wasserstein_divergence([1.0, 0.0], [0.0, 1.0],
                                     quadratic_cost(freqs, freqs))
        assert got == pytest.approx(10000.0, abs=1e-9)

    def test_matches_cumulative_sum_formula(self):
        # independent 1-D oracle for |f_i - f_j| cost, no LP involved
        rng = np.random.default_rng(9)
        freqs = np.cumsum(rng.uniform(0.5, 2.0, size=8))
        cost = abs_cost(freqs)
        for _ in range(10):
            v = rng.dirichlet(np.ones(8))
            vhat = rng.dirichlet(np.ones(8))
            got = wasserstein_divergence(v, vhat, cost)
            assert got == pytest.approx(w1_cumsum(v, vhat, freqs), abs=1e-9)

    def test_metric_properties_on_random_triples(self):
        rng = np.random.default_rng(10)
        freqs = np.cumsum(rng.uniform(0.5, 2.0, size=6))
        cost = abs_cost(freqs)
        for _ in range(10):
            a, b, c = rng.dirichlet(np.ones(6), size=3)
            dab = wasserstein_divergence(a, b, cost)
            dba = wasserstein_divergence(b, a, cost)
            dbc = wasserstein_divergence(b, c, cost)
            dac = wasserstein_divergence(a, c, cost)
            assert dab == pytest.approx(dba, abs=1e-9)          # symmetry
            assert dac <= dab + dbc + 1e-9                       # triangle
            assert wasserstein_divergence(a, a, cost) == pytest.approx(0.0,
                                                                       abs=1e-12)

    def test_harmonic_cost_forgives_partials(self):
        # a harmonic stack scored against its fundamental's spike: the
        # harmonic-aware cost only charges the octave penalties, while the
        # quadratic cost pays the full squared distances
        m = 32
        delta = 25.0
        freqs = delta * np.arange(1, m + 1)
        base_bin = 3  # fundamental at 100 Hz
        nu = freqs[base_bin]
        weights = np.exp(-0.3 * np.arange(1, 7))
        v = np.zeros(m)
        for p, w in enumerate(weights, start=1):
            v[p * (base_bin + 1) - 1] = w
        v /= v.sum()
        spike = np.zeros(m)
        spike[base_bin] = 1.0

        eps0 = 0.01
        d_h = wasserstein_divergence(v, spike,
                                     harmonic_cost(freqs, freqs, eps0))
        d_q = wasserstein_divergence(v, spike, quadratic_cost(freqs, freqs))
        # the target is a single spike, so the plan is forced and both
        # divergences have hand-computable values
        w_norm = weights / weights.sum()
        expected_h = sum(w * p * eps0 for p, w in enumerate(w_norm, start=1)) \
            - w_norm[0] * eps0  # q = 1 carries no penalty
        expected_q = sum(w * ((p - 1) * nu) ** 2
                         for p, w in enumerate(w_norm, start=1))
        assert d_h == pytest.approx(expected_h, abs=1e-9)
        assert d_q == pytest.approx(expected_q, abs=1e-6)
        assert d_h / d_q < 0.01

    def test_marginal_length_checked(self):
        cost = quadratic_cost([100.0, 200.0], [100.0, 200.0])
        with pytest.raises(ValueError):
            wasserstein_divergence([1.0], [0.5, 0.5], cost)


class TestOtUnmixLp:
    def test_dirac_route_equals_closed_form(self):
        rng = np.random.default_rng(11)
        freqs = np.linspace(50.0, 1200.0, 24)
        fundamentals = np.array([110.0, 220.0, 330.0, 550.0])
        cost = harmonic_cost(freqs, fundamentals, eps0=3.0)
        columns = rng.dirichlet(np.ones(24), size=4).T
        for n in range(4):
            plan, h, _ = ost_frame(columns[:, n], cost)
            h_lp, _, objective = reduced_lp(columns[:, n], cost.values)
            np.testing.assert_allclose(h_lp, h, atol=1e-9)
            assert objective == pytest.approx(
                transport_objective(plan, cost.values), abs=1e-9)

    def test_harmonic_route_identity_frame(self):
        # frame equal to a stored column: zero-cost diagonal plan, Dirac h
        d = disjoint_dictionary(12, 3)
        freqs = np.arange(1.0, 13.0)
        cost = quadratic_cost(freqs, freqs)
        acts = ot_unmix_lp(single_frame(d[:, 1]), d, cost)
        np.testing.assert_allclose(acts[:, 0], [0.0, 1.0, 0.0],
                                   atol=1e-9)
        _, objective = _unmix_lp_frame(d[:, 1], d, cost.values)
        assert objective == pytest.approx(0.0, abs=1e-12)

    def test_harmonic_route_recovers_disjoint_mixture(self):
        d = disjoint_dictionary(12, 3)
        freqs = np.arange(1.0, 13.0)
        cost = quadratic_cost(freqs, freqs)
        h_true = np.array([0.25, 0.5, 0.25])
        acts = ot_unmix_lp(single_frame(d @ h_true), d, cost)
        np.testing.assert_allclose(acts[:, 0], h_true, atol=1e-9)

    def test_noise_column_receives_unexplained_mass(self):
        freqs = np.array([100.0, 500.0])
        cost = append_noise_column(harmonic_cost(freqs, [100.0], eps0=1.0),
                                   amplitude=10.0)
        # 500 Hz is no low-order partial of 100 Hz at this eps0... it is
        # (q=5): min((500-500)^2 + 5, 10) = 5, so tune amplitude below that
        cheap = append_noise_column(harmonic_cost(freqs, [100.0], eps0=1.0),
                                    amplitude=2.0)
        v = np.array([0.6, 0.4])
        np.testing.assert_allclose(reduced_lp(v, cheap.values)[0], [0.6, 0.4],
                                   atol=1e-9)
        np.testing.assert_allclose(reduced_lp(v, cost.values)[0], [1.0, 0.0],
                                   atol=1e-9)

    def test_guard_on_bin_count(self):
        m = OT_LP_MAX_BINS + 1
        frames = NormalizedFrames(columns=np.full((m, 1), 1.0 / m),
                                  active_mask=np.array([True]))
        freqs = np.arange(1.0, m + 1.0)
        with pytest.raises(NumericError, match="LP unmixing guard"):
            ot_unmix_lp(frames, np.full((m, 1), 1.0 / m), harmonic_cost(freqs, freqs, eps0=1.0))

    def test_harmonic_dictionary_needs_square_cost(self):
        d = disjoint_dictionary(12, 3)
        cost = harmonic_cost(np.arange(1.0, 13.0), [100.0, 200.0, 300.0],
                             eps0=1.0)
        with pytest.raises(ValueError):
            ot_unmix_lp(single_frame(d[:, 0]), d, cost)
        square_of_other_size = quadratic_cost(np.arange(1.0, 14.0), np.arange(1.0, 14.0))
        with pytest.raises(ValueError, match="M x M cost"):
            ot_unmix_lp(single_frame(d[:, 0]), d, square_of_other_size)

    def test_masked_frames_left_zero(self):
        freqs = np.array([100.0, 200.0, 400.0])
        cost = harmonic_cost(freqs, freqs, eps0=1.0)
        d = [[0.5, 0.0], [0.25, 0.5], [0.25, 0.5]]
        columns = np.column_stack([np.array([0.5, 0.25, 0.25]),
                                   np.zeros(3)])
        frames = NormalizedFrames(columns=columns,
                                  active_mask=np.array([True, False]))
        acts = ot_unmix_lp(frames, d, cost)
        np.testing.assert_array_equal(acts[:, 1], 0.0)
        assert acts[:, 0].sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_output_raises(self, monkeypatch, bad):
        # an LP point is checked against its constraints, not for finiteness,
        # so a frame solve returning a non-finite h is stubbed: it must end
        # as NumericError, not as activations
        monkeypatch.setattr(baselines, "_unmix_lp_frame",
                            lambda v, w, cost_values: (np.full(w.shape[1], bad),))
        d = disjoint_dictionary(12, 3)
        freqs = np.arange(1.0, 13.0)
        with pytest.raises(NumericError, match="non-finite"):
            ot_unmix_lp(single_frame(d[:, 0]), d, quadratic_cost(freqs, freqs))


def full_lp(v, w, cost_values):
    """The joint (vec T, h) LP on the full support, with dense constraints
    built independently of baselines: returns (h, objective)."""
    m, k = w.shape
    eq = np.zeros((2 * m, m * m + k))
    for i in range(m):
        eq[i, i * m:(i + 1) * m] = 1.0
        eq[m + i, i:m * m:m] = 1.0
    eq[m:, m * m:] = -w
    x, objective = solve_lp(np.concatenate([cost_values.ravel(), np.zeros(k)]),
                            eq, np.concatenate([v, np.zeros(m)]))
    return x[m * m:], objective


def priced_lp_problem(m, seed, kind):
    """A seeded (v, W, C) with zero-mass bins in v and zero rows in W; C is
    the harmonic cost of a harmonic grid at eps0 = `kind` (at 0, every bin
    reaches each bin it is a multiple of at cost 0, an exact tie), or small
    integers (ties everywhere) for kind "integer_ties"."""
    rng = np.random.default_rng(seed)
    k = max(1, m // 4)
    freqs = 25.0 * np.arange(1, m + 1)
    if kind == "integer_ties":
        values = rng.integers(0, 3, size=(m, m)).astype(float)
    else:
        values = harmonic_cost(freqs, freqs, eps0=kind, octave_scaling=False).values
    w = rng.uniform(0.0, 1.0, size=(m, k)) ** 2
    w[0] += 0.1  # no column is all zero
    w[1 + rng.choice(m - 1, size=m // 3, replace=False)] = 0.0
    w /= w.sum(axis=0)
    v = rng.dirichlet(np.ones(m))
    v[rng.choice(m, size=m // 4, replace=False)] = 0.0
    return v / v.sum(), w, values


def count_solves(monkeypatch, fail_first=False):
    """Spy on baselines.solve_lp: the variable count of every solve, in
    order. With fail_first, the first solve raises NumericError."""
    sizes = []
    real = baselines.solve_lp

    def spy(objective, *args, **kwargs):
        sizes.append(len(objective))
        if fail_first and len(sizes) == 1:
            raise NumericError("stub failure")
        return real(objective, *args, **kwargs)

    monkeypatch.setattr(baselines, "solve_lp", spy)
    return sizes


class TestPricedLp:
    """_unmix_lp_frame solves on a candidate support and prices the rest;
    its result is the full-support LP's."""

    @pytest.mark.parametrize("m", [2, 5, 17, 64])
    @pytest.mark.parametrize("eps0", [0.0, 1.0])
    def test_equals_full_support_lp(self, m, eps0):
        for seed in range(3):
            v, w, values = priced_lp_problem(m, seed, eps0)
            if m > 2 and eps0 == 0.0:
                assert np.sum(values == 0.0) > m  # exact ties off the diagonal
            h, objective = _unmix_lp_frame(v, w, values)
            h_full, objective_full = full_lp(v, w, values)
            np.testing.assert_allclose(h, h_full, rtol=0, atol=1e-9)
            assert objective == pytest.approx(objective_full, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("m", [2, 5, 17, 64])
    def test_integer_ties_reach_the_full_optimum(self, m):
        # with costs in {0, 1, 2} many activations are optimal, so h is
        # checked by what it costs: the transport from v to W h must cost
        # the full LP's optimum
        for seed in range(3):
            v, w, values = priced_lp_problem(m, seed, "integer_ties")
            h, objective = _unmix_lp_frame(v, w, values)
            _, objective_full = full_lp(v, w, values)
            assert objective == pytest.approx(objective_full, rel=1e-9, abs=1e-12)
            assert h.min() >= 0.0
            assert wasserstein_divergence(v, w @ h, CostMatrix(values)) \
                == pytest.approx(objective_full, rel=1e-9, abs=1e-9)

    def test_pricing_adds_pairs_outside_the_initial_support(self, monkeypatch):
        # rows 0 and 1 hold the mass; templates 0 and 1 sit on bins 18 and
        # 19. The north-west corner pairs (0, 18) and (1, 19), at cost 10 + 2;
        # the optimum sends both rows to bin 19, and (0, 19) is neither
        # among row 0's cheapest columns nor among column 19's cheapest rows
        m = LP_CANDIDATES + 4
        values = np.zeros((m, m))
        values[:2, LP_CANDIDATES:] = [[5.0, 5.0, 10.0, 1.0], [5.0, 5.0, 10.0, 2.0]]
        w = np.zeros((m, 2))
        w[m - 2, 0] = w[m - 1, 1] = 1.0
        v = np.zeros(m)
        v[:2] = 0.5
        sizes = count_solves(monkeypatch)
        h, objective = _unmix_lp_frame(v, w, values)
        assert len(sizes) >= 2
        assert max(sizes) < m * m + 2  # feasible from the start: no full-support fallback
        np.testing.assert_allclose(h, [0.0, 1.0], atol=1e-12)
        assert objective == pytest.approx(1.5, rel=1e-12)
        h_full, objective_full = full_lp(v, w, values)
        np.testing.assert_allclose(h, h_full, atol=1e-9)
        assert objective == pytest.approx(objective_full, rel=1e-9)

    @pytest.mark.parametrize("m", [2, 9, LP_CANDIDATES])
    def test_small_grids_solve_once_on_the_full_support(self, monkeypatch, m):
        v, w, values = priced_lp_problem(m, 16, 1.0)
        sizes = count_solves(monkeypatch)
        _unmix_lp_frame(v, w, values)
        assert sizes == [m * m + w.shape[1]]

    def test_toy_problem_solves_once_on_a_restricted_support(self, monkeypatch):
        freqs, frame, _ = make_toy_scenario("a", seed=0, bins=64, f_max=700.0)
        templates = toy_templates(freqs)
        sizes = count_solves(monkeypatch)
        _unmix_lp_frame(frame, templates, harmonic_cost(freqs, freqs, eps0=1.0).values)
        assert len(sizes) == 1
        assert sizes[0] < 64 * 64 // 2

    def test_failed_restricted_lp_falls_back_to_the_full_support(self, monkeypatch):
        v, w, values = priced_lp_problem(64, 17, 1.0)
        sizes = count_solves(monkeypatch, fail_first=True)
        h, objective = _unmix_lp_frame(v, w, values)
        assert sizes[0] < sizes[1] == 64 * 64 + w.shape[1]
        assert len(sizes) == 2
        h_full, objective_full = full_lp(v, w, values)
        np.testing.assert_allclose(h, h_full, atol=1e-9)
        assert objective == pytest.approx(objective_full, rel=1e-9)

    def test_only_the_full_lp_reports_a_failure(self, monkeypatch):
        def failing(objective, *args, **kwargs):
            sizes.append(len(objective))
            raise NumericError("The problem is infeasible.")

        sizes = []
        monkeypatch.setattr(baselines, "solve_lp", failing)
        v, w, values = priced_lp_problem(64, 18, 1.0)
        with pytest.raises(NumericError, match="The problem is infeasible."):
            _unmix_lp_frame(v, w, values)
        assert sizes[1:] == [64 * 64 + w.shape[1]]

    @pytest.mark.parametrize("m", [2, 5, 17, 64])
    def test_north_west_corner_alone_is_feasible(self, m):
        for seed in range(5):
            v, w, values = priced_lp_problem(m, 20 + seed, 1.0)
            u = w.sum(axis=1) * (v.sum() / w.sum())  # W h0, h0 flat
            rows, cols = _north_west_corner(v, u)
            assert rows.size <= 2 * m + 1
            x, _ = solve_lp(np.concatenate([values[rows, cols], np.zeros(w.shape[1])]),
                            _marginal_constraints(rows, cols, m, w),
                            np.concatenate([v, np.zeros(m)]))
            np.testing.assert_allclose(np.bincount(rows, x[:rows.size], minlength=m),
                                       v, atol=1e-12)


def tied_costs(name):
    """Reduced costs whose rows have several cheapest columns."""
    if name == "integer_duplicate_column":
        values = np.random.default_rng(12).integers(0, 3, size=(16, 5)).astype(float)
        values[:, 4] = values[:, 1]
        return CostMatrix(values=values)
    freqs = 50.0 * np.arange(1, 33)  # every bin sits on a harmonic
    fundamentals = [100.0, 150.0, 200.0, 300.0]
    if name == "eps0_zero":
        return harmonic_cost(freqs, fundamentals, eps0=0.0, octave_scaling=False)
    # a flat partial penalty equal to the noise amplitude: exact partials
    # tie with the noise column
    return append_noise_column(
        harmonic_cost(freqs, fundamentals, eps0=5.0, octave_scaling=False), 5.0)


class TestClosedFormAgainstLp:
    """The ost_frame oracle against the exact reduced LP on costs with exact
    ties.

    With ties the optimal h is not unique, so the closed form is checked
    by its objective and by the row marginals of both plans."""

    @pytest.mark.parametrize("name", ["integer_duplicate_column", "eps0_zero",
                                      "flat_penalty_noise_tie"])
    def test_objective_and_marginals(self, name):
        cost = tied_costs(name)
        values = cost.values
        m = values.shape[0]
        tied_rows = (values == values.min(axis=1, keepdims=True)).sum(axis=1) > 1
        assert tied_rows.sum() >= 3
        rng = np.random.default_rng(13)
        frames = [np.full(m, 1.0 / m), np.eye(m)[int(np.argmax(tied_rows))]]
        for _ in range(6):
            v = rng.dirichlet(np.ones(m))
            v[rng.choice(m, size=m // 4, replace=False)] = 0.0
            frames.append(v / v.sum())
        for v in frames:
            plan, h, _ = ost_frame(v, cost)
            h_lp, lp_plan, objective = reduced_lp(v, values)
            assert transport_objective(plan, values) == pytest.approx(
                objective, abs=1e-9)
            np.testing.assert_allclose(plan.sum(axis=1), v, rtol=0, atol=1e-12)
            np.testing.assert_allclose(lp_plan.sum(axis=1), v, rtol=0, atol=1e-12)
            assert np.all(lp_plan >= 0)
            assert h.sum() == pytest.approx(1.0, abs=1e-12)
            assert h_lp.sum() == pytest.approx(1.0, abs=1e-12)


class TestJointLpOnToyScenario:
    def test_exact_lp_beats_plca_under_fundamental_shift(self):
        # small grid keeps the joint LP (M^2 + K vars) tractable; narrow
        # kernel keeps the coarse-grid templates well separated
        freqs, frame, h_true = make_toy_scenario("a", seed=1, bins=64, f_max=700.0,
                                                 kernel_width_bins=0.5)
        frames = NormalizedFrames(columns=frame[:, None],
                                  active_mask=np.array([True]))
        cost = harmonic_cost(freqs, freqs, eps0=1.0)
        templates = toy_templates(freqs, kernel_width_bins=0.5)
        acts_lp = ot_unmix_lp(frames, templates, cost)
        acts_plca, _ = plca_unmix(frames, templates)
        err_lp = l1_activation_error(acts_lp[:, 0], h_true)
        err_plca = l1_activation_error(acts_plca[:, 0], h_true)
        assert err_lp < err_plca
