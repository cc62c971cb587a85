"""Cost matrix tests.

The harmonic cost only evaluates the handful of q values that can attain the
minimum; the oracle here enumerates every q in 1..q_max instead and the two
routes must agree exactly.
"""

import warnings

import numpy as np
import pytest

from ost.costs import (CostMatrix, append_noise_column, harmonic_cost,
                       quadratic_cost)


def harmonic_cost_enumerated(row_freqs, col_freqs, eps0, octave_scaling):
    """Brute force: try every integer q from 1 to ceil(f/nu)."""
    out = np.empty((len(row_freqs), len(col_freqs)))
    for i, f in enumerate(row_freqs):
        for j, nu in enumerate(col_freqs):
            qmax = int(np.ceil(f / nu))
            best = np.inf
            for q in range(1, max(qmax, 1) + 1):
                if q == 1:
                    pen = 0.0
                elif octave_scaling:
                    pen = q * eps0
                else:
                    pen = eps0
                best = min(best, (f - q * nu) ** 2 + pen)
            out[i, j] = best
    return out


class TestQuadraticCost:
    def test_values(self):
        cost = quadratic_cost([1.0, 2.0, 5.0], [1.0, 4.0])
        np.testing.assert_array_equal(cost.values, [[0.0, 9.0],
                                                    [1.0, 4.0],
                                                    [16.0, 1.0]])

    def test_rejects_nonpositive_freqs(self):
        with pytest.raises(ValueError):
            quadratic_cost([0.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            quadratic_cost([1.0], [-2.0])


class TestHarmonicCost:
    def test_exact_third_partial_flat_penalty(self):
        cost = harmonic_cost([300.0], [100.0], eps0=1.0, octave_scaling=False)
        assert cost.values[0, 0] == pytest.approx(1.0, abs=0)

    def test_exact_octave_scaled_penalty(self):
        cost = harmonic_cost([200.0], [100.0], eps0=1.0, octave_scaling=True)
        assert cost.values[0, 0] == pytest.approx(2.0, abs=0)

    def test_below_fundamental_pays_quadratic(self):
        # f < nu leaves only q = 1, no harmonic shortcut
        cost = harmonic_cost([100.0], [200.0], eps0=1.0, octave_scaling=True)
        assert cost.values[0, 0] == pytest.approx(10000.0, abs=0)

    def test_fundamental_is_free(self):
        cost = harmonic_cost([440.0], [440.0], eps0=5.0, octave_scaling=True)
        assert cost.values[0, 0] == 0.0

    def test_matches_enumeration_oracle(self):
        # rtol of one ulp: vectorized squaring and the scalar loop may round
        # the last bit differently, nothing more
        rng = np.random.default_rng(42)
        for octave_scaling in (True, False):
            for eps0 in (0.0, 1.0, 37.5, 1e4):
                rows = rng.uniform(20.0, 4000.0, size=40)
                cols = rng.uniform(25.0, 900.0, size=12)
                cost = harmonic_cost(rows, cols, eps0, octave_scaling)
                oracle = harmonic_cost_enumerated(rows, cols, eps0, octave_scaling)
                np.testing.assert_allclose(cost.values, oracle, rtol=1e-15, atol=0)

    def test_matches_enumeration_on_near_integer_ratios(self):
        # ratios straddling integers are where a lazy candidate set would slip
        cols = np.array([100.0])
        rows = np.concatenate([np.arange(1, 12) * 100.0 - 0.5,
                               np.arange(1, 12) * 100.0 + 0.5])
        for eps0 in (0.5, 200.0, 9e3):
            cost = harmonic_cost(rows, cols, eps0, True)
            oracle = harmonic_cost_enumerated(rows, cols, eps0, True)
            np.testing.assert_allclose(cost.values, oracle, rtol=1e-15, atol=0)

    def test_large_eps0_collapses_to_quadratic(self):
        # when every penalty dwarfs the quadratic term, q = 1 always wins
        rows = np.linspace(50.0, 1000.0, 25)
        cols = np.array([60.0, 220.0, 440.0])
        huge = harmonic_cost(rows, cols, eps0=1e12, octave_scaling=True)
        np.testing.assert_array_equal(huge.values, quadratic_cost(rows, cols).values)

    def test_zero_eps0_free_harmonics(self):
        # with no penalty every exact partial costs nothing
        cost = harmonic_cost([100.0, 200.0, 300.0, 700.0], [100.0], eps0=0.0,
                             octave_scaling=True)
        np.testing.assert_array_equal(cost.values[:, 0], 0.0)

    def test_monotone_in_eps0_and_nonnegative(self):
        rng = np.random.default_rng(5)
        rows = rng.uniform(30.0, 3000.0, 30)
        cols = rng.uniform(50.0, 500.0, 8)
        prev = harmonic_cost(rows, cols, 0.0, True).values
        assert np.all(prev >= 0)
        for eps0 in (1.0, 10.0, 100.0):
            cur = harmonic_cost(rows, cols, eps0, True).values
            assert np.all(cur + 1e-15 >= prev)  # pointwise nondecreasing in eps0
            prev = cur

    @pytest.mark.parametrize("octave_scaling", [True, False])
    def test_huge_eps0_is_the_quadratic_cost(self, octave_scaling):
        # the penalty (and, under octave scaling, the vertex shift at a
        # 0.5 Hz column) overflows to inf: the exact limit, with no warning
        rows = np.arange(1.0, 257.0) * 10.77
        cols = np.concatenate([[0.5], 27.5 * 2.0 ** (np.arange(88) / 12.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = harmonic_cost(rows, cols, 1e308, octave_scaling).values
        np.testing.assert_array_equal(got, quadratic_cost(rows, cols).values)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            harmonic_cost([100.0], [0.0], 1.0)
        with pytest.raises(ValueError):
            harmonic_cost([-1.0], [100.0], 1.0)
        with pytest.raises(ValueError):
            harmonic_cost([100.0], [100.0], -1.0)
        with pytest.raises(ValueError):
            harmonic_cost([100.0], [100.0], np.inf)


class TestNoiseColumn:
    def test_appends_flat_column(self):
        base = harmonic_cost([100.0, 250.0], [100.0], eps0=1.0)
        noisy = append_noise_column(base, 42.0)
        assert noisy.values.shape == (2, 2)
        np.testing.assert_array_equal(noisy.values[:, -1], [42.0, 42.0])
        np.testing.assert_array_equal(noisy.values[:, 0], base.values[:, 0])

    def test_rejects_bad_amplitude(self):
        base = quadratic_cost([100.0], [100.0])
        with pytest.raises(ValueError):
            append_noise_column(base, -1.0)
        with pytest.raises(ValueError):
            append_noise_column(base, np.nan)


class TestCostMatrixValidation:
    def test_negative_and_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            CostMatrix(values=np.array([[-1.0]]))
        with pytest.raises(ValueError):
            CostMatrix(values=np.array([[np.inf]]))
