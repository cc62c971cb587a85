"""Dictionary tests: pitch mapping, Gaussian harmonic combs, and the checks
on comb settings and template matrices where they enter."""

import warnings

import numpy as np
import pytest

from ost.baselines import ot_unmix_lp, plca_unmix
from ost.costs import quadratic_cost
from ost.dictionary import (MAX_PARTIALS, damped_weights, harmonic_column,
                            make_harmonic_dictionary, midi_range_fundamentals,
                            midi_to_freq)
from ost.evaluation import make_toy_scenario
from ost.frontend import NormalizedFrames

from helpers import traced_peak


class TestMidiToFreq:
    def test_reference_pitches(self):
        assert midi_to_freq(69) == pytest.approx(440.0, abs=0)
        assert midi_to_freq(50) == pytest.approx(146.83, abs=5e-3)
        assert midi_to_freq(62) == pytest.approx(293.66, abs=5e-3)
        assert midi_to_freq(48) == pytest.approx(130.81, abs=5e-3)

    def test_octave_doubles(self):
        for m in (21, 36, 57, 100):
            assert midi_to_freq(m + 12) == pytest.approx(2 * midi_to_freq(m))

    def test_range_check(self):
        with pytest.raises(ValueError):
            midi_to_freq(-1)
        with pytest.raises(ValueError):
            midi_to_freq(128)

    def test_chromatic_range(self):
        fundamentals = midi_range_fundamentals(36, 95)
        assert fundamentals.size == 60
        assert fundamentals[0] == pytest.approx(65.406, abs=5e-4)
        assert fundamentals[-1] == pytest.approx(1975.53, abs=5e-3)
        assert np.all(np.diff(fundamentals) > 0)
        with pytest.raises(ValueError):
            midi_range_fundamentals(60, 59)


class TestHarmonicColumn:
    def test_sum_of_gaussians_longhand(self):
        # oracle: accumulate the bumps with an explicit scalar loop
        freqs = np.linspace(10.0, 1000.0, 331)
        weights = np.array([1.0, 0.5, 0.25])
        nu, width = 110.0, 8.0
        expected = np.zeros_like(freqs)
        for i, f in enumerate(freqs):
            for p, w in enumerate(weights, start=1):
                expected[i] += w * np.exp(-((f - p * nu) ** 2) / (2 * width ** 2))
        got = harmonic_column(freqs, nu, width, weights)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_partials_above_grid_top_dropped(self):
        freqs = np.linspace(10.0, 500.0, 50)
        with_tail = harmonic_column(freqs, 200.0, 5.0, np.array([1.0, 1.0, 1.0]))
        truncated = harmonic_column(freqs, 200.0, 5.0, np.array([1.0, 1.0]))
        # third partial sits at 600 Hz, past the 500 Hz top bin
        np.testing.assert_array_equal(with_tail, truncated)

    @pytest.mark.parametrize("width", [1e-300, 1e-160])
    def test_vanishing_width_is_a_spike(self, width):
        # the variance underflows to 0 (1e-300) or is subnormal (1e-160):
        # each bump is its limit, 1 on the bin at its center, without a warning
        freqs = 10.0 * np.arange(1.0, 65.0)
        weights = np.array([1.0, 0.5, 0.25])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = harmonic_column(freqs, 100.0, width, weights)
        expected = np.zeros_like(freqs)
        expected[[9, 19, 29]] = weights
        np.testing.assert_array_equal(got, expected)


class TestDampedWeights:
    def test_values_and_overflowing_limit(self):
        np.testing.assert_array_equal(damped_weights(0.3, 3),
                                      np.exp(-0.3 * np.arange(1, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(damped_weights(1e308, 4) == 0.0)


class TestMakeHarmonicDictionary:
    def setup_method(self):
        self.freqs = np.linspace(5.0, 2000.0, 400)

    def test_columns_are_distributions(self):
        fundamentals = midi_range_fundamentals(48, 59)
        w = make_harmonic_dictionary(self.freqs, fundamentals, 10.0, 0.3, 8)
        assert w.shape == (400, 12)
        np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(w >= 0)

    def test_partial_amplitudes_follow_damping(self):
        # with narrow, well-separated bumps the grid value at partial p is
        # close to exp(-damping * p) / normalization
        freqs = np.arange(1.0, 4001.0)  # 1 Hz grid
        col = make_harmonic_dictionary(freqs, [400.0], 1.5, damping=0.5,
                                       n_partials=4)[:, 0]
        peaks = np.array([col[int(p * 400) - 1] for p in range(1, 5)])
        ratios = peaks[1:] / peaks[:-1]
        np.testing.assert_allclose(ratios, np.exp(-0.5), rtol=1e-6)

    def test_fundamental_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            make_harmonic_dictionary(self.freqs, [2500.0], 10.0)
        with pytest.raises(ValueError):
            make_harmonic_dictionary(self.freqs, [-10.0], 10.0)

    def test_empty_fundamentals_rejected(self):
        with pytest.raises(ValueError):
            make_harmonic_dictionary(self.freqs, [], 10.0)

    def test_empty_grid_rejected(self):
        # the grid's top bin bounds the fundamentals and the partials
        with pytest.raises(ValueError, match="^freqs must be a non-empty grid$"):
            make_harmonic_dictionary(np.array([]), [100.0], 10.0)
        with pytest.raises(ValueError, match="^freqs must be a non-empty grid$"):
            harmonic_column(np.array([]), 100.0, 1.0, np.ones(3))

    def test_massless_template_rejected(self):
        # kernel so narrow that no grid point catches any bump mass
        coarse = np.array([1000.0, 2000.0, 3000.0])
        with pytest.raises(ValueError):
            make_harmonic_dictionary(coarse, [310.0], 1e-3, damping=0.3,
                                     n_partials=2)


def template_consumers(m=2):
    """plca_unmix and ot_unmix_lp, the two functions that take a template
    matrix, each as a one-argument call on one flat frame of m bins."""
    frames = NormalizedFrames(columns=np.full((m, 1), 1.0 / m),
                              active_mask=np.array([True]))
    freqs = np.arange(1.0, m + 1.0)
    cost = quadratic_cost(freqs, freqs)
    return [lambda w: plca_unmix(frames, w),
            lambda w: ot_unmix_lp(frames, w, cost)]


class TestDictionaryValidation:
    """make_harmonic_dictionary checks its fundamentals and bin grid;
    plca_unmix and ot_unmix_lp check the template matrix they are given."""

    @pytest.mark.parametrize("fundamentals", [[], [-100.0, 200.0], [np.nan, 100.0]])
    def test_fundamentals_checked(self, fundamentals):
        # empty, non-positive and NaN fundamentals (NaN compares false both
        # ways, so a range check for any value out of range let it through)
        with pytest.raises(ValueError, match="fundamentals"):
            make_harmonic_dictionary(np.linspace(5.0, 2000.0, 400), fundamentals, 10.0)

    @pytest.mark.parametrize("where", [0, -1])
    def test_grid_checked(self, where):
        # a NaN bin frequency gave NaN templates, at the top bin as elsewhere
        freqs = np.linspace(5.0, 2000.0, 400)
        freqs[where] = np.nan
        with pytest.raises(ValueError, match="^freqs must be finite$"):
            make_harmonic_dictionary(freqs, [100.0], 10.0)

    def test_harmonic_requires_templates(self):
        # no matrix, no column, or a row count other than the frames' bins
        for consume in template_consumers():
            for bad in (None, np.zeros((2, 0)), np.full((3, 1), 1.0 / 3)):
                with pytest.raises(ValueError,
                                   match="templates must be a matrix of 2 rows"):
                    consume(bad)

    def test_harmonic_columns_must_normalize(self):
        ok = np.full((4, 1), 0.25)
        ok[0] += 1e-13  # within the tolerance
        for consume in template_consumers(4):
            with pytest.raises(ValueError, match="columns must sum to 1"):
                consume(np.full((4, 1), 0.3))
            np.testing.assert_allclose(consume(ok)[0], 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_harmonic_templates_must_be_finite(self, bad):
        # NaN passes both the sign and the column-sum checks on its own.
        for consume in template_consumers():
            with pytest.raises(ValueError, match="^templates must be finite$"):
                consume(np.array([[bad, 0.5], [bad, 0.5]]))

    def test_params_validation(self):
        # make_harmonic_dictionary and make_toy_scenario check the comb
        # settings by one function: same checks, same messages
        freqs = np.linspace(5.0, 2000.0, 400)
        bad_settings = [(0.0, 0.3, 8), (1.0, -0.1, 8), (1.0, 0.3, 0),
                        (1.0, 0.3, MAX_PARTIALS + 1),
                        (1.0, 0.3, 2.5)]  # 2.5 built 3 partials
        # inf width gave identical flat templates; NaN failed only later
        for bad in (np.nan, np.inf, -np.inf):
            bad_settings += [(bad, 0.3, 8), (1.0, bad, 8)]
        for width, damping, n_partials in bad_settings:
            with pytest.raises(ValueError) as built:
                make_harmonic_dictionary(freqs, [100.0], width, damping, n_partials)
            # the toy grid spacing is 1 Hz, so the width in bins is in Hz
            with pytest.raises(ValueError) as toy:
                make_toy_scenario("a", seed=0, bins=2800, f_max=2800.0,
                                  kernel_width_bins=width, damping=damping,
                                  n_partials=n_partials)
            assert str(toy.value) == str(built.value)
            name = ("kernel_width" if not 0 < width < np.inf else
                    "damping" if not 0 <= damping < np.inf else "n_partials")
            assert str(built.value).startswith(name)

    @pytest.mark.parametrize("build", [
        lambda n: make_harmonic_dictionary(np.linspace(5.0, 2000.0, 400), [100.0],
                                           10.0, 0.3, n),
        lambda n: make_toy_scenario("a", seed=0, bins=64, f_max=700.0, n_partials=n),
        lambda n: make_toy_scenario("b", seed=0, bins=64, f_max=700.0, n_partials=n),
    ], ids=["dictionary", "toy_a", "toy_b"])
    def test_partial_count_refused_before_its_weights(self, build):
        # one weight per requested partial is allocated before the partials
        # above the top bin are dropped, so a count past MAX_PARTIALS is
        # refused first: 1e9 of them took 8 GB
        def refused():
            with pytest.raises(ValueError, match=f"^n_partials must be >= 1 and "
                                                 f"<= {MAX_PARTIALS}, got 65537$"):
                build(MAX_PARTIALS + 1)

        _, peak = traced_peak(refused)
        assert peak < 2 ** 20
        build(MAX_PARTIALS)  # the cap itself is accepted
