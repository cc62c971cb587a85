"""Dictionary tests: pitch mapping, Gaussian harmonic combs, validation."""

import warnings

import numpy as np
import pytest

from ost.dictionary import (Dictionary, HarmonicTemplateParams, damped_weights,
                            harmonic_column, make_harmonic_dictionary,
                            midi_range_fundamentals, midi_to_freq)


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
        self.params = HarmonicTemplateParams(kernel_width=10.0, damping=0.3,
                                             n_partials=8)

    def test_columns_are_distributions(self):
        fundamentals = midi_range_fundamentals(48, 59)
        d = make_harmonic_dictionary(self.freqs, fundamentals, self.params)
        assert d.templates.shape == (400, 12)
        np.testing.assert_allclose(d.templates.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(d.templates >= 0)

    def test_partial_amplitudes_follow_damping(self):
        # with narrow, well-separated bumps the grid value at partial p is
        # close to exp(-damping * p) / normalization
        freqs = np.arange(1.0, 4001.0)  # 1 Hz grid
        params = HarmonicTemplateParams(kernel_width=1.5, damping=0.5,
                                        n_partials=4)
        d = make_harmonic_dictionary(freqs, [400.0], params)
        col = d.templates[:, 0]
        peaks = np.array([col[int(p * 400) - 1] for p in range(1, 5)])
        ratios = peaks[1:] / peaks[:-1]
        np.testing.assert_allclose(ratios, np.exp(-0.5), rtol=1e-6)

    def test_fundamental_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            make_harmonic_dictionary(self.freqs, [2500.0], self.params)
        with pytest.raises(ValueError):
            make_harmonic_dictionary(self.freqs, [-10.0], self.params)

    def test_empty_fundamentals_rejected(self):
        with pytest.raises(ValueError):
            make_harmonic_dictionary(self.freqs, [], self.params)

    def test_massless_template_rejected(self):
        # kernel so narrow that no grid point catches any bump mass
        coarse = np.array([1000.0, 2000.0, 3000.0])
        params = HarmonicTemplateParams(kernel_width=1e-3, damping=0.3,
                                        n_partials=2)
        with pytest.raises(ValueError):
            make_harmonic_dictionary(coarse, [310.0], params)


class TestDictionaryValidation:
    @pytest.mark.parametrize("fundamentals", [[], [100.0, 100.0], [-100.0, 200.0]])
    def test_fundamentals_checked(self, fundamentals):
        # empty, repeated and non-positive fundamentals, on valid templates
        with pytest.raises(ValueError, match="fundamentals"):
            Dictionary(fundamentals=np.array(fundamentals),
                       templates=np.full((2, len(fundamentals)), 0.5))

    def test_harmonic_requires_templates(self):
        with pytest.raises(ValueError):
            Dictionary(fundamentals=np.array([100.0]), templates=None)

    def test_harmonic_columns_must_normalize(self):
        bad = np.full((4, 1), 0.3)
        with pytest.raises(ValueError):
            Dictionary(fundamentals=np.array([100.0]), templates=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_harmonic_templates_must_be_finite(self, bad):
        # NaN passes both the sign and the column-sum checks on its own.
        with pytest.raises(ValueError, match="finite"):
            Dictionary(fundamentals=np.array([100.0, 200.0]),
                       templates=np.array([[bad, 0.5], [bad, 0.5]]))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            HarmonicTemplateParams(kernel_width=0.0)
        with pytest.raises(ValueError):
            HarmonicTemplateParams(kernel_width=1.0, damping=-0.1)
        with pytest.raises(ValueError):
            HarmonicTemplateParams(kernel_width=1.0, n_partials=0)
        # inf width gave identical flat templates; NaN failed only in Dictionary
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="kernel_width"):
                HarmonicTemplateParams(kernel_width=bad)
            with pytest.raises(ValueError, match="damping"):
                HarmonicTemplateParams(kernel_width=1.0, damping=bad)
