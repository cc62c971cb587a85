"""Evaluation tests: rasterization, thresholding, scoring, toy scenarios."""

import logging

import numpy as np
import pytest

from ost import evaluation
from ost.baselines import plca_unmix
from ost.costs import harmonic_cost
from ost.errors import DataError
from ost.evaluation import (NoteEvent, TOY_PAIR_A, TOY_PAIR_B, TOY_PITCHES,
                            events_to_roll, f_measure,
                            l1_activation_error, load_ground_truth,
                            make_toy_scenario, parse_ground_truth,
                            threshold_activations, toy_fundamentals)
from ost.frontend import NormalizedFrames
from ost.solvers import SolverConfig

from helpers import toy_templates, write_ground_truth
from oracles import ost_frame, ost_group_frame


class TestNoteEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoteEvent(1.0, 1.0, 60)       # zero length
        with pytest.raises(ValueError):
            NoteEvent(-0.5, 1.0, 60)      # negative onset
        with pytest.raises(ValueError):
            NoteEvent(0.0, 1.0, 128)      # pitch out of range
        with pytest.raises(ValueError, match="offset must be finite"):
            NoteEvent(0.5, np.inf, 60)    # a note without an end


class TestEventsToRoll:
    def test_half_second_hop_example(self):
        roll = events_to_roll([NoteEvent(0.0, 1.0, 50)], (36, 95),
                              [0.0, 0.5, 1.0, 1.5])
        row = roll[50 - 36]
        np.testing.assert_array_equal(row, [True, True, False, False])
        assert roll.sum() == 2

    def test_empty_event_list(self):
        roll = events_to_roll([], (36, 95), [0.0, 0.1, 0.2])
        assert not roll.any()
        assert roll.shape == (60, 3) and roll.dtype == bool

    def test_out_of_range_pitch_dropped_with_warning(self, caplog):
        events = [NoteEvent(0.0, 1.0, 20), NoteEvent(0.0, 1.0, 40)]
        with caplog.at_level(logging.WARNING, logger="ost.evaluation"):
            roll = events_to_roll(events, (36, 95), [0.0, 0.5])
        assert roll[40 - 36].any()
        assert roll.sum(axis=0).max() == 1  # pitch 20 went nowhere
        assert any("dropped 1" in rec.getMessage() for rec in caplog.records)

    def test_interval_is_half_open(self):
        # a note ending exactly on a frame center leaves that frame silent
        roll = events_to_roll([NoteEvent(0.0, 2.0, 60)], (60, 60),
                              [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(roll[0], [True, True, False])


class TestParseGroundTruth:
    def write(self, tmp_path, text):
        path = tmp_path / "truth.tsv"
        path.write_text(text)
        return path

    def test_parses_and_rasterizes(self, tmp_path):
        path = self.write(tmp_path,
                          "OnsetTime\tOffsetTime\tMidiPitch\n"
                          "0.0\t1.0\t50\n"
                          "0.5\t1.5\t62\n")
        events = parse_ground_truth(path)
        assert events == [NoteEvent(0.0, 1.0, 50), NoteEvent(0.5, 1.5, 62)]
        roll = load_ground_truth(path, (36, 95), [0.0, 0.5, 1.0, 1.5])
        np.testing.assert_array_equal(roll[50 - 36],
                                      [True, True, False, False])
        np.testing.assert_array_equal(roll[62 - 36],
                                      [False, True, True, False])

    def test_column_order_free(self, tmp_path):
        path = self.write(tmp_path,
                          "MidiPitch\tOnsetTime\tOffsetTime\n"
                          "50\t0.0\t1.0\n")
        assert parse_ground_truth(path) == [NoteEvent(0.0, 1.0, 50)]

    def test_extra_columns_ignored(self, tmp_path):
        path = self.write(tmp_path,
                          "OnsetTime\tOffsetTime\tMidiPitch\tVelocity\n"
                          "0.0\t1.0\t50\t96\n")
        assert parse_ground_truth(path) == [NoteEvent(0.0, 1.0, 50)]

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError):
            parse_ground_truth(self.write(tmp_path, ""))

    def test_missing_column(self, tmp_path):
        with pytest.raises(DataError):
            parse_ground_truth(self.write(tmp_path,
                                          "OnsetTime\tMidiPitch\n0.0\t50\n"))

    def test_malformed_row(self, tmp_path):
        with pytest.raises(DataError):
            parse_ground_truth(self.write(
                tmp_path,
                "OnsetTime\tOffsetTime\tMidiPitch\n0.0\toops\t50\n"))
        with pytest.raises(DataError):
            parse_ground_truth(self.write(
                tmp_path, "OnsetTime\tOffsetTime\tMidiPitch\n0.0\t1.0\n"))
        for pitch in ("inf", "-inf", "1e400"):  # no integer pitch: OverflowError
            with pytest.raises(DataError, match="malformed row 3"):
                parse_ground_truth(self.write(
                    tmp_path, "OnsetTime\tOffsetTime\tMidiPitch\n"
                              f"0.0\t1.0\t60\n0.0\t1.0\t{pitch}\n"))
        for offset in ("inf", "1e400"):
            with pytest.raises(DataError, match="row 3 .*offset must be finite"):
                parse_ground_truth(self.write(
                    tmp_path, "OnsetTime\tOffsetTime\tMidiPitch\n"
                              f"0.0\t1.0\t60\n0.0\t{offset}\t60\n"))
        latin1 = tmp_path / "latin1.tsv"
        latin1.write_bytes(b"OnsetTime\tOffsetTime\tMidiPitch\n0.0\t1.0\t\xe960\n")
        with pytest.raises(DataError, match="latin1.tsv' is not UTF-8 text"):
            parse_ground_truth(str(latin1))

    def test_roundtrip_with_writer(self, tmp_path):
        # frame-aligned events survive write -> parse -> rasterize intact
        events = [NoteEvent(0.0, 1.0, 48), NoteEvent(1.0, 2.0, 52),
                  NoteEvent(0.5, 2.5, 60)]
        path = tmp_path / "rt.tsv"
        write_ground_truth(path, events)
        assert parse_ground_truth(path) == events
        times = 0.5 * np.arange(5)
        direct = events_to_roll(events, (36, 95), times)
        loaded = load_ground_truth(path, (36, 95), times)
        np.testing.assert_array_equal(direct, loaded)


class TestThresholdActivations:
    def make_truth(self, polyphony):
        # build a tiny truth roll whose per-frame column sums equal polyphony
        k, n = 3, len(polyphony)
        active = np.zeros((k, n), dtype=bool)
        for j, p in enumerate(polyphony):
            active[:p, j] = True
        return active

    def test_top_two_support(self):
        truth = self.make_truth([2])
        acts = np.array([[0.1], [0.5], [0.4]])
        est = threshold_activations(acts, truth)
        np.testing.assert_array_equal(est[:, 0], [False, True, True])

    def test_zero_polyphony_leaves_frame_empty(self):
        truth = self.make_truth([0])
        acts = np.array([[0.9], [0.5], [0.4]])
        est = threshold_activations(acts, truth)
        assert not est.any()

    def test_all_equal_tie_goes_to_lowest_index(self):
        truth = self.make_truth([1])
        acts = np.full((3, 1), 1.0 / 3.0)
        est = threshold_activations(acts, truth)
        np.testing.assert_array_equal(est[:, 0], [True, False, False])

    def test_true_count_matches_polyphony_sum(self):
        rng = np.random.default_rng(6)
        polyphony = [0, 1, 3, 2, 0, 1]
        truth = self.make_truth(polyphony)
        acts = rng.random((3, 6))
        est = threshold_activations(acts, truth)
        assert est.sum() == sum(polyphony)
        np.testing.assert_array_equal(est.sum(axis=0), polyphony)

    def test_shape_mismatch(self):
        truth = self.make_truth([1, 1])
        acts = np.ones((2, 2))
        with pytest.raises(ValueError):
            threshold_activations(acts, truth)

    @pytest.mark.parametrize("shape", [(88, 647), (5, 40), (1, 3), (0, 4), (6, 0)])
    def test_matches_a_per_frame_loop(self, shape):
        # ties at 0 and among values rounded to one decimal go to the
        # lowest index, as a stable sort of each frame gives them
        rng = np.random.default_rng(shape[1])
        acts = np.round(rng.random(shape), 1) * (rng.random(shape) < 0.7)
        truth = rng.random(shape) < 0.1
        truth[:, ::5] = True
        expected = np.zeros(shape, dtype=bool)
        for n in range(shape[1]):
            order = np.argsort(-acts[:, n], kind="stable")
            expected[order[:truth[:, n].sum()], n] = True
        np.testing.assert_array_equal(threshold_activations(acts, truth),
                                      expected)


class TestFMeasure:
    def roll(self, active):
        return np.asarray(active, dtype=bool)

    def test_perfect_recognition(self):
        truth = self.roll([[1, 0], [0, 1]])
        report = f_measure(truth, truth)
        assert report.f_measure == 1.0
        assert report.precision == 1.0 and report.recall == 1.0
        assert (report.tp, report.fp, report.fn) == (2, 0, 0)

    def test_two_thirds_example(self):
        truth = self.roll([[1, 0], [1, 1], [0, 0], [0, 0]])
        estimate = self.roll([[1, 0], [1, 0], [0, 1], [0, 0]])
        report = f_measure(estimate, truth)
        assert (report.tp, report.fp, report.fn) == (2, 1, 1)
        assert report.precision == pytest.approx(2.0 / 3.0)
        assert report.recall == pytest.approx(2.0 / 3.0)
        assert report.f_measure == pytest.approx(2.0 / 3.0)

    def test_empty_estimate_scores_zero(self):
        truth = self.roll([[1, 1], [0, 1]])
        estimate = self.roll([[0, 0], [0, 0]])
        report = f_measure(estimate, truth)
        assert report.f_measure == 0.0
        assert report.precision == 0.0 and report.recall == 0.0

    def test_scores_stay_in_unit_interval(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            truth = self.roll(rng.random((4, 6)) < 0.4)
            estimate = self.roll(rng.random((4, 6)) < 0.4)
            report = f_measure(estimate, truth)
            assert 0.0 <= report.precision <= 1.0
            assert 0.0 <= report.recall <= 1.0
            assert 0.0 <= report.f_measure <= 1.0
            if report.tp == 0:
                assert report.f_measure == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            f_measure(self.roll([[1]]), self.roll([[1, 0]]))


class TestL1ActivationError:
    def test_examples(self):
        assert l1_activation_error([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert l1_activation_error([1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0)
        assert l1_activation_error([0.6, 0.4], [0.5, 0.5]) == pytest.approx(0.2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            l1_activation_error([1.0], [0.5, 0.5])


class TestMakeToyScenario:
    def test_deterministic_and_alias_equivalent(self):
        one = make_toy_scenario("a", seed=5)
        two = make_toy_scenario("shifted_fundamentals", seed=5)
        np.testing.assert_array_equal(one.frame, two.frame)
        np.testing.assert_array_equal(one.h_true, two.h_true)
        assert one.which == "shifted_fundamentals"
        again = make_toy_scenario("b", seed=3)
        np.testing.assert_array_equal(again.frame,
                                      make_toy_scenario("b", seed=3).frame)
        assert not np.array_equal(again.frame,
                                  make_toy_scenario("b", seed=4).frame)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            make_toy_scenario("c", seed=0)

    @pytest.mark.parametrize("setting, value, message", [
        ("damping", -1.0, "damping"), ("n_partials", 0, "n_partials"),
        ("kernel_width_bins", 0.0, "kernel_width")])
    def test_comb_settings_are_checked(self, setting, value, message):
        # the settings of the baselines' templates, checked even though the
        # scenario itself builds none
        with pytest.raises(ValueError, match=message):
            make_toy_scenario("a", seed=0, bins=64, f_max=700.0,
                              **{setting: value})

    def test_true_activations(self):
        a = make_toy_scenario("a", seed=0)
        b = make_toy_scenario("b", seed=0)
        for sc, pair in ((a, TOY_PAIR_A), (b, TOY_PAIR_B)):
            expected = np.zeros(len(TOY_PITCHES))
            expected[list(pair)] = 0.5
            np.testing.assert_array_equal(sc.h_true, expected)
            assert sc.frame.sum() == pytest.approx(1.0)
            assert np.all(sc.frame >= 0)

    def test_octave_structure_of_dictionary(self):
        fundamentals = toy_fundamentals()
        assert fundamentals[7] == pytest.approx(2.0 * fundamentals[0])
        sc = make_toy_scenario("a", seed=0)
        np.testing.assert_allclose(sc.fundamentals, fundamentals)
        np.testing.assert_allclose(toy_templates(sc).sum(axis=0), 1.0,
                                   atol=1e-12)

    def test_zero_shift_lies_in_column_span(self, monkeypatch):
        monkeypatch.setattr(evaluation, "TOY_SHIFT_PCT", 0.0)
        sc = make_toy_scenario("a", seed=0)
        w = toy_templates(sc)
        recon = 0.5 * w[:, TOY_PAIR_A[0]] + 0.5 * w[:, TOY_PAIR_A[1]]
        np.testing.assert_allclose(sc.frame, recon, atol=1e-15)

    def test_zero_shift_recovered_exactly(self, monkeypatch):
        # no misspecification: the group solver reads the mixture straight
        # off (kernel of one bin keeps bump tails clear of the nearest
        # equal-temperament partial collisions)
        monkeypatch.setattr(evaluation, "TOY_SHIFT_PCT", 0.0)
        sc = make_toy_scenario("a", seed=0, kernel_width_bins=1.0)
        cost = harmonic_cost(sc.freqs, sc.fundamentals, eps0=1.0)
        config = SolverConfig(lambda_g=300.0, mm_iterations=10)
        _, h, _ = ost_group_frame(sc.frame, cost, config)
        assert l1_activation_error(h, sc.h_true) < 1e-6

    def test_zero_shift_default_kernel_stays_tiny(self, monkeypatch):
        # at the default kernel the bump tails just graze one boundary
        monkeypatch.setattr(evaluation, "TOY_SHIFT_PCT", 0.0)
        sc = make_toy_scenario("a", seed=0)
        cost = harmonic_cost(sc.freqs, sc.fundamentals, eps0=1.0)
        config = SolverConfig(lambda_g=300.0, mm_iterations=10)
        _, h, _ = ost_group_frame(sc.frame, cost, config)
        assert l1_activation_error(h, sc.h_true) < 1e-4

    def test_shifted_scenario_breaks_plain_transport_not_grouped(self):
        sc = make_toy_scenario("a", seed=0)
        cost = harmonic_cost(sc.freqs, sc.fundamentals, eps0=1.0)
        config = SolverConfig(lambda_g=300.0, mm_iterations=10)
        _, h_plain, _ = ost_frame(sc.frame, cost)
        _, h_group, _ = ost_group_frame(sc.frame, cost, config)
        assert l1_activation_error(h_group, sc.h_true) < 0.1
        assert l1_activation_error(h_plain, sc.h_true) > 0.3

    def test_group_transport_beats_plca_under_shift(self):
        sc = make_toy_scenario("a", seed=0)
        cost = harmonic_cost(sc.freqs, sc.fundamentals, eps0=1.0)
        config = SolverConfig(lambda_g=300.0, mm_iterations=10)
        _, h_group, _ = ost_group_frame(sc.frame, cost, config)
        frames = NormalizedFrames(columns=sc.frame[:, None],
                                  active_mask=np.array([True]))
        acts, _ = plca_unmix(frames, toy_templates(sc))
        err_group = l1_activation_error(h_group, sc.h_true)
        err_plca = l1_activation_error(acts[:, 0], sc.h_true)
        assert err_group < err_plca

    def test_wrong_amplitude_frame_leaves_span(self):
        # scenario b redraws partial weights, so the frame is (generically)
        # not the clean half-half mixture any more
        sc = make_toy_scenario("b", seed=0)
        w = toy_templates(sc)
        recon = 0.5 * w[:, TOY_PAIR_B[0]] + 0.5 * w[:, TOY_PAIR_B[1]]
        assert np.abs(sc.frame - recon).sum() > 0.05
