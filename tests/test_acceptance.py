"""Acceptance suite: nine end-to-end criteria with pinned tolerances.

Each criterion is one test, so a verbose run prints one pass/fail line per
criterion; the tests also print a one-line summary (visible with -s, or on
failure) carrying the measured numbers. Wall-clock budgets are asserted
where a criterion carries one. Criterion 9 is empirical by design: it
writes every support-preservation counterexample to a TSV artifact and
reports the counts instead of asserting a hard invariant.
"""

import time

import numpy as np

from ost.baselines import plca_unmix, wasserstein_divergence
from ost.cli import main
from ost.costs import (CostMatrix, append_noise_column, harmonic_cost,
                       quadratic_cost)
from ost.dictionary import make_harmonic_dictionary, midi_to_freq
from ost.evaluation import (NoteEvent, events_to_roll, f_measure,
                            l1_activation_error, make_toy_scenario,
                            threshold_activations, toy_fundamentals)
from ost.frontend import NormalizedFrames, normalize_frames, stft_magnitude
from ost.solvers import unmix
from ost.synth import render_notes
from ost.tsvio import atomic_write_text

from helpers import toy_templates
from oracles import (ost_combined_frame, ost_entropic_frame, ost_frame,
                     ost_group_frame, reduced_lp, transport_objective)


def _random_reduced_instance(rng, max_bins=32, max_notes=8):
    """One frame plus a harmonic-invariant cost onto random fundamentals."""
    m = int(rng.integers(2, max_bins + 1))
    k = int(rng.integers(1, max_notes + 1))
    freqs = np.sort(rng.uniform(20.0, 4000.0, size=m))
    fundamentals = np.sort(rng.uniform(30.0, 1200.0, size=k))
    cost = harmonic_cost(freqs, fundamentals, float(rng.uniform(0.1, 50.0)))
    return rng.dirichlet(np.ones(m)), cost


def test_criterion_1_closed_form_matches_lp_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20260818)
    worst_obj = worst_marginal = 0.0
    for _ in range(100):
        v, cost = _random_reduced_instance(rng)
        plan, h, _ = ost_frame(v, cost)
        objective = transport_objective(plan, cost.values)
        _, lp_plan, lp_objective = reduced_lp(v, cost.values)
        worst_obj = max(worst_obj, abs(objective - lp_objective))
        worst_marginal = max(
            worst_marginal,
            np.abs(plan.sum(axis=1) - v).max(),
            np.abs(lp_plan.sum(axis=1) - v).max(),
            np.abs(lp_plan.sum(axis=0) - h).max())
    elapsed = time.perf_counter() - start
    assert worst_obj <= 1e-9
    assert worst_marginal <= 1e-12
    assert elapsed < 30.0
    print(f"criterion 1 closed form vs LP oracle: PASS "
          f"(100 instances, objective gap {worst_obj:.2e}, "
          f"marginal gap {worst_marginal:.2e}, {elapsed:.1f}s)")


def test_criterion_2_entropic_limits():
    start = time.perf_counter()
    rng = np.random.default_rng(4242)
    worst_hard = worst_uniform = 0.0
    for _ in range(20):
        v, cost = _random_reduced_instance(rng, max_bins=64, max_notes=16)
        k = cost.values.shape[1]
        _, h_hard, _ = ost_frame(v, cost)
        _, h_cold, _ = ost_entropic_frame(v, cost, 1e-9)
        _, h_hot, _ = ost_entropic_frame(v, cost, 1e12)
        worst_hard = max(worst_hard, np.abs(h_cold - h_hard).max())
        worst_uniform = max(worst_uniform, np.abs(h_hot - 1.0 / k).max())
    elapsed = time.perf_counter() - start
    assert worst_hard < 1e-6
    assert worst_uniform < 1e-6
    assert elapsed < 1.0
    print(f"criterion 2 entropic limits: PASS "
          f"(cold gap {worst_hard:.2e}, hot gap {worst_uniform:.2e}, "
          f"{elapsed:.2f}s)")


def test_criterion_3_mm_objective_monotone():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    violations = 0
    worst_rise = -np.inf
    for _ in range(100):
        m = int(rng.integers(4, 65))
        k = int(rng.integers(2, 17))
        cost = CostMatrix(values=rng.uniform(0.0, 100.0, size=(m, k)))
        v = rng.dirichlet(np.ones(m))
        lam_g = float(rng.uniform(0.5, 1000.0))
        lam_e = float(rng.uniform(0.5, 1000.0))
        _, _, trace_g = ost_group_frame(v, cost, lam_g, 10)
        _, _, trace_eg = ost_combined_frame(v, cost, lam_e, lam_g, 10)
        for trace in (trace_g, trace_eg):
            rises = np.diff(trace)
            # slack covers float accumulation only, not algorithmic increase
            violations += int((rises > 1e-10 * max(1.0, abs(trace[0]))).sum())
            worst_rise = max(worst_rise, float(rises.max()))
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 10.0
    print(f"criterion 3 MM monotonicity: PASS "
          f"(200 traces, zero violations, worst rise {worst_rise:.2e}, "
          f"{elapsed:.2f}s)")


def test_criterion_4_toy_error_orderings():
    start = time.perf_counter()
    solver_params = (
        ("ost", {}),
        ("ost_e", dict(lambda_e=300.0)),
        ("ost_g", dict(lambda_g=300.0, mm_iterations=10)),
        ("ost_eg", dict(lambda_e=300.0, lambda_g=300.0, mm_iterations=10)),
    )
    medians = {}
    for which in ("a", "b"):
        errors = {name: [] for name, _ in solver_params}
        errors["plca"] = []
        for seed in range(50):
            freqs, frame, h_true = make_toy_scenario(which, seed=seed)
            frames = NormalizedFrames(columns=frame[:, None],
                                      active_mask=np.array([True]))
            cost = harmonic_cost(freqs, toy_fundamentals(), 1.0)
            acts, _ = plca_unmix(frames, toy_templates(freqs))
            errors["plca"].append(
                l1_activation_error(acts[:, 0], h_true))
            for name, params in solver_params:
                h = unmix(frames, cost, name, **params)[:, 0]
                errors[name].append(l1_activation_error(h, h_true))
        medians[which] = {name: float(np.median(errs))
                          for name, errs in errors.items()}
    elapsed = time.perf_counter() - start
    for which, cap in (("a", 0.1), ("b", 0.15)):
        med = medians[which]
        assert med["ost_g"] < med["ost"]
        assert med["ost_eg"] < med["ost_e"]
        assert med["ost_g"] < med["plca"]
        assert med["ost_g"] <= cap
    assert elapsed < 120.0
    summary = "; ".join(
        f"{which}: " + " ".join(f"{name}={medians[which][name]:.4f}"
                                for name in ("plca", "ost", "ost_e",
                                             "ost_g", "ost_eg"))
        for which in ("a", "b"))
    print(f"criterion 4 toy medians (50 seeds): PASS ({summary}, "
          f"{elapsed:.1f}s)")


def test_criterion_5_harmonic_cost_forgives_partials():
    start = time.perf_counter()
    m, delta = 32, 25.0
    freqs = (np.arange(m) + 1) * delta
    partials = np.arange(1, 7)
    v = np.zeros(m)
    v[partials * 4 - 1] = np.exp(-0.3 * partials)  # stack on 100 Hz
    v /= v.sum()
    spike = np.zeros(m)
    spike[3] = 1.0  # the fundamental's own bin
    d_harmonic = wasserstein_divergence(v, spike,
                                        harmonic_cost(freqs, freqs, 0.01))
    d_quadratic = wasserstein_divergence(v, spike,
                                         quadratic_cost(freqs, freqs))
    elapsed = time.perf_counter() - start
    assert d_quadratic > 0
    ratio = d_harmonic / d_quadratic
    assert ratio < 0.01
    assert elapsed < 1.0
    print(f"criterion 5 divergence contrast: PASS "
          f"(harmonic {d_harmonic:.4g} vs quadratic {d_quadratic:.4g}, "
          f"ratio {ratio:.2e}, {elapsed:.2f}s)")


def test_criterion_6_bench_speedup(capsys):
    start = time.perf_counter()
    assert main(["bench", "--bins", "2048", "--notes", "60",
                 "--frames", "100"]) == 0
    table = capsys.readouterr().out.strip().split("\n")
    rows = {line.split()[0]: line.split() for line in table[3:]}
    speedup = float(rows["ost"][3])
    elapsed = time.perf_counter() - start
    assert speedup >= 100.0
    assert elapsed < 300.0
    print(f"criterion 6 bench speedup: PASS "
          f"(ost {speedup:.0f}x faster per frame than PLCA at rel_tol=0 "
          f"(stops on an exactly repeated objective, at most 1000 "
          f"iterations); {elapsed:.1f}s)")


def _make_piece(seed, duration=30.0, midi_low=45, midi_high=80):
    """Contiguous random chords of one to three notes."""
    rng = np.random.default_rng(seed)
    events, t = [], 0.0
    while t < duration:
        length = min(rng.uniform(0.4, 0.9), duration - t)
        if length < 0.2:
            break
        for pitch in rng.choice(np.arange(midi_low, midi_high + 1),
                                size=rng.integers(1, 4), replace=False):
            events.append(NoteEvent(t, t + length, int(pitch)))
        t += length
    return events


def test_criterion_7_synthetic_transcription():
    start = time.perf_counter()
    fs, window_len, hop = 22050, 2048, 1024
    midi_range = (21, 108)
    eps0, lam_e, noise_amp = 10.0, 30.0, 30.0

    events = _make_piece(seed=0)
    audio = render_notes(events, sample_rate=fs, inharmonicity=0.01, seed=0)
    spec = stft_magnitude(audio, window_len, hop)
    frames = normalize_frames(spec)
    fundamentals = np.array([midi_to_freq(p) for p in
                             range(midi_range[0], midi_range[1] + 1)])
    times = window_len / (2 * fs) + np.arange(frames.n_frames) * (hop / fs)
    truth = events_to_roll(events, midi_range, times)
    cost = harmonic_cost(spec.freqs, fundamentals, eps0)

    def score(values):
        return f_measure(threshold_activations(values, truth), truth).f_measure

    f_ost = score(unmix(frames, cost, "ost"))
    f_entropic = score(unmix(frames, cost, "ost_e", lambda_e=lam_e))
    noisy = append_noise_column(cost, noise_amp)
    with_noise = unmix(frames, noisy, "ost_e", lambda_e=lam_e)
    f_noise = score(with_noise[:-1])
    elapsed = time.perf_counter() - start
    assert f_noise >= 0.90
    assert f_entropic >= f_ost
    assert elapsed < 120.0
    print(f"criterion 7 synthetic transcription: PASS "
          f"(ost {f_ost:.4f}, ost_e {f_entropic:.4f}, "
          f"ost_e+noise {f_noise:.4f}, {elapsed:.1f}s)")


def test_criterion_8_wasserstein_metric_axioms():
    start = time.perf_counter()
    rng = np.random.default_rng(314159)
    worst_symmetry = 0.0
    worst_triangle = -np.inf
    for _ in range(200):
        m = int(rng.integers(2, 17))
        freqs = np.sort(rng.uniform(10.0, 500.0, size=m))
        cost = CostMatrix(values=np.abs(freqs[:, None] - freqs[None, :]))
        a, b, c = (rng.dirichlet(np.ones(m)) for _ in range(3))
        d_ab = wasserstein_divergence(a, b, cost)
        d_ba = wasserstein_divergence(b, a, cost)
        d_bc = wasserstein_divergence(b, c, cost)
        d_ac = wasserstein_divergence(a, c, cost)
        worst_symmetry = max(worst_symmetry, abs(d_ab - d_ba))
        worst_triangle = max(worst_triangle, d_ac - (d_ab + d_bc))
    elapsed = time.perf_counter() - start
    assert worst_symmetry <= 1e-9
    assert worst_triangle <= 1e-9
    assert elapsed < 30.0
    print(f"criterion 8 metric axioms: PASS "
          f"(200 triples, symmetry gap {worst_symmetry:.2e}, "
          f"triangle slack {worst_triangle:.2e}, {elapsed:.1f}s)")


def test_criterion_9_support_preservation_report(tmp_path):
    rng = np.random.default_rng(2718)
    m, f_max = 1024, 2800.0
    freqs = np.arange(1, m + 1) * (f_max / m)
    fundamentals = np.array([midi_to_freq(p) for p in range(36, 96)])
    templates = make_harmonic_dictionary(freqs, fundamentals, 2.0 * (f_max / m),
                                         damping=0.3, n_partials=8)
    cost = harmonic_cost(freqs, fundamentals, 1.0)
    lam_e = lam_g = 300.0

    counterexamples = []
    preserved = {"ost_g": 0, "ost_eg": 0}
    for trial in range(200):
        polyphony = int(rng.integers(1, 5))
        notes = rng.choice(fundamentals.size, size=polyphony, replace=False)
        frame = templates[:, notes] @ rng.uniform(
            0.5, 1.5, size=polyphony)
        frame /= frame.sum()

        def top(h):
            return set(np.argsort(-h, kind="stable")[:polyphony])

        _, h_plain, _ = ost_frame(frame, cost)
        _, h_group, _ = ost_group_frame(frame, cost, lam_g, 10)
        _, h_entropic, _ = ost_entropic_frame(frame, cost, lam_e)
        _, h_both, _ = ost_combined_frame(frame, cost, lam_e, lam_g, 10)
        for pair, base, refined in (("ost_g", h_plain, h_group),
                                    ("ost_eg", h_entropic, h_both)):
            base_top, refined_top = top(base), top(refined)
            if base_top == refined_top:
                preserved[pair] += 1
            else:
                counterexamples.append(
                    (trial, pair, polyphony,
                     ",".join(map(str, sorted(base_top))),
                     ",".join(map(str, sorted(refined_top)))))

    artifact = tmp_path / "support_preservation_counterexamples.tsv"
    lines = ["trial\tpair\tpolyphony\tunregularized_top\tregularized_top"]
    lines += ["\t".join(map(str, row)) for row in counterexamples]
    atomic_write_text(artifact, "\n".join(lines) + "\n")

    assert artifact.exists()
    written = artifact.read_text().strip().split("\n")
    assert len(written) == 1 + len(counterexamples)
    assert preserved["ost_g"] + sum(1 for c in counterexamples
                                    if c[1] == "ost_g") == 200
    assert preserved["ost_eg"] + sum(1 for c in counterexamples
                                     if c[1] == "ost_eg") == 200
    print(f"criterion 9 support preservation: PASS (empirical: ost_g "
          f"preserved {preserved['ost_g']}/200, ost_eg preserved "
          f"{preserved['ost_eg']}/200; {len(counterexamples)} "
          f"counterexamples reported to {artifact})")
