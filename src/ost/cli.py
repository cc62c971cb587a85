"""Command-line tools: transcribe, toy, sweep, bench, eval.

Exit codes: 0 success, 1 usage or configuration error, 2 data error
(unreadable audio, malformed tables), 3 numeric failure: infeasible or
unbounded programs, guard violations, non-finite solver output
(`NumericError`).

Every command accepts ``--config FILE`` with ``key=value`` lines (keys are
the long flag names with underscores); explicit flags override file entries.
All outputs are TSV files written atomically, so failures never leave
partial artifacts behind.
"""

import argparse
import itertools
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .baselines import OT_LP_MAX_BINS, ot_unmix_lp, plca_unmix
from .costs import append_noise_column, harmonic_cost
from .dictionary import (DEFAULT_DAMPING, DEFAULT_KERNEL_WIDTH_BINS,
                         DEFAULT_N_PARTIALS, MAX_PARTIALS,
                         make_harmonic_dictionary, midi_range_fundamentals)
from .errors import DataError, NumericError, OstError
from .evaluation import (SCENARIO_ALIASES, TOY_BINS, TOY_F_MAX, events_to_roll,
                         f_measure, l1_activation_error, make_toy_scenario,
                         parse_ground_truth, threshold_activations,
                         toy_fundamentals)
from .frontend import (DEFAULT_HOP, DEFAULT_WINDOW_LEN, NormalizedFrames,
                       decode_wav, normalize_frames, stft_magnitude)
from .solvers import DEFAULT_MM_ITERATIONS, MAX_LAMBDA_G, unmix
from . import tsvio

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

METHODS = ("plca", "ot_h", "ost", "ost_e", "ost_g", "ost_eg")
TEMPLATE_METHODS = {"plca", "ot_h"}
DEFAULT_TOY_METHODS = "plca,ost,ost_e,ost_g,ost_eg"

SWEEP_EPSILON0 = (1e0, 1e1, 1e2, 1e3, 1e4)
SWEEP_LAMBDA_E = (1e1, 1e2, 1e3, 1e4)
SWEEP_KERNEL = (1.0, 2.0, 3.0, 4.0)
SWEEP_DAMPING = (0.1, 0.3, 0.5)

BENCH_SAMPLE_RATE = 44100.0
BENCH_MIDI_LOW = 36

# Range rules, (test, text): a value failing the test is reported as
# "--flag must be <text>".
FINITE_POSITIVE = (lambda v: 0 < v < np.inf, "finite and positive")
FINITE_NON_NEGATIVE = (lambda v: 0 <= v < np.inf, "finite and non-negative")
NON_NEGATIVE = (lambda v: v >= 0, "non-negative")
AT_LEAST_ONE = (lambda v: v >= 1, "at least 1")
PARTIAL_CAP = (lambda v: v <= MAX_PARTIALS, f"at most {MAX_PARTIALS}")
EVEN_WINDOW = (lambda v: v >= 2 and v % 2 == 0, "a positive even integer")
GROUP_WEIGHT = (lambda v: 0 < v <= MAX_LAMBDA_G,
                f"finite, positive and at most {MAX_LAMBDA_G:.4g}")


class UsageError(Exception):
    """Bad flags or an inconsistent configuration."""


def _setting(default, text, methods=METHODS, *rules):
    """A RunConfig field that is also the flag of the same name: its
    default, its help text, the methods it applies to (passing it with no
    method of that set is a usage error) and its range rules, checked in
    order."""
    return field(default=default,
                 metadata={"help": text, "methods": set(methods), "rules": rules})


@dataclass
class RunConfig:
    """Everything one decomposition run depends on. Its fields after
    `method` are the setting flags, in help order; a command registers only
    those it honours, so passing any other one is a usage error."""

    method: str
    midi_low: int = _setting(21, "lowest MIDI pitch of the dictionary")
    midi_high: int = _setting(108, "highest MIDI pitch of the dictionary")
    window_len: int = _setting(DEFAULT_WINDOW_LEN, "STFT window length in samples",
                               METHODS, EVEN_WINDOW)
    hop: int = _setting(DEFAULT_HOP, "STFT hop in samples")
    epsilon0: float = _setting(1.0, "harmonic-cost octave penalty scale, Hz^2",
                               ("ot_h", "ost", "ost_e", "ost_g", "ost_eg"),
                               FINITE_NON_NEGATIVE)
    lambda_e: float = _setting(300.0, "entropic regularization weight (ost_e, ost_eg)",
                               ("ost_e", "ost_eg"), FINITE_POSITIVE)
    lambda_g: float = _setting(300.0, "group-sparsity weight (ost_g, ost_eg)",
                               ("ost_g", "ost_eg"), GROUP_WEIGHT)
    mm_iterations: int = _setting(DEFAULT_MM_ITERATIONS,
                                  "majorize-minimize iterations (ost_g, ost_eg)",
                                  ("ost_g", "ost_eg"), AT_LEAST_ONE)
    noise_amplitude: float = _setting(None,
                                      "append a flat-cost noise column at this cost",
                                      ("ost", "ost_e", "ost_g", "ost_eg"),
                                      FINITE_NON_NEGATIVE)
    kernel_width_bins: float = _setting(DEFAULT_KERNEL_WIDTH_BINS,
                                        "Gaussian partial width in frequency bins",
                                        TEMPLATE_METHODS, FINITE_POSITIVE)
    damping: float = _setting(DEFAULT_DAMPING,
                              "exponential partial-amplitude damping rate",
                              TEMPLATE_METHODS, FINITE_NON_NEGATIVE)
    n_partials: int = _setting(DEFAULT_N_PARTIALS, "partials per synthesized template",
                               TEMPLATE_METHODS, AT_LEAST_ONE, PARTIAL_CAP)
    seed: int = _setting(0, "RNG seed for synthetic inputs", METHODS, NON_NEGATIVE)

    def harmonic_dictionary(self, freqs, fundamentals) -> np.ndarray:
        """The M x K harmonic template matrix on the bin grid `freqs`, with
        the kernel width in bins of the grid spacing (of the only frequency
        on a 1-bin grid). The only place the program builds templates."""
        bin_hz = float(freqs[1] - freqs[0]) if len(freqs) > 1 else float(freqs[0])
        try:  # a width past float range, a note above the top bin, or a comb too narrow
            return make_harmonic_dictionary(freqs, fundamentals,
                                            self.kernel_width_bins * bin_hz,
                                            self.damping, self.n_partials)
        except ValueError as exc:
            raise DataError(f"no harmonic templates on this bin grid: {exc}") from exc


SETTINGS = {f.name: f for f in fields(RunConfig)[1:]}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _check_applies(names, methods):
    """Every setting in `names` must apply to at least one of `methods`."""
    for name in names:
        if not set(methods) & SETTINGS[name].metadata["methods"]:
            raise UsageError(f"{_flag(name)} does not apply to "
                             f"method {'/'.join(sorted(methods))}")


def build_run_config(args, methods=None) -> RunConfig:
    """Turn parsed flags into a validated RunConfig.

    `methods` widens the applicability check to a set of methods (toy and
    bench run several at once; there the template flags shape the
    synthetic problem itself, so they apply to all); otherwise args.method
    governs.
    """
    given = {n: getattr(args, n) for n in SETTINGS
             if getattr(args, n, None) is not None}
    _check_applies([n for n in given if methods is None
                    or SETTINGS[n].metadata["methods"] != TEMPLATE_METHODS],
                   {args.method} if methods is None else methods)
    config = RunConfig(method=args.method if methods is None else sorted(methods)[0],
                       **given)
    _check_ranges(config)
    return config


def _check_ranges(config: RunConfig):
    """Each setting's own rules in help order, then the rules on two settings."""
    for name, setting in SETTINGS.items():
        value = getattr(config, name)
        for test, text in setting.metadata["rules"]:
            if value is not None and not test(value):
                raise UsageError(f"{_flag(name)} must be {text}")
    if not 0 <= config.midi_low <= config.midi_high <= 127:
        raise UsageError("--midi-low/--midi-high must satisfy 0 <= low <= high <= 127")
    if not 0 < config.hop <= config.window_len:
        raise UsageError("--hop must satisfy 0 < hop <= --window-len")


# ---------------------------------------------------------------------------
# decomposition shared by transcribe, toy and sweep


def solve(method: str, frames: NormalizedFrames, freqs: np.ndarray,
          fundamentals: np.ndarray, templates, config: RunConfig) -> np.ndarray:
    """Run one method on frames over the bin grid `freqs`: the one place a
    method name picks a solver for transcribe, sweep and toy (bench calls
    plca_unmix with rel_tol=0.0, and unmix on one prebuilt cost, itself).
    Returns its K x N activations.

    plca and ot_h unmix onto `templates`, the M x K harmonic template
    matrix (ot_h over the full bin-to-bin cost). The OST variants ignore
    `templates` (None is fine) and read only `fundamentals`, with the
    reduced cost plus, when config.noise_amplitude is set, a noise column
    whose activations form a trailing row.
    """
    if method == "plca":
        return plca_unmix(frames, templates)[0]
    if method == "ot_h":
        cost = harmonic_cost(freqs, freqs, config.epsilon0)
        return ot_unmix_lp(frames, templates, cost)
    cost = harmonic_cost(freqs, fundamentals, config.epsilon0)
    if config.noise_amplitude is not None:
        cost = append_noise_column(cost, config.noise_amplitude)
    return unmix(frames, cost, method, lambda_e=config.lambda_e,
                 lambda_g=config.lambda_g, mm_iterations=config.mm_iterations)


def decompose(frames: NormalizedFrames, freqs: np.ndarray, config: RunConfig):
    """Run one method over normalized frames on the bin grid `freqs`.

    Returns (the activations, their row labels: the MIDI pitches, then
    "noise" for a possible trailing noise row). Every method needs at least
    one note at or below the top bin, plca and ot_h every note.
    """
    labels = [str(m) for m in range(config.midi_low, config.midi_high + 1)]
    fundamentals = midi_range_fundamentals(config.midi_low, config.midi_high)
    if not fundamentals[0] <= freqs[-1]:
        raise DataError(f"no note of MIDI {config.midi_low}-{config.midi_high} "
                        f"lies on the bin grid, whose top bin is at "
                        f"{freqs[-1]:g} Hz")
    templates = None
    if config.method in TEMPLATE_METHODS:
        templates = config.harmonic_dictionary(freqs, fundamentals)
    acts = solve(config.method, frames, freqs, fundamentals, templates, config)
    return acts, labels + ["noise"] * (len(acts) - len(labels))


def load_frames(path, config: RunConfig):
    """Decode a WAV file, take its STFT and normalize the frames.

    Returns (frames, freqs, times, {"decode": s, "stft": s}): freqs is the
    spectrogram's bin grid, the STFT time includes normalization, and frame
    n is centered at times[n] = (window_len / 2 + n * hop) / sample_rate
    seconds, the only place transcribe and sweep place frames in time. Each
    input is released once consumed: the samples before normalizing, the
    raw spectrogram after. So the call holds at most the samples and one
    M x N matrix, or two M x N matrices while normalizing, never the samples
    and both.
    """
    start = time.perf_counter()
    audio = decode_wav(path)
    decoded = time.perf_counter()
    sample_rate = audio.sample_rate
    spec = stft_magnitude(audio, config.window_len, config.hop)
    del audio
    frames, freqs = normalize_frames(spec), spec.freqs
    del spec
    timings = {"decode": decoded - start, "stft": time.perf_counter() - decoded}
    t0 = config.window_len / (2.0 * sample_rate)
    times = t0 + np.arange(frames.n_frames) * (config.hop / sample_rate)
    return frames, freqs, times, timings


# ---------------------------------------------------------------------------
# transcribe


def cmd_transcribe(args) -> int:
    config = build_run_config(args)
    # Read every input before writing anything, so a missing or malformed
    # file can never leave partial outputs behind.
    events = None
    if args.ground_truth is not None:
        events = parse_ground_truth(args.ground_truth)
    frames, freqs, times, timings = load_frames(args.wav, config)

    start = time.perf_counter()
    acts, labels = decompose(frames, freqs, config)
    timings["decompose"] = time.perf_counter() - start

    base = os.path.splitext(os.path.basename(args.wav))[0] + "." + config.method
    outdir = args.output_dir
    os.makedirs(outdir, exist_ok=True)
    act_path = os.path.join(outdir, base + ".activations.tsv")
    tsvio.write_activations(act_path, acts, labels, times)
    written = [act_path]

    report, pairs = None, []
    if events is not None:
        truth = events_to_roll(events, (config.midi_low, config.midi_high),
                               times)
        estimate = threshold_activations(acts[:len(truth)], truth)
        report = f_measure(estimate, truth)
        pairs = list(asdict(report).items())
        roll_path = os.path.join(outdir, base + ".pianoroll.tsv")
        tsvio.write_pianoroll(roll_path, estimate, config.midi_low, times)
        written.append(roll_path)
    timings["total"] = sum(timings.values())

    report_path = os.path.join(outdir, base + ".report.tsv")
    pairs += [(f"wall_time_seconds.{k}", v) for k, v in sorted(timings.items())]
    pairs += [("method", config.method), ("frames", frames.n_frames)]
    tsvio.write_report(report_path, pairs)
    written.append(report_path)

    print(f"method={config.method} frames={frames.n_frames} "
          f"decompose_s={timings['decompose']:.3f}")
    if report is not None:
        print(f"precision={report.precision:.4f} recall={report.recall:.4f} "
              f"f_measure={report.f_measure:.4f}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# toy


def _print_table(headers, rows, output):
    """Print a toy or bench result table; with --output, write it as TSV too."""
    print(tsvio.format_table(headers, rows))
    if output is not None:
        tsvio.atomic_write_text(output, tsvio.table_text(headers, rows))
        print(f"wrote {output}")


def _parse_methods(spec: str):
    if spec.strip() == "all":
        return list(METHODS)
    methods = [m.strip() for m in spec.split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods must name at least one method")
    for m in methods:
        if m not in METHODS:
            raise UsageError(f"unknown method {m!r}; choose from "
                             f"{', '.join(METHODS)}")
    return methods


def cmd_toy(args) -> int:
    methods = _parse_methods(args.methods)
    config = build_run_config(args, methods=methods)
    if args.scenario not in SCENARIO_ALIASES:
        raise UsageError("scenario must be one of: "
                         + ", ".join(sorted(SCENARIO_ALIASES)))
    if args.bins < 1:
        raise UsageError("--bins must be at least 1")
    if "ot_h" in methods and args.bins > OT_LP_MAX_BINS:
        raise UsageError(f"ot_h solves an exact bin-to-bin LP and needs --bins <= "
                         f"{OT_LP_MAX_BINS}; drop ot_h or lower --bins")
    try:  # every input of a toy problem is a flag
        freqs, frame, h_true = make_toy_scenario(
            args.scenario, seed=config.seed, bins=args.bins, f_max=args.f_max,
            kernel_width_bins=config.kernel_width_bins, damping=config.damping,
            n_partials=config.n_partials)
        fundamentals = toy_fundamentals()
        templates = None
        if TEMPLATE_METHODS.intersection(methods):  # built once, before any clock starts
            templates = config.harmonic_dictionary(freqs, fundamentals)
    except (ValueError, DataError) as exc:
        raise UsageError(f"no toy problem at these settings: {exc}") from exc
    frames = NormalizedFrames(columns=frame[:, None], active_mask=np.array([True]))
    rows = []
    for method in methods:
        start = time.perf_counter()
        h = solve(method, frames, freqs, fundamentals, templates, config)[:, 0]
        seconds = time.perf_counter() - start
        rows.append((method, l1_activation_error(h, h_true), seconds))
    print(f"scenario={SCENARIO_ALIASES[args.scenario]} seed={config.seed} "
          f"bins={args.bins}")
    _print_table(("method", "l1_error", "seconds"), rows, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


SWEEPABLE = tuple(sorted(n for n, f in SETTINGS.items() if f.type is float))


def _parse_grid(entries, method):
    """--grid name=v1,v2,... entries to an axis dict, or defaults."""
    if entries:
        axes = {}
        for entry in entries:
            if "=" not in entry:
                raise UsageError(f"--grid needs name=v1,v2,... (got {entry!r})")
            name, _, values = entry.partition("=")
            name = name.strip().replace("-", "_")
            if name not in SWEEPABLE:
                raise UsageError(f"cannot sweep {name!r}; choose from "
                                 + ", ".join(SWEEPABLE))
            if name in axes:
                raise UsageError(f"--grid names {name!r} twice")
            _check_applies([name], {method})
            try:
                points = [float(x) for x in values.split(",") if x.strip()]
            except ValueError as exc:
                raise UsageError(f"bad grid values in {entry!r}") from exc
            if not points:
                raise UsageError(f"empty grid for {name!r}")
            axes[name] = points
        return axes
    if method == "plca":
        return {"kernel_width_bins": list(SWEEP_KERNEL),
                "damping": list(SWEEP_DAMPING)}
    axes = {"epsilon0": list(SWEEP_EPSILON0)}
    if method in ("ost_e", "ost_eg"):
        axes["lambda_e"] = list(SWEEP_LAMBDA_E)
    return axes


def cmd_sweep(args) -> int:
    config = build_run_config(args)
    axes = _parse_grid(args.grid, config.method)
    names = sorted(axes)
    points = list(itertools.product(*(axes[n] for n in names)))
    configs = [replace(config, **dict(zip(names, values))) for values in points]
    for cfg in configs:
        _check_ranges(cfg)

    frames, freqs, times, _ = load_frames(args.wav, config)
    truth = events_to_roll(parse_ground_truth(args.ground_truth),
                           (config.midi_low, config.midi_high), times)
    half = frames.n_frames // 2
    val_slice, test_slice = slice(0, half), slice(half, frames.n_frames)

    def score(acts, report_slice):
        ref = truth[:, report_slice]
        return f_measure(threshold_activations(acts[:len(truth), report_slice], ref),
                         ref).f_measure

    rows, best = [], None
    for values, cfg in zip(points, configs):
        acts = decompose(frames, freqs, cfg)[0]
        val_f = score(acts, val_slice)
        rows.append(values + (val_f,))
        if best is None or val_f > best[1]:
            best = (acts, val_f, values)
    best_acts, best_val_f, best_values = best
    test_f = score(best_acts, test_slice)

    headers = tuple(names) + ("val_f_measure",)
    print(tsvio.format_table(headers, rows))
    summary = " ".join(f"{n}={v:g}" for n, v in zip(names, best_values))
    print(f"best: {summary} val_f_measure={best_val_f:.4f} "
          f"test_f_measure={test_f:.4f}")
    if args.output is not None:
        tsvio.atomic_write_text(args.output, tsvio.table_text(
            headers, rows + [(), ("best", summary), ("test_f_measure", test_f)]))
        print(f"wrote {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    if args.bins < 1 or args.notes < 1 or args.frames < 0:
        raise UsageError("--bins and --notes must be positive, --frames >= 0")
    if BENCH_MIDI_LOW + args.notes - 1 > 127:
        raise UsageError(f"--notes must be at most {127 - BENCH_MIDI_LOW + 1}")
    config = build_run_config(args, methods={"plca", "ost", "ost_e"})
    headers = ("method", "total_s", "per_frame_s", "speedup_vs_plca")
    if args.frames == 0:
        _print_table(headers, [], args.output)
        return EXIT_OK

    m, k, n = args.bins, args.notes, args.frames
    rng = np.random.default_rng(config.seed)
    columns = rng.dirichlet(np.ones(m), size=n).T
    freqs = (np.arange(m) + 1) * (BENCH_SAMPLE_RATE / 2.0 / m)
    frames = NormalizedFrames(columns=columns, active_mask=np.ones(n, bool))
    fundamentals = midi_range_fundamentals(BENCH_MIDI_LOW, BENCH_MIDI_LOW + k - 1)
    try:  # the bin grid comes from --bins, so a grid without templates is a flag fault
        templates = config.harmonic_dictionary(freqs, fundamentals)
    except DataError as exc:
        raise UsageError(str(exc)) from exc
    cost = harmonic_cost(freqs, fundamentals, config.epsilon0)

    start = time.perf_counter()
    plca_unmix(frames, templates, rel_tol=0.0)
    t_plca = time.perf_counter() - start
    start = time.perf_counter()
    unmix(frames, cost, "ost")
    t_ost = time.perf_counter() - start
    start = time.perf_counter()
    unmix(frames, cost, "ost_e", lambda_e=config.lambda_e)
    t_ost_e = time.perf_counter() - start

    rows = [("plca", t_plca, t_plca / n, 1.0),
            ("ost", t_ost, t_ost / n, t_plca / t_ost),
            ("ost_e", t_ost_e, t_ost_e / n, t_plca / t_ost_e)]
    print(f"bins={m} notes={k} frames={n} seed={config.seed}")
    _print_table(headers, rows, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    values, labels, times = tsvio.read_activations(args.activations)
    pitch_rows = [i for i, lab in enumerate(labels) if lab != "noise"]
    try:
        midi = [int(labels[i]) for i in pitch_rows]
    except ValueError as exc:
        raise DataError(f"activation rows must be MIDI numbers or 'noise', "
                        f"got {labels!r}") from exc
    if not midi or midi != list(range(midi[0], midi[0] + len(midi))):
        raise DataError("activation rows must cover a contiguous MIDI range")
    if midi[0] < 0 or midi[-1] > 127:
        raise DataError(f"activation rows must be MIDI numbers 0-127, "
                        f"got {midi[0]}-{midi[-1]}")
    truth = events_to_roll(parse_ground_truth(args.ground_truth),
                           (midi[0], midi[-1]), times)
    report = f_measure(threshold_activations(values[pitch_rows], truth), truth)
    print(f"precision={report.precision:.4f} recall={report.recall:.4f} "
          f"f_measure={report.f_measure:.4f} tp={report.tp} fp={report.fp} "
          f"fn={report.fn}")
    if args.output is not None:
        tsvio.write_report(args.output, asdict(report).items())
        print(f"wrote {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_flags(p, names):
    p.add_argument("--config", default=None, metavar="FILE",
                   help="key=value defaults; explicit flags override")
    for name, setting in SETTINGS.items():
        if name in names:
            p.add_argument(_flag(name), type=setting.type, default=None, dest=name,
                           help=setting.metadata["help"])


def _transcribe_arguments(p):
    p.add_argument("wav", help="input WAV file (PCM16 or float32)")
    p.add_argument("--method", choices=METHODS, default="ost_e")
    p.add_argument("--ground-truth", default=None, dest="ground_truth",
                   help="MAPS-style TSV of note events; enables scoring")
    p.add_argument("--output-dir", default=".", dest="output_dir")
    _add_flags(p, SETTINGS.keys() - {"seed"})
    p.set_defaults(func=cmd_transcribe)


def _toy_arguments(p):
    p.add_argument("scenario", help="a (shifted fundamentals) or "
                                    "b (wrong amplitudes)")
    p.add_argument("--methods", default=DEFAULT_TOY_METHODS,
                   help="comma list out of " + ",".join(METHODS) + " or "
                        "'all'; ot_h needs --bins <= %d" % OT_LP_MAX_BINS)
    p.add_argument("--bins", type=int, default=TOY_BINS)
    p.add_argument("--f-max", type=float, default=TOY_F_MAX, dest="f_max")
    p.add_argument("--output", default=None, help="also write the table here")
    _add_flags(p, SETTINGS.keys() - {"midi_low", "midi_high", "window_len", "hop",
                                     "noise_amplitude"})
    p.set_defaults(func=cmd_toy)


def _sweep_arguments(p):
    p.add_argument("wav")
    p.add_argument("--ground-truth", required=True, dest="ground_truth")
    p.add_argument("--method", choices=METHODS, default="ost_e")
    p.add_argument("--grid", action="append", default=[],
                   metavar="NAME=V1,V2,...",
                   help="sweep axis; repeatable; default mirrors the "
                        "published decades")
    p.add_argument("--output", default=None)
    _add_flags(p, SETTINGS.keys() - {"seed"})
    p.set_defaults(func=cmd_sweep)


def _bench_arguments(p):
    p.add_argument("--bins", type=int, default=2048)
    p.add_argument("--notes", type=int, default=60)
    p.add_argument("--frames", type=int, default=100)
    p.add_argument("--output", default=None)
    _add_flags(p, {"epsilon0", "lambda_e", "kernel_width_bins", "damping",
                   "n_partials", "seed"})
    p.set_defaults(func=cmd_bench)


def _eval_arguments(p):
    p.add_argument("activations")
    p.add_argument("--ground-truth", required=True, dest="ground_truth")
    p.add_argument("--output", default=None)
    _add_flags(p, ())
    p.set_defaults(func=cmd_eval)


# command -> (help line, function adding its arguments)
COMMANDS = {
    "transcribe": ("decompose a WAV into activations", _transcribe_arguments),
    "toy": ("misspecified-unmixing comparison table", _toy_arguments),
    "sweep": ("grid-search hyper-parameters", _sweep_arguments),
    "bench": ("time PLCA vs OST on random frames", _bench_arguments),
    "eval": ("score an activations TSV against truth", _eval_arguments),
}


def make_parser(command) -> argparse.ArgumentParser:
    """The `ost` parser. Every command is registered by name and help, but
    only `command` gets its arguments: adding all five commands' arguments
    took most of a short `ost toy` call. Flags must be spelled in full, so a
    prefix of a flag is an unknown flag rather than that flag."""
    parser = _Parser(prog="ost", description=__doc__.splitlines()[0],
                     allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for name, (text, add_arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        if name == command:
            add_arguments(p)
    return parser


def _expand_config_file(argv):
    """Splice --config FILE entries in as flags before the explicit ones."""
    path = None
    rest = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if path is not None and (tok == "--config" or tok.startswith("--config=")):
            raise UsageError("--config may be given only once")
        if tok == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a file argument")
            path = argv[i + 1]
            i += 2
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            i += 1
        else:
            rest.append(tok)
            i += 1
    if path is None:
        return argv
    if not rest or rest[0].startswith("-"):
        raise UsageError("--config requires a subcommand")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from None
    tokens = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno} is not key=value: {line!r}")
        if "\0" in line:  # no command-line argument can hold one
            raise UsageError(f"config line {lineno} holds a NUL character")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        flag = "--" + key.replace("_", "-")
        if flag == "--config":
            raise UsageError(f"config line {lineno}: a config file cannot name "
                             "another")
        tokens.extend((flag, value))
    return [rest[0]] + tokens + rest[1:]


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        expanded = _expand_config_file(list(argv))
        command = next((t for t in expanded if not t.startswith("-")), None)
        args = make_parser(command).parse_args(expanded)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OstError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SystemExit as exc:  # parser.exit(), as from --help: an int status
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
