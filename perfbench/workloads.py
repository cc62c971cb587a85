"""Workload definitions: the inputs each workload generates from its seed and
the `ost` command lines it runs over them.

The program only ever sees the generated WAV and ground-truth TSV files (or,
for `toy`, the command line); the seed stays a benchmark argument.
"""

import os
from dataclasses import dataclass

import numpy as np
import scipy.io.wavfile

# Solver settings for the piece workloads. The MM variants get no noise
# column: at lambda_g=300 the flat noise column absorbs all mass (F = 0.00
# measured at commit 84281d5), while without it F is 0.85 (ost_g) and 0.94
# (ost_eg).
EPSILON0 = 10.0
LAMBDA_E = 30.0
LAMBDA_G = 300.0
NOISE_AMPLITUDE = 30.0
FLAGS = {"eps0": "--epsilon0", "lambda_e": "--lambda-e",
         "lambda_g": "--lambda-g", "noise": "--noise-amplitude"}

CLI_DEFAULT_STFT = (4096, 2048)  # `ost transcribe` --window-len / --hop
PIECE_MIDI_RANGE = (45, 80)
INHARMONICITY = 0.01
WARMUP_SECONDS = 1.5

# Fixed toy problem set: four scenario seeds times both scenarios. The set
# does not depend on the benchmark seed, so every run times the same eight
# dense LPs (their pivot counts, and so ot_h's run time, vary a lot between
# problems); the benchmark seed only permutes the call order.
TOY_SEEDS = (0, 1, 2, 3)
TOY_SCENARIOS = ("a", "b")
TOY_BINS = "64"
TOY_F_MAX = "700"
TOY_WARMUP_BINS = "16"


@dataclass
class Workload:
    name: str
    methods: tuple
    why: str
    duration: float = 0.0
    sample_rate: int = 0
    stft: tuple = None  # (window_len, hop) passed as flags; None: CLI default
    tiny_duration: float = 0.0

    def window_hop(self):
        return self.stft or CLI_DEFAULT_STFT


WORKLOADS = {
    "piece30": Workload(
        name="piece30",
        methods=("plca", "ost", "ost_e", "ost_g", "ost_eg"),
        why=("30 s of random chords at 22.05 kHz, window 2048, hop 1024 "
             "(M=1024, K=88, 647 frames): unmix dominates the iterative "
             "methods, so MM and PLCA solver changes show here"),
        duration=30.0, sample_rate=22050,
        stft=(2048, 1024),
        tiny_duration=4.0),
    "piece_long": Workload(
        name="piece_long",
        methods=("ost", "ost_e"),
        why=("300 s at 44.1 kHz, default STFT (M=2048, ~6460 frames), closed "
             "forms only: TSV writing, STFT and scoring dominate, MM and PLCA "
             "changes should read as no change"),
        duration=300.0, sample_rate=44100,
        tiny_duration=6.0),
    "toy": Workload(
        name="toy",
        methods=("plca", "ot_h", "ost", "ost_e", "ost_g", "ost_eg"),
        why=("eight fixed single-frame misspecified problems (64 bins) for "
             "all six methods: per-call fixed costs dominate, and it is the "
             "only workload that runs the dense LP (ot_h)")),
}


def make_piece(seed, duration, midi_low=PIECE_MIDI_RANGE[0],
               midi_high=PIECE_MIDI_RANGE[1]):
    """Contiguous random chords of one to three notes, as
    (onset_s, offset_s, midi) triples (the generator of the acceptance
    suite's criterion 7)."""
    rng = np.random.default_rng(seed)
    events, t = [], 0.0
    while t < duration:
        length = min(rng.uniform(0.4, 0.9), duration - t)
        if length < 0.2:
            break
        for pitch in rng.choice(np.arange(midi_low, midi_high + 1),
                                size=rng.integers(1, 4), replace=False):
            events.append((t, t + length, int(pitch)))
        t += length
    return events


def write_ground_truth(path, events):
    """MAPS-style TSV with full-precision times, so the program parses back
    exactly the events the reference scores against."""
    lines = ["OnsetTime\tOffsetTime\tMidiPitch"]
    lines += [f"{on!r}\t{off!r}\t{pitch}" for on, off, pitch in events]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def to_pcm16(samples):
    return np.clip(np.round(samples * 32767.0), -32768, 32767).astype(np.int16)


def write_wav(path, sample_rate, pcm):
    scipy.io.wavfile.write(path, sample_rate, pcm)


def solver_settings(method):
    """One piece method's solver settings, None where the CLI accepts no
    such flag for the method (or the method gets none)."""
    return {"eps0": None if method == "plca" else EPSILON0,
            "lambda_e": LAMBDA_E if method in ("ost_e", "ost_eg") else None,
            "lambda_g": LAMBDA_G if method in ("ost_g", "ost_eg") else None,
            "noise": NOISE_AMPLITUDE if method in ("ost", "ost_e") else None}


def piece_args(workload, wav, truth, method, outdir):
    """`ost transcribe` arguments for one method."""
    args = ["transcribe", wav, "--method", method, "--ground-truth", truth,
            "--output-dir", outdir]
    if workload.stft:
        args += ["--window-len", str(workload.stft[0]), "--hop", str(workload.stft[1])]
    for key, value in solver_settings(method).items():
        if value is not None:
            args += [FLAGS[key], repr(value)]
    return args


def piece_outputs(outdir, wav, method):
    base = os.path.join(outdir, os.path.splitext(os.path.basename(wav))[0]
                        + "." + method)
    return base + ".activations.tsv", base + ".report.tsv"


def toy_problems(seed, tiny=False):
    """(scenario, scenario_seed) pairs in this run's call order."""
    problems = [(sc, s) for s in TOY_SEEDS for sc in TOY_SCENARIOS]
    if tiny:
        problems = problems[:2]
    order = np.random.default_rng(seed).permutation(len(problems))
    return [problems[i] for i in order]


def toy_args(scenario, scenario_seed, method, bins=TOY_BINS):
    return ["toy", scenario, "--bins", bins, "--f-max", TOY_F_MAX,
            "--methods", method, "--seed", str(scenario_seed)]
