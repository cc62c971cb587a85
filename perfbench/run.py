"""Layered benchmark of `ost`: end-to-end pass times per method, set-up
time and peak memory (--trace 0), or per-layer self times and exact work
counts from a traced run (--trace 1).

    python3 perfbench/run.py --workload piece30 --seed 0 --seconds 12 --trace 0

Runs from any directory of a checkout that holds `src/ost`; writes only
under `.perfbench-work/` in that checkout. One client in a closed loop: each
`ost.cli.main([...])` call starts after the previous one returned, in this
process, with no `--threads` flag. Every call's output is checked against
reference.py outside the timed region. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import gate
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

DEFAULT_SEED = 0
# Confirms a claim on an input no change was tuned on; pass it as --seed.
HELD_OUT_SEED = 7919
# Set-up is timed as interpreter start-up (a fresh process, the noisier
# part, so repeated more) plus the in-process set-up; setup_s adds the two
# medians.
STARTUP_REPEATS = 7
SETUP_REPEATS = 5
# Timed passes per method at least, so that no
# method's median rests on one pass; the traced run takes one.
MIN_PASSES = 2
# Methods with an end-to-end metric of their own. ot_h runs only on `toy`,
# where it is nearly all of run_s.all, so it has none.
METHOD_METRICS = ("plca", "ost", "ost_e", "ost_g", "ost_eg")
THREADS_NOTE = ("no --threads flag is passed: the flag may go once the MM "
                "solvers are batched, and 2 threads run ost_eg ~1.8x faster "
                "today, so runs with and without it would not compare")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("piece30", "piece_long", "toy"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=12.0,
                   help="measuring time, shared evenly by the methods; each "
                        f"method also gets at least {MIN_PASSES} passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="short inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def blas_threads():
    """OpenBLAS's own thread count, read through its C API, or None."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_commit": git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "cpu": cpu, "threads_flag": THREADS_NOTE}


def startup_seconds():
    """Wall seconds for a fresh interpreter to import the CLI and exit: the
    start-up every `ost` command pays."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); import ost.cli",
                    SRC], check=True)
    return time.perf_counter() - start


def tail_percentile(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


class Bench:
    """One workload run: inputs, program calls, samples and failures."""

    def __init__(self, args):
        import ost.cli
        import ost.synth
        from ost.evaluation import NoteEvent

        self.args = args
        self.cli, self.synth, self.NoteEvent = ost.cli, ost.synth, NoteEvent
        self.wl = workloads.WORKLOADS[args.workload]
        self.tracer = spans.Tracer()
        self.dir = os.path.join(WORK, f"run-{args.workload}-{args.seed}-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.attempted = 0
        self.failures = []
        self.outputs = {}      # (method, key) -> {digest: kept output}
        self.calls = []        # (method, key, digest, or None when rc != 0)

    # -- program calls -----------------------------------------------------

    def call(self, argv):
        """Run `ost.cli.main(argv)`; returns (seconds, exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed call, not a crashed run
            rc = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        if rc != 0:
            self.failures.append(f"{' '.join(argv[:4])}: exit {rc}: "
                                 f"{err.getvalue().strip()[:300]}")
        return elapsed, rc, out.getvalue()

    def record(self, method, key, rc, texts, keep):
        """Keep each distinct output once, as `keep(n)` returns it; the gate
        checks every kept output after the timed passes."""
        self.attempted += 1
        if rc != 0:
            self.calls.append((method, key, None))
            return
        digest = gate.digest(*texts)
        kept = self.outputs.setdefault((method, key), {})
        if digest not in kept:
            kept[digest] = keep(len(kept))
        self.calls.append((method, key, digest))

    # -- inputs --------------------------------------------------------------

    def _render(self, name, seed, duration):
        events = workloads.make_piece(seed, duration)
        audio = self.synth.render_notes(
            [self.NoteEvent(*e) for e in events], sample_rate=self.wl.sample_rate,
            inharmonicity=workloads.INHARMONICITY, seed=seed)
        pcm = workloads.to_pcm16(audio.samples)
        wav = os.path.join(self.dir, name + ".wav")
        truth = os.path.join(self.dir, name + ".truth.tsv")
        workloads.write_wav(wav, self.wl.sample_rate, pcm)
        workloads.write_ground_truth(truth, events)
        return wav, truth, pcm, events

    def setup_once(self):
        """Input synthesis, file writes, and one untimed warm-up call per
        method on a short input of the same kind."""
        seed = self.args.seed
        if self.wl.name == "toy":
            self.problems = workloads.toy_problems(seed, tiny=self.args.tiny)
            for method in self.wl.methods:
                self._warm(workloads.toy_args("a", 0, method,
                                              bins=workloads.TOY_WARMUP_BINS))
            return
        duration = self.wl.tiny_duration if self.args.tiny else self.wl.duration
        self.tracer.context = ("setup",)
        self.wav, self.truth, self.pcm, self.events = self._render(
            "input", seed, duration)
        self.tracer.context = None
        wav, truth, _, _ = self._render("warmup", seed + 1, workloads.WARMUP_SECONDS)
        for method in self.wl.methods:
            self._warm(workloads.piece_args(self.wl, wav, truth, method, self.dir))

    def _warm(self, argv):
        _, rc, _ = self.call(argv)
        self.attempted += 1
        if rc != 0:
            self.calls.append(("warm-up", None, None))

    # -- passes --------------------------------------------------------------

    def run_pass(self, method):
        """One pass of `method` over the workload input; returns its wall
        seconds (the sum over the toy problems)."""
        if self.wl.name == "toy":
            total = 0.0
            for scenario, s in self.problems:
                elapsed, rc, stdout = self.call(
                    workloads.toy_args(scenario, s, method))
                total += elapsed
                # method and l1 error; the seconds column always differs
                rows = "\n".join(" ".join(line.split()[:2])
                                 for line in stdout.splitlines()
                                 if line.startswith(method + " "))
                self.record(method, (scenario, s), rc, (rows,), lambda n: rows)
            return total
        elapsed, rc, _ = self.call(
            workloads.piece_args(self.wl, self.wav, self.truth, method, self.dir))
        paths = workloads.piece_outputs(self.dir, self.wav, method)
        texts = ()
        if rc == 0:
            act, report = (_read(path) for path in paths)
            # the report's wall times differ on every call
            texts = (act, "\n".join(line for line in report.splitlines()
                                    if not line.startswith("wall_time_seconds.")))
        self.record(method, None, rc, texts,
                    lambda n: self._keep_files(paths, f"{method}-{n}"))
        return elapsed

    def _keep_files(self, paths, label):
        """Copies of a distinct output, so memory holds no output texts."""
        kept = []
        for i, path in enumerate(paths):
            kept.append(os.path.join(self.dir, f"kept-{label}-{i}.tsv"))
            shutil.copyfile(path, kept[-1])
        return kept

    def measure(self, budget, min_passes, context=None):
        """Closed loop over the methods. A first round makes one pass of
        each, which sets its pass count: enough passes to spend its even
        share of `budget` seconds, and at least `min_passes`. The next pass
        always goes to the method with the smallest part of its count done,
        so that every method's passes spread over the whole run, fast ones
        between the slow ones. Returns the samples."""
        methods = self.wl.methods
        share = budget / len(methods)
        samples = {m: [self.timed_pass(m, context)] for m in methods}
        target = {m: max(min_passes, math.ceil(share / samples[m][0]))
                  for m in methods}
        while True:
            pending = [m for m in methods if len(samples[m]) < target[m]]
            if not pending:
                return samples
            method = min(pending, key=lambda m: len(samples[m]) / target[m])
            samples[method].append(self.timed_pass(method, context))

    def timed_pass(self, method, context):
        self.tracer.context = None if context is None else (context, method)
        elapsed = self.run_pass(method)
        self.tracer.context = None
        return elapsed

    # -- correctness -----------------------------------------------------------

    def check_outputs(self):
        """Gate every recorded call; returns the number of failed calls."""
        if self.wl.name == "toy":
            checker = gate.ToyGate(int(workloads.TOY_BINS),
                                   float(workloads.TOY_F_MAX))
        else:
            window, hop = self.wl.window_hop()
            checker = gate.PieceGate(self.pcm, self.wl.sample_rate, window, hop,
                                     self.events, workloads.solver_settings)
        verdicts = {}
        for (method, key), kept in self.outputs.items():
            for digest, output in kept.items():
                if self.wl.name == "toy":
                    problems = checker.check(method, key[0], key[1], output)
                else:
                    problems = checker.check(method, *map(_read, output))
                verdicts[(method, key, digest)] = problems
                self.failures.extend(problems)
        return sum(1 for method, key, digest in self.calls
                   if digest is None or verdicts[(method, key, digest)])

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def method_lines(samples):
    lines = []
    for method, values in samples.items():
        tail = tail_percentile(values)
        tail_text = f"p{tail[0]:.0f}={tail[1]:.4f}s" if tail else "tail n/a"
        lines.append(f"  run_s.{method}: median {statistics.median(values):.4f}s "
                     f"{tail_text} n={len(values)}")
    return lines


def run(args):
    bench = Bench(args)
    startups = [startup_seconds() for _ in range(STARTUP_REPEATS)]
    setups = []
    if args.trace:
        bench.tracer.install()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        bench.setup_once()
        setups.append(time.perf_counter() - start)
    setup_s = statistics.median(startups) + statistics.median(setups)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment()}
    if args.trace:
        bench.tracer.uninstall()
        plain = bench.measure(args.seconds / 2, 1)
        bench.tracer.install()
        traced = bench.measure(args.seconds / 2, 1, context="pass")
        bench.tracer.uninstall()
        passes = {m: len(v) for m, v in traced.items()}
        metrics = spans.layer_metrics(bench.tracer, passes, SETUP_REPEATS)
        lines = ["tracing overhead and span accounting, seconds per pass:",
                 "  method  untraced  traced  overhead  span_self_sum"]
        overhead = {}
        for m in bench.wl.methods:
            a, b = statistics.median(plain[m]), statistics.median(traced[m])
            covered = spans.pass_self_seconds(bench.tracer, m, passes[m])
            overhead[m] = b - a
            lines.append(f"  {m:<7} {a:.4f}  {b:.4f}  {b - a:+.4f}  {covered:.4f}")
        report.update(untraced=plain, traced=traced, overhead_s=overhead)
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        bench.tracer.write(os.path.join(
            WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl"))
    else:
        samples = bench.measure(args.seconds, MIN_PASSES)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        medians = {m: statistics.median(v) for m, v in samples.items()}
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        for m in METHOD_METRICS:
            if m in medians:
                metrics[f"run_s.{m}"] = {"value": medians[m], "unit": "s"}
        metrics["run_s.all"] = {"value": sum(medians.values()), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
        lines = [f"setup_s {setup_s:.4f}: median start-up of {STARTUP_REPEATS} "
                 f"{[round(s, 4) for s in startups]} plus median set-up of "
                 f"{SETUP_REPEATS} {[round(s, 4) for s in setups]}"]
        lines += method_lines(samples)
        report.update(samples=samples, startups=startups, setups=setups)

    failed = bench.check_outputs()
    bench.cleanup()
    report.update(metrics=metrics, attempted=bench.attempted, failed=failed,
                  failures=bench.failures)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(json.dumps({"environment": report["environment"]}))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for line in lines:
        print(line)
    print(f"fail_ratio {failed}/{bench.attempted} = {failed / bench.attempted:.4f}")
    for problem in bench.failures[:20]:
        print("  FAIL " + problem)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ost", "cli.py")):
        print(f"error: no ost package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import ost
    if not os.path.abspath(ost.__file__).startswith(SRC + os.sep):
        print(f"error: imported ost from {ost.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
