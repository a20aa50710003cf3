#!/usr/bin/env python3
"""Verdict benchmark: one workload per process, one caller, closed loop.

    python3 bench/bench.py --workload covered --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``
and from nowhere else.  The run repeats rounds of the workload (see
``workloads.py``) until ``--seconds`` of timed work have passed, checks every
output against ``checks.py``, and prints one JSON object as its last line.
In-process times are paced: scaled to a reference host speed by a fixed task
timed next to them (``pace_task``).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds on the same inputs and reports the per-layer
metrics from the traced ones, with the tracing overhead.  See README.md.
"""

from __future__ import annotations

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
import tempfile
import time
from array import array
from pathlib import Path

import numpy as np

from checks import check_verdict
from workloads import ROUNDS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 5
#: Sphere-search starts of an in-process Uncovered verdict.  Fewer than the
#: default 64, so that a run holds about four times as many verdicts: over
#: ten runs of 64-start verdicts the quartiles of the Uncovered medians lay up
#: to 0.33 of the median apart.  The path is the same: candidates, then starts.
EVIDENCE_STARTS = 16
#: Passes an untraced run makes over its rounds.  The first pass runs rounds
#: for ``seconds / passes``; the others repeat the same rounds, and an op's
#: latency is the median of its passes.  An Uncovered run holds a few dozen
#: long verdicts, which the passes steady; the covered medians fall in broad
#: spreads of verdict times, which more rounds in one pass steady better.
PASSES = {"covered": 1, "uncovered": 3, "cli": 1}
#: Workloads whose times are paced: scaled to a reference host speed (see
#: ``pace_task``).  A CLI call is mostly a process start, which the pace task
#: does not follow, so ``cli`` reports wall times as they are.
PACED = {"covered", "uncovered"}
#: Paced ops are timed in segments of about this many seconds, with
#: ``PACE_SAMPLES`` pace-task timings between segments; the median of the
#: timings at both ends of a segment paces its ops.  The host's state often
#: changes within a second or two.
PACE_SEGMENT_S = 0.25
PACE_SAMPLES = 4
#: The pace task's median time within benchmark runs on the reference host
#: (2-core Intel Xeon VM at 2.0 GHz, Python 3.11.7, numpy 2.4.6).  A paced
#: time is the measured time times ``PACE_REF_S`` over the pace task's median
#: time around it, so on a host that runs the task in ``PACE_REF_S`` it is the
#: wall time.
PACE_REF_S = 1.7e-3
#: Subprocess wall-clock limit per CLI call or import probe.
CHILD_TIMEOUT_S = 60
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
)


def load_program():
    """Import ``anticirculant`` from this checkout's ``src/``, or stop."""
    package = SRC / "anticirculant"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import anticirculant.cli
    import anticirculant.classifier
    import anticirculant.tensor

    if Path(anticirculant.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: anticirculant imported from {anticirculant.__file__}")
    return anticirculant


_PACE_MATRIX = np.add.outer(np.arange(12.0), np.arange(12.0)) % 5 + 3.0 * np.eye(12)


def pace_task() -> float:
    """Seconds for a fixed task of the same kind as a verdict's own work.

    The host switches between a fast and a slow state that lasts from seconds
    to minutes, and the same code runs up to 1.5 times as long in the slow
    one; the pace task, timed next to the ops, follows it.  The task is a
    pure-Python integer loop and a sweep of Jacobi-style row rotations over a
    12 x 12 matrix with numpy scalar indexing: interpreter work and small
    numpy calls, as in ``classify``.  It uses nothing of the program.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(10000):
        total += i * i
    a = _PACE_MATRIX.copy()
    for p in range(11):
        for q in range(p + 1, 12):
            apq = a[p, q]
            if apq == 0.0:
                continue
            tau = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = 1.0 / (abs(tau) + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            row_p, row_q = a[p, :].copy(), a[q, :].copy()
            a[p, :] = c * row_p - t * c * row_q
            a[q, :] = t * c * row_p + c * row_q
    return time.perf_counter() - t0


def pace_samples() -> list[float]:
    return [pace_task() for _ in range(PACE_SAMPLES)]


CPUS = sorted(os.sched_getaffinity(0))


def pin(p):
    """Pass ``p`` on one CPU, turn by turn over the CPUs given; None frees it.

    The pace task and the ops it paces then share a CPU: the two CPUs of the
    host are often in different states.
    """
    os.sched_setaffinity(0, CPUS if p is None else {CPUS[p % len(CPUS)]})


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def child_wall(code: str) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return time.perf_counter() - t0, proc.stdout


class InProcess:
    """``classifier.classify`` on each spec; the output is the verdict."""

    def __init__(self, pkg):
        self.classifier = pkg.classifier
        self.CirculantSpec = pkg.tensor.CirculantSpec
        self.import_module = "anticirculant.classifier"

    def prepare(self, ops, k):
        return [self.CirculantSpec(op.m, op.n, op.r, op.seed) for op in ops]

    def call(self, spec):
        return self.classifier.classify(spec, evidence_starts=EVIDENCE_STARTS)

    def document(self, out):
        """(verdict document, problem or None)."""
        return out.to_dict(), None

    def close(self):
        pass


class Cli:
    """``classify <doc> --verify --json`` per spec, as a process or in-process."""

    def __init__(self, pkg, in_process: bool):
        self.cli = pkg.cli
        self.in_process = in_process
        self.import_module = "anticirculant.cli"
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=WORK))

    def prepare(self, ops, k):
        argvs = []
        for i, op in enumerate(ops):
            path = self.dir / f"round{k}-{i}.json"
            path.write_text(json.dumps({"m": op.m, "n": op.n, "r": op.r, "seed": list(op.seed)}))
            argvs.append(["classify", str(path), "--verify", "--json"])
        return argvs

    def call(self, argv):
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
            return code, buf.getvalue()
        proc = subprocess.run([sys.executable, "-m", "anticirculant.cli", *argv],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def document(self, out):
        code, stdout = out
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return None, f"exit {code}, output is not JSON: {stdout[:200]!r}"
        want = {"PSD": 0, "NotPSD": 1}.get(doc.get("status"))
        if code != want:
            return doc, f"exit {code} for status {doc.get('status')!r}"
        if doc.get("verified") is not True:
            return doc, f"verified is {doc.get('verified')!r}"
        return doc, None

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class Run:
    """Timed passes over rounds: the latency of every op, and what the checks found.

    Outputs are checked after each pass over a round and then dropped, and
    latencies are kept in flat arrays, so the benchmark's own memory hardly
    grows with the number of rounds (``peak_rss_mb``).
    """

    def __init__(self, workload: str, seed: int, runner, paced: bool):
        self.make_round = ROUNDS[workload]
        self.seed = seed
        self.runner = runner
        self.paced = paced
        self.attempted = 0
        #: (traced, round) -> per pass, the latency in seconds of each op (nan: raised)
        self.latency: dict[tuple[bool, int], list[array]] = {}
        #: round -> (psd, exact) of each op
        self.kinds: dict[int, list[tuple[bool, bool]]] = {}
        self.paces: list[float] = []  # median pace-task time per paced segment
        self.failures: list[str] = []  # calls that raised
        self.problems: list[str] = []  # outputs that fail a check
        self.wall = {False: 0.0, True: 0.0}

    def round(self, k: int, traced: bool, tracer=None):
        """One timed pass over round ``k``; then its outputs are checked."""
        ops = self.make_round(self.seed, k)
        args = self.runner.prepare(ops, k)
        self.kinds[k] = [(op.psd, op.exact) for op in ops]
        latency = array("d", [math.nan] * len(ops))
        ctx = tracer.installed() if traced else contextlib.nullcontext()
        call, clock = self.runner.call, time.perf_counter
        outputs = []
        with ctx:
            t_round = clock()
            if self.paced:
                paces, segment, t_segment = pace_samples(), 0, clock()
            for i, (op, arg) in enumerate(zip(ops, args)):
                self.attempted += 1
                t0 = clock()
                try:
                    out = call(arg)
                except Exception as exc:  # a failed operation is counted, not fatal
                    self.failures.append(f"{op}: raised {exc!r}")
                else:
                    latency[i] = clock() - t0
                    outputs.append((op, out))
                if self.paced and (i + 1 == len(ops) or clock() - t_segment >= PACE_SEGMENT_S):
                    after = pace_samples()
                    pace = statistics.median(paces + after)
                    self.paces.append(pace)
                    for j in range(segment, i + 1):
                        latency[j] *= PACE_REF_S / pace
                    paces, segment, t_segment = after, i + 1, clock()
            self.wall[traced] += clock() - t_round
        self.latency.setdefault((traced, k), []).append(latency)
        for op, out in outputs:
            doc, problem = self.runner.document(out)
            if problem is None:
                found = check_verdict(op.m, op.n, op.r, op.seed, doc, psd_by_construction=op.psd)
                problem = "; ".join(found) if found else None
            if problem is not None:
                self.problems.append(f"{op}: {problem}")

    def latencies(self, traced=False, psd=None, exact=None) -> list[float]:
        """Per op that returned, the median of its passes; ``psd`` / ``exact`` select a kind."""
        found = []
        for (t, k), passes in self.latency.items():
            if t != traced:
                continue
            for i, (p, e) in enumerate(self.kinds[k]):
                values = [lat[i] for lat in passes if not math.isnan(lat[i])]
                if values and psd in (None, p) and exact in (None, e):
                    found.append(statistics.median(values))
        return found


def median_ms(values) -> float:
    return 1e3 * statistics.median(values)


def end_to_end(run: Run, setup_s: float, peak_rss_mb: float) -> dict:
    lat = run.latencies()
    return {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (len(lat) / math.fsum(lat), "1/s"),
        "verdict_ms_p50": (median_ms(lat), "ms"),
        "psd_ms_p50": (median_ms(run.latencies(psd=True)), "ms"),
        "notpsd_ms_p50": (median_ms(run.latencies(psd=False)), "ms"),
        "exact_ms_p50": (median_ms(run.latencies(exact=True)), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


#: Per-layer metrics read straight off the spans: (metric, span name, field),
#: each divided by the verdicts of the traced rounds.
PER_VERDICT = (
    ("polyeval.eval_fast.oracle_calls", "polyeval.eval_fast@oracle", "calls"),
    ("polyeval.eval_fast.oracle_s", "polyeval.eval_fast@oracle", "busy_s"),
    ("polyeval.value_and_gradient.calls", "polyeval.value_and_gradient", "calls"),
    ("polyeval.value_and_gradient.busy_s", "polyeval.value_and_gradient", "busy_s"),
    ("polyeval.eval_fast.classifier_calls", "polyeval.eval_fast@classifier", "calls"),
    ("polyeval.eval_fast.classifier_s", "polyeval.eval_fast@classifier", "busy_s"),
    ("oracle.sphere_min.calls", "oracle.sphere_min", "calls"),
    ("oracle.sphere_min.busy_s", "oracle.sphere_min", "busy_s"),
    ("oracle.sphere_min.self_s", "oracle.sphere_min", "self_s"),
    ("oracle.matrix_psd.calls", "oracle.matrix_psd", "calls"),
    ("oracle.matrix_psd.busy_s", "oracle.matrix_psd", "busy_s"),
    ("classifier.classify.busy_s", "classifier.classify", "busy_s"),
    ("classifier.classify.self_s", "classifier.classify", "self_s"),
    ("classifier.strong_hankel_check.busy_s", "classifier.strong_hankel_check", "busy_s"),
    ("classifier.verify_power_sum.busy_s", "classifier.verify_power_sum", "busy_s"),
    ("tensor.expand.busy_s", "tensor.expand", "busy_s"),
    ("tensor.hankel_matrix.busy_s", "tensor.hankel_matrix", "busy_s"),
    ("cli.main.busy_s", "cli.main", "busy_s"),
)


def share(part: float, whole: float) -> float:
    """``part / whole``, or 0 where the layer did not run."""
    return part / whole if whole else 0.0


def per_layer(run: Run, tracer, import_s: float) -> dict:
    stats = tracer.layer_stats()
    verdicts = len(run.latencies(traced=True))
    metrics = {
        name: (stats[span][field] / verdicts, "calls/verdict" if field == "calls" else "s/verdict")
        for name, span, field in PER_VERDICT
    }
    searches = [tracer.results[i] for i in tracer.spans_named("oracle.sphere_min")]
    starts = sum(s.starts for s in searches)
    oracle_evals = (stats["polyeval.eval_fast@oracle"]["calls"]
                    + stats["polyeval.value_and_gradient"]["calls"])
    sweeps = [tracer.results[i].sweeps for i in tracer.spans_named("oracle.matrix_psd")]
    notpsd = [i for i in tracer.spans_named("classifier.classify")
              if tracer.results[i].status.value == "NotPSD"]
    witness_evals = tracer.children_named("polyeval.eval_fast@classifier")
    metrics.update({
        "oracle.sphere_min.evals_per_start": (share(oracle_evals, starts), "evals/start"),
        "oracle.sphere_min.converged_ratio": (
            share(sum(s.converged_starts for s in searches), starts), "ratio"),
        "oracle.matrix_psd.sweeps": (share(sum(sweeps), len(sweeps)), "sweeps/call"),
        "classifier.witness_evals_per_notpsd": (
            share(sum(witness_evals.get(i, 0) for i in notpsd), len(notpsd)), "evals/verdict"),
        "cli.import_s": (import_s, "s"),
        "trace.overhead_pct": (100.0 * (run.wall[True] / run.wall[False] - 1.0), "%"),
    })
    return metrics


def measure_setup(runner, make_round, seed: int) -> float:
    """Median over repeats of: a fresh process importing the package, plus
    making (and for the CLI writing) the first round's inputs here."""
    probe = IMPORT_PROBE.format(module=runner.import_module)
    totals = []
    for _ in range(SETUP_REPEATS):
        _, out = child_wall(probe)
        t0 = time.perf_counter()
        runner.prepare(make_round(seed, 0), 0)
        totals.append(float(out) + time.perf_counter() - t0)
    return statistics.median(totals)


def cli_import_s() -> float:
    """Wall time of a process importing ``anticirculant.cli`` beyond a bare start."""
    bare = [child_wall("pass")[0] for _ in range(SETUP_REPEATS)]
    full = [child_wall("import anticirculant.cli")[0] for _ in range(SETUP_REPEATS)]
    return statistics.median(full) - statistics.median(bare)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = load_program()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "machine": platform.machine(),
    }
    print("run: " + json.dumps(record), flush=True)

    in_process_cli = args.workload == "cli" and args.trace == 1
    runner = Cli(pkg, in_process_cli) if args.workload == "cli" else InProcess(pkg)
    run = Run(args.workload, args.seed, runner,
              paced=args.workload in PACED and not args.trace)
    try:
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            k = 0
            while run.wall[True] + run.wall[False] < args.seconds:
                run.round(k, traced=False)
                run.round(k, traced=True, tracer=tracer)
                k += 1
        else:
            passes = PASSES[args.workload]
            k = 0
            for p in range(passes):
                pin(p if run.paced else None)
                if p == 0:
                    while run.wall[False] < args.seconds / passes:
                        run.round(k, traced=False)
                        k += 1
                else:
                    for j in range(k):
                        run.round(j, traced=False)
            pin(None)
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
            setup_s = measure_setup(runner, run.make_round, args.seed)
    finally:
        runner.close()

    if args.trace:
        metrics = per_layer(run, tracer, cli_import_s() if args.workload == "cli" else 0.0)
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{args.workload}-seed{args.seed}.npz")
    else:
        metrics = end_to_end(run, setup_s, peak_rss_mb)
    for line in (run.failures + run.problems)[:20]:
        print(f"problem: {line}", file=sys.stderr)
    attempted, failed = run.attempted, len(run.failures)
    print(f"rounds: {k}  attempted: {attempted}  failed: {failed}  "
          f"check problems: {len(run.problems)}")
    if run.paces:
        print(f"pace: median {1e3 * statistics.median(run.paces):.4g} ms per pace task "
              f"over {len(run.paces)} segments; reference {1e3 * PACE_REF_S:.4g} ms")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not run.problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
