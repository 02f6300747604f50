"""Benchmark driver for spectile: four seeded workloads, end-to-end metrics
from timed runs and per-layer metrics from a staged traced run.

    python3 bench/run.py --workload utc-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke          # every workload at its smallest size
    python3 bench/run.py --report

A workload run sets up (import plus seeded inputs), runs one untimed warm-up
operation, then repeats the workload's fixed batch until --seconds have
passed; between operations it times another set-up about once a second,
and setup_s is the median of those.  Every answer is checked against an
expected answer outside the timed region, and dropped before the next
operation runs.  With --trace 1 each untimed batch is followed by a staged
replay of the same batch, one public call per layer, which gives the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; their names and units
are the ones BENCHMARK.json declares.  Standard library only; run from the
repository root, where src/spectile is.

The timed runs report every time in reference seconds.  The shared host
this benchmark was built on (2 vCPUs, x86-64) runs the same Python code
at two or three speeds up to twice apart, switching every few seconds to
every half minute, so raw times swing by a quarter from run to run.  So a
reference that does not call spectile is timed before the first
operation, after an operation whenever REF_EVERY seconds have passed,
and after each batch: a fixed pure-Python loop (reference_loop) for
workloads that run in this process, a fresh interpreter doing a little
of the same work (reference_child) for the one whose operations are
spectile processes.  Each operation's and set-up's raw time is divided
by the mean of the two reference times around it and multiplied by the
reference's time at the faster speed: a slower program reads slower, a
slower host does not.  The process is pinned to one CPU, with the
children it starts, so that the reference runs where the timed work
runs.  The raw times and the reference's median are in the detail line.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from itertools import combinations
from typing import Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import GAMMA4, WORKLOADS  # noqa: E402

RUN_SECONDS = 25
# a set-up is timed again, between operations, once this many seconds have
# passed since the last, so that setup_s samples the same stretch of the
# machine's time as the batches do rather than only its first second
SETUP_EVERY = 1.0
# reported times read as seconds on a host where reference_loop() takes
# REF_SECONDS and reference_child() REF_CHILD_SECONDS, about their times
# on the faster of the two speeds; a reference is timed again once
# REF_EVERY seconds have passed
REF_SECONDS = 0.02
REF_CHILD_SECONDS = 0.06
REF_EVERY = 0.25


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer"."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def environment() -> dict:
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"nproc": nproc, "python": platform.python_version(),
            "platform": platform.platform()}


def import_spectile():
    """A fresh import of the package, so each set-up pays the import."""
    for name in [n for n in sys.modules
                 if n == "spectile" or n.startswith("spectile.")]:
        del sys.modules[name]
    return importlib.import_module("spectile")


def reference_loop() -> None:
    """Fixed work in spectile's mix (Fraction arithmetic, tuples, float sums,
    combinations) that does not depend on the seed or call spectile."""
    table = oracle.admissible_table(GAMMA4, 4, 40)
    for rest in combinations(range(1, 33), 3):
        oracle.is_integer_spectrum((0,) + rest, 4, 40, table)
    total = Fraction(0)
    for k in range(1, 800):
        total += Fraction(1, k) * Fraction(k + 1, 7)


# a fresh interpreter that does a little of the same work: the reference for
# operations that each start a spectile process
REFERENCE_CHILD = [sys.executable, "-c", "import argparse, json\n"
                   "from fractions import Fraction\n"
                   "s = Fraction(0)\n"
                   "for k in range(1, 1500): s += Fraction(1, k)"]


def reference_child() -> None:
    # with pipes, as the jobs are run: with a timeout and no pipes,
    # subprocess.run polls for the exit at growing intervals, and the time
    # reads the same whatever the host's speed
    subprocess.run(REFERENCE_CHILD, check=True, capture_output=True,
                   timeout=60)


class Reference:
    """Scales raw times to reference seconds by a reference, loop(), timed
    around them; seconds is the loop's time at the reference speed."""

    def __init__(self, loop, seconds: float):
        self.loop, self.seconds = loop, seconds
        loop()  # untimed warm-up
        self.loops = [self._loop()]
        self.pending: list[tuple[list, float]] = []

    def _loop(self) -> float:
        # without the collector, so that a larger heap left by the program
        # under test does not slow the loop and flatter the program
        gc.disable()
        try:
            start = time.perf_counter()
            self.loop()
            self.at = time.perf_counter()
        finally:
            gc.enable()
        return self.at - start

    def add(self, into: list, seconds: float) -> None:
        """Append the raw time seconds to into, scaled at the next tick."""
        self.pending.append((into, seconds))

    def tick(self, force: bool = False) -> None:
        """Time the loop if REF_EVERY seconds have passed since it last ran
        (or force), and scale the times added since by the mean of the two
        loop times around them."""
        if not force and time.perf_counter() - self.at < REF_EVERY:
            return
        self.loops.append(self._loop())
        scale = 2 * self.seconds / (self.loops[-2] + self.loops[-1])
        for into, seconds in self.pending:
            into.append(seconds * scale)
        self.pending.clear()


class SetUp:
    """Timed set-ups of one workload: a fresh import of spectile and the
    seeded inputs.  The expected answers are made later, at first checks."""

    def __init__(self, workload: str, seed: int, small: bool, workdir: str):
        self.make = lambda sp: WORKLOADS[workload](sp, seed, small, workdir)
        self.times: list[float] = []
        self.done = 0.0

    def plan(self):
        start = time.perf_counter()
        plan = self.make(import_spectile())
        self.done = time.perf_counter()
        self.times.append(self.done - start)
        return plan

    def sample(self) -> Optional[float]:
        """Time one more set-up if SETUP_EVERY seconds have passed, and
        return its time."""
        if time.perf_counter() - self.done >= SETUP_EVERY:
            self.plan()
            return self.times[-1]
        return None


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, op, result) -> None:
        self.attempted += 1
        try:
            reason = (f"raised {result!r}" if isinstance(result, Exception)
                      else op.check(result))
        except Exception as exc:  # a malformed answer is a wrong answer
            reason = f"check raised {exc!r}"
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{op.name}: {reason}")


def run_batch(ops, tally: Tally, between=lambda seconds: None) -> list[float]:
    """Time each operation; check its answer outside the timed region and
    drop it before the next one runs, so the peak RSS is the program's.
    between(its time) runs after each operation, untimed."""
    times = []
    for op in ops:
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # counted as a failed operation
            result = exc
        times.append(time.perf_counter() - start)
        tally.check(op, result)
        del result
        between(times[-1])
    return times


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def room_for_another(start: float, last: float, seconds: float) -> bool:
    """Start another batch only if one more like the last fits in the
    measuring window, so a run lasts about --seconds."""
    return time.perf_counter() - start + last <= seconds


def latencies(batches: list[list[float]]) -> dict[str, float]:
    """Each operation's median time over the batches; wall_s is their sum
    and the percentiles are taken across them, so a batch or two caught
    by a change of host speed moves none of the three."""
    per_op = [statistics.median(times) for times in zip(*batches)]
    return {"wall_s": sum(per_op),
            "op_p50_ms": 1e3 * percentile(per_op, 50),
            "op_p90_ms": 1e3 * percentile(per_op, 90)}


def measure(plan, seconds: float, tally: Tally,
            setup: SetUp) -> tuple[dict, dict]:
    """Batches until --seconds have passed; set-ups and operations are
    scaled by the reference that does their kind of work: the loop in this
    process, or a fresh interpreter when each operation is a subprocess
    (the loop here tracked those less well: it shrank the spread of
    subprocess times less, and over-corrected them in slow spells)."""
    ref = (Reference(reference_child, REF_CHILD_SECONDS) if plan.children
           else Reference(reference_loop, REF_SECONDS))
    batches, raw, setups = [], [], []
    ref.add(setups, setup.times[0])

    def between(op_seconds: float) -> None:
        ref.add(batches[-1], op_seconds)
        setup_seconds = setup.sample()
        if setup_seconds is not None:
            ref.add(setups, setup_seconds)
        ref.tick()

    start = last = time.perf_counter()
    while not batches or room_for_another(start, last, seconds):
        began = time.perf_counter()
        batches.append([])
        raw.append(run_batch(plan.ops, tally, between))
        ref.tick(force=True)
        last = time.perf_counter() - began
    who = resource.RUSAGE_CHILDREN if plan.children else resource.RUSAGE_SELF
    metrics = {"setup_s": statistics.median(setups), **latencies(batches),
               "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024}
    return metrics, {
        "batches": len(batches), "op_samples": len(plan.ops),
        "setup_samples": len(setups), "ref_samples": len(ref.loops),
        "ref_loop_ms": 1e3 * statistics.median(ref.loops),
        "raw": {"setup_s": statistics.median(setup.times), **latencies(raw)}}


def measure_traced(plan, seconds: float, tally: Tally,
                   units: dict[str, str]) -> tuple[dict, dict]:
    """Pairs of an untraced batch and its staged replay."""
    runs, walls, pair = [], [], 0.0
    start = time.perf_counter()
    while not runs or room_for_another(start, pair, seconds):
        began = time.perf_counter()
        times = run_batch(plan.ops, tally)
        tracer = tracing.Tracer()
        replayed = time.perf_counter()
        plan.replay(tracer, times)
        traced = time.perf_counter() - replayed
        tracer.add("trace.overhead_s", traced - sum(times))
        walls.append(sum(times))
        runs.append(tracer.metrics(units))
        pair = time.perf_counter() - began
    metrics = {name: statistics.median(run[name] for run in runs)
               for name in runs[0]}
    if plan.memory_probe is not None:
        metrics["spectra.enumerate_spectra.peak_alloc_mb"] = plan.memory_probe()
    return metrics, {"batch_walls": walls, "wall_s": statistics.median(walls)}


def run_workload(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "spectile")):
        print(f"error: no spectile package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = environment()
    # one CPU for this process and the children it starts, so that the
    # reference loop runs where the timed work runs: the host's CPUs change
    # speed at different moments
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    units = declared("per_layer" if args.trace else "end_to_end")
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=BENCH_DIR) as workdir:
        setup = SetUp(args.workload, args.seed, False, workdir)
        plan = setup.plan()
        run_batch([plan.warmup], tally)
        if args.trace:
            metrics, detail = measure_traced(plan, args.seconds, tally, units)
        else:
            metrics, detail = measure(plan, args.seconds, tally, setup)
    detail.update(env, workload=args.workload, seed=args.seed,
                  trace=args.trace, error_rate=tally.failed / tally.attempted,
                  failures=tally.reasons)
    if args.trace:
        print_layers(metrics, units, detail["wall_s"])
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


def print_layers(metrics: dict, units: dict, wall: float) -> None:
    print(f"# staged traced run; shares are of the untraced wall_s {wall:.4f} s")
    for name, unit in units.items():
        share = f"{100 * metrics[name] / wall:6.1f}%" if unit == "s" else " " * 7
        print(f"# {name:46s} {metrics[name]:14.6g} {unit:6s} {share}  "
              f"-> {tracing.MOVES.get(name, '')}")


def smoke() -> int:
    """Every workload at its smallest size with the correctness gate on; no
    timing is asserted."""
    sys.path.insert(0, SRC)
    print("# " + json.dumps(environment(), sort_keys=True))
    units = declared("per_layer")
    ok = True
    for workload in WORKLOADS:
        tally = Tally()
        with tempfile.TemporaryDirectory(prefix="tmp-", dir=BENCH_DIR) as wd:
            plan = SetUp(workload, 1, True, wd).plan()
            run_batch([plan.warmup], tally)
            times = run_batch(plan.ops, tally)
            tracer = tracing.Tracer()
            plan.replay(tracer, times)
            tracer.metrics(units)
        print(f"{workload:16s} attempted {tally.attempted:4d} "
              f"failed {tally.failed}", *tally.reasons, sep="\n  ")
        ok = ok and tally.failed == 0
    return 0 if ok else 1


def report(args) -> int:
    """One fresh process per workload and mode, one row per workload."""
    env = environment()
    print(f"# nproc {env['nproc']}  python {env['python']}  {env['platform']}")
    print(f"# seed {args.seed}, {args.seconds} s per run; times in reference "
          f"seconds, raw_wall in seconds")
    print(f"{'workload':16s} {'ok':>3s} {'ops':>6s} {'err':>6s} "
          f"{'setup_s':>8s} {'wall_s':>8s} {'raw_wall':>8s} {'p50_ms (n)':>18s} "
          f"{'p90_ms (n)':>18s} {'rss_mb':>7s} {'trace_ovh_s':>11s}")
    layers, status = [], 0
    for workload in WORKLOADS:
        row = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], capture_output=True, text=True,
                cwd=ROOT, timeout=600)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload}: trace {trace} run failed\n{proc.stderr}")
                return 1
            if trace:
                layers += [f"# {workload}"] + lines[:-2]
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2].split(" ", 1)[1])
            row[f"trace{trace}"] = {"result": result, "detail": detail}
        m = {k: v["value"] for k, v in row["trace0"]["result"]["metrics"].items()}
        d0, r0 = row["trace0"]["detail"], row["trace0"]["result"]
        overhead = row["trace1"]["result"]["metrics"]["trace.overhead_s"]["value"]
        n = d0["op_samples"]
        print(f"{workload:16s} {'yes' if r0['correct'] else 'NO':>3s} "
              f"{r0['attempted']:6d} {d0['error_rate']:6.3f} "
              f"{m['setup_s']:8.4f} {m['wall_s']:8.3f} {d0['raw']['wall_s']:8.3f} "
              f"{m['op_p50_ms']:11.2f} ({n:4d}) {m['op_p90_ms']:11.2f} ({n:4d}) "
              f"{m['peak_rss_mb']:7.1f} {overhead:11.3f}")
        status |= not (r0["correct"] and row["trace1"]["result"]["correct"])
    print("\n".join(layers))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest sizes, correctness only")
    parser.add_argument("--report", action="store_true",
                        help="every workload in a fresh process, one row each")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.report:
        return report(args)
    if args.workload is None:
        parser.error("--workload, --smoke or --report is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
