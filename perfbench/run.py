"""Benchmark of the fluxon design flow, end to end and per layer.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
./src. Each workload is a closed loop with one client in this process:
it builds its inputs from --seed, then runs whole rounds of ops until
the ops have taken --seconds, checking each op's output as it goes.

--trace 0 prints the end-to-end metrics: setup_s (median of fresh-
interpreter set-ups, each from process start until the workload's
inputs are built), ops_per_s (ops per busy second; checks excluded)
and peak_rss_mb. Both times are rescaled to a reference machine speed,
measured with a fixed calibration kernel as the run goes. --trace 1
alternates untraced and traced rounds and prints the per-layer metrics
of the traced ones, with the tracing overhead. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 9  # half before the timed phase, half after
CALIBRATE_EVERY_S = 0.5
CALIBRATION_REFERENCE_S = 0.020

# Cap numpy's BLAS threads at the cores this process may use, before
# numpy is first imported.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    if not os.environ.get(_var, "").isdigit() or int(os.environ[_var]) > NPROC:
        os.environ[_var] = str(NPROC)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="build the workload, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


class Tally:
    def __init__(self, known_faults):
        self.known_faults = known_faults
        self.attempted = self.failed = 0
        self.unexpected: list[str] = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if label not in self.known_faults:
                self.unexpected.append(f"{label}: {'; '.join(problems)}")


def calibration_kernel() -> int:
    """Fixed interpreter and small-array numpy work, like the program's own
    mix but independent of it; about 20 ms on the reference machine."""
    import numpy as np

    acc = 0
    table: dict[int, int] = {}
    for i in range(40000):
        table[i & 1023] = i
        acc += table.get(i & 511, 0) % 7
    a = np.arange(8.0)
    for _ in range(10000):
        a = a * 0.5 + 1.0
    return acc + int(a[0])


class Speedometer:
    """The machine's speed, sampled with the calibration kernel every
    CALIBRATE_EVERY_S of wall time.

    A SIGALRM interval timer interrupts an untraced op to take the sample
    inside it, and the kernel's time is taken off the op's; otherwise, and
    in traced ops, where it would be charged to a span, the sample waits for
    the gap before the next op. Samples go to the list in `samples`.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.inside = 0.0  # kernel seconds spent inside the current op
        self.in_untraced_op = False
        self.due = True

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _alarm(self, signum, frame):
        if self.in_untraced_op:
            self.inside += self.sample()
        else:
            self.due = True

    def sample(self) -> float:
        t0 = perf_counter()
        calibration_kernel()
        dt = perf_counter() - t0
        self.samples.append(dt)
        self.due = False
        return dt


class Timings:
    """Busy time of the rounds of one kind, untraced or traced."""

    def __init__(self):
        self.rounds = self.ops = 0
        self.busy = 0.0
        self.samples: list[float] = []  # calibration kernel times

    def slowdown(self) -> float:
        """Mean calibration kernel time over its time on the reference machine."""
        return statistics.fmean(self.samples) / CALIBRATION_REFERENCE_S

    def rate(self) -> float:
        """Ops per busy second, rescaled to the reference machine's speed.

        Other tenants of a shared machine slow it down by up to half, in
        spells of seconds to minutes, and slow the calibration kernel alike;
        dividing by the kernel's slowdown, sampled through the same spells,
        cancels most of it.
        """
        return self.ops / self.busy * self.slowdown()


def timed_rounds(wl, seconds: float, tally: Tally, tracer=None) -> dict[bool, Timings]:
    """Run whole rounds until the ops have taken `seconds`.

    With a tracer, rounds alternate untraced and traced, ending on a traced
    one, so that drift in the machine's speed falls on both alike.
    """
    timings = {False: Timings(), True: Timings()}
    traced = False
    with Speedometer() as speed:
        while timings[False].busy + timings[True].busy < seconds or traced:
            tm = timings[traced]
            speed.samples = tm.samples
            for label, call in wl.ops():
                if speed.due:
                    speed.sample()
                speed.inside = 0.0
                if traced:
                    tracer.enabled = True
                speed.in_untraced_op = not traced
                t0 = perf_counter()
                result = call()
                dt = perf_counter() - t0 - speed.inside
                speed.in_untraced_op = False
                if traced:
                    tracer.enabled = False
                tm.busy += dt
                tm.ops += 1
                tally.record(label, wl.check(label, result))
            tm.rounds += 1
            traced = tracer is not None and not traced
    return timings


def setup_seconds(workload: str, seed: int, probes: int) -> list[float]:
    """Wall time of fresh interpreters, from spawn until the inputs are built."""
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            ready = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
            if proc.wait() != 0 or ready.strip() != "ready":
                raise RuntimeError(f"set-up probe for {workload} failed")
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    from workloads import WORKLOADS

    workdir.mkdir(parents=True)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.enabled = True
    try:
        wl = WORKLOADS[name](seed, workdir)
        if tracer is not None:
            tracer.enabled = False
        tally = Tally(wl.known_faults)
        if not trace:
            setup = setup_seconds(name, seed, SETUP_PROBES // 2)
        timings = timed_rounds(wl, seconds, tally, tracer)
        if trace:
            # Alternate rounds share the machine's spells, so raw rates compare.
            plain, traced = timings[False], timings[True]
            overhead = 100.0 * ((plain.ops / plain.busy) / (traced.ops / traced.busy) - 1.0)
            metrics = tracer.layer_metrics(timings[True].ops, overhead)
        else:
            setup += setup_seconds(name, seed, SETUP_PROBES - SETUP_PROBES // 2)
            metrics = {
                "setup_s": (statistics.median(setup) / timings[False].slowdown(), "s"),
                "ops_per_s": (timings[False].rate(), "1/s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
    finally:
        if tracer is not None:
            tracer.uninstall()
    for problem in tally.unexpected[:20]:
        print(f"{name}: FAILED {problem}")
    shown = timings[trace]
    print(f"{name}: seed {seed}, {tally.attempted} ops attempted, {tally.failed} failed "
          f"({len(tally.unexpected)} unexpectedly); {shown.ops} ops in {shown.rounds} rounds, "
          f"{shown.busy:.2f} s busy at {shown.ops / shown.busy:.6g} ops/s; machine slowdown "
          f"{shown.slowdown():.3f} over {len(shown.samples)} samples"
          + (" traced" if trace else f"; set-up {statistics.median(setup):.4f} s before rescaling"))
    for key, (value, unit) in metrics.items():
        print(f"  {key:34} {value:14.6g} {unit}")
    return {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fluxon" / "__init__.py").is_file():
        print(f"error: no fluxon sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    base = ROOT / ".perfbench_out"
    workdir = base / f"{os.getpid()}"
    try:
        if args.setup_probe:
            workdir.mkdir(parents=True)
            WORKLOADS[args.workload](args.seed, workdir)
            print("ready", flush=True)
            return 0
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), workdir / n) for n in names}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()  # only when no other run is using it
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
