"""Benchmark of steiner-ecc: one workload per run, end to end or traced.

Usage (from the repository root):

    python3 bench/run.py --workload {census,big_compute,chains,ingest,all}
                         --seed N --seconds S --trace {0,1}

``all`` runs the four workloads one after another, each in its own process.

Load is a closed loop with one client: each op starts when the previous one
has ended, with no threads and at most one child process at a time. A run
does a fixed amount of work: whole rounds of the workload (see workloads.py),
as many as fit in ``--seconds`` at the round's nominal time. Every op's
output is checked between ops, outside the timed interval; a wrong output,
an exception, or a census child that exits non-zero or times out counts as
a failed op.

Times are CPU seconds (user + system) of this process and its children, not
wall-clock seconds. The program is single-threaded and waits on no I/O, so
on an idle machine the two agree; on a shared virtual machine wall time also
counts time the hypervisor gives to other guests (steal time), which made
identical runs differ by up to 2x. The notes line before the result gives
the wall-clock median for comparison.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each op of
a fixed list once untraced and once traced (tracing.py) and reports per-op
self times and counts per layer, plus the traced runs' throughput as a share
of the untraced runs'.

Before the result, the run prints the environment and every metric with its
unit; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata

import tracing
import workloads
from workloads import ROOT, Op

# Set-up is repeated in fresh processes, this many before the timed ops and
# this many after them; setup_s is the median of all.
SETUP_REPEATS = (2, 1)
SETUP_TIMEOUT_S = 120
# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("vertices_per_s", "vertices/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

PER_LAYER = (
    tuple((m, "s") for m in tracing.TIME_METRICS)
    + tuple((m, "bytes" if m.endswith("_bytes") else "count") for m in tracing.COUNT_METRICS)
    + (("trace.overhead_ratio", "ratio"),)
)


def tail_latency(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    With sorted samples x[0..N-1], x[k] has N-1-k samples beyond it, so the
    answer is x[N-1-TAIL_BEYOND], the 100*(N-TAIL_BEYOND)/N-th percentile.
    Runs too short for that fall back to the smallest sample.
    """
    xs = sorted(samples)
    k = max(0, len(xs) - 1 - TAIL_BEYOND)
    return xs[k], 100.0 * (k + 1) / len(xs)


# -- set-up ---------------------------------------------------------------------------

def cpu_seconds() -> float:
    """CPU time used so far by this process and its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def setup(wl, seed: int):
    """Import the program, make the inputs and warm up; return them with CPU times."""
    start = time.process_time()
    se = workloads.load_program()
    import_s = time.process_time() - start
    pool = wl.pool(seed)
    if wl.in_process:
        # Also pays scipy's lazy import, which the first tree of order >= 48 triggers.
        warm = workloads.warmup_op()
        wl.check(se, warm, wl.run(se, warm))
    return se, pool, import_s, time.process_time() - start


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(workloads.BENCH_DIR / "run.py"),
         "--workload", workload, "--seed", str(seed), "--setup-probe"],
        capture_output=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


# -- running ops ------------------------------------------------------------------------

class Tally:
    """Counts attempted and failed ops, their wall time, and the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wall: list[float] = []
        self.errors: list[str] = []

    def run(self, wl, se, op: Op, traced: bool = False, tracer=None):
        """Time one op in CPU seconds, then check its output untimed.

        Returns (seconds, output), with output None when the op failed.
        """
        self.attempted += 1
        wall = time.perf_counter()
        start = cpu_seconds()
        try:
            out = wl.run(se, op, traced)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out = None
            why = f"{type(exc).__name__}: {exc}"
        elapsed = cpu_seconds() - start
        self.wall.append(time.perf_counter() - wall)
        if out is None:
            return elapsed, self._fail(op, why)
        try:
            with tracer.paused() if tracer is not None else contextlib.nullcontext():
                wl.check(se, op, out)
        except Exception as exc:  # any error in checking means the output is wrong
            return elapsed, self._fail(op, f"{type(exc).__name__}: {exc}")
        return elapsed, out

    def _fail(self, op: Op, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op.label}: {why}")
        return None


def timed_run(wl, se, pool, seconds: float, tally: Tally) -> dict:
    # A fixed op count, not a deadline: the same ops on every run and every
    # commit, so the rank statistics below always sit on the same op mix.
    rounds = max(1, round(seconds / wl.NOMINAL_ROUND_S))
    latencies = []
    busy = 0.0
    passed = vertices = 0
    for r in range(rounds):
        for op in pool[r % len(pool)]:
            elapsed, out = tally.run(wl, se, op)
            latencies.append(elapsed)
            busy += elapsed
            if out is not None:
                passed += 1
                vertices += op.vertices
            del out  # so the next op's peak memory does not include this output
    tail, pct = tail_latency(latencies)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "throughput_ops_s": passed / busy,
        "vertices_per_s": vertices / busy,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "ok_ratio": passed / tally.attempted,
        "_notes": {
            "ops": len(latencies),
            "rounds": rounds,
            "measured_s": busy,
            "latency_tail_percentile": pct,
            "wall_p50_s": statistics.median(tally.wall),
            "failed_ratio": tally.failed / tally.attempted,
        },
    }


def traced_run(wl, se, pool, import_s: float, tally: Tally) -> dict:
    """Each op of the workload's fixed trace list, once untraced and once traced.

    The two runs of an op are back to back, in alternating order, so that
    drift in machine speed and first-run effects fall on both sides alike.
    """
    ops = wl.trace_ops(pool)
    tracer = tracing.Tracer()
    spent = {False: 0.0, True: 0.0}
    for i, op in enumerate(ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            spent[traced] += _run_once(wl, se, op, tracer if traced else None, tally)
    plain_s, traced_s = spent[False], spent[True]
    metrics = {m: tracer.self_s.get(m, 0.0) / len(ops) for m in tracing.TIME_METRICS}
    metrics.update({m: tracer.counts.get(m, 0) / len(ops) for m in tracing.COUNT_METRICS})
    if wl.in_process:
        metrics["cli.import_s"] = import_s  # paid once per process, in set-up
    metrics["trace.overhead_ratio"] = plain_s / traced_s
    metrics["_notes"] = {"trace_ops": len(ops), "untraced_s": plain_s, "traced_s": traced_s}
    return metrics


def _run_once(wl, se, op: Op, tracer, tally: Tally) -> float:
    """Run one op, traced when ``tracer`` is given; return its time."""
    if tracer is None:
        return tally.run(wl, se, op)[0]
    if wl.in_process:
        with tracer.installed():
            elapsed = tally.run(wl, se, op, tracer=tracer)[0]
        tracer.end_op()
        return elapsed
    elapsed, proc = tally.run(wl, se, op, traced=True)
    if proc is not None:
        tracer.merge(json.loads(proc.stderr.decode().splitlines()[-1]))
    return elapsed


# -- reporting ---------------------------------------------------------------------------

def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def run_all(args) -> int:
    """Run every workload in turn, each in its own process, printing each result."""
    worst = 0
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, str(workloads.BENCH_DIR / "run.py"),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["all", *workloads.WORKLOADS],
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        workloads.require_program()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    wl = workloads.WORKLOADS[args.workload]()

    if args.setup_probe:
        print(json.dumps({"setup_s": setup(wl, args.seed)[3]}))
        return 0

    before, after = SETUP_REPEATS if not args.trace else (0, 0)
    setup_samples = [probe_setup(args.workload, args.seed) for _ in range(before)]
    se, pool, import_s, _ = setup(wl, args.seed)
    tally = Tally()
    if args.trace:
        values = traced_run(wl, se, pool, import_s, tally)
        spec = PER_LAYER
    else:
        values = timed_run(wl, se, pool, args.seconds, tally)
        setup_samples += [probe_setup(args.workload, args.seed) for _ in range(after)]
        values["setup_s"] = statistics.median(setup_samples)
        values["_notes"]["setup_samples_s"] = setup_samples
        spec = END_TO_END

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          + json.dumps(values.pop("_notes"), sort_keys=True))
    for err in tally.errors:
        print(f"FAILED {err}")
    metrics = {}
    for name, unit in spec:
        print(f"  {name:28s} {values[name]:.6g} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
