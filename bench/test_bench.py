"""Tests of the benchmark itself: statistics, tracing, checks and generation.

Run with: PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
import tracing
import workloads
from workloads import ROOT, CheckFailed, Op

se = workloads.load_program()


# -- tail percentile ----------------------------------------------------------------

@pytest.mark.parametrize(
    "n, index, percentile",
    [(100, 89, 90.0), (20, 9, 50.0), (11, 0, 100 / 11), (33, 22, 100 * 23 / 33), (5, 0, 20.0)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, index, percentile):
    samples = [float(i) for i in range(n)]
    random.Random(n).shuffle(samples)
    value, pct = run.tail_latency(samples)
    assert value == float(index)
    assert pct == pytest.approx(percentile)
    if n > run.TAIL_BEYOND:
        assert sum(x > value for x in samples) == run.TAIL_BEYOND


# -- self time ------------------------------------------------------------------------

def test_self_time_is_span_minus_direct_children():
    ticks = iter([0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 8.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap(lambda: None, "leaf")
    mid = tracer.wrap(lambda: leaf(), "mid")
    other = tracer.wrap(lambda: None, "other")

    def body():
        mid()    # mid 1..3, leaf inside it 2..2.5
        other()  # 4..8

    outer = tracer.wrap(body, "outer")
    tracer.active = True
    outer()      # 0..10
    assert tracer.self_s == {"outer": 10 - 2 - 4, "mid": 2 - 0.5, "leaf": 0.5, "other": 4}
    assert sum(tracer.self_s.values()) == 10


def test_paused_tracer_records_nothing():
    tracer = tracing.Tracer()
    fn = tracer.wrap(lambda: 1, "x", tracing._count_one("calls"))
    tracer.active = True
    with tracer.paused():
        fn()
    assert not tracer.self_s and not tracer.counts


# -- output checks --------------------------------------------------------------------

class _Corrupt:
    """A workload whose outputs pass through ``corrupt`` before the check."""

    def __init__(self, wl, corrupt):
        self.wl, self.corrupt = wl, corrupt

    def run(self, se, op, traced=False):
        return self.corrupt(self.wl.run(se, op, traced))

    def check(self, se, op, out):
        self.wl.check(se, op, out)


@pytest.mark.parametrize("shape", sorted(workloads.SHAPES))
def test_wrong_fraction_counts_as_failed(shape):
    wl = workloads.BigCompute()
    op = Op(shape, 60, workloads.make_tree(shape, 60, random.Random(shape)))
    tally = run.Tally()
    assert tally.run(wl, se, op)[1] is not None

    def off_by_one(out):
        t, value, *rest = out
        return (t, value + Fraction(1, 60), *rest)

    assert tally.run(_Corrupt(wl, off_by_one), se, op)[1] is None
    assert (tally.attempted, tally.failed) == (2, 1)


def test_wrong_ecc3_at_a_probed_vertex_counts_as_failed():
    wl = workloads.BigCompute()
    op = Op("random", 60, workloads.make_tree("random", 60, random.Random(5)))
    t, value, ecc3, *rest = wl.run(se, op)
    v, w = op.data.probes[:2]
    ecc3 = list(ecc3)
    ecc3[v], ecc3[w] = ecc3[v] + 1, ecc3[w] - 1  # keeps the sum, so only the probe sees it
    with pytest.raises(CheckFailed):
        wl.check(se, op, (t, value, tuple(ecc3), *rest))


def test_changed_report_byte_counts_as_failed():
    wl = workloads.Census()
    op = wl._op("cor3_2", 11)
    tally = run.Tally()
    assert tally.run(wl, se, op)[1] is not None

    def flip(proc):
        out = bytearray(proc.stdout)
        out[len(out) // 2] ^= 1
        return subprocess.CompletedProcess(proc.args, proc.returncode, bytes(out), proc.stderr)

    assert tally.run(_Corrupt(wl, flip), se, op)[1] is None
    assert tally.failed == 1


def test_chain_with_wrong_delta_counts_as_failed():
    wl = workloads.Chains()
    op = Op("random", 40, workloads.make_tree("random", 40, random.Random(3)))
    t, to_cat, to_star, balance = wl.run(se, op)
    wl.check(se, op, (t, to_cat, to_star, balance))
    assert to_cat, "the test tree needs at least one sigma step"
    flat = dataclasses.replace(to_cat[0], aecc3_after=to_cat[0].aecc3_before)
    with pytest.raises(CheckFailed):
        wl.check(se, op, (t, [flat] + to_cat[1:], to_star, balance))


def test_raising_op_counts_as_failed():
    class Raises:
        def run(self, se, op, traced=False):
            raise ValueError("boom")

    tally = run.Tally()
    assert tally.run(Raises(), se, Op("x", 1, None))[1] is None
    assert tally.failed == 1 and "boom" in tally.errors[0]


# -- generation -----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    wl = workloads.WORKLOADS[name]()
    first, again, other = (pickle.dumps(wl.pool(s)) for s in (7, 7, 8))
    assert first == again
    assert first != other


# -- tracing --------------------------------------------------------------------------

def _small_ops(name):
    rng = random.Random(name)
    if name == "chains":
        return [Op("random", 40, workloads.make_tree("random", 40, rng)), Op("broom", 30, (30, 4))]
    return [Op(s, 60, workloads.make_tree(s, 60, rng)) for s in ("random", "star", "caterpillar")]


@pytest.mark.parametrize("name, loaded", [
    ("big_compute", ("tree.all_pairs_calls", "steiner.ecc3_computed", "steiner.aecc3_calls")),
    ("chains", ("transforms.moves", "transforms.sites_found", "tree.bfs_calls", "extremal.calls")),
    ("ingest", ("tree.build_calls", "tree.canonical_calls", "tree.bfs_calls")),
])
def test_traced_counts_repeat_exactly(name, loaded):
    class Small(workloads.WORKLOADS[name]):
        def trace_ops(self, pool):
            return _small_ops(name)

    def counts():
        tally = run.Tally()
        metrics = run.traced_run(Small(), se, None, 0.0, tally)
        assert tally.failed == 0, tally.errors
        return {m: metrics[m] for m in tracing.COUNT_METRICS}

    first = counts()
    assert first == counts()
    assert all(first[m] > 0 for m in loaded)


def test_tracer_restores_the_package():
    before = (se.aecc3, se.census.aecc3, se.Tree.__init__, se.tree._bfs_distances)
    with tracing.Tracer().installed():
        assert se.census.aecc3 is not before[1]
        assert se.census.aecc3 is se.transforms.aecc3 is se.aecc3
    assert (se.aecc3, se.census.aecc3, se.Tree.__init__, se.tree._bfs_distances) == before


def test_traced_census_child_counts_repeat_exactly():
    argv = ["--trace", "verify", "--theorem", "pi_mono", "--n", "8", "--format", "json"]

    def summary():
        proc = subprocess.run([sys.executable, str(workloads.CLI_CHILD)] + argv,
                              capture_output=True, check=True, cwd=ROOT)
        return json.loads(proc.stderr.decode().splitlines()[-1])

    first = summary()
    assert first["counts"] == summary()["counts"]
    for m in ("census.trees_enumerated", "census.classes_checked", "tree.build_calls",
              "tree.canonical_calls", "steiner.aecc3_calls", "transforms.moves"):
        assert first["counts"][m] > 0
    assert first["self_s"]["cli.import_s"] > 0


# -- the benchmark's contract -----------------------------------------------------------

def test_metric_names_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chains", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
