"""Seeded inputs, timed operations and output checks of the four workloads.

A workload is a pool of rounds. Every round has the same mix of op kinds and
sizes. A run does ``round(seconds / NOMINAL_ROUND_S)`` whole rounds, cycling
through the pool; NOMINAL_ROUND_S is the round's time at the commit that
defined the benchmark, on a 2-core machine, so a 20-second run takes about
20 seconds there and does the same ops on every later commit.

Inputs are made by this module from the seed (edge-list text, or census
parameters); the program receives only those inputs. Each op's output is
checked by ``check``, which the runner calls outside the timed interval.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CLI_CHILD = BENCH_DIR / "cli_child.py"
CENSUS_PINS = BENCH_DIR / "census_pins.json"

# A census op that runs longer than this is killed and counted as failed.
CENSUS_TIMEOUT_S = 150


class CheckFailed(Exception):
    """An op's output is wrong."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Op:
    """One timed operation: its input and the vertices it hands the program."""

    label: str
    vertices: int
    data: object


def require_program() -> None:
    if not (SRC / "steiner_ecc" / "__init__.py").is_file():
        raise FileNotFoundError(f"no steiner_ecc package under {SRC}")


def load_program():
    """Import steiner_ecc from the checkout's ``src``, never from elsewhere."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import steiner_ecc
    import steiner_ecc.cli  # noqa: F401  (import cost belongs to set-up)

    return steiner_ecc


# -- tree shapes (pure Python, independent of the program) ---------------------------

def random_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform labelled tree: decode a random Pruefer code."""
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in code:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def path_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def star_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, n)]


def broom_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A path with n//2 - 2 extra leaves on one interior vertex (max degree n//2)."""
    delta = n // 2
    handle = n - delta + 1  # edges on the path
    hub = rng.randint(1, handle - 1)
    edges = [(i, i + 1) for i in range(handle)]
    edges.extend((hub, v) for v in range(handle + 1, n))
    return edges


def caterpillar_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A spine of n//2 vertices; every other vertex hangs off a random spine vertex."""
    spine = n // 2
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges.extend((rng.randrange(spine), v) for v in range(spine, n))
    return edges


SHAPES = {
    "random": random_edges,
    "path": path_edges,
    "star": star_edges,
    "broom": broom_edges,
    "caterpillar": caterpillar_edges,
}


@dataclass(frozen=True)
class TreeInput:
    """A generated tree: its edge-list text plus facts the checks compare against."""

    shape: str
    n: int
    text: str
    edges: tuple[tuple[int, int], ...]  # as in the text, relabelled
    probes: tuple[int, ...]  # vertices re-checked with an independent ecc3 route


def make_tree(shape: str, n: int, rng: random.Random) -> TreeInput:
    """Generate a shape, relabel it at random and render it as edge-list text."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    for u, v in SHAPES[shape](n, rng):
        u, v = perm[u], perm[v]
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    rng.shuffle(edges)
    text = "".join(f"{u} {v}\n" for u, v in edges)
    return TreeInput(shape, n, text, tuple(edges), tuple(rng.sample(range(n), 4)))


def degrees(inp: TreeInput) -> tuple[int, ...]:
    """Degree sequence (non-increasing) counted from the generated edges."""
    deg = [0] * inp.n
    for u, v in inp.edges:
        deg[u] += 1
        deg[v] += 1
    return tuple(sorted(deg, reverse=True))


def _same_edges(t, inp: TreeInput) -> bool:
    return t.edges() == sorted((min(u, v), max(u, v)) for u, v in inp.edges)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -- census ----------------------------------------------------------------------

class Census:
    """``verify --theorem T --n N --format json`` in a fresh interpreter per op."""

    name = "census"
    in_process = False
    THEOREMS = ("thm1_1", "thm1_2", "thm1_3", "cor3_2", "cor3_3", "cor3_4",
                "cor3_5", "thm3_1", "cor3_6", "sigma_mono", "pi_mono")
    ORDERS = (11, 12, 13)
    FREE_TREES = {11: 235, 12: 551, 13: 1301}  # OEIS A000055
    TRACE_ORDER = 12
    NOMINAL_ROUND_S = 30.0

    def __init__(self):
        with open(CENSUS_PINS, encoding="utf-8") as fh:
            self.pins = json.load(fh)

    def pool(self, seed: int) -> list[list[Op]]:
        """One round: every check at every order, in a seeded order."""
        ops = [self._op(th, n) for th in self.THEOREMS for n in self.ORDERS]
        _rng(self.name, seed).shuffle(ops)
        return [ops]

    def trace_ops(self, pool: list[list[Op]]) -> list[Op]:
        return [op for op in pool[0] if op.data[1] == self.TRACE_ORDER]

    def _op(self, theorem: str, n: int) -> Op:
        argv = ["verify", "--theorem", theorem, "--n", str(n), "--format", "json"]
        if n > 12:
            argv += ["--cap", str(n)]
        return Op(f"{theorem} n={n}", n * self.FREE_TREES[n], (theorem, n, tuple(argv)))

    def run(self, se, op: Op, traced: bool = False):
        cmd = [sys.executable, str(CLI_CHILD), *(["--trace"] if traced else []), *op.data[2]]
        return subprocess.run(cmd, capture_output=True, timeout=CENSUS_TIMEOUT_S, cwd=ROOT)

    def check(self, se, op: Op, proc) -> None:
        theorem, n, _ = op.data
        require(proc.returncode == 0, f"exit code {proc.returncode}")
        digest = hashlib.sha256(proc.stdout).hexdigest()
        require(digest == self.pins[str(n)][theorem],
                "report bytes differ from the pinned SHA-256")
        require(json.loads(proc.stdout)["passed"] is True, "report says the check failed")


# -- big_compute ---------------------------------------------------------------------

class BigCompute:
    """What ``compute`` prints, on few large trees."""

    name = "big_compute"
    in_process = True
    # Two trees of the middle size put the rank statistics of a run (median,
    # and the tail of a 20-op run) inside the n=600 cluster, not on an edge.
    SIZES = (300, 600, 600, 1000)
    NOMINAL_ROUND_S = 4.0

    def pool(self, seed: int) -> list[list[Op]]:
        """One round per shape, each round the trees of SIZES."""
        rng = _rng(self.name, seed)
        shapes = list(SHAPES)
        rng.shuffle(shapes)
        return [[_tree_op(shape, n, rng) for n in self.SIZES] for shape in shapes]

    def trace_ops(self, pool):
        return pool[0] + pool[1]

    def run(self, se, op: Op, traced: bool = False):
        t = se.parse_edge_list_text(op.data.text)
        return (t, se.aecc3(t), se.ecc3_all(t), se.diameter(t), se.radius(t),
                se.degree_sequence(t), se.segment_sequence(t))

    def check(self, se, op: Op, out) -> None:
        inp = op.data
        n = inp.n
        t, value, ecc3, diam, rad, degs, segs = out
        require(_same_edges(t, inp), "parsed tree differs from the input")
        require(degs == degrees(inp), "degree sequence differs from the input's")
        require(sum(segs) == n - 1, "segment lengths do not sum to n-1")
        require(len(ecc3) == n and sum(ecc3) == n * value, "sum of ecc3 is not n * aecc3")
        require(rad == (diam + 1) // 2, "radius is not ceil(diameter / 2)")
        if inp.shape == "path":
            require(value == n - 1 and diam == n - 1, "path aecc3 is not n-1")
        elif inp.shape == "star":
            require(value == Fraction(3 * n - 1, n) and diam == 2, "star aecc3 is not (3n-1)/n")
        elif inp.shape == "broom":
            require(value == se.family_bound("tndelta", n, delta=n // 2),
                    "broom aecc3 is not family_bound")
        elif inp.shape == "caterpillar":
            require(value == se.degree_sequence_bound(degrees(inp)),
                    "caterpillar aecc3 is not degree_sequence_bound")
        else:
            for v in inp.probes:
                require(se.ecc3_via_lemma(t, v) == ecc3[v],
                        f"ecc3({v}) disagrees with ecc3_via_lemma")


def _tree_op(shape: str, n: int, rng: random.Random) -> Op:
    return Op(f"{shape} n={n}", n, make_tree(shape, n, rng))


# -- chains --------------------------------------------------------------------------

class Chains:
    """Reduction chains on random trees and the ``transform pi`` flow on brooms."""

    name = "chains"
    in_process = True
    # Two trees of n=150 put the median of a run inside that cluster and
    # keep the n=220 chains, whose cost varies most by tree, near half the time.
    RANDOM_SIZES = (80, 150, 150, 220)
    BROOM_SIZES = (100, 200)
    POOL_ROUNDS = 3
    NOMINAL_ROUND_S = 7.0

    def pool(self, seed: int) -> list[list[Op]]:
        rng = _rng(self.name, seed)
        rounds = []
        for _ in range(self.POOL_ROUNDS):
            ops = [_tree_op("random", n, rng) for n in self.RANDOM_SIZES]
            ops += [Op(f"broom n={n}", n, (n, rng.randint(3, 8))) for n in self.BROOM_SIZES]
            rng.shuffle(ops)
            rounds.append(ops)
        return rounds

    def trace_ops(self, pool):
        return pool[0]

    def run(self, se, op: Op, traced: bool = False):
        if isinstance(op.data, TreeInput):
            t = se.parse_edge_list_text(op.data.text)
            to_cat = se.reduce_to_caterpillar(t)
            to_star = se.reduce_to_generalized_star(t)
            star = to_star[-1].after if to_star else t
            return t, to_cat, to_star, se.balance_generalized_star(star)
        n, delta = op.data
        t = se.broom(n, delta)
        sites = se.find_pi_sites(t)
        return t, se.pi_transform(t, sites[0])

    def check(self, se, op: Op, out) -> None:
        if not isinstance(op.data, TreeInput):
            # A pi site inside a segment may split it, so only the chain
            # below must keep the segment sequence.
            n, delta = op.data
            t, step = out
            require(step.before is t and t.order == step.after.order == n, "pi step tree sizes")
            require(step.aecc3_before == se.family_bound("tndelta", n, delta=delta),
                    "broom aecc3 is not family_bound")
            require(step.delta <= 0, "pi move increased aecc3")
            return
        t, to_cat, to_star, balance = out
        require(_same_edges(t, op.data), "parsed tree differs from the input")
        end = _check_chain(t, to_cat, lambda d: d > 0, se.degree_sequence, "sigma")
        require(se.is_caterpillar(end), "sigma chain does not end in a caterpillar")
        star = _check_chain(t, to_star, lambda d: d <= 0, se.segment_sequence, "pi")
        require(se.is_generalized_star(star), "pi chain does not end in a generalized star")
        end = _check_chain(star, balance, lambda d: d <= 0,
                           lambda x: len(se.segment_sequence(x)), "rebalance")
        legs = se.segment_sequence(end)
        require(legs[0] - legs[-1] <= 1, "rebalancing does not end in a balanced star")


def _check_chain(start, chain, delta_ok, invariant, what: str):
    """Walk a chain: contiguous steps, each delta allowed, invariant kept; return the end."""
    cur = start
    for step in chain:
        require(step.before is cur, f"{what} chain is not contiguous")
        require(delta_ok(step.delta), f"{what} step has delta {step.delta}")
        require(invariant(step.after) == invariant(cur), f"{what} step changed its invariant")
        cur = step.after
    return cur


# -- ingest --------------------------------------------------------------------------

class Ingest:
    """Codecs, build, canonical form and traversal on few huge trees."""

    name = "ingest"
    in_process = True
    SIZES = (10_000, 20_000)
    NOMINAL_ROUND_S = 10.0

    def pool(self, seed: int) -> list[list[Op]]:
        rng = _rng(self.name, seed)
        ops = [_tree_op(shape, n, rng) for shape in SHAPES for n in self.SIZES]
        rng.shuffle(ops)
        return [ops]

    def trace_ops(self, pool):
        return pool[0]

    def run(self, se, op: Op, traced: bool = False):
        t = se.parse_edge_list_text(op.data.text)
        canon = se.canonical_form(t)
        segs = se.segment_sequence(t)
        middle = se.center(t)
        back = se.parse_prufer_text(se.format_prufer(t))
        return t, canon, segs, middle, back

    def check(self, se, op: Op, out) -> None:
        t, canon, segs, middle, back = out
        n = op.data.n
        require(_same_edges(t, op.data), "parsed tree differs from the input")
        require(back == t, "Pruefer round trip changed the tree")
        require(sum(segs) == n - 1, "segment lengths do not sum to n-1")
        require(len(canon) == 2 * n, "canonical form is not one bracket pair per vertex")
        require(len(middle) in (1, 2), "center has not one or two vertices")


WORKLOADS = {w.name: w for w in (Census, BigCompute, Chains, Ingest)}


def warmup_op() -> Op:
    """A small random tree for in-process warm-up (order >= 48 loads scipy)."""
    return _tree_op("random", 60, random.Random("warm-up"))
