"""Per-layer tracing of steiner_ecc from outside the package.

The tracer wraps every public function of the package's modules, plus the
``Tree`` constructor and distance-matrix method and the two private BFS
helpers (counted only), and rebinds each wrapper wherever a module holds the
original under some name: ``census``, ``transforms`` and ``cli`` each import
``aecc3`` by name, so patching ``steiner.aecc3`` alone would miss them.

A span opens when a wrapped function is entered and closes when it returns.
Open spans live on an in-memory stack; when one closes, its self time (its
duration minus the durations of its direct child spans) is added to its
layer's total. Nothing is written until the caller asks for ``summary()``.
Counters are bumped at the same boundaries.

Which end-to-end metric each layer should move, and on which workload:

- ``cli.*``: census latency_p50_s (each op imports); setup_s elsewhere.
- ``census.*``: census latency_p50_s, throughput_ops_s, vertices_per_s.
- ``tree.parse_s``, ``tree.build_*``: ingest latency_tail_s and
  vertices_per_s; must not worsen census.
- ``tree.canonical_*``: ingest latency_tail_s (paths); census
  throughput_ops_s (dedup).
- ``tree.all_pairs_*``: big_compute vertices_per_s and peak_rss_mb; chains
  latency_p50_s.
- ``tree.traversal_s``, ``tree.bfs_calls``: chains latency_p50_s; ingest
  vertices_per_s.
- ``steiner.*``: big_compute vertices_per_s; chains and census
  throughput_ops_s.
- ``transforms.*``: chains latency_tail_s (pi on brooms); census
  throughput_ops_s (pi_mono).
- ``extremal.*``: chains and census, minor.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import weakref
from collections import defaultdict

# Self-time metrics, in report order. Each public function lands in its
# module's default layer unless listed in LAYER_OVERRIDES.
TIME_METRICS = (
    "cli.import_s",
    "cli.main_s",
    "census.enumerate_s",
    "census.verify_s",
    "census.report_s",
    "tree.parse_s",
    "tree.build_s",
    "tree.canonical_s",
    "tree.all_pairs_s",
    "tree.traversal_s",
    "steiner.ecc3_s",
    "transforms.site_search_s",
    "transforms.apply_s",
    "extremal.s",
)

COUNT_METRICS = (
    "census.trees_enumerated",
    "census.classes_checked",
    "tree.build_calls",
    "tree.canonical_calls",
    "tree.all_pairs_calls",
    "tree.all_pairs_bytes",
    "tree.bfs_calls",
    "steiner.aecc3_calls",
    "steiner.ecc3_computed",
    "steiner.ecc3_vertices",
    "transforms.sites_found",
    "transforms.moves",
    "extremal.calls",
)

MODULE_LAYERS = {
    "steiner_ecc.cli": "cli.main_s",
    "steiner_ecc.census": "census.verify_s",
    "steiner_ecc.tree": "tree.traversal_s",
    "steiner_ecc.steiner": "steiner.ecc3_s",
    "steiner_ecc.transforms": "transforms.apply_s",
    "steiner_ecc.extremal": "extremal.s",
}

LAYER_OVERRIDES = {
    "enumerate_free_trees": "census.enumerate_s",
    "report_to_json": "census.report_s",
    "report_to_csv": "census.report_s",
    "parse_edge_list_text": "tree.parse_s",
    "parse_prufer_text": "tree.parse_s",
    "format_edge_list": "tree.parse_s",
    "format_prufer": "tree.parse_s",
    "to_prufer": "tree.parse_s",
    "from_edge_list": "tree.build_s",
    "from_prufer": "tree.build_s",
    "random_tree": "tree.build_s",
    "canonical_form": "tree.canonical_s",
    "is_isomorphic": "tree.canonical_s",
    "find_sigma_sites": "transforms.site_search_s",
    "find_pi_sites": "transforms.site_search_s",
}


def _count_len(metric):
    def hook(tracer, args, result):
        tracer.counts[metric] += len(result)
    return hook


def _count_one(metric):
    def hook(tracer, args, result):
        tracer.counts[metric] += 1
    return hook


def _count_classes(tracer, args, result):
    tracer.counts["census.classes_checked"] += len(result.classes)


def _count_matrix(tracer, args, result):
    # distance_matrix caches per tree; only a matrix not returned before for
    # this tree was actually computed.
    if tracer.first_result(args[0], "all_pairs", result):
        n = len(result)
        tracer.counts["tree.all_pairs_calls"] += 1
        tracer.counts["tree.all_pairs_bytes"] += 8 * n * n


def _count_ecc3(tracer, args, result):
    if tracer.first_result(args[0], "ecc3", result):
        tracer.counts["steiner.ecc3_computed"] += 1
        tracer.counts["steiner.ecc3_vertices"] += len(result)


COUNT_HOOKS = {
    "enumerate_free_trees": _count_len("census.trees_enumerated"),
    "verify": _count_classes,
    "canonical_form": _count_one("tree.canonical_calls"),
    "aecc3": _count_one("steiner.aecc3_calls"),
    "ecc3_all": _count_ecc3,
    "find_sigma_sites": _count_len("transforms.sites_found"),
    "find_pi_sites": _count_len("transforms.sites_found"),
    "sigma_transform": _count_one("transforms.moves"),
    "pi_transform": _count_one("transforms.moves"),
    "rebalance_step": _count_one("transforms.moves"),
}

# Private BFS helpers of the tree module: counted, not timed, so their time
# stays with the layer that ran the search.
BFS_HELPERS = ("_bfs_distances", "_bfs_parents")


class Tracer:
    """Wraps the package's functions and accumulates self times and counts.

    Spans are timed in process CPU time, like the runner's ops. ``clock`` is
    injectable so the self-time arithmetic can be tested with a scripted clock.
    """

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.active = False
        self._stack = []
        self._seen = {}
        self._patches = []

    # -- spans -------------------------------------------------------------

    def wrap(self, fn, metric, count=None):
        """A wrapper timing ``fn`` as a span of ``metric``, then counting."""
        stack = self._stack
        self_s = self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self_s[metric] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def _counted(self, fn, metric):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                counts[metric] += 1
            return fn(*args, **kwargs)

        return counted

    def first_result(self, owner, kind, result) -> bool:
        """True unless ``result`` is the object last returned for ``owner``.

        Arrays are held weakly; a tree keeps its own cached matrix alive.
        """
        key = (id(owner), kind)
        ref = self._seen.get(key)
        if ref is not None and ref() is result:
            return False
        try:
            self._seen[key] = weakref.ref(result)
        except TypeError:
            self._seen[key] = lambda: result
        return True

    def end_op(self) -> None:
        """Forget per-tree results; call between ops."""
        self._seen.clear()

    # -- patching ------------------------------------------------------------

    def _set(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap the package's functions and rebind them in every package module."""
        wrappers = {}
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "steiner_ecc" or k.startswith("steiner_ecc."))]
        for mod in modules:
            default = MODULE_LAYERS.get(mod.__name__)
            if default is None:
                continue
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                count = COUNT_HOOKS.get(name)
                if count is None and default == "extremal.s":
                    count = _count_one("extremal.calls")
                wrappers[obj] = self.wrap(obj, LAYER_OVERRIDES.get(name, default), count)
        tree_mod = sys.modules.get("steiner_ecc.tree")
        if tree_mod is not None:
            for name in BFS_HELPERS:
                fn = getattr(tree_mod, name, None)
                if fn is not None:
                    wrappers[fn] = self._counted(fn, "tree.bfs_calls")
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, name, wrappers[obj])
        tree_cls = getattr(tree_mod, "Tree", None)
        if tree_cls is not None:
            self._set(tree_cls, "__init__",
                      self.wrap(tree_cls.__init__, "tree.build_s", _count_one("tree.build_calls")))
            if hasattr(tree_cls, "distance_matrix"):
                self._set(tree_cls, "distance_matrix",
                          self.wrap(tree_cls.distance_matrix, "tree.all_pairs_s", _count_matrix))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        """Run package code without recording it (for output checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts)}

    def merge(self, summary: dict) -> None:
        for k, v in summary["self_s"].items():
            self.self_s[k] += v
        for k, v in summary["counts"].items():
            self.counts[k] += v
