"""Exhaustive enumeration of small trees and mechanical verification of the
package's extremal and monotonicity claims.

``enumerate_free_trees`` produces exactly one representative per isomorphism
class by growing each (n-1)-vertex representative with one extra leaf at
every vertex and deduplicating by canonical form. ``verify`` then checks a
named claim over every class of every n-vertex tree and returns a
deterministic report; serialized reports are byte-identical across runs.

Check ids accepted by :func:`verify`:

- ``thm1_1``  per degree-sequence class, the maximum average 3-eccentricity
              equals the closed-form caterpillar value and the maximizers
              are exactly the caterpillars of the class.
- ``thm1_2``  per segment-sequence class, the generalized star is the
              unique minimizer.
- ``thm1_3``  per segment-count class, the balanced generalized star
              attains the minimum (ties reported, not failed).
- ``cor3_2``  the path uniquely maximizes over all n-vertex trees.
- ``cor3_3``  per maximum-degree class, the broom family maximizes.
- ``cor3_4``  per count-of-maximum-degree class, the uniform-branch
              caterpillars with branch degree 3 maximize.
- ``cor3_5``  per (maximum degree, count) class, the uniform-branch
              caterpillars maximize.
- ``thm3_1``  majorization between degree sequences orders the class maxima
              (anti-monotonically), strictly iff the internal counts differ.
- ``cor3_6``  lowering the branch degree of the uniform-branch family
              strictly raises its maximum.
- ``sigma_mono`` every sigma site strictly increases the average and keeps
              the degree sequence.
- ``pi_mono`` every pi site never increases the average.

The seven class-wise checks (``thm1_1`` to ``cor3_5``) are rows of one
table, ``_CLASS_CLAIMS``, checked by one record builder. A row gives:

- ``keys``: the group keys from ``GROUP_KEYS``, outermost first; no key
  puts every tree in the single class ``all``.
- ``premise(n, outer)``: the detail of a vacuous record for an outermost
  class outside the claim's premise, or None.
- ``expected(n, members, *key values)``: the trees claimed to attain the
  extremum.
- ``claimed(n, expected, *key values)``: the claimed extremal value.
- ``minimize``: min instead of max; a one-tree class is then vacuous.
- ``unique``: the extremum must be attained by exactly one tree.
- ``ties``: if set, names the expected trees; they need only be among the
  extremal ones, and the others are reported as ties beside them.

``thm3_1`` and ``cor3_6`` compare pairs of closed forms; ``sigma_mono``
and ``pi_mono`` run one per-tree loop over the sites of a move.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import BadCensusArgument, CapExceeded
from .extremal import (
    _uniform_branch_sequence,
    balanced_star,
    degree_sequence_bound,
    family_bound,
    generalized_star,
    internal_count,
    majorizes,
    uniform_branch_caterpillar,
)
from .steiner import aecc3
from .transforms import find_pi_sites, find_sigma_sites, pi_transform, sigma_transform
from .tree import (
    Tree,
    canonical_form,
    degree_sequence,
    from_edge_list,
    is_caterpillar,
    is_generalized_star,
    segment_sequence,
)

DEFAULT_CAP = 12

THEOREMS = (
    "thm1_1",
    "thm1_2",
    "thm1_3",
    "cor3_2",
    "cor3_3",
    "cor3_4",
    "cor3_5",
    "thm3_1",
    "cor3_6",
    "sigma_mono",
    "pi_mono",
)


def _seq_key(seq: Sequence[int]) -> str:
    return ",".join(str(x) for x in seq)


# Group key -> (key function, label of a key value in report class keys).
# The key functions call package functions from lambdas, never hold them:
# every call then looks the name up in this module, where a tracer
# (bench/tracing.py) may have rebound it.
_GROUPS: dict[str, tuple[Callable[[Tree], object], Callable[[object], str]]] = {
    "degree_seq": (lambda t: degree_sequence(t), _seq_key),
    "segment_seq": (lambda t: segment_sequence(t), _seq_key),
    "segment_count": (lambda t: len(segment_sequence(t)), "m={}".format),
    "max_degree": (lambda t: max(t.degrees()), "delta={}".format),
    "count_max_degree": (lambda t: t.degrees().count(max(t.degrees())), "k={}".format),
}

GROUP_KEYS = tuple(_GROUPS)


# -- enumeration -----------------------------------------------------------------

_FREE: list[tuple[Tree, ...]] = []  # _FREE[i] holds all free trees of order i+1


def enumerate_free_trees(n: int, *, cap: int = DEFAULT_CAP) -> list[Tree]:
    """One representative per isomorphism class of n-vertex trees, sorted by canonical form."""
    if n < 1:
        raise BadCensusArgument(f"order must be >= 1, got {n}")
    if n > cap:
        raise CapExceeded(f"order {n} above the enumeration cap {cap}")
    while len(_FREE) < n:
        _FREE.append(_grow_level(len(_FREE) + 1))
    return list(_FREE[n - 1])


def _grow_level(n: int) -> tuple[Tree, ...]:
    if n == 1:
        return (Tree(((),)),)
    by_canon: dict[str, Tree] = {}
    for rep in _FREE[n - 2]:
        edges = rep.edges()
        for v in range(n - 1):
            t = from_edge_list(edges + [(v, n - 1)])
            by_canon.setdefault(canonical_form(t), t)
    return tuple(by_canon[c] for c in sorted(by_canon))


def group_trees(trees: Iterable[Tree], key: str) -> dict:
    """Partition trees by the chosen key; every tree lands in exactly one class."""
    if key not in _GROUPS:
        raise BadCensusArgument(f"unknown group key {key!r}; expected one of {GROUP_KEYS}")
    fn = _GROUPS[key][0]
    out: dict = {}
    for t in trees:
        out.setdefault(fn(t), []).append(t)
    return out


# -- reports -----------------------------------------------------------------------

@dataclass(frozen=True)
class TreeRef:
    """A tree pinned down for a report: canonical key plus one concrete edge list."""

    canonical: str
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ClassRecord:
    """Verification result for one class (or one checked pair/tree)."""

    key: str
    class_size: int
    passed: bool
    vacuous: bool = False
    extremal_value: Fraction | None = None
    claimed_value: Fraction | None = None
    argext: tuple[TreeRef, ...] = ()
    expected: tuple[TreeRef, ...] = ()
    ties: tuple[TreeRef, ...] = ()
    unique: bool | None = None
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    n: int
    passed: bool
    classes: tuple[ClassRecord, ...]
    notes: str = ""


def _ref(t: Tree) -> TreeRef:
    return TreeRef(canonical_form(t), tuple(t.edges()))


def _refs(trees: Iterable[Tree]) -> tuple[TreeRef, ...]:
    return tuple(sorted((_ref(t) for t in trees), key=lambda r: r.canonical))


def _canon_set(trees: Iterable[Tree]) -> set[str]:
    return {canonical_form(t) for t in trees}


def _frac_str(f: Fraction | None) -> str | None:
    if f is None:
        return None
    return f"{f.numerator}/{f.denominator}"


# -- verification ------------------------------------------------------------------

def verify(theorem: str, n: int, *, cap: int = DEFAULT_CAP) -> VerificationReport:
    """Exhaustively check one named claim over all n-vertex trees."""
    if theorem not in THEOREMS:
        raise BadCensusArgument(f"unknown check {theorem!r}; expected one of {THEOREMS}")
    trees = enumerate_free_trees(n, cap=cap)
    if n < 3:
        rec = _vacuous("all", len(trees), "order below 3: average 3-eccentricity undefined")
        return VerificationReport(theorem, n, True, (rec,), notes="vacuous")
    records = _VERIFIERS[theorem](trees, n)
    return VerificationReport(theorem, n, all(r.passed for r in records), tuple(records))


def _vacuous(key: str, class_size: int, detail: str) -> ClassRecord:
    return ClassRecord(key=key, class_size=class_size, passed=True, vacuous=True, detail=detail)


# -- class-wise claims: one table row each --------------------------------------------

@dataclass(frozen=True)
class _ClassClaim:
    keys: tuple[str, ...]
    claimed: Callable[..., Fraction]
    expected: Callable[..., list[Tree]]
    premise: Callable[..., str | None] = lambda n, *values: None
    minimize: bool = False
    unique: bool = False
    ties: str = ""

    def __call__(self, trees: list[Tree], n: int) -> list[ClassRecord]:
        """One record per class; an outermost class outside the premise is one vacuous record."""
        records = []
        for outer, members in _classes(trees, self.keys[:1]):
            reason = self.premise(n, *outer)
            if reason:
                records.append(_vacuous(_label(self.keys, outer), len(members), reason))
                continue
            for inner, sub in _classes(members, self.keys[1:]):
                records.append(_class_record(self, n, sub, outer + inner))
        return records


def _label(keys: Sequence[str], values: tuple) -> str:
    return ",".join(_GROUPS[k][1](v) for k, v in zip(keys, values)) or "all"


def _classes(trees: list[Tree], keys: Sequence[str]) -> list[tuple[tuple, list[Tree]]]:
    """(key values, members) for each class, sorted outermost key first."""
    if not keys:
        return [((), trees)]
    return [
        ((value,) + rest, sub)
        for value, members in sorted(group_trees(trees, keys[0]).items())
        for rest, sub in _classes(members, keys[1:])
    ]


def _class_record(claim: _ClassClaim, n: int, members: list[Tree], values: tuple) -> ClassRecord:
    expected = claim.expected(n, members, *values)
    claimed = claim.claimed(n, expected, *values)
    aecc = {t: aecc3(t) for t in members}
    best = min(aecc.values()) if claim.minimize else max(aecc.values())
    argext = [t for t in members if aecc[t] == best]
    want, got = _canon_set(expected), _canon_set(argext)
    ties = [t for t in argext if canonical_form(t) not in want] if claim.ties else []
    word, role = ("minimum", "minimizer") if claim.minimize else ("maximum", "maximizer")
    if claim.ties:
        ok = best == claimed and want <= got
        parts = []
        if best != claimed:
            parts.append(f"{word} {_frac_str(best)} differs from the claimed {_frac_str(claimed)}")
        if not want <= got:
            parts.append(f"{claim.ties} is not among the {role}s")
        if ties:
            parts.append(f"{len(ties)} co-{role}(s) beside {claim.ties}")
        detail = "; ".join(parts)
    else:
        ok = best == claimed and got == want and (len(argext) == 1 or not claim.unique)
        detail = "" if ok else (
            f"{word} {_frac_str(best)} or its attaining set deviates from the expected family"
        )
    return ClassRecord(
        key=_label(claim.keys, values),
        class_size=len(members),
        passed=ok,
        # a one-tree class cannot show that a minimum is attained only where claimed
        vacuous=claim.minimize and len(members) == 1,
        extremal_value=best,
        claimed_value=claimed,
        argext=_refs(argext),
        expected=_refs(expected),
        ties=_refs(ties),
        unique=len(argext) == 1,
        detail=detail,
    )


def _caterpillars_with(members: list[Tree], pi: tuple[int, ...]) -> list[Tree]:
    return [t for t in members if degree_sequence(t) == pi and is_caterpillar(t)]


def _max_degree_premise(n: int, delta: int) -> str | None:
    return None if delta >= 3 else "maximum degree below 3: outside the family's premise"


# The rows call package functions from lambdas, never hold them: every call
# then looks the name up in this module, where a tracer (bench/tracing.py)
# may have rebound it.
_CLASS_CLAIMS: dict[str, _ClassClaim] = {
    "thm1_1": _ClassClaim(
        ("degree_seq",),
        claimed=lambda n, expected, pi: degree_sequence_bound(pi),
        expected=lambda n, ts, pi: [t for t in ts if is_caterpillar(t)],
    ),
    "thm1_2": _ClassClaim(
        ("segment_seq",),
        claimed=lambda n, expected, seq: aecc3(generalized_star(seq)),
        expected=lambda n, ts, seq: [t for t in ts if is_generalized_star(t)],
        minimize=True,
        unique=True,
    ),
    "thm1_3": _ClassClaim(
        ("segment_count",),
        claimed=lambda n, expected, m: aecc3(expected[0]),
        expected=lambda n, ts, m: [balanced_star(n, m)],
        minimize=True,
        ties="the balanced star",
    ),
    "cor3_2": _ClassClaim(
        (),
        claimed=lambda n, expected: Fraction(n - 1),
        expected=lambda n, ts: [from_edge_list([(i, i + 1) for i in range(n - 1)])],
    ),
    "cor3_3": _ClassClaim(
        ("max_degree",),
        claimed=lambda n, expected, delta: family_bound("tndelta", n, delta=delta),
        expected=lambda n, ts, delta: _caterpillars_with(
            ts, (delta,) + (2,) * (n - delta - 1) + (1,) * delta
        ),
        premise=_max_degree_premise,
    ),
    "cor3_4": _ClassClaim(
        ("count_max_degree",),
        claimed=lambda n, expected, k: family_bound("tnk", n, k=k),
        expected=lambda n, ts, k: _caterpillars_with(ts, _uniform_branch_sequence(n, 3, k)),
        premise=lambda n, k: None if 1 <= k <= n - 3 else f"count {k} outside the premise 1..{n - 3}",
    ),
    "cor3_5": _ClassClaim(
        ("max_degree", "count_max_degree"),
        claimed=lambda n, expected, delta, k: family_bound("tndeltak", n, delta=delta, k=k),
        expected=lambda n, ts, delta, k: _caterpillars_with(ts, _uniform_branch_sequence(n, delta, k)),
        premise=_max_degree_premise,
    ),
}


# -- pairwise and per-tree checks ---------------------------------------------------

def _verify_thm3_1(trees: list[Tree], n: int) -> list[ClassRecord]:
    seqs = sorted(k for k in group_trees(trees, "degree_seq") if k[0] >= 3)
    records = []
    for a in seqs:
        for b in seqs:
            if a == b or not majorizes(a, b):
                continue
            ba, bb = degree_sequence_bound(a), degree_sequence_bound(b)
            if internal_count(a) == internal_count(b):
                ok = ba == bb
            else:
                ok = ba < bb
            records.append(
                ClassRecord(
                    key=f"{_seq_key(a)} >> {_seq_key(b)}",
                    class_size=2,
                    passed=ok,
                    extremal_value=ba,
                    claimed_value=bb,
                    detail="" if ok else "majorization does not order the class maxima as required",
                )
            )
    return records or [_vacuous("all", 0, "no comparable degree-sequence pairs with largest degree >= 3")]


def _verify_cor3_6(trees: list[Tree], n: int) -> list[ClassRecord]:
    records = []
    if n > 3:
        for delta in range(4, n):
            for k in range(1, n):
                if n < 2 + k * (delta - 1):
                    break
                lo = aecc3(uniform_branch_caterpillar(n, delta - 1, k))
                hi = aecc3(uniform_branch_caterpillar(n, delta, k))
                ok = (
                    lo > hi
                    and lo == family_bound("tndeltak", n, delta=delta - 1, k=k)
                    and hi == family_bound("tndeltak", n, delta=delta, k=k)
                )
                records.append(
                    ClassRecord(
                        key=f"delta={delta},k={k}",
                        class_size=2,
                        passed=ok,
                        extremal_value=lo,
                        claimed_value=hi,
                        detail="" if ok else "lowering the branch degree must strictly raise the maximum",
                    )
                )
    return records or [_vacuous("all", 0, "no feasible (delta, k) with delta >= 4")]


def _site_records(
    trees: list[Tree], find_sites: Callable, move: Callable, failures: Callable
) -> list[ClassRecord]:
    """One record per tree: apply the move at every site and collect the failures."""
    records = []
    for t in trees:
        sites = find_sites(t)
        found = [msg for site in sites for msg in failures(t, site, move(t, site))]
        ok = not found
        records.append(
            ClassRecord(
                key=canonical_form(t),
                class_size=1,
                passed=ok,
                vacuous=not sites,
                argext=() if ok else (_ref(t),),
                detail=f"{len(sites)} site(s)" if ok else "; ".join(found),
            )
        )
    return records


def _sigma_failures(t: Tree, site, out) -> Iterable[str]:
    if out.aecc3_after <= out.aecc3_before:
        yield f"no strict increase at {site}"
    if degree_sequence(out.after) != degree_sequence(t):
        yield f"degree sequence changed at {site}"


def _pi_failures(t: Tree, site, out) -> Iterable[str]:
    if out.aecc3_after > out.aecc3_before:
        yield f"average increased at {site}"


_VERIFIERS: dict[str, Callable[[list[Tree], int], list[ClassRecord]]] = {
    **_CLASS_CLAIMS,
    "thm3_1": _verify_thm3_1,
    "cor3_6": _verify_cor3_6,
    "sigma_mono": lambda ts, n: _site_records(ts, find_sigma_sites, sigma_transform, _sigma_failures),
    "pi_mono": lambda ts, n: _site_records(ts, find_pi_sites, pi_transform, _pi_failures),
}


# -- serialization -------------------------------------------------------------------

def _json_value(x: object) -> object:
    """Fractions as p/q strings; reports and their records as their fields."""
    return _frac_str(x) if isinstance(x, Fraction) else vars(x)


def report_to_json(report: VerificationReport) -> str:
    """Deterministic JSON rendering (same report, same bytes)."""
    return json.dumps(report, sort_keys=True, indent=2, default=_json_value) + "\n"


def report_to_csv(report: VerificationReport) -> str:
    """One row per class: key, extremal value as p/q, class size, pass."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "extremal_value", "class_size", "pass"])
    for r in report.classes:
        writer.writerow(
            [r.key, _frac_str(r.extremal_value) or "", r.class_size, str(r.passed).lower()]
        )
    return buf.getvalue()
