"""Extremal families, their exact average-3-eccentricity values, and majorization.

For a feasible degree sequence with largest degree >= 3, every caterpillar
realizing it shares the same average Steiner 3-eccentricity,
``(n*k + 2n - k) / n`` where k counts the entries >= 2; that value is also
the maximum over all trees with that degree sequence. The all-2 sequence
belongs to the path, whose average is ``n - 1``. Family-level maxima follow
by plugging in the family's extremal degree sequence:

- all trees of order n:                       n - 1 (the path)
- maximum degree exactly D:                   ((n-1)(n-D) + 2n) / n
- exactly k vertices of maximum degree:       ((n-1)(n-k-2) + 2n) / n
- exactly k vertices of maximum degree D:     ((n-1)(n-(D-2)k-2) + 2n) / n

Generalized stars head the opposite direction: among trees with a given
segment sequence the generalized star minimizes the average, and among trees
with a given segment count the balanced generalized star does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import (
    Incomparable,
    Infeasible,
    InfeasibleSequence,
    LengthMismatch,
    SumMismatch,
    UnsortedSequence,
)
from .tree import Tree, from_edge_list

FAMILIES = ("tn", "tndelta", "tnk", "tndeltak")


def check_degree_sequence(pi: Sequence[int]) -> tuple[int, ...]:
    """Validate a tree degree sequence: non-increasing positives summing to 2(n-1)."""
    seq = tuple(pi)
    n = len(seq)
    if any(type(d) is not int for d in seq):
        raise InfeasibleSequence(f"sequence {seq} has an entry that is not an int")
    if n < 2:
        raise InfeasibleSequence("a degree sequence has at least two entries")
    for a, b in zip(seq, seq[1:]):
        if a < b:
            raise InfeasibleSequence(f"sequence {seq} is not non-increasing")
    if any(d < 1 for d in seq):
        raise InfeasibleSequence(f"sequence {seq} has a non-positive entry")
    if sum(seq) != 2 * (n - 1):
        raise InfeasibleSequence(f"sequence {seq} sums to {sum(seq)}, needs {2 * (n - 1)}")
    return seq


def _check_ints(**values) -> None:
    """Raise Infeasible naming the first value that is not an ``int``; a bool is not one."""
    for name, value in values.items():
        if type(value) is not int:
            raise Infeasible(f"{name} must be an int, got {value!r}")


def internal_count(pi: Sequence[int]) -> int:
    """Number of entries >= 2."""
    return sum(1 for d in pi if d >= 2)


# -- constructors ---------------------------------------------------------------

def caterpillar_from_degree_sequence(
    pi: Sequence[int], spine_order: Sequence[int] | None = None
) -> Tree:
    """A caterpillar realizing the degree sequence.

    The internal degrees form the spine, by default in the given
    (non-increasing) order; ``spine_order`` permutes them. Spine ends carry
    one more leaf than their degree-2 deficit since they have a single spine
    neighbor. All spine orders yield the same average 3-eccentricity, so any
    member of the family is acceptable.
    """
    seq = check_degree_sequence(pi)
    if seq[0] < 2:
        raise InfeasibleSequence("need at least one internal vertex (degree >= 2)")
    internals = [d for d in seq if d >= 2]
    k = len(internals)
    if spine_order is not None:
        order = tuple(spine_order)
        if any(type(i) is not int for i in order) or sorted(order) != list(range(k)):
            raise InfeasibleSequence(f"spine_order must permute 0..{k - 1}, got {order}")
        internals = [internals[i] for i in order]
    n = len(seq)
    edges = [(i, i + 1) for i in range(k - 1)]
    next_leaf = k
    for i, d in enumerate(internals):
        spine_neighbors = 2 if 0 < i < k - 1 else (1 if k > 1 else 0)
        for _ in range(d - spine_neighbors):
            edges.append((i, next_leaf))
            next_leaf += 1
    return from_edge_list(edges)


def generalized_star(leg_lengths: Sequence[int]) -> Tree:
    """Star of paths: one center, legs of the given lengths.

    One or two legs degenerate to a plain path; the segment sequence of the
    result then reports the true (merged) segments, not the input lengths.
    """
    legs = tuple(leg_lengths)
    if not legs or any(type(x) is not int or x < 1 for x in legs):
        raise Infeasible(f"leg lengths {legs} must be positive integers")
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return from_edge_list(edges)


def balanced_star(n: int, m: int) -> Tree:
    """The balanced generalized star: m legs over n-1 edges, lengths differing by <= 1."""
    _check_ints(n=n, m=m)
    if not 1 <= m <= n - 1:
        raise Infeasible(f"need 1 <= m <= n-1, got n={n}, m={m}")
    q, r = divmod(n - 1, m)
    return generalized_star((q + 1,) * r + (q,) * (m - r))


def broom(n: int, delta: int) -> Tree:
    """A path with delta-2 extra leaves on one internal vertex.

    The maximizer for trees of order n with maximum degree exactly delta;
    its degree sequence is (delta, 2, ..., 2, 1, ..., 1).
    """
    _check_ints(n=n, delta=delta)
    if delta < 3:
        raise Infeasible(f"maximum degree must be >= 3, got {delta}")
    if n < delta + 1:
        raise Infeasible(f"order {n} cannot host a vertex of degree {delta}")
    return caterpillar_from_degree_sequence(_uniform_branch_sequence(n, delta, 1))


def uniform_branch_caterpillar(n: int, branch_degree: int, count: int) -> Tree:
    """A caterpillar whose degree sequence is (D, ..., D, 2, ..., 2, 1, ..., 1).

    ``count`` vertices of degree ``branch_degree`` >= 3, the rest of the
    spine degree 2. The maximizer for trees with exactly ``count`` vertices
    of maximum degree ``branch_degree`` (and, with branch_degree=3, for
    trees with exactly ``count`` vertices of maximum degree).
    """
    _check_ints(n=n, branch_degree=branch_degree, count=count)
    return caterpillar_from_degree_sequence(_uniform_branch_sequence(n, branch_degree, count))


def _uniform_branch_sequence(n: int, delta: int, k: int) -> tuple[int, ...]:
    if delta < 3:
        raise Infeasible(f"branch degree must be >= 3, got {delta}")
    if k < 1:
        raise Infeasible(f"branch count must be >= 1, got {k}")
    if n < 2 + k * (delta - 1):
        raise Infeasible(
            f"order {n} below the minimum {2 + k * (delta - 1)} for "
            f"{k} branches of degree {delta}"
        )
    twos = n - (delta - 1) * k - 2
    return (delta,) * k + (2,) * twos + (1,) * ((delta - 2) * k + 2)


# -- closed-form maxima -----------------------------------------------------------

def degree_sequence_bound(pi: Sequence[int]) -> Fraction:
    """Largest average 3-eccentricity over trees with this degree sequence.

    Attained exactly by the caterpillars of the class. Equal to
    (n*k + 2n - k)/n for largest degree >= 3 (k = internal count) and to
    n-1 for the path sequence.
    """
    seq = check_degree_sequence(pi)
    n = len(seq)
    if seq[0] < 2:
        raise InfeasibleSequence("need at least one internal vertex (degree >= 2)")
    if seq[0] == 2:
        return Fraction(n - 1)
    k = internal_count(seq)
    return Fraction(n * k + 2 * n - k, n)


def family_bound(
    family: str, n: int, *, delta: int | None = None, k: int | None = None
) -> Fraction:
    """Largest average 3-eccentricity over a named family of n-vertex trees.

    Families: ``tn`` (all trees), ``tndelta`` (maximum degree delta),
    ``tnk`` (exactly k vertices of maximum degree), ``tndeltak`` (exactly k
    vertices of maximum degree delta). Parameter ranges follow the family
    definitions; violations raise Infeasible, and so does an ``n``,
    ``delta`` or ``k`` that is not an ``int`` (a bool included).
    """
    given = {"delta": delta, "k": k}
    _check_ints(n=n, **{name: value for name, value in given.items() if value is not None})
    if family == "tn":
        if n < 3:
            raise Infeasible(f"need n >= 3, got {n}")
        return Fraction(n - 1)
    if family == "tndelta":
        if delta is None:
            raise Infeasible("tndelta needs delta")
        if not 3 <= delta <= n - 1:
            raise Infeasible(f"need 3 <= delta <= n-1, got n={n}, delta={delta}")
        return Fraction((n - 1) * (n - delta) + 2 * n, n)
    if family == "tnk":
        if k is None:
            raise Infeasible("tnk needs k")
        if n < 3 or not 1 <= k <= n - 3:
            raise Infeasible(f"need n > 2 and 1 <= k <= n-3, got n={n}, k={k}")
        if n < 2 * k + 2:
            raise Infeasible(f"order {n} below the minimum {2 * k + 2} for k={k}")
        return Fraction((n - 1) * (n - k - 2) + 2 * n, n)
    if family == "tndeltak":
        if delta is None or k is None:
            raise Infeasible("tndeltak needs delta and k")
        if n < 4:
            raise Infeasible(f"need n > 3, got {n}")
        _uniform_branch_sequence(n, delta, k)  # range checks
        return Fraction((n - 1) * (n - (delta - 2) * k - 2) + 2 * n, n)
    raise Infeasible(f"unknown family {family!r}; expected one of {FAMILIES}")


# -- majorization ------------------------------------------------------------------

def _check_non_increasing(seq: tuple[int, ...], name: str) -> None:
    if any(a < b for a, b in zip(seq, seq[1:])):
        raise UnsortedSequence(f"{name} {seq} is not sorted non-increasing")


def majorizes(x: Sequence[int], y: Sequence[int]) -> bool:
    """Prefix-sum dominance of non-increasing sequences with equal totals."""
    xs, ys = tuple(x), tuple(y)
    _check_non_increasing(xs, "x")
    _check_non_increasing(ys, "y")
    if len(xs) != len(ys):
        raise LengthMismatch(f"lengths {len(xs)} != {len(ys)}")
    if sum(xs) != sum(ys):
        raise SumMismatch(f"sums {sum(xs)} != {sum(ys)}")
    acc_x = acc_y = 0
    for a, b in zip(xs, ys):
        acc_x += a
        acc_y += b
        if acc_x < acc_y:
            return False
    return True


def compare_extremal(pi1: Sequence[int], pi2: Sequence[int]) -> int:
    """Compare class maxima of two majorization-comparable degree sequences.

    Returns -1, 0 or 1 as the maximum for ``pi1`` is below, equal to or
    above the one for ``pi2``. The dominating sequence never has the larger
    maximum, and the comparison is strict exactly when the internal-vertex
    counts differ. Both sequences need largest degree >= 3.
    """
    a = check_degree_sequence(pi1)
    b = check_degree_sequence(pi2)
    if a[0] < 3 or b[0] < 3:
        raise Infeasible("comparison defined for largest degree >= 3 on both sides")
    if not (majorizes(a, b) or majorizes(b, a)):
        raise Incomparable(f"neither of {a} and {b} majorizes the other")
    b1, b2 = degree_sequence_bound(a), degree_sequence_bound(b)
    return (b1 > b2) - (b1 < b2)
