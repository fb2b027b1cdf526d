"""Extremal constructors, closed-form maxima, majorization."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steiner_ecc import (
    Incomparable,
    Infeasible,
    InfeasibleSequence,
    LengthMismatch,
    SumMismatch,
    aecc3,
    balanced_star,
    broom,
    caterpillar_from_degree_sequence,
    compare_extremal,
    degree_sequence,
    degree_sequence_bound,
    family_bound,
    generalized_star,
    internal_count,
    is_caterpillar,
    is_isomorphic,
    majorizes,
    segment_sequence,
    uniform_branch_caterpillar,
)
from steiner_ecc.extremal import check_degree_sequence

from conftest import brute_aecc3, path_tree, spider, star_tree


def tree_degree_partitions(n):
    """All feasible degree sequences of n-vertex trees (partitions of 2n-2 into n parts)."""
    out = []

    def rec(remaining, parts, maximum):
        slots = n - len(parts)
        if slots == 0:
            if remaining == 0:
                out.append(tuple(parts))
            return
        for d in range(min(maximum, remaining - (slots - 1)), 0, -1):
            rec(remaining - d, parts + [d], d)

    rec(2 * n - 2, [], n - 1)
    return [p for p in out if p[0] >= 2 or n == 2]


class TestCaterpillarConstructor:
    def test_all_twos_build_the_path(self):
        t = caterpillar_from_degree_sequence((2, 2, 2, 2, 1, 1))
        assert is_isomorphic(t, path_tree(6))

    def test_single_internal_vertex_builds_the_star(self):
        assert is_isomorphic(caterpillar_from_degree_sequence((3, 1, 1, 1)), star_tree(4))

    def test_realizes_requested_sequence(self):
        pi = (3, 3, 2, 1, 1, 1, 1)
        t = caterpillar_from_degree_sequence(pi)
        assert degree_sequence(t) == pi
        assert is_caterpillar(t)
        assert aecc3(t) == Fraction(32, 7)

    def test_wide_sequence_from_a_figure_eight_spine(self):
        pi = (5, 5, 3, 3, 3) + (1,) * 11
        t = caterpillar_from_degree_sequence(pi)
        assert t.order == 16
        assert degree_sequence(t) == pi

    def test_spine_order_changes_labels_not_value(self):
        pi = (4, 3, 2, 1, 1, 1, 1, 1)
        base = caterpillar_from_degree_sequence(pi)
        for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
            t = caterpillar_from_degree_sequence(pi, spine_order=order)
            assert degree_sequence(t) == pi
            assert aecc3(t) == aecc3(base)

    def test_bad_inputs(self):
        with pytest.raises(InfeasibleSequence):
            caterpillar_from_degree_sequence((3, 2, 1))  # wrong sum
        with pytest.raises(InfeasibleSequence):
            caterpillar_from_degree_sequence((1, 1))  # no internal vertex
        with pytest.raises(InfeasibleSequence):
            caterpillar_from_degree_sequence((1, 3, 1, 1))  # not sorted
        with pytest.raises(InfeasibleSequence):
            caterpillar_from_degree_sequence((3, 1, 1, 1), spine_order=(1,))


class TestStars:
    def test_balanced_star_7_3(self):
        assert is_isomorphic(balanced_star(7, 3), spider(2, 2, 2))

    def test_balanced_star_8_3(self):
        assert is_isomorphic(balanced_star(8, 3), spider(3, 2, 2))

    def test_balanced_star_legs_differ_by_at_most_one(self):
        for n in range(4, 12):
            for m in range(3, n):
                seq = segment_sequence(balanced_star(n, m))
                assert len(seq) == m
                assert seq[0] - seq[-1] <= 1

    def test_generalized_star_value(self):
        t = generalized_star((2, 1, 1, 1, 1))
        assert aecc3(t) == Fraction(26, 7)
        assert segment_sequence(t) == (2, 1, 1, 1, 1)

    def test_degenerate_leg_counts_collapse_to_paths(self):
        assert is_isomorphic(generalized_star((4,)), path_tree(5))
        assert is_isomorphic(generalized_star((3, 2)), path_tree(6))
        assert segment_sequence(generalized_star((3, 2))) == (5,)

    def test_infeasible_star_parameters(self):
        with pytest.raises(Infeasible):
            balanced_star(5, 5)  # m > n-1
        with pytest.raises(Infeasible):
            generalized_star((2, 0, 1))


class TestNamedFamilies:
    def test_broom_7_3(self):
        t = broom(7, 3)
        assert degree_sequence(t) == (3, 2, 2, 2, 1, 1, 1)
        assert aecc3(t) == Fraction(38, 7) == family_bound("tndelta", 7, delta=3)

    def test_broom_degenerates_to_star(self):
        assert is_isomorphic(broom(5, 4), star_tree(5))

    def test_uniform_branch_8_3_2(self):
        t = uniform_branch_caterpillar(8, 3, 2)
        assert degree_sequence(t) == (3, 3, 2, 2, 1, 1, 1, 1)
        assert aecc3(t) == Fraction(44, 8) == family_bound("tnk", 8, k=2)

    def test_uniform_branch_10_4_2(self):
        t = uniform_branch_caterpillar(10, 4, 2)
        assert aecc3(t) == Fraction(56, 10) == family_bound("tndeltak", 10, delta=4, k=2)

    def test_infeasible_parameters(self):
        with pytest.raises(Infeasible):
            broom(7, 2)
        with pytest.raises(Infeasible):
            broom(3, 3)
        with pytest.raises(Infeasible):
            uniform_branch_caterpillar(7, 3, 3)  # needs n >= 2 + 2k = 8
        with pytest.raises(Infeasible):
            family_bound("tnk", 7, k=3)
        with pytest.raises(Infeasible):
            family_bound("tnk", 7, k=5)  # k > n-3
        with pytest.raises(Infeasible):
            family_bound("tndelta", 7, delta=7)
        with pytest.raises(Infeasible):
            family_bound("nope", 7)


class TestClosedFormBound:
    def test_worked_values(self):
        assert degree_sequence_bound((3, 3, 2, 1, 1, 1, 1)) == Fraction(32, 7)
        assert degree_sequence_bound((3, 1, 1, 1)) == Fraction(11, 4)
        assert degree_sequence_bound((2, 2, 2, 1, 1)) == Fraction(4)

    def test_two_published_forms_agree(self):
        # (n*k + 2n - k)/n and ((n-1)*k + 2n)/n are the same number
        for n in range(4, 10):
            for pi in tree_degree_partitions(n):
                if pi[0] < 3:
                    continue
                k = internal_count(pi)
                assert degree_sequence_bound(pi) == Fraction((n - 1) * k + 2 * n, n)

    def test_bound_matches_every_caterpillar_realization(self):
        pi = (4, 3, 3, 2, 1, 1, 1, 1, 1, 1)
        want = degree_sequence_bound(pi)
        import itertools

        for order in itertools.permutations(range(4)):
            t = caterpillar_from_degree_sequence(pi, spine_order=order)
            assert aecc3(t) == want

    def test_bound_matches_bruteforce_on_a_caterpillar(self):
        pi = (3, 3, 2, 1, 1, 1, 1)
        assert brute_aecc3(caterpillar_from_degree_sequence(pi)) == degree_sequence_bound(pi)

    def test_constructor_attains_the_bound_for_every_feasible_sequence(self):
        for n in (6, 7, 8):
            for pi in tree_degree_partitions(n):
                t = caterpillar_from_degree_sequence(pi)
                assert degree_sequence(t) == pi
                assert is_caterpillar(t)
                assert aecc3(t) == degree_sequence_bound(pi)

    def test_family_values(self):
        assert family_bound("tn", 7) == Fraction(6)
        assert family_bound("tndelta", 7, delta=3) == Fraction(38, 7)
        assert family_bound("tndeltak", 10, delta=4, k=2) == Fraction(56, 10)

    @pytest.mark.parametrize("family, n, params", [
        ("tn", 5.5, {}),
        ("tn", Fraction(11, 2), {}),
        ("tn", 7.0, {}),
        ("tn", True, {}),
        ("tn", None, {}),
        ("tn", "7", {}),
        ("tndelta", 7, {"delta": 3.0}),
        ("tndelta", 7, {"delta": True}),
        ("tnk", 10, {"k": 1.5}),
        ("tnk", 10, {"k": True}),
        ("tndeltak", 10, {"delta": 4, "k": 2.0}),
        ("tndeltak", 10, {"delta": Fraction(4), "k": 2}),
        ("tndeltak", 10.0, {"delta": 4, "k": 2}),
    ])
    def test_non_integer_parameters_are_infeasible(self, family, n, params):
        with pytest.raises(Infeasible, match="must be an int"):
            family_bound(family, n, **params)


@pytest.mark.parametrize("func, args, error, message", [
    (check_degree_sequence, [(True, True)], InfeasibleSequence, "not an int"),
    (check_degree_sequence, [("a", 1)], InfeasibleSequence, "not an int"),
    (check_degree_sequence, [(2.0, 1, 1)], InfeasibleSequence, "not an int"),
    (check_degree_sequence, [(1, 1, "a")], InfeasibleSequence, "not an int"),
    (caterpillar_from_degree_sequence, [(3, 3, 1, 1, 1, 1), (True, False)],
     InfeasibleSequence, "must permute"),
    (caterpillar_from_degree_sequence, [(3, 3, 1, 1, 1, 1), ("a", 0)],
     InfeasibleSequence, "must permute"),
    (generalized_star, [(True, True)], Infeasible, "positive integers"),
    (generalized_star, [(2, "a")], Infeasible, "positive integers"),
    (balanced_star, [5, True], Infeasible, "m must be an int"),
    (balanced_star, [5.0, 2], Infeasible, "n must be an int"),
    (broom, [6, 3.0], Infeasible, "delta must be an int"),
    (broom, [True, 3], Infeasible, "n must be an int"),
    (uniform_branch_caterpillar, [8, 3, True], Infeasible, "count must be an int"),
    (uniform_branch_caterpillar, [8, "3", 1], Infeasible, "branch_degree must be an int"),
    (uniform_branch_caterpillar, [None, 3, 1], Infeasible, "n must be an int"),
])
def test_non_int_inputs_are_infeasible(func, args, error, message):
    """Every input check takes ints only, bool excluded, and raises a package error."""
    with pytest.raises(error, match=message):
        func(*args)


class TestMajorization:
    def test_known_pair(self):
        assert majorizes((3, 1, 1, 1), (2, 2, 1, 1))
        assert not majorizes((2, 2, 1, 1), (3, 1, 1, 1))

    def test_reflexive(self):
        assert majorizes((3, 2, 1, 1, 1), (3, 2, 1, 1, 1))

    def test_six_entry_pair(self):
        assert majorizes((3, 2, 2, 1, 1, 1), (2, 2, 2, 2, 1, 1))
        assert not majorizes((2, 2, 2, 2, 1, 1), (3, 2, 2, 1, 1, 1))

    def test_mismatches(self):
        with pytest.raises(LengthMismatch):
            majorizes((2, 1, 1), (1, 1, 1, 1))
        with pytest.raises(SumMismatch):
            majorizes((3, 1), (2, 1))
        with pytest.raises(ValueError):
            majorizes((1, 3), (2, 2))

    @given(st.lists(st.integers(1, 6), min_size=2, max_size=8),
           st.data())
    @settings(max_examples=80)
    def test_partial_order_laws(self, xs, data):
        xs = sorted(xs, reverse=True)
        # build comparable partners by moving one unit down the sequence
        ys = list(xs)
        i = data.draw(st.integers(0, len(ys) - 2))
        if ys[i] > ys[i + 1]:
            ys[i] -= 1
            ys[i + 1] += 1
        ys = sorted(ys, reverse=True)
        zs = list(ys)
        j = data.draw(st.integers(0, len(zs) - 2))
        if zs[j] > zs[j + 1]:
            zs[j] -= 1
            zs[j + 1] += 1
        zs = sorted(zs, reverse=True)
        assert majorizes(xs, ys) and majorizes(ys, zs)
        assert majorizes(xs, zs)  # transitivity
        if majorizes(ys, xs):
            assert xs == ys  # antisymmetry


class TestCompareExtremal:
    def test_dominating_sequence_has_smaller_maximum(self):
        # fewer internal vertices above, so a strictly smaller class maximum
        assert compare_extremal((4, 2, 1, 1, 1, 1), (3, 2, 2, 1, 1, 1)) == -1

    def test_equal_internal_counts_tie(self):
        assert compare_extremal((4, 2, 1, 1, 1, 1), (3, 3, 1, 1, 1, 1)) == 0

    def test_self_comparison(self):
        assert compare_extremal((3, 2, 1, 1, 1), (3, 2, 1, 1, 1)) == 0

    def test_incomparable_pair(self):
        with pytest.raises(Incomparable):
            compare_extremal((4, 2, 2, 2, 1, 1, 1, 1), (3, 3, 3, 1, 1, 1, 1, 1))

    def test_requires_degree_three(self):
        with pytest.raises(Infeasible):
            compare_extremal((2, 2, 1, 1), (2, 2, 1, 1))
