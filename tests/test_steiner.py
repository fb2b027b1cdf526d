"""Steiner distances, 3-eccentricity routes, exact averages."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steiner_ecc import (
    BadK,
    CapExceeded,
    EmptySet,
    TooSmall,
    aecc3,
    aecc_k,
    distance,
    eccentricity,
    ecc3_all,
    ecc3_fast,
    ecc3_via_lemma,
    ecc_k_bruteforce,
    enumerate_free_trees,
    from_edge_list,
    from_prufer,
    random_tree,
    steiner3_halfperimeter,
    steiner_distance,
)

from conftest import (
    brute_aecc3,
    h_tree,
    path_tree,
    prufer_codes,
    random_trees,
    spider,
    star_tree,
    trees,
)


class TestSteinerDistance:
    def test_singleton_is_zero(self):
        assert steiner_distance(path_tree(5), [2]) == 0

    def test_full_vertex_set_spans_everything(self):
        t = spider(2, 2, 2)
        assert steiner_distance(t, range(t.order)) == t.order - 1

    def test_path_three_vertices(self):
        assert steiner_distance(path_tree(4), [0, 1, 3]) == 3

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            steiner_distance(path_tree(3), [])

    def test_pair_equals_distance(self):
        t = h_tree()
        for u in range(t.order):
            for v in range(t.order):
                if u != v:
                    assert steiner_distance(t, [u, v]) == distance(t, u, v)

    @given(trees(min_n=3, max_n=14), st.data())
    @settings(max_examples=80)
    def test_at_least_max_pairwise_distance(self, t, data):
        k = data.draw(st.integers(2, min(5, t.order)))
        s = data.draw(st.lists(st.integers(0, t.order - 1), min_size=k, max_size=k,
                               unique=True))
        d = steiner_distance(t, s)
        assert d >= max(distance(t, u, v) for u in s for v in s)


class TestHalfPerimeter:
    def test_path_example(self):
        assert steiner3_halfperimeter(path_tree(4), 0, 1, 3) == 3

    def test_degenerate_triple(self):
        assert steiner3_halfperimeter(path_tree(4), 2, 2, 2) == 0

    def test_star_three_leaves(self):
        assert steiner3_halfperimeter(star_tree(4), 1, 2, 3) == 3

    @given(trees(min_n=3, max_n=12), st.data())
    @settings(max_examples=100)
    def test_matches_steiner_distance(self, t, data):
        u = data.draw(st.integers(0, t.order - 1))
        v = data.draw(st.integers(0, t.order - 1))
        w = data.draw(st.integers(0, t.order - 1))
        assert steiner3_halfperimeter(t, u, v, w) == steiner_distance(t, {u, v, w})


class TestEccentricityRoutes:
    def test_k2_is_classical_eccentricity(self):
        t = h_tree()
        for v in range(t.order):
            assert ecc_k_bruteforce(t, v, 2) == eccentricity(t, v)

    def test_path3_all_vertices(self):
        t = path_tree(3)
        assert [ecc_k_bruteforce(t, v, 3) for v in range(3)] == [2, 2, 2]

    def test_star_center_vs_leaf(self):
        t = star_tree(4)
        assert ecc_k_bruteforce(t, 0, 3) == 2
        assert ecc_k_bruteforce(t, 1, 3) == 3

    def test_bad_k(self):
        t = path_tree(4)
        with pytest.raises(BadK):
            ecc_k_bruteforce(t, 0, 1)
        with pytest.raises(BadK):
            ecc_k_bruteforce(t, 0, 5)

    def test_bruteforce_order_cap(self):
        t = path_tree(21)
        with pytest.raises(CapExceeded):
            ecc_k_bruteforce(t, 0, 3)

    def test_spider_fast_values(self):
        t = spider(2, 2, 2)
        assert ecc3_fast(t, 0) == 4  # center
        assert ecc3_fast(t, 2) == 6  # leg tip

    def test_path_ecc3_is_whole_path(self):
        t = path_tree(6)
        assert all(ecc3_fast(t, v) == 5 for v in range(6))

    def test_lemma_route_examples(self):
        assert ecc3_via_lemma(spider(2, 2, 2), 0) == 4
        assert ecc3_via_lemma(star_tree(4), 1) == 3
        assert ecc3_via_lemma(path_tree(4), 0) == 3

    def test_small_orders_rejected(self):
        t = from_edge_list([(0, 1)])
        with pytest.raises(TooSmall):
            ecc3_fast(t, 0)
        with pytest.raises(TooSmall):
            ecc3_via_lemma(t, 0)

    @given(trees(min_n=3, max_n=14))
    @settings(max_examples=80)
    def test_three_routes_agree(self, t):
        fast = ecc3_all(t)
        for v in range(t.order):
            assert fast[v] == ecc3_fast(t, v) == ecc3_via_lemma(t, v)
            assert fast[v] == ecc_k_bruteforce(t, v, 3)

    @given(trees(min_n=4, max_n=10), st.data())
    @settings(max_examples=60)
    def test_monotone_in_k(self, t, data):
        v = data.draw(st.integers(0, t.order - 1))
        k = data.draw(st.integers(2, t.order - 1))
        assert ecc_k_bruteforce(t, v, k) <= ecc_k_bruteforce(t, v, k + 1)


class TestLinearPass:
    """ecc3_all, the production route, against the half-perimeter oracle."""

    def test_every_free_tree_up_to_order_11(self):
        for n in range(3, 12):
            for t in enumerate_free_trees(n):
                assert ecc3_all(t) == tuple(ecc3_fast(t, v) for v in range(n))

    def test_seeded_random_trees_up_to_order_150(self):
        for t in random_trees(300, 13, 3, 150):
            assert ecc3_all(t) == tuple(ecc3_fast(t, v) for v in range(t.order))

    @given(prufer_codes(min_n=3, max_n=60))
    @settings(max_examples=100)
    def test_random_pruefer_codes(self, code):
        t = from_prufer(code)
        assert ecc3_all(t) == tuple(ecc3_fast(t, v) for v in range(t.order))

    @pytest.mark.parametrize("n", [3, 4, 9, 30])
    def test_path_closed_form(self, n):
        assert ecc3_all(path_tree(n)) == (n - 1,) * n

    @pytest.mark.parametrize("n", [4, 5, 12])
    def test_star_closed_form(self, n):
        assert ecc3_all(star_tree(n)) == (2,) + (3,) * (n - 1)

    @pytest.mark.parametrize("shape", ["path", "star", "random"])
    def test_order_1e5_is_linear_and_builds_no_matrix(self, shape):
        n = 100_000
        if shape == "path":
            t, want = path_tree(n), Fraction(n - 1)
        elif shape == "star":
            t, want = star_tree(n), Fraction(3 * n - 1, n)
        else:
            t, want = random_tree(n, random.Random(0)), None
        started = time.monotonic()
        value = aecc3(t)
        assert time.monotonic() - started < 10.0
        assert t._dist is None
        assert want is None or value == want


class TestAverages:
    def test_path_average_is_order_minus_one(self):
        for n in (3, 5, 8):
            assert aecc3(path_tree(n)) == Fraction(n - 1)

    def test_star4_average(self):
        assert aecc3(star_tree(4)) == Fraction(11, 4)

    def test_spider_average(self):
        assert aecc3(spider(2, 2, 2)) == Fraction(37, 7)

    def test_small_orders_rejected(self):
        with pytest.raises(BadK):
            aecc3(from_edge_list([(0, 1)]))

    def test_aecc2_matches_bruteforce(self):
        t = h_tree()
        want = Fraction(sum(ecc_k_bruteforce(t, v, 2) for v in range(7)), 7)
        assert aecc_k(t, 2) == want

    def test_aecc4_uses_bruteforce(self):
        t = spider(2, 2, 2)
        want = Fraction(sum(ecc_k_bruteforce(t, v, 4) for v in range(7)), 7)
        assert aecc_k(t, 4) == want

    @given(trees(min_n=3, max_n=14))
    @settings(max_examples=60)
    def test_average_times_n_is_integer(self, t):
        assert (aecc3(t) * t.order).denominator == 1

    @given(trees(min_n=3, max_n=10))
    @settings(max_examples=40)
    def test_fast_average_matches_bruteforce(self, t):
        assert aecc3(t) == brute_aecc3(t)
