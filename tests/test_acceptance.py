"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
All value comparisons are exact (integers and fractions); the only
tolerances here are the two wall-clock budgets, asserted as stated.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from steiner_ecc import (
    aecc3,
    balance_generalized_star,
    canonical_form,
    degree_sequence,
    ecc3_all,
    ecc3_fast,
    ecc3_via_lemma,
    ecc_k_bruteforce,
    enumerate_free_trees,
    find_pi_sites,
    find_sigma_sites,
    from_edge_list,
    from_prufer,
    is_isomorphic,
    pi_transform,
    sigma_transform,
    steiner3_halfperimeter,
    steiner_distance,
    verify,
)

from conftest import brute_aecc3, h_tree, random_trees, spider, star_tree

RANDOM_UNIVERSE_SIZE = 1000
RANDOM_UNIVERSE_SEED = 0
RANDOM_UNIVERSE_MAX_N = 60


def _report(criterion: str, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {message}")


@pytest.fixture(scope="module")
def random_universe():
    """The fixed randomized test universe: 1000 labeled trees, sizes 4..60, seed 0."""
    return random_trees(RANDOM_UNIVERSE_SIZE, RANDOM_UNIVERSE_SEED, 4, RANDOM_UNIVERSE_MAX_N)


@pytest.fixture(scope="module")
def small_trees():
    return {n: enumerate_free_trees(n) for n in range(3, 10)}


def test_criterion_01_oracle_equivalence(small_trees):
    started = time.monotonic()
    checked_vertices = 0
    for n, trees in small_trees.items():
        for t in trees:
            for v in range(n):
                want = ecc_k_bruteforce(t, v, 3)
                assert ecc3_all(t)[v] == want
                assert ecc3_fast(t, v) == want
                assert ecc3_via_lemma(t, v) == want
                checked_vertices += 1
    checked_triples = 0
    for n in range(3, 8):
        for t in small_trees[n]:
            for s in combinations(range(n), 3):
                assert steiner3_halfperimeter(t, *s) == steiner_distance(t, s)
                checked_triples += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(
        "01",
        f"ecc3_all, ecc3_fast and ecc3_via_lemma agree with brute force on "
        f"{checked_vertices} vertices (n<=9) and the half-perimeter matches the "
        f"spanning subtree on {checked_triples} triples (n<=7) in {elapsed:.1f}s",
    )


def test_criterion_02_degree_sequence_maxima():
    for n in range(3, 10):
        report = verify("thm1_1", n)
        assert report.passed, (n, [r for r in report.classes if not r.passed])
    _report("02", "per degree-sequence class, caterpillars attain the closed-form "
                  "maximum exactly, and nothing else does (n=3..9)")


def test_criterion_03_path_maximizes_overall():
    for n in range(3, 10):
        report = verify("cor3_2", n)
        assert report.passed
        (rec,) = report.classes
        assert rec.extremal_value == Fraction(n - 1)
        assert len(rec.argext) == 1
    _report("03", "the path uniquely attains the overall maximum n-1 (n=3..9)")


def test_criterion_04_family_maxima():
    for theorem in ("cor3_3", "cor3_4", "cor3_5"):
        for n in range(3, 10):
            report = verify(theorem, n)
            assert report.passed, (theorem, n,
                                   [r for r in report.classes if not r.passed])
    _report("04", "per max-degree, per max-degree-count and per (degree, count) "
                  "family, the named caterpillars attain the stated maxima (n<=9)")


def test_criterion_05_majorization_ordering():
    for theorem in ("thm3_1", "cor3_6"):
        for n in range(3, 10):
            report = verify(theorem, n)
            assert report.passed, (theorem, n)
    _report("05", "majorization orders the class maxima, strictly when internal "
                  "counts differ, and lowering the branch degree strictly raises "
                  "the family maximum (n<=9)")


def test_criterion_06_sigma_monotonicity(small_trees, random_universe):
    for n, trees in small_trees.items():
        report = verify("sigma_mono", n)
        assert report.passed, n
    checked = 0
    for t in random_universe:
        before_seq = degree_sequence(t)
        for site in find_sigma_sites(t):
            out = sigma_transform(t, site)
            assert out.aecc3_after > out.aecc3_before
            assert degree_sequence(out.after) == before_seq
            checked += 1
    assert checked > 0
    _report("06", f"every sigma move strictly increases the average and keeps the "
                  f"degree sequence: exhaustive n<=9 plus {checked} moves on "
                  f"{len(random_universe)} random trees (seed 0, n<=60)")


def test_criterion_07_pi_monotonicity(small_trees, random_universe):
    for n, trees in small_trees.items():
        report = verify("pi_mono", n)
        assert report.passed, n
    checked = 0
    for t in random_universe:
        for site in find_pi_sites(t):
            out = pi_transform(t, site)
            assert out.aecc3_after <= out.aecc3_before
            checked += 1
    assert checked > 0
    _report("07", f"no pi move ever increases the average: exhaustive n<=9 plus "
                  f"{checked} moves on {len(random_universe)} random trees "
                  f"(seed 0, n<=60)")


def test_criterion_08_segment_sequence_minima():
    for n in range(3, 10):
        report = verify("thm1_2", n)
        assert report.passed, n
        for rec in report.classes:
            assert rec.unique or rec.vacuous
    _report("08", "per segment-sequence class, the generalized star is the unique "
                  "minimizer (n=3..9)")


def test_criterion_09_segment_count_minima():
    tie_count = 0
    for n in range(3, 10):
        report = verify("thm1_3", n)
        assert report.passed, n
        tie_count += sum(len(rec.ties) for rec in report.classes)
    _report("09", f"per segment-count class, the balanced star attains the minimum "
                  f"(n=3..9); {tie_count} co-minimizers observed")


def test_criterion_10_golden_values():
    fixtures = [
        ("star on 4 vertices", star_tree(4), Fraction(11, 4)),
        ("three legs of 2", spider(2, 2, 2), Fraction(37, 7)),
        ("legs 3,2,1", spider(3, 2, 1), Fraction(38, 7)),
        ("legs 4,1,1", spider(4, 1, 1), Fraction(38, 7)),
        ("double broom", h_tree(), Fraction(32, 7)),
        ("legs 2,1,1,1,1", spider(2, 1, 1, 1, 1), Fraction(26, 7)),
    ]
    for name, t, frozen in fixtures:
        assert aecc3(t) == frozen, name
        assert brute_aecc3(t) == frozen, name
    _report("10", "all six frozen averages reproduced exactly by both the fast "
                  "path and the brute-force oracle")


def test_criterion_11_rebalancing_chain():
    chain = balance_generalized_star(spider(4, 1, 1))
    values = [chain[0].aecc3_before] + [out.aecc3_after for out in chain]
    assert values == [Fraction(38, 7), Fraction(38, 7), Fraction(37, 7)]
    assert is_isomorphic(chain[0].after, spider(3, 2, 1))
    assert is_isomorphic(chain[1].after, spider(2, 2, 2))
    _report("11", "legs 4,1,1 -> 3,2,1 -> 2,2,2 with averages 38/7 -> 38/7 -> 37/7")


def test_criterion_12_enumeration_counts():
    started = time.monotonic()
    counts = [len(enumerate_free_trees(n)) for n in range(1, 11)]
    assert counts == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
    for n in range(2, 9):
        if n == 2:
            oracle = {canonical_form(from_edge_list([(0, 1)]))}
        else:
            oracle = {
                canonical_form(from_prufer(list(code)))
                for code in product(range(n), repeat=n - 2)
            }
        assert oracle == {canonical_form(t) for t in enumerate_free_trees(n)}
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report("12", f"class counts 1,1,1,2,3,6,11,23,47,106 for n=1..10, cross-checked "
                  f"against full labeled-tree enumeration for n<=8 in {elapsed:.1f}s")
