"""Sigma / pi moves, reduction chains, leg rebalancing."""

from __future__ import annotations

import hashlib
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings

from steiner_ecc import (
    AlreadyBalanced,
    InvalidSite,
    NotGeneralizedStar,
    PiSite,
    SigmaSite,
    aecc3,
    balance_generalized_star,
    balanced_star,
    bfs_distances,
    branch_vertices,
    broom,
    caterpillar_from_degree_sequence,
    degree_sequence,
    degree_sequence_bound,
    diametric_path,
    enumerate_free_trees,
    find_pi_sites,
    find_sigma_sites,
    format_edge_list,
    from_edge_list,
    generalized_star,
    is_caterpillar,
    is_generalized_star,
    is_isomorphic,
    pi_transform,
    random_tree,
    rebalance_step,
    reduce_to_caterpillar,
    reduce_to_generalized_star,
    segment_sequence,
    segments,
    sigma_transform,
)
from steiner_ecc import cli
from steiner_ecc.transforms import _caterpillar_reduction_site, _first_branch_segment
from steiner_ecc.tree import Tree, _validate_adjacency

from conftest import h_tree, path_tree, random_trees, spider, star_tree, trees


class TestSigmaSites:
    def test_paths_have_no_sites(self):
        assert find_sigma_sites(path_tree(7)) == []

    def test_pure_caterpillar_has_no_sites(self):
        # every off-path edge of a caterpillar is pendant
        assert find_sigma_sites(h_tree()) == []
        assert find_sigma_sites(star_tree(6)) == []

    def test_spider_has_one_site_at_the_center(self):
        t = spider(2, 2, 2)
        sites = find_sigma_sites(t)
        assert len(sites) == 1
        (site,) = sites
        assert site.attach_vertex == 0  # the center sits mid-path
        assert site.attach_index == 2
        assert t.degree(site.subtree_root) == 2

    def test_attach_index_never_passes_midpoint(self):
        t = spider(4, 3, 2)
        for site in find_sigma_sites(t):
            d = len(site.path) - 1
            assert 1 <= site.attach_index <= d // 2


    @pytest.mark.parametrize("shape", ["star", "path", "random"])
    def test_order_1e5_within_10s_builds_no_matrix(self, shape):
        n = 100_000
        if shape == "star":
            t = star_tree(n)
        elif shape == "path":
            t = path_tree(n)
        else:
            t = random_tree(n, random.Random(0))
        start = time.perf_counter()
        sites = find_sigma_sites(t)
        assert time.perf_counter() - start < 10
        assert t._dist is None
        assert (sites == []) == (shape != "random")

    def test_comb_sites_share_the_path_in_linear_memory(self):
        # A 6000-vertex spine whose inner vertices each carry a two-vertex
        # tooth: the diametric path runs tip to tip, and every other inner
        # spine vertex holds a site, half of them past the midpoint.
        spine = 6000
        edges = [(v, v + 1) for v in range(spine - 1)]
        nxt = spine
        for v in range(1, spine - 1):
            edges += [(v, nxt), (nxt, nxt + 1)]
            nxt += 2
        t = from_edge_list(edges)
        assert t.order == 17_996
        tracemalloc.start()
        try:
            sites = find_sigma_sites(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sites) == 5_996
        p = diametric_path(t)
        assert {site.path for site in sites} == {p, p[::-1]}
        assert len({id(site.path) for site in sites}) == 2
        assert peak < 20 * 2**20


class TestSigmaTransform:
    def test_spider_becomes_lopsided(self):
        t = spider(2, 2, 2)
        out = sigma_transform(t, find_sigma_sites(t)[0])
        assert is_isomorphic(out.after, spider(3, 2, 1))
        assert out.aecc3_before == Fraction(37, 7)
        assert out.aecc3_after == Fraction(38, 7)

    def test_degree_sequence_preserved(self):
        t = spider(2, 2, 2)
        out = sigma_transform(t, find_sigma_sites(t)[0])
        assert degree_sequence(out.after) == degree_sequence(t) == (3, 2, 2, 2, 1, 1, 1)

    def test_fabricated_site_on_caterpillar_rejected(self):
        t = h_tree()
        p = diametric_path(t)
        off = next(v for v in range(t.order) if v not in p)
        k = next(i for i, v in enumerate(p) if off in t.adjacency[v])
        with pytest.raises(InvalidSite):
            sigma_transform(t, SigmaSite(p, k, off))  # pendant edge: nothing behind it

    def test_non_diametric_path_rejected(self):
        t = spider(2, 2, 2)
        with pytest.raises(InvalidSite):
            sigma_transform(t, SigmaSite((2, 1, 0, 3), 1, 5))

    def test_site_from_another_tree_rejected(self):
        site = find_sigma_sites(spider(2, 2, 2))[0]
        with pytest.raises(InvalidSite):
            sigma_transform(spider(3, 3, 2), site)


class TestReduceToCaterpillar:
    def test_caterpillar_is_fixed_point(self):
        assert reduce_to_caterpillar(h_tree()) == []
        assert reduce_to_caterpillar(path_tree(6)) == []

    def test_spider_reduces_in_one_step(self):
        chain = reduce_to_caterpillar(spider(2, 2, 2))
        assert len(chain) == 1
        assert is_caterpillar(chain[-1].after)

    @given(trees(min_n=5, max_n=20))
    @settings(max_examples=60, deadline=None)
    def test_chain_ends_at_caterpillar_with_the_class_maximum(self, t):
        chain = reduce_to_caterpillar(t)
        final = chain[-1].after if chain else t
        assert is_caterpillar(final)
        assert degree_sequence(final) == degree_sequence(t)
        assert aecc3(final) == degree_sequence_bound(degree_sequence(t))
        for out in chain:
            assert out.aecc3_after > out.aecc3_before

    @staticmethod
    def _site_from_every_site(t):
        """The chain's site as derived from the full site list: smallest root, midpoint flipped."""
        site = min(find_sigma_sites(t), key=lambda s: s.subtree_root, default=None)
        if site is not None and 2 * site.attach_index == len(site.path) - 1:
            site = SigmaSite(site.path[::-1], site.attach_index, site.subtree_root)
        return site

    @pytest.mark.parametrize("n", range(1, 11))
    def test_reduction_site_matches_the_site_list_on_every_free_tree(self, n):
        for t in enumerate_free_trees(n):
            assert _caterpillar_reduction_site(t) == self._site_from_every_site(t)

    def test_reduction_site_matches_the_site_list_along_chains(self):
        for t in random_trees(20, 31, 10, 120):
            for out in reduce_to_caterpillar(t):
                assert out.site == self._site_from_every_site(out.before)

    def test_order_1000_within_15s_builds_no_matrix(self):
        t = random_tree(1000, random.Random(4))
        start = time.perf_counter()
        chain = reduce_to_caterpillar(t)
        assert time.perf_counter() - start < 15
        assert chain and is_caterpillar(chain[-1].after)
        assert all(tree._dist is None for tree in [t] + [out.after for out in chain])


class TestClaimsAtScale:
    """The paper's main claims on seeded random trees of order 10^3 and 10^4.

    Each tree is checked against the Theorem 1.1 and 1.2 extremes, and
    against a few sigma and pi moves at sites drawn by index.
    """

    CASES = [(1000, seed) for seed in range(5)] + [(10000, seed) for seed in range(4)]

    @pytest.mark.parametrize("n, seed", CASES)
    def test_claims(self, n, seed):
        rng = random.Random(seed)
        t = random_tree(n, rng)
        avg = aecc3(t)
        # Theorem 1.1: the degree-sequence bound holds, and caterpillars attain it.
        ds = degree_sequence(t)
        bound = degree_sequence_bound(ds)
        assert avg <= bound
        assert aecc3(caterpillar_from_degree_sequence(ds)) == bound
        # Theorem 1.2: the generalized star on the segment sequence is no higher.
        assert avg >= aecc3(generalized_star(segment_sequence(t)))
        sigma_sites = find_sigma_sites(t)
        assert sigma_sites
        for site in rng.sample(sigma_sites, min(3, len(sigma_sites))):
            out = sigma_transform(t, site)
            assert out.aecc3_before == avg < out.aecc3_after
        pi_sites = find_pi_sites(t)
        for i in rng.sample(range(len(pi_sites)), 3):
            out = pi_transform(t, pi_sites[i])
            assert out.aecc3_after <= out.aecc3_before == avg


class TestPiTransform:
    def test_h_tree_collapses_to_star(self):
        t = h_tree()
        site = PiSite((0, 1, 2))  # the segment joining the branch vertices
        out = pi_transform(t, site)
        assert is_isomorphic(out.after, spider(2, 1, 1, 1, 1))
        assert out.aecc3_before == Fraction(32, 7)
        assert out.aecc3_after == Fraction(26, 7)

    def test_leaf_donor_moves_nothing(self):
        t = path_tree(5)
        out = pi_transform(t, PiSite((0, 1, 2)))
        assert out.after is t
        assert out.delta == 0

    def test_wrong_orientation_rejected(self):
        # spider(3, 1) is the path 3-2-1-0-4; behind vertex 1 lies a depth-2
        # component while behind vertex 4 lies nothing, so 1 cannot donate to 4.
        t = spider(3, 1)
        with pytest.raises(InvalidSite):
            pi_transform(t, PiSite((1, 0, 4)))

    def test_interior_must_have_degree_two(self):
        t = spider(1, 1, 1)
        with pytest.raises(InvalidSite):
            pi_transform(t, PiSite((1, 0, 2)))

    def test_interior_subpath_of_a_path_loses_a_branch(self):
        # both end components non-trivial: the move genuinely reshapes the tree
        t = path_tree(5)
        out = pi_transform(t, PiSite((1, 2, 3)))
        assert is_isomorphic(out.after, spider(2, 1, 1))
        assert out.aecc3_after <= out.aecc3_before

    @given(trees(min_n=3, max_n=16))
    @settings(max_examples=60, deadline=None)
    def test_every_site_is_non_increasing(self, t):
        for site in find_pi_sites(t):
            out = pi_transform(t, site)
            assert out.aecc3_after <= out.aecc3_before
            assert out.after.order == t.order


class TestReduceToGeneralizedStar:
    def test_h_tree_one_step(self):
        chain = reduce_to_generalized_star(h_tree())
        assert len(chain) == 1
        assert is_isomorphic(chain[-1].after, spider(2, 1, 1, 1, 1))
        assert segment_sequence(chain[-1].after) == (2, 1, 1, 1, 1)

    def test_generalized_star_is_fixed_point(self):
        assert reduce_to_generalized_star(spider(3, 2, 1)) == []
        assert reduce_to_generalized_star(path_tree(5)) == []

    @given(trees(min_n=5, max_n=20))
    @settings(max_examples=60, deadline=None)
    def test_chain_preserves_segments_and_never_increases(self, t):
        seq = segment_sequence(t)
        chain = reduce_to_generalized_star(t)
        final = chain[-1].after if chain else t
        assert is_generalized_star(final)
        for out in chain:
            assert segment_sequence(out.after) == seq
            assert out.aecc3_after <= out.aecc3_before
        if chain and not is_generalized_star(t):
            assert chain[-1].aecc3_after < chain[-1].aecc3_before

    @given(trees(min_n=5, max_n=20))
    @settings(max_examples=40, deadline=None)
    def test_non_star_input_strictly_drops_overall(self, t):
        if is_generalized_star(t):
            return
        chain = reduce_to_generalized_star(t)
        assert aecc3(chain[-1].after) < aecc3(t)


class TestRebalance:
    def test_case_with_tied_short_legs_keeps_the_average(self):
        out = rebalance_step(spider(4, 1, 1))
        assert is_isomorphic(out.after, spider(3, 2, 1))
        assert (out.aecc3_before, out.aecc3_after) == (Fraction(38, 7), Fraction(38, 7))

    def test_strictly_decreasing_case(self):
        out = rebalance_step(spider(3, 2, 1))
        assert is_isomorphic(out.after, spider(2, 2, 2))
        assert (out.aecc3_before, out.aecc3_after) == (Fraction(38, 7), Fraction(37, 7))

    def test_balanced_star_rejected(self):
        with pytest.raises(AlreadyBalanced):
            rebalance_step(spider(2, 2, 2))
        with pytest.raises(AlreadyBalanced):
            rebalance_step(path_tree(6))

    def test_two_branch_vertices_rejected(self):
        with pytest.raises(NotGeneralizedStar):
            rebalance_step(h_tree())
        with pytest.raises(NotGeneralizedStar):
            balance_generalized_star(h_tree())

    def test_full_chain_from_long_leg(self):
        chain = balance_generalized_star(spider(4, 1, 1))
        assert [str(o.aecc3_after) for o in chain] == ["38/7", "37/7"]
        assert is_isomorphic(chain[-1].after, spider(2, 2, 2))

    def test_balanced_input_yields_empty_chain(self):
        assert balance_generalized_star(balanced_star(9, 4)) == []
        assert balance_generalized_star(path_tree(7)) == []

    def test_eight_vertex_chain(self):
        chain = balance_generalized_star(spider(4, 2, 1))
        assert is_isomorphic(chain[-1].after, spider(3, 2, 2))
        assert is_isomorphic(chain[-1].after, balanced_star(8, 3))

    def test_segment_count_preserved(self):
        for out in balance_generalized_star(spider(6, 1, 1, 1)):
            assert len(segment_sequence(out.after)) == 4


# SHA-256 of ``transform MODE --format json`` for the five modes below, in
# order: exit code, stdout and stderr of each run.
GOLDEN_MODES = ("sigma", "pi", "sigma-reduce", "star-reduce", "balance")
GOLDEN_TRANSFORMS = {
    "random 9 seed 1": "e8ced4f6571bcae53f758dbce256cb09eda9d3a440163533688f043f27bcec84",
    "random 9 seed 2": "89aa44a0b93d94493686c291473c27830dda1beef47e5f898bb5e15deaa6f352",
    "random 12 seed 1": "65340a8105655a4dd122e0928a52baad5182be9f7e7c7a846e585322c7602c5a",
    "random 12 seed 2": "6c4f7ccd1a96f59bea5c47a03f5befe348eb5130e16252fceca8b42e54a39936",
    "random 30 seed 1": "fec0a1f151a808feb2e916f94f58cf27f97717498f7efd069be0bde18a030713",
    "random 30 seed 2": "0dbeefacb2d65ed04487ee86d4776415b0daa64849918c3fb66f242f54ab86aa",
    "random 60 seed 1": "d029293a7007b8e65b732e85a506799d8109b6da943e3a91ed849899beafaee6",
    "random 60 seed 2": "336adf8313fc746b2b485cc1de54b41c90ceb1cc38cf2d978a872c3ac2effb95",
    "broom 40 5": "31c1b642c53d09b1a1958e420885605abc2075977662c230de7cb9b2dc347eb3",
}

# SHA-256 over the three chains (sigma, pi, then balance from the pi chain's
# end) on ``random_trees(50, 3, 4, 60)``: each step's after-tree adjacency,
# description and both averages.
GOLDEN_CHAINS = "d4263c0c56b1a47138129d053cc02c6fc12eaefe775a8f1af860d6d1baaa2885"


def _transform_args(label, tmp_path):
    kind, n, *rest = label.split()
    if kind == "broom":
        path = tmp_path / "broom.txt"
        path.write_text(format_edge_list(broom(int(n), int(rest[0]))))
        return ["--input", str(path)]
    return ["--random", n, "--seed", rest[1]]


class TestGoldenSurgeries:
    """The bytes of every transform mode and the steps of every chain are pinned."""

    @pytest.mark.parametrize("label", sorted(GOLDEN_TRANSFORMS))
    def test_transform_json(self, label, tmp_path, capsys):
        args = _transform_args(label, tmp_path)
        h = hashlib.sha256()
        for mode in GOLDEN_MODES:
            code = cli.main(["transform", mode, *args, "--format", "json"])
            captured = capsys.readouterr()
            h.update(f"{code}\n".encode())
            h.update(captured.out.encode())
            h.update(captured.err.encode())
        assert h.hexdigest() == GOLDEN_TRANSFORMS[label]

    def test_chains_on_random_trees(self):
        h = hashlib.sha256()
        for t in random_trees(50, 3, 4, 60):
            to_star = reduce_to_generalized_star(t)
            star = to_star[-1].after if to_star else t
            for chain in (reduce_to_caterpillar(t), to_star, balance_generalized_star(star)):
                h.update(b"chain\n")
                for out in chain:
                    h.update(repr((out.after.adjacency, out.description,
                                   str(out.aecc3_before), str(out.aecc3_after))).encode())
        assert h.hexdigest() == GOLDEN_CHAINS


def _pi_sites_by_definition(t):
    """Every subpath of every segment, oriented by both side eccentricities."""
    if t.order < 3:
        return []
    sites = []
    for seg in segments(t):
        for i in range(len(seg) - 1):
            for j in range(i + 1, len(seg)):
                sub = seg[i : j + 1]
                e_start = max(bfs_distances(t, sub[0], skip_edge=(sub[0], sub[1])))
                e_end = max(bfs_distances(t, sub[-1], skip_edge=(sub[-1], sub[-2])))
                if e_end >= e_start:
                    sites.append(PiSite(sub))
                if e_start >= e_end:
                    sites.append(PiSite(sub[::-1]))
    return sites


class TestPiSiteOracle:
    """``find_pi_sites`` equals the by-definition scan, site for site and in order."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_free_tree(self, n):
        for t in enumerate_free_trees(n):
            assert find_pi_sites(t) == _pi_sites_by_definition(t)

    def test_random_trees(self):
        for t in random_trees(50, 11, 2, 40):
            assert find_pi_sites(t) == _pi_sites_by_definition(t)

    @pytest.mark.parametrize("delta", [3, 4, 5])
    def test_brooms(self, delta):
        t = broom(30, delta)
        assert find_pi_sites(t) == _pi_sites_by_definition(t)


def _pi_site_inputs():
    trees_ = [t for n in range(1, 10) for t in enumerate_free_trees(n)]
    return trees_ + random_trees(50, 11, 2, 40) + [broom(30, delta) for delta in (3, 4, 5)]


class TestPiSiteSequence:
    """``find_pi_sites`` reads like the by-definition list: length, truth, indexes, slices."""

    def test_reads_like_the_list(self):
        for t in _pi_site_inputs():
            expected = _pi_sites_by_definition(t)
            sites = find_pi_sites(t)
            n = len(expected)
            assert len(sites) == n
            assert bool(sites) == bool(expected)
            assert [sites[k] for k in range(n)] == expected
            assert [sites[k] for k in range(-n, 0)] == expected
            for cut in (slice(None), slice(3), slice(-5, None), slice(1, None, 3),
                        slice(None, None, -2), slice(n, None), slice(4, 2)):
                assert sites[cut] == expected[cut]
            assert list(sites) == expected
            for k in (n, -n - 1):
                with pytest.raises(IndexError):
                    sites[k]

    def test_path_of_order_1e5_in_linear_memory(self):
        m = 100_000
        t = path_tree(m)
        aecc3(t)  # fills the cached rooted pass, so the peak is the sequence's own
        tracemalloc.start()
        try:
            sites = find_pi_sites(t)
            assert len(sites) == m * (m - 1) // 2 + m // 2 == 5_000_000_000
            assert sites[0].path == (0, 1)
            assert sites[-1].path == (m - 1, m - 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def _branch_segment_by_min(t):
    """The segment the pi chain moves, by filtering and sorting every segment."""
    branches = set(branch_vertices(t))
    if len(branches) <= 1:
        return None
    return min(
        (s for s in segments(t) if s[0] in branches and s[-1] in branches),
        key=lambda s: (s[0], s[-1]),
    )


class TestPiChainSegment:
    """The pi chain walks to the same segment that the minimum over all segments picks."""

    def test_every_step_of_every_chain(self):
        inputs = [t for n in range(1, 11) for t in enumerate_free_trees(n)]
        inputs += random_trees(60, 5, 3, 150)
        for t in inputs:
            for cur in [t] + [out.after for out in reduce_to_generalized_star(t)]:
                assert _first_branch_segment(cur) == _branch_segment_by_min(cur)


class TestSurgeryBuilds:
    """Every tree a surgery builds unvalidated passes the full validation."""

    def test_every_move_builds_a_tree(self, monkeypatch):
        inputs = [t for n in range(3, 11) for t in enumerate_free_trees(n)]
        inputs += random_trees(50, 3, 4, 60)
        # Moved trees are built without validation; validate each one here.
        trusted = Tree._trusted
        built = []

        def validating(adj):
            _validate_adjacency(adj)
            built.append(len(adj))
            return trusted(adj)

        monkeypatch.setattr(Tree, "_trusted", staticmethod(validating))
        outcomes = []
        for t in inputs:
            to_star = reduce_to_generalized_star(t)
            star = to_star[-1].after if to_star else t
            outcomes += reduce_to_caterpillar(t) + to_star + balance_generalized_star(star)
            outcomes += [sigma_transform(t, site) for site in find_sigma_sites(t)]
            outcomes += [pi_transform(t, site) for site in find_pi_sites(t)]
        changed = [out for out in outcomes if out.after != out.before]
        assert changed
        assert len(built) == len(changed)
