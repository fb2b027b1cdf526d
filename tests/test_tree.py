"""Tree model: construction, codecs, distances, structure, canonical form."""

from __future__ import annotations

import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steiner_ecc import (
    BadCode,
    BadVertexIds,
    HasCycle,
    NotConnected,
    ParseError,
    SteinerEccError,
    TooSmall,
    Tree,
    aecc_k,
    bfs_distances,
    broom,
    canonical_form,
    center,
    degree_sequence,
    diameter,
    diametric_path,
    distance,
    distance_to_path,
    ecc3_all,
    ecc3_via_lemma,
    eccentricity,
    enumerate_free_trees,
    format_edge_list,
    format_prufer,
    from_edge_list,
    from_prufer,
    is_caterpillar,
    is_generalized_star,
    is_isomorphic,
    is_path,
    parse_edge_list_text,
    parse_prufer_text,
    path_eccentricity,
    radius,
    random_tree,
    segment_sequence,
    segments,
    to_prufer,
    tree_path,
)
from steiner_ecc.errors import BadAdjacency
from steiner_ecc.tree import _height_away, _rooted_pass, _validate_adjacency, check_path

from conftest import (
    h_tree,
    path_tree,
    prufer_codes,
    random_trees,
    relabel,
    spider,
    star_tree,
    trees,
)


def to_nx(t):
    g = nx.Graph()
    g.add_nodes_from(range(t.order))
    g.add_edges_from(t.edges())
    return g


class TestConstruction:
    def test_single_edge(self):
        t = from_edge_list([(0, 1)])
        assert t.order == 2
        assert t.edges() == [(0, 1)]

    def test_triangle_rejected(self):
        with pytest.raises(HasCycle):
            from_edge_list([(0, 1), (1, 2), (2, 0)])

    def test_forest_rejected(self):
        with pytest.raises(NotConnected):
            from_edge_list([(0, 1), (2, 3)])

    def test_missing_vertex_id_is_disconnected(self):
        # ids must cover 0..n-1; skipping 1 leaves it isolated
        with pytest.raises(NotConnected):
            from_edge_list([(0, 2), (2, 3)])

    def test_negative_id_rejected(self):
        with pytest.raises(BadVertexIds):
            from_edge_list([(-1, 0)])

    def test_bool_id_rejected(self):
        # A stored True would be written as "True", which the text codec rejects.
        with pytest.raises(BadVertexIds):
            from_edge_list([(False, True), (True, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(HasCycle):
            from_edge_list([(0, 0), (0, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(HasCycle):
            from_edge_list([(0, 1), (1, 0), (1, 2)])

    def test_empty_edge_list_is_single_vertex(self):
        assert from_edge_list([]).order == 1

    def test_trees_hash_by_labeled_structure(self):
        assert from_edge_list([(0, 1)]) == from_edge_list([(1, 0)])
        assert hash(path_tree(4)) == hash(path_tree(4))

    # These edge lists have n - 1 edges, so they pass the count check and
    # reach the validator.
    def test_self_loop_with_right_edge_count_rejected(self):
        with pytest.raises(HasCycle):
            from_edge_list([(0, 0), (1, 2)])

    def test_duplicate_edge_with_right_edge_count_rejected(self):
        with pytest.raises(HasCycle):
            from_edge_list([(0, 1), (0, 1), (2, 3)])


class TestValidator:
    def test_valid_adjacency_builds(self):
        assert Tree(((1, 2), (0,), (0,))) == star_tree(3)

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(BadAdjacency):
            Tree(((1,), ()))

    def test_unsorted_neighbors_rejected(self):
        with pytest.raises(BadAdjacency):
            Tree(((2, 1), (0,), (0,)))

    def test_out_of_range_neighbor_rejected(self):
        with pytest.raises(BadVertexIds):
            Tree(((5,), (0,)))

    def test_bool_neighbor_rejected(self):
        with pytest.raises(BadVertexIds):
            Tree(((True,), (0,)))

    def test_check_vertex_rejects_bool(self):
        with pytest.raises(BadVertexIds):
            path_tree(3).check_vertex(True)

    def test_empty_adjacency_rejected(self):
        with pytest.raises(BadVertexIds):
            Tree(())


# A star validates in linear time; a quadratic validator needs about a
# minute on the star.
LARGE_N = 10**5


class TestLargeInputs:
    @pytest.mark.parametrize("shape", ["star", "path", "random"])
    def test_build_and_prufer_round_trip_within_10s(self, shape):
        start = time.perf_counter()
        if shape == "star":
            t = from_edge_list([(0, i) for i in range(1, LARGE_N)])
        elif shape == "path":
            t = from_edge_list([(i, i + 1) for i in range(LARGE_N - 1)])
        else:
            t = random_tree(LARGE_N, random.Random(0))
        assert from_prufer(to_prufer(t)) == t
        assert t.order == LARGE_N
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("shape", ["star", "path", "random"])
    def test_diametric_path_within_10s_builds_no_matrix(self, shape):
        if shape == "star":
            t = star_tree(LARGE_N)
        elif shape == "path":
            t = path_tree(LARGE_N)
        else:
            t = random_tree(LARGE_N, random.Random(0))
        start = time.perf_counter()
        p = diametric_path(t)
        assert time.perf_counter() - start < 10
        assert t._dist is None
        assert check_path(t, p) == p
        assert len(p) - 1 == max(bfs_distances(t, p[0])) == max(bfs_distances(t, p[-1]))

    @pytest.mark.parametrize("shape", ["star", "path", "random"])
    def test_distance_queries_within_10s_build_no_matrix(self, shape):
        if shape == "star":
            t = star_tree(LARGE_N)
        elif shape == "path":
            t = path_tree(LARGE_N)
        else:
            t = random_tree(LARGE_N, random.Random(0))
        last = LARGE_N - 1
        start = time.perf_counter()
        p = diametric_path(t)
        got = (eccentricity(t, 0), distance(t, 0, last), distance_to_path(t, last, p),
               path_eccentricity(t, p), aecc_k(t, 2))
        # At the star's centre every leaf is a farthest end, and the lemma
        # route tries each one.
        lemma = None if shape == "star" else ecc3_via_lemma(t, 0)
        assert time.perf_counter() - start < 10
        assert t._dist is None
        if shape == "star":
            assert got == (1, 1, 1, 1, Fraction(2 * last + 1, LARGE_N))
        elif shape == "path":
            assert got == (last, last, 0, 0, Fraction(sum(max(v, last - v) for v in range(LARGE_N)), LARGE_N))
            assert lemma == last
        else:
            row = bfs_distances(t, 0)
            assert got[:2] == (max(row), row[last])
            assert lemma == ecc3_all(t)[0]


class TestPrufer:
    def test_empty_code_is_single_edge(self):
        assert from_prufer([]).edges() == [(0, 1)]

    def test_code_00_is_star_with_center_0(self):
        t = from_prufer([0, 0])
        assert t.edges() == [(0, 1), (0, 2), (0, 3)]

    def test_out_of_range_entry(self):
        with pytest.raises(BadCode):
            from_prufer([0, 4])

    def test_round_trip_all_codes_n4(self):
        for code in product(range(4), repeat=2):
            assert to_prufer(from_prufer(list(code))) == code

    def test_encode_needs_two_vertices(self):
        with pytest.raises(TooSmall):
            to_prufer(from_edge_list([]))

    @given(prufer_codes())
    def test_round_trip_random(self, code):
        assert list(to_prufer(from_prufer(code))) == code

    @pytest.mark.parametrize("code", [[-1], [0, 1.0], ["0"], [None, 0], [True]])
    def test_negative_or_non_integer_entry(self, code):
        with pytest.raises(BadCode):
            from_prufer(code)

    def test_decodes_of_all_order_7_codes_are_trees(self):
        # from_prufer builds without validation; every decode must pass it.
        for code in product(range(7), repeat=5):
            t = from_prufer(code)
            _validate_adjacency(t.adjacency)
            assert from_edge_list(t.edges()) == t

    def test_decodes_of_seeded_codes_up_to_order_10_4_are_trees(self):
        rng = random.Random(7)
        sizes = [2, 3, 10**4] + [rng.randint(2, 10**4) for _ in range(6)]
        for n in sizes:
            for code in ([rng.randrange(n) for _ in range(n - 2)], [0] * (n - 2)):
                t = from_prufer(code)
                _validate_adjacency(t.adjacency)
                assert from_edge_list(t.edges()) == t
                assert t.order == n

    def test_order_2_has_one_adjacency_from_every_entry_point(self):
        rng = random.Random(3)
        state = rng.getstate()
        assert random_tree(2, rng).adjacency == ((1,), (0,))
        assert rng.getstate() == state
        assert parse_prufer_text("").adjacency == ((1,), (0,))
        assert from_prufer([]).adjacency == ((1,), (0,))


class TestDistances:
    def test_path_endpoints(self):
        assert distance(path_tree(4), 0, 3) == 3

    def test_distance_to_self(self):
        assert distance(star_tree(5), 2, 2) == 0

    def test_star_leaf_to_leaf(self):
        assert distance(star_tree(4), 1, 3) == 2

    def test_path5_center(self):
        t = path_tree(5)
        assert eccentricity(t, 2) == 2
        assert diameter(t) == 4
        assert radius(t) == 2

    def test_star_diameter_radius(self):
        t = star_tree(4)
        assert diameter(t) == 2
        assert radius(t) == 1

    def test_spider_diametric_path_joins_two_leg_tips(self):
        t = spider(2, 2, 2)
        p = diametric_path(t)
        assert diameter(t) == 4
        assert len(p) == 5
        assert t.degree(p[0]) == 1 and t.degree(p[-1]) == 1

    def test_diametric_path_deterministic_tie_break(self):
        t = star_tree(4)  # three diametric leaf pairs; smallest sequence wins
        assert diametric_path(t) == (1, 0, 2)

    @given(trees(max_n=16))
    @settings(max_examples=60)
    def test_distances_match_networkx(self, t):
        g = to_nx(t)
        lengths = dict(nx.all_pairs_shortest_path_length(g))
        for u in range(t.order):
            for v in range(t.order):
                assert distance(t, u, v) == lengths[u][v]

    @given(trees(max_n=20), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_triangle_equality_along_tree_paths(self, t, rnd):
        u = rnd.randrange(t.order)
        w = rnd.randrange(t.order)
        p = tree_path(t, u, w)
        x = rnd.choice(p)
        assert distance(t, u, w) == distance(t, u, x) + distance(t, x, w)

    @given(trees(max_n=20))
    @settings(max_examples=60)
    def test_diameter_radius_relation(self, t):
        assert len(diametric_path(t)) - 1 == diameter(t)
        assert radius(t) <= diameter(t) <= 2 * radius(t)

    @pytest.mark.parametrize("shape", ["star", "path", "random"])
    def test_matrix_rows_match_bfs_at_order_200(self, shape):
        if shape == "random":
            t = random_tree(200, random.Random(1))
        else:
            t = star_tree(200) if shape == "star" else path_tree(200)
        matrix = t.distance_matrix()
        assert matrix.shape == (200, 200) and matrix.flags.c_contiguous
        assert not matrix.flags.writeable
        for v in range(200):
            assert matrix[v].tolist() == bfs_distances(t, v)

    def test_bfs_skip_edge_confines_to_component(self):
        t = path_tree(5)
        d = bfs_distances(t, 1, skip_edge=(1, 2))
        assert d == [1, 0, -1, -1, -1]
        assert bfs_distances(t, 3, skip_edge=(2, 1)) == [-1, -1, 1, 0, 1]

    @pytest.mark.parametrize("pair", [(0, 2), (2, 0), (1, 1), (-1, 0), (0, -1), (4, 5), (99, 0)])
    def test_bfs_skip_of_a_non_edge_changes_nothing(self, pair):
        t = path_tree(5)
        for v in range(5):
            assert bfs_distances(t, v, skip_edge=pair) == bfs_distances(t, v)


class TestMatrixFreeQueries:
    """Distance and eccentricity queries equal their definitions on BFS rows.

    ``distance`` and ``aecc_k(t, 2)`` are also checked against the matrix.
    """

    @staticmethod
    def _check(t, vertices):
        n = t.order
        rows = [bfs_distances(t, u) for u in range(n)]
        ecc = [max(row) for row in rows]
        matrix = t.distance_matrix()
        assert [eccentricity(t, v) for v in range(n)] == ecc
        for u in vertices:
            for v in vertices:
                assert distance(t, u, v) == rows[u][v] == matrix[u, v]
        if n >= 2:
            assert aecc_k(t, 2) == Fraction(sum(ecc), n) == Fraction(int(matrix.max(axis=1).sum()), n)
        for a in vertices:
            for b in vertices:
                p = tree_path(t, a, b)
                near = [min(row[x] for x in p) for row in rows]
                assert [distance_to_path(t, u, p) for u in vertices] == [near[u] for u in vertices]
                assert path_eccentricity(t, p) == max(near)
        if n >= 3:
            for v in vertices:
                # The lemma: the longest paths from v, each plus its eccentricity.
                paths = [tree_path(t, v, x) for x in range(n) if rows[v][x] == ecc[v]]
                lemma = ecc[v] + max(max(min(row[y] for y in p) for row in rows) for p in paths)
                assert ecc3_via_lemma(t, v) == lemma

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_free_tree(self, n):
        for t in enumerate_free_trees(n):
            self._check(t, range(n))

    def test_random_trees(self):
        rng = random.Random(23)
        for t in random_trees(300, 21, 2, 200):
            self._check(t, rng.sample(range(t.order), min(3, t.order)))


def _diametric_path_by_definition(t):
    """The lexicographically smallest longest path with its smaller end first, by scanning all pairs."""
    rows = [bfs_distances(t, u) for u in range(t.order)]
    d = max(map(max, rows))
    # v starts at u so that the one-vertex tree yields (0,); with d > 0 no u-u pair matches.
    return min(tree_path(t, u, v) for u in range(t.order) for v in range(u, t.order)
               if rows[u][v] == d)


class TestDiametricPathOracle:
    """``diametric_path`` equals the all-pairs scan, ties included."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_free_tree(self, n):
        for t in enumerate_free_trees(n):
            assert diametric_path(t) == _diametric_path_by_definition(t)

    def test_random_trees(self):
        for t in random_trees(300, 17, 2, 200):
            assert diametric_path(t) == _diametric_path_by_definition(t)

    def test_tie_heavy_shapes(self):
        shapes = [star_tree(n) for n in (2, 3, 4, 9, 30)]
        shapes += [spider(*legs) for legs in ((2, 2), (1,) * 5, (2, 2, 2), (3, 3, 1, 1),
                                              (4,) * 4, (5, 3, 3, 2), (1, 3, 2, 3, 1))]
        shapes += [broom(n, delta) for n, delta in ((6, 3), (12, 5), (20, 3), (30, 10), (40, 39))]
        for t in shapes:
            assert diametric_path(t) == _diametric_path_by_definition(t)


class TestEndHeights:
    """The height of x away from neighbour y, read off the rooted pass, equals the skip-edge BFS."""

    @staticmethod
    def _check(t):
        for x in range(t.order):
            for y in t.adjacency[x]:
                assert _height_away(t, x, y) == max(bfs_distances(t, x, skip_edge=(x, y)))

    @pytest.mark.parametrize("n", range(2, 10))
    def test_every_free_tree(self, n):
        for t in enumerate_free_trees(n):
            self._check(t)

    def test_random_trees(self):
        for t in random_trees(100, 19, 2, 80):
            self._check(t)


def _rooted_pass_general(t):
    """``tree._rooted_pass`` before leaves and degree-2 vertices had their own branches.

    Every vertex takes the general loop, and nothing is cached.
    """
    adj = t.adjacency
    n = len(adj)
    parent = [-1] * n
    parent[0] = 0  # the root is its own parent: visited, and no neighbour of itself
    order = [0]
    for u in order:
        for c in adj[u]:
            if parent[c] == -1:
                parent[c] = u
                order.append(c)
    down = [0] * n
    g = [0] * n
    for u in reversed(order):
        p = parent[u]
        b1 = b2 = 0
        gc = -1  # the best g over u's children; a leaf has none
        for c in adj[u]:
            if c != p:
                x = down[c] + 1
                if x > b1:
                    b1, b2 = x, b1
                elif x > b2:
                    b2 = x
                if g[c] > gc:
                    gc = g[c]
        down[u] = b1
        g[u] = max(b1 + b2, gc + 1)
    uplen = [0] * n
    upval = [0] * n
    ecc = [0] * n
    for u in order:
        p = parent[u]
        # Top-3 branch lengths at u, the up branch included, with the
        # neighbours of the top two; top-2 of g + 1 over u's children.
        l1, i1 = uplen[u], p
        l2 = l3 = h1 = h2 = 0
        i2 = j1 = -1
        for c in adj[u]:
            if c != p:
                x = down[c] + 1
                if x > l1:
                    l1, l2, l3, i1, i2 = x, l1, l2, c, i1
                elif x > l2:
                    l2, l3, i2 = x, l2, c
                elif x > l3:
                    l3 = x
                y = g[c] + 1
                if y > h1:
                    h1, h2, j1 = y, h1, c
                elif y > h2:
                    h2 = y
        up = upval[u]
        ecc[u] = max(l1 + l2, h1, up)
        for c in adj[u]:
            if c != p:
                # a >= b: the two longest branches at u other than c's.
                if c == i1:
                    a, b = l2, l3
                elif c == i2:
                    a, b = l1, l3
                else:
                    a, b = l1, l2
                uplen[c] = a + 1
                upval[c] = 1 + max(up, h2 if c == j1 else h1, a + b)
    return (parent, down, uplen, tuple(ecc))


def _comb(teeth, length):
    """A spine of ``teeth`` vertices with a path of ``length`` edges hanging off each."""
    edges = [(i, i + 1) for i in range(teeth - 1)]
    nxt = teeth
    for i in range(teeth):
        prev = i
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return from_edge_list(edges)


class TestRootedPassReference:
    """The rooted pass equals the all-general-loop pass, parents included.

    Its leaf and degree-2 branches skip the general loop for every vertex
    but the root, so each tree is also tried with each vertex as vertex 0.
    """

    @staticmethod
    def _check(t):
        assert _rooted_pass(t) == _rooted_pass_general(t)

    def test_every_free_tree_from_every_root(self):
        cases = 0
        for n in range(1, 11):
            for t in enumerate_free_trees(n):
                for v in range(n):
                    perm = list(range(n))
                    perm[0], perm[v] = v, 0
                    self._check(relabel(t, perm))
                    cases += 1
        assert cases == 1809

    def test_shapes(self):
        shapes = [path_tree(n) for n in (2, 3, 4, 7, 100)]
        shapes += [star_tree(n) for n in (3, 4, 50)]
        shapes += [spider(*[legs] * 3) for legs in range(1, 41)]
        shapes += [spider(legs, 1, 1) for legs in range(1, 41)]
        shapes += [spider(*range(1, 41))]
        shapes += [_comb(teeth, length) for teeth, length in ((2, 1), (5, 3), (30, 2), (10, 20))]
        shapes += [broom(n, delta) for n, delta in ((6, 3), (12, 5), (100, 3), (200, 8), (40, 39))]
        for t in shapes:
            self._check(t)
            # The same shape rooted at its last vertex, a leaf of most of them.
            n = t.order
            self._check(relabel(t, [n - 1] + list(range(1, n - 1)) + [0]))

    def test_random_trees_of_order_1000(self):
        rng = random.Random(29)
        for _ in range(5):
            self._check(random_tree(1000, rng))


class TestPathOperations:
    def test_distance_to_path_on_path_is_zero(self):
        t = path_tree(5)
        assert distance_to_path(t, 3, (2, 3, 4)) == 0

    def test_spider_third_leg_tip(self):
        t = spider(2, 2, 2)
        p = diametric_path(t)
        tips = [v for v in range(7) if t.degree(v) == 1 and v not in p]
        assert distance_to_path(t, tips[0], p) == 2
        assert path_eccentricity(t, p) == 2

    def test_whole_path_eccentricity_zero(self):
        t = path_tree(6)
        assert path_eccentricity(t, tuple(range(6))) == 0

    def test_invalid_path_rejected(self):
        t = path_tree(4)
        with pytest.raises(ValueError):
            distance_to_path(t, 0, (0, 2))
        with pytest.raises(ValueError):
            path_eccentricity(t, (1, 2, 1))

    @pytest.mark.parametrize("p, bad", [
        ((0, True, 2), True), ((0, 1, 4, 3), 4), ((1, -1, 0), -1), ((0, 1.0, 2), 1.0),
    ])
    def test_bad_id_in_mid_path_rejected(self, p, bad):
        with pytest.raises(BadVertexIds, match=rf"^vertex id {bad!r} not in 0\.\.3$"):
            check_path(path_tree(4), p)


def _segments_by_definition(t):
    """Paths between two vertices of degree other than 2 with only degree-2 interiors."""
    ends = [v for v in range(t.order) if t.degree(v) != 2]
    out = []
    for i, a in enumerate(ends):
        for b in ends[i + 1:]:
            p = tree_path(t, a, b)
            if all(t.degree(v) == 2 for v in p[1:-1]):
                out.append(p)
    return sorted(out, key=lambda p: (-len(p), p))


class TestStructure:
    def test_path_degree_sequence(self):
        assert degree_sequence(path_tree(4)) == (2, 2, 1, 1)

    def test_star_degree_sequence(self):
        assert degree_sequence(star_tree(4)) == (3, 1, 1, 1)

    def test_path_single_segment(self):
        assert segment_sequence(path_tree(5)) == (4,)
        assert len(segments(path_tree(5))) == 1

    def test_spider_segments(self):
        assert segment_sequence(spider(2, 2, 2)) == (2, 2, 2)

    def test_h_tree_segments(self):
        assert segment_sequence(h_tree()) == (2, 1, 1, 1, 1)

    def test_segments_match_their_definition(self):
        trees = [t for n in range(2, 11) for t in enumerate_free_trees(n)]
        for t in trees + random_trees(50, 23, 2, 60):
            assert segments(t) == _segments_by_definition(t)

    def test_segments_need_two_vertices(self):
        with pytest.raises(TooSmall):
            segments(from_edge_list([]))

    @given(trees())
    @settings(max_examples=80)
    def test_segment_lengths_sum_to_edge_count(self, t):
        assert sum(segment_sequence(t)) == t.order - 1

    @given(trees())
    @settings(max_examples=80)
    def test_segment_interiors_have_degree_two(self, t):
        for seg in segments(t):
            assert t.degree(seg[0]) != 2 and t.degree(seg[-1]) != 2
            assert all(t.degree(v) == 2 for v in seg[1:-1])

    def test_shape_predicates(self):
        assert is_path(path_tree(6))
        assert is_caterpillar(path_tree(6))
        assert is_caterpillar(star_tree(5))
        assert is_caterpillar(h_tree())
        assert not is_caterpillar(spider(2, 2, 2))
        assert is_generalized_star(spider(2, 2, 2))
        assert is_generalized_star(path_tree(4))
        assert not is_generalized_star(h_tree())

    def test_center_of_even_path_is_pair(self):
        assert center(path_tree(4)) == (1, 2)
        assert center(path_tree(5)) == (2,)


def _least_eccentric(t):
    """Oracle: the vertices of least eccentricity, read from BFS rows.

    In a tree every vertex is farthest from one end of any diametric path,
    so the rows from the two ends that a double BFS finds give every
    eccentricity in linear time.
    """
    d0 = bfs_distances(t, 0)
    du = bfs_distances(t, d0.index(max(d0)))
    dw = bfs_distances(t, du.index(max(du)))
    ecc = [max(a, b) for a, b in zip(du, dw)]
    r = min(ecc)
    return tuple(v for v, e in enumerate(ecc) if e == r)


class TestCenter:
    def test_every_free_tree_up_to_12_by_definition(self):
        for n in range(1, 13):
            for rep in enumerate_free_trees(n):
                t = Tree(rep.adjacency)  # uncached, so the peel runs again
                ecc = [max(bfs_distances(t, v)) for v in range(n)]
                r = min(ecc)
                least = tuple(v for v in range(n) if ecc[v] == r)
                assert center(t) == least
                assert _least_eccentric(t) == least

    def test_random_trees(self):
        for t in random_trees(300, 29, 2, 400):
            assert center(t) == _least_eccentric(t)

    @pytest.mark.parametrize("build", [path_tree, star_tree])
    def test_order_20000(self, build):
        t = build(20000)
        assert center(t) == _least_eccentric(t)

    @pytest.mark.parametrize("t", [path_tree(7), path_tree(8), star_tree(6), spider(3, 1, 1),
                                   h_tree()], ids=["path7", "path8", "star6", "spider", "h"])
    def test_center_and_canonical_form_share_one_peel(self, t):
        first, second = Tree(t.adjacency), Tree(t.adjacency)
        c1 = center(first)
        peeled = first._canon
        s1 = canonical_form(first)
        assert first._canon is peeled
        s2 = canonical_form(second)
        peeled = second._canon
        c2 = center(second)
        assert second._canon is peeled
        assert (c1, s1) == (c2, s2)


def _two_rooting_canonical_form(t):
    """Oracle: encode the tree rooted at each centre in turn, keep the smaller."""

    def rooted(root):
        adj = t.adjacency
        parent = [-1] * t.order
        parent[root] = root
        order = [root]
        for u in order:
            for v in adj[u]:
                if parent[v] == -1:
                    parent[v] = u
                    order.append(v)
        enc = {}
        for u in reversed(order):
            kids = sorted(enc.pop(v) for v in adj[u] if v != parent[u])
            enc[u] = "(" + "".join(kids) + ")"
        return enc[root]

    return min(rooted(r) for r in _least_eccentric(t))


class TestCanonicalForm:
    def test_matches_two_rooting_oracle_on_every_free_tree_up_to_12(self):
        centres = set()
        for n in range(1, 13):
            for rep in enumerate_free_trees(n):
                t = Tree(rep.adjacency)  # uncached, so the encoder runs again
                assert canonical_form(t) == _two_rooting_canonical_form(t)
                centres.add(len(center(t)))
        assert centres == {1, 2}

    def test_matches_two_rooting_oracle_on_random_trees(self):
        for t in random_trees(300, 23, 2, 400):
            assert canonical_form(t) == _two_rooting_canonical_form(t)

    @pytest.mark.parametrize("build", [path_tree, star_tree])
    def test_matches_two_rooting_oracle_at_order_20000(self, build):
        t = build(20000)
        assert canonical_form(t) == _two_rooting_canonical_form(t)

    def test_path_of_20000_peaks_under_16_mb(self):
        t = path_tree(20000)
        tracemalloc.start()
        try:
            canonical_form(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_relabeled_paths_match(self):
        assert canonical_form(path_tree(4)) == canonical_form(relabel(path_tree(4), [3, 1, 0, 2]))

    def test_path_vs_star_differ(self):
        assert canonical_form(path_tree(4)) != canonical_form(star_tree(4))

    def test_two_shapes_on_four_vertices(self):
        keys = {canonical_form(from_prufer(list(c))) for c in product(range(4), repeat=2)}
        assert len(keys) == 2

    @given(trees(max_n=16), st.randoms(use_true_random=False))
    @settings(max_examples=80)
    def test_relabeling_invariance(self, t, rnd):
        perm = list(range(t.order))
        rnd.shuffle(perm)
        assert canonical_form(t) == canonical_form(relabel(t, perm))

    @given(trees(max_n=12), trees(max_n=12))
    @settings(max_examples=80)
    def test_agreement_with_networkx_isomorphism(self, a, b):
        assert is_isomorphic(a, b) == nx.is_isomorphic(to_nx(a), to_nx(b))

    @given(trees(max_n=14), trees(max_n=14))
    @settings(max_examples=60)
    def test_different_invariants_imply_different_keys(self, a, b):
        if degree_sequence(a) != degree_sequence(b) or (
            a.order == b.order and segment_sequence(a) != segment_sequence(b)
        ):
            assert canonical_form(a) != canonical_form(b)


class TestTextFormats:
    def test_edge_list_round_trip(self):
        t = spider(3, 2, 1)
        assert parse_edge_list_text(format_edge_list(t)) == t

    def test_comments_and_blanks_skipped(self):
        t = parse_edge_list_text("# a path\n0 1\n\n1 2  # tail\n")
        assert t == path_tree(3)

    def test_parse_error_names_line(self):
        with pytest.raises(ParseError) as err:
            parse_edge_list_text("0 1\n1 two\n")
        assert err.value.line_no == 2

    def test_parse_error_on_arity(self):
        with pytest.raises(ParseError):
            parse_edge_list_text("0 1 2\n")

    def test_prufer_text_round_trip(self):
        t = from_prufer([0, 3, 0, 3])
        assert parse_prufer_text(format_prufer(t)) == t

    def test_empty_prufer_text_is_two_vertices(self):
        assert parse_prufer_text("\n").order == 2
        assert parse_prufer_text("").order == 2

    def test_prufer_text_second_code_line_rejected(self):
        assert parse_prufer_text("# star\n0,0\n\n# done\n") == star_tree(4)
        with pytest.raises(ParseError) as err:
            parse_prufer_text("0,0\n# next\n1,1\n")
        assert err.value.line_no == 3 and err.value.line == "1,1"

    def test_prufer_text_bad_entry(self):
        with pytest.raises(ParseError):
            parse_prufer_text("0,9\n")

    @given(st.one_of(st.text(), st.text(alphabet="0123456789 ,-#\n")))
    @settings(max_examples=300)
    def test_arbitrary_text_raises_only_package_errors(self, text):
        for parse in (parse_edge_list_text, parse_prufer_text):
            try:
                assert isinstance(parse(text), Tree)
            except SteinerEccError:
                pass
