"""Tree model: construction, codecs, distances, structure, canonical form."""

from __future__ import annotations

import random
import time
import tracemalloc
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
    bfs_distances,
    canonical_form,
    center,
    degree_sequence,
    diameter,
    diametric_path,
    distance,
    distance_to_path,
    eccentricity,
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

from conftest import h_tree, path_tree, prufer_codes, relabel, spider, star_tree, trees


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


class TestCanonicalForm:
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
