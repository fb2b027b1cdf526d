"""Enumeration, grouping, verification reports and their serialization."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import jsonschema
import pytest

from steiner_ecc import (
    CapExceeded,
    branch_vertices,
    canonical_form,
    enumerate_free_trees,
    from_prufer,
    group_trees,
    is_caterpillar,
    report_to_csv,
    report_to_json,
    verify,
)
from steiner_ecc import census, cli, transforms
from steiner_ecc.census import THEOREMS
from steiner_ecc.steiner import aecc3

from conftest import h_tree, path_tree, spider, star_tree

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "verify-report.schema.json").read_text()
)


class TestEnumeration:
    def test_counts_up_to_ten(self):
        assert [len(enumerate_free_trees(n)) for n in range(1, 11)] == [
            1, 1, 1, 2, 3, 6, 11, 23, 47, 106,
        ]

    def test_four_vertices_are_path_and_star(self):
        reps = enumerate_free_trees(4)
        canons = {canonical_form(t) for t in reps}
        assert canons == {canonical_form(path_tree(4)), canonical_form(star_tree(4))}

    def test_every_representative_is_valid_and_sized(self):
        for t in enumerate_free_trees(8):
            assert t.order == 8
            assert len(t.edges()) == 7

    def test_representatives_are_pairwise_non_isomorphic(self):
        reps = enumerate_free_trees(9)
        assert len({canonical_form(t) for t in reps}) == len(reps)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_free_trees(13)
        assert len(enumerate_free_trees(5, cap=5)) == 3
        with pytest.raises(CapExceeded):
            enumerate_free_trees(6, cap=5)

    def test_prufer_dedup_agrees_at_n6(self):
        oracle = {canonical_form(from_prufer(list(c))) for c in product(range(6), repeat=4)}
        assert oracle == {canonical_form(t) for t in enumerate_free_trees(6)}


class TestGrouping:
    def test_two_degree_classes_at_n4(self):
        groups = group_trees(enumerate_free_trees(4), "degree_seq")
        assert set(groups) == {(2, 2, 1, 1), (3, 1, 1, 1)}

    def test_partition_property(self):
        trees = enumerate_free_trees(8)
        for key in ("degree_seq", "segment_seq", "segment_count", "max_degree",
                    "count_max_degree"):
            groups = group_trees(trees, key)
            assert sum(len(v) for v in groups.values()) == len(trees)

    def test_five_segment_class_mixes_stars_and_double_brooms(self):
        groups = group_trees(enumerate_free_trees(7), "segment_count")
        canons = {canonical_form(t) for t in groups[5]}
        assert canonical_form(spider(2, 1, 1, 1, 1)) in canons
        assert canonical_form(h_tree()) in canons

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            group_trees(enumerate_free_trees(4), "shape")


class TestVerify:
    def test_path_maximizes_over_all_trees_at_n7(self):
        report = verify("cor3_2", 7)
        assert report.passed
        (rec,) = report.classes
        assert rec.class_size == 11
        assert rec.extremal_value == Fraction(6)
        assert len(rec.argext) == 1
        assert rec.argext[0].canonical == canonical_form(path_tree(7))

    def test_balanced_star_minimizes_three_segment_class_at_n7(self):
        report = verify("thm1_3", 7)
        assert report.passed
        rec = next(r for r in report.classes if r.key == "m=3")
        assert rec.extremal_value == Fraction(37, 7)
        assert rec.argext[0].canonical == canonical_form(spider(2, 2, 2))

    def test_star_uniquely_minimizes_its_segment_class_at_n7(self):
        report = verify("thm1_2", 7)
        assert report.passed
        rec = next(r for r in report.classes if r.key == "2,1,1,1,1")
        assert rec.unique
        assert rec.extremal_value == Fraction(26, 7)
        # the generalized star, the symmetric double-broom, and the shape
        # with adjacent branch vertices and a pendant 2-segment
        assert rec.class_size == 3
        assert rec.argext[0].canonical == canonical_form(spider(2, 1, 1, 1, 1))

    def test_all_checks_pass_at_n8(self):
        for theorem in THEOREMS:
            assert verify(theorem, 8).passed, theorem

    def test_small_orders_are_vacuous(self):
        report = verify("thm1_1", 2)
        assert report.passed
        assert report.classes[0].vacuous

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            verify("thm9_9", 5)

    def test_cap_respected(self):
        with pytest.raises(CapExceeded):
            verify("cor3_2", 13)


class TestReportSerialization:
    def test_json_is_deterministic(self):
        a = report_to_json(verify("thm1_1", 7))
        b = report_to_json(verify("thm1_1", 7))
        assert a == b

    def test_csv_shape(self):
        report = verify("thm1_2", 6)
        lines = report_to_csv(report).splitlines()
        assert lines[0] == "key,extremal_value,class_size,pass"
        assert len(lines) == 1 + len(report.classes)
        assert all(line.endswith(",true") for line in lines[1:])

    def test_json_validates_against_schema(self, monkeypatch):
        reports = [verify(theorem, n) for theorem in THEOREMS for n in (2, 8)]
        monkeypatch.setattr(census, "aecc3", _perturbed_aecc3)
        monkeypatch.setattr(transforms, "aecc3", _perturbed_aecc3)
        reports += [verify(theorem, 8) for theorem in THEOREMS]
        assert not all(r.passed for r in reports)
        for report in reports:
            jsonschema.validate(json.loads(report_to_json(report)), SCHEMA)

    def test_argext_edges_rebuild_the_reported_tree(self):
        report = verify("cor3_3", 7)
        from steiner_ecc import from_edge_list

        for rec in report.classes:
            for ref in rec.argext:
                t = from_edge_list([tuple(e) for e in ref.edges])
                assert canonical_form(t) == ref.canonical


# -- golden reports -------------------------------------------------------------------


def _perturbed_aecc3(t):
    """The true average, shifted so that every check except thm3_1 fails at n = 8.

    Trees with exactly one branch vertex gain 1; caterpillars with two or more
    branch vertices lose 1.
    """
    branches = len(branch_vertices(t))
    if branches == 1:
        return aecc3(t) + 1
    if branches >= 2 and is_caterpillar(t):
        return aecc3(t) - 1
    return aecc3(t)


@pytest.fixture
def perturbed(monkeypatch):
    monkeypatch.setattr(census, "aecc3", _perturbed_aecc3)
    monkeypatch.setattr(transforms, "aecc3", _perturbed_aecc3)


def _report_digest(theorem, orders):
    h = hashlib.sha256()
    for n in orders:
        report = verify(theorem, n)
        h.update(report_to_json(report).encode())
        h.update(report_to_csv(report).encode())
    return h.hexdigest()


# SHA-256 over the JSON then CSV bytes of each report, n = 1..11 in order.
GOLDEN_REPORTS = {
    "thm1_1": "38db299c44f785f7bc23d28812686693c20e3de9364834f1db44838f5aef92ec",
    "thm1_2": "aa169ded5c6ac7df9ca04f9f06b2853060ed7a9f05a1699655293324b00b609d",
    "thm1_3": "85e11fee7526fca7f272274364e5596d3848bd539be14ee2d01a511d1b325edf",
    "cor3_2": "bd5afd4a62624edc4668927f6e79ccd7be4ca427a5d3e3ec426aa76aed3fda84",
    "cor3_3": "81248b40c0f45244fc49232ff2513b607ce465c7548b217d8f801d581173e939",
    "cor3_4": "3d44768b6118e06001e1ca3bffb881779f57043bc1421b0c0dd64aee0f28fa17",
    "cor3_5": "d0ee6b8984e2df9283e96ceebe949dbf21094f56395e9b005529b06f04ab43de",
    "thm3_1": "dc4f7d98387a694823ff96de061508255b113c59fca885b8bb851e965877b7ed",
    "cor3_6": "92ee9ce248c72e17e7a230d90cf7447857af81d2aa7c94a2762099635bf0d93f",
    "sigma_mono": "69a522ff91828732209d7aa035878e56f1bd121443dec5576ab8d630a8689dd0",
    "pi_mono": "a3c663e69070d783cf3b845eba33abca5d108e839d939e5f420dc402e2da1aa3",
}

# SHA-256 of ``verify --theorem X --n 8 --format text`` stdout.
GOLDEN_TEXT = {
    "thm1_1": "e38dce937f4a8ba43d5bebd2989a62e93aedf93c7b9e6bcef58ce8cdd5351c98",
    "thm1_2": "6dc70db6f61ac23b08e348517077744c1f76a636e40347bb521932f19c17e4c4",
    "thm1_3": "71c09a1e33dd676112ba106acb620ced2b6ce4f9bbf487ea76196007869a9392",
    "cor3_2": "afe44f3761767b3c8b0b1a480f6a761837fd49290e731a0f2aff03cf8eceab91",
    "cor3_3": "f615c5e1f8b7a44e271a5c7430ab7fc57b5b18c9df85ec8d1fc774c0ea542863",
    "cor3_4": "34d46549762d952c4c7c3d6cf001a1474c38bbbb38be7d0d101032dd7c16a218",
    "cor3_5": "c1191d9f3f9cb1f8ff13c6965015cbacc7112d2845a8d1b35f8dab5f8ea75a49",
    "thm3_1": "11f36d0e57e2be81f884d2ab7322ec0117ec0da7f0d730361110d1953d841c13",
    "cor3_6": "cd31b01d631cf2ea1d9d3e663013f89d1176a80eddbff867a6c87b602404a555",
    "sigma_mono": "a3fbea9630b490181b33b7cdc79cbc9ff382548c8dad7c7ba17b9992ad6c4d44",
    "pi_mono": "692a762822d3c9660821a94a082ec3ccc7243b41a39495e5751dfaf5f9589b97",
}

# As GOLDEN_REPORTS, at n = 7 and 8 under the perturbed average.
GOLDEN_PERTURBED = {
    "thm1_1": "cd5f75bb99e7ea17d06e89a9c22d23555558a17b37bfdf0f9162b99842830287",
    "thm1_2": "ff5c5c0d59f2d0d3dd78d12f0af1149791ff438a80564fc20e74124a9356044b",
    "thm1_3": "d455b234c84ddfa153c931a95fc76413c8711ae67d885e0b0f7efce8bb2f89f9",
    "cor3_2": "65e678b1b0cf025229c67b9cefff6753b5738a3411ddd10317315f5d5ef0b5f8",
    "cor3_3": "53e3ad07a8753648af53a38c663c0e2f1a68cda2bf9bfd299809404856bb0325",
    "cor3_4": "a47b8289bb0037c0ec741081ffb9c3a173b244d5853ae32ed7b1f81748334453",
    "cor3_5": "7912743eaca89034d1e9db7b133673d0777990d1db3b114c0908c4861de88e7e",
    "thm3_1": "2c0c08bb77c5ce5c3ec9c7e7ba4ccfd921e393fd992e66a28d9eef7199c4794a",
    "cor3_6": "fb383ded64e6651ab9879aa8977843610f44883057483168dac5de3ffc486ee9",
    "sigma_mono": "858f8b2c1c2ed0bb3a3f793f7e92e106388c3cff6c7ddf7420c429b605a585dc",
    "pi_mono": "bfbb738f6dd20c8cd46dcf4e401009bafdd6c853f08d6b98d6a91fff59677fce",
}

# SHA-256 of ``enumerate --n N --format json`` stdout, N = 1..11. The edge
# lists carry the labels the growth order leaves on each representative, so
# they are report bytes as much as the canonical strings are.
GOLDEN_ENUMERATE = {
    1: "f3627335b094000c981cf2b97b3942226dccf196bd863f01dab39f79f023badb",
    2: "deb1b8c59e79b1bfe94a3dedcba245d3b9869da2996c2243ff2e6718a84ad721",
    3: "c9462671a1f13aa7ecd4ff7fd6419d113d129e70ac28604a99ab63839a98ed94",
    4: "e042e33e54f1b6202941aaf7f6527f4e242793efaaf908da91114881dc8e52e1",
    5: "d773e25e720266be197ab14b0948b94e3ee11be8467c385987647d030a5fc448",
    6: "72b1e283af5fafb2e617ae5d5fda6ecf7250affca95fc63970ec24a11faa0673",
    7: "348da3b38c7db50f64c3c11c4db89a3477a675d88e5c748ec199550b1d735cfd",
    8: "e95d5401076b8ca44fae2a1ded8a6e0111a25375724dd2d318c1a82a07a3670d",
    9: "b80fdb10fa6716b09456dd536c92da8ed8ca625fe333e06bea8d7f449ef78b25",
    10: "b54a030aef572102afcfeb154712475b6a5e7c2524016c8077bfcc17903fb092",
    11: "fd32d45794bc9472e2090aca44cd2bd2318fcc8c602deb85c3dbb715292d9581",
}

# Failing records per check at n = 8 under the perturbed average.
PERTURBED_FAILURES = {
    "thm1_1": 10, "thm1_2": 4, "thm1_3": 3, "cor3_2": 1, "cor3_3": 5, "cor3_4": 3,
    "cor3_5": 8, "thm3_1": 0, "cor3_6": 5, "sigma_mono": 1, "pi_mono": 11,
}


class TestGoldenReports:
    """Every report byte is pinned, on the passing and the failing paths."""

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_reports_up_to_n11(self, theorem):
        assert _report_digest(theorem, range(1, 12)) == GOLDEN_REPORTS[theorem]

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_text_output_at_n8(self, theorem, capsys):
        code = cli.main(["verify", "--theorem", theorem, "--n", "8", "--format", "text"])
        assert code == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == GOLDEN_TEXT[theorem]

    @pytest.mark.parametrize("n", sorted(GOLDEN_ENUMERATE))
    def test_enumerate_json_output(self, n, capsys):
        assert cli.main(["enumerate", "--n", str(n), "--format", "json"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == GOLDEN_ENUMERATE[n]

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_failing_reports_under_perturbed_average(self, theorem, perturbed):
        failures = [r for r in verify(theorem, 8).classes if not r.passed]
        assert len(failures) == PERTURBED_FAILURES[theorem]
        assert _report_digest(theorem, (7, 8)) == GOLDEN_PERTURBED[theorem]

    def test_failing_tie_record_says_what_failed_first(self, perturbed):
        record = next(r for r in verify("thm1_3", 8).classes if r.key == "m=5")
        assert not record.passed
        assert record.detail == (
            "minimum 9/2 differs from the claimed 45/8; the balanced star is not among"
            " the minimizers; 4 co-minimizer(s) beside the balanced star"
        )
