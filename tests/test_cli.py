"""CLI: subcommands, formats, exit codes, reproducibility."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from steiner_ecc import census, canonical_form, is_caterpillar, parse_edge_list_text
from steiner_ecc.cli import main

from conftest import h_tree, path_tree, spider

DOCS = Path(__file__).resolve().parent.parent / "docs"


def write_tree(tmp_path, tree, name="tree.txt"):
    p = tmp_path / name
    p.write_text("".join(f"{u} {v}\n" for u, v in tree.edges()))
    return str(p)


def test_compute_path7(tmp_path, capsys):
    code = main(["compute", "--input", write_tree(tmp_path, path_tree(7))])
    out = capsys.readouterr().out
    assert code == 0
    assert "aecc3: 6/1 (6.000000)" in out
    assert "diameter: 6" in out


def test_compute_spider(tmp_path, capsys):
    code = main(["compute", "--input", write_tree(tmp_path, spider(2, 2, 2))])
    assert code == 0
    assert "aecc3: 37/7" in capsys.readouterr().out


def test_compute_json_matches_schema(tmp_path, capsys):
    code = main(["compute", "--format", "json",
                 "--input", write_tree(tmp_path, spider(2, 2, 2))])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, json.loads((DOCS / "compute-report.schema.json").read_text()))
    assert doc["aecc3"] == "37/7"
    assert doc["segment_sequence"] == [2, 2, 2]


def test_compute_malformed_file_names_line(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("0 1\nnonsense here\n")
    code = main(["compute", "--input", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


def test_compute_non_tree_exits_2(tmp_path, capsys):
    p = tmp_path / "cycle.txt"
    p.write_text("0 1\n1 2\n2 0\n")
    assert main(["compute", "--input", str(p)]) == 2


def test_compute_prufer_input(tmp_path, capsys):
    p = tmp_path / "code.txt"
    p.write_text("0,0\n")
    code = main(["compute", "--input", str(p), "--input-format", "prufer"])
    assert code == 0
    assert "aecc3: 11/4" in capsys.readouterr().out


def test_compute_prufer_second_code_line_exits_2(tmp_path, capsys):
    p = tmp_path / "code.txt"
    p.write_text("0,0\n1,1\n")
    code = main(["compute", "--input", str(p), "--input-format", "prufer"])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_construct_caterpillar_round_trips_through_compute(tmp_path, capsys):
    out_file = tmp_path / "cat.txt"
    code = main(["construct", "caterpillar", "--pi", "3,3,2,1,1,1,1",
                 "--output", str(out_file)])
    assert code == 0
    code = main(["compute", "--input", str(out_file)])
    assert code == 0
    assert "aecc3: 32/7" in capsys.readouterr().out


def test_construct_unwritable_output_exits_2(tmp_path, capsys):
    out_file = tmp_path / "missing" / "cat.txt"
    code = main(["construct", "broom", "--n", "7", "--delta", "3", "--output", str(out_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: cannot write output: ")
    assert captured.out == "" and not out_file.exists()


def test_construct_balanced_star(capsys):
    code = main(["construct", "balanced-star", "--n", "7", "--m", "3"])
    assert code == 0
    t = parse_edge_list_text(capsys.readouterr().out)
    assert canonical_form(t) == canonical_form(spider(2, 2, 2))


def test_construct_infeasible_exits_3(capsys):
    assert main(["construct", "cnk", "--n", "7", "--k", "3"]) == 3
    assert "error" in capsys.readouterr().err


def test_construct_missing_params_exits_3(capsys):
    assert main(["construct", "broom", "--n", "7"]) == 3


def test_construct_is_reproducible(capsys):
    main(["construct", "cndk", "--n", "10", "--delta", "4", "--k", "2"])
    first = capsys.readouterr().out
    main(["construct", "cndk", "--n", "10", "--delta", "4", "--k", "2"])
    assert capsys.readouterr().out == first


def test_transform_sigma_reduce_random_tree_ends_at_caterpillar(capsys):
    code = main(["transform", "sigma-reduce", "--random", "9", "--seed", "0",
                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, json.loads((DOCS / "transform-report.schema.json").read_text()))
    assert doc["seed"] == 0
    final = parse_edge_list_text(
        "".join(f"{u} {v}\n" for u, v in doc["final_edges"])
    )
    assert is_caterpillar(final)


def test_transform_runs_are_reproducible(capsys):
    args = ["transform", "sigma-reduce", "--random", "12", "--seed", "7", "--format", "json"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


def test_transform_balance_chain(tmp_path, capsys):
    code = main(["transform", "balance", "--input", write_tree(tmp_path, spider(4, 1, 1))])
    out = capsys.readouterr().out
    assert code == 0
    assert "step 1" in out and "step 2" in out
    assert "38/7 -> 38/7" in out
    assert "38/7 -> 37/7" in out


def test_transform_rebalance_balanced_star_exits_4(tmp_path, capsys):
    code = main(["transform", "rebalance", "--input", write_tree(tmp_path, spider(2, 2, 2))])
    assert code == 4


def test_transform_sigma_on_20000_vertices_within_20s(capsys):
    start = time.perf_counter()
    code = main(["transform", "sigma", "--random", "20000", "--seed", "0"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "step 1" in capsys.readouterr().out
    assert elapsed < 20


def test_transform_sigma_without_site_exits_4(tmp_path, capsys):
    code = main(["transform", "sigma", "--input", write_tree(tmp_path, path_tree(5))])
    assert code == 4


def test_bound_from_degree_sequence(capsys):
    assert main(["bound", "--pi", "3,3,2,1,1,1,1"]) == 0
    assert capsys.readouterr().out.startswith("32/7")


def test_bound_from_family(capsys):
    assert main(["bound", "--family", "tndelta", "--n", "7", "--delta", "3"]) == 0
    assert capsys.readouterr().out.startswith("38/7")


def test_bound_infeasible_exits_3(capsys):
    assert main(["bound", "--family", "tnk", "--n", "7", "--k", "3"]) == 3


def test_majorize(capsys):
    assert main(["majorize", "3,1,1,1", "2,2,1,1"]) == 0
    out = capsys.readouterr().out
    assert "pi1 majorizes pi2: true" in out
    assert "pi2 majorizes pi1: false" in out


def test_majorize_mismatch_exits_3(capsys):
    assert main(["majorize", "3,1", "2,1"]) == 3


def test_enumerate_grouped_class_sizes_sum(capsys):
    assert main(["enumerate", "--n", "10", "--group", "segment_count"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert sum(int(line.split(",")[1]) for line in lines) == 106


def test_enumerate_plain_lists_all_trees(capsys):
    assert main(["enumerate", "--n", "6"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 6


def test_enumerate_above_cap_exits_6(capsys):
    assert main(["enumerate", "--n", "13"]) == 6


def test_enumerate_cap_flag_and_env(capsys, monkeypatch):
    monkeypatch.setenv("STEINER_ECC_CAP", "5")
    assert main(["enumerate", "--n", "6"]) == 6
    assert main(["enumerate", "--n", "6", "--cap", "6"]) == 0
    capsys.readouterr()


def test_verify_json_passes_and_validates(capsys):
    code = main(["verify", "--theorem", "thm1_2", "--n", "8", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, json.loads((DOCS / "verify-report.schema.json").read_text()))
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["classes"])


def test_verify_text_and_csv(capsys):
    assert main(["verify", "--theorem", "cor3_2", "--n", "7"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["verify", "--theorem", "cor3_2", "--n", "7", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "key,extremal_value,class_size,pass"


def test_verify_failure_exits_5(capsys, monkeypatch):
    from steiner_ecc import census as census_mod
    from steiner_ecc.census import ClassRecord, VerificationReport

    failed = VerificationReport(
        theorem="cor3_2",
        n=7,
        passed=False,
        classes=(ClassRecord(key="all", class_size=11, passed=False, detail="forced"),),
    )
    monkeypatch.setattr(census_mod, "verify", lambda *a, **kw: failed)
    assert main(["verify", "--theorem", "cor3_2", "--n", "7"]) == 5


def test_verify_above_cap_exits_6(capsys):
    assert main(["verify", "--theorem", "thm1_1", "--n", "20"]) == 6


def test_domain_errors_exit_2(capsys):
    assert main(["enumerate", "--n", "0"]) == 2
    assert main(["verify", "--theorem", "thm1_1", "--n", "0"]) == 2
    assert main(["majorize", "1,2", "2,1"]) == 2


def test_internal_value_error_is_not_reported_as_bad_input(monkeypatch):
    def broken(*args, **kwargs):
        return max([])

    monkeypatch.setattr(census, "verify", broken)
    with pytest.raises(ValueError):
        main(["verify", "--theorem", "thm1_1", "--n", "5"])


def test_compute_never_imports_scipy():
    code = (
        "import sys\n"
        "from steiner_ecc import cli\n"
        "assert cli.main(['compute', '--random', '200']) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    paths = [str(DOCS.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_import_census_and_chains_never_import_numpy():
    code = (
        "import sys\n"
        "import steiner_ecc\n"
        "assert 'numpy' not in sys.modules, 'import steiner_ecc loaded numpy'\n"
        "from steiner_ecc import census, cli\n"
        "for theorem in census.THEOREMS:\n"
        "    assert cli.main(['verify', '--theorem', theorem, '--n', '7']) == 0\n"
        "assert cli.main(['enumerate', '--n', '9', '--format', 'json']) == 0\n"
        "assert cli.main(['transform', 'sigma-reduce', '--random', '200']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    paths = [str(DOCS.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("mode, tree, message", [
    ("rebalance", spider(2, 2, 2), "leg lengths (2, 2, 2) differ by at most one"),
    ("rebalance", h_tree(), "2 branch vertices"),
    ("pi", path_tree(2), "no pi site on this tree"),
])
def test_transform_errors_exit_4_with_their_text(tmp_path, capsys, mode, tree, message):
    assert main(["transform", mode, "--input", write_tree(tmp_path, tree)]) == 4
    assert capsys.readouterr().err == f"error: {message}\n"


def test_transform_pi_stops_at_the_first_site(tmp_path, capsys):
    start = time.perf_counter()
    code = main(["transform", "pi", "--format", "json",
                 "--input", write_tree(tmp_path, path_tree(600))])
    elapsed = time.perf_counter() - start
    assert code == 0
    (step,) = json.loads(capsys.readouterr().out)["steps"]
    assert step["site"].endswith("along (0, 1)")
    assert elapsed < 10
