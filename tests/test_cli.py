"""CLI: subcommands, formats, exit codes, reproducibility."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from steiner_ecc import (
    census,
    canonical_form,
    degree_sequence,
    extremal,
    format_edge_list,
    format_prufer,
    from_edge_list,
    from_prufer,
    is_caterpillar,
    parse_edge_list_text,
    segment_sequence,
)
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


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_compute_non_utf8_input_exits_2_naming_the_line(tmp_path, source):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"0 1\n\xff\xfe 2\n")
    paths = [str(DOCS.parent / "src"), os.environ.get("PYTHONPATH")]
    # A strict stdin, as under a UTF-8 locale, must not change the outcome.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)),
               PYTHONIOENCODING="utf-8:strict")
    with open(p, "rb") as stdin:
        proc = subprocess.run(
            [sys.executable, "-m", "steiner_ecc.cli", "compute",
             "--input", str(p) if source == "file" else "-"],
            stdin=stdin, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == "error: line 2: vertex ids must be integers: '\\udcff\\udcfe 2'\n"


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


def test_python_m_runs_the_cli(capsys):
    paths = [str(DOCS.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "steiner_ecc.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    proc = run_module("compute", "--random", "5", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    assert main(["compute", "--random", "5", "--seed", "1"]) == 0
    expected = capsys.readouterr().out
    assert expected and proc.stdout == expected
    assert run_module("compute", "--random", "1").returncode == 2


@pytest.mark.parametrize("argv", [
    ("enumerate", "--n", "12"),
    ("compute", "--random", "2000", "--seed", "1"),
])
def test_closed_stdout_exits_1_without_a_traceback(argv):
    paths = [str(DOCS.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    # The read end is closed before the child starts, so its first write to
    # stdout fails, however much output fits in the pipe's buffer.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "steiner_ecc.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


@pytest.mark.parametrize("mode, tree, message", [
    ("rebalance", spider(2, 2, 2), "leg lengths (2, 2, 2) differ by at most one"),
    ("rebalance", h_tree(), "2 branch vertices"),
    ("pi", path_tree(2), "no pi site on this tree"),
    ("rebalance", path_tree(5), "leg lengths (4,) differ by at most one"),
    ("rebalance", from_edge_list([]), "single vertex has no legs"),
    ("balance", h_tree(), "input has more than one branch vertex"),
    ("sigma", path_tree(5), "no sigma site on this tree"),
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


# -- golden front door -------------------------------------------------------------

# SHA-256 of stdout; each run exits 0 with nothing on stderr. STAR names a file
# holding ``construct star --segments 9,1,1``.
GOLDEN_STDOUT = {
    "compute --random 300 --seed 1 --format text":
        "c5eb021fbcdd999efc8e202f620b99329719c9c067fdd5c71211ba511bf50d07",
    "compute --random 300 --seed 1 --format json":
        "16da5706fc5aa6987698157f50baf5c393dcc06386257ebfb0f292701709e136",
    "construct caterpillar --pi 3,3,2,1,1,1,1":
        "2e9aed78815f7f5c61c083ce344f42656c8c488cb8ecee91569cfe494e3865c2",
    "construct balanced-star --n 7 --m 3":
        "811b8cf106f0ea15326415de6e8954e9981b9263431870680775687db8e46b1f",
    "construct star --segments 2,1,1,1,1":
        "a0eeb47f90b1c711e8ed26fc678637fcb98210773df2e16c98f53f0a76464d65",
    "construct broom --n 7 --delta 3":
        "187b489deac2e0956e861349ea17bac215774fc26c775842f5a6680a67fb349e",
    "construct cnk --n 8 --k 2":
        "b91c7021eeb184fcd85b82dbad43cc8cab1e074570dfd7ec07461f61e0f214e1",
    "construct cndk --n 10 --delta 4 --k 2":
        "0984d286179a03c74faa533ce65a730feb4cf51a20d7016a96f01105769f829e",
    "transform sigma --random 300 --seed 3 --format text":
        "dcfa3d5cac8492b6decd4135c0fcff0b7b5f540fca6051d12a0f13d3438c5a95",
    "transform sigma --random 300 --seed 3 --format json":
        "a8ee715a5d31fe04c55cbcd8a2540a7ae5a6b877c52937536faae8a328fa957a",
    "transform pi --random 300 --seed 3 --format text":
        "46aa186598611f0b8e2c901a53684e85897c376a33e28b2c71ff088b43c24389",
    "transform pi --random 300 --seed 3 --format json":
        "3dc13b8cc9bb18287119e756d61b48598635f04a2c83fd93e1a4c9b97c179785",
    "transform sigma-reduce --random 300 --seed 3 --format text":
        "60b87e3c452e752f273b20c98b0974fb4c8485b26b261376915006c139363a92",
    "transform sigma-reduce --random 300 --seed 3 --format json":
        "15c8358543752f247c7e83ad69ea50a8d0a06a72a298b201e62b081093d490b7",
    "transform star-reduce --random 300 --seed 3 --format text":
        "4a008230a073fc166277b1310775ad9d2c630708e0bac3d975d889093a4e4e58",
    "transform star-reduce --random 300 --seed 3 --format json":
        "fb9556dd7d4e822dac9c065da1b5c6c0c4e0382068dff5be03f3645bf5391bbe",
    "transform rebalance --input STAR --format text":
        "e5e4af4c2793599be2a5e0fb4435fa2f75dbf6a9b221fd6a5ff3f43fbcf477db",
    "transform rebalance --input STAR --format json":
        "adb8a57e831821f63ea566d2ebbcadbde839abb5cb0cbf5f123fce30dfac64e6",
    "transform balance --input STAR --format text":
        "0aae3292b4d74f36e11dcf2cc849b403c6f61f5e0eb0bcb60969220c91ba5e92",
    "transform balance --input STAR --format json":
        "b7685bd2fe33f43206d8e89d4539492765f330bef2a625e3dc753f6110928187",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_stdout(command, tmp_path, capsys):
    star = tmp_path / "star.txt"
    assert main(["construct", "star", "--segments", "9,1,1", "--output", str(star)]) == 0
    assert main([str(star) if a == "STAR" else a for a in command.split()]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == GOLDEN_STDOUT[command]


@pytest.mark.parametrize("argv, message", [
    (["caterpillar"], "caterpillar needs --pi"),
    (["star"], "star needs --segments"),
    (["balanced-star", "--n", "7"], "balanced-star needs --n and --m"),
    (["broom", "--n", "7"], "broom needs --n and --delta"),
    (["cnk", "--k", "2"], "cnk needs --n and --k"),
    (["cndk", "--n", "10", "--k", "2"], "cndk needs --n, --delta and --k"),
])
def test_construct_missing_flag_names_every_flag(argv, message, capsys):
    assert main(["construct", *argv]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("mode", ["sigma-reduce", "star-reduce"])
def test_transform_chains_keep_one_tree_alive(mode):
    """A chain's peak memory stays flat in its length: 2000 vertices fit in 40 MB."""
    code = (
        "import contextlib, io, resource\n"
        "from steiner_ecc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['transform', {mode!r}, '--random', '2000', '--seed', '3']) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    # ru_maxrss survives fork and exec, so a child of this test process would
    # report the test's own peak; a fresh, small interpreter starts the child.
    relay = (f"import subprocess, sys; "
             f"sys.exit(subprocess.run([sys.executable, '-c', {code!r}]).returncode)")
    paths = [str(DOCS.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", relay], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stdout) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb < 40, f"peak RSS {peak_mb:.1f} MB"


# -- fuzzing ---------------------------------------------------------------------

_ORDERS = st.integers(-2, 12).map(str)
_CODES = st.integers(2, 12).flatmap(
    lambda n: st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
_SEQUENCES = st.one_of(
    _CODES.map(lambda code: ",".join(map(str, degree_sequence(from_prufer(code))))),
    _CODES.map(lambda code: ",".join(map(str, segment_sequence(from_prufer(code))))),
    st.lists(st.integers(-1, 6), max_size=8).map(lambda xs: ",".join(map(str, xs))),
    st.text(alphabet="0123,- x", max_size=12),
)
_FORMATS = {"--format": st.sampled_from(["text", "json"])}


@st.composite
def _stdin(draw, prufer):
    """Edge-list or Pruefer text of a tree of order <= 12, perturbed or not, or noise."""
    kind = draw(st.sampled_from(["tree", "perturbed", "noise", "bytes"]))
    if kind == "noise":
        return draw(st.text(alphabet="0123456789 ,#-x\n\t", max_size=20)).encode()
    if kind == "bytes":
        return draw(st.binary(max_size=12))
    n = draw(st.integers(2, 12))
    t = from_prufer(draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)))
    lines = (format_prufer(t) if prufer else format_edge_list(t)).splitlines()
    if kind == "perturbed":
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(lines) - 1))
            edit = draw(st.sampled_from(["drop", "copy", "token", "extra"]))
            if edit == "drop":
                del lines[i]
                lines = lines or [""]
            elif edit == "copy":
                lines.insert(i, lines[i])
            elif edit == "token":
                tokens = lines[i].replace(",", " ").split() or ["0"]
                j = draw(st.integers(0, len(tokens) - 1))
                tokens[j] = draw(st.sampled_from(["-1", "x", "3.5", "12", "0", "#", "\xff"]))
                lines[i] = " ".join(tokens)
            else:
                lines.insert(i, draw(st.sampled_from(["0 1 2", "1,2", "# note", "", "5 5"])))
    return "\n".join(lines).encode("utf-8", "surrogateescape")


@st.composite
def _argv_and_stdin(draw):
    """Arguments for one subcommand, small and sometimes out of range or unknown, and stdin."""
    command = draw(st.sampled_from(
        ["compute", "transform", "construct", "bound", "majorize", "enumerate", "verify"]))
    argv = [command]
    options = {}
    data = b""
    if command in ("compute", "transform"):
        if command == "transform":
            argv.append(draw(st.sampled_from(
                ["sigma", "sigma-reduce", "pi", "star-reduce", "rebalance", "balance"])))
        if draw(st.booleans()):
            fmt = draw(st.sampled_from(["edgelist", "prufer"]))
            argv += ["--input", "-", "--input-format", fmt]
            data = draw(_stdin(fmt == "prufer"))
        else:
            options["--random"] = _ORDERS
            options["--seed"] = st.integers(0, 5).map(str)
        options.update(_FORMATS)
    elif command == "construct":
        argv.append(draw(st.sampled_from(
            ["caterpillar", "star", "balanced-star", "broom", "cnk", "cndk"])))
        options = {"--pi": _SEQUENCES, "--segments": _SEQUENCES, "--n": _ORDERS,
                   "--m": _ORDERS, "--k": _ORDERS, "--delta": _ORDERS}
    elif command == "bound":
        options = {"--n": _ORDERS, "--k": _ORDERS, "--delta": _ORDERS}
        if draw(st.booleans()):
            argv += ["--family", draw(st.sampled_from(extremal.FAMILIES)), "--n", draw(_ORDERS)]
            del options["--n"]
        else:
            options["--pi"] = _SEQUENCES
    elif command == "majorize":
        argv += [draw(_SEQUENCES), draw(_SEQUENCES)]
        options = dict(_FORMATS)
    elif command == "enumerate":
        argv += ["--n", draw(_ORDERS)]
        options = {"--group": st.sampled_from(census.GROUP_KEYS),
                   "--cap": st.integers(-1, 30).map(str), **_FORMATS}
    else:
        argv += ["--theorem", draw(st.sampled_from(census.THEOREMS)),
                 "--n", draw(st.integers(-1, 8).map(str))]
        options = {"--cap": st.integers(-1, 30).map(str),
                   "--format": st.sampled_from(["text", "json", "csv"])}
    for name in draw(st.lists(st.sampled_from(sorted(options)), unique=True)):
        argv += [name, draw(options[name])]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "7", "--n", "--format=xml"])))
    return argv, data


@seed(1)
@settings(max_examples=300, deadline=None)
@given(case=_argv_and_stdin())
def test_fuzzed_arguments_exit_with_a_documented_code(case):
    """Only argparse's usage exit escapes ``main``; every other run returns a documented code."""
    argv, data = case
    stdin = io.TextIOWrapper(io.BytesIO(data))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", stdin), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, (argv, data)
            return
    assert code in (0, 2, 3, 4, 5, 6), (argv, data, err.getvalue())
