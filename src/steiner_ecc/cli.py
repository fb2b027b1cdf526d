"""Command-line front end.

Subcommands: compute, construct, transform, bound, majorize, enumerate,
verify. Exit codes are stable API:

- 0  success
- 2  input parsing or tree validation failure
- 3  infeasible construction / comparison parameters
- 4  transformation errors (bad site, nothing to transform, wrong shape)
- 5  a verification check failed
- 6  enumeration or brute-force cap exceeded

Tree input comes from an edge-list or Pruefer file (``--input``, ``-`` for
stdin) or from a uniform random labeled tree (``--random N`` with
``--seed``). The seed is recorded in JSON reports whenever randomness was
used. ``STEINER_ECC_CAP`` overrides the default enumeration cap; an explicit
``--cap`` beats both.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import census, extremal, transforms
from .census import _frac_str
from .errors import (
    AlreadyBalanced,
    CapExceeded,
    Incomparable,
    Infeasible,
    InfeasibleSequence,
    InvalidSite,
    LengthMismatch,
    NotGeneralizedStar,
    ParseError,
    SteinerEccError,
    SumMismatch,
)
from .steiner import aecc3, ecc3_all
from .tree import (
    Tree,
    degree_sequence,
    diameter,
    format_edge_list,
    parse_edge_list_text,
    parse_prufer_text,
    radius,
    random_tree,
    segment_sequence,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_TRANSFORM = 4
EXIT_VERIFY_FAILED = 5
EXIT_CAP = 6

# The first row whose classes match picks the exit code; any other package
# error is bad input.
_EXIT_CODES = (
    ((InvalidSite, NotGeneralizedStar, AlreadyBalanced), EXIT_TRANSFORM),
    ((CapExceeded,), EXIT_CAP),
    ((Infeasible, InfeasibleSequence, LengthMismatch, SumMismatch, Incomparable), EXIT_INFEASIBLE),
)


def _frac_line(f: Fraction) -> str:
    return f"{_frac_str(f)} ({float(f):.6f})"


def _parse_int_seq(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise Infeasible(f"{what} must be comma-separated integers, got {text!r}") from None


def _default_cap() -> int:
    raw = os.environ.get("STEINER_ECC_CAP")
    if raw is None:
        return census.DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise Infeasible(f"STEINER_ECC_CAP must be an integer, got {raw!r}") from None


def _load_tree(args) -> tuple[Tree, int | None]:
    """Tree from the selected input source, plus the seed when it was random."""
    if args.random is not None:
        seed = args.seed
        return random_tree(args.random, random.Random(seed)), seed
    if args.input is None:
        raise SteinerEccError("no input: pass --input FILE or --random N")
    text = sys.stdin.read() if args.input == "-" else _read_file(args.input)
    if args.input_format == "prufer":
        return parse_prufer_text(text), None
    return parse_edge_list_text(text), None


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(0, path, f"cannot read input: {exc}") from None


def _add_input_options(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group()
    source.add_argument("--input", help="edge-list or Pruefer file; '-' reads stdin")
    source.add_argument(
        "--random", type=int, metavar="N", help="use a random labeled tree on N vertices"
    )
    p.add_argument(
        "--input-format",
        choices=("edgelist", "prufer"),
        default="edgelist",
        help="file format for --input (default: edgelist)",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for --random (default: 0)")


# -- subcommands -----------------------------------------------------------------


def _cmd_compute(args) -> int:
    t, seed = _load_tree(args)
    value = aecc3(t)  # rejects n < 3
    ecc3 = ecc3_all(t)
    if args.format == "json":
        doc = {
            "n": t.order,
            "degree_sequence": list(degree_sequence(t)),
            "segment_sequence": list(segment_sequence(t)),
            "diameter": diameter(t),
            "radius": radius(t),
            "ecc3": list(ecc3),
            "aecc3": _frac_str(value),
            "aecc3_decimal": f"{float(value):.6f}",
            "seed": seed,
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"n: {t.order}")
        print(f"degree_sequence: {','.join(map(str, degree_sequence(t)))}")
        print(f"segment_sequence: {','.join(map(str, segment_sequence(t)))}")
        print(f"diameter: {diameter(t)}")
        print(f"radius: {radius(t)}")
        print(f"ecc3: {','.join(map(str, ecc3))}")
        print(f"aecc3: {_frac_line(value)}")
    return EXIT_OK


def _cmd_construct(args) -> int:
    family = args.family
    if family == "caterpillar":
        if args.pi is None:
            raise Infeasible("caterpillar needs --pi")
        t = extremal.caterpillar_from_degree_sequence(_parse_int_seq(args.pi, "--pi"))
    elif family == "star":
        if args.segments is None:
            raise Infeasible("star needs --segments")
        t = extremal.generalized_star(_parse_int_seq(args.segments, "--segments"))
    elif family == "balanced-star":
        if args.n is None or args.m is None:
            raise Infeasible("balanced-star needs --n and --m")
        t = extremal.balanced_star(args.n, args.m)
    elif family == "broom":
        if args.n is None or args.delta is None:
            raise Infeasible("broom needs --n and --delta")
        t = extremal.broom(args.n, args.delta)
    elif family == "cnk":
        if args.n is None or args.k is None:
            raise Infeasible("cnk needs --n and --k")
        t = extremal.uniform_branch_caterpillar(args.n, 3, args.k)
    else:  # cndk
        if args.n is None or args.delta is None or args.k is None:
            raise Infeasible("cndk needs --n, --delta and --k")
        t = extremal.uniform_branch_caterpillar(args.n, args.delta, args.k)
    text = format_edge_list(t)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SteinerEccError(f"cannot write output: {exc}") from None
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _chain_step_doc(out: transforms.TransformOutcome, cumulative: Fraction) -> dict:
    return {
        "site": out.description,
        "aecc3_before": _frac_str(out.aecc3_before),
        "aecc3_after": _frac_str(out.aecc3_after),
        "delta": _frac_str(out.delta),
        "cumulative_delta": _frac_str(cumulative),
    }


def _cmd_transform(args) -> int:
    t, seed = _load_tree(args)
    mode = args.mode
    if mode == "sigma":
        sites = transforms.find_sigma_sites(t)
        if not sites:
            raise InvalidSite("no sigma site on this tree")
        chain = [transforms.sigma_transform(t, sites[0])]
    elif mode == "pi":
        site = next(transforms._pi_sites(t), None)
        if site is None:
            raise InvalidSite("no pi site on this tree")
        chain = [transforms.pi_transform(t, site)]
    elif mode == "sigma-reduce":
        chain = transforms.reduce_to_caterpillar(t)
    elif mode == "star-reduce":
        chain = transforms.reduce_to_generalized_star(t)
    elif mode == "rebalance":
        chain = [transforms.rebalance_step(t)]
    else:  # balance
        chain = transforms.balance_generalized_star(t)
    final = chain[-1].after if chain else t
    steps = []
    cumulative = Fraction(0)
    for out in chain:
        cumulative += out.delta
        steps.append(_chain_step_doc(out, cumulative))
    if args.format == "json":
        doc = {
            "mode": mode,
            "n": t.order,
            "seed": seed,
            "steps": steps,
            "final_edges": [list(e) for e in final.edges()],
        }
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        if not steps:
            print(f"{mode}: tree already a fixed point; no steps")
        for i, step in enumerate(steps, start=1):
            print(
                f"step {i}: {step['site']} | aecc3 {step['aecc3_before']} -> "
                f"{step['aecc3_after']} (cumulative {step['cumulative_delta']})"
            )
        sys.stdout.write(format_edge_list(final))
    return EXIT_OK


def _cmd_bound(args) -> int:
    if args.pi is not None:
        value = extremal.degree_sequence_bound(_parse_int_seq(args.pi, "--pi"))
    elif args.family is not None:
        if args.n is None:
            raise Infeasible("--family needs --n")
        value = extremal.family_bound(args.family, args.n, delta=args.delta, k=args.k)
    else:
        raise Infeasible("bound needs --pi or --family")
    print(_frac_line(value))
    return EXIT_OK


def _cmd_majorize(args) -> int:
    a = _parse_int_seq(args.pi1, "first sequence")
    b = _parse_int_seq(args.pi2, "second sequence")
    forward = extremal.majorizes(a, b)
    backward = extremal.majorizes(b, a)
    if args.format == "json":
        doc = {"pi1": list(a), "pi2": list(b), "pi1_majorizes_pi2": forward,
               "pi2_majorizes_pi1": backward}
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(f"pi1 majorizes pi2: {str(forward).lower()}")
        print(f"pi2 majorizes pi1: {str(backward).lower()}")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    cap = args.cap if args.cap is not None else _default_cap()
    trees = census.enumerate_free_trees(args.n, cap=cap)
    if args.group is None:
        if args.format == "json":
            doc = {
                "n": args.n,
                "count": len(trees),
                "trees": [[list(e) for e in t.edges()] for t in trees],
            }
            print(json.dumps(doc, sort_keys=True, indent=2))
        else:
            for t in trees:
                print(" ".join(f"{u}-{v}" for u, v in t.edges()))
        return EXIT_OK
    groups = census.group_trees(trees, args.group)
    rendered = {_render_group_key(k): len(v) for k, v in groups.items()}
    if args.format == "json":
        print(json.dumps({"n": args.n, "group": args.group, "classes": rendered},
                         sort_keys=True, indent=2))
    else:
        for key in sorted(rendered):
            print(f"{key},{rendered[key]}")
    return EXIT_OK


def _render_group_key(key) -> str:
    if isinstance(key, tuple):
        return ",".join(map(str, key))
    return str(key)


def _cmd_verify(args) -> int:
    cap = args.cap if args.cap is not None else _default_cap()
    report = census.verify(args.theorem, args.n, cap=cap)
    if args.format == "json":
        sys.stdout.write(census.report_to_json(report))
    elif args.format == "csv":
        sys.stdout.write(census.report_to_csv(report))
    else:
        print(f"check {report.theorem} at n={report.n}: "
              f"{'PASS' if report.passed else 'FAIL'}")
        for r in report.classes:
            status = "pass" if r.passed else "FAIL"
            value = _frac_str(r.extremal_value) or "-"
            extra = f" [{r.detail}]" if r.detail else ""
            print(f"  {status} {r.key}: value={value} size={r.class_size}{extra}")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steiner-ecc",
        description="Exact Steiner 3-eccentricity analysis on trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="metrics of one tree (aecc3 as exact p/q)")
    _add_input_options(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("construct", help="build a named extremal family member")
    p.add_argument("family", choices=("caterpillar", "star", "balanced-star", "broom", "cnk", "cndk"))
    p.add_argument("--pi", help="degree sequence, e.g. 3,3,2,1,1,1,1")
    p.add_argument("--segments", help="leg lengths, e.g. 2,1,1,1,1")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--output", help="write the edge list here instead of stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("transform", help="apply a move or reduction chain")
    p.add_argument("mode", choices=("sigma", "sigma-reduce", "pi", "star-reduce", "rebalance", "balance"))
    _add_input_options(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("bound", help="closed-form aecc3 maxima")
    p.add_argument("--pi", help="degree sequence")
    p.add_argument("--family", choices=extremal.FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--delta", type=int)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("majorize", help="compare two non-increasing sequences")
    p.add_argument("pi1")
    p.add_argument("pi2")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_majorize)

    p = sub.add_parser("enumerate", help="all non-isomorphic trees of an order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", choices=census.GROUP_KEYS)
    p.add_argument("--cap", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run one exhaustive check")
    p.add_argument("--theorem", choices=census.THEOREMS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SteinerEccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for classes, code in _EXIT_CODES if isinstance(exc, classes)), EXIT_INPUT)


def run() -> None:
    sys.exit(main())
