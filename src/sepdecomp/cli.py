"""Batch command-line interface.

Subcommands: construct, validate, sep, tw, theorem2, suite, gen.
Exit codes: 0 success, 1 validation or bound failure, 2 usage error.
Vertices in CLI arguments and printed output are 1-indexed to match the
.gr / .td file formats.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import generators
from .constructor import construct, construct_theorem2
from .decomposition import _validate, width
from .errors import InvalidInputError, PostconditionFailedError, SepDecompError
from .graph import Graph
from .pace import export_dot, parse_gr, parse_td, write_gr, write_td
from .separations import separation_number
from .verification import InstanceSpec, SuiteConfig, run_suite, treewidth_exact

USAGE_ERROR = 2
FAILURE = 1
OK = 0


def _load_graph(path: str) -> Graph:
    return parse_gr(Path(path).read_text())


def _parse_params(text: str) -> dict:
    params: dict = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"expected key=value, got {item!r}")
        key, value = item.split("=", 1)
        params[key.strip()] = value.strip()
    return params


def _cmd_construct(args: argparse.Namespace) -> int:
    G = _load_graph(args.input)
    start = time.perf_counter()
    a = separation_number(G) if args.a == "auto" else int(args.a)
    W = {1} if args.w == "auto" else {int(tok) for tok in args.w.replace(",", " ").split()}
    outside = sorted(w for w in W if not 1 <= w <= G.n)
    if outside:
        raise InvalidInputError(f"W vertex {outside[0]} out of range 1..{G.n}")
    report = construct(G, a, {w - 1 for w in W})
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if args.td:
        Path(args.td).write_text(write_td(report.decomposition, G))
    if args.dot:
        Path(args.dot).write_text(export_dot(report.decomposition))
    if args.stats:
        stats = {
            "n": G.n,
            "m": G.m,
            "a_used": report.a_used,
            "width": report.width,
            "bound_rhs_num": report.bound_num,
            "bound_rhs_den": report.bound_den,
            "oracle_calls": report.recursion_stats.oracle_calls,
            "elapsed_ms": elapsed_ms,
            "assertions_checked": sum(report.recursion_stats.claims.values()),
        }
        Path(args.stats).write_text(json.dumps(stats, indent=2) + "\n")
    print(f"width {report.width} (bags < {report.bound_num}/{report.bound_den} vertices)")
    return OK


def _cmd_validate(args: argparse.Namespace) -> int:
    G = _load_graph(args.input)
    td = parse_td(Path(args.td).read_text())
    if td.host_n != G.n:
        print(f"vertex count mismatch: graph {G.n}, td {td.host_n}", file=sys.stderr)
        return FAILURE
    ok, violations = _validate(G, td, 1)  # in the files' 1-indexed ids
    if ok:
        print(f"valid, width {width(td)}")
        return OK
    for v in violations:
        print(v, file=sys.stderr)
    return FAILURE


def _cmd_sep(args: argparse.Namespace) -> int:
    G = _load_graph(args.input)
    print(separation_number(G))
    return OK


def _cmd_tw(args: argparse.Namespace) -> int:
    G = _load_graph(args.input)
    print(treewidth_exact(G).value)
    return OK


def _cmd_theorem2(args: argparse.Namespace) -> int:
    G = _load_graph(args.input)
    a = separation_number(G) if args.a == "auto" else int(args.a)
    report = construct_theorem2(G, a)
    if args.td:
        Path(args.td).write_text(write_td(report.decomposition, G))
    print(f"width {report.width} (bound {4 * a})")
    return OK


_JSON_TYPES = {str: "a string", int: "an integer", dict: "a JSON object", list: "a JSON list"}


def _check_object(value, keys: dict, where: str) -> dict:
    """`value` as a JSON object whose keys are all in `keys`, each mapped to
    the type of its value (a bool is no integer); ValueError naming the
    first stray key or mistyped value otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object")
    for key, item in value.items():
        if key not in keys:
            raise ValueError(f"{where}: unknown key {key!r} (allowed: {sorted(keys)})")
        if type(item) is not keys[key]:
            raise ValueError(f"{where}: {key!r} must be {_JSON_TYPES[keys[key]]}, got {item!r}")
    return value


def _cmd_suite(args: argparse.Namespace) -> int:
    raw = json.loads(Path(args.config).read_text())
    raw = _check_object(raw, {"instances": list, "seed": int}, "suite config")
    keys = {"kind": str, "params": dict, "a": int, "id": str}
    instances = []
    for i, item in enumerate(raw.get("instances", [])):
        item = _check_object(item, keys, f"suite instance {i}")
        if "kind" not in item:
            raise ValueError(f"suite instance {i}: missing key 'kind'")
        if item.get("a", 1) < 1:
            raise ValueError(f"suite instance {i}: 'a' must be a positive integer, got {item['a']}")
        try:
            generators.checked_params(item["kind"], item.get("params", {}))
        except InvalidInputError as exc:
            raise ValueError(f"suite instance {i}: {exc}") from exc
        instances.append(
            InstanceSpec(
                kind=item["kind"],
                params=item.get("params", {}),
                a=item.get("a"),
                graph_id=item.get("id"),
            )
        )
    config = SuiteConfig(
        instances=tuple(instances),
        seed=args.seed if args.seed is not None else raw.get("seed", 0),
    )
    report = run_suite(config)
    payload = report.to_json()
    if args.report:
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"{payload['total'] - payload['failures']}/{payload['total']} passed")
    return OK if report.passed else FAILURE


def _cmd_gen(args: argparse.Namespace) -> int:
    params = _parse_params(args.params or "")
    G = generators.generate(args.kind, params, seed=args.seed)
    text = write_gr(G)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepdecomp",
        description="Tree decompositions from balanced separations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a width < (7915/139)a decomposition")
    p.add_argument("--input", required=True, help=".gr graph file")
    p.add_argument("--a", default="auto", help="separation order bound, or 'auto'")
    p.add_argument("--w", default="auto", help="1-indexed marked vertices, or 'auto'")
    p.add_argument("--td", help="write the decomposition here (.td)")
    p.add_argument("--dot", help="write a graphviz rendering here")
    p.add_argument("--stats", help="write run statistics here (JSON)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("validate", help="validate a .td against a .gr")
    p.add_argument("--input", required=True)
    p.add_argument("--td", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("sep", help="exact separation number")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_sep)

    p = sub.add_parser("tw", help="exact treewidth")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_tw)

    p = sub.add_parser("theorem2", help="build a width < 4a decomposition")
    p.add_argument("--input", required=True)
    p.add_argument("--a", default="auto")
    p.add_argument("--td")
    p.set_defaults(func=_cmd_theorem2)

    p = sub.add_parser("suite", help="run a JSON-configured corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--report", help="write the JSON report here")
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("gen", help="generate a graph in .gr format")
    p.add_argument("--kind", required=True, choices=list(generators.KINDS))
    p.add_argument("--params", help="comma-separated key=value, e.g. n=10,p=0.3")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)
    return parser


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else OK
    try:
        return args.func(args)
    except (SepDecompError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE if isinstance(exc, PostconditionFailedError) else USAGE_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
