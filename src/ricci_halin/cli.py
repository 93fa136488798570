"""Command-line interface.

Commands: gen (named families), curv (per-edge curvature report),
enum (exhaustive classification), verify (check the classification
against the expected counts), cert (validate a certificate file).

Exit codes: 0 success (and, for curv, all edges positive); 1 usage,
parse, or verification failure; 2 curv found a non-positive edge.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

from .curvature import (
    CouplingCertificate,
    CurvatureError,
    DEFAULT_ORACLE_THRESHOLD,
    check_coupling_certificate,
    check_lipschitz_certificate,
    certificate_from_json,
    curvature_report,
    kappa_lly_dual,
)
from .enumeration import (
    classification_to_json_dict,
    enumerate_halin,
    verify_theorem,
)
from .formats import detect_and_parse, to_dot, to_graph6, write_edge_list
from .graph import Graph, GraphError
from .halin import HalinError, parse_family_spec

# [0-9], not \d, which also matches the decimal digits of other scripts
_FAMILY_RE = re.compile(r"(W|W1|W2):[0-9]+")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented contract is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _read_graph(source: str) -> Graph:
    if _FAMILY_RE.fullmatch(source):
        return parse_family_spec(source).graph
    if source == "-":
        text = sys.stdin.read()
    else:
        with open(source, "r", encoding="ascii") as fh:
            text = fh.read()
    return detect_and_parse(text)


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="ascii") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    h = parse_family_spec(args.spec)
    if args.format == "graph6":
        text = to_graph6(h.graph).decode("ascii") + "\n"
    elif args.format == "edgelist":
        text = write_edge_list(h.graph)
    else:  # dot
        text = to_dot(h.graph)
    _write_output(text, args.output)
    return 0


def _curv_table(g: Graph, report) -> str:
    lines = ["edge  curvature"]
    for (u, v), k in report.edge_curvature:
        lines.append(f"{u}-{v}  {k}")
    lines.append(
        f"min {report.min_curvature}  "
        f"positively_curved {'true' if report.positively_curved else 'false'}"
    )
    return "\n".join(lines) + "\n"


def _cmd_curv(args) -> int:
    g = _read_graph(args.input)
    report = curvature_report(g)
    # self-check against the independent dual oracle where it is feasible
    for (u, v), k in report.edge_curvature:
        if g.degree(u) + g.degree(v) <= args.oracle_threshold:
            dual = kappa_lly_dual(g, (u, v), args.oracle_threshold)
            if dual != k:
                print(
                    f"error: primal/dual disagree on edge ({u},{v}): "
                    f"{k} vs {dual}",
                    file=sys.stderr,
                )
                return 1
    if args.format == "table":
        text = _curv_table(g, report)
    elif args.format == "json":
        payload = {
            "n": g.n,
            "edges": [[u, v, str(k)] for (u, v), k in report.edge_curvature],
            "min_curvature": str(report.min_curvature),
            "positively_curved": report.positively_curved,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:  # dot
        labels = {e: k for e, k in report.edge_curvature}
        text = to_dot(g, labels)
    _write_output(text, args.output)
    return 0 if report.positively_curved else 2


def _counts_line(counts: dict[str, int]) -> str:
    return (
        f"W:{counts['W']} W':{counts['W1']} "
        f"W'':{counts['W2']} sporadic:{counts['sporadic']}"
    )


def _cmd_enum(args) -> int:
    result = enumerate_halin(
        args.n_max, use_pruning=not args.no_prune, workers=args.workers
    )
    if args.halin_only:
        result = dataclasses.replace(
            result,
            classes=result.halin_classes(),
            zero_classes=tuple(e for e in result.zero_classes if e.halin),
        )
    payload = classification_to_json_dict(result)
    payload["halin_only"] = bool(args.halin_only)
    text = json.dumps(payload, indent=2) + "\n"
    counts_line = _counts_line(result.counts)
    if args.output is None:
        # keep stdout parseable as JSON; the human summary goes to stderr
        print(counts_line, file=sys.stderr)
        sys.stdout.write(text)
    else:
        _write_output(text, args.output)
        print(counts_line)
    return 0


def _cmd_verify(args) -> int:
    report = verify_theorem(args.n_max, workers=args.workers)
    for line in report.lines():
        print(line)
    print(_counts_line(report.result.counts))
    if report.ok:
        print(f"OK: classification verified up to {args.n_max} vertices")
        return 0
    for failure in report.failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1


def _cmd_cert(args) -> int:
    g = _read_graph(args.input)
    with open(args.certificate, "r", encoding="ascii") as fh:
        cert = certificate_from_json(fh.read())
    if isinstance(cert, CouplingCertificate):
        value = check_coupling_certificate(g, cert)
        print(f"lower_bound {value}")
        if value > 0:
            print(f"proves positive curvature on edge {cert.edge}")
        else:
            print("proves nothing about the sign")
    else:
        value = check_lipschitz_certificate(g, cert)
        print(f"upper_bound {value}")
        if value <= 0:
            print(f"proves non-positive curvature on edge {cert.edge}")
        else:
            print("proves nothing about the sign")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ricci-halin",
        description="Exact edge curvature and the classification of "
        "positively curved generalized Halin graphs.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="emit a named wheel-family graph")
    p_gen.add_argument("spec", help="family spec: W:n, W1:n, or W2:n")
    p_gen.add_argument("--format", choices=["graph6", "edgelist", "dot"],
                       default="graph6")
    p_gen.add_argument("--output")
    p_gen.set_defaults(func=_cmd_gen)

    p_curv = sub.add_parser("curv", help="per-edge curvature report")
    p_curv.add_argument(
        "input",
        help="graph file (edge list or graph6), '-' for stdin, or a "
        "family spec like W:5",
    )
    p_curv.add_argument("--format", choices=["table", "json", "dot"],
                        default="table")
    p_curv.add_argument(
        "--oracle-threshold",
        type=int,
        default=DEFAULT_ORACLE_THRESHOLD,
        help="cross-check edges whose degree sum is at most this via the "
        f"dual oracle (default {DEFAULT_ORACLE_THRESHOLD}; 0 disables)",
    )
    p_curv.add_argument("--output")
    p_curv.set_defaults(func=_cmd_curv)

    p_enum = sub.add_parser(
        "enum", help="classify generalized Halin graphs by curvature"
    )
    p_enum.add_argument("--n-max", type=int, required=True)
    p_enum.add_argument("--no-prune", action="store_true")
    p_enum.add_argument("--halin-only", action="store_true")
    p_enum.add_argument("--workers", type=int, default=1)
    p_enum.add_argument("--output")
    p_enum.set_defaults(func=_cmd_enum)

    p_verify = sub.add_parser(
        "verify", help="verify the positive-curvature classification"
    )
    p_verify.add_argument("n_max", nargs="?", type=int, default=13)
    p_verify.add_argument("--workers", type=int, default=1)
    p_verify.set_defaults(func=_cmd_verify)

    p_cert = sub.add_parser("cert", help="check a curvature certificate")
    p_cert.add_argument("input", help="graph file, '-', or family spec")
    p_cert.add_argument("certificate", help="certificate JSON file")
    p_cert.set_defaults(func=_cmd_cert)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (GraphError, HalinError, CurvatureError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
