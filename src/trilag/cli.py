"""Command-line front end.

Subcommands: construct, lagrangian, reduce, optimize, certify, enumerate,
validate-fdf, pipeline.  Reports default to JSON (sorted keys, so output
is reproducible); CSV covers the enumeration maxima table; text gives a
one-screen summary.

Exit codes: 0 all checks pass, 1 usage or I/O error, 2 a mathematical
check failed (a violation, a failed chain link, or an indeterminate
certificate -- worth a bug report either way).

The payloads of lagrangian, reduce and pipeline come from the report
builders of trilag.lagrangian; this module parses arguments, makes the
text lines, emits reports and picks exit codes.  numpy serves only
optimize, enumerate and validate-fdf: their commands import trilag.simplex
and trilag.harness when they run, so the exact commands start without numpy.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .certify import CERTIFIED, certify
from .fileio import ParseError, _content_lines, _read_text, parse_graph, parse_graph_text, parse_weights
from .graphs import OrientedGraph, build_bf, build_cf, build_f, edge_density, underlying
from .lagrangian import lagrangian_report, pipeline_report, reduce_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH_FAIL = 2


def _emit(payload, args, text_lines, csv_rows=None) -> None:
    if args.format == "json":
        rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in csv_rows:
            writer.writerow(row)
        rendered = buf.getvalue()
    else:
        rendered = "\n".join(text_lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)


def _cmd_construct(args) -> int:
    g = parse_graph(args.graph)
    if isinstance(g, OrientedGraph):
        f, cf = build_f(g), build_cf(g)
        bf = build_bf(underlying(g))
        payload = {
            "input": "digraph",
            "n": g.n,
            "f_triples": sorted(f),
            "cf_triples": sorted(cf),
            "bf_triples": sorted(bf),
            "cf_density": str(edge_density(g.n, cf)) if g.n >= 3 else None,
        }
        text = [
            f"digraph on {g.n} vertices",
            f"F  triples: {sorted(f)}",
            f"CF triples: {sorted(cf)}",
            f"BF triples: {sorted(bf)}",
        ]
    else:
        bf = build_bf(g)
        payload = {
            "input": "graph",
            "n": g.n,
            "bf_triples": sorted(bf),
            "bf_density": str(edge_density(g.n, bf)) if g.n >= 3 else None,
        }
        text = [f"graph on {g.n} vertices", f"BF triples: {sorted(bf)}"]
    _emit(payload, args, text_lines=text)
    return EXIT_OK


def _cmd_lagrangian(args) -> int:
    g = parse_graph(args.graph)
    report = lagrangian_report(g, parse_weights(args.weights, expected_n=g.n))
    labels = {"lagrangian_cf": "L_CF", "lagrangian_bf_underlying": "L_BF(underlying)", "lagrangian_bf": "L_BF"}
    _emit(report, args, text_lines=[f"{labels[key]} = {terms['value']}" for key, terms in report.items()])
    return EXIT_OK


def _cmd_reduce(args) -> int:
    g = parse_graph(args.graph)
    report = reduce_report(g, parse_weights(args.weights, expected_n=g.n))
    text = [
        f"merges: {len(report['trace'])}, final complete graph order {report['final_order']}",
        f"final L_BF = {report['final_lagrangian']}",
        f"monotone: {report['monotone']}",
    ]
    _emit(report, args, text_lines=text)
    return EXIT_OK if report["monotone"] else EXIT_MATH_FAIL


def _cmd_optimize(args) -> int:
    from .simplex import maximize

    result = maximize(args.n, restarts=args.restarts, seed=args.seed, tol=args.tol)
    payload = {
        "n": result.n,
        "value": float(result.value),
        "value_exact": str(result.value),
        "point": list(result.point),
        "exact_point": [str(v) for v in result.exact_point],
        "restarts": result.restarts,
        "seed": result.seed,
        "residual": result.residual,
        "converged": result.converged,
        "stats": {
            "iterations": result.iterations,
            "restarts_converged": result.restarts_converged,
        },
    }
    text = [
        f"n={result.n}: max ~ {float(result.value):.12f} (exact {result.value})",
        f"argmax ~ {tuple(round(v, 6) for v in result.point)}",
    ]
    _emit(payload, args, text_lines=text)
    return EXIT_OK


def _cmd_certify(args) -> int:
    cert = certify()
    text = [
        f"result: {cert.result}",
        f"simplices processed: {cert.simplices_processed}, leaves: {len(cert.leaves)}, "
        f"max depth reached: {cert.max_depth_reached}",
    ]
    _emit(cert.to_jsonable(), args, text_lines=text)
    return EXIT_OK if cert.result == CERTIFIED else EXIT_MATH_FAIL


def _cmd_enumerate(args) -> int:
    from .harness import enumerate_orientations

    report = enumerate_orientations(args.n)
    density_at = report["max_cf_density_witness"]["index"]
    lcf_at = report["max_uniform_lcf_witness"]["index"]
    violations = len(report["violations"])
    csv_rows = [
        ["n", "count", "max_cf_density", "max_cf_density_witness",
         "max_uniform_lcf", "max_uniform_lcf_witness", "violations"],
        [report["n"], report["count"], report["max_cf_density"], density_at,
         report["max_uniform_lcf"], lcf_at, violations],
    ]
    text = [
        f"n={report['n']}: {report['count']} orientations, {violations} violations",
        f"max CF density {report['max_cf_density']} at index {density_at}",
        f"max uniform L_CF {report['max_uniform_lcf']} at index {lcf_at}",
    ]
    _emit(report, args, text_lines=text, csv_rows=csv_rows)
    return EXIT_OK if not violations else EXIT_MATH_FAIL


def _cmd_validate_fdf(args) -> int:
    from .harness import validate_fdf_family

    report = validate_fdf_family(args.n)
    text = [
        f"n={report['n']}: {report['c4_free_count']} C4-free orientations of {report['count']}, "
        f"{len(report['counterexamples'])} counterexamples",
    ]
    _emit(report, args, text_lines=text)
    return EXIT_OK if not report["counterexamples"] else EXIT_MATH_FAIL


def _cmd_pipeline(args) -> int:
    source = _read_text(args.graph)  # read once: a pipe cannot be read again
    g = parse_graph_text(source, args.graph)
    if not isinstance(g, OrientedGraph):
        # cite the header, the first content line
        raise ParseError(args.graph, next(_content_lines(source))[0], "pipeline expects a digraph")
    w = parse_weights(args.weights, expected_n=g.n)
    report = pipeline_report(g, w)
    chain = " <= ".join(
        [report["lagrangian_cf"], report["lagrangian_bf"], report["closed_form_value"],
         report["trivariate_value"], report["bound"]]
    )
    text = [f"chain: {chain}"] + [
        f"  {'PASS' if link['pass'] else 'FAIL'} {link['name']}" for link in report["links"]
    ]
    _emit(report, args, text_lines=text)
    return EXIT_OK if report["all_pass"] else EXIT_MATH_FAIL


GLOBAL_DEFAULTS = {"format": "json", "out": None, "seed": 0}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage, but 2 means a failed mathematical check here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _global_flags() -> argparse.ArgumentParser:
    """Flags accepted both before and after the subcommand."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS, help="write the report to this path")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    return common


@functools.cache  # built once, on the first main call: a build costs about 2 ms
def build_parser() -> argparse.ArgumentParser:
    common = _global_flags()
    parser = _Parser(
        prog="trilag",
        description="Exact toolkit for 3-graph Lagrangian bounds and their certification.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add("construct", help="build F/CF/BF triple systems from a graph file")
    p.add_argument("graph")
    p.set_defaults(run=_cmd_construct)

    p = add("lagrangian", help="evaluate the Lagrangians at given weights")
    p.add_argument("graph")
    p.add_argument("weights")
    p.set_defaults(run=_cmd_lagrangian)

    p = add("reduce", help="symmetrize to a complete graph, tracing each merge")
    p.add_argument("graph")
    p.add_argument("weights")
    p.set_defaults(run=_cmd_reduce)

    p = add("optimize", help="maximize the closed form on the simplex")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(run=_cmd_optimize)

    p = add("certify", help="simplex Bernstein positivity certificate for 3/32 - g on D")
    p.set_defaults(run=_cmd_certify)

    p = add("enumerate", help="exhaustive checks over all labeled orientations")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_enumerate)

    p = add("validate-fdf", help="independent-4-set check for C4-free orientations")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_validate_fdf)

    p = add("pipeline", help="full inequality chain on one instance")
    p.add_argument("graph")
    p.add_argument("weights")
    p.set_defaults(run=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv, argparse.Namespace(**GLOBAL_DEFAULTS))
    if args.format == "csv" and args.subcommand != "enumerate":
        # refused before the command runs: only the enumeration maxima have a table
        print(f"error: csv format not supported for {args.subcommand}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.run(args)
    # ValueError covers ParseError; MemoryError a batch too large to allocate
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
