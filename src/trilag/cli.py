"""Command-line front end: one table of commands, read by a plain argv scan.

Each COMMANDS row gives a command's positionals, whether it requires --n,
its help line and its handler; --format, --out and --seed go before or
after the command, and the last one given wins.  Reports default to JSON
(sorted keys, one line from json's C encoder); CSV covers the enumeration
maxima table; text gives a one-screen summary.

Exit codes: 0 all checks pass, 1 usage or I/O error, 2 a mathematical
check failed (a violation, a failed chain link, or an indeterminate
certificate -- worth a bug report either way).  The payloads come from
the report builders of trilag.lagrangian (lagrangian, reduce, pipeline),
trilag.simplex.maximize (optimize), trilag.harness (enumerate and
validate-fdf) and trilag.certify.certify (certify); construct's payload is
built here, from the triple systems of trilag.graphs.  Only optimize,
enumerate and validate-fdf load numpy, importing trilag.simplex or
trilag.harness when they run.
"""

from __future__ import annotations

import io
import json
import sys
import types

from .certify import CERTIFIED, certify
from .fileio import ParseError, _content_lines, _read_text, parse_graph, parse_graph_text, parse_weights
from .graphs import OrientedGraph, build_bf, build_cf, build_f, edge_density, underlying
from .lagrangian import lagrangian_report, pipeline_report, reduce_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH_FAIL = 2


def _emit(payload, args, text_lines, csv_rows=None) -> None:
    if args.format == "json":
        rendered = json.dumps(payload, sort_keys=True) + "\n"  # no indent: json runs its C encoder only without one
    elif args.format == "csv":
        import csv

        buf = io.StringIO()
        csv.writer(buf).writerows(csv_rows)
        rendered = buf.getvalue()
    else:
        rendered = "\n".join(text_lines) + "\n"
    if args.out is not None:  # an empty path fails to open like any other
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)


def _cmd_construct(args) -> int:
    g = parse_graph(args.graph)
    if isinstance(g, OrientedGraph):
        f, cf, bf = sorted(build_f(g)), sorted(build_cf(g)), sorted(build_bf(underlying(g)))
        payload = {
            "input": "digraph",
            "n": g.n,
            "f_triples": f,
            "cf_triples": cf,
            "bf_triples": bf,
            "cf_density": str(edge_density(g.n, cf)) if g.n >= 3 else None,
        }
        text = [
            f"digraph on {g.n} vertices",
            f"F  triples: {f}",
            f"CF triples: {cf}",
            f"BF triples: {bf}",
        ]
    else:
        bf = sorted(build_bf(g))
        payload = {
            "input": "graph",
            "n": g.n,
            "bf_triples": bf,
            "bf_density": str(edge_density(g.n, bf)) if g.n >= 3 else None,
        }
        text = [f"graph on {g.n} vertices", f"BF triples: {bf}"]
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

    report = maximize(args.n, seed=args.seed)
    text = [
        f"n={report['n']}: max ~ {report['value']:.12f} (exact {report['value_exact']})",
        f"argmax ~ {tuple(round(v, 6) for v in report['point'])}",
    ]
    _emit(report, args, text_lines=text)
    return EXIT_OK


def _cmd_certify(args) -> int:
    report = certify()
    text = [
        f"result: {report['result']}",
        f"degree: {report['degree']}, coefficients: {report['coefficients']}, "
        f"least: {report['least']} at {tuple(report['least_at'])}",
    ]
    _emit(report, args, text_lines=text)
    return EXIT_OK if report["result"] == CERTIFIED else EXIT_MATH_FAIL


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
GLOBAL_FLAGS = tuple(f"--{name}" for name in GLOBAL_DEFAULTS)
FORMATS = ("json", "csv", "text")

# name: (positionals, whether it takes --n, which it then requires; help; handler)
COMMANDS = {
    "construct": (("graph",), False, "build F/CF/BF triple systems from a graph file", _cmd_construct),
    "lagrangian": (("graph", "weights"), False, "evaluate the Lagrangians at given weights", _cmd_lagrangian),
    "reduce": (("graph", "weights"), False, "symmetrize to a complete graph, tracing each merge", _cmd_reduce),
    "optimize": ((), True, "maximize the closed form on the simplex", _cmd_optimize),
    "certify": ((), False, "Bernstein certificate of 3/32 - g >= 0 on D by degree elevation", _cmd_certify),
    "enumerate": ((), True, "exhaustive checks over all labeled orientations", _cmd_enumerate),
    "validate-fdf": ((), True, "independent-4-set check for C4-free orientations", _cmd_validate_fdf),
    "pipeline": (("graph", "weights"), False, "full inequality chain on one instance", _cmd_pipeline),
}
USAGE = "usage: trilag [-h] [--format {json,csv,text}] [--out PATH] [--seed N] <command> ..."


def _usage_error(message):
    sys.stderr.write(f"{USAGE}\ntrilag: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _is_flag(token) -> bool:
    """A dash starts a flag, except a lone "-" and a negative integer such as a --seed value."""
    return token[:1] == "-" and token != "-" and not token[1:].isdigit()


def _parse(argv):
    """(args, handler) of argv; exits 1 on a usage error and 0 after --help."""
    args = types.SimpleNamespace(**GLOBAL_DEFAULTS, subcommand=None, n=None)
    flags, positionals = GLOBAL_FLAGS, []
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            rows = [f"  {' '.join([name, *map(str.upper, names)]) + ' --n N' * takes_n:<26}{text}"
                    for name, (names, takes_n, text, _) in COMMANDS.items()]
            print(USAGE, "--format, --out and --seed go before or after the command.", "commands:", *rows, sep="\n")
            raise SystemExit(EXIT_OK)
        if not _is_flag(token):
            if args.subcommand is not None:
                positionals.append(token)
            elif token in COMMANDS:
                args.subcommand = token
                flags = GLOBAL_FLAGS + ("--n",) * COMMANDS[token][1]
            else:
                _usage_error(f"invalid command {token!r} (choose from {', '.join(COMMANDS)})")
            continue
        flag, eq, value = token.partition("=")  # --flag=value or --flag value
        if flag not in flags:
            _usage_error(f"unrecognized arguments: {token}")
        if not eq:
            value = next(tokens, None)
            if value is None or _is_flag(value):
                _usage_error(f"argument {flag}: expected one argument")
        if flag == "--format" and value not in FORMATS:
            _usage_error(f"argument --format: invalid choice {value!r} (choose from {', '.join(FORMATS)})")
        elif flag in ("--n", "--seed"):
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"argument {flag}: invalid int value {value!r}")
        setattr(args, flag[2:], value)
    if args.subcommand is None:
        _usage_error(f"a command is required (choose from {', '.join(COMMANDS)})")
    names, takes_n, _, run = COMMANDS[args.subcommand]
    if len(positionals) > len(names):
        _usage_error(f"unrecognized arguments: {' '.join(positionals[len(names):])}")
    if len(positionals) < len(names) or takes_n and args.n is None:
        _usage_error(f"the following arguments are required: {', '.join(names[len(positionals):]) or '--n'}")
    vars(args).update(zip(names, positionals))
    return args, run


def main(argv=None) -> int:
    args, run = _parse(sys.argv[1:] if argv is None else argv)
    if args.format == "csv" and args.subcommand != "enumerate":
        # refused before the command runs: only the enumeration maxima have a table
        print(f"error: csv format not supported for {args.subcommand}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return run(args)
    # ValueError covers ParseError; MemoryError a batch too large to allocate
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
