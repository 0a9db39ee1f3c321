"""Batch front end: generate instances, run algorithms, verify artifacts,
and benchmark manifests into CSV.

Exit codes: 0 success, 2 verification failure, 3 parameter error,
4 resource-cap refusal.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

from .graphs import INF, WeightedGraph, content_lines, format_rational, parse_rational, read_graph, stretch, write_graph
from .greedy import greedy_spanner
from .hardness import read_sat, reduce_sat, write_sidecar
from .instances import gen_greedy_hard, gen_ladder, gen_multiladder
from .oracle import DEFAULT_MAX_EDGES, OracleCapError, exact_opt_spanner
from .prune import DEFAULT_CELL_CAP, CellCapError, iterate_prune, prune, prune_with_scaling

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_PARAM = 3
EXIT_CAP = 4

ALGORITHMS = ("greedy", "prune", "iterate", "scaled", "oracle")
MANIFEST_KEYS = ("eps", "t", "initial", "max_edges", "cell_cap")


class ParameterError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit code 3
        raise ParameterError(message)


def _frac(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ArithmeticError) as exc:
        raise ParameterError(f"bad rational {text!r}: {exc}") from exc


def _dec_str(x) -> str:
    """x in the `.6g` shape: through float wherever a normal float holds x,
    else rounded exactly from the Fraction (``1e+400``, ``1e-400``)."""
    if x is INF:
        return "inf"
    x = Fraction(x)
    if not x or sys.float_info.min <= abs(x) <= sys.float_info.max:
        return f"{float(x):.6g}"
    import decimal  # only beyond float range, so importing the CLI stays cheap

    ctx = decimal.Context(prec=6, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    exact = ctx.divide(decimal.Decimal(x.numerator), decimal.Decimal(x.denominator))
    return f"{ctx.normalize(exact):.6g}"


def _spanner_fields(g: WeightedGraph, h: WeightedGraph) -> dict:
    """The weight and stretch fields of a report row for spanner h of g."""
    s = stretch(g, h)
    return {
        "weight": format_rational(h.total_weight),
        "weight_decimal": _dec_str(h.total_weight),
        "stretch": format_rational(s),
        "stretch_decimal": _dec_str(s),
    }


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once: parsing never changes it."""
    p = _Parser(prog="spannerlab")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    gsub = g.add_subparsers(dest="family", required=True)
    lad = gsub.add_parser("ladder")
    lad.add_argument("--n", type=int, required=True)
    lad.add_argument("--eps", required=True)
    lad.add_argument("--perturb", action="store_true")
    lad.add_argument("--out", required=True)
    mul = gsub.add_parser("multiladder")
    mul.add_argument("--k", type=int, required=True)
    mul.add_argument("--n", type=int, required=True)
    mul.add_argument("--eps", required=True)
    mul.add_argument("--perturb", action="store_true")
    mul.add_argument("--out", required=True)
    gh = gsub.add_parser("greedyhard")
    gh.add_argument("--eps", required=True)
    gh.add_argument("--x", required=True)
    gh.add_argument("--out", required=True)
    sat = gsub.add_parser("sat")
    sat.add_argument("--in", dest="formula", required=True)
    sat.add_argument("--eps", required=True)
    sat.add_argument("--out", required=True)
    sat.add_argument("--sidecar", default=None, help="defaults to OUT + '.json'")

    r = sub.add_parser("run", help="run an algorithm on a graph file")
    r.add_argument("algorithm", choices=ALGORITHMS)
    r.add_argument("graph")
    r.add_argument("--eps", default=None)
    r.add_argument("--t", default=None, help="stretch target for greedy (default 1+eps)")
    r.add_argument("--initial", default=None, help="initial spanner file for prune/iterate")
    r.add_argument("--max-edges", type=int, default=DEFAULT_MAX_EDGES)
    r.add_argument("--cell-cap", type=int, default=DEFAULT_CELL_CAP)
    r.add_argument("--out", default=None, help="spanner edge-list output (default: GRAPH's file name plus .ALGORITHM.spanner, in the current directory)")
    r.add_argument("--report", default=None, help="JSON report output")

    v = sub.add_parser("verify", help="recheck a spanner file against its graph")
    v.add_argument("graph")
    v.add_argument("spanner")
    v.add_argument("--eps", required=True)

    b = sub.add_parser("bench", help="run a manifest of (graph, algorithm, params) rows")
    b.add_argument("manifest")
    b.add_argument("--out", default=None, help="CSV output (default stdout)")
    return p


def _cmd_gen(args) -> int:
    if args.family == "ladder":
        g = gen_ladder(args.n, _frac(args.eps), perturb=args.perturb)
    elif args.family == "multiladder":
        g = gen_multiladder(args.k, args.n, _frac(args.eps), perturb=args.perturb)
    elif args.family == "greedyhard":
        g = gen_greedy_hard(_frac(args.eps), _frac(args.x))
    else:
        inst = read_sat(args.formula)
        out = reduce_sat(inst, _frac(args.eps))
        write_graph(out.graph, args.out)
        write_sidecar(out, args.sidecar or args.out + ".json")
        print(f"wrote {args.out} ({out.graph.n} vertices, {out.graph.m} edges), W={format_rational(out.W)}")
        return EXIT_OK
    write_graph(g, args.out)
    print(f"wrote {args.out} ({g.n} vertices, {g.m} edges)")
    return EXIT_OK


def _run_algorithm(algorithm: str, g: WeightedGraph, args) -> tuple[WeightedGraph, dict]:
    """Returns the spanner (a subgraph of g) and algorithm-specific log data;
    pruning logs give weights in units of 1/scale."""
    extra: dict = {}
    for name, value, least in (("cell cap", args.cell_cap, 1), ("max edges", args.max_edges, 0)):
        if value < least:
            raise ParameterError(f"{name} must be at least {least}, got {value}")
    if algorithm == "greedy":
        t = _frac(args.t) if args.t else 1 + _frac(args.eps or "0")
        if t <= 1:
            raise ParameterError("greedy needs --t > 1 or --eps > 0")
        _refuse_unread(algorithm, args)
        return greedy_spanner(g, t), {"t": format_rational(t)}
    if algorithm == "oracle":
        if args.eps is None:
            raise ParameterError("oracle needs --eps")
        eps = _frac(args.eps)
        if eps < 0:
            raise ParameterError(f"oracle needs --eps >= 0, got {args.eps}")
        _refuse_unread(algorithm, args)
        res = exact_opt_spanner(g, eps, max_edges=args.max_edges)
        return g.subgraph(res.opt_edges), {"nodes_explored": res.nodes_explored}
    if args.eps is None:
        raise ParameterError(f"{algorithm} needs --eps")
    eps = _frac(args.eps)
    if eps <= 0:
        raise ParameterError(f"{algorithm} needs --eps > 0, got {args.eps}")
    _refuse_unread(algorithm, args)
    initial = g.subgraph(read_graph(args.initial).edge_keys) if args.initial else None
    extra["scale"] = format_rational(g.scale)
    if algorithm == "prune":
        h0 = greedy_spanner(g, 1 + eps) if initial is None else initial
        h1, state = prune(g, h0, eps, cell_cap=args.cell_cap)
        extra["rounds"] = [r.as_dict() for r in state.rounds]
        return h1, extra
    if algorithm == "iterate":
        h, logs, states = iterate_prune(g, eps, initial_spanner=initial, cell_cap=args.cell_cap)
        extra["iterations"] = [entry.as_dict() for entry in logs]
        extra["rounds"] = [r.as_dict() for st in states for r in st.rounds]
        return h, extra
    # "scaled": both callers admit only the names in ALGORITHMS
    h, log = prune_with_scaling(g, eps, cell_cap=args.cell_cap)
    extra["iterations"] = [entry.as_dict() for entry in log.iterations]
    extra["contracted"] = log.inner_stretch is not None
    if log.inner_stretch is not None:
        extra["inner_stretch"] = format_rational(log.inner_stretch)
    return h, extra


def _refuse_unread(algorithm: str, args) -> None:
    """A flag the algorithm would ignore is a parameter error; called after
    the algorithm's own checks, so their messages come first."""
    if args.initial is not None and algorithm not in ("prune", "iterate"):
        raise ParameterError(f"{algorithm} takes no --initial; only prune and iterate start from one")
    if args.t is not None and algorithm != "greedy":
        raise ParameterError(f"{algorithm} takes no --t; only greedy does")
    if args.t is not None and args.eps is not None:
        raise ParameterError("greedy takes no --eps with --t; it reads --eps only as t = 1 + eps")


def _cmd_run(args) -> int:
    g = read_graph(args.graph)
    started = time.perf_counter()
    spanner, extra = _run_algorithm(args.algorithm, g, args)
    elapsed = time.perf_counter() - started
    out_path = args.out or (Path(args.graph).name + f".{args.algorithm}.spanner")
    write_graph(spanner, out_path)

    # re-verify from the emitted file rather than trusting in-memory state
    emitted = read_graph(out_path)
    report = {
        "instance": {"file": args.graph, "n": g.n, "m": g.m},
        "algorithm": args.algorithm,
        "params": {"eps": args.eps, "t": args.t},
        "spanner_file": str(out_path),
        **_spanner_fields(g, emitted),
        "wall_time_s": round(elapsed, 6),
    }
    report.update(extra)
    text = json.dumps(report, indent=2)
    if args.report:
        Path(args.report).write_text(text + "\n")
    print(text)
    if report["stretch"] == format_rational(INF):
        print("verification failed: the spanner leaves some edge's endpoints disconnected (stretch inf)", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = read_graph(args.graph)
    h = read_graph(args.spanner)
    eps = _frac(args.eps)
    if eps < 0:
        raise ParameterError(f"verify needs --eps >= 0, got {args.eps}")
    try:
        s = stretch(g, h)  # its only ValueError: h is no subgraph of g
    except ValueError:
        raise ParameterError("spanner file is not a subgraph of the graph file") from None
    ok = s is not INF and s <= 1 + eps
    print(
        json.dumps(
            {
                "ok": ok,
                "stretch": format_rational(s),
                "weight": format_rational(h.total_weight),
            }
        )
    )
    return EXIT_OK if ok else EXIT_VERIFY


def _parse_manifest(text: str):
    """Each row as its params (key -> value) and its arguments as `run`
    parses them: the row `graph algorithm max_edges=5 ...` is parsed as
    `run --max-edges=5 ... -- algorithm graph`, so it gets `run`'s defaults
    and checks, and a graph path may start with `-`."""
    rows = []
    for line in content_lines(text):
        parts = line.split()
        if len(parts) < 2:
            raise ParameterError(f"manifest line needs 'graph algorithm [k=v ...]': {line!r}")
        if parts[1] not in ALGORITHMS:
            known = ", ".join(ALGORITHMS)
            raise ParameterError(f"unknown algorithm {parts[1]!r}; expected one of {known}")
        params = {}
        for kv in parts[2:]:
            if "=" not in kv:
                raise ParameterError(f"bad manifest parameter {kv!r}")
            k, v = kv.split("=", 1)
            if k not in MANIFEST_KEYS:
                known = ", ".join(MANIFEST_KEYS)
                raise ParameterError(f"unknown manifest parameter {k!r}; expected one of {known}")
            params[k] = v
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in params.items()]
        rows.append((params, build_parser().parse_args(["run", *flags, "--", parts[1], parts[0]])))
    return rows


def _cmd_bench(args) -> int:
    rows = _parse_manifest(Path(args.manifest).read_text())
    results = []
    keys = []  # (instance, eps) of each row; a greedy row's eps is t - 1
    for params, run in rows:
        g = read_graph(run.graph)
        started = time.perf_counter()
        h, extra = _run_algorithm(run.algorithm, g, run)
        elapsed = time.perf_counter() - started
        results.append(
            {
                "instance": run.graph,
                "algorithm": run.algorithm,
                "params": " ".join(f"{k}={v}" for k, v in sorted(params.items())),
                **_spanner_fields(g, h),
                "wall_time_s": f"{elapsed:.6f}",
            }
        )
        keys.append((run.graph, Fraction(extra["t"]) - 1 if run.algorithm == "greedy" else _frac(run.eps)))
    oracle_weight = {
        key: Fraction(r["weight"]) for key, r in zip(keys, results) if r["algorithm"] == "oracle"
    }
    for key, r in zip(keys, results):
        base = oracle_weight.get(key)
        if base is not None and base != 0:
            ratio = Fraction(r["weight"]) / base
            r["oracle_ratio"] = format_rational(ratio)
            r["oracle_ratio_decimal"] = _dec_str(ratio)
        else:
            r["oracle_ratio"] = ""
            r["oracle_ratio_decimal"] = ""

    fields = [
        "instance",
        "algorithm",
        "params",
        "weight",
        "weight_decimal",
        "stretch",
        "stretch_decimal",
        "oracle_ratio",
        "oracle_ratio_decimal",
        "wall_time_s",
    ]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    writer.writerows(results)
    if args.out:
        Path(args.out).write_text(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return EXIT_OK


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    # warnings print as one plain line instead of the source location; the
    # caller's filters stay active, so an ignored warning stays silent
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        return _main(argv)


def _main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_bench(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAM
    except (CellCapError, OracleCapError) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM


if __name__ == "__main__":
    sys.exit(main())
