"""Command-line front end.

Each command takes only the options its handler reads (see ``_COMMANDS``);
any other option is a usage error. Commands that read graphs take edge-list
text from --in (or stdin). A handler returns its result and exit code, and
`main` writes the result to --out (or stdout): one JSON document, to which it
adds the "command", "schema" and "timing" keys, or for `construct` edge-list
text that can feed straight back into the other commands. Wall-clock time
lives under the "timing" key only, keeping the rest of the document
byte-reproducible. Warnings, like errors, go to stderr as ``kdom: <message>``.

Exit codes: 0 success; 1 fuzz found an invariant violation; 2 malformed
input or an option the command does not take; 3 a search budget ran out
where exactness was required; 4 an internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

from .bounds import bounds_report, product_bound_check
from .constructions import (
    clique_expanded_path,
    cycle,
    cycle_outsider_witness,
    direct_product,
    path,
    preserving_spanning_tree,
)
from .errors import BudgetExceeded, KdomError
from .fuzz import fuzz as run_fuzz
from .graph import INF, Graph
from .io import parse_edge_list, serialize_edge_list
from .solver import DEFAULT_BUDGET_NODES, DEFAULT_BUDGET_SECONDS, gamma_k_exact


def _parse_k_list(text: str) -> list[int]:
    try:
        ks = sorted({int(part) for part in text.split(",") if part.strip()})
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--k expects a comma-separated integer list, got {text!r}") from None
    if not ks or ks[0] < 1:
        raise argparse.ArgumentTypeError("--k values must be >= 1")
    return ks


def _read_graphs(args, expected: int) -> list[Graph]:
    paths = args.inputs or []
    if expected == 1 and not paths:
        return [parse_edge_list(sys.stdin.read(), strict=args.strict)]
    if len(paths) != expected:
        raise ValueError(f"this command needs exactly {expected} --in graph(s)")
    graphs = []
    for p in paths:
        text = sys.stdin.read() if p == "-" else Path(p).read_text(encoding="utf-8")
        graphs.append(parse_edge_list(text, strict=args.strict))
    return graphs


def _budget(args) -> dict:
    return {"budget_nodes": args.budget_nodes, "budget_seconds": args.budget_seconds}


def _finite(x: float) -> float | None:
    return None if x == INF else x


def _cmd_gamma(args) -> tuple[dict, int]:
    (g,) = _read_graphs(args, 1)
    certs = [gamma_k_exact(g, k, **_budget(args)) for k in args.k]
    doc = {"n": g.n, "m": g.m, "results": [c.to_dict() for c in certs]}
    if len(certs) == 1:
        doc["gamma_k"] = certs[0].value
        doc["status"] = certs[0].status
    return doc, 3 if args.require_exact and any(c.status != "Exact" for c in certs) else 0


def _cmd_metrics(args) -> tuple[dict, int]:
    (g,) = _read_graphs(args, 1)
    met = g.metrics()
    cyc = g.shortest_cycle()
    doc = {
        "n": g.n,
        "m": g.m,
        "min_degree": g.min_degree(),
        "max_degree": g.max_degree(),
        "connected": met.connected,
        "diameter": _finite(met.diameter),
        "radius": _finite(met.radius),
        "girth": _finite(met.girth),
        "eccentricity": [_finite(e) for e in met.ecc],
        "shortest_cycle": list(cyc) if cyc else None,
    }
    return doc, 0


def _cmd_bounds(args) -> tuple[dict, int]:
    (g,) = _read_graphs(args, 1)
    reports = [bounds_report(g, k, **_budget(args)) for k in args.k]
    doc = {"n": g.n, "m": g.m, "results": [r.to_dict() for r in reports]}
    inexact = any(r.exact.status != "Exact" for r in reports)
    return doc, 3 if args.require_exact and inexact else 0


def _cmd_product(args) -> tuple[dict, int]:
    g, h = _read_graphs(args, 2)
    reports = [product_bound_check(g, h, k, **_budget(args)) for k in args.k]
    doc = {
        "left_n": g.n,
        "right_n": h.n,
        "results": [r.to_dict() for r in reports],
    }
    return doc, 0


def _cmd_spanning_tree(args) -> tuple[dict, int]:
    (g,) = _read_graphs(args, 1)
    results = []
    for k in args.k:
        res = preserving_spanning_tree(g, k, **_budget(args))
        results.append(
            {
                "k": k,
                "gamma_k": res.certificate.value,
                "dominating_set": list(res.dominating_set),
                "partition": list(res.partition),
                "connectors": [list(e) for e in res.connectors],
                "tree": serialize_edge_list(res.tree),
            }
        )
    doc = {"n": g.n, "m": g.m, "results": results}
    return doc, 0


def _cmd_witness(args) -> tuple[dict, int]:
    (g,) = _read_graphs(args, 1)
    cyc = g.shortest_cycle()
    if cyc is None:
        raise KdomError("graph is acyclic: no shortest cycle to witness against")
    results = [
        {"k": k, **asdict(cycle_outsider_witness(g, cyc, args.vertex, k, adjacent=args.adjacent))}
        for k in args.k
    ]
    doc = {
        "cycle": list(cyc),
        "vertex": args.vertex,
        "results": results,
    }
    return doc, 0


def _cmd_construct(args) -> tuple[str, int]:
    if args.family != "product" and args.n is None:
        raise ValueError(f"--family {args.family} needs --n")
    if args.family == "path":
        g = path(args.n)
    elif args.family == "cycle":
        g = cycle(args.n)
    elif args.family == "clique-expanded":
        g = clique_expanded_path(args.n, args.delta)
    else:  # product
        left, right = _read_graphs(args, 2)
        g = direct_product(left, right)
    return serialize_edge_list(g), 0


def _cmd_fuzz(args) -> tuple[dict, int]:
    # node budget only: a wall-clock budget would make the report depend
    # on machine load, breaking byte-reproducibility
    report = run_fuzz(
        seed=args.seed,
        trials=args.trials,
        n_range=(args.n_min, args.n_max),
        p_range=(args.p_min, args.p_max),
        k_set=tuple(args.k),
        budget_nodes=args.budget_nodes,
    )
    return report.to_dict(), 1 if report.failures else 0


# Every option a command can take. Each command below lists the ones its
# handler reads and is given only those.
_OPTIONS = {
    "--in": dict(dest="inputs", action="append", metavar="PATH",
                 help="input edge-list file ('-' for stdin); repeatable"),
    "--out": dict(metavar="PATH", help="output file (default stdout)"),
    "--strict": dict(action=argparse.BooleanOptionalAction, default=True,
                     help="reject duplicate edges and self-loops in inputs"),
    "--k": dict(type=_parse_k_list, default=[1],
                help="comma-separated distance parameters (default %(default)s)"),
    "--budget-nodes": dict(type=int, default=DEFAULT_BUDGET_NODES),
    "--budget-seconds": dict(type=float, default=DEFAULT_BUDGET_SECONDS),
    "--require-exact": dict(action="store_true",
                            help="exit 3 unless every reported value is proven exact"),
    "--vertex": dict(type=int, required=True, help="the off-cycle vertex v"),
    "--adjacent": dict(action="store_true",
                       help="refine the witness pair to adjacent cycle vertices"),
    "--family": dict(required=True, choices=["path", "cycle", "clique-expanded", "product"]),
    "--n": dict(type=int, help="order (path/cycle) or backbone length (clique-expanded)"),
    "--delta": dict(type=int, default=1, help="clique size for clique-expanded"),
    "--seed": dict(type=int, default=0),
    "--trials": dict(type=int, default=100),
    "--n-min": dict(type=int, default=4),
    "--n-max": dict(type=int, default=12),
    "--p-min": dict(type=float, default=0.2),
    "--p-max": dict(type=float, default=0.6),
}
_GRAPH_IO = ("--in", "--out", "--strict")
_SOLVE = (*_GRAPH_IO, "--k", "--budget-nodes", "--budget-seconds")

# (name, handler, help, the options its handler reads)
_COMMANDS = (
    ("gamma", _cmd_gamma, "exact distance-k domination number", (*_SOLVE, "--require-exact")),
    ("metrics", _cmd_metrics, "eccentricities, diameter, radius, girth", _GRAPH_IO),
    ("bounds", _cmd_bounds, "all lower/upper bounds plus consistency verdict",
     (*_SOLVE, "--require-exact")),
    ("product", _cmd_product, "direct-product lower-bound check on two graphs", _SOLVE),
    ("spanning-tree", _cmd_spanning_tree, "domination-preserving spanning tree", _SOLVE),
    ("witness", _cmd_witness, "two-path witness for a vertex off a shortest cycle",
     (*_GRAPH_IO, "--k", "--vertex", "--adjacent")),
    ("construct", _cmd_construct, "emit a generated graph as edge-list text",
     (*_GRAPH_IO, "--family", "--n", "--delta")),
    ("fuzz", _cmd_fuzz, "randomized invariant suite; exit 1 on any failure",
     ("--out", "--k", "--budget-nodes", "--seed", "--trials", "--n-min", "--n-max", "--p-min", "--p-max")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdom",
        description="Distance-k domination: exact solving, bounds, constructions, fuzzing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(func=func)
    sub.choices["fuzz"].set_defaults(k=[1, 2])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        with warnings.catch_warnings():  # each library warning becomes one "kdom: ..." line
            warnings.simplefilter("always", UserWarning)
            warnings.showwarning = lambda message, *_: print(f"kdom: {message}", file=sys.stderr)
            output, code = args.func(args)
        if isinstance(output, dict):  # every command but construct
            output["command"] = args.command
            output["schema"] = "kdom/1"
            output["timing"] = {"seconds": round(time.monotonic() - started, 6)}
            output = json.dumps(output, sort_keys=True, indent=2) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
        else:
            sys.stdout.write(output)
        return code
    except BudgetExceeded as exc:
        print(f"kdom: {exc}", file=sys.stderr)
        return 3
    except (KdomError, ValueError, OSError) as exc:
        print(f"kdom: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, never to be read as exit 1 (fuzz violation)
        print(f"kdom: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
