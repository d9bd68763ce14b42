"""Command-line front end.

Commands read edge-list text from --in (or stdin) and write one JSON document
to --out (or stdout); `construct` writes edge-list text instead so its output
can feed straight back into the other commands. Wall-clock time lives under
the "timing" key only, keeping the rest of the document byte-reproducible.

Exit codes: 0 success; 1 fuzz found an invariant violation; 2 malformed
input; 3 a search budget ran out where exactness was required; 4 an
internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
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
        raise ValueError(f"--k expects a comma-separated integer list, got {text!r}") from None
    if not ks or ks[0] < 1:
        raise ValueError("--k values must be >= 1")
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


def _emit(args, document: dict, started: float) -> None:
    document["schema"] = "kdom/1"
    document["timing"] = {"seconds": round(time.monotonic() - started, 6)}
    text = json.dumps(document, sort_keys=True, indent=2) + "\n"
    _write(args, text)


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _budget(args) -> dict:
    return {"budget_nodes": args.budget_nodes, "budget_seconds": args.budget_seconds}


def _finite(x: float) -> float | None:
    return None if x == INF else x


def _cmd_gamma(args) -> int:
    started = time.monotonic()
    (g,) = _read_graphs(args, 1)
    certs = [gamma_k_exact(g, k, **_budget(args)) for k in args.k]
    doc = {"command": "gamma", "n": g.n, "m": g.m, "results": [c.to_dict() for c in certs]}
    if len(certs) == 1:
        doc["gamma_k"] = certs[0].value
        doc["status"] = certs[0].status
    _emit(args, doc, started)
    if args.require_exact and any(c.status != "Exact" for c in certs):
        return 3
    return 0


def _cmd_metrics(args) -> int:
    started = time.monotonic()
    (g,) = _read_graphs(args, 1)
    met = g.metrics()
    cyc = g.shortest_cycle()
    doc = {
        "command": "metrics",
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
    _emit(args, doc, started)
    return 0


def _cmd_bounds(args) -> int:
    started = time.monotonic()
    (g,) = _read_graphs(args, 1)
    reports = [bounds_report(g, k, **_budget(args)) for k in args.k]
    doc = {"command": "bounds", "n": g.n, "m": g.m, "results": [r.to_dict() for r in reports]}
    _emit(args, doc, started)
    if args.require_exact and any(
        r.exact is None or r.exact.status != "Exact" for r in reports
    ):
        return 3
    return 0


def _cmd_product(args) -> int:
    started = time.monotonic()
    g, h = _read_graphs(args, 2)
    reports = [product_bound_check(g, h, k, **_budget(args)) for k in args.k]
    doc = {
        "command": "product",
        "left_n": g.n,
        "right_n": h.n,
        "results": [r.to_dict() for r in reports],
    }
    _emit(args, doc, started)
    return 0


def _cmd_spanning_tree(args) -> int:
    started = time.monotonic()
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
    doc = {"command": "spanning-tree", "n": g.n, "m": g.m, "results": results}
    _emit(args, doc, started)
    return 0


def _cmd_witness(args) -> int:
    started = time.monotonic()
    (g,) = _read_graphs(args, 1)
    cyc = g.shortest_cycle()
    if cyc is None:
        raise KdomError("graph is acyclic: no shortest cycle to witness against")
    results = []
    for k in args.k:
        wit = cycle_outsider_witness(g, cyc, args.vertex, k, adjacent=args.adjacent)
        results.append(
            {
                "k": k,
                "u": wit.u,
                "w": wit.w,
                "path_u": list(wit.path_u),
                "path_w": list(wit.path_w),
            }
        )
    doc = {
        "command": "witness",
        "cycle": list(cyc),
        "vertex": args.vertex,
        "results": results,
    }
    _emit(args, doc, started)
    return 0


def _cmd_construct(args) -> int:
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
    _write(args, serialize_edge_list(g))
    return 0


def _cmd_fuzz(args) -> int:
    started = time.monotonic()
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
    doc = report.to_dict()
    doc["command"] = "fuzz"
    _emit(args, doc, started)
    return 1 if report.failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdom",
        description="Distance-k domination: exact solving, bounds, constructions, fuzzing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, k_default="1"):
        p.add_argument("--in", dest="inputs", action="append", metavar="PATH",
                       help="input edge-list file ('-' for stdin); repeatable")
        p.add_argument("--out", default=None, metavar="PATH", help="output file (default stdout)")
        p.add_argument("--k", type=_parse_k_list, default=_parse_k_list(k_default),
                       help="comma-separated distance parameters (default %(default)s)")
        p.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True,
                       help="reject duplicate edges and self-loops in inputs")
        p.add_argument("--budget-nodes", type=int, default=DEFAULT_BUDGET_NODES)
        p.add_argument("--budget-seconds", type=float, default=DEFAULT_BUDGET_SECONDS)
        p.add_argument("--require-exact", action="store_true",
                       help="exit 3 unless every reported value is proven exact")

    p = sub.add_parser("gamma", help="exact distance-k domination number")
    common(p)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("metrics", help="eccentricities, diameter, radius, girth")
    common(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("bounds", help="all lower/upper bounds plus consistency verdict")
    common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("product", help="direct-product lower-bound check on two graphs")
    common(p)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("spanning-tree", help="domination-preserving spanning tree")
    common(p)
    p.set_defaults(func=_cmd_spanning_tree)

    p = sub.add_parser("witness", help="two-path witness for a vertex off a shortest cycle")
    common(p)
    p.add_argument("--vertex", type=int, required=True, help="the off-cycle vertex v")
    p.add_argument("--adjacent", action="store_true",
                   help="refine the witness pair to adjacent cycle vertices")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("construct", help="emit a generated graph as edge-list text")
    common(p)
    p.add_argument("--family", required=True,
                   choices=["path", "cycle", "clique-expanded", "product"])
    p.add_argument("--n", type=int, help="order (path/cycle) or backbone length (clique-expanded)")
    p.add_argument("--delta", type=int, default=1, help="clique size for clique-expanded")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("fuzz", help="randomized invariant suite; exit 1 on any failure")
    common(p, k_default="1,2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--n-min", type=int, default=4)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--p-min", type=float, default=0.2)
    p.add_argument("--p-max", type=float, default=0.6)
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
