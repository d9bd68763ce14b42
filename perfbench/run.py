"""Closed-loop benchmark of the kdom command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload gamma-sparse --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client calls ``kdom.cli.main([...])`` in-process, sending the next
command only after the last one returned. The inputs are generated from
``--seed`` by ``corpus.py``. One pass runs every op of the corpus once; the
loop runs a fixed number of whole passes per workload, chosen so that a run
of this repository's baseline takes about ``--seconds`` at a reference
machine speed (``speed.py``). Counts that must repeat exactly for a seed
(search nodes, exact share, fuzz check totals) are taken over one pass.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` the untraced loop runs as before, then one pass runs again with
the layer wrappers of ``spans.py`` installed, and the last line holds the
per-layer metrics of that pass. The correctness gate (``gate.py``) runs
after the timed loop in both modes.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import corpus
import gate
import speed
from spans import Tracer

WORKLOADS = ("gamma-sparse", "bounds-tight", "fuzz-small")
ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
# HiGHS optima depend only on the input, so they are kept between runs.
HIGHS_CACHE = WORK / "highs-optimum.json"
SETUP_REPEATS = 5
TAIL_ABOVE = 10  # samples that must lie above the reported tail percentile
# Whole passes per run at REFERENCE_SECONDS, scaled linearly for other
# --seconds. The count never depends on how fast the library is, so the tail
# percentile, the harness's own memory and the number of speed probes are the
# same on every commit; faster code makes a shorter run, not a different one.
REFERENCE_SECONDS = 25
PASSES = {"gamma-sparse": 5, "bounds-tight": 2, "fuzz-small": 3}


@dataclass
class Record:
    """One CLI invocation as the client saw it."""

    index: int  # position of the op in the corpus
    raw_s: float  # wall time
    reason: str | None  # why the call failed, None if it did not
    scale: float = 1.0  # speed.NOMINAL_S / probe time around the call

    @property
    def seconds(self) -> float:
        """Wall time normalised to the reference machine speed."""
        return self.raw_s * self.scale


def tail(samples: list[float], above: int = TAIL_ABOVE) -> tuple[float, float, int]:
    """(percentile, value, samples above it) for the highest percentile that
    still has ``above`` samples beyond it, but never below the median."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - above, (n + 1) // 2)  # 1-based rank of the reported sample
    return 100.0 * rank / n, ordered[rank - 1], n - rank


def call_cli(cli, argv) -> tuple[int | None, str | None]:
    """Exit code of one CLI call, or the exception it raised; never raises."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects arguments this way
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception as exc:  # the harness must outlive any failing op
        return None, f"{type(exc).__name__}: {exc}"
    return code, None


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(PASSES[workload] * seconds / REFERENCE_SECONDS))


def _doc(path: Path) -> dict | None:
    """The JSON output of one call without its wall-clock part, or None."""
    try:
        text = path.read_text(encoding="utf-8")
        path.unlink()
        doc = json.loads(text)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict):
        return None
    doc.pop("timing", None)  # wall clock: the only part allowed to differ
    return doc


def outcome(code, error, doc, index: int, reference: dict[int, dict]) -> str | None:
    """Why one call failed, or None. The first good output of each op
    becomes its reference; a later output must equal it, because the library
    promises byte-reproducible results."""
    if error is not None:
        return error
    if code != 0:
        return f"exit code {code}"
    if doc is None:
        return "no readable output"
    ref = reference.setdefault(index, doc)
    return None if doc == ref else "output differs from the first pass"


def run_loop(cli, ops, passes: int, reference: dict[int, dict], on_op=None):
    """Closed loop of ``passes`` whole passes over ``ops``; (records, seconds).

    Each output is checked as soon as its call returns and only a reason is
    kept, so what the harness holds grows with the op count, not with the
    output sizes. ``reference`` collects the first good output of each op."""
    records = []
    start = time.perf_counter()
    before = speed.probe()
    for _ in range(passes):
        for index, op in enumerate(ops):
            if on_op is not None:
                on_op(index)
            t0 = time.perf_counter()
            code, error = call_cli(cli, op.argv)
            t1 = time.perf_counter()
            after = speed.probe()
            scale = speed.scale(before, after)
            before = after
            doc = _doc(op.out)  # read and removed even after a failure
            records.append(Record(index, t1 - t0, outcome(code, error, doc, index, reference), scale))
    return records, time.perf_counter() - start


def load_kdom():
    """Import the library from this checkout's ``src``, never from elsewhere."""
    for name in [m for m in sys.modules if m == "kdom" or m.startswith("kdom.")]:
        del sys.modules[name]
    kdom = importlib.import_module("kdom")
    if not Path(kdom.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"kdom imported from {kdom.__file__}, not from this checkout")
    importlib.import_module("kdom.cli")
    return kdom


def setup(workload: str, seed: int, directory: Path):
    """Import kdom and write the corpus, several times; median of the
    normalised and of the raw seconds."""
    normalised, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = speed.probe()
        t0 = time.perf_counter()
        kdom = load_kdom()
        ops = corpus.build(workload, seed, directory)
        raw.append(time.perf_counter() - t0)
        normalised.append(raw[-1] * speed.scale(before, speed.probe()))
    return kdom, ops, statistics.median(normalised), statistics.median(raw)


def exact_counts(workload: str, reference: dict[int, dict]) -> tuple[int, int, int]:
    """(exact solves, solves, search nodes) over one pass of reference outputs."""
    exact = total = nodes = 0
    for doc in reference.values():
        if workload == "fuzz-small":
            runs = doc["checks_run"]
            solves = 2 * doc["trials"] * len(doc["generator_params"]["k_set"])
            skipped = (runs["spanning_tree_preserves_gamma"]["skip"]
                       + runs["projection_dominates_factors"]["skip"])
            exact, total = exact + solves - skipped, total + solves
            continue
        for r in doc["results"]:
            cert = r if workload == "gamma-sparse" else r["exact"]
            total += 1
            if cert is not None:
                exact += cert["status"] == "Exact"
                nodes += cert["nodes_explored"]
    return exact, total, nodes


def fuzz_totals(reference: dict[int, dict]) -> dict[str, int]:
    totals = Counter()
    for doc in reference.values():
        for counts in doc.get("checks_run", {}).values():
            totals.update(counts)
    return {d: totals[d] for d in ("pass", "skip", "fail")}


def run_gate(kdom, workload: str, ops, reference: dict[int, dict]):
    """Problems per op index, and (verified, unverified) counts for HiGHS."""
    problems: dict[int, list[str]] = {}
    verified = unverified = 0
    try:
        cache = json.loads(HIGHS_CACHE.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        cache = {}
    for index, doc in sorted(reference.items()):
        op = ops[index]
        try:
            if workload == "gamma-sparse":
                key = hashlib.sha256(op.instance.text().encode()).hexdigest() + f":{op.ks[0]}"
                if key not in cache:
                    best = gate.milp_gamma(op.instance, op.ks[0])
                    if best is not None:
                        cache[key] = best
                found, checked = gate.check_gamma(kdom, op, doc, cache.get(key))
                verified += checked
                unverified += not checked
            elif workload == "bounds-tight":
                found = gate.check_bounds(kdom, op, doc)
            else:
                found = gate.check_fuzz(op, doc)
        except Exception as exc:  # a malformed output fails its op, not the run
            found = [f"gate raised {type(exc).__name__}: {exc}"]
        if found:
            problems[index] = found
    if cache:
        HIGHS_CACHE.write_text(json.dumps(cache, sort_keys=True), encoding="utf-8")
    return problems, verified, unverified


def pass_seconds(records: list[Record], n_ops: int) -> float:
    """Time of one pass: each op's median wall time, summed over the corpus."""
    by_op = defaultdict(list)
    for rec in records:
        by_op[rec.index].append(rec.seconds)
    return sum(statistics.median(by_op[i]) for i in range(n_ops))


def layer_metrics(tracer: Tracer, traced: list[Record], untraced: list[Record], ops):
    """Per-layer figures of one traced pass of the corpus, and the number of
    ops whose span self times miss their wall time by more than the tracing
    overhead (plus 1 ms of harness time around the call). Self times are in
    normalised seconds, each op at its own speed scale."""
    scale = {rec.index: rec.scale for rec in traced}
    self_s = defaultdict(float)
    calls = Counter()
    duration = {}
    children = defaultdict(float)
    per_op_self = defaultdict(float)
    for span_id, parent, op, name, start, end, own in tracer.spans:
        self_s[name] += own * scale[op]
        calls[name] += 1
        duration[span_id] = (op, end - start, own)
        children[parent] += end - start
        per_op_self[op] += own
    # Children on different pool threads overlap in time: the parent
    # subtracts their union, so the op's self times exceed its wall time by
    # the overlap. Net it out before comparing with the wall time.
    overlap = defaultdict(float)
    for span_id, (op, dur, own) in duration.items():
        overlap[op] += children[span_id] - (dur - own)
    gaps = [(abs(rec.raw_s - (per_op_self[rec.index] - overlap[rec.index])), rec.raw_s)
            for rec in traced]

    nodes = sum(n for _, n, _ in tracer.exact)
    solves = len(tracer.exact)
    items = sum(op.items for op in ops)
    traced_s = sum(rec.seconds for rec in traced)
    untraced_s = pass_seconds(untraced, len(ops))
    slowdown = traced_s / untraced_s
    # Share of the traced wall time that the wrappers add.
    overhead = 1.0 - 1.0 / slowdown
    loose = sum(gap > max(overhead, 0.01) * wall + 0.001 for gap, wall in gaps)
    metrics = {
        "solver.exact.self_s": self_s["solver.exact"],
        "solver.nodes": nodes,
        "solver.nodes_per_s": nodes / self_s["solver.exact"] if self_s["solver.exact"] else 0.0,
        "solver.root_closed_rate": sum(n == 0 for _, n, _ in tracer.exact) / solves if solves else 0.0,
        "solver.budget_out": sum(s != "Exact" for _, _, s in tracer.exact),
        "graph.metrics.calls": calls["graph.metrics"],
        "graph.metrics.self_s": self_s["graph.metrics"],
        "graph.balls.calls": calls["graph.balls"],
        "graph.balls.self_s": self_s["graph.balls"],
        "graph.build.calls": calls["graph.build"],
        "graph.build.self_s": self_s["graph.build"],
        "graph.bfs.calls": len(tracer.counts.get("graph.bfs", ())),
        "solver.oracle.calls": calls["solver.oracle"],
        "solver.oracle.self_s": self_s["solver.oracle"],
        "constructions.spanning_tree.self_s": self_s["constructions.spanning_tree"],
        "constructions.product.self_s": self_s["constructions.product"],
        "fuzz.self_s": self_s["fuzz"],
        "solver.greedy.self_s": self_s["solver.greedy"],
        "bounds.report.self_s": self_s["bounds.report"],
        "solver.packing.self_s": self_s["solver.packing"],
        "io.parse.self_s": self_s["io.parse"],
        "solver.verify.self_s": self_s["solver.verify"],
        "cli.self_s": self_s["cli"],
        "trace.items_per_s_untraced": items / untraced_s,
        "trace.items_per_s_traced": items / traced_s,
        "trace.slowdown": slowdown,
        "trace.unattributed_frac": max(gap / wall for gap, wall in gaps),
        "trace.spans": len(tracer.spans),
    }
    return metrics, loose


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    directory = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    try:
        kdom, ops, setup_s, setup_raw_s = setup(workload, seed, directory)
        cli = sys.modules["kdom.cli"]
        reference: dict[int, dict] = {}
        records, elapsed = run_loop(cli, ops, passes_for(workload, seconds), reference)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems, verified, unverified = run_gate(kdom, workload, ops, reference)
        reasons = [rec.reason or ("; ".join(problems[rec.index]) if rec.index in problems else None)
                   for rec in records]
        failed = sum(r is not None for r in reasons)
        attempted = len(records)
        done = sum(ops[rec.index].items for rec, r in zip(records, reasons) if r is None)
        exact, solves, nodes = exact_counts(workload, reference)
        samples = [rec.seconds for rec in records]
        pass_s = pass_seconds(records, len(ops))
        tail_pct, tail_s, tail_above = tail(samples)
        metrics = metrics_block({
            "setup_s": setup_s,
            "items_per_s": sum(op.items for op in ops) / pass_s,
            "op_p50_s": statistics.median(samples),
            "op_tail_s": tail_s,
            "exact_rate": exact / solves if solves else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }, "end_to_end")
        print(f"{workload} seed {seed}: {attempted // len(ops)} passes of "
              f"{len(ops)} ops in {elapsed:.2f} s, one client, closed loop; "
              f"{done / elapsed:.6g} items/s over the whole loop")
        for name, m in metrics.items():
            print(f"  {name:<14} {m['value']:.6g} {m['unit']}")
        print(f"  {'fail_rate':<14} {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
        raw = [rec.raw_s for rec in records]
        print(f"  times above are at reference speed (speed.py); raw wall clock: setup_s "
              f"{setup_raw_s:.6g}, op_p50_s {statistics.median(raw):.6g}, op_tail_s "
              f"{tail(raw)[1]:.6g}; speed scale median {statistics.median(r.scale for r in records):.4g}")
        print(f"  op_tail_s is p{tail_pct:.2f} of {attempted} ops ({tail_above} above it)")
        print(f"  one pass: solver.nodes {nodes}, exact {exact} of {solves} solves"
              + (f", fuzz checks {fuzz_totals(reference)}" if workload == "fuzz-small" else ""))
        if workload == "gamma-sparse":
            print(f"  gate: HiGHS verified {verified}, unverified {unverified}")
        for reason in sorted({r for r in reasons if r}):
            print(f"  FAILED: {reason}", file=sys.stderr)

        if traced:
            tracer = Tracer()

            def mark(index):
                tracer.op = index

            tracer.install()
            try:
                traced_records, _ = run_loop(cli, ops, 1, reference, on_op=mark)
            finally:
                tracer.uninstall()
            attempted += len(traced_records)
            failed += sum(rec.reason is not None for rec in traced_records)
            layers, loose = layer_metrics(tracer, traced_records, records, ops)
            layers.update({f"fuzz.checks.{d}": c for d, c in fuzz_totals(reference).items()})
            WORK.mkdir(exist_ok=True)
            tracer.write(WORK / f"trace-{workload}.tsv")  # latest run only: up to 40 MB
            if loose:
                print(f"  FAILED: on {loose} ops the span self times miss the wall time",
                      file=sys.stderr)
                failed += loose
            metrics = metrics_block(layers, "per_layer")
            for name, m in metrics.items():
                print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def metrics_block(values: dict, kind: str) -> dict:
    """Values as the result's ``metrics``, with the names, units and order
    that BENCHMARK.json declares for ``kind`` (end_to_end or per_layer)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"{kind} metrics {sorted(set(values) ^ set(units))} "
                           "are not both measured and declared")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_all(args) -> dict:
    """Every workload in its own process, so each reports its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{workload} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
