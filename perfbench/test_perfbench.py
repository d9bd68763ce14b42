"""Tests of the benchmark harness itself (not of the library)."""

import json
import sys
from time import perf_counter

import pytest

import corpus
from run import ROOT, outcome, passes_for, run_loop, tail
from spans import Tracer


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["gamma-sparse", "bounds-tight", "fuzz-small"])
def test_same_seed_gives_byte_identical_corpus(tmp_path, workload):
    a = corpus.build(workload, 7, tmp_path / "a")
    b = corpus.build(workload, 7, tmp_path / "b")
    c = corpus.build(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    strip = lambda ops, d: [tuple(x.replace(str(d), "") for x in op.argv) for op in ops]
    assert strip(a, tmp_path / "a") == strip(b, tmp_path / "b")
    assert strip(a, tmp_path / "a") != strip(c, tmp_path / "c")


def test_corpus_graphs_are_simple_and_connected(tmp_path):
    for inst in (op.instance for op in corpus.build("gamma-sparse", 3, tmp_path)):
        assert len(set(inst.edges)) == len(inst.edges)
        assert all(u < v < inst.n for u, v in inst.edges)
        seen, frontier = {0}, [0]
        while frontier:
            u = frontier.pop()
            for a, b in inst.edges:
                w = b if a == u else a if b == u else None
                if w is not None and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        assert len(seen) == inst.n


@pytest.mark.parametrize(
    "count, pct, rank, above",
    [
        (100, 90.0, 90, 10),  # p90: exactly ten samples above
        (1000, 99.0, 990, 10),
        (40, 75.0, 30, 10),
        (15, 53.333333, 8, 7),  # too few samples: never below the median
        (1, 100.0, 1, 0),
    ],
)
def test_tail_percentile_choice(count, pct, rank, above):
    samples = [float(i) for i in range(count, 0, -1)]  # unsorted on purpose
    got_pct, value, got_above = tail(samples)
    assert got_pct == pytest.approx(pct)
    assert value == float(rank)
    assert got_above == above
    assert sum(s > value for s in samples) == got_above


class _FakeCli:
    """Stands in for kdom.cli: op "raise" raises, op "exit1" exits 1."""

    def main(self, argv):
        name, out = argv[0], argv[-1]
        if name == "raise":
            raise RecursionError("maximum recursion depth exceeded")
        if name == "argparse":
            raise SystemExit(2)
        if name != "silent":
            with open(out, "w", encoding="utf-8") as fh:
                json.dump({"ok": name, "timing": {"seconds": 0.1}}, fh)
        return 1 if name == "exit1" else 0


def test_failures_are_counted_and_the_loop_survives(tmp_path):
    names = ["good", "raise", "exit1", "argparse", "silent", "good2"]
    ops = [corpus.Op((n, str(tmp_path / f"{n}.json")), 1, tmp_path / f"{n}.json") for n in names]
    reference = {}
    records, _ = run_loop(_FakeCli(), ops, 2, reference)
    assert [r.index for r in records] == list(range(len(names))) * 2
    reasons = [r.reason for r in records[:len(names)]]
    assert reasons[0] is None and reasons[5] is None
    assert reasons[1].startswith("RecursionError")
    assert reasons[2] == "exit code 1"
    assert reasons[3] == "exit code 2"
    assert reasons[4] == "no readable output"
    assert sum(r.reason is not None for r in records) == 8
    assert reference == {0: {"ok": "good"}, 5: {"ok": "good2"}}  # wall clock dropped
    assert not any(tmp_path.iterdir())  # each output is read and removed


def test_output_that_changes_between_passes_fails():
    reference = {}
    assert outcome(0, None, {"v": 1}, 0, reference) is None
    assert outcome(0, None, {"v": 1}, 0, reference) is None
    assert outcome(0, None, {"v": 2}, 0, reference) == "output differs from the first pass"
    assert outcome(0, None, {"v": 2}, 1, reference) is None  # another op
    assert reference == {0: {"v": 1}, 1: {"v": 2}}


def test_pass_count_does_not_depend_on_library_speed():
    assert [passes_for(w, 25) for w in ("gamma-sparse", "bounds-tight", "fuzz-small")] == [5, 2, 3]
    assert passes_for("gamma-sparse", 50) == 10
    assert passes_for("bounds-tight", 1) == 1


def test_spans_nest_and_self_times_add_up_to_the_call(tmp_path):
    if str(ROOT / "src") not in sys.path:
        sys.path.append(str(ROOT / "src"))
    import kdom.cli
    import kdom.solver

    originals = (kdom.cli.main, kdom.solver.gamma_k_exact, kdom.Graph.__init__)
    src = tmp_path / "c6.txt"
    src.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n", encoding="utf-8")
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        t0 = perf_counter()
        code = kdom.cli.main(["bounds", "--k", "1,2", "--in", str(src), "--out", str(tmp_path / "o.json")])
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    assert code == 0
    assert (kdom.cli.main, kdom.solver.gamma_k_exact, kdom.Graph.__init__) == originals
    names = {span[3] for span in tracer.spans}
    assert {"cli", "io.parse", "graph.build", "graph.metrics", "graph.balls",
            "bounds.report", "solver.exact", "solver.greedy", "solver.packing"} <= names
    (root,) = [span for span in tracer.spans if span[1] == 0]
    assert root[3] == "cli" and root[5] - root[4] <= wall
    assert sum(span[6] for span in tracer.spans) == pytest.approx(root[5] - root[4])
    assert [status for _, _, status in tracer.exact] == ["Exact", "Exact"]
