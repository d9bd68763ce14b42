"""Outside-in layer tracing: wrappers installed on the library's own names.

A span is recorded around each call into a layer function. The wrapper is
installed on every name under which a ``kdom`` module refers to the function
(``kdom.solver.gamma_k_exact``, ``kdom.bounds.gamma_k_exact``, ...), so calls
made between modules are seen too. Spans stay in memory with their parent and
operation ids and are written out when the run ends.

Self time is a span's duration minus the part of it that its child spans
cover. ``kdom fuzz`` runs trials on a thread pool; a span opened on a worker
thread with nothing open on that thread takes the harness thread's innermost
open span as its parent, so trial spans nest under the ``fuzz`` span and
overlapping children are merged before they are subtracted.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from time import perf_counter

# (module, attribute, span name). Several functions may share a span name.
# A private name that a later version no longer has is skipped, and its time
# then counts toward the span that calls it.
SPANS = (
    ("kdom.cli", "main", "cli"),
    ("kdom.io", "parse_edge_list", "io.parse"),
    ("kdom.io", "serialize_edge_list", "io.serialize"),
    ("kdom.graph", "Graph.__init__", "graph.build"),
    ("kdom.graph", "Graph.metrics", "graph.metrics"),
    ("kdom.graph", "Graph.closed_k_neighborhood", "graph.balls"),
    ("kdom.solver", "gamma_k_exact", "solver.exact"),
    ("kdom.solver", "gamma_k_oracle", "solver.oracle"),
    ("kdom.solver", "greedy_upper", "solver.greedy"),
    ("kdom.solver", "_greedy_cover", "solver.greedy"),
    ("kdom.solver", "packing_lower", "solver.packing"),
    ("kdom.solver", "_greedy_packing", "solver.packing"),
    ("kdom.solver", "is_k_dominating", "solver.verify"),
    ("kdom.bounds", "bounds_report", "bounds.report"),
    ("kdom.constructions", "preserving_spanning_tree", "constructions.spanning_tree"),
    ("kdom.constructions", "direct_product", "constructions.product"),
    ("kdom.fuzz", "fuzz", "fuzz"),
    ("kdom.fuzz", "_run_trial", "fuzz"),
)

# Counted but not spanned: a span per BFS would split graph.metrics, whose
# self time is meant to include its all-pairs BFS.
COUNTERS = (("kdom.graph", "Graph.bfs_distances", "graph.bfs"),)


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of (start, end) intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    return total + cur_end - cur_start


class Tracer:
    """Span recorder; ``install`` patches the library, ``uninstall`` restores it."""

    def __init__(self):
        # (span id, parent id or 0, op id, name, start, end, self seconds)
        self.spans: list[tuple[int, int, int, str, float, float, float]] = []
        self.counts: dict[str, list[int]] = {}  # name -> op id per call
        self.exact: list[tuple[int, int, str]] = []  # (op id, nodes, status)
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            frame = [next(tracer._ids), [], perf_counter()]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                start = frame[2]
                self_s = end - start - covered(frame[1])
                parent_id = 0
                if parent is not None:
                    parent[1].append((start, end))
                    parent_id = parent[0]
                tracer.spans.append((frame[0], parent_id, tracer.op, name, start, end, self_s))
            if name == "solver.exact":
                tracer.exact.append((tracer.op, result.nodes_explored, result.status))
            return result

        return wrapper

    def _counter(self, name: str, fn):
        calls = self.counts.setdefault(name, [])
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append(tracer.op)  # list.append is atomic across threads
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function under every name ``kdom`` binds it to."""
        self._main_stack = self._stack()
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "kdom" or name.startswith("kdom."))]
        for targets, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for module_name, attr, name in targets:
                module = sys.modules[module_name]
                if "." in attr:
                    owner = getattr(module, attr.split(".")[0])
                    method = attr.split(".")[1]
                    self._patch(owner, method, make(name, owner.__dict__[method]))
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart\tend\tself_s\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
