import hashlib
import importlib
import json
import os
import random
import select
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

from conftest import random_connected, random_tree
from kdom import Graph, cycle, fuzz, random_connected_graph
from kdom.cli import main
from kdom.fuzz import CHECKS, _non_bridges

fuzz_module = importlib.import_module("kdom.fuzz")  # the package re-exports fuzz() over it

# the factors of trial 1 of fuzz(seed=3, trials=2, n_range=(6, 8), k_set=(2,))
LEFT_FACTOR = "4 5\n0 1\n0 2\n0 3\n1 3\n2 3\n"
RIGHT_FACTOR = "5 10\n0 1\n0 2\n0 3\n0 4\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
PINNED_SHA256 = "a9b15b10890d23ccbcfcaf1f08b247aebe469d4a6277d19d343ce15575ba684b"


def _pinned_run():
    """The run whose report bytes ``TestFuzz.test_report_bytes_pinned`` pins."""
    return fuzz(seed=123, trials=40, n_range=(4, 14), k_set=(1, 2))


def _sha256(report):
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True, indent=2).encode()).hexdigest()


def _building_every_draw(rng, n, p):
    """``random_connected_graph`` as it was when every G(n, p) draw was built
    as a ``Graph`` and asked whether it is connected; the reference for the
    draws the union-find now rejects."""
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(1000):
        g = fuzz_module.Graph(n, [e for e in all_pairs if rng.random() < p])
        if g.is_connected():
            return g
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for e in all_pairs:
        if e not in edges and rng.random() < p:
            edges.add(e)
    return fuzz_module.Graph(n, edges)


class TestRandomConnectedGraph:
    def test_same_graphs_and_draws_as_building_every_draw(self):
        params = random.Random(71)
        new, old = random.Random(72), random.Random(72)
        # the last two reach the spanning-tree fallback
        calls = [(params.randint(1, 14), params.uniform(0.0, 0.5)) for _ in range(197)]
        for n, p in [*calls, (0, 0.5), (12, 0.0), (14, 0.005)]:
            g = random_connected_graph(new, n, p)
            assert g == _building_every_draw(old, n, p), (n, p)
            assert new.getstate() == old.getstate()

    def test_one_graph_build_per_call(self, monkeypatch):
        builds = []
        build = fuzz_module.Graph
        monkeypatch.setattr(fuzz_module, "Graph", lambda *a: builds.append(a) or build(*a))
        g = random_connected_graph(random.Random(5), 12, 0.12)
        assert len(builds) == 1
        builds.clear()
        assert _building_every_draw(random.Random(5), 12, 0.12) == g
        assert len(builds) == 17  # 16 draws rejected before it, each built
        builds.clear()
        random_connected_graph(random.Random(5), 12, 0.0)  # every draw rejected: the fallback
        assert len(builds) == 1

    def test_always_connected(self):
        rng = random.Random(1)
        for p in (0.05, 0.3, 0.9):
            for _ in range(10):
                g = random_connected_graph(rng, rng.randint(2, 10), p)
                assert max(g.bfs_distances(0)) < g.n

    def test_low_p_falls_back_to_tree(self):
        rng = random.Random(2)
        g = random_connected_graph(rng, 12, 0.0)
        assert g.m == 11  # spanning tree, no extras at p=0


class TestNonBridges:
    def test_matches_rebuild_per_edge(self):
        # reference: an edge is deletable when the graph stays connected without it
        rng = random.Random(21)
        graphs = [random_tree(rng, rng.randint(1, 20)) for _ in range(40)]
        graphs += [cycle(n) for n in range(3, 23)]
        graphs += [random_connected(rng, rng.randint(2, 20), rng.uniform(0.0, 0.5)) for _ in range(200)]
        for g in graphs:
            deletable = [e for e in sorted(g.edges) if Graph(g.n, g.edges - {e}).is_connected()]
            assert _non_bridges(g) == deletable
        assert all(_non_bridges(g) == [] for g in graphs[:40])
        assert all(_non_bridges(g) == sorted(g.edges) for g in graphs[40:60])


class TestFuzz:
    def test_clean_and_accounted(self):
        report = fuzz(seed=5, trials=10, n_range=(4, 10), k_set=(1, 2))
        assert report.failures == []
        for counters in report.checks_run.values():
            assert counters["pass"] + counters["fail"] + counters["skip"] == 20
        assert set(report.checks_run) == set(CHECKS)

    def test_reproducible(self):
        a = fuzz(seed=123, trials=8, n_range=(4, 9), k_set=(1,))
        b = fuzz(seed=123, trials=8, n_range=(4, 9), k_set=(1,))
        assert a.to_dict() == b.to_dict()

    def test_report_bytes_pinned(self):
        # SHA-256 of the report as first produced; any change to the draw
        # order, the checks or the metrics they read shows up here
        report = fuzz(seed=123, trials=40, n_range=(4, 14), k_set=(1, 2))
        digest = hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True, indent=2).encode()).hexdigest()
        assert digest == "a9b15b10890d23ccbcfcaf1f08b247aebe469d4a6277d19d343ce15575ba684b"

    def test_seed_changes_output(self):
        a = fuzz(seed=1, trials=5, n_range=(4, 9), k_set=(1,))
        b = fuzz(seed=2, trials=5, n_range=(4, 9), k_set=(1,))
        assert a.to_dict() != b.to_dict()

    def test_parameter_validation(self):
        for n_range in ((0, 5), (6, 5)):
            with pytest.raises(ValueError, match="bad n_range"):
                fuzz(seed=0, trials=1, n_range=n_range)
        with pytest.raises(ValueError):
            fuzz(seed=1, trials=1, n_range=(4, 99))
        with pytest.raises(ValueError):
            fuzz(seed=1, trials=1, p_range=(0.9, 0.1))
        with pytest.raises(ValueError):
            fuzz(seed=1, trials=1, k_set=(0,))
        with pytest.raises(ValueError):
            fuzz(seed=1, trials=-1)

    def test_skip_reasons_counted(self):
        report = fuzz(seed=7, trials=15, n_range=(4, 10), k_set=(1,))
        skips = sum(c["skip"] for c in report.checks_run.values())
        assert skips == sum(report.skipped.values())

    def test_budget_exhausted_skips(self):
        # with no node budget every solve whose root stays open stops there:
        # the spanning tree's embedded solve and the product's, never a check
        report = fuzz(seed=3, trials=30, budget_nodes=0)
        assert report.failures == []
        assert report.skipped["budget_exhausted"] == 25
        runs = report.checks_run
        assert runs["spanning_tree_preserves_gamma"]["skip"] == 5
        assert runs["projection_dominates_factors"]["skip"] == 10
        assert runs["product_lower_bound"]["skip"] == 10 + report.skipped["disconnected_product"]
        for counters in runs.values():
            assert counters["pass"] + counters["fail"] + counters["skip"] == 60
        assert fuzz(seed=3, trials=30, budget_nodes=0).to_dict() == report.to_dict()
        assert fuzz(seed=3, trials=30).skipped["budget_exhausted"] == 0


class TestFailureEntries:
    """A failed product check records the left factor as its graph."""

    def run(self):
        return fuzz(seed=3, trials=2, n_range=(6, 8), k_set=(2,))

    def test_projection_failure(self, monkeypatch):
        monkeypatch.setattr(fuzz_module, "is_k_dominating", lambda g, s, k: False)
        report = self.run()
        assert report.checks_run["projection_dominates_factors"]["fail"] == 2
        assert report.failures[-1] == {
            "check": "projection_dominates_factors",
            "trial": 1,
            "k": 2,
            "graph": LEFT_FACTOR,
            "right_factor": RIGHT_FACTOR,
        }

    def test_product_bound_failure(self, monkeypatch):
        import kdom.solver

        def zero(g, k, **budget):
            # a Certificate's value is its set size, so a stand-in reports 0
            return types.SimpleNamespace(**vars(kdom.solver.gamma_k_exact(g, k, **budget)), value=0)

        monkeypatch.setattr(fuzz_module, "gamma_k_exact", zero)
        report = self.run()
        assert report.checks_run["product_lower_bound"]["fail"] == 1
        assert report.failures == [
            {
                "check": "product_lower_bound",
                "trial": 1,
                "k": 2,
                "graph": LEFT_FACTOR,
                "right_factor": RIGHT_FACTOR,
                "gamma_product": 0,
                "bound": 1,
            }
        ]


@pytest.fixture
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):  # every child fuzz() forked was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch, no_child_left):
    """A function that sets the CPU count fuzz() sees and returns the list
    of forks made from then on."""
    if fuzz_module._threads() > 1:
        pytest.skip("another thread runs in this process, so fuzz() forks nothing")
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

    def use(count):
        monkeypatch.setattr(fuzz_module, "_usable_cpus", lambda: count)
        forks.clear()
        return forks

    return use


class TwoArgError(Exception):
    """Pickles, but unpickling calls it with its message alone and fails."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


def _open_fds():
    """The file descriptors this process holds open."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to count open file descriptors in")
    return len(os.listdir("/proc/self/fd"))


def _raise_at(monkeypatch, failing, action):
    """Make ``_run_trial`` call ``action(index)`` for each index in ``failing``."""
    run_trial = fuzz_module._run_trial

    def run(report, index, budget):
        if index in failing:
            action(index)
        run_trial(report, index, budget)

    monkeypatch.setattr(fuzz_module, "_run_trial", run)


class TestSplit:
    """Trials drawn by forked workers from one queue give the one-process report."""

    def test_same_bytes_for_any_worker_count(self, cpus):
        for count in (1, 2, 3, 5):
            forks = cpus(count)
            assert _sha256(_pinned_run()) == PINNED_SHA256, count
            assert len(forks) == count - 1
        cpus(1)
        want = fuzz(seed=9, trials=43, n_range=(4, 10), k_set=(1, 3)).to_dict()
        for count in (2, 3, 5):
            forks = cpus(count)
            assert fuzz(seed=9, trials=43, n_range=(4, 10), k_set=(1, 3)).to_dict() == want
            assert len(forks) == count - 1

    def test_too_few_trials_stay_in_process(self, cpus):
        forks = cpus(4)
        fuzz(seed=1, trials=2 * fuzz_module._MIN_TRIALS_PER_WORKER - 1, n_range=(4, 6))
        assert forks == []
        fuzz(seed=1, trials=3 * fuzz_module._MIN_TRIALS_PER_WORKER, n_range=(4, 6))
        assert len(forks) == 2

    def test_failures_in_trial_order(self, cpus, monkeypatch):
        monkeypatch.setattr(fuzz_module, "is_k_dominating", lambda g, s, k: False)
        cpus(1)
        want = _pinned_run()
        assert len({f["trial"] for f in want.failures}) > 30
        cpus(3)
        assert _pinned_run().failures == want.failures

    def test_same_bytes_under_a_lopsided_schedule(self, cpus, monkeypatch):
        # the calling process sleeps before each of its trials, so the children
        # draw most of the queue and the calling process's share is scattered
        parent, ran = os.getpid(), []
        run_trial = fuzz_module._run_trial

        def run(report, index, budget):
            if os.getpid() == parent:
                ran.append(index)
                time.sleep(0.002)
            run_trial(report, index, budget)

        cpus(1)
        want = fuzz(seed=9, trials=43, n_range=(4, 10), k_set=(1, 3)).to_dict()
        monkeypatch.setattr(fuzz_module, "_run_trial", run)
        for count in (2, 3):
            cpus(count)
            ran.clear()
            assert _sha256(_pinned_run()) == PINNED_SHA256, count
            assert len(ran) < 40
            assert fuzz(seed=9, trials=43, n_range=(4, 10), k_set=(1, 3)).to_dict() == want

    def test_every_trial_runs_once_in_blocks(self, cpus, monkeypatch):
        def run(report, index, budget):
            report.failures.append({"trial": index})

        monkeypatch.setattr(fuzz_module, "_run_trial", run)
        assert [fuzz_module._block(t) for t in (43, 1024, 1025, 2500)] == [1, 1, 2, 3]
        fds = _open_fds()
        for trials in (43, 1024, 2500):
            for count in (2, 3, 5):
                forks = cpus(count)
                report = fuzz(seed=1, trials=trials)
                assert report.failures == [{"trial": i} for i in range(trials)], (trials, count)
                assert len(forks) == count - 1
                assert _open_fds() == fds

    def test_torn_queue_record_raises(self, cpus, monkeypatch):
        read = os.read
        monkeypatch.setattr(os, "read", lambda fd, size: read(fd, 3 if size == 4 else size))
        cpus(2)
        fds = _open_fds()
        with pytest.raises(RuntimeError, match="3-byte record"):
            _pinned_run()
        assert _open_fds() == fds

    def test_child_exception_raised(self, cpus, monkeypatch):
        cpus(2)  # either process may draw any trial

        def fail(index):
            raise ValueError(f"trial {index}")

        _raise_at(monkeypatch, {35}, fail)
        with pytest.raises(ValueError, match="^trial 35$"):
            _pinned_run()
        _raise_at(monkeypatch, {5, 25}, fail)  # the first in trial order wins
        with pytest.raises(ValueError, match="^trial 5$"):
            _pinned_run()

    def test_unpicklable_exception_keeps_type_and_message(self, cpus, monkeypatch):
        class LocalError(Exception):  # a local class does not pickle
            pass

        cpus(2)
        for name, error in (("LocalError", lambda i: LocalError(f"trial {i}")),
                            ("TwoArgError", lambda i: TwoArgError(f"trial {i}", i))):

            def fail(index):
                raise error(index)

            _raise_at(monkeypatch, {30}, fail)
            with pytest.raises(RuntimeError, match=f"^{name}: trial 30$"):
                _pinned_run()

    def test_lowest_failing_trial_raised(self, cpus, monkeypatch):
        class LocalError(Exception):
            pass

        def fail(index):
            raise LocalError(f"trial {index}")

        # every worker stops at its first failing trial, whichever it drew
        _raise_at(monkeypatch, set(range(30, 40)), fail)
        fds = _open_fds()
        for count in (2, 3):
            cpus(count)
            for _ in range(5):
                with pytest.raises(RuntimeError, match="^LocalError: trial 30$"):
                    _pinned_run()
                assert _open_fds() == fds

    def test_calling_process_error_empties_the_queue(self, cpus, monkeypatch, tmp_path):
        parent, log = os.getpid(), tmp_path / "ran"

        def run(report, index, budget):
            if os.getpid() == parent:
                raise ValueError(f"trial {index} in the calling process")
            with open(log, "a") as fh:  # one append per trial, from any child
                fh.write(f"{index}\n")
            time.sleep(0.001)  # about as long as a small real trial

        monkeypatch.setattr(fuzz_module, "_run_trial", run)
        cpus(3)
        fds = _open_fds()
        with pytest.raises(ValueError, match="in the calling process$"):
            fuzz(seed=1, trials=2000)
        assert _open_fds() == fds
        ran = log.read_text().split() if log.exists() else []
        assert len(ran) < 100  # the children stopped after their current trial

    def test_child_dying_without_result(self, cpus, monkeypatch, capsys):
        cpus(2)
        parent = os.getpid()
        died, dying = os.pipe()
        run_trial = fuzz_module._run_trial
        waited = []

        def run(report, index, budget):
            if os.getpid() != parent:  # only a forked child exits
                os.write(dying, b"!")
                os._exit(3)
            if all(report is not r for r in waited):
                # the calling process goes on once the child of this call died,
                # so the child has drawn a trial
                waited.append(report)
                assert select.select([died], [], [], 60)[0]
                os.read(died, 1)
            run_trial(report, index, budget)

        monkeypatch.setattr(fuzz_module, "_run_trial", run)
        try:
            with pytest.raises(RuntimeError, match="exited with status 3"):
                _pinned_run()
            # an internal error, never "fuzz found a violation"
            assert main(["fuzz", "--trials", "40"]) == 4
            assert "internal error" in capsys.readouterr().err
        finally:
            os.close(died)
            os.close(dying)

    def test_no_fork_beside_another_thread(self, monkeypatch, no_child_left):
        def fork():
            raise AssertionError("fork() called with another thread running")

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(fuzz_module, "_usable_cpus", lambda: 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert _sha256(_pinned_run()) == PINNED_SHA256
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_cli_writes_one_document(self, cpus, capfd):
        forks = cpus(2)
        assert main(["fuzz", "--trials", "40"]) == 0
        out, err = capfd.readouterr()
        assert len(forks) == 1
        assert err == ""
        assert json.loads(out)["trials"] == 40

    def test_children_flush_no_inherited_buffer(self):
        # stdout is a pipe here, so "before" still sits in the parent's buffer
        # when it forks; a child that flushed on exit would write it again
        script = (
            "import sys, kdom.cli\n"
            "sys.modules['kdom.fuzz']._usable_cpus = lambda: 3\n"
            "print('before')\n"
            "sys.exit(kdom.cli.main(['fuzz', '--trials', '40']))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        head, doc = proc.stdout.split("\n", 1)
        assert head == "before"
        assert json.loads(doc)["trials"] == 40
