"""Every demo script prints exactly what it printed when its output was pinned.

The demos are deterministic, so a change to any value they show (gamma,
bounds, certificates, spanning trees, witnesses) changes a SHA-256 below.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import kdom.dual
from conftest import random_connected
from kdom import gamma_k_exact, serialize_edge_list

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "bounds_tour.py": "fb1e9a900c6c7207bb0cbb3b652858e168300968629708ba72e12a2a037e32ec",
    "cycle_witness_demo.py": "690d38bb5b5e03bdb6790a17166d6b0c325f61f2ded0f70a94ae7f86a5e859e3",
    "direct_product_projections.py": "2098cd34ea9359401312f8bcff2120d77fdc298bbccea9cc547909054318f752",
    "spanning_tree_walkthrough.py": "a56e2f42b510399a49bfee4adc5a6805791dbf40cb9599eabad6de7aed03fdfc",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


# a deprecation in kdom under any interpreter fails the child, not just warns
STRICT = ["-W", "error::DeprecationWarning", "-W", "error::SyntaxWarning"]


def _demo_stdout(python, script):
    proc = subprocess.run([python, *STRICT, str(ROOT / "demos" / script)], capture_output=True, env=_env(), check=True)
    return proc.stdout


@pytest.mark.parametrize("script", sorted(STDOUT_SHA256))
def test_demo_output_pinned(script):
    assert hashlib.sha256(_demo_stdout(sys.executable, script)).hexdigest() == STDOUT_SHA256[script]


def _pythons(version):
    """Every distinct python<version> that runs, found on PATH or installed by
    pyenv; a pyenv shim fails unless its version is selected, so it drops out."""
    name = f"python{version}"
    root = Path(os.path.expanduser(os.environ.get("PYENV_ROOT", "~/.pyenv")))
    found = set()
    for python in (*(Path(d) / name for d in os.get_exec_path()), *root.glob(f"versions/{version}.*/bin/{name}")):
        if python.is_file():
            proc = subprocess.run([python, "-c", "import sys; print(sys.executable)"], capture_output=True, text=True)
            if not proc.returncode:
                found.add(proc.stdout.strip())
    return sorted(found)


def _cli_output(python, argv, cpu=None):
    """Exit code and JSON without "timing" of one CLI run, on one CPU if ``cpu`` is set."""
    pin = None if cpu is None else lambda: os.sched_setaffinity(0, {cpu})  # the child only
    proc = subprocess.run([python, *STRICT, "-m", "kdom", *argv], capture_output=True, env=_env(), preexec_fn=pin)
    doc = json.loads(proc.stdout)
    del doc["timing"]
    return proc.returncode, doc


FUZZ = ["fuzz", "--seed", "7", "--trials", "40"]


def _cli_outputs(python, graphs):
    """Exit code and JSON without "timing" of a seeded fuzz run and of a
    solve of each (graph file, node budget)."""
    runs = [FUZZ]
    runs += [["gamma", "--k", "1", "--budget-nodes", str(budget), "--budget-seconds", "inf", "--in", str(p)]
             for p, budget in graphs]
    return [_cli_output(python, argv) for argv in runs]


def test_declared_python_floor(tmp_path, monkeypatch):
    # pyproject.toml declares Python >= 3.10, so no 3.11-only stdlib may creep
    # in, and README promises the same reports on every version
    graphs = []
    # escalating sparse solves: one proved, one stopped by the budget, and one
    # whose incumbent the local search replaces, so a drift in random.Random
    # or in its tie order shows
    for seed, n, budget in ((5, 100, 10_000), (5, 150, 10_000), (44, 130, 6000)):
        g = random_connected(random.Random(seed), n, 2.5 / n)
        p = tmp_path / f"sparse-{seed}-{n}.txt"
        p.write_text(serialize_edge_list(g))
        graphs.append((p, budget))
    found = []
    original = kdom.dual.local_search
    monkeypatch.setattr(kdom.dual, "local_search", lambda *a: found.append(original(*a)) or found[-1])
    assert gamma_k_exact(g, 1, budget_nodes=budget).value == 28 and len(found) == 1 and len(found[0]) == 28
    pythons = [python for version in ("3.10", "3.12", "3.13") for python in _pythons(version)]
    if not pythons:
        pytest.skip("no runnable python3.10, python3.12 or python3.13")
    want = _cli_outputs(sys.executable, graphs)
    assert [doc["status"] for _, doc in want[1:]] == ["Exact", "UpperBoundOnly", "UpperBoundOnly"]
    # pinned to one CPU, fuzz runs every trial in the calling process; with
    # more it forks workers, which meets the fork checks of 3.12 and later
    cpu = min(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else None
    script = "bounds_tour.py"
    for python in pythons:
        assert hashlib.sha256(_demo_stdout(python, script)).hexdigest() == STDOUT_SHA256[script], python
        assert _cli_outputs(python, graphs) == want, python
        if cpu is not None:
            assert _cli_output(python, FUZZ, cpu) == want[0], python
