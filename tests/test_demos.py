"""Every demo script prints exactly what it printed when its output was pinned.

The demos are deterministic, so a change to any value they show (gamma,
bounds, certificates, spanning trees, witnesses) changes a SHA-256 below.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "bounds_tour.py": "fb1e9a900c6c7207bb0cbb3b652858e168300968629708ba72e12a2a037e32ec",
    "cycle_witness_demo.py": "690d38bb5b5e03bdb6790a17166d6b0c325f61f2ded0f70a94ae7f86a5e859e3",
    "direct_product_projections.py": "2098cd34ea9359401312f8bcff2120d77fdc298bbccea9cc547909054318f752",
    "spanning_tree_walkthrough.py": "a56e2f42b510399a49bfee4adc5a6805791dbf40cb9599eabad6de7aed03fdfc",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


def _demo_stdout(python, script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [python, str(ROOT / "demos" / script)],
        capture_output=True,
        env=env,
        check=True,
    )
    return proc.stdout


@pytest.mark.parametrize("script", sorted(STDOUT_SHA256))
def test_demo_output_pinned(script):
    assert hashlib.sha256(_demo_stdout(sys.executable, script)).hexdigest() == STDOUT_SHA256[script]


def _python310():
    """A python3.10 that runs: the one on PATH, else one installed by pyenv
    (whose shim fails unless 3.10 is a selected version); None if neither."""
    root = Path(os.path.expanduser(os.environ.get("PYENV_ROOT", "~/.pyenv")))
    for python in (shutil.which("python3.10"), *map(str, sorted(root.glob("versions/3.10*/bin/python3.10")))):
        if python and not subprocess.run([python, "-c", "pass"], capture_output=True).returncode:
            return python
    return None


def test_declared_python_floor():
    # pyproject.toml declares Python >= 3.10, so no 3.11-only stdlib may creep in
    python = _python310()
    if python is None:
        pytest.skip("no runnable python3.10")
    script = "bounds_tour.py"
    assert hashlib.sha256(_demo_stdout(python, script)).hexdigest() == STDOUT_SHA256[script]
