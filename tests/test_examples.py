"""Tier-1 mirror of the ``examples`` CI job: every script under
``examples/`` runs to completion with its default arguments.

Each script runs in a fresh interpreter, as a reader would run it, so a
plain ``pytest`` run catches an example that an API change broke.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_examples_tree_exists():
    names = {path.name for path in EXAMPLES}
    assert {"quickstart.py", "verify_adder.py", "verify_mcx.py"} <= names


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-4000:]
    assert result.stdout.strip()
