"""Each script under demos/ runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import diagdist

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(diagdist.__file__).parents[1]))
    # -W error: a warning in a demo fails it, as a warning in the suite does under -W error
    argv = [sys.executable, "-W", "error", str(demo)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
