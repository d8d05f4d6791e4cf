"""Each demo script runs to the end without a warning or an error."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import statetrees

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo):
    src = str(Path(statetrees.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env)
    assert (r.returncode, r.stderr) == (0, "")
