"""Every demo script runs to completion.

Demos write their outputs next to themselves, so each runs from a copy in a
scratch directory.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    out = subprocess.run([sys.executable, str(script)], cwd=tmp_path, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.returncode == 0, out.stderr
