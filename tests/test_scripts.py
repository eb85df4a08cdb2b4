"""The paper-reproduction scripts run end to end and exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["reproduce_all.py", "singular_census.py"])
def test_script_exits_zero(script):
    env = dict(os.environ)
    src = str(ROOT / "src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if script == "reproduce_all.py":
        assert "full n=14: degree 3 -> 679172," in proc.stdout
        assert "full n=16: degree 3 -> 8976188," in proc.stdout
        assert "g26 at e_1: rank 0 vs codimension 1: singular" in proc.stdout
        assert "x68 at e_9: rank 2 vs codimension 4: singular" in proc.stdout
