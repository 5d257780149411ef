"""The demos run as scripts against the public API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bubble_decomposition_demo():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "demos/06_bubble_decomposition.py"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "extracted 3 bubbles" in done.stdout
