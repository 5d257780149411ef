"""The demos run as scripts against the public API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# a fixed phrase of each demo's output (of its last line, but for 06)
PHRASES = {
    "01_blowup_rate": "fit window: last 20 samples",
    "02_energy_conservation": "observed order between dt=0.002 and dt=0.001",
    "03_tensor_audits": "combined",
    "04_lyapunov_functionals": "L grows by a factor",
    "05_cone_monitors": "dyadic_grad_avg",
    "06_bubble_decomposition": "extracted 3 bubbles",
    "07_blowup_surface": "largest axis jump",
}
SLOW = {"04_lyapunov_functionals", "07_blowup_surface"}


@pytest.mark.parametrize("demo", [
    pytest.param(path.stem, marks=[pytest.mark.slow] if path.stem in SLOW else [])
    for path in sorted((ROOT / "demos").glob("*.py"))])
def test_demo(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, f"demos/{demo}.py"], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert PHRASES[demo] in done.stdout
