"""nlkg.grid is the only module that calls an FFT: no other module of the
package imports numpy.fft or scipy.fft, or reaches them as np.fft / scipy.fft."""

import ast
from pathlib import Path

import pytest

import nlkg

FFT_MODULES = {"numpy.fft", "scipy.fft"}
MODULES = sorted(Path(nlkg.__file__).parent.glob("*.py"))


def fft_uses(tree: ast.AST) -> list:
    """(line, text) of each import of an FFT module and each np.fft-style attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if any(a.name == m or a.name.startswith(m + ".") for m in FFT_MODULES)]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [f"{node.module}.{a.name}" for a in node.names] + [node.module]
            found += [(node.lineno, name) for name in names if name in FFT_MODULES]
        elif (isinstance(node, ast.Attribute) and node.attr == "fft"
              and isinstance(node.value, ast.Name) and node.value.id in {"np", "numpy", "scipy"}):
            found.append((node.lineno, f"{node.value.id}.fft"))
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "grid.py"], ids=lambda p: p.name)
def test_no_fft_outside_grid(path):
    assert fft_uses(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_check_sees_each_form():
    assert "grid.py" in [p.name for p in MODULES]
    src = ("import numpy.fft\nfrom numpy import fft\nfrom scipy.fft import rfftn\n"
           "import scipy.fft as sf\nx = np.fft.fftn(y)\n")
    assert [line for line, _ in fft_uses(ast.parse(src))] == [1, 2, 3, 4, 5]
    assert fft_uses(ast.parse(Path(nlkg.__file__).with_name("grid.py").read_text())) != []
