"""Outside nlkg.grid, the gradient of a snapshot is computed in one place:
norms._Pieces, the per-snapshot field view every diagnostic reads."""

import ast
from pathlib import Path

import pytest

import nlkg

from conftest import named_calls

MODULES = sorted(Path(nlkg.__file__).parent.glob("*.py"))


def calls_in(path: Path) -> list:
    return named_calls(ast.parse(path.read_text(), filename=str(path)), "spectral_gradient")


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "grid.py"], ids=lambda p: p.name)
def test_only_the_field_view_calls_spectral_gradient(path):
    expected = ["_Pieces.__init__"] if path.name == "norms.py" else []
    assert [scope for _, scope in calls_in(path)] == expected


def test_the_check_sees_each_form():
    src = ("g = spectral_gradient(u)\nclass A:\n    def f(self):\n"
           "        return grid.spectral_gradient(self.u)\n")
    assert named_calls(ast.parse(src), "spectral_gradient") == [(1, ""), (4, "A.f")]
    assert "norms.py" in [p.name for p in MODULES]
