"""Outside nlkg.grid, the gradient of a snapshot is computed in one place:
norms._Pieces, the per-snapshot field view every diagnostic reads."""

import ast
from pathlib import Path

import pytest

import nlkg

MODULES = sorted(Path(nlkg.__file__).parent.glob("*.py"))


def gradient_calls(tree: ast.AST) -> list:
    """(line, enclosing class/function path) of each call of spectral_gradient,
    by bare name or as an attribute."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "spectral_gradient":
                found.append((node.lineno, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def calls_in(path: Path) -> list:
    return gradient_calls(ast.parse(path.read_text(), filename=str(path)))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "grid.py"], ids=lambda p: p.name)
def test_only_the_field_view_calls_spectral_gradient(path):
    expected = ["_Pieces.__init__"] if path.name == "norms.py" else []
    assert [scope for _, scope in calls_in(path)] == expected


def test_the_check_sees_each_form():
    src = ("g = spectral_gradient(u)\nclass A:\n    def f(self):\n"
           "        return grid.spectral_gradient(self.u)\n")
    assert gradient_calls(ast.parse(src)) == [(1, ""), (4, "A.f")]
    assert "norms.py" in [p.name for p in MODULES]
