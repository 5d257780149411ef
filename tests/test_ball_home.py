"""The open-ball rule norms._inside has one caller, norms._Pieces.ball: every
ball or cone integral of the package is the integral of a ball view."""

import ast
from pathlib import Path

import pytest

import nlkg

from conftest import named_calls

MODULES = sorted(Path(nlkg.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_ball_view_calls_the_ball_rule(path):
    expected = ["_Pieces.ball"] if path.name == "norms.py" else []
    calls = named_calls(ast.parse(path.read_text(), filename=str(path)), "_inside")
    assert [scope for _, scope in calls] == expected


def test_the_check_sees_each_form():
    src = ("m = _inside(g, c, r)\nclass A:\n    def f(self):\n"
           "        return norms._inside(g, c, r)\n")
    assert named_calls(ast.parse(src), "_inside") == [(1, ""), (4, "A.f")]
    assert "norms.py" in [p.name for p in MODULES]
