"""nlkg.grid is the only module that calls an FFT: no other module of the
package imports numpy.fft or scipy.fft, or reaches them as np.fft / scipy.fft.
grid's one transform pair is numpy.fft's, and it gives scipy.fft's
coefficients and inverses bit for bit."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as sfft

import nlkg
from nlkg.grid import _forward_array, _inverse_array

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


def test_grid_transforms_on_numpy_fft_only():
    used = fft_uses(ast.parse(Path(nlkg.__file__).with_name("grid.py").read_text()))
    assert used and all(not name.startswith("scipy") for _, name in used)


def assert_pair_is_scipy_bit_for_bit(values: np.ndarray) -> None:
    kept = values.copy()
    F = _forward_array(values)
    ref = sfft.rfftn(values)
    assert F.dtype == ref.dtype and F.shape == ref.shape and F.tobytes() == ref.tobytes()
    assert values.tobytes() == kept.tobytes()
    coefficients = F.copy()
    back = _inverse_array(F, values.shape)
    ref = sfft.irfftn(coefficients, s=values.shape)
    assert back.dtype == ref.dtype and back.shape == ref.shape and back.tobytes() == ref.tobytes()
    # the stepper keeps its half-spectra resident: the inverse must not scribble on them
    assert F.tobytes() == coefficients.tobytes()


# grid sizes are powers of two: there each inverse pass's 1/n is exact, so
# numpy's per-axis scaling gives scipy's one 1/n^d scaling bit for bit.  The
# scales stay clear of overflow and of subnormals, where the two places of
# that scaling round differently.
@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), n=st.sampled_from([4, 8, 16, 32, 64]),
       seed=st.integers(0, 2**32 - 1), scale=st.integers(-250, 250))
def test_transform_pair_equals_scipy_bit_for_bit(d, n, seed, scale):
    values = np.random.default_rng(seed).standard_normal((n,) * d) * 10.0**scale
    assert_pair_is_scipy_bit_for_bit(values)


def test_transform_pair_equals_scipy_bit_for_bit_at_512_squared():
    assert_pair_is_scipy_bit_for_bit(np.random.default_rng(512).standard_normal((512, 512)))
