import ast
import sys

import numpy as np
import pytest

import nlkg.grid as grid_mod
from nlkg.grid import Field, GridSpec


@pytest.fixture
def grid2d():
    return GridSpec(d=2, n=64, box_length=8.0)


@pytest.fixture
def grid1d():
    return GridSpec(d=1, n=256, box_length=8.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def full_mesh(grid: GridSpec) -> list:
    """Per-axis wavenumbers of the full numpy.fft layout (fftfreq on every axis)."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
    return [k.reshape((1,) * ax + (grid.n,) + (1,) * (grid.d - ax - 1)) for ax in range(grid.d)]


def full_magnitude(grid: GridSpec) -> np.ndarray:
    """|xi| on the full numpy.fft coefficient grid."""
    return np.sqrt(sum(k**2 for k in full_mesh(grid)))


def random_field(grid: GridSpec, rng, band_limit_frac: float = 0.33) -> Field:
    """Seeded random field, band-limited to avoid Nyquist edge effects."""
    vals = rng.standard_normal(grid.shape)
    F = np.fft.fftn(vals)
    F[full_magnitude(grid) > band_limit_frac * grid.max_wavenumber] = 0.0
    out = np.fft.ifftn(F).real
    return Field(grid, np.ascontiguousarray(out / np.max(np.abs(out))))


def cosine_field(grid: GridSpec, k_int) -> Field:
    """cos(k . x) for an on-grid integer mode vector."""
    from nlkg.grid import axis_coordinates

    k = 2.0 * np.pi / grid.box_length * np.asarray(k_int, dtype=float)
    phase = np.zeros(grid.shape)
    for ax, x in enumerate(axis_coordinates(grid)):
        phase = phase + k[ax] * x
    return Field(grid, np.cos(phase))


def ode_oracle(A: float, B: float, m: float, p: float, t_grid,
               stop_amplitude: float | None = None):
    """The constant-data reference: integrate v'' + m^2 v = |v|^p v from (A, B)
    with an order-8 adaptive RK.

    Returns (times, v, v') at the points of t_grid that were reached; the
    integration stops early at |v| = stop_amplitude when given.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)

    def rhs(_t, y):
        vv, vd = y
        return [vd, np.abs(vv) ** p * vv - m**2 * vv]

    events = None
    if stop_amplitude is not None:
        def hit(_t, y):
            return abs(y[0]) - stop_amplitude
        hit.terminal = True
        events = hit

    from scipy import integrate
    sol = integrate.solve_ivp(
        rhs, (t_grid[0], t_grid[-1]), [A, B], method="DOP853",
        t_eval=t_grid, rtol=1e-12, atol=1e-12, events=events,
    )
    if sol.status < 0:
        raise RuntimeError(f"ODE oracle failed: {sol.message}")
    return sol.t, sol.y[0], sol.y[1]


def count_gradients(monkeypatch) -> list:
    """Wrap spectral_gradient in every nlkg module that binds it; returns the
    call log.  A call on a ball's points alone (`inside` given) counts too."""
    calls, real = [], grid_mod.spectral_gradient

    def counting(f, inside=None):
        calls.append(f)
        return real(f, inside)

    for name, mod in list(sys.modules.items()):
        if (name == "nlkg" or name.startswith("nlkg.")) and hasattr(mod, "spectral_gradient"):
            monkeypatch.setattr(mod, "spectral_gradient", counting)
    return calls


def count_transforms(monkeypatch) -> dict:
    """Wrap _forward_array, _inverse_array and _project_into in every nlkg
    module that binds them; returns the call logs {"forward": [...],
    "inverse": [...], "project": [...]}."""
    calls = {"forward": [], "inverse": [], "project": []}
    real_forward, real_inverse = grid_mod._forward_array, grid_mod._inverse_array
    real_project = grid_mod._project_into

    def forward(values):
        calls["forward"].append(values.shape)
        return real_forward(values)

    def inverse(coefficients, shape):
        calls["inverse"].append(shape)
        return real_inverse(coefficients, shape)

    def project(coefficients, weights, work, out):
        calls["project"].append(out.shape)
        return real_project(coefficients, weights, work, out)

    wrappers = (("_forward_array", forward), ("_inverse_array", inverse),
                ("_project_into", project))
    for name, mod in list(sys.modules.items()):
        if name == "nlkg" or name.startswith("nlkg."):
            for attr, wrapper in wrappers:
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


def count_norms(monkeypatch) -> dict:
    """Wrap lebesgue_norm and _spectral_sobolev_norm in every nlkg module that
    binds them; returns the call logs {"lebesgue": [...], "sobolev": [...]}."""
    import nlkg.norms as norms_mod

    calls = {"lebesgue": [], "sobolev": []}
    real_lebesgue, real_sobolev = norms_mod.lebesgue_norm, norms_mod._spectral_sobolev_norm

    def lebesgue(f, q):
        calls["lebesgue"].append(q)
        return real_lebesgue(f, q)

    def sobolev(F, g, s, *args, **kwargs):
        calls["sobolev"].append(s)
        return real_sobolev(F, g, s, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "nlkg" or name.startswith("nlkg."):
            for attr, wrapper in (("lebesgue_norm", lebesgue), ("_spectral_sobolev_norm", sobolev)):
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, wrapper)
    return calls


def named_calls(tree: ast.AST, name: str) -> list:
    """(line, enclosing class/function path) of each call of `name`, by bare
    name or as an attribute."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                found.append((node.lineno, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found
