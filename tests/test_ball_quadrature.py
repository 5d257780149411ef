"""Property tests of the one ball quadrature, d = 1, 2, 3.

A ball view ``norms._Pieces(state, apex=c).ball(R)`` and its ``integral``
are held against an explicit masked sum for random fields, centres (some
within the radius of the box edge, so the ball wraps) and radii up to the
box-fit limit, with and without a radial weight of the view's distances.
The distance table it reads is held against the distance to the nearest
periodic image, computed here.  About a lattice centre the reference ball
is exact: integer offsets to the nearest image, compared with R/h in
rational arithmetic.  The ball is open, and the cached tables are
read-only.  A view takes its gradient at its own points, and a ball of a
view is a ball of the whole snapshot.
"""

from fractions import Fraction


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nlkg.grid as grid_mod
from nlkg.errors import CorruptionError, DomainError
from nlkg.grid import Field, GridSpec, State, axis_coordinates, displacement, radial_distance
from nlkg.norms import _Pieces

RTOL = 1e-12

grids = st.builds(GridSpec, d=st.sampled_from([1, 2, 3]), n=st.sampled_from([8, 16]),
                  box_length=st.floats(2.0, 20.0))
# a fraction of the box per axis; the two edge bands put the ball across the seam
fractions = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 0.05),
                      st.floats(0.95, 1.0, exclude_max=True))
seeds = st.integers(0, 2**32 - 1)
examples = settings(max_examples=40, deadline=None)


def ball(f: np.ndarray, grid: GridSpec, center, R: float) -> _Pieces:
    """The view of the snapshot u = f, u_t = 0 on the ball |x - center| < R."""
    state = State(Field(grid, f), Field(grid, np.zeros(grid.shape)), 0.0, 0.0, 2.0)
    return _Pieces(state, apex=center).ball(R)


def image_distance(grid: GridSpec, center) -> np.ndarray:
    """|x - c| minimized over the periodic images c + k L, k in {-1, 0, 1}^d."""
    L = grid.box_length
    sq = np.zeros(grid.shape)
    for x, c in zip(axis_coordinates(grid), center):
        sq = sq + np.min([(x - c + k * L) ** 2 for k in (-1.0, 0.0, 1.0)], axis=0)
    return np.sqrt(sq)


def exact_lattice_mask(grid: GridSpec, center, R: float):
    """|k| h < R exactly, k the integer offset to the nearest image of a
    lattice centre; None when the centre is off the lattice."""
    index = [c / grid.spacing for c in center]
    if not all(float(i).is_integer() for i in index):
        return None
    sq = np.zeros(grid.shape, dtype=np.int64)
    for ax, i in enumerate(index):
        j = np.arange(grid.n) - int(i)
        k2 = np.min([(j + s * grid.n) ** 2 for s in (-1, 0, 1)], axis=0)
        sq = sq + k2.reshape((1,) * ax + (grid.n,) + (1,) * (grid.d - ax - 1))
    limit = Fraction(R) ** 2 / Fraction(grid.spacing) ** 2
    inside = [q for q in np.unique(sq).tolist() if q < limit]
    return np.isin(sq, inside)


@examples
@given(grids, st.lists(fractions, min_size=3, max_size=3), st.floats(0.0, 1.0),
       st.sampled_from([None, 0.0, 1.0, 2.5]), seeds)
def test_matches_explicit_masked_sum(grid, frac, radius_frac, exponent, seed):
    L = grid.box_length
    center = tuple(f * L for f in frac[: grid.d])
    R = radius_frac * grid.max_fit_radius
    f = np.random.default_rng(seed).standard_normal(grid.shape)
    dist = radial_distance(grid, center)
    assert np.max(np.abs(dist - image_distance(grid, center))) <= 1e-14 * L
    mask = exact_lattice_mask(grid, center, R)
    if mask is None:
        mask = dist < R
    w = np.ones(grid.shape) if exponent is None else (1.0 + dist) ** exponent
    ref = np.sum(f[mask] * w[mask]) * grid.spacing**grid.d
    scale = np.sum(np.abs(f[mask] * w[mask])) * grid.spacing**grid.d
    view = ball(f, grid, center, R)
    got = view.integral(view.u if exponent is None else view.u * (1.0 + view.dist) ** exponent)
    assert abs(got - ref) <= RTOL * scale


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lattice_point_at_the_radius_is_excluded(d):
    g = GridSpec(d, 16, 8.0)  # h = 1/2: lattice distances are exact
    center = (g.spacing,) * d  # near the edge, so the ball wraps
    R = 3.0 * g.spacing
    f = np.zeros(g.shape)
    f[(4,) + (1,) * (d - 1)] = 1.0  # three cells from the centre along axis 0
    f[(-2,) + (1,) * (d - 1)] = 1.0  # three cells the other way, across the seam
    for radius, count in ((R, 0), (R + 0.5 * g.spacing, 2)):
        view = ball(f, g, center, radius)
        assert view.integral(view.u) == count * g.cell_volume


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lattice_membership_is_exact_where_the_float_table_rounds(d):
    g = GridSpec(d, 8, 5.771590203153812)
    center = (0.0,) * d
    R = g.max_fit_radius  # L/2 - 3h rounds up to a float just above h
    # the float table rounds the six (two in d = 1) nearest neighbours onto R
    assert radial_distance(g, center)[(1,) + (0,) * (d - 1)] == R > g.spacing
    f = np.ones(g.shape)
    # ... yet they are inside, and a lattice point at exactly R = h stays out
    for radius, count in ((R, 1 + 2 * d), (g.spacing, 1)):
        view = ball(f, g, center, radius)
        assert view.integral(view.u) == count * g.cell_volume


def test_an_array_apex_is_held_as_its_tuple():
    # the view masks the fields alone, never the apex: an array apex gives the
    # tuple apex's view
    g = GridSpec(2, 16, 8.0)
    f = np.random.default_rng(7).standard_normal(g.shape)
    view, ref = ball(f, g, np.array([1.0, 7.5]), 2.5), ball(f, g, (1.0, 7.5), 2.5)
    assert view.apex == ref.apex == (1.0, 7.5)
    for got, want in ((view.u, ref.u), (view.dist, ref.dist), (view.S, ref.S)):
        assert np.array_equal(got, want)
    assert view.integral(view.u) == ref.integral(ref.u)


def test_cached_tables_are_read_only():
    g = GridSpec(2, 16, 8.0)
    r = radial_distance(g, (1.0, 2.0))
    assert radial_distance(g, np.array([1.0, 2.0])) is r
    with pytest.raises(ValueError):
        r[0, 0] = 1.0
    disp = displacement(g, [1.0, 2.0])
    with pytest.raises(ValueError):
        disp[0][0] = 1.0


def test_transient_distance_matches_the_cached_table_outside_the_cache():
    g = GridSpec(3, 16, 8.0)
    grid_mod._distance_table.cache_clear()
    r = grid_mod._transient_distance(g, (1.0, 2.0, 7.5))
    assert grid_mod._distance_table.cache_info().currsize == 0
    assert np.array_equal(r, radial_distance(g, (1.0, 2.0, 7.5)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_an_empty_ball_integrates_to_zero(d):
    # about an apex off the lattice, a radius below the nearest lattice
    # distance holds no point: every field of the view is empty, its gradient
    # too, and every integral is 0.0
    g = GridSpec(d, 16, 8.0)
    apex = tuple(4.0 + 0.3 * g.spacing for _ in range(d))
    R = 0.25 * g.spacing
    assert np.min(radial_distance(g, apex)) > R
    f = np.random.default_rng(d).standard_normal(g.shape)
    state = State(Field(g, f), Field(g, f[::-1].copy()), 0.3, 0.5, 2.0)
    view = _Pieces(state, 1.0, apex).ball(R)
    assert all(a.shape == (0,) for a in (view.u, view.v, view.dist, *view.grad, *view.x))
    for values in (view.u, view.grad_sq, view.energy_density, view.S, view.u_r,
                   view.lagrangian_density, view.charge_source):
        assert view.integral(values) == 0.0
    assert view.ball(0.5 * R).integral(view.u) == 0.0


def test_a_non_finite_gradient_in_the_ball_raises():
    # the transform of 1e308 overflows, so the gradient is NaN in the ball
    g = GridSpec(2, 16, 8.0)
    with np.errstate(all="ignore"), pytest.raises(CorruptionError, match="non-finite"):
        ball(np.full(g.shape, 1e308), g, (4.0, 4.0), 1.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_ball_of_a_view_is_the_ball_of_the_snapshot(d):
    g = GridSpec(d, 16, 8.0)
    f = np.random.default_rng(11).standard_normal(g.shape)
    apex = (4.0 + 0.17,) * d
    outer = ball(f, g, apex, 2.0)
    for inner, ref in ((outer.ball(1.1), ball(f, g, apex, 1.1)),
                       (outer.ball(2.0), ball(f, g, apex, 2.0))):
        for got, want in ((inner.u, ref.u), (inner.dist, ref.dist),
                          (inner.grad_sq, ref.grad_sq), *zip(inner.grad, ref.grad)):
            assert got.tobytes() == want.tobytes()
    with pytest.raises(DomainError, match="inside this ball view"):
        outer.ball(2.5)
