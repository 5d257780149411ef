import tracemalloc

import numpy as np
import pytest

import nlkg.grid as grid_mod
import nlkg.profiles as profiles_mod
from nlkg.errors import StagnationError
from nlkg.grid import Field, GridSpec, dyadic_range, radial_distance
from nlkg.norms import critical_exponent, lebesgue_norm, sobolev_norm
from nlkg.profiles import (
    Decomposition,
    FunctionFamily,
    bubble_decompose,
    decoupling_audit,
    inverse_gn_extract,
)

PARAMS = critical_exponent(2, 4.0)


def gaussian_bubble(grid, center, amp, width_cells):
    r = radial_distance(grid, center)
    w = width_cells * grid.spacing
    return amp * np.exp(-(r**2) / (2.0 * w**2))


def make_family(grid, layout, n_members, rng, noise=0.0):
    """layout: list of (amp, width_cells); member i separates bubbles by
    base_sep * 2^i cells along distinct axes."""
    members = []
    for i in range(n_members):
        sep = layout["base_sep"] * 2**i
        anchor = rng.integers(0, grid.n, size=grid.d)
        vals = np.zeros(grid.shape)
        offsets = [np.zeros(grid.d, dtype=int)]
        if len(layout["bubbles"]) > 1:
            offsets.append(np.array([sep, 0]))
        if len(layout["bubbles"]) > 2:
            offsets.append(np.array([0, sep]))
        for (amp, wc), off in zip(layout["bubbles"], offsets):
            center = ((anchor + off) % grid.n) * grid.spacing
            vals += gaussian_bubble(grid, center, amp, wc)
        if noise:
            vals += noise * rng.standard_normal(grid.shape)
        members.append(Field(grid, vals))
    return FunctionFamily(tuple(members))


def h1_error(a: Field, b: Field) -> float:
    diff = Field(a.grid, a.values - b.values)
    denom = np.sqrt(sobolev_norm(b, 1.0) ** 2 + lebesgue_norm(b, 2.0) ** 2)
    return np.sqrt(sobolev_norm(diff, 1.0) ** 2 + lebesgue_norm(diff, 2.0) ** 2) / denom


class TestInverseGnExtract:
    def test_window_leaves_distance_cache_alone(self, rng):
        # the window's one-off distance table would otherwise stay cached
        g = GridSpec(2, 64, 16.0)
        fam = make_family(g, {"base_sep": 8, "bubbles": [(1.0, 2.5)]}, 2, rng)
        grid_mod._distance_table.cache_clear()
        assert inverse_gn_extract(fam, PARAMS).status == "ok"
        assert grid_mod._distance_table.cache_info().currsize == 0

    def test_single_bubble_recovery(self, rng):
        g = GridSpec(2, 128, 16.0)
        true = Field(g, gaussian_bubble(g, (8.0, 8.0), 1.0, 2.5))
        members = []
        shifts = []
        for _ in range(4):
            shift = rng.integers(0, g.n, size=2)
            shifts.append(shift)
            members.append(Field(g, np.roll(true.values,
                                            tuple(shift), axis=(0, 1))))
        family = FunctionFamily(tuple(members))
        res = inverse_gn_extract(family, PARAMS)
        assert res.status == "ok"
        # recovered center within one cell of the shifted bubble center
        for i, shift in enumerate(shifts):
            expected = ((np.array([8.0, 8.0]) / g.spacing + shift) % g.n) * g.spacing
            delta = np.abs(res.centers[i] - expected)
            delta = np.minimum(delta, g.box_length - delta)
            assert np.max(delta) <= g.spacing + 1e-12
        centered = Field(g, np.roll(true.values,
                                    (g.n // 2 - int(8.0 / g.spacing),) * 2, axis=(0, 1)))
        assert h1_error(res.profile, centered) <= 0.02

    def test_zero_family_exhausted(self, grid2d):
        z = Field(grid2d, np.zeros(grid2d.shape))
        res = inverse_gn_extract(FunctionFamily((z, z)), PARAMS)
        assert res.status == "exhausted"

    def test_noisy_bubble_recovery(self, rng):
        from conftest import random_field

        g = GridSpec(2, 128, 16.0)
        true = Field(g, gaussian_bubble(g, (8.0, 8.0), 1.0, 2.5))
        members = []
        for _ in range(6):
            shift = rng.integers(0, g.n, size=2)
            vals = np.roll(true.values, tuple(shift), axis=(0, 1))
            vals = vals + 0.01 * random_field(g, rng).values
            members.append(Field(g, vals))
        family = FunctionFamily(tuple(members))
        res = inverse_gn_extract(family, PARAMS)
        centered = Field(g, np.roll(true.values,
                                    (g.n // 2 - int(8.0 / g.spacing),) * 2, axis=(0, 1)))
        assert h1_error(res.profile, centered) <= 0.05


class TestBubbleDecompose:
    def test_zero_family_empty(self, grid2d):
        z = Field(grid2d, np.zeros(grid2d.shape))
        dec = bubble_decompose(FunctionFamily((z,)), PARAMS, tol=1e-6)
        assert dec.n_bubbles == 0

    def test_single_bubble_one_pass(self, rng):
        g = GridSpec(2, 128, 16.0)
        layout = {"bubbles": [(1.0, 2.5)], "base_sep": 0}
        family = make_family(g, layout, 3, rng)
        tol = 0.05 * lebesgue_norm(family.members[0], 6.0)
        dec = bubble_decompose(family, PARAMS, tol=tol)
        assert dec.n_bubbles == 1
        assert max(lebesgue_norm(r, 6.0) for r in dec.residuals) <= tol

    def test_three_bubble_recovery_and_decrements(self, rng):
        g = GridSpec(2, 256, 16.0)
        layout = {"bubbles": [(1.0, 2.5), (0.7, 2.0), (0.5, 1.5)], "base_sep": 24}
        family = make_family(g, layout, 3, rng)
        dec = bubble_decompose(family, PARAMS, j_max=4, tol=1e-2)
        assert dec.n_bubbles == 3
        assert np.all(np.diff(dec.eps_history) < 0.0)
        assert np.all(np.diff(dec.sobolev_history) < 0.0)
        # residual L^{p+2} level never exceeds the Sobolev level by more
        # than the module's empirical constant (inequality consistency)
        ratios = np.array(dec.eps_history) / np.array(dec.sobolev_history)
        assert np.max(ratios) <= 1.0

    def test_translation_equivariance(self, rng):
        g = GridSpec(2, 128, 16.0)
        layout = {"bubbles": [(1.0, 2.5), (0.6, 1.8)], "base_sep": 20}
        seed = int(rng.integers(0, 2**31))
        fam1 = make_family(g, layout, 3, np.random.default_rng(seed))
        shift_cells = 17
        shifted = tuple(Field(g, np.roll(f.values, (shift_cells, shift_cells), axis=(0, 1)))
                        for f in fam1.members)
        fam2 = FunctionFamily(shifted)
        dec1 = bubble_decompose(fam1, PARAMS, j_max=3, tol=1e-2)
        dec2 = bubble_decompose(fam2, PARAMS, j_max=3, tol=1e-2)
        assert dec1.n_bubbles == dec2.n_bubbles
        for (p1, c1), (p2, c2) in zip(dec1.bubbles, dec2.bubbles):
            assert np.max(np.abs(p1.values - p2.values)) < 1e-12
            delta = (c2 - c1 - shift_cells * g.spacing) % g.box_length
            delta = np.minimum(delta, g.box_length - delta)
            assert np.max(np.abs(delta)) < 1e-9

    def test_reconstruction_identity(self, rng):
        g = GridSpec(2, 128, 16.0)
        layout = {"bubbles": [(1.0, 2.5), (0.6, 1.8)], "base_sep": 20}
        family = make_family(g, layout, 3, rng)
        dec = bubble_decompose(family, PARAMS, j_max=3, tol=1e-2)
        from nlkg.profiles import _shift_profile

        for i, f in enumerate(family.members):
            recon = sum(_shift_profile(prof, centers[i], g)
                        for prof, centers in dec.bubbles) + dec.residuals[i].values
            assert np.max(np.abs(recon - f.values)) < 1e-12


def scan_band(grid, K):
    """The dyadic band an extraction with this K scans."""
    band = dyadic_range(grid, lo=K**-PARAMS.p, hi=K**2)
    return band if band.size else dyadic_range(grid)


class TestTransformCounts:
    """One forward transform per member per level and one band projection
    per member per scanned band, counted where every kernel transforms
    (_forward_array / _inverse_array / _project_into)."""

    @pytest.fixture
    def family(self, rng):
        g = GridSpec(2, 128, 16.0)
        return make_family(g, {"bubbles": [(1.0, 2.5), (0.6, 1.8)], "base_sep": 20}, 3, rng)

    def test_extraction(self, family, monkeypatch):
        from conftest import count_transforms

        calls = count_transforms(monkeypatch)
        res = inverse_gn_extract(family, PARAMS)
        n = family.n_count
        # one per member (M and the scan) and one for the profile's stats
        assert len(calls["forward"]) == n + 1
        # every band of the scan for each member; the centres come from the
        # scan, so the selected band is not inverted again
        assert len(calls["project"]) == n * len(scan_band(family.grid, res.stats["K"]))
        assert len(calls["inverse"]) == 0

    def test_extraction_norms(self, family, monkeypatch):
        from conftest import count_norms

        norms = count_norms(monkeypatch)
        inverse_gn_extract(family, PARAMS)
        n = family.n_count
        # the members' and the profile's L^{p+2} norms; both Sobolev norms of
        # each member (M) and of the profile
        assert len(norms["lebesgue"]) == n + 1
        assert len(norms["sobolev"]) == 2 * (n + 1)

    def test_decomposition_and_audit(self, family, monkeypatch):
        from conftest import count_norms, count_transforms

        calls, norms = count_transforms(monkeypatch), count_norms(monkeypatch)
        extractions, real = [], profiles_mod._extract

        def recording(*args, **kwargs):
            extractions.append(real(*args, **kwargs))
            return extractions[-1]

        monkeypatch.setattr(profiles_mod, "_extract", recording)
        dec = bubble_decompose(family, PARAMS, j_max=3, tol=1e-2)
        n = family.n_count
        assert dec.n_bubbles >= 2
        assert [r.status for r in extractions][:dec.n_bubbles] == ["ok"] * dec.n_bubbles
        # each level: its extraction's n + 1, whose M is that level's Sobolev
        # bound; then n for the last level's bound
        assert len(calls["forward"]) == dec.n_bubbles * (n + 1) + n
        assert len(calls["project"]) == sum(n * len(scan_band(family.grid, r.stats["K"]))
                                            for r in extractions[:dec.n_bubbles])
        assert len(calls["inverse"]) == 0
        # each residual set's L^{p+2} norms once (level 0, then n per level,
        # which the next extraction reuses), plus each profile's; both Sobolev
        # norms of each member per level and of each profile, then the last bound's
        assert len(norms["lebesgue"]) == n + dec.n_bubbles * (n + 1)
        assert len(norms["sobolev"]) == dec.n_bubbles * 2 * (n + 1) + 2 * n
        for log in (*calls.values(), *norms.values()):
            log.clear()
        decoupling_audit(dec, family, PARAMS)
        # the bubbles' and the residual's norms are recorded: only the last
        # member is transformed and normed
        assert [len(log) for log in calls.values()] == [1, 0, 0]
        assert [len(log) for log in norms.values()] == [1, 2]


def test_extraction_traced_peak_in_fields(rng):
    # the members' values are the caller's; the spectra, the scan's one
    # workspace (a half-spectrum, whose float view is its scratch, and one
    # field), a band's weights on its columns, and later the running sum of
    # the recentered members are the extraction's own
    g = GridSpec(2, 256, 16.0)
    family = make_family(g, {"bubbles": [(1.0, 2.5), (0.7, 2.0), (0.5, 1.5)], "base_sep": 20},
                         3, rng)
    inverse_gn_extract(family, PARAMS)  # fill the wavenumber caches
    tracemalloc.start()
    try:
        assert inverse_gn_extract(family, PARAMS).status == "ok"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.75 * g.num_points * 8


class TestDecouplingAudit:
    def test_single_exact_bubble_zero_residual(self, rng):
        g = GridSpec(2, 128, 16.0)
        prof_vals = gaussian_bubble(g, (np.array([g.n // 2, g.n // 2]) * g.spacing), 1.0, 2.5)
        profile = Field(g, prof_vals)
        center = np.array([24, 56]) * g.spacing
        from nlkg.profiles import _shift_profile

        member = Field(g, _shift_profile(profile, center, g))
        family = FunctionFamily((member,))
        dec = Decomposition(bubbles=[(profile, np.array([center]))],
                            residuals=[Field(g, np.zeros(g.shape))],
                            eps_history=[], sobolev_history=[])
        gaps = decoupling_audit(dec, family, PARAMS)
        assert gaps["h1"] < 1e-10
        assert gaps["hsc"] < 1e-10
        assert gaps["p_plus_2"] < 1e-10

    def test_three_bubble_gaps_small(self, rng):
        g = GridSpec(2, 256, 16.0)
        layout = {"bubbles": [(1.0, 2.5), (0.7, 2.0), (0.5, 1.5)], "base_sep": 24}
        family = make_family(g, layout, 3, rng)
        dec = bubble_decompose(family, PARAMS, j_max=4, tol=1e-2)
        gaps = decoupling_audit(dec, family, PARAMS)
        assert gaps["h1"] <= 0.05
        assert gaps["hsc"] <= 0.05
        assert gaps["p_plus_2"] <= 0.05
        assert np.all(np.diff(gaps["min_separation_by_member"]) > 0.0)

    def test_overlapping_bubbles_large_gap_negative_control(self, rng):
        g = GridSpec(2, 128, 16.0)
        layout = {"bubbles": [(1.0, 2.5), (0.9, 2.0)], "base_sep": 2}
        family = make_family(g, layout, 3, rng)
        try:
            dec = bubble_decompose(family, PARAMS, j_max=2, tol=1e-3)
        except StagnationError:
            return  # proxy failure is an acceptable negative-control outcome
        gaps = decoupling_audit(dec, family, PARAMS)
        assert max(gaps["h1"], gaps["hsc"], gaps["p_plus_2"]) >= 0.20

    @pytest.mark.parametrize("j_max", [1, 3])  # one bubble left in the residual, or none
    def test_recorded_norms_give_the_gaps_of_a_hand_built_copy(self, rng, j_max):
        g = GridSpec(2, 128, 16.0)
        layout = {"bubbles": [(1.0, 2.5), (0.6, 1.8)], "base_sep": 20}
        family = make_family(g, layout, 3, rng)
        dec = bubble_decompose(family, PARAMS, j_max=j_max, tol=1e-2)
        assert len(dec.triples) == dec.n_bubbles + family.n_count
        bare = Decomposition(bubbles=dec.bubbles, residuals=dec.residuals,
                             eps_history=dec.eps_history, sobolev_history=dec.sobolev_history)
        assert bare.triples == []
        assert repr(decoupling_audit(dec, family, PARAMS)) == \
            repr(decoupling_audit(bare, family, PARAMS))


@pytest.mark.parametrize("d, n", [(1, 256), (2, 64), (3, 32)])
@pytest.mark.parametrize("radius", ["floor", "cap"])
def test_support_box_taper_is_the_whole_grid_taper_bit_for_bit(d, n, radius, rng):
    from nlkg.grid import _transient_distance, lp_bump
    from nlkg.profiles import WINDOW_FLOOR_CELLS, _apply_window

    g = GridSpec(d, n, 8.0)
    floor, cap = WINDOW_FLOOR_CELLS * g.spacing, 0.45 * g.box_length / 1.1
    assert floor < cap
    R_w = floor if radius == "floor" else cap
    values = rng.standard_normal(g.shape)
    values.flat[::7] = 0.0
    whole = values * lp_bump(_transient_distance(g, np.full(d, n // 2) * g.spacing) / R_w)
    boxed = _apply_window(values.copy(), g, R_w)
    assert boxed.tobytes() == whole.tobytes()
    assert np.any(np.signbit(boxed) & (boxed == 0.0))  # -0.0 where a negative value is cut
