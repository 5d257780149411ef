import numpy as np
import pytest

from nlkg.blowup import (
    blowup_surface_estimate,
    concavity_check,
    critical_norm_series,
    detect_and_fit,
    lower_bound_check,
    mass_diagnostics,
    truncated_mass,
)
from nlkg.cones import ConeSpec, averaged_gradient_bound
from nlkg.conslaws import charge_slab_identity
from nlkg.errors import DomainError
from nlkg.grid import Field, GridSpec, State, radial_distance
from nlkg.norms import energy, lebesgue_norm, sobolev_norm
from nlkg.solver import SolverConfig, Trajectory, evolve, initial_data

from conftest import count_gradients, ode_oracle

LIFESPAN_A1_P2 = 1.854074677301368


@pytest.fixture(scope="module")
def constant_blowup_traj():
    g = GridSpec(2, 32, 8.0)
    st = initial_data(g, "constant", m=0.0, p=2.0, A=1.0)
    cfg = SolverConfig(dt_init=5e-3, t_max=5.0, adapt_theta=1.0,
                       blowup_threshold=1e8, snapshot_stride=5)
    return evolve(st, cfg, {"mass": lambda s: lebesgue_norm(s.u, 2.0) ** 2,
                            "energy": lambda s: energy(s)})


@pytest.fixture(scope="module")
def gaussian_blowup_traj():
    g = GridSpec(2, 64, 8.0)
    st = initial_data(g, "negative_energy", m=0.0, p=2.0, A=1.0, w=0.6)
    cfg = SolverConfig(dt_init=1e-3, t_max=8.0, adapt_theta=0.5,
                       blowup_threshold=1e8, snapshot_stride=20)
    return evolve(st, cfg, {"energy": lambda s: energy(s)})


def linear_traj(grid, steps=60):
    st = initial_data(grid, "plane_wave", m=0.5, p=2.0, k=(2, 1))
    cfg = SolverConfig(dt_init=1e-2, t_max=steps * 1e-2, adapt_theta=None,
                       nonlinearity=0.0, snapshot_stride=1)
    return evolve(st, cfg)


class TestDetectAndFit:
    def test_constant_data_t_star_and_rate(self, constant_blowup_traj):
        report = detect_and_fit(constant_blowup_traj, fit_series=("mass",))
        assert report.detected
        assert abs(report.t_star - LIFESPAN_A1_P2) / LIFESPAN_A1_P2 < 0.01
        assert report.rate_exponents["sup_norm"] == pytest.approx(-1.0, abs=0.03)
        assert report.rate_exponents["mass"] == pytest.approx(-2.0, abs=0.06)

    @pytest.mark.parametrize("k_fit", [0, 1, 2])
    def test_k_fit_below_three_rejected(self, constant_blowup_traj, k_fit):
        # k_fit 0 used to fit every sample (times[-0:]), 2 a line with no residual
        with pytest.raises(DomainError, match="k_fit"):
            detect_and_fit(constant_blowup_traj, k_fit=k_fit)

    def test_linear_run_not_detected(self, grid2d):
        report = detect_and_fit(linear_traj(grid2d))
        assert not report.detected
        assert "blowup_detected" in report.diagnostics

    def test_scale_consistency(self, constant_blowup_traj):
        # m = 0 scaling u -> lam^{2/p} u(lam t, lam x) divides T* by lam
        lam = 2.0
        src = constant_blowup_traj
        g = src.snapshots[0].grid
        g2 = GridSpec(g.d, g.n // 2, g.box_length / 2.0)
        p = src.snapshots[0].exponent
        snaps = []
        for s in src.snapshots:
            dec = s.u.values[::2, ::2] * lam ** (2.0 / p)
            decv = s.v.values[::2, ::2] * lam ** (2.0 / p + 1.0)
            snaps.append(State(Field(g2, dec.copy()), Field(g2, decv.copy()),
                               s.time / lam, 0.0, p))
        t, sup = src.series("sup_norm")
        traj2 = Trajectory(snapshots=snaps, termination="blowup_detected",
                           scalar_series={"sup_norm": (t / lam, sup * lam ** (2.0 / p))})
        r1 = detect_and_fit(src)
        r2 = detect_and_fit(traj2)
        assert r2.t_star == pytest.approx(r1.t_star / lam, rel=0.02)


class TestMassDiagnostics:
    def test_zero_trajectory(self, grid2d):
        z = Field(grid2d, np.zeros(grid2d.shape))
        snaps = [State(z, z, t, 0.0, 2.0) for t in (0.0, 0.1, 0.2)]
        traj = Trajectory(snapshots=snaps, termination="reached_t_max",
                          scalar_series={"sup_norm": (np.array([0, 0.1, 0.2]), np.zeros(3))})
        series = mass_diagnostics(traj)
        assert np.all(series.M == 0.0) and np.all(series.M_dprime == 0.0)
        report = concavity_check(series)
        assert report.cauchy_schwarz_violations == 0

    def test_constant_data_against_oracle(self):
        # dedicated fine-step run so the solver tracks the oracle to 1e-6
        g = GridSpec(2, 32, 8.0)
        st = initial_data(g, "constant", m=0.0, p=2.0, A=1.0)
        cfg = SolverConfig(dt_init=2e-4, t_max=1.2, adapt_theta=None,
                           snapshot_stride=100)
        traj = evolve(st, cfg, {"energy": lambda s: energy(s)})
        series = mass_diagnostics(traj)
        V = g.volume
        _, v, vd = ode_oracle(1.0, 0.0, 0.0, 2.0, series.times)
        assert np.allclose(series.M, V * v**2, rtol=1e-6)
        assert np.allclose(series.M_prime, 2.0 * V * v * vd, rtol=1e-6, atol=1e-8)
        # M'' closed formula equals 2 V (v'^2 + v v'') with v'' = v^3
        mpp = 2.0 * V * (vd**2 + v * np.abs(v) ** 2.0 * v)
        assert np.allclose(series.M_dprime, mpp, rtol=1e-6)

    @pytest.mark.slow
    def test_m_prime_matches_centered_difference(self, gaussian_blowup_traj):
        series = mass_diagnostics(gaussian_blowup_traj)
        t, M, Mp = series.times, series.M, series.M_prime
        k = len(t) // 3
        h1, h2 = t[k] - t[k - 1], t[k + 1] - t[k]
        # three-point first derivative on a nonuniform stencil
        est = (M[k + 1] * h1**2 - M[k - 1] * h2**2 + M[k] * (h2**2 - h1**2)) \
            / (h1 * h2 * (h1 + h2))
        assert Mp[k] == pytest.approx(est, rel=1e-3)

    @pytest.mark.slow
    def test_gaussian_concavity_and_cauchy_schwarz(self, gaussian_blowup_traj):
        series = mass_diagnostics(gaussian_blowup_traj)
        report = concavity_check(series)
        assert report.t0_index is not None
        assert report.cauchy_schwarz_violations == 0
        assert report.concavity_violations == 0

    def test_m_dprime_identity_refinement_order(self):
        # closed-formula M'' vs the second difference of M: the gap
        # vanishes under joint (dt, stride) refinement at order >= 1.8
        g = GridSpec(2, 64, 8.0)
        gaps = []
        for dt in (2e-3, 1e-3):
            st = initial_data(g, "gaussian", m=0.3, p=2.0, A=0.6, w=0.6)
            cfg = SolverConfig(dt_init=dt, t_max=0.4, adapt_theta=None,
                               snapshot_stride=10)
            traj = evolve(st, cfg, {"energy": lambda s: energy(s)})
            series = mass_diagnostics(traj)
            t, M, Mpp = series.times, series.M, series.M_dprime
            worst = 0.0
            for k in range(1, len(t) - 1):
                h1, h2 = t[k] - t[k - 1], t[k + 1] - t[k]
                sec = 2.0 * (h1 * M[k + 1] - (h1 + h2) * M[k] + h2 * M[k - 1]) \
                    / (h1 * h2 * (h1 + h2))
                worst = max(worst, abs(sec - Mpp[k]))
            gaps.append(worst)
        assert np.log2(gaps[0] / gaps[1]) >= 1.8


class TestTruncatedMass:
    def test_zero_trajectory(self, grid2d):
        z = Field(grid2d, np.zeros(grid2d.shape))
        snaps = [State(z, z, t, 0.0, 2.0) for t in (0.0, 0.05, 0.1)]
        traj = Trajectory(snapshots=snaps, termination="reached_t_max",
                          scalar_series={"sup_norm": (np.array([0, 0.05, 0.1]), np.zeros(3))})
        series = truncated_mass(traj, R=0.5)
        assert np.all(series.M == 0.0)

    def test_compact_data_matches_full_mass(self):
        # data concentrated well inside |x| < R: truncated equals full mass
        # until the field reaches the cutoff annulus (narrow enough that
        # spectral tails sit below the tolerance)
        g = GridSpec(2, 256, 16.0)
        st = initial_data(g, "gaussian", m=0.0, p=2.0, A=0.4, w=0.3)
        cfg = SolverConfig(dt_init=5e-3, t_max=0.2, adapt_theta=None, snapshot_stride=4)
        traj = evolve(st, cfg, {"mass": lambda s: lebesgue_norm(s.u, 2.0) ** 2})
        series = truncated_mass(traj, R=1.5)
        _, full = traj.series("mass")
        assert np.allclose(series.M, full, rtol=1e-10)

    def test_identity_gap_on_negative_energy_run(self):
        g = GridSpec(2, 64, 16.0)
        st = initial_data(g, "negative_energy", m=0.0, p=2.0, A=1.0, w=0.5)
        cfg = SolverConfig(dt_init=1e-3, t_max=0.5, adapt_theta=None,
                           blowup_threshold=1e8, snapshot_stride=2)
        traj = evolve(st, cfg)
        series = truncated_mass(traj, R=1.2)
        assert series.extra["m2_gap"] <= 1e-3

    def test_cutoff_support_must_fit(self, grid2d):
        z = Field(grid2d, np.zeros(grid2d.shape))
        snaps = [State(z, z, t, 0.0, 2.0) for t in (0.0, 0.1)]
        traj = Trajectory(snapshots=snaps, termination="reached_t_max",
                          scalar_series={"sup_norm": (np.array([0, 0.1]), np.zeros(2))})
        with pytest.raises(DomainError):
            truncated_mass(traj, R=3.0)

    @pytest.mark.parametrize("R", [0.0, -1.0, np.nan])
    def test_cutoff_radius_must_be_positive(self, grid2d, R):
        z = Field(grid2d, np.zeros(grid2d.shape))
        snaps = [State(z, z, t, 0.0, 2.0) for t in (0.0, 0.1, 0.2)]
        traj = Trajectory(snapshots=snaps, termination="reached_t_max",
                          scalar_series={"sup_norm": (np.array([0, 0.1, 0.2]), np.zeros(3))})
        with pytest.raises(DomainError, match="R must be positive"):
            truncated_mass(traj, R=R)


class TestOneGradientPerSnapshot:
    # every per-snapshot diagnostic reads one gradient per snapshot it uses,
    # and the energy inside it is the energy a separate call gives
    @pytest.fixture(scope="class")
    def traj(self):
        # a wide box, so that the truncated mass's cutoff (R = 3) holds the data
        g = GridSpec(2, 64, 16.0)
        st = initial_data(g, "gaussian", m=0.5, p=2.0, A=0.9, w=0.6)
        cfg = SolverConfig(dt_init=5e-3, t_max=0.1, adapt_theta=None, snapshot_stride=4)
        traj = evolve(st, cfg)
        assert len(traj.snapshots) == 6  # t = 0, 0.02, ..., 0.1
        return traj

    # name -> (diagnostic, the number of snapshots it reads)
    DIAGNOSTICS = {
        "mass": (mass_diagnostics, 6),
        "truncated": (lambda tr: truncated_mass(tr, R=3.0), 6),
        # the ball radius 0.59 - t exceeds two cells (0.5) up to t = 0.08
        "lower_bound": (lambda tr: lower_bound_check(tr, 0.59, (8.0, 8.0)), 5),
        # sub-conformal: t in [t0, 2 t0] = [0.04, 0.08]
        "averaged": (lambda tr: averaged_gradient_bound(tr, ConeSpec((8.0, 8.0), 0.5),
                                                        tr.times[2]), 3),
        "charge_slab": (lambda tr: charge_slab_identity(tr, tr.times[1], tr.times[4]), 4),
    }

    @pytest.mark.parametrize("name", DIAGNOSTICS)
    def test_one_spectral_gradient_per_snapshot(self, traj, monkeypatch, name):
        run, used = self.DIAGNOSTICS[name]
        calls = count_gradients(monkeypatch)
        run(traj)
        assert len(calls) == used

    @pytest.mark.parametrize("name", ["mass", "truncated"])
    def test_matches_separate_energy(self, traj, name):
        # M'' = -2(p+2)E + int (p+4) u_t^2 + p |grad u|^2 + p m^2 u^2 with E from
        # energy() and |grad u|^2 by Plancherel; the cutoff's tails sit below 1e-10
        series = self.DIAGNOSTICS[name][0](traj)
        cell, expected = traj.snapshots[0].grid.cell_volume, []
        for s in traj.snapshots:
            p, m, u, v = s.exponent, s.mass_param, s.u.values, s.v.values
            expected.append(-2.0 * (p + 2.0) * energy(s, traj.nl_coeff)
                            + (p + 4.0) * float(np.sum(v**2)) * cell
                            + p * sobolev_norm(s.u, 1.0) ** 2
                            + p * m**2 * float(np.sum(u**2)) * cell)
        assert np.allclose(series.M_dprime, expected, rtol=1e-10, atol=0.0)
        if name == "mass":
            assert list(series.extra["energy"]) == [energy(s, traj.nl_coeff)
                                                    for s in traj.snapshots]


class TestCriticalNormSeries:
    def test_zero_trajectory(self, grid2d):
        z = Field(grid2d, np.zeros(grid2d.shape))
        snaps = [State(z, z, t, 0.0, 4.0) for t in (0.0, 0.1)]
        traj = Trajectory(snapshots=snaps, termination="reached_t_max",
                          scalar_series={"sup_norm": (np.array([0, 0.1]), np.zeros(2))})
        series = critical_norm_series(traj)
        assert np.all(series.values == 0.0)

    def test_plane_wave_linear_constant(self, grid2d):
        traj = linear_traj(grid2d)
        series = critical_norm_series(traj)
        spread = (series.values.max() - series.values.min()) / series.values.mean()
        assert spread < 1e-6


class TestLowerBoundCheck:
    def test_constant_data_reduction(self, constant_blowup_traj):
        report = detect_and_fit(constant_blowup_traj)
        g = constant_blowup_traj.snapshots[0].grid
        series = lower_bound_check(constant_blowup_traj, report.t_star, (1.0, 2.0))
        dist = radial_distance(g, (1.0, 2.0))
        # oracle arithmetic: (T-t)^{-2 s_c} * discrete ball measure * (v^2 + (T-t)^2 v'^2)
        _, v, vd = ode_oracle(1.0, 0.0, 0.0, 2.0, series.times)
        expected = []
        for t, vv, vv_d in zip(series.times, v, vd):
            rad = report.t_star - t
            measure = np.count_nonzero(dist <= rad) * g.cell_volume
            expected.append(measure * (vv**2 + rad**2 * vv_d**2))
        assert np.allclose(series.values, expected, rtol=2e-2)


class TestBlowupSurface:
    def test_constant_run_constant_sigma(self, constant_blowup_traj):
        sigma = blowup_surface_estimate(constant_blowup_traj, threshold=1e3)
        assert np.max(sigma.values) - np.min(sigma.values) < 1e-12

    def test_synthetic_two_bump_ordering(self):
        # controlled synthetic crossing pattern: u(t,x) = A(x)/(1.5 - t)
        g = GridSpec(2, 64, 8.0)
        r1 = radial_distance(g, (2.5, 4.0))
        r2 = radial_distance(g, (5.5, 4.0))
        A = 1.0 * np.exp(-(r1**2) / (2 * 0.6**2)) + 0.8 * np.exp(-(r2**2) / (2 * 0.6**2))
        times = np.linspace(0.0, 1.49, 300)
        snaps = []
        for t in times:
            u = Field(g, A / (1.5 - t))
            snaps.append(State(u, Field(g, np.zeros(g.shape)), float(t), 0.0, 2.0))
        traj = Trajectory(snapshots=snaps, termination="blowup_detected",
                          scalar_series={"sup_norm": (times, A.max() / (1.5 - times))})
        sigma = blowup_surface_estimate(traj, threshold=20.0)
        i1 = (int(2.5 / g.spacing), int(4.0 / g.spacing))
        i2 = (int(5.5 / g.spacing), int(4.0 / g.spacing))
        assert sigma.values[i1] < sigma.values[i2]
        # both centers are local minima of the crossing surface
        for idx in (i1, i2):
            patch = sigma.values[idx[0] - 3: idx[0] + 4, idx[1] - 3: idx[1] + 4]
            assert sigma.values[idx] == patch.min()

    @pytest.mark.slow
    def test_discrete_lipschitz_bound(self, gaussian_blowup_traj):
        sigma = blowup_surface_estimate(gaussian_blowup_traj, threshold=1e3)
        h = sigma.grid.spacing
        for ax in range(sigma.grid.d):
            jump = np.abs(np.diff(sigma.values, axis=ax))
            assert np.max(jump) <= h + 2.0 * h + 1e-12

    @pytest.mark.slow
    def test_idempotent_projection(self, gaussian_blowup_traj):
        from nlkg.blowup import _lipschitz_envelope

        sigma = blowup_surface_estimate(gaussian_blowup_traj, threshold=1e3)
        twice = _lipschitz_envelope(sigma.values, sigma.grid.spacing)
        assert np.array_equal(twice, sigma.values)

    def test_no_crossing_is_error(self, grid2d):
        traj = linear_traj(grid2d)
        with pytest.raises(DomainError):
            blowup_surface_estimate(traj, threshold=1e3)
