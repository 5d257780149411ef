import numpy as np
import pytest
from scipy import integrate

from nlkg.cones import (
    ConeAudit,
    ConeSpec,
    DiagnosticSeries,
    averaged_gradient_bound,
    cone_audit,
    cone_monitor,
    energy_flux_check,
    lyapunov_series,
)
from nlkg.conslaws import TensorKind, _density, tensor_kind
from nlkg.errors import DomainError
from nlkg.grid import Field, GridSpec, State, radial_distance, spectral_gradient
from nlkg.norms import _inside, _Pieces
from nlkg.solver import SolverConfig, Trajectory, evolve, initial_data

from conftest import count_gradients, random_field

CENTER2 = (4.0, 4.0)


def zero_traj(grid, times, m=0.5, p=2.0):
    z = Field(grid, np.zeros(grid.shape))
    snaps = [State(z, z, t, m, p) for t in times]
    return Trajectory(snapshots=snaps, termination="reached_t_max",
                      scalar_series={"sup_norm": (np.asarray(times), np.zeros(len(times)))})


def one_slice(st, cone, which):
    """L or Z on the one state's slice: the lyapunov_series of a one-snapshot trajectory."""
    traj = Trajectory(snapshots=[st], termination="reached_t_max",
                      scalar_series={"sup_norm": (np.array([st.time]), np.zeros(1))})
    return lyapunov_series(traj, cone, which).values[0]


def split(f, vertex):
    """(u_r, angular) of f's gradient about the vertex, from the one field view."""
    pc = _Pieces(State(f, Field(f.grid, np.zeros(f.grid.shape)), 0.0, 0.0, 2.0), apex=vertex)
    return pc.u_r, pc.angular


class TestConeSpec:
    def test_cone_must_fit_box(self, grid2d):
        cone = ConeSpec(vertex=CENTER2, top_time=3.99)
        with pytest.raises(DomainError):
            cone.validate_against(grid2d)

    def test_valid_cone_passes(self, grid2d):
        ConeSpec(vertex=CENTER2, top_time=2.0).validate_against(grid2d)

    def test_diagnostic_series_validation(self):
        with pytest.raises(DomainError):
            DiagnosticSeries("x", np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            DiagnosticSeries("x", np.array([0.0, 1.0]), np.array([1.0, np.nan]))


class TestRadialAngularSplit:
    def test_pointwise_identity(self, grid2d, rng):
        f = random_field(grid2d, rng)
        grad = spectral_gradient(f)
        u_r, angular = split(f, CENTER2)
        total = u_r**2 + sum(a**2 for a in angular)
        grad_sq = sum(g.values**2 for g in grad)
        assert np.max(np.abs(total - grad_sq)) < 1e-12 * np.max(grad_sq)

    def test_radial_field_has_no_angular_part(self, grid2d):
        # width small enough that periodized tails cannot break radiality
        r = radial_distance(grid2d, CENTER2)
        f = Field(grid2d, np.exp(-(r**2) / (2 * 0.5**2)))
        grad = spectral_gradient(f)
        u_r, angular = split(f, CENTER2)
        ang_norm = np.sqrt(sum(np.sum(a**2) for a in angular))
        grad_norm = np.sqrt(sum(np.sum(g.values**2) for g in grad))
        assert ang_norm <= 1e-8 * grad_norm

    def test_vertex_value_defined(self, grid2d, rng):
        u_r, _ = split(random_field(grid2d, rng), CENTER2)
        idx = tuple(int(round(c / grid2d.spacing)) for c in CENTER2)
        assert u_r[idx] == 0.0


class TestLyapunovFunctionals:
    def test_zero_state(self, grid2d):
        cone = ConeSpec(CENTER2, top_time=1.5)
        z = Field(grid2d, np.zeros(grid2d.shape))
        st = State(z, z, 1.0, 0.5, 2.0)
        assert one_slice(st, cone, "L") == 0.0
        assert one_slice(st, cone, "Z") == 0.0

    def test_constant_state_L_reduction(self, grid2d):
        A, B, t, m, p, d = 0.9, 0.4, 1.2, 0.3, 4.0, 2
        cone = ConeSpec(CENTER2, top_time=1.5)
        st = State(Field(grid2d, np.full(grid2d.shape, A)),
                   Field(grid2d, np.full(grid2d.shape, B)), t, m, p)
        dens_const = (1.0 / (2 * t)) * (t * B + (d - 1) * A / 2.0) ** 2 \
            - t * A ** (p + 2) / (p + 2) + (d**2 - 1) * A**2 / (8 * t) \
            + t * m**2 * A**2 / 2.0
        ball_measure = np.count_nonzero(
            radial_distance(grid2d, CENTER2) < t) * grid2d.cell_volume
        assert one_slice(st, cone, "L") == pytest.approx(dens_const * ball_measure, rel=1e-12)

    def test_constant_state_Z_weight_integral(self, grid2d):
        # weight integral cross-checked by 1-d radial quadrature
        A, B, t, m, p, d = 0.7, -0.2, 1.4, 0.6, 2.0, 2
        alpha = 0.5 - (d / 2 - 2 / p)
        cone = ConeSpec(CENTER2, top_time=1.5)
        st = State(Field(grid2d, np.full(grid2d.shape, A)),
                   Field(grid2d, np.full(grid2d.shape, B)), t, m, p)
        dens_const = (1.0 / (2 * t)) * (t * B + (2 / p) * A) ** 2 \
            - t * A ** (p + 2) / (p + 2) + (m**2 * t / 2 + (p + 2) / (p**2 * t)) * A**2
        radial, _ = integrate.quad(lambda rho: rho ** (d - 1) * (t**2 - rho**2) ** alpha,
                                   0.0, t)
        weight_integral = 2.0 * np.pi * radial
        assert one_slice(st, cone, "Z") == pytest.approx(dens_const * weight_integral, rel=0.02)

    def test_Z_requires_sub_conformal(self, grid2d):
        cone = ConeSpec(CENTER2, top_time=1.5)
        st = State(Field(grid2d, np.ones(grid2d.shape)),
                   Field(grid2d, np.zeros(grid2d.shape)), 1.0, 0.0, 4.0)
        with pytest.raises(DomainError):
            one_slice(st, cone, "Z")

    def test_slice_past_top_time_left_out(self, grid2d):
        traj = zero_traj(grid2d, [0.5, 1.0, 1.5])
        series = lyapunov_series(traj, ConeSpec(CENTER2, top_time=1.0), "L")
        assert list(series.times) == [0.5, 1.0]

    @pytest.mark.parametrize("t_floor", [-1.0, -1e-300, np.nan])
    def test_negative_floor_rejected(self, grid2d, t_floor):
        # a t = 0 snapshot must not be what rejects it
        traj = zero_traj(grid2d, [0.5, 1.0])
        cone = ConeSpec(CENTER2, top_time=1.0)
        with pytest.raises(DomainError, match="t_floor"):
            lyapunov_series(traj, cone, "L", t_floor)
        with pytest.raises(DomainError, match="t_floor"):
            cone_audit(traj, cone, "L", t_floor)


class TestEnergyFlux:
    def test_zero_trajectory(self, grid2d):
        traj = zero_traj(grid2d, [0.5, 0.75, 1.0])
        lhs, rhs, gap = energy_flux_check(traj, ConeSpec(CENTER2, 1.2), 0.5, 1.0)
        assert (lhs, rhs, gap) == (0.0, 0.0, 0.0)

    def test_radial_gaussian_linear_closure(self):
        # data released well after the cone apex, so the packet is
        # comfortably interior over the audited window
        g = GridSpec(2, 128, 8.0)
        st0 = initial_data(g, "gaussian", m=0.0, p=2.0, A=0.8, w=0.2)
        st = State(st0.u, st0.v, 1.5, 0.0, 2.0)
        cfg = SolverConfig(dt_init=1e-3, t_max=0.75, adapt_theta=None,
                           snapshot_stride=5, nonlinearity=0.0)
        traj = evolve(st, cfg)
        cone = ConeSpec(CENTER2, top_time=2.3)
        ts = [s.time for s in traj.snapshots if 1.69 < s.time < 2.21]
        lhs, rhs, gap = energy_flux_check(traj, cone, ts[0], ts[-1])
        assert gap <= 1e-3

    def test_missing_snapshots_rejected(self, grid2d):
        traj = zero_traj(grid2d, [0.5, 1.0])
        with pytest.raises(DomainError):
            energy_flux_check(traj, ConeSpec(CENTER2, 1.2), 0.5, 1.0)

    @pytest.mark.parametrize("t0, t1", [(0.1, 0.6), (-0.1, 0.3)])
    def test_window_outside_cone_rejected(self, grid2d, t0, t1):
        traj = zero_traj(grid2d, [-0.1, 0.1, 0.2, 0.3, 0.6])
        with pytest.raises(DomainError, match=f"t0={t0}, t1={t1}.*0.3"):
            energy_flux_check(traj, ConeSpec(CENTER2, 0.3), t0, t1)


class TestAveragedGradientBound:
    def test_zero_trajectory(self, grid2d):
        traj = zero_traj(grid2d, np.linspace(0.5, 1.1, 7), p=4.0)
        cone = ConeSpec(CENTER2, 1.2)
        assert averaged_gradient_bound(traj, cone, 0.5, alpha=0.5) == 0.0

    def test_quadratic_homogeneity_linear_flow(self, grid2d):
        # the weighted integral is quadratic in the data for the linear flow
        def run(amp):
            st = initial_data(grid2d, "gaussian", m=0.4, p=4.0, A=amp, w=0.4)
            cfg = SolverConfig(dt_init=2e-3, t_max=0.8, adapt_theta=None,
                               snapshot_stride=10, nonlinearity=0.0)
            return evolve(st, cfg)

        cone = ConeSpec(CENTER2, 0.85)
        v1 = averaged_gradient_bound(run(0.3), cone, 0.5, alpha=0.5)
        v2 = averaged_gradient_bound(run(0.6), cone, 0.5, alpha=0.5)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-9)

    def test_small_nonlinear_homogeneity_within_five_percent(self, grid2d):
        def run(amp):
            st = initial_data(grid2d, "gaussian", m=0.4, p=4.0, A=amp, w=0.4)
            cfg = SolverConfig(dt_init=2e-3, t_max=0.8, adapt_theta=None,
                               snapshot_stride=10)
            return evolve(st, cfg)

        cone = ConeSpec(CENTER2, 0.85)
        v1 = averaged_gradient_bound(run(0.05), cone, 0.5, alpha=0.5)
        v2 = averaged_gradient_bound(run(0.1), cone, 0.5, alpha=0.5)
        assert v2 == pytest.approx(4.0 * v1, rel=0.05)

    @pytest.mark.parametrize("t0", [0.2, 0.4])
    def test_window_past_cone_or_run_rejected(self, grid2d, t0):
        # p = 2 in d = 2 is sub-conformal: the window is [t0, 2 t0], past the
        # 0.3 cone for t0 = 0.2 and past the run's end 0.6 as well for t0 = 0.4
        traj = zero_traj(grid2d, np.linspace(0.0, 0.6, 13), p=2.0)
        with pytest.raises(DomainError, match=f"t0={t0}, t_hi={2 * t0}.*0.3.*0.6"):
            averaged_gradient_bound(traj, ConeSpec(CENTER2, 0.3), t0)

    @pytest.mark.parametrize("t0", [0.0, -0.1])
    def test_window_from_nonpositive_time_rejected(self, grid2d, t0):
        traj = zero_traj(grid2d, np.linspace(-0.2, 0.6, 17), p=2.0)
        with pytest.raises(DomainError, match=f"t0={t0}"):
            averaged_gradient_bound(traj, ConeSpec(CENTER2, 0.3), t0)


class TestConeMonitor:
    def test_zero_trajectory_all_zero(self, grid2d):
        traj = zero_traj(grid2d, np.linspace(0.2, 1.2, 9))
        out = cone_monitor(traj, ConeSpec(CENTER2, 1.3))
        for name, series in out.items():
            assert np.all(series.values == 0.0), name

    def test_series_metadata(self, grid2d):
        traj = zero_traj(grid2d, np.linspace(0.2, 1.2, 9), p=2.0)
        out = cone_monitor(traj, ConeSpec(CENTER2, 1.3))
        assert out["mass_half_cone"].regime == "sub_conformal"
        assert out["mass_half_cone"].metadata["vertex"] == list(CENTER2)

    def test_lyapunov_series_respects_floor(self, grid2d):
        traj = zero_traj(grid2d, np.linspace(0.05, 1.2, 24), p=4.0)
        cone = ConeSpec(CENTER2, 1.3)
        series = lyapunov_series(traj, cone, which="L", t_floor=0.3)
        assert np.all(series.times > 0.3)

    def test_weight_degeneracy_at_cone_boundary(self, grid2d):
        # every cone weight vanishes at the slice boundary: mass placed in
        # a boundary annulus is suppressed relative to an interior annulus
        # by far more than the area ratio
        t = 2.0
        r = radial_distance(grid2d, CENTER2)
        alpha = 0.25

        def suppression(weight_fn):
            # ratio of (weighted / plain) mass, boundary ring vs mid ring
            out = []
            for radius in (t - 2.0 * grid2d.spacing, 0.5 * t):
                ring = (np.abs(r - radius) < grid2d.spacing) & (r < t)
                w = weight_fn(r[ring])
                out.append(float(np.sum(w)) / np.count_nonzero(ring))
            return out[0] / out[1]

        # quadratic, linear, and small-power weights decay toward the
        # boundary in that order
        s_quad = suppression(lambda rho: (1.0 - rho / t) ** 2)
        s_lin = suppression(lambda rho: (t**2 - rho**2) / t)
        s_pow = suppression(lambda rho: (t**2 - rho**2) ** alpha)
        assert s_quad < 0.1 and s_lin < 0.4 and s_pow < 0.8
        assert s_quad < s_lin < s_pow
        # all three are exactly zero on the boundary sphere itself
        for wf in ((lambda rho: (1.0 - rho / t) ** 2),
                   (lambda rho: (t**2 - rho**2) / t),
                   (lambda rho: (t**2 - rho**2) ** alpha)):
            assert wf(np.array([t]))[0] == 0.0


def assert_ball_view_is_the_whole_view(s: State, nl_coeff: float, vertex, which: str) -> None:
    """The slice's view and its t/2 ball, taken before the whole view's
    gradient (so each takes its own at the ball's points), hold the whole
    view's values at the ball's points, bit for bit."""
    pc = _Pieces(s, nl_coeff, vertex)
    ins = pc.ball(s.time)
    half = ins.ball(0.5 * s.time)
    assert "grad" not in vars(pc)  # the view did not take the whole gradient
    kind = tensor_kind("combined", s) if which == "Z" else TensorKind("mod_dilation")
    for view, radius in ((ins, s.time), (half, 0.5 * s.time)):
        inside = _inside(s.grid, vertex, radius)
        pairs = [(_density(view, kind), _density(pc, kind)),
                 (view.energy_density, pc.energy_density), (view.u_r, pc.u_r),
                 (view.dist, pc.dist), (view.grad_sq, pc.grad_sq),
                 *zip(view.angular, pc.angular), *zip(view.grad, pc.grad)]
        for got, whole in pairs:
            assert got.tobytes() == whole[inside].tobytes()


# (grid, p, data, cone, functional): conformal (d = 2, p = 4, L), super-conformal
# (d = 2, p = 6, L; the weighted, t-integrated gradient monitor) and
# sub-conformal (d = 3, p = 1.8, Z)
AUDIT_CASES = {
    "conformal_2d": (GridSpec(2, 32, 8.0), 4.0, {"A": 0.8, "w": 0.6},
                     ConeSpec((4.0, 4.0), 0.5), "L"),
    "superconformal_2d": (GridSpec(2, 32, 8.0), 6.0, {"A": 0.6, "w": 0.6},
                          ConeSpec((4.0, 4.0), 0.5), "L"),
    "subconformal_3d": (GridSpec(3, 16, 8.0), 1.8, {"A": 0.8, "w": 0.8},
                        ConeSpec((4.0, 4.0, 4.0), 0.5), "Z"),
}
T_FLOOR = 0.05


@pytest.fixture(scope="module", params=list(AUDIT_CASES))
def audit_case(request):
    g, p, data, cone, which = AUDIT_CASES[request.param]
    st = initial_data(g, "gaussian", m=0.5, p=p, **data)
    traj = evolve(st, SolverConfig(dt_init=1e-2, t_max=0.6, adapt_theta=None,
                                   snapshot_stride=4))
    return traj, cone, which


class TestConeAudit:
    def test_equals_standalone_functions_bit_for_bit(self, audit_case):
        traj, cone, which = audit_case
        series, monitors, flux = cone_audit(traj, cone, which, T_FLOOR)

        alone = lyapunov_series(traj, cone, which, T_FLOOR)
        assert series.name == alone.name == f"{which}_functional"
        assert np.array_equal(series.times, alone.times)
        assert np.array_equal(series.values, alone.values)
        assert (series.regime, series.metadata) == (alone.regime, alone.metadata)

        alone_monitors = cone_monitor(traj, cone)
        assert list(monitors) == list(alone_monitors)
        for name, s in alone_monitors.items():
            assert np.array_equal(monitors[name].times, s.times), name
            assert np.array_equal(monitors[name].values, s.values), name
            assert monitors[name].metadata == s.metadata, name

        t0, t1 = series.times[0], series.times[-1]
        assert (flux["t0"], flux["t1"]) == (t0, t1)
        lhs, rhs, gap = energy_flux_check(traj, cone, t0, t1)
        assert (flux["lhs"], flux["rhs"], flux["gap"]) == (lhs, rhs, gap)

    def test_one_gradient_per_snapshot_in_cone(self, audit_case, monkeypatch):
        traj, cone, which = audit_case
        in_cone = [s for s in traj.snapshots if 0.0 < s.time <= cone.top_time]
        assert len(in_cone) < len(traj.snapshots)  # the run outlives the cone
        calls = count_gradients(monkeypatch)
        cone_audit(traj, cone, which, T_FLOOR)
        assert len(calls) == len(in_cone)

    def test_standalone_functions_one_gradient_per_snapshot(self, audit_case, monkeypatch):
        traj, cone, which = audit_case
        in_cone = [s for s in traj.snapshots if 0.0 < s.time <= cone.top_time]
        window = [s for s in in_cone if s.time > T_FLOOR]
        calls = count_gradients(monkeypatch)
        for run, used in (
                (lambda: lyapunov_series(traj, cone, which, T_FLOOR), window),
                (lambda: cone_monitor(traj, cone), in_cone),
                (lambda: energy_flux_check(traj, cone, window[0].time, window[-1].time),
                 window)):
            calls.clear()
            run()
            assert len(calls) == len(used)

    def test_ball_integrands_equal_the_whole_field_values(self, audit_case):
        # _slice builds each integrand from norms._Pieces.ball, at the ball's
        # points only: every value must be the whole field's value there, bit
        # for bit, about the cone's lattice vertex and about an apex off the lattice
        traj, cone, which = audit_case
        s = [s for s in traj.snapshots if 0.0 < s.time <= cone.top_time][-1]
        for shift in (0.0, 0.137):
            assert_ball_view_is_the_whole_view(s, traj.nl_coeff,
                                               tuple(c + shift for c in cone.vertex), which)

    @pytest.mark.parametrize("vertex", [(4.0,), (3.91,)], ids=["lattice_apex", "off_lattice_apex"])
    def test_ball_integrands_equal_the_whole_field_values_in_1d(self, vertex):
        st = initial_data(GridSpec(1, 64, 8.0), "gaussian", m=0.5, p=4.0, A=0.8, w=0.6)
        traj = evolve(st, SolverConfig(dt_init=1e-2, t_max=0.5, adapt_theta=None))
        assert_ball_view_is_the_whole_view(traj.snapshots[-1], traj.nl_coeff, vertex, "L")

    @pytest.mark.parametrize("d, p, regime", [(2, 4.0, "conformal"), (3, 1.8, "sub_conformal")])
    def test_finish_with_no_state_gives_empty_series_of_the_regime(self, d, p, regime):
        # the regime is the exponent's, given at construction, not read from a state
        series, monitors, flux = ConeAudit(ConeSpec((4.0,) * d, 0.5), p, "L").finish()
        assert flux == {} and len(monitors) == 4
        for s in (series, *monitors.values()):
            assert s.regime == regime and s.times.size == s.values.size == 0

    def test_add_rejects_a_state_of_another_exponent(self, grid2d):
        audit = ConeAudit(ConeSpec(CENTER2, 0.5), 4.0)
        z = Field(grid2d, np.zeros(grid2d.shape))
        with pytest.raises(DomainError, match="exponent"):
            audit.add(State(z, z, 0.1, 0.5, 2.0))

    def test_flux_needs_three_snapshots_above_floor(self, audit_case):
        traj, cone, which = audit_case
        last_two = [s.time for s in traj.snapshots if s.time <= cone.top_time][-3]
        series, _, flux = cone_audit(traj, cone, which, t_floor=last_two)
        assert len(series.times) == 2
        assert flux == {}

    @pytest.mark.parametrize("which", ["l", "z", "LZ", ""])
    def test_unknown_functional_rejected(self, grid2d, which):
        traj = zero_traj(grid2d, np.linspace(0.2, 1.2, 9), p=4.0)
        cone = ConeSpec(CENTER2, 1.3)
        with pytest.raises(DomainError, match="'L' or 'Z'"):
            lyapunov_series(traj, cone, which=which)
        with pytest.raises(DomainError, match="'L' or 'Z'"):
            cone_audit(traj, cone, which=which)
        # also when no snapshot lies above the floor
        with pytest.raises(DomainError, match="'L' or 'Z'"):
            lyapunov_series(traj, cone, which=which, t_floor=5.0)
