"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Scenarios and frozen
constants were calibrated once on the reference grid sizes named in each
test; tolerances are the stated acceptance tolerances, not re-tuned
numbers.
"""

import time

import numpy as np
import pytest

from nlkg.blowup import (
    concavity_check,
    critical_norm_series,
    detect_and_fit,
    lower_bound_check,
    mass_diagnostics,
)
from nlkg.cones import ConeSpec, cone_monitor, energy_flux_check, lyapunov_series
from nlkg.conslaws import (
    TENSOR_TAGS,
    TensorKind,
    charge_slab_identity,
    divergence_residual,
    refinement_orders,
    residual_norms,
    tensor_kind,
)
from nlkg.grid import (
    Field,
    GridSpec,
    State,
    axis_coordinates,
    dyadic_range,
    fractional_derivative,
    lp_project,
    radial_distance,
)
from nlkg.norms import critical_exponent, energy
from nlkg.profiles import (
    Decomposition,
    FunctionFamily,
    _shift_profile,
    bubble_decompose,
    decoupling_audit,
)
from nlkg.solver import SolverConfig, Trajectory, evolve, initial_data, lifespan_upper

from conftest import random_field

# quadrature value of sqrt(2) int_1^inf (u^4 - 1)^{-1/2} du, frozen once
LIFESPAN_A1_P2 = 1.854074677301368
# ceiling of the p=2 -> q=inf band ratio over the seeded 100-field corpus
# (measured max 0.2099 at n=64, L=8; frozen with margin)
BERNSTEIN_CEILING = 0.22


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def constant_blowup():
    g = GridSpec(2, 32, 8.0)
    st = initial_data(g, "constant", m=0.0, p=2.0, A=1.0)
    cfg = SolverConfig(dt_init=5e-3, t_max=5.0, adapt_theta=1.0,
                       blowup_threshold=1e8, snapshot_stride=5)
    return evolve(st, cfg)


def test_c01_ode_blowup_rate(constant_blowup):
    """Constant data A=1, p=2, m=0, d=2, n=32: fitted sup-norm exponent
    -1.00 +- 0.03 and T* within 1% of the quadrature lifespan oracle, in
    at most 10 seconds."""
    start = time.time()
    g = GridSpec(2, 32, 8.0)
    st = initial_data(g, "constant", m=0.0, p=2.0, A=1.0)
    cfg = SolverConfig(dt_init=5e-3, t_max=5.0, adapt_theta=1.0,
                       blowup_threshold=1e8, snapshot_stride=5)
    traj = evolve(st, cfg)
    rep = detect_and_fit(traj)
    elapsed = time.time() - start
    oracle = lifespan_upper(1.0, 2.0)
    t_err = abs(rep.t_star - oracle) / oracle
    exp_err = abs(rep.rate_exponents["sup_norm"] + 1.0)
    ok = rep.detected and t_err < 0.01 and exp_err <= 0.03 and elapsed <= 10.0 \
        and abs(oracle - LIFESPAN_A1_P2) < 1e-10
    report("C01", ok,
           f"T*={rep.t_star:.5f} vs oracle {oracle:.5f} (rel {t_err:.2e}); "
           f"sup-norm exponent {rep.rate_exponents['sup_norm']:.4f}; {elapsed:.1f}s")


def test_c02_energy_conservation():
    """Gaussian small data, d=2, n=128, t in [0,1], dt=1e-3: relative
    energy drift <= 1e-6, scaling at order 2 +- 0.2 when dt doubles, in at
    most 60 seconds."""
    start = time.time()
    g = GridSpec(2, 128, 8.0)

    def drift(dt):
        st = initial_data(g, "gaussian", m=0.5, p=2.0, A=0.25, w=0.5)
        cfg = SolverConfig(dt_init=dt, t_max=1.0, adapt_theta=None, snapshot_stride=20)
        traj = evolve(st, cfg, {"energy": lambda s: energy(s)})
        _, E = traj.series("energy")
        return np.max(np.abs(E - E[0])) / abs(E[0])

    d1 = drift(1e-3)
    d2 = drift(2e-3)
    order = np.log2(d2 / d1)
    elapsed = time.time() - start
    ok = d1 <= 1e-6 and 1.8 <= order <= 2.2 and elapsed <= 60.0
    report("C02", ok,
           f"drift(1e-3)={d1:.2e}, drift(2e-3)={d2:.2e}, order={order:.2f}; {elapsed:.1f}s")


def test_c03_divergence_residual_orders():
    """Manufactured linear plane wave: energy-tensor residual Linf falls
    at order >= 1.8 over three (h, dt) halvings; all six tensors at order
    >= 1.5 on a nonlinear smooth window.  Total runtime <= 5 minutes."""
    start = time.time()
    m = 0.5
    linf_by_level = []
    for level in range(4):
        g = GridSpec(2, 32 * 2**level, 8.0)
        k = 2.0 * np.pi / g.box_length * np.array([2.0, 1.0])
        omega = float(np.hypot(np.linalg.norm(k), m))
        phase = sum(kk * x for kk, x in zip(k, axis_coordinates(g)))

        def mk(t):
            return State(Field(g, np.cos(phase - omega * t)),
                         Field(g, omega * np.sin(phase - omega * t)), t, m, 2.0)

        dt = 0.02 / 2**level
        res = divergence_residual((mk(0.5 - dt), mk(0.5), mk(0.5 + dt)),
                                  TensorKind("energy"), (4.0, 4.0), nl_coeff=0.0)
        linf_by_level.append(residual_norms(res)[1])
    pw_orders = refinement_orders(linf_by_level)

    def nonlinear_window(n, dt):
        g = GridSpec(2, n, 12.0)
        st = initial_data(g, "gaussian", m=0.4, p=2.0, A=0.5, w=0.7)
        cfg = SolverConfig(dt_init=dt, t_max=0.8, adapt_theta=None, snapshot_stride=20)
        traj = evolve(st, cfg)
        mid = len(traj.snapshots) // 2
        return traj.snapshots[mid - 1: mid + 2]

    windows = [nonlinear_window(64, 1e-3), nonlinear_window(128, 5e-4)]
    nl_orders = {}
    for tag in TENSOR_TAGS:
        norms = []
        for w in windows:
            kind = tensor_kind(tag, w[1])
            res = divergence_residual(tuple(w), kind, (6.0, 6.0))
            norms.append(residual_norms(res)[1])
        nl_orders[tag] = float(np.log2(norms[0] / norms[1]))
    elapsed = time.time() - start
    ok = min(pw_orders) >= 1.8 and min(nl_orders.values()) >= 1.5 and elapsed <= 300.0
    report("C03", ok,
           f"plane-wave energy orders {['%.2f' % o for o in pw_orders]}; "
           f"nonlinear orders { {k: '%.2f' % v for k, v in nl_orders.items()} }; "
           f"{elapsed:.0f}s")


def _monotonicity_stats(series):
    vals = series.values
    mx = float(np.max(vals))
    dec = np.diff(vals)
    worst_dec = float(max(0.0, -np.min(dec))) if len(dec) else 0.0
    return mx, worst_dec, float(np.min(vals))


@pytest.mark.slow
def test_c04_lyapunov_monotonicity():
    """Conformal run (d=2, p=4): L(t) nondecreasing with per-step
    violations <= 1e-4 max L and L >= -1e-6 max L; sub-conformal run
    (d=3, p=1.8): the same for Z(t).  Runtime <= 3 minutes each."""
    start = time.time()
    g = GridSpec(2, 64, 8.0)
    st = initial_data(g, "negative_energy", m=0.0, p=4.0, A=1.0, w=0.5, margin=0.02)
    cfg = SolverConfig(dt_init=1e-3, t_max=8.0, adapt_theta=0.5,
                       blowup_threshold=1e3, snapshot_stride=10)
    trajL = evolve(st, cfg)
    L = lyapunov_series(trajL, ConeSpec((4.0, 4.0), top_time=0.25), "L", t_floor=0.05)
    mxL, decL, minL = _monotonicity_stats(L)
    t_L = time.time() - start
    ok_L = trajL.termination == "blowup_detected" and decL <= 1e-4 * mxL \
        and minL >= -1e-6 * mxL and t_L <= 180.0

    start_z = time.time()
    g3 = GridSpec(3, 32, 8.0)
    st3 = initial_data(g3, "constant", m=0.0, p=1.8, A=1.0)
    cfg3 = SolverConfig(dt_init=1e-3, t_max=8.0, adapt_theta=0.5,
                        blowup_threshold=1e2, snapshot_stride=10)
    trajZ = evolve(st3, cfg3)
    Z = lyapunov_series(trajZ, ConeSpec((4.0, 4.0, 4.0), top_time=1.9), "Z", t_floor=0.05)
    mxZ, decZ, minZ = _monotonicity_stats(Z)
    t_Z = time.time() - start_z
    ok_Z = trajZ.termination == "blowup_detected" and decZ <= 1e-4 * mxZ \
        and minZ >= -1e-6 * mxZ and t_Z <= 180.0
    report("C04", ok_L and ok_Z,
           f"L: worst dec/max={decL / mxL:.2e}, min/max={minL / mxL:.2e} ({t_L:.0f}s); "
           f"Z: worst dec/max={decZ / mxZ:.2e}, min/max={minZ / mxZ:.2e} ({t_Z:.0f}s)")


def test_c05_charge_slab_identity():
    """Charge-slab/virial closure: relative gap <= 1e-4 on a linear
    eigenmode trajectory, <= 1e-3 on a nonlinear pre-blowup window, and
    the gap decreases under refinement."""
    g = GridSpec(2, 64, 8.0)
    st = initial_data(g, "plane_wave", m=0.8, p=2.0, k=(2, 0), traveling=False)
    cfg = SolverConfig(dt_init=1e-3, t_max=0.2, adapt_theta=None,
                       snapshot_stride=1, nonlinearity=0.0)
    lin = evolve(st, cfg)
    ts = lin.times
    lin_gap = charge_slab_identity(lin, float(ts[0]), float(ts[-1])).gap

    def nl_gap(n, dt):
        gg = GridSpec(2, n, 8.0)
        sst = initial_data(gg, "gaussian", m=0.3, p=2.0, A=0.8, w=0.5)
        ccfg = SolverConfig(dt_init=dt, t_max=0.4, adapt_theta=None, snapshot_stride=4)
        traj = evolve(sst, ccfg)
        tts = traj.times
        return charge_slab_identity(traj, float(tts[0]), float(tts[-1])).gap

    g1 = nl_gap(64, 1e-3)
    g2 = nl_gap(128, 5e-4)
    ok = lin_gap <= 1e-4 and g1 <= 1e-3 and g2 < g1
    report("C05", ok, f"linear gap={lin_gap:.2e}; nonlinear gap(base)={g1:.2e}, "
                      f"gap(refined)={g2:.2e}")


def test_c06_energy_flux_identity():
    """Cone energy-flux closure: relative gap <= 1e-3 at baseline
    (n=128, dt=1e-3), decreasing under (h, dt) refinement."""

    def gap_at(n, dt):
        g = GridSpec(2, n, 8.0)
        st = initial_data(g, "gaussian", m=0.0, p=2.0, A=0.8, w=0.5)
        cfg = SolverConfig(dt_init=dt, t_max=0.8, adapt_theta=None,
                           snapshot_stride=5, nonlinearity=0.0)
        traj = evolve(st, cfg)
        cone = ConeSpec((4.0, 4.0), top_time=0.85)
        ts = [s.time for s in traj.snapshots if 0.3 <= s.time <= 0.75]
        return energy_flux_check(traj, cone, ts[0], ts[-1])[2]

    base = gap_at(128, 1e-3)
    refined = gap_at(256, 5e-4)
    ok = base <= 1e-3 and refined < base
    report("C06", ok, f"gap(n=128, dt=1e-3)={base:.2e}; gap(n=256, dt=5e-4)={refined:.2e}")


@pytest.fixture(scope="module")
def negative_energy_run():
    g = GridSpec(2, 64, 8.0)
    st = initial_data(g, "negative_energy", m=0.0, p=2.0, A=1.0, w=0.6)
    cfg = SolverConfig(dt_init=1e-3, t_max=8.0, adapt_theta=0.5,
                       blowup_threshold=1e8, snapshot_stride=20)
    return evolve(st, cfg, {"energy": lambda s: energy(s)})


@pytest.mark.slow
def test_c07_negative_energy_blowup(negative_energy_run):
    """Negative-energy Gaussian data in d=2 terminates blowup_detected
    before t_max; past t0, |M'|^2 <= 4/(p+4) M M'' holds with zero
    violations at tolerance 1e-6, and M^{-p/4} is discretely concave."""
    traj = negative_energy_run
    series = mass_diagnostics(traj)
    conc = concavity_check(series, tol_scale=1e-6)
    ok = traj.termination == "blowup_detected" and conc.t0_index is not None \
        and conc.cauchy_schwarz_violations == 0 and conc.concavity_violations == 0
    report("C07", ok,
           f"termination={traj.termination}, t0 index={conc.t0_index}, "
           f"CS violations={conc.cauchy_schwarz_violations}, "
           f"concavity violations={conc.concavity_violations} of {conc.checked}")


def _reflected_cone_bands(dt_init):
    g = GridSpec(2, 32, 8.0)
    st = initial_data(g, "constant", m=0.0, p=2.0, A=1.0)
    cfg = SolverConfig(dt_init=dt_init, t_max=5.0, adapt_theta=1.0,
                       blowup_threshold=1e8, snapshot_stride=5)
    traj = evolve(st, cfg)
    rep = detect_and_fit(traj)
    # view the run through reflected time s = T* - t: the blowup point
    # becomes the cone vertex and s increases away from it
    ge = GridSpec(2, 256, 4.0)
    rows = [(rep.t_star - s.time, s.u.values.flat[0], s.v.values.flat[0])
            for s in reversed(traj.snapshots) if 0.1 <= rep.t_star - s.time <= 1.0]
    rows = rows[:: max(1, len(rows) // 40)]
    states = [State(Field(ge, np.full(ge.shape, u)), Field(ge, np.full(ge.shape, -v)),
                    s, 0.0, 2.0) for s, u, v in rows]
    reflected = Trajectory(
        snapshots=states, termination="reached_t_max",
        scalar_series={"sup_norm": (np.array([s.time for s in states]),
                                    np.array([np.max(np.abs(s.u.values)) for s in states]))})
    mon = cone_monitor(reflected, ConeSpec((2.0, 2.0), top_time=1.05))
    bands = {}
    for name, series in mon.items():
        vals = series.values[series.values > 0]
        bands[name] = float(vals.max() / vals.min()) if len(vals) >= 2 else np.nan
    return bands


def test_c08_cone_bound_monitors():
    """On a blowup run viewed in reflected time, every normalized cone
    monitor stays within a factor-4 band over the resolved decade of t,
    and the band does not widen when dt is halved."""
    bands = _reflected_cone_bands(5e-3)
    bands_half = _reflected_cone_bands(2.5e-3)
    ok = all(b <= 4.0 for b in bands.values()) \
        and all(bands_half[k] <= bands[k] * 1.05 + 0.01 for k in bands)
    report("C08", ok,
           f"bands={ {k: '%.3f' % v for k, v in bands.items()} }, "
           f"halved-dt bands={ {k: '%.3f' % v for k, v in bands_half.items()} }")


@pytest.mark.slow
def test_c09_critical_norm_growth():
    """Max over t of the critical norm increases monotonically across
    blowup_threshold in {1e6, 1e8, 1e10} on the same scenario."""
    maxima = []
    for thr in (1e6, 1e8, 1e10):
        g = GridSpec(3, 32, 8.0)
        st = initial_data(g, "negative_energy", m=0.0, p=2.0, A=1.0, w=0.8, margin=0.1)
        cfg = SolverConfig(dt_init=2e-3, t_max=8.0, adapt_theta=1.0, dt_min=1e-16,
                           blowup_threshold=thr, snapshot_stride=20)
        traj = evolve(st, cfg)
        maxima.append(float(critical_norm_series(traj).values.max()))
    ok = maxima[0] < maxima[1] < maxima[2]
    report("C09", ok, f"critical-norm maxima across thresholds: "
                      f"{['%.3e' % m for m in maxima]}")


def _planted_three_bubble_family(g, rng):
    layout = [(1.0, 2.5), (0.7, 2.0), (0.5, 1.5)]
    members, planted = [], []
    for i in range(3):
        sep = 40 * 2**i
        anchor = rng.integers(0, g.n, size=2)
        offsets = [np.array([0, 0]), np.array([sep, 0]), np.array([0, sep])]
        vals = np.zeros(g.shape)
        centers = []
        for (amp, wc), off in zip(layout, offsets):
            cc = (anchor + off) % g.n
            centers.append(cc)
            r = radial_distance(g, cc * g.spacing)
            vals += amp * np.exp(-(r**2) / (2.0 * (wc * g.spacing) ** 2))
        planted.append(centers)
        members.append(Field(g, vals))
    return FunctionFamily(tuple(members)), planted


def test_c10_profile_decomposition():
    """Synthetic 3-bubble family (n=512, d=2, separations 40/80/160
    cells): three bubbles recovered with center error <= 1 cell and all
    decoupling gaps <= 5%; a planted 2-cell-separation overlap makes the
    audit report gaps >= 20%.  Runtime <= 2 minutes."""
    start = time.time()
    params = critical_exponent(2, 4.0)
    g = GridSpec(2, 512, 16.0)
    rng = np.random.default_rng(42)
    family, planted = _planted_three_bubble_family(g, rng)
    dec = bubble_decompose(family, params, j_max=4, tol=1e-2)
    gaps = decoupling_audit(dec, family, params)
    center_ok = True
    for _, centers in dec.bubbles:
        for i in range(3):
            best = np.inf
            for cc in planted[i]:
                delta = np.abs(centers[i] - cc * g.spacing)
                delta = np.minimum(delta, g.box_length - delta)
                best = min(best, float(np.linalg.norm(delta)))
            center_ok = center_ok and best <= g.spacing + 1e-12

    # negative control: the audit must flag a planted 2-cell overlap
    c_mid = np.array([g.n // 2, g.n // 2]) * g.spacing
    r = radial_distance(g, c_mid)
    phi1 = Field(g, np.exp(-(r**2) / (2 * (2.5 * g.spacing) ** 2)))
    phi2 = Field(g, 0.9 * np.exp(-(r**2) / (2 * (2.0 * g.spacing) ** 2)))
    c1 = np.array([[100, 200], [300, 150], [250, 400]]) * g.spacing
    c2 = c1 + np.array([2, 0]) * g.spacing
    overlap_members = tuple(
        Field(g, _shift_profile(phi1, c1[i], g) + _shift_profile(phi2, c2[i], g))
        for i in range(3))
    control = Decomposition(bubbles=[(phi1, c1), (phi2, c2)],
                            residuals=[Field(g, np.zeros(g.shape))] * 3,
                            eps_history=[], sobolev_history=[])
    control_gaps = decoupling_audit(control, FunctionFamily(overlap_members), params)
    elapsed = time.time() - start
    small = max(gaps["h1"], gaps["hsc"], gaps["p_plus_2"])
    large = min(control_gaps["h1"], control_gaps["hsc"], control_gaps["p_plus_2"])
    ok = dec.n_bubbles == 3 and center_ok and small <= 0.05 and large >= 0.20 \
        and elapsed <= 120.0
    report("C10", ok,
           f"bubbles={dec.n_bubbles}, worst gap={small:.4f}, centers<=1 cell: {center_ok}, "
           f"negative-control min gap={large:.3f}; {elapsed:.0f}s")


@pytest.mark.slow
def test_c11_lower_bound_floor():
    """On a Gaussian blowup run the local lower-bound monitor stays at or
    above the frozen empirical floor 0.05 over the resolved window, with
    no decay-to-zero trend."""
    g = GridSpec(2, 128, 8.0)
    st = initial_data(g, "negative_energy", m=0.0, p=4.0, A=1.0, w=1.2, margin=0.02)
    cfg = SolverConfig(dt_init=1e-3, t_max=8.0, adapt_theta=0.5, dt_min=1e-16,
                       blowup_threshold=1e4, snapshot_stride=10)
    traj = evolve(st, cfg)
    rep = detect_and_fit(traj)
    last = traj.snapshots[-1]
    idx = np.unravel_index(np.argmax(np.abs(last.u.values)), last.u.values.shape)
    series = lower_bound_check(traj, rep.t_star, np.array(idx) * g.spacing)
    vals, ts = series.values, series.times
    slope = float(np.polyfit(np.log(rep.t_star - ts), np.log(vals), 1)[0])
    ok = rep.detected and len(vals) >= 20 and vals.min() >= 0.05 and slope <= 0.5
    report("C11", ok,
           f"N={len(vals)}, min={vals.min():.3f}, median={np.median(vals):.3f}, "
           f"log-log slope={slope:.3f}")


def test_c12_bernstein_lp_suite():
    """Bernstein/LP property suite over a 100-field seeded corpus:
    empirical ratios inside the frozen bands, and the P_{<=N} + P_{>N}
    identity to 1e-12."""
    g = GridSpec(2, 64, 8.0)
    rng = np.random.default_rng(20240817)
    worst_bernstein = 0.0
    worst_identity = 0.0
    worst_band_ratio = (np.inf, 0.0)
    for i in range(100):
        f = random_field(g, rng, band_limit_frac=0.45)
        for N in dyadic_range(g)[1:-1]:
            band = lp_project(f, N, "band")
            l2 = np.sqrt(np.sum(band.values**2) * g.cell_volume)
            if l2 < 1e-10:
                continue
            linf = float(np.max(np.abs(band.values)))
            worst_bernstein = max(worst_bernstein, linf / (N ** (g.d / 2.0) * l2))
            if i < 10:
                for s in (-1.0, -0.5, 0.5, 1.0):
                    deriv = fractional_derivative(band, s)
                    ratio = np.sqrt(np.sum(deriv.values**2) * g.cell_volume) / (N**s * l2)
                    worst_band_ratio = (min(worst_band_ratio[0], ratio),
                                        max(worst_band_ratio[1], ratio))
        total = lp_project(f, 3.0, "leq").values + lp_project(f, 3.0, "gt").values
        worst_identity = max(worst_identity, float(np.max(np.abs(total - f.values))))
    ok = worst_bernstein <= BERNSTEIN_CEILING and worst_identity <= 1e-12 \
        and worst_band_ratio[0] >= 0.5 and worst_band_ratio[1] <= 2.2
    report("C12", ok,
           f"Bernstein max ratio={worst_bernstein:.4f} (ceiling {BERNSTEIN_CEILING}), "
           f"identity err={worst_identity:.1e}, "
           f"band derivative ratios in [{worst_band_ratio[0]:.3f}, {worst_band_ratio[1]:.3f}]")
