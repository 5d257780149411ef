"""Time evolution by Strang splitting around the exact linear Klein-Gordon
propagator, the lifespan quadrature of constant data, and the initial-data
library."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CorruptionError, DomainError
from .grid import (Field, GridSpec, State, _forward_array, _forward_into, _inverse_into,
                   _magnitude, axis_coordinates, bessel_symbol, radial_distance)
from .norms import _Pieces, _even_integer, _sup, energy

__all__ = [
    "SolverConfig",
    "Trajectory",
    "linear_propagator",
    "nonlinear_kick",
    "strang_step",
    "SpectralStepper",
    "evolve",
    "lifespan_upper",
    "initial_data",
]

TERMINATIONS = ("reached_t_max", "blowup_detected", "dt_underflow", "corruption")


@dataclass(frozen=True)
class SolverConfig:
    """Stepping, adaptivity, and termination settings for :func:`evolve`.

    The step starts from dt_init, is shrunk by the amplitude rule
    dt = dt_init * min(1, theta / ||u||_inf^{p/2}), and is capped by
    cfl_safety * h.  A sup-norm crossing of blowup_threshold terminates
    with 'blowup_detected'; a step below dt_min terminates with
    'dt_underflow'.  `nonlinearity` scales the source |u|^p u; 0 gives the
    pure linear flow.  Each bound is checked as `not x > bound`, so NaN fails it.
    """

    dt_init: float
    t_max: float
    dt_min: float = 1e-12
    cfl_safety: float = 1.0
    adapt_theta: float | None = 1.0
    blowup_threshold: float = 1e8
    snapshot_stride: int = 1
    nonlinearity: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.dt_min < self.dt_init):
            raise DomainError("need 0 < dt_min < dt_init")
        if not self.blowup_threshold > 1.0:
            raise DomainError(f"blowup_threshold must exceed 1, got {self.blowup_threshold}")
        if not self.snapshot_stride >= 1:
            raise DomainError("snapshot_stride must be >= 1")
        if not np.isfinite(self.nonlinearity):
            raise DomainError(f"nonlinearity must be finite, got {self.nonlinearity}")
        if not self.t_max < np.inf:  # an infinite end time would stop at once, at t = 0
            raise DomainError(f"t_max must be finite, got {self.t_max}")
        for name in ("t_max", "cfl_safety", "adapt_theta"):
            if getattr(self, name) is not None and not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be positive")


@dataclass
class Trajectory:
    """A run's states (a list of States, or a StoredStates) and scalar series.

    `times` (read-only), `grid`, `mass_param` and `exponent` are set once,
    from a StoredStates' checked headers with no payload read, or from the
    listed states, which must agree; a fold picks its states by index from
    `times` (say through :meth:`window`) and reads only those."""

    snapshots: Sequence
    termination: str
    scalar_series: dict
    nl_coeff: float = 1.0
    config: SolverConfig | None = None
    times: np.ndarray = field(init=False, repr=False, compare=False)
    grid: GridSpec = field(init=False, repr=False, compare=False)
    mass_param: float = field(init=False, repr=False, compare=False)
    exponent: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.termination not in TERMINATIONS:
            raise DomainError(f"unknown termination {self.termination!r}")
        if not self.snapshots:
            raise DomainError("trajectory needs at least one snapshot")
        states = self.snapshots
        if hasattr(states, "times"):  # a StoredStates checked its headers at open
            times, head = np.array(states.times), states
        else:
            times, head = np.array([s.time for s in states]), states[0]
            if np.any(np.diff(times) <= 0.0):
                raise DomainError("snapshot times must be strictly increasing")
            first = (head.grid, head.mass_param, head.exponent)
            if any((s.grid, s.mass_param, s.exponent) != first for s in states):
                raise DomainError("all snapshots must share one grid and one (m, p)")
        times.flags.writeable = False
        self.times, self.grid = times, head.grid
        self.mass_param, self.exponent = head.mass_param, head.exponent

    def window(self, t0: float, t1: float) -> np.ndarray:
        """Indices of the states with t0 - 1e-12 <= t <= t1 + 1e-12."""
        return np.flatnonzero((self.times >= t0 - 1e-12) & (self.times <= t1 + 1e-12))

    def slab(self, t0: float, t1: float) -> np.ndarray:
        """Indices of the states within 1e-9 of [t0, t1], over which an identity
        is integrated: DomainError unless there are at least 3, the first and
        last at t0 and t1 within 1e-9."""
        sel = np.flatnonzero((self.times >= t0 - 1e-9) & (self.times <= t1 + 1e-9))
        if len(sel) < 3:
            raise DomainError(f"need at least 3 snapshots in [{t0}, {t1}], found {len(sel)}")
        if abs(self.times[sel[0]] - t0) > 1e-9 or abs(self.times[sel[-1]] - t1) > 1e-9:
            raise DomainError("t0 and t1 must be snapshot times")
        return sel

    def series(self, name: str):
        t, vals = self.scalar_series[name]
        return np.asarray(t), np.asarray(vals)


@lru_cache(maxsize=8)
def _omega(grid: GridSpec, m: float):
    """The distinct values of w = sqrt(m^2 + |xi|^2) on the half-spectrum,
    and where each coefficient's value sits among them.  |xi|^2 takes few
    distinct values on a grid (641 of 17,408 half-spectrum points at 32^3)."""
    w = bessel_symbol(_magnitude(grid), m)
    values, at = np.unique(w, return_inverse=True)
    return values, at.reshape(w.shape)


def _propagator_tables(grid: GridSpec, m: float, dt: float):
    """cos(dt w), sin(dt w)/w with its limit dt where dt w is 0 or subnormal,
    and w sin(dt w), on the half-spectrum, with cos and sin evaluated on the
    distinct w alone.  Not cached: a :class:`SpectralStepper` holds those of
    its current dt."""
    w, at = _omega(grid, m)
    x = dt * w
    c, s = np.cos(x), np.sin(x)
    sinc = np.divide(s, w, out=np.full(w.shape, dt), where=np.abs(x) >= np.finfo(np.float64).tiny)
    return c[at], sinc[at], (w * s)[at]


def linear_propagator(state: State, dt: float) -> State:
    """Exact flow of u_tt - Lap u + m^2 u = 0 over time dt (dt may be negative).

    In spectral space with w = sqrt(m^2 + |xi|^2):
    u -> cos(dt w) u + sin(dt w)/w v,  v -> -w sin(dt w) u + cos(dt w) v,
    with the w = 0 mode using the limits (u + dt v, v).
    """
    return strang_step(state, dt, 0.0)


def _nonlinear_source(u: np.ndarray, p: float, out=None, square=None):
    """|u|^p u pointwise, into `out` (and u * u into `square` at even p) when
    given them.  For even integer p it is a product of copies of u; overflow
    raises CorruptionError.
    """
    with np.errstate(over="raise"):
        try:
            if not _even_integer(p):
                out = np.abs(u, out=out)
                out **= p
                return np.multiply(out, u, out=out)
            u2 = np.multiply(u, u, out=square)
            out = np.multiply(u, u2, out=out)
            for _ in range(int(p) // 2 - 1):
                out *= u2
            return out
        except FloatingPointError as exc:
            raise CorruptionError("overflow while evaluating |u|^p u") from exc


def nonlinear_kick(state: State, dt: float, nl_coeff: float = 1.0) -> State:
    """Momentum kick v <- v + dt * nl * |u|^p u; u is unchanged."""
    if nl_coeff == 0.0:
        return State(state.u, state.v, state.time, state.mass_param, state.exponent)
    src = _nonlinear_source(state.u.values, state.exponent)
    v = state.v.values + dt * nl_coeff * src
    return State(state.u, Field(state.grid, v), state.time, state.mass_param, state.exponent)


class SpectralStepper:
    """Strang steps on resident half-spectra: the one step of the solver.

    Holds the half-spectra U, V of (u, u_t), the physical u, and
    S = F(|u|^p u) at that u.  A step of size dt is

        V += dt/2 nl S;  (U, V) <- exact linear flow over dt;
        u = irfftn(U);  S = rfftn(|u|^p u);  V += dt/2 nl S,

    two real transforms into an owned spare set, swapped in once the source has
    succeeded: at a held dt a step allocates nothing.  The trailing S is the next
    step's leading kick (first same as last); v is inverted only by :meth:`state`.
    This is Strang splitting with an exact linear flow in its trigonometric form
    (Hairer, Lubich & Wanner, Geometric Numerical Integration, XIII).  The tables
    of the current dt are rebuilt whenever dt changes: none outlives the stepper.
    """

    def __init__(self, state: State, nl_coeff: float = 1.0):
        self.grid = state.grid
        self.m, self.p = state.mass_param, state.exponent
        self.nl = nl_coeff
        self.time = state.time
        self.u = state.u.values.copy()
        self.U = _forward_array(self.u)
        self.V = _forward_array(state.v.values)
        self.S = None
        self.dt = self.tables = None
        self._spare = [*(np.empty_like(self.U) for _ in "UVS"), np.empty_like(self.u)]
        self._work = np.empty_like(self.U)  # the inverse's passes, then the physical source

    def step(self, dt: float) -> None:
        """Advance by dt.  No validation: :func:`evolve` inspects u and V
        itself.  Overflow in |u|^p u raises CorruptionError and leaves the
        stepper at its last state."""
        if dt != self.dt:
            self.tables, self.dt = _propagator_tables(self.grid, self.m, dt), dt
        c, sinc, wsin = self.tables
        kick = 0.5 * dt * self.nl
        (U, V, S, u), (U1, V1, S1, u1) = (self.U, self.V, self.S, self.u), self._spare
        work, kicked = self._work, V
        if self.nl != 0.0:
            if S is None:
                S = self._source(u, np.empty_like(U))
            kicked = np.add(V, np.multiply(kick, S, out=V1), out=V1)  # V + kick*S
        np.add(np.multiply(c, U, out=U1), np.multiply(sinc, kicked, out=work), out=U1)
        np.subtract(np.multiply(c, kicked, out=V1), np.multiply(wsin, U, out=work), out=V1)
        _inverse_into(U1, work, u1)
        if self.nl != 0.0:
            self._source(u1, S1)
            V1 += np.multiply(kick, S1, out=work)
            S, S1 = S1, S
        self._spare = [U, V, S1, u]
        self.U, self.V, self.S, self.u = U1, V1, S, u1
        self.time += dt

    def _source(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        # F(|u|^p u) into `out`, formed in the first n^d floats of work (u * u in out's)
        work, square = (a.view(np.float64).ravel()[:u.size].reshape(u.shape)
                        for a in (self._work, out))
        return _forward_into(_nonlinear_source(u, self.p, work, square), out)

    def state(self) -> State:
        """The current (u, u_t) in physical space, as arrays of its own."""
        v = _inverse_into(self.V, self._work, np.empty(self.grid.shape))  # free between steps
        return State(Field(self.grid, self.u.copy()), Field(self.grid, v),
                     self.time, self.m, self.p)


def strang_step(state: State, dt: float, nl_coeff: float = 1.0) -> State:
    """Second-order split step: half kick, exact linear flow, half kick.

    One :class:`SpectralStepper` step from physical (u, v) and back: the
    round trip costs a forward transform of u, v and the source and an
    inverse of v on top of the step's own two, so iterating this agrees
    with :func:`evolve` to round-off, not bit for bit.
    """
    if not np.isfinite(dt):
        raise DomainError("dt must be finite")
    stepper = SpectralStepper(state, nl_coeff)
    stepper.step(dt)
    return stepper.state()


def _choose_dt(config: SolverConfig, amp: float, h: float, p: float, t_left: float) -> float:
    dt = config.dt_init
    if config.adapt_theta is not None and amp > 0.0:
        dt *= min(1.0, config.adapt_theta / amp ** (0.5 * p))
    return min(dt, config.cfl_safety * h, t_left)


def evolve(state: State, config: SolverConfig, monitors: dict | None = None,
           on_record=None) -> Trajectory:
    """Step until t_max, a blowup-threshold crossing, or dt underflow.

    `monitors` maps a series name to a callable State -> float; each is
    recorded every snapshot stride together with the built-in 'sup_norm'
    series.  `on_record`, when given, is called with each recorded State,
    and the trajectory then keeps only the last one (and every series); an
    exception it raises propagates.  The run is deterministic for fixed inputs.
    """
    monitors = dict(monitors or {})
    p, h = state.exponent, state.grid.spacing
    nl = config.nonlinearity
    t_end = state.time + config.t_max
    stepper = SpectralStepper(state, nl)
    del state  # the stepper has taken its spectra: u0, v0 need not live to the end

    snapshots: list[State] = []
    series = {name: ([], []) for name in ("sup_norm", *monitors)}

    def record() -> None:
        if snapshots and snapshots[-1].time == stepper.time:
            return
        if on_record is not None:
            snapshots.clear()
        st = stepper.state()
        snapshots.append(st)
        ts, vals = series["sup_norm"]
        ts.append(st.time)
        vals.append(_sup(st.u.values))
        for name, fn in monitors.items():
            ts, vals = series[name]
            ts.append(st.time)
            vals.append(float(fn(st)))
        if on_record is not None:
            on_record(st)

    record()
    termination = "reached_t_max"
    steps = 0
    amp = _sup(stepper.u)
    while True:
        if amp > config.blowup_threshold:
            termination = "blowup_detected"
            break
        t_left = t_end - stepper.time
        if t_left <= 1e-14 * max(1.0, abs(t_end)):
            termination = "reached_t_max"
            break
        dt = _choose_dt(config, amp, h, p, t_left)
        if dt < config.dt_min:
            termination = "dt_underflow"
            break
        try:
            stepper.step(dt)
        except CorruptionError:
            # overflow in |u|^p u means the amplitude left the floating range
            # entirely: a blowup candidate, with the last good state kept
            termination = "blowup_detected"
            break
        # max|u| is finite exactly when every entry of u is
        amp = _sup(stepper.u)
        if not (np.isfinite(amp) and np.all(np.isfinite(stepper.V))):
            termination = "corruption"
            break
        steps += 1
        if steps % config.snapshot_stride == 0:
            record()
    if termination != "corruption":
        record()
    frozen = {name: (np.array(ts), np.array(vals)) for name, (ts, vals) in series.items()}
    return Trajectory(snapshots=snapshots, termination=termination,
                      scalar_series=frozen, nl_coeff=nl, config=config)


def lifespan_upper(A: float, p: float) -> float:
    """Blowup time of v'' = |v|^p v from rest at amplitude A, by quadrature.

    Energy conservation reduces the lifespan to
    int_A^inf [2/(p+2) (u^{p+2} - A^{p+2})]^{-1/2} du, which the
    substitution u = A/s turns into a proper integral on (0, 1].
    """
    if A <= 0.0:
        raise DomainError("lifespan_upper needs a positive starting amplitude")

    # second substitution s = sigma^{2/p} flattens the s -> 0 endpoint,
    # leaving only the integrable inverse-square-root at sigma = 1
    expo = 2.0 * (p + 2.0) / p

    def integrand(sigma):
        return 1.0 / np.sqrt(1.0 - sigma**expo)

    from scipy import integrate  # deferred: it is slow to import, and no CLI path uses it
    value, err = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12, limit=200)
    if not np.isfinite(value) or err > 1e-8 * max(1.0, abs(value)):
        raise RuntimeError(f"lifespan quadrature did not converge (estimate {value}, error {err})")
    return A ** (-0.5 * p) * np.sqrt(0.5 * (p + 2.0)) * (2.0 / p) * value


def _zero(grid: GridSpec) -> Field:
    return Field(grid, np.zeros(grid.shape))


# each initial-data kind's parameters and their kinds as cli._SCHEMA writes
# them, (required, optional): the one table that initial_data and the
# scenario config check names against, and the config reads kinds from
_DATA_PARAMS = {
    "constant": ({"A": float}, {}),
    "gaussian": ({"A": float, "w": float}, {"center": [float]}),
    "bump": ({"A": float, "w": float}, {"center": [float]}),
    "plane_wave": ({"k": [int]}, {"amplitude": float, "traveling": bool}),
    "log_profile": ({"R": float}, {"center": [float]}),
    "negative_energy": ({"A": float, "w": float},
                        {"margin": float, "amplitude_cap": float, "center": [float]}),
}


def _check_data_params(kind: str, params, prefix: str = "") -> dict:
    """The kind's parameter kinds; DomainError for an unknown kind, or for a
    missing or unknown parameter name (reported as prefix + name)."""
    if kind not in _DATA_PARAMS:
        raise DomainError(f"unknown initial-data kind {kind!r}")
    required, optional = _DATA_PARAMS[kind]
    unknown = sorted(set(params) - {*required, *optional})
    wrong = ([f"missing {prefix}{name}" for name in required if name not in params]
             + [f"unknown {prefix}{name}" for name in unknown])
    if wrong:
        raise DomainError(f"{kind} initial data: {', '.join(wrong)} "
                          f"(it takes {', '.join([*required, *optional])})")
    return {**required, **optional}


def initial_data(grid: GridSpec, kind: str, m: float, p: float, **params) -> State:
    """Initial-data library.  Kinds:

    - constant(A)
    - gaussian(A, w, center=box center): u0 = A exp(-|x-c|^2 / 2w^2), u1 = 0
    - bump(A, w, center): C-infinity bump supported in |x-c| < w
    - plane_wave(k, amplitude=1, traveling=True): k in integer modes per axis;
      traveling sets u1 so the mode translates at its dispersion speed
    - log_profile(R, center): d = 2 radial logarithmic cap
    - negative_energy(A, w, margin=0.5, amplitude_cap=1e6): gaussian rescaled
      by bisection in amplitude until the energy is strictly negative

    An unknown kind, or a missing or unknown parameter, is a DomainError.
    """
    _check_data_params(kind, params)
    center = np.asarray(params.get("center", [0.5 * grid.box_length] * grid.d), dtype=np.float64)

    if kind == "constant":
        A = float(params["A"])
        u0 = Field(grid, np.full(grid.shape, A))
        return State(u0, _zero(grid), 0.0, m, p)

    if kind == "gaussian":
        A, w = float(params["A"]), float(params["w"])
        if w <= 0 or 6.0 * w > grid.box_length:
            raise DomainError("gaussian width must be positive and fit the box")
        r = radial_distance(grid, center)
        u0 = Field(grid, A * np.exp(-(r**2) / (2.0 * w**2)))
        return State(u0, _zero(grid), 0.0, m, p)

    if kind == "bump":
        A, w = float(params["A"]), float(params["w"])
        if w <= 0 or 2.0 * w > grid.box_length:
            raise DomainError("bump radius must be positive and fit the box")
        r = radial_distance(grid, center)
        s = np.clip(r / w, 0.0, 1.0)
        vals = np.zeros(grid.shape)
        inside = s < 1.0
        vals[inside] = A * np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
        return State(Field(grid, vals), _zero(grid), 0.0, m, p)

    if kind == "plane_wave":
        k_int = np.atleast_1d(np.asarray(params["k"], dtype=np.int64))
        if k_int.shape != (grid.d,):
            raise DomainError(f"k must have {grid.d} integer components")
        amplitude = float(params.get("amplitude", 1.0))
        traveling = bool(params.get("traveling", True))
        k = 2.0 * np.pi / grid.box_length * k_int
        phase = np.zeros(grid.shape)
        for ax, x in enumerate(axis_coordinates(grid)):
            phase = phase + k[ax] * x
        u0 = Field(grid, amplitude * np.cos(phase))
        if traveling:
            omega = float(np.hypot(np.linalg.norm(k), m))
            u1 = Field(grid, amplitude * omega * np.sin(phase))
        else:
            u1 = _zero(grid)
        return State(u0, u1, 0.0, m, p)

    if kind == "log_profile":
        if grid.d != 2:
            raise DomainError("log_profile is a d = 2 construction")
        R = float(params["R"])
        if R <= 1.0 or 2.0 * R > grid.box_length:
            raise DomainError("log_profile needs 1 < R <= L/2")
        r = radial_distance(grid, center)
        amp = np.sqrt(np.log(R))
        vals = np.where(
            r < 1.0, amp, np.where(r <= R, -np.log(np.maximum(r, 1.0) / R) / amp, 0.0)
        )
        return State(Field(grid, vals), _zero(grid), 0.0, m, p)

    if kind == "negative_energy":
        A, w = float(params["A"]), float(params["w"])
        margin = float(params.get("margin", 0.5))
        cap = float(params.get("amplitude_cap", 1e6))
        base = initial_data(grid, "gaussian", m, p, A=1.0, w=w, center=center)
        # with u_t = 0 the energy of amp * u0 is quadratic * amp^2 - potential * amp^(p+2)
        pc = _Pieces(base)
        quadratic = 0.5 * float(np.sum(pc.grad_sq) + m**2 * np.sum(pc.u**2))
        potential = float(np.sum(pc.pot)) / (p + 2.0)

        def e_of(amp: float) -> float:
            return (quadratic * amp**2 - potential * amp ** (p + 2.0)) * grid.cell_volume

        lo, hi = 0.0, max(A, 1e-6)
        while e_of(hi) >= 0.0:
            hi *= 2.0
            if hi > cap:
                raise DomainError(f"could not reach negative energy below amplitude cap {cap}")
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if e_of(mid) < 0.0:
                hi = mid
            else:
                lo = mid
        amp = hi * (1.0 + margin)
        out = State(amp * base.u, base.v, 0.0, m, p)
        if energy(out) >= 0.0:
            raise DomainError("negative-energy construction failed its own check")
        return out
