"""Discrete bubble extraction and decomposition for bounded families of
fields, with decoupling audits.

The extraction follows the dyadic-pigeonhole skeleton: locate a dyadic
band carrying a definite share of the L^{p+2} mass, take the band-limited
argmax as the center, and replace the (uncomputable) weak limit by a
windowed average of the recentered members.  The window is a smooth
radial taper; it is exact for families whose other bubbles separate, and
it is the central documented proxy of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, StagnationError
from .grid import (Field, GridSpec, _band_multipliers, _distances, _forward_array,
                   _min_image, _project_into, dyadic_range, lp_bump)
from .norms import CriticalParams, _power_sum, _spectral_sobolev_norm, lebesgue_norm

__all__ = [
    "FunctionFamily",
    "ExtractionResult",
    "Decomposition",
    "inverse_gn_extract",
    "bubble_decompose",
    "decoupling_audit",
]

WINDOW_FLOOR_CELLS = 8


@dataclass(frozen=True)
class FunctionFamily:
    """A finite family of fields on one grid, uniformly bounded in
    H^1-dot intersect H^{s_c}-dot."""

    members: tuple

    def __post_init__(self):
        if len(self.members) < 1:
            raise DomainError("family needs at least one member")
        if any(f.grid != self.members[0].grid for f in self.members):
            raise DomainError("family members must share one grid")
        object.__setattr__(self, "members", tuple(self.members))

    @property
    def grid(self) -> GridSpec:
        return self.members[0].grid

    @property
    def n_count(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ExtractionResult:
    status: str  # "ok" or "exhausted"
    profile: Field | None
    centers: np.ndarray | None  # (n_count, d) physical coordinates, on-grid
    stats: dict


_PHI_KEYS = ("phi_h1_sq", "phi_hsc_sq", "phi_p2_pow")


def _norm_triple(F, grid: GridSpec, params: CriticalParams, lp_norm: float) -> np.ndarray:
    """(||f||^2 in H^1-dot, ||f||^2 in H^sc-dot, ||f||_{p+2}^{p+2}) of the field f
    with half-spectrum F and L^{p+2} norm `lp_norm`."""
    modulus = np.abs(F)
    return np.array([_spectral_sobolev_norm(modulus, grid, 1.0) ** 2,
                     _spectral_sobolev_norm(modulus, grid, params.s_c) ** 2,
                     lp_norm ** (params.p + 2.0)])


def _sobolev_bound(triples) -> float:
    """max_n sqrt(||f||_{H^sc}^2 + ||f||_{H^1}^2), the family's M, from the norm triples."""
    return float(np.sqrt(max(t[1] + t[0] for t in triples)))


def _abs_argmax(x: np.ndarray) -> int:
    """``np.argmax(np.abs(x))`` without forming |x|; a tie of +M and -M goes to the lower index."""
    hi, lo = np.argmax(x), np.argmin(x)
    top, bottom = x.flat[hi], -x.flat[lo]
    return int(hi if top > bottom else lo if bottom > top else min(hi, lo))


def _roll_to_center(values: np.ndarray, idx: tuple, grid: GridSpec) -> np.ndarray:
    shift = tuple(grid.n // 2 - i for i in idx)
    return np.roll(values, shift, axis=tuple(range(grid.d)))


def _min_pairwise_distance(points: np.ndarray, L: float) -> float:
    best = np.inf
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            best = min(best, float(np.linalg.norm(_min_image(points[i] - points[j], L))))
    return best


def _window_radius(grid: GridSpec, known_centers: np.ndarray | None) -> float:
    """Quarter of the minimum pairwise distance among the known centers,
    floored at WINDOW_FLOOR_CELLS cells; the floor alone when fewer than
    two centers are known."""
    floor = WINDOW_FLOOR_CELLS * grid.spacing
    r = (floor if known_centers is None or len(known_centers) < 2
         else max(floor, _min_pairwise_distance(known_centers, grid.box_length) / 4.0))
    # keep the taper's support inside the box
    return min(r, 0.45 * grid.box_length / 1.1)


def _apply_window(values: np.ndarray, grid: GridSpec, R_w: float) -> np.ndarray:
    """values *= lp_bump(radial_distance(grid, c) / R_w) in place, bit for bit, c the
    cell n//2 on every axis: the taper is evaluated on the box of cells within 1.1 R_w
    of c, which holds its support, and the rest is multiplied by 0.0 (zeros keep their signs)."""
    reach = int(np.ceil(1.1 * R_w / grid.spacing))  # a cell past it is >= 1.1 R_w + h away
    cells = slice(max(grid.n // 2 - reach, 0), grid.n // 2 + reach + 1)
    box, center = (cells,) * grid.d, (grid.n // 2 * grid.spacing,) * grid.d
    inner = values[box] * lp_bump(_distances(grid, center, cells)[1] / R_w)
    values *= 0.0
    values[box] = inner
    return values


def inverse_gn_extract(family: FunctionFamily, params: CriticalParams,
                       floor: float = 1e-10,
                       prior_centers: np.ndarray | None = None) -> ExtractionResult:
    """Extract one candidate bubble from the family.

    Steps: K = (M/eps)^{(p+2)/(2p(1-s_c))}; scan dyadic N in [K^{-p}, K^2]
    clipped to the grid; per member pick the band maximizing the L^{p+2}
    mass and take the modal band over members; centers are the argmax of
    |P_N f_n|; the profile is the taper-windowed average of the recentered
    members.  `prior_centers` (physical coordinates at the reference
    member) feed the window-radius rule.  Returns status 'exhausted' when
    the family's minimum L^{p+2} norm is at or below the floor.
    Each member is transformed once, for M and every band of the scan.
    The scan works in one workspace per call: each P_N f is inverted there
    by per-axis passes pruned to the band's nonzero columns (its weights are
    built on those alone), and its mass and the argmax of |P_N f| (with no
    |.| pass) are both taken from it, so no band is inverted twice.
    """
    p2 = params.p + 2.0
    return _extract(family, params, [lebesgue_norm(f, p2) for f in family.members],
                    floor, prior_centers)


def _extract(family: FunctionFamily, params: CriticalParams, lp_norms: list, floor: float,
             prior_centers: np.ndarray | None) -> ExtractionResult:
    """:func:`inverse_gn_extract` given the members' L^{p+2} norms."""
    g = family.grid
    p, s_c = params.p, params.s_c
    if not s_c < 1.0:
        raise DomainError("extraction requires s_c < 1")
    p2 = p + 2.0

    eps = min(lp_norms)
    if eps <= floor:
        return ExtractionResult("exhausted", None, None, {"epsilon": eps})
    spectra = [_forward_array(f.values) for f in family.members]
    M = _sobolev_bound([_norm_triple(F, g, params, e) for F, e in zip(spectra, lp_norms)])

    K = max((M / eps) ** (p2 / (2.0 * p * (1.0 - s_c))), 1.0 + 1e-9)
    band = dyadic_range(g, lo=K**-p, hi=K**2)
    if band.size == 0:
        band = dyadic_range(g)

    # the L^{p+2} mass and the argmax of |P_N f| of each member (columns) in
    # each band (rows), all in one workspace
    work, proj = np.empty_like(spectra[0]), np.empty(g.shape)
    scratch = work.view(np.float64).reshape(-1)[:g.num_points].reshape(g.shape)
    mass = np.empty((band.size, len(spectra)))
    peak = np.empty((band.size, len(spectra)), dtype=np.intp)
    weights = _band_multipliers(g, band)
    for b in range(band.size):
        weight = next(weights)
        for m, F in enumerate(spectra):
            _project_into(F, weight, work, proj)
            peak[b, m] = _abs_argmax(proj)
            mass[b, m] = _power_sum(proj, p2, out=scratch) * g.cell_volume
        del weight  # not held while the next band's weights are built
    del spectra, work, proj, scratch
    # per member the first band of largest mass; the modal band over members,
    # ties resolved toward the higher frequency
    uniq, counts = np.unique(band[np.argmax(mass, axis=0)], return_counts=True)
    N_sel = float(uniq[counts == counts.max()].max())

    idx = np.array(np.unravel_index(peak[band == N_sel][0], g.shape)).T
    centers = idx * g.spacing
    known = centers[-1:].copy()
    if prior_centers is not None and len(prior_centers):
        known = np.vstack([prior_centers, known])
    R_w = _window_radius(g, known)
    # np.mean of the recentered members, bit for bit, as a running sum
    avg = _roll_to_center(family.members[0].values, idx[0], g)
    for f, i in zip(family.members[1:], idx[1:]):
        avg += _roll_to_center(f.values, i, g)
    avg /= family.n_count
    profile = Field(g, _apply_window(avg, g, R_w))

    phi = _norm_triple(_forward_array(profile.values), g, params, lebesgue_norm(profile, p2))
    stats = {"epsilon": eps, "M": M, "K": K, "N": N_sel, "window_radius": R_w,
             **dict(zip(_PHI_KEYS, phi.tolist()))}
    return ExtractionResult("ok", profile, centers, stats)


@dataclass
class Decomposition:
    """Bubbles (profile, per-member centers), final residuals, and the
    per-level residual histories; `triples` pairs each profile and final
    residual whose norms were taken with its :func:`_norm_triple`."""

    bubbles: list  # list of (Field, centers array)
    residuals: list  # per-member Field at the final level
    eps_history: list  # max_n ||r^J||_{p+2} per level, level 0 first
    sobolev_history: list  # max_n sqrt(H^1^2 + H^sc^2) per level
    triples: list = field(default_factory=list, repr=False, compare=False)

    @property
    def n_bubbles(self) -> int:
        return len(self.bubbles)


def _shift_profile(profile: Field, center: np.ndarray, grid: GridSpec) -> np.ndarray:
    idx = np.round(center / grid.spacing).astype(int) % grid.n
    shift = tuple(int(i) - grid.n // 2 for i in idx)
    return np.roll(profile.values, shift, axis=tuple(range(grid.d)))


def bubble_decompose(family: FunctionFamily, params: CriticalParams,
                     j_max: int = 8, tol: float = 1e-3) -> Decomposition:
    """Iterate extraction on residuals until the residual L^{p+2} norm is
    at or below tol, the extraction floor is hit, or j_max bubbles.

    Each level must strictly decrease the tracked residual L^{p+2} norm;
    a non-decrease signals failure of the averaging proxy and raises
    StagnationError.  Residuals are defined by subtraction, so the
    reconstruction identity is exact by construction.
    A level's Sobolev bound is its extraction's M (one transform per member),
    and each residual's L^{p+2} norm is taken once, for the history and the
    next extraction; the profiles' and final residuals' norm triples are kept.
    """
    g = family.grid
    p2 = params.p + 2.0
    residuals = [Field(g, f.values.copy()) for f in family.members]
    bubbles: list = []
    lp_norms = [lebesgue_norm(r, p2) for r in residuals]
    eps_hist = [max(lp_norms)]
    sob_hist: list = []
    triples: list = []

    while len(bubbles) < j_max and eps_hist[-1] > tol:
        prior = np.array([b[1][-1] for b in bubbles]) if bubbles else None
        res = _extract(FunctionFamily(tuple(residuals)), params, lp_norms, tol, prior)
        if res.status == "exhausted":
            break
        sob_hist.append(res.stats["M"])
        new_residuals = [Field(g, r.values - _shift_profile(res.profile, c, g))
                         for r, c in zip(residuals, res.centers)]
        new_norms = [lebesgue_norm(r, p2) for r in new_residuals]
        eps_new = max(new_norms)
        if eps_new >= eps_hist[-1]:
            raise StagnationError(
                f"residual L^{p2:g} norm did not decrease "
                f"({eps_hist[-1]:.6g} -> {eps_new:.6g}) at level {len(bubbles) + 1}"
            )
        residuals, lp_norms = new_residuals, new_norms
        bubbles.append((res.profile, res.centers))
        triples.append((res.profile, np.array([res.stats[k] for k in _PHI_KEYS])))
        eps_hist.append(eps_new)
    final = [_norm_triple(_forward_array(r.values), g, params, e)
             for r, e in zip(residuals, lp_norms)]
    sob_hist.append(_sobolev_bound(final))
    return Decomposition(bubbles=bubbles, residuals=residuals, eps_history=eps_hist,
                         sobolev_history=sob_hist, triples=triples + list(zip(residuals, final)))


def decoupling_audit(dec: Decomposition, family: FunctionFamily,
                     params: CriticalParams) -> dict:
    """Relative decoupling gaps at the last family member, plus the
    per-member minimum pairwise center separation.

    Gaps compare ||f||^2 (H^1-dot and H^sc-dot) and ||f||^{p+2} (L^{p+2})
    against the sum over bubbles plus the residual.  A field's norm triple
    is taken from one transform, unless the decomposition recorded it.
    """
    g = family.grid
    f, r = family.members[-1], dec.residuals[-1]
    held = {id(x): t for x, t in dec.triples}

    def norms(x) -> np.ndarray:
        return held[id(x)] if id(x) in held else _norm_triple(
            _forward_array(x.values), g, params, lebesgue_norm(x, params.p + 2.0))

    whole = norms(f)
    parts = sum(norms(b[0]) for b in dec.bubbles) + norms(r)
    gap = np.abs(whole - parts) / np.maximum(np.abs(whole), 1e-300)
    gaps = dict(zip(("h1", "hsc", "p_plus_2"), gap.tolist()))
    gaps["min_separation_by_member"] = [
        _min_pairwise_distance(np.array([b[1][n] for b in dec.bubbles]), g.box_length)
        for n in range(family.n_count)] if dec.n_bubbles >= 2 else []
    return gaps
