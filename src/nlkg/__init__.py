"""Pseudo-spectral simulator and diagnostics suite for the focusing
nonlinear Klein-Gordon equation u_tt - Lap u + m^2 u = |u|^p u on a
periodic box: spectral kernels, Strang splitting around the exact linear
propagator, conservation-law tensor audits, light-cone Lyapunov
functionals, blowup detection and rate fitting, and a discrete bubble
decomposition."""

from .blowup import (
    BlowupReport,
    MassSeries,
    blowup_surface_estimate,
    concavity_check,
    critical_norm_series,
    detect_and_fit,
    lower_bound_check,
    mass_diagnostics,
    truncated_mass,
)
from .cones import (
    ConeSpec,
    DiagnosticSeries,
    averaged_gradient_bound,
    cone_audit,
    cone_monitor,
    energy_flux_check,
    lyapunov_series,
)
from .conslaws import (
    TensorKind,
    TensorSample,
    charge_slab_identity,
    combined_weighted_source,
    divergence_residual,
    eval_tensor,
    refinement_orders,
    residual_norms,
    tensor_density,
    tensor_kind,
)
from .errors import CorruptionError, DomainError, StagnationError
from .grid import (
    Field,
    GridSpec,
    SpectralField,
    State,
    apply_multiplier,
    bessel_derivative,
    bessel_symbol,
    dyadic_range,
    forward_transform,
    fractional_derivative,
    inverse_transform,
    lp_bump,
    lp_project,
    spectral_divergence,
    spectral_gradient,
)
from .norms import (
    CriticalParams,
    critical_exponent,
    energy,
    gn_ratio,
    gn_second_ratio,
    lebesgue_norm,
    sobolev_norm,
)
from .profiles import (
    Decomposition,
    FunctionFamily,
    bubble_decompose,
    decoupling_audit,
    inverse_gn_extract,
)
from .solver import (
    SolverConfig,
    SpectralStepper,
    Trajectory,
    evolve,
    initial_data,
    lifespan_upper,
    linear_propagator,
    nonlinear_kick,
    ode_oracle,
    strang_step,
)

__version__ = "0.1.0"
