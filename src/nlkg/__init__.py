"""Pseudo-spectral simulator and diagnostics suite for the focusing
nonlinear Klein-Gordon equation u_tt - Lap u + m^2 u = |u|^p u on a
periodic box: spectral kernels, Strang splitting around the exact linear
propagator, conservation-law tensor audits, light-cone Lyapunov
functionals, blowup detection and rate fitting, and a discrete bubble
decomposition.  The package exports each module's ``__all__``."""

from .blowup import *
from .cones import *
from .conslaws import *
from .errors import *
from .grid import *
from .norms import *
from .profiles import *
from .solver import *

__version__ = "0.1.0"
