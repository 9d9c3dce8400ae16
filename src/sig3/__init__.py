"""Signature-three elliptic numerics and transfer-identity verification."""

from .errors import (
    ConfigError,
    DomainError,
    NonConvergence,
    PoleError,
    Sig3Error,
)
from .hypergeom import (
    f2,
    f3,
    f_half,
)
from .weierstrass import wp
from .moduli import (
    DeltaContext,
    ModulusSet,
    half_periods_sig3,
    invariants,
    modulus_from_kappa,
    params_from_p,
)
from .delta import (
    delta,
    delta_phase,
    dn3,
    period_route_gap,
    verify_ode_delta,
    verify_trimidiation,
)
from .transfer import (
    DEFAULT_TOL,
    grid_report,
)

__version__ = "0.1.0"
