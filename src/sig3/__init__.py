"""Signature-three elliptic numerics and transfer-identity verification."""

from .errors import (
    ConfigError,
    DomainError,
    NonConvergence,
    PoleError,
    Sig3Error,
)
from .hypergeom import (
    agm,
    agm3,
    f2,
    f3,
    f_half,
)
from .weierstrass import (
    WeierstrassInvariants,
    sn,
    wp,
    wp_and_derivative,
)
from .moduli import (
    ModulusSet,
    invariants,
    modulus_from_kappa,
    p_from_s_c,
    params_from_p,
    trimidiation,
)
from .delta import (
    DeltaContext,
    delta,
    delta_integral,
    delta_phase,
    dn3,
    half_periods_sig3,
)
from .transfer import (
    DEFAULT_TOL,
    grid_report,
    period_route_gap,
    verify_identity56,
    verify_identity57,
    verify_identity58,
    verify_ode_delta,
    verify_trimidiation,
)

__version__ = "0.1.0"
