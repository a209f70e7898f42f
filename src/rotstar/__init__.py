"""rotstar: stationary axisymmetric metrics generated by slowly rotating barotropic stars.

The package builds the metric by a post-Newtonian fixed-point scheme on a
two-patch (interior disk + Kelvin-compactified exterior) grid and verifies the
result against the reduced axisymmetric Einstein system and exact references
(flat space, Kerr, Lane-Emden, TOV).
"""

__version__ = "0.1.0"

from .errors import (
    AsymptoticsError,
    ConfigError,
    ConvergenceError,
    DecayError,
    DomainError,
    ErgoViolationError,
    RegimeError,
    SeriesDomainError,
    SolverError,
    VerificationError,
)

__all__ = [
    "__version__",
    "AsymptoticsError",
    "ConfigError",
    "ConvergenceError",
    "DecayError",
    "DomainError",
    "ErgoViolationError",
    "RegimeError",
    "SeriesDomainError",
    "SolverError",
    "VerificationError",
]
