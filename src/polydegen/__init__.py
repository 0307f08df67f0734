"""Exact certificates for a degenerating family of polynomial automorphisms.

The library builds automorphisms of Q[t,t^-1][x1,...,xn] as exponentials of
triangular derivations, factors each fiber at t = alpha != 0 into triangular
pieces, decides wildness of the fiber at t = 0, and writes the wild fiber as
a four-factor commutator word one variable up.  Everything is computed over
exact rationals; there is no floating point anywhere.
"""

from ._kernel import kernel_backend
from .certificates import (
    ConjugationCertificate,
    StabilizationCertificate,
    TamenessWord,
    WildnessReport,
    build_conjugation,
    build_stabilization,
    check_wild_at_zero,
    factor_kind,
    specialized_tameness,
)
from .derivation import TriangularDerivation
from .endo import PolyEndo
from .errors import (
    ArityMismatch,
    CheckFailed,
    CoefficientTooLong,
    ExponentOverflow,
    HypothesisViolation,
    KernelViolation,
    NonUnit,
    NotTriangular,
    ParseError,
    PoleAtZero,
    PolydegenError,
)
from .family import build_family, slice_coefficients
from .multipoly import MultiPoly, RingMode
from .parsing import parse_poly, parse_rational

__version__ = "0.1.0"

__all__ = [
    "ArityMismatch",
    "CheckFailed",
    "CoefficientTooLong",
    "ConjugationCertificate",
    "ExponentOverflow",
    "HypothesisViolation",
    "KernelViolation",
    "MultiPoly",
    "NonUnit",
    "NotTriangular",
    "ParseError",
    "PoleAtZero",
    "PolyEndo",
    "PolydegenError",
    "RingMode",
    "StabilizationCertificate",
    "TamenessWord",
    "TriangularDerivation",
    "WildnessReport",
    "build_conjugation",
    "build_family",
    "build_stabilization",
    "check_wild_at_zero",
    "factor_kind",
    "kernel_backend",
    "parse_poly",
    "parse_rational",
    "slice_coefficients",
    "specialized_tameness",
]
