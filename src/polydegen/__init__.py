"""Exact certificates for a degenerating family of polynomial automorphisms.

The library builds automorphisms of Q[t,t^-1][x1,...,xn] as exponentials of
triangular derivations, factors each fiber at t = alpha != 0 into triangular
pieces, decides wildness of the fiber at t = 0, and writes the wild fiber as
a four-factor commutator word one variable up.  Everything is computed over
exact rationals; there is no floating point anywhere.

Importing the package loads none of its modules: each public name is looked
up in its defining module when it is first used (PEP 562), so a caller pays
only for the modules its names need.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    "kernel_backend": "_kernel",
    "ConjugationCertificate": "certificates",
    "StabilizationCertificate": "certificates",
    "TamenessWord": "certificates",
    "WildnessReport": "certificates",
    "build_conjugation": "certificates",
    "build_stabilization": "certificates",
    "check_wild_at_zero": "certificates",
    "factor_kind": "certificates",
    "specialized_tameness": "certificates",
    "TriangularDerivation": "derivation",
    "PolyEndo": "endo",
    "ArityMismatch": "errors",
    "CheckFailed": "errors",
    "CoefficientTooLong": "errors",
    "ExponentOverflow": "errors",
    "HypothesisViolation": "errors",
    "KernelViolation": "errors",
    "NonUnit": "errors",
    "NotTriangular": "errors",
    "ParseError": "errors",
    "PoleAtZero": "errors",
    "PolydegenError": "errors",
    "build_family": "family",
    "slice_coefficients": "family",
    "MultiPoly": "multipoly",
    "parse_poly": "parsing",
    "parse_rational": "parsing",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # nothing is cached here, so a name always reads its module's binding
    try:
        module = _EXPORTS[name]
    except KeyError:
        # ``from polydegen import <submodule>`` imports the submodule only
        # after this AttributeError
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
