"""Constructive witnesses for the divisibility P(n) | n!.

The package builds certificates (n together with a factor list for P(n))
for several polynomial families, verifies them under two admissibility
rules, and scans ranges for smooth polynomial values.
"""

from .intpoly import IntPoly, ContentSplit
from .certificate import WitnessCertificate
from .construct import (
    SchinzelPieces,
    SchinzelInconsistency,
    ConstructionBudgetError,
    construct_quadratic,
    construct_cubic,
    construct_quartic_cubic_linear,
    construct_quartic_biquadratic,
    construct_binomial_power,
    construct_cyclotomic,
    construct_chebyshev,
    schinzel_pieces,
)
from .verify import VerificationReport, verify, verify_distinct, verify_legendre
from .scan import ScanRecord, ScanSummary, scan_range, certificate_smoothness

__all__ = [
    "IntPoly",
    "ContentSplit",
    "WitnessCertificate",
    "SchinzelPieces",
    "SchinzelInconsistency",
    "ConstructionBudgetError",
    "construct_quadratic",
    "construct_cubic",
    "construct_quartic_cubic_linear",
    "construct_quartic_biquadratic",
    "construct_binomial_power",
    "construct_cyclotomic",
    "construct_chebyshev",
    "schinzel_pieces",
    "VerificationReport",
    "verify",
    "verify_distinct",
    "verify_legendre",
    "ScanRecord",
    "ScanSummary",
    "scan_range",
    "certificate_smoothness",
]
