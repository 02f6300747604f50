"""Exact verifiers and bounded searches for spectral sets, integer
tilings, and interval-union constructions on the line."""

from .cyclotomic import (IntPolynomial, ResidueMultiset, cyclotomic_poly,
                         root_sum_is_zero, root_sum_value)
from .intervals import (CommonComplementError, FiberCell, FiberDecomposition,
                        IntervalUnion, OmegaTilingCertificate,
                        PeriodicSpectrum, assemble_tiling, build_omega, fibers,
                        gram_entry, gram_matrix, is_p_tile, measure, normalize,
                        period_identity_residual, spectral_verdict,
                        verify_omega_tiling)
from .spectra import (FinitePointSet, IntSet, ResourceLimitError,
                      admissible_differences, as_fraction, brute_force_spectra,
                      enumerate_spectra, exponential_sum_vanishes, is_spectrum)
from .tilings import (PeriodicSet, SearchTimeout, TilingCertificate,
                      certify_tiling, find_common_complement, find_complements,
                      is_tiling_of_Z, tiles_cyclic)
from .utc import (INCONCLUSIVE, NO_SPECTRA, VERIFIED, InvalidFamilyError,
                  RoundTripReport, UtcReport, roundtrip, utc_verify)

__version__ = "0.1.0"

__all__ = [
    "IntPolynomial", "ResidueMultiset", "cyclotomic_poly", "root_sum_is_zero",
    "root_sum_value",
    "FinitePointSet", "IntSet", "ResourceLimitError", "admissible_differences",
    "as_fraction", "brute_force_spectra", "enumerate_spectra",
    "exponential_sum_vanishes", "is_spectrum",
    "PeriodicSet", "SearchTimeout", "TilingCertificate", "certify_tiling",
    "find_common_complement", "find_complements", "is_tiling_of_Z",
    "tiles_cyclic",
    "CommonComplementError", "FiberCell", "FiberDecomposition",
    "IntervalUnion", "OmegaTilingCertificate", "PeriodicSpectrum",
    "assemble_tiling", "build_omega", "fibers",
    "gram_entry", "gram_matrix", "is_p_tile", "measure", "normalize",
    "period_identity_residual", "spectral_verdict", "verify_omega_tiling",
    "INCONCLUSIVE", "NO_SPECTRA", "VERIFIED", "InvalidFamilyError",
    "RoundTripReport", "UtcReport", "roundtrip", "utc_verify",
    "__version__",
]
