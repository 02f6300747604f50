"""Exact verifiers and bounded searches for spectral sets, integer
tilings, and interval-union constructions on the line.

The namespace is lazy: each public name imports its module on first
access (PEP 562), so ``import spectile`` loads no submodule.
"""

import importlib

__version__ = "0.1.0"

# each public name under the module that defines it
_HOMES = {
    "cyclotomic": ("ResidueMultiset", "as_fraction", "cyclotomic_poly",
                   "root_sum_is_zero"),
    "spectra": ("FinitePointSet", "IntSet", "SearchTimeout",
                "admissible_differences", "enumerate_spectra",
                "exponential_sum_vanishes", "is_spectrum"),
    "tilings": ("PeriodicSet", "find_common_complement", "find_complements",
                "is_tiling_of_Z", "tiles_cyclic"),
    "intervals": ("CommonComplementError", "FiberCell", "FiberDecomposition",
                  "IntervalUnion", "OmegaTilingCertificate",
                  "assemble_tiling", "build_omega", "fibers", "gram_entry",
                  "gram_matrix", "measure",
                  "period_identity_residual", "spectral_verdict",
                  "verify_omega_tiling"),
    "utc": ("INCONCLUSIVE", "NO_SPECTRA", "VERIFIED", "InvalidFamilyError",
            "RoundTripReport", "UtcReport", "roundtrip", "utc_verify"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _HOMES:  # so spectile.utc works after `import spectile`
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
