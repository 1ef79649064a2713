"""Plouffe-type three-series formulas for odd zeta values and odd powers
of pi: exact rational coefficients, arbitrary-precision evaluation,
identity verification, and PSLQ-based rediscovery of the coefficients
from raw digits.
"""

import importlib

from .bernoulli import (CoefficientTriple, Target, bernoulli, d_coeff, e_coeff, f_sum,
                        format_rational, g_sum, h_sum, k_coeff, triple_for)

# The names of the other layers, by home module, bound on first access
# (PEP 562): importing the package loads only the exact Bernoulli layer.
_LAZY = {
    "fixed": ("decimal_string", "truncation_index"),
    "identities": ("ResidualReport", "ramanujan_residual", "symmetric_point_residual",
                   "triple_residual", "ts_identity_residual", "verify_all",
                   "vepstas_residual", "zeta_4m1_residual"),
    "precision": ("PrecisionReal", "agreement_digits", "pi_const"),
    "relations": ("RelationNotFoundError", "RelationResult", "min_digits_for", "pslq",
                  "rediscover_triple"),
    "series": ("SeriesSpec", "apery_zeta3", "eval_pi_power", "eval_zeta_odd",
               "s1_closed_form", "s_series", "zeta_reference"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = sorted(["CoefficientTriple", "Target", "bernoulli", "d_coeff", "e_coeff", "f_sum",
                  "format_rational", "g_sum", "h_sum", "k_coeff", "triple_for", *_HOME])
