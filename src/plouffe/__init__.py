"""Plouffe-type three-series formulas for odd zeta values and odd powers
of pi: exact rational coefficients, arbitrary-precision evaluation,
identity verification, and PSLQ-based rediscovery of the coefficients
from raw digits.
"""

from .bernoulli import (
    CoefficientTriple,
    Target,
    bernoulli,
    d_coeff,
    e_coeff,
    f_sum,
    g_sum,
    h_sum,
    k_coeff,
    triple_for,
)
from .identities import (
    ResidualReport,
    ramanujan_residual,
    symmetric_point_residual,
    triple_residual,
    ts_identity_residual,
    verify_all,
    vepstas_residual,
    zeta_4m1_residual,
)
from .precision import (
    PrecisionReal,
    agreement_digits,
    decimal_string,
    format_rational,
    pi_const,
)
from .relations import (
    RelationNotFoundError,
    RelationResult,
    min_digits_for,
    pslq,
    rediscover_triple,
)
from .series import (
    SeriesSpec,
    apery_zeta3,
    eval_pi_power,
    eval_zeta_odd,
    s1_closed_form,
    s_series,
    truncation_index,
    zeta_reference,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientTriple",
    "PrecisionReal",
    "RelationNotFoundError",
    "RelationResult",
    "ResidualReport",
    "SeriesSpec",
    "Target",
    "agreement_digits",
    "apery_zeta3",
    "bernoulli",
    "d_coeff",
    "decimal_string",
    "e_coeff",
    "eval_pi_power",
    "eval_zeta_odd",
    "f_sum",
    "format_rational",
    "g_sum",
    "h_sum",
    "k_coeff",
    "min_digits_for",
    "pi_const",
    "pslq",
    "ramanujan_residual",
    "rediscover_triple",
    "s1_closed_form",
    "s_series",
    "symmetric_point_residual",
    "triple_for",
    "triple_residual",
    "truncation_index",
    "ts_identity_residual",
    "verify_all",
    "vepstas_residual",
    "zeta_4m1_residual",
    "zeta_reference",
]
