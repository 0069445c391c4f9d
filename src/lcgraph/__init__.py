"""Exact spectral graph theory over truncated power series in eps.

Edge weights are elements of a field of formal series sum_i c_i eps^(q_i)
with rational exponents, truncated at an order marker O(eps^T).  The
package computes spectra of the probability operator, Cheeger constants
and random-walk mixing bounds for finite weighted graphs over that field,
entirely in exact rational arithmetic where possible and in high-precision
floating point otherwise.
"""

from .cheeger import CheegerCut, cheeger_constant, cheeger_inequality_check
from .errors import (
    GraphValidationError,
    LCGraphError,
    LiftError,
    ModeMismatchError,
    NumericModeRequired,
    SeriesParseError,
)
from .graphs import (
    OFGraph,
    VertexFunction,
    dump_graph,
    load_function,
    load_graph,
    parse_function,
    parse_graph,
)
from .operators import (
    apply,
    green_lhs_rhs,
    inner,
    laplacian_matrix,
    norm,
    probability_matrix,
    rayleigh,
)
from .reports import CheckItem, Report
from .selfcheck import run_selfcheck
from .series import (
    INF,
    NUMERIC,
    RATIONAL,
    LCNumber,
    comparable,
    eps,
    format_series,
    from_rational,
    monomial,
    one,
    parse_series,
    set_numeric_precision,
    sign,
    truncation,
    zero,
)
from .spectral import (
    EigenPair,
    MAX_VERTICES,
    Spectrum,
    compute_spectrum,
    verify_spectral_theorems,
)
from .walks import (
    ALTERNATING,
    CONVERGES_TO_ZERO,
    ConvergenceVerdict,
    LimitVerdict,
    NO_LIMIT,
    STATIONARY,
    WalkReport,
    WalkStep,
    classify_eigen_limit,
    equilibrium_bipartite,
    equilibrium_full,
    h_convergence_verdict,
    iterate,
    nonconvergence_witness,
)

__version__ = "0.1.0"

__all__ = [
    "ALTERNATING",
    "CONVERGES_TO_ZERO",
    "CheegerCut",
    "CheckItem",
    "ConvergenceVerdict",
    "EigenPair",
    "GraphValidationError",
    "INF",
    "LCGraphError",
    "LCNumber",
    "LiftError",
    "LimitVerdict",
    "MAX_VERTICES",
    "ModeMismatchError",
    "NO_LIMIT",
    "NUMERIC",
    "NumericModeRequired",
    "OFGraph",
    "RATIONAL",
    "Report",
    "STATIONARY",
    "SeriesParseError",
    "Spectrum",
    "VertexFunction",
    "WalkReport",
    "WalkStep",
    "apply",
    "cheeger_constant",
    "cheeger_inequality_check",
    "classify_eigen_limit",
    "comparable",
    "compute_spectrum",
    "dump_graph",
    "eps",
    "equilibrium_bipartite",
    "equilibrium_full",
    "format_series",
    "from_rational",
    "green_lhs_rhs",
    "h_convergence_verdict",
    "inner",
    "iterate",
    "laplacian_matrix",
    "load_function",
    "load_graph",
    "monomial",
    "nonconvergence_witness",
    "norm",
    "one",
    "parse_function",
    "parse_graph",
    "parse_series",
    "probability_matrix",
    "rayleigh",
    "run_selfcheck",
    "set_numeric_precision",
    "sign",
    "truncation",
    "verify_spectral_theorems",
    "zero",
]
