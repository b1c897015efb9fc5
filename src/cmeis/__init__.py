"""Exact arithmetic for a derived Hilbert Eisenstein series and its CM degrees.

Fix two coprime negative fundamental discriminants.  This package computes,
in exact arithmetic, the Fourier coefficients of the central derivative of
the attached weight-1 Hilbert Eisenstein series, the Arakelov degrees of the
corresponding zero-dimensional CM moduli problems, and cross-verifies both
against a floating-point singular-moduli oracle built from Hilbert class
polynomials.
"""

from .eisenstein import (
    DegreeReport,
    arakelov_degree,
    assemble_derivative,
    coherent_ratio_check,
    constant_term,
    holomorphic_coefficient,
    mixed_coefficient,
    trace_degree,
)
from .exact import (
    OO,
    Factorization,
    InvariantError,
    LogLinear,
    factor,
    hasse_invariant,
    hilbert_symbol,
    is_prime,
    kronecker,
    sqrt_mod_prime_power,
)
from .field import (
    FElem,
    FIdealFactored,
    FPrimeIdeal,
    Setup,
    SetupError,
    TraceSliceElement,
    element_valuation,
    enumerate_trace_slice,
    local_invariants,
    prime_ideals_above,
    principal_ideal,
    support,
)
from .genus import (
    diff_set,
    genus_char_prime,
    norm_ideal_count,
    prime_multiplicity,
)
from .oracle import (
    LFunctionCenter,
    PrecisionError,
    ReducedForm,
    SingularModuliReport,
    class_number,
    class_reps,
    e1,
    hilbert_class_poly,
    j_value,
    lambda_at_zero,
    resultant,
    singular_moduli_check,
)

__version__ = "0.1.0"
