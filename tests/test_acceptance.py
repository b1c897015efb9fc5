"""Acceptance battery.

One test per criterion, each printing a single PASS line (with timing)
when it holds.  Exact identities are compared with zero tolerance as
LogLinear or integer equality; numeric checks carry their stated
tolerances inline.  The discriminant matrix is shared with the verify
suites; criteria 1, 2, 4 and 6 run the ``verify`` checks that state them
(``degree-coefficient-identity``; ``zeta-convolution``;
``l-value-class-number``, ``l-derivative-chowla-selberg`` and
``e1-quadrature``).
"""

import random
import time
from fractions import Fraction

import mpmath

from cmeis.eisenstein import arakelov_degree, coherent_ratio_check, trace_degree
from cmeis.exact import LogLinear, factor
from cmeis.field import Setup, _slice_ideal, enumerate_trace_slice
from cmeis.genus import prime_multiplicity
from cmeis.oracle import (
    ReducedForm,
    class_poly_start_precision,
    class_reps,
    hilbert_class_poly,
    j_value,
    singular_moduli_check,
)
from cmeis.verify import SUITES, TEST_MATRIX

SETUPS = [Setup(d1, d2) for d1, d2 in TEST_MATRIX]
TRACE_BOUND = 20


def _report(name: str, started: float, extra: str = ""):
    elapsed = time.time() - started
    suffix = f" ({extra})" if extra else ""
    print(f"PASS {name}{suffix} [{elapsed:.1f}s]")


def test_criterion_1_degree_equals_coefficient():
    """4 * degree = coefficient, geometric formula vs Whittaker assembly."""
    started = time.time()
    # every index of trace <= 20 on the matrix: the closed form against the assembly
    assert SUITES["eisenstein"]["degree-coefficient-identity"](random.Random(0)) is None
    _report("criterion-1 exact degree/coefficient identity", started, "trace <= 20")


def test_criterion_2_vanishing_and_support():
    """Odd obstruction sets; vanishing beyond one prime; support cross-check."""
    started = time.time()
    # the same sweep: odd obstruction sets, zero off one prime, support = {P} by Hilbert symbols
    assert SUITES["eisenstein"]["degree-coefficient-identity"](random.Random(0)) is None
    _report("criterion-2 vanishing, odd obstruction, independent support", started)


def test_criterion_3_trace_degree_decomposition():
    """Per-index decomposition equals the multiplicity double sum, exactly."""
    started = time.time()
    for setup in SETUPS:
        for m in range(1, TRACE_BOUND + 1):
            by_index: dict[int, Fraction] = {}
            by_multiplicity: dict[int, Fraction] = {}
            for elt in enumerate_trace_slice(setup, m):
                for p, c in arakelov_degree(setup, m, elt.x).degree.terms().items():
                    by_index[p] = by_index.get(p, 0) + c
                ideal = _slice_ideal(setup, m, elt.x, elt.factors)
                for p in ideal.rational_primes():
                    fp = prime_multiplicity(setup, ideal, p)
                    if fp:
                        by_multiplicity[p] = by_multiplicity.get(p, 0) + Fraction(fp, 2)
            assert by_index == by_multiplicity, (setup, m)
            assert trace_degree(setup, m) == LogLinear(by_index)
    _report("criterion-3 trace-degree decomposition", started)


def test_criterion_4_norm_count_dirichlet_series():
    """Sum of rho over norm-n ideals = (1 * chi1 * chi2 * chiD)(n), n <= 10^4."""
    started = time.time()
    assert SUITES["genus"]["zeta-convolution"](random.Random(0)) is None
    _report("criterion-4 norm-count Dirichlet series", started, "n <= 10^4")


def test_criterion_5_singular_moduli():
    """Resultant of class polynomials vs trace-1 degree, all matrix pairs."""
    started = time.time()
    frozen = {
        (-3, -7): (3375, {3: Fraction(2), 5: Fraction(2)}),
        (-3, -4): (1728, {2: Fraction(2), 3: Fraction(1)}),
    }
    for setup in SETUPS:
        report = singular_moduli_check(setup)
        assert report.ok, (setup, report.degree_side, report.resultant_side)
        key = (setup.d1, setup.d2)
        if key in frozen:
            res_abs, degree_terms = frozen[key]
            assert report.resultant_abs == res_abs
            assert report.degree_side.terms() == degree_terms
    _report("criterion-5 singular-moduli reconciliation", started, f"{len(SETUPS)} pairs")


def test_criterion_6_analytic_cross_checks():
    """L-values vs class numbers, E1 vs quadrature, j-value certificates."""
    started = time.time()
    # L(0) = 2h/w and L'(0) against the log Gamma sum for every fundamental d >= -200;
    # E1 against quadrature at 9 points
    for check in ("l-value-class-number", "l-derivative-chowla-selberg", "e1-quadrature"):
        assert SUITES["oracle"][check](random.Random(0)) is None
    # the two-route agreement check runs inside every evaluation
    with mpmath.mp.workprec(200):
        assert abs(j_value(ReducedForm(1, 0, 1), 128) - 1728) < mpmath.mpf("1e-20")
        for d in (-7, -8, -11, -23):
            for form in class_reps(d):
                j_value(form, 160)
    _report("criterion-6 analytic cross-checks", started, "fundamental d >= -200")


# classical level-2 modular polynomial (pinned below by j(i), j(2i))
PHI2 = {
    (3, 0): 1,
    (0, 3): 1,
    (2, 2): -1,
    (2, 1): 1488,
    (1, 2): 1488,
    (2, 0): -162000,
    (0, 2): -162000,
    (1, 1): 40773375,
    (1, 0): 8748000000,
    (0, 1): 8748000000,
    (0, 0): -157464000000000,
}


def _phi2(x: int, y: int) -> int:
    return sum(c * x**i * y**j for (i, j), c in PHI2.items())


def test_criterion_7_hecke_correspondence_analogue():
    """Trace-2 degree against the level-2 composed resultant, for (-3, -7)."""
    started = time.time()
    assert _phi2(1728, 287496) == 0  # j(i), j(2i)
    setup = Setup(-3, -7)
    h1 = hilbert_class_poly(-3, class_poly_start_precision(-3))
    h2 = hilbert_class_poly(-7, class_poly_start_precision(-7))
    # both class numbers are 1: the composed resultant is a plain evaluation
    j1, j2 = -h1[0], -h2[0]
    composed = _phi2(j1, j2)
    scale = Fraction(8, setup.w1 * setup.w2)
    expected = LogLinear({p: scale * e for p, e in factor(abs(composed))})
    assert trace_degree(setup, 2) == expected
    assert abs(composed) == 57375**3
    _report("criterion-7 level-2 correspondence", started)


def test_criterion_8_coherent_incoherent_identity():
    """coefficient = nu * log p * coherent center value, exactly."""
    started = time.time()
    checked = 0
    for setup in SETUPS:
        for m in range(1, TRACE_BOUND + 1):
            for elt in enumerate_trace_slice(setup, m):
                report = arakelov_degree(setup, m, elt.x)
                if report.reflex is not None:
                    assert coherent_ratio_check(setup, m, elt.x, report), (setup, m, elt.x)
                    checked += 1
    assert checked > 1000
    _report("criterion-8 coherent/incoherent ratio", started, f"{checked} indices")
