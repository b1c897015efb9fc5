"""Exact arithmetic for a derived Hilbert Eisenstein series and its CM degrees.

Modules, bottom-up: ``exact`` (integers, symbols, ``LogLinear``), ``field``
(the real quadratic field F), ``genus`` (genus character, ideal counts),
``oracle`` (the floating-point singular-moduli check, on ``exact`` and
``field`` alone), ``eisenstein`` (degrees and coefficients), ``verify``, ``cli``.
The one back edge is ``oracle.singular_moduli_check``'s call-time import of
``eisenstein.trace_degree``.  Import each name from its module.
"""

__version__ = "0.1.0"
