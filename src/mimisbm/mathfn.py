"""Special functions used by the variational updates and the bound.

Both digamma and log_gamma are computed the classical way: shift the
argument upward by the recurrences

    psi(x)      = psi(x + 1) - 1/x
    log_gamma(x) = log_gamma(x + 1) - log(x)

until it reaches the asymptotic regime, then evaluate the de Moivre /
Stirling series there. The shift threshold is 6; with the Bernoulli terms
kept below, truncation error at the threshold is a few 1e-15 absolute,
comfortably inside the 1e-12 relative target for x >= 1e-6.

Functions accept scalars or numpy arrays and return the matching kind:
a float for a scalar, an array of the argument's shape otherwise.
Arguments must be strictly positive; DomainError otherwise.

Every element is computed on its own, with the same operations whatever
the array around it, so a call on concatenated arguments gives, bit for
bit, the values of one call per argument. The callers rely on that: each
round of a fit makes one digamma call, for the log-moments of every live
restart and cell, and one log_gamma call, for the posterior side of every
bound, and a fit makes one more log_gamma call, before its first round, for
the prior sides of all its cells. The cost of a call is mostly per-call
numpy overhead, so the one shift loop, shared by both with the term 1/y or
log y, updates the arguments still below the threshold in place (ufuncs
with out= and where=) instead of gathering and scattering them.
"""

from __future__ import annotations

import numpy as np

from .core import DomainError

__all__ = ["digamma", "log_gamma"]

_SHIFT = 6.0

# B_{2n} / (2n) for n = 1..10, the digamma tail coefficients of 1/x^{2n}.
_PSI_COEF = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
    -3617.0 / 8160.0,
    43867.0 / 14364.0,
    -174611.0 / 6600.0,
)

# B_{2n} / (2n (2n - 1)) for n = 1..10, the log-gamma tail coefficients
# of 1/x^{2n-1}.
_LGAMMA_COEF = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
    -174611.0 / 125400.0,
)

_HALF_LOG_2PI = 0.9189385332046727  # log(2 pi) / 2


def _shift_up(x, name: str, term):
    """(x, y, acc, scalar): x as a float array of at least one dimension
    (the masked in-place updates cannot write to a 0-d array), y = x + n
    for the least n >= 0 with y >= _SHIFT, acc = -sum_{j < n} term(x + j),
    and whether x was a scalar."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(arr > 0):
        raise DomainError(f"{name} requires strictly positive arguments")
    y = arr.copy()
    acc = np.zeros_like(y)
    small = y < _SHIFT
    while small.any():
        np.subtract(acc, term(y), out=acc, where=small)
        np.add(y, 1.0, out=y, where=small)
        np.less(y, _SHIFT, out=small)
    return arr, y, acc, np.ndim(x) == 0


def digamma(x):
    """psi(x) = d/dx log Gamma(x) for x > 0."""
    _, y, acc, scalar = _shift_up(x, "digamma", lambda y: 1.0 / y)
    # asymptotic series at y: log y - 1/(2y) - sum_n coef_n / y^{2n}
    inv2 = 1.0 / (y * y)
    tail = np.zeros_like(y)
    for c in reversed(_PSI_COEF):
        tail = (tail + c) * inv2
    out = acc + np.log(y) - 0.5 / y - tail
    return float(out[0]) if scalar else out


def log_gamma(x):
    """log Gamma(x) for x > 0."""
    arr, y, acc, scalar = _shift_up(x, "log_gamma", np.log)
    inv = 1.0 / y
    inv2 = inv * inv
    # series in odd powers: sum_n coef_n / y^{2n-1}
    tail = np.zeros_like(y)
    for c in reversed(_LGAMMA_COEF):
        tail = tail * inv2 + c
    tail = tail * inv
    out = acc + (y - 0.5) * np.log(y) - y + _HALF_LOG_2PI + tail
    # pin the exact zeros of log Gamma so downstream identities are clean
    out[(arr == 1.0) | (arr == 2.0)] = 0.0
    return float(out[0]) if scalar else out
