"""Exponential integral E1 with an overflow-safe scaled variant.

E1(x) = integral from x to infinity of exp(-t)/t dt, for x > 0.

One vectorized evaluation path serves both functions:

* e1(x) is scipy.special.exp1(x).  It underflows gracefully to 0.0 once
  exp(-x) leaves the representable range (x beyond ~745).
* e1_scaled(x) = exp(x)*E1(x), the product the closed-form intercept
  expressions consume, is exp1(x) * exp(x) for 0 < x <= _TAIL_CUTOFF (700).
  There exp1 is still a normal float and exp(x) does not overflow.  Beyond
  the cutoff it is the truncated asymptotic series

      exp(x) E1(x) ~ (1/x) * sum_{k=0}^{K} (-1)^k k! / x^k,   K = _TAIL_TERMS,

  evaluated in Horner form, which never overflows.  Its first omitted term
  is below 1e-20 relative at the cutoff, far under one ulp.

Non-finite and non-positive arguments are rejected with ValueError.

Analytic envelope, used both as a sanity bracket and in the high-SNR
diversity argument:

    0.5 * exp(-x) * ln(1 + 2/x)  <=  E1(x)  <=  exp(-x) * ln(1 + 1/x)
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy import special

__all__ = ["e1", "e1_scaled", "e1_bounds"]

_TAIL_CUTOFF = 700.0
_TAIL_TERMS = 8


def _check_domain(x: np.ndarray) -> None:
    ok = (x > 0.0) & (x < np.inf)
    if not ok.all():
        bad = float(x[~ok].flat[0])
        raise ValueError(f"E1 argument must be positive and finite, got {bad}")


def _asymptotic_e1_scaled(x: np.ndarray) -> np.ndarray:
    """Truncated asymptotic series for exp(x)*E1(x); for x > _TAIL_CUTOFF."""
    t = np.ones_like(x)
    for k in range(_TAIL_TERMS, 0, -1):
        t = 1.0 - k * t / x
    return t / x


def e1(x: float) -> float:
    """Exponential integral E1(x) for finite x > 0.

    Underflows gracefully to 0.0 for arguments beyond ~745 where exp(-x)
    is no longer representable.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 0:
        raise TypeError("e1 takes a scalar; use e1_scaled for arrays")
    _check_domain(arr)
    return float(special.exp1(arr))


def e1_scaled(x):
    """exp(x) * E1(x), computed without overflow for any finite positive x.

    Accepts a scalar, returned as a float, or an array of any shape.  Strictly
    decreasing, with 0.5*ln(1 + 2/x) <= e1_scaled(x) <= ln(1 + 1/x) and
    x*e1_scaled(x) -> 1 as x -> infinity.
    """
    x = np.asarray(x, dtype=float)
    _check_domain(x)
    # clipped at the cutoff, exp1 stays a normal float and exp finite; the series overwrites
    # the clipped entries, and runs only when there are some
    h = np.minimum(x, _TAIL_CUTOFF)
    out = np.asarray(special.exp1(h) * np.exp(h))
    tail = x > _TAIL_CUTOFF
    if tail.any():
        out[tail] = _asymptotic_e1_scaled(x[tail])
    return float(out) if out.ndim == 0 else out


def e1_bounds(x: float) -> tuple[float, float]:
    """Analytic bracket (lower, upper) = (0.5 e^-x ln(1+2/x), e^-x ln(1+1/x)) around E1(x).

    Above x ~ 708 E1 and both endpoints are subnormal, and the bracket is
    narrower than one subnormal step, so rounding alone could put `e1(x)`
    outside it.  There an endpoint below `sys.float_info.min` is moved one
    step outward: the lower one floored at 0.0, the upper one also when it
    underflowed to 0.0.  Where both endpoints are normal no bit moves.
    """
    xf = float(x)
    _check_domain(np.asarray(xf))
    damp = math.exp(-xf)
    lo, hi = 0.5 * damp * math.log1p(2.0 / xf), damp * math.log1p(1.0 / xf)
    if lo < sys.float_info.min:
        lo = math.nextafter(lo, 0.0)
    if hi < sys.float_info.min:
        hi = math.nextafter(hi, math.inf)
    return lo, hi
