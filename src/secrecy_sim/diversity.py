"""Empirical secrecy-diversity estimation from intercept-probability curves.

The diversity order is the negative high-SNR slope of log intercept
probability versus log SNR.  The random-selection curve carries a
ln(gamma) factor on top of its 1/gamma decay, so its finite-SNR fit is
biased low by roughly 1/ln(gamma).  Under optimal selection with three or
more pairs the alternating subset sum cancels that log factor and the
curve decays as a pure constant/gamma, leaving the fit essentially
unbiased; with exactly two pairs the schemes coincide and share the bias.
Estimates are therefore always reported together with the window they
were fitted on.  A window is any sequence of SNRs (linear scale), in any
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import analytic
from .model import SystemConfig

__all__ = ["DEFAULT_WINDOW", "DiversityFit", "fit_diversity"]

# High-SNR fit window where the ln(gamma) bias (~1/ln gamma ~ 0.08) is small
# enough to separate diversity one from diversity zero by a wide margin: nine
# SNRs from 1e5 to 1e6 at ratio 10^(1/8), the last exactly 1e6.  Its bits are
# the ones validate's diversity row prints from; np.logspace(5, 6, 9) differs
# in five of them.
DEFAULT_WINDOW = (*(1e5 * (10.0 ** 0.125) ** k for k in range(8)), 1e6)


@dataclass(frozen=True)
class DiversityFit:
    """Log-log slope fit over an SNR window."""

    slope: float
    window: tuple[float, float]
    points: int
    max_residual: float

    @property
    def diversity(self) -> float:
        """Diversity estimate: the negated fitted slope."""
        return -self.slope


def fit_diversity(scheme: str, config: SystemConfig, window: Sequence[float]) -> DiversityFit:
    """Least-squares diversity estimate from the closed form over the SNRs in window.

    Refuses, with ValueError, a window of fewer than two distinct SNRs and an SNR that is not
    positive and finite.  The fit reports the window as (smallest, largest) SNR.
    """
    gammas = tuple(window)
    if len(set(gammas)) < 2:
        raise ValueError("diversity fit needs at least two distinct SNRs")
    probs = [analytic.intercepts(config, (scheme,), g)[0].value for g in gammas]
    if any(not (p > 0.0 and math.isfinite(p)) for p in probs):
        raise ValueError("window contains zero or non-finite probabilities")
    x = np.log(np.asarray(gammas))
    y = np.log(np.asarray(probs))
    slope, offset = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(y - (slope * x + offset))))
    return DiversityFit(
        slope=float(slope),
        window=(min(gammas), max(gammas)),
        points=len(gammas),
        max_residual=residual,
    )
