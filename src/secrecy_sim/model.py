"""System configuration for a spectrum-sharing network under eavesdropping.

A system is a set of source-destination pairs that take turns on a shared
band while a common eavesdropper listens.  Each pair carries the mean squared
fading gain of its main channel and of its channel to the eavesdropper, plus
the fraction of time it holds the band (duty cycle).  Gains are stored as
means of the squared channel magnitude, i.e. the means of the exponential
distributions the squared Rayleigh gains follow.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "NONCOOP",
    "SC_RJS",
    "SC_OJS",
    "SCHEMES",
    "PairParams",
    "SystemConfig",
    "MAX_PAIRS",
    "make_symmetric_config",
    "require_scheme",
    "require_seed",
    "require_snr",
    "parse_config_text",
    "load_config",
]

# Protection schemes: conventional non-cooperation, and source cooperation
# with random / optimal jammer selection.
NONCOOP = "nonc"
SC_RJS = "rjs"
SC_OJS = "ojs"
SCHEMES = (NONCOOP, SC_RJS, SC_OJS)

# Largest pair count accepted, a bound on time: no step holds an N x N table.  The README's
# paragraph on this limit gives what a closed form and a fig2 point cost at this N.
MAX_PAIRS = 1024


@dataclass(frozen=True)
class PairParams:
    """Per-pair channel statistics and medium share.

    sigma2_sd: mean squared gain of the source-to-destination (main) channel.
    sigma2_se: mean squared gain of the source-to-eavesdropper channel; the
        same value is used when this source acts as a jammer, since the
        eavesdropper is common to all pairs.
    alpha: duty cycle, the probability this pair is the active one.
    """

    sigma2_sd: float
    sigma2_se: float
    alpha: float


@dataclass(frozen=True)
class SystemConfig:
    """Ordered collection of source-destination pairs sharing one band.

    Construction raises ValueError naming the first violated invariant:
    1 to MAX_PAIRS pairs, positive finite gains, and duty cycles in [0, 1]
    summing to at most 1 (the pairs share one band).
    """

    pairs: tuple[PairParams, ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))

        def refuse(problem: str):
            raise ValueError(f"invalid system config: {problem}")

        if self.n_pairs < 1:
            refuse("config has no pairs")
        if self.n_pairs > MAX_PAIRS:
            refuse(f"{self.n_pairs} pairs exceed the limit of {MAX_PAIRS}")
        for i, p in enumerate(self.pairs):
            for name, gain in (("sigma2_sd", p.sigma2_sd), ("sigma2_se", p.sigma2_se)):
                if not gain > 0.0:
                    refuse(f"pair {i}: nonpositive gain {name}={gain}")
                if gain == math.inf:
                    refuse(f"pair {i}: infinite gain {name}={gain}")
            if not 0.0 <= p.alpha <= 1.0:
                refuse(f"pair {i}: duty cycle {p.alpha} outside [0, 1]")
        total = sum(p.alpha for p in self.pairs)
        if total > 1.0 + 1e-12:
            refuse(f"duty cycles sum {total!r} > 1")

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)


def make_symmetric_config(n: int, mer: float) -> SystemConfig:
    """Build the symmetric configuration used throughout the experiments.

    All pairs get duty cycle 1/n and unit eavesdropper gain; the main-channel
    gain is the main-to-eavesdropping ratio (MER), so sigma2_sd / sigma2_se
    equals `mer` exactly.  N is checked against MAX_PAIRS before any pair
    is built.
    """
    n = operator.index(n)
    if not 1 <= n <= MAX_PAIRS:
        raise ValueError(f"number of pairs must be between 1 and {MAX_PAIRS}, got {n}")
    if not 0.0 < mer < math.inf:
        raise ValueError(f"MER must be positive and finite, got {mer}")
    pair = PairParams(sigma2_sd=float(mer), sigma2_se=1.0, alpha=1.0 / n)
    return SystemConfig(pairs=(pair,) * n)


def require_scheme(name: str) -> str:
    """Return the scheme name; raise ValueError unless it is one of SCHEMES."""
    if name not in SCHEMES:
        raise ValueError(f"unknown scheme {name!r} (choose from {', '.join(SCHEMES)})")
    return name


def require_snr(gamma: float) -> float:
    """Return the SNR as a float; raise ValueError unless it is positive and finite."""
    g = float(gamma)
    if not 0.0 < g < math.inf:
        raise ValueError(f"SNR must be positive and finite, got {gamma}")
    return g


def require_seed(seed: int) -> int:
    """Return the seed as an int; raise ValueError unless it is in [0, 2**64).

    A float or a string is a TypeError, never truncated or parsed.
    """
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return seed


@contextmanager
def _at_line(lineno: int):
    """Prefix a ValueError raised inside the block with its config line."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def parse_config_text(text: str) -> SystemConfig:
    """Parse the flat text config format.

    Grammar (one statement per line, '#' starts a comment):

        symmetric N MER          shorthand for make_symmetric_config(N, MER)
        SD_GAIN SE_GAIN ALPHA    one explicit pair per line

    The symmetric shorthand must be the only statement in the file.
    """
    pairs: list[PairParams] = []
    symmetric: SystemConfig | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "symmetric":
            if len(fields) != 3:
                raise ValueError(f"line {lineno}: expected 'symmetric N MER'")
            if symmetric is not None or pairs:
                raise ValueError(f"line {lineno}: 'symmetric' must be the only statement")
            with _at_line(lineno):
                symmetric = make_symmetric_config(int(fields[1]), float(fields[2]))
            continue
        if symmetric is not None:
            raise ValueError(f"line {lineno}: pair line after 'symmetric' shorthand")
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected 'sd_gain se_gain alpha', got {raw!r}")
        with _at_line(lineno):
            sd, se, alpha = map(float, fields)
        pairs.append(PairParams(sigma2_sd=sd, sigma2_se=se, alpha=alpha))
    if symmetric is not None:
        return symmetric
    return SystemConfig(pairs=tuple(pairs))


def load_config(path) -> SystemConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
