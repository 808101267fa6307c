"""Explicit-subset slow path for the optimal-selection closed form.

Enumerates the candidate-jammer subsets one by one and computes each
subset's exponential-integral argument separately, independently of the
vectorized bracket in `secrecy_sim.analytic`, which the tests check against
it.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from secrecy_sim.model import SystemConfig


class SubsetIterator:
    """Non-empty subsets of candidate jammer indices, in binary-counter order.

    Subset k (k = 1 .. 2^M - 1 over M candidates) contains candidate b iff
    bit b of k is set, so the order is deterministic and exhaustive.
    """

    def __init__(self, candidates: Sequence[int]):
        self.candidates = tuple(candidates)

    def __len__(self) -> int:
        return (1 << len(self.candidates)) - 1

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        m = len(self.candidates)
        for mask in range(1, 1 << m):
            yield tuple(self.candidates[b] for b in range(m) if (mask >> b) & 1)


def phi_ojs(config: SystemConfig, i: int, subset: Iterable[int], gamma: float) -> float:
    """Exponential-integral argument for a subset of candidate jammers.

    Equals 2*(sigma2_sd_i + sigma2_se_i)/(sigma2_sd_i * gamma) times the sum
    of reciprocal jammer-to-eavesdropper gains over the subset; for a
    singleton subset {j} it is the RJS argument for pair i jammed by j.
    """
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"SNR must be positive and finite, got {gamma}")
    n = config.n_pairs
    if not 0 <= i < n:
        raise IndexError(f"pair index {i} out of range for {n} pairs")
    members = tuple(subset)
    if not members:
        raise ValueError("jammer subset must be non-empty")
    if len(set(members)) != len(members):
        raise ValueError("jammer subset contains duplicate indices")
    for j in members:
        if not 0 <= j < n:
            raise IndexError(f"pair index {j} out of range for {n} pairs")
        if j == i:
            raise ValueError("jammer subset must exclude the active pair")
    sd_i = config.pairs[i].sigma2_sd
    se_i = config.pairs[i].sigma2_se
    recip = math.fsum(1.0 / config.pairs[j].sigma2_se for j in members)
    return (2.0 * sd_i + 2.0 * se_i) / (sd_i * gamma) * recip
