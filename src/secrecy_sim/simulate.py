"""First-principles Monte Carlo estimation of intercept probabilities.

Draws one Philox word per fading gain of the active pair and of every
candidate jammer, turns those a scheme reads into uniforms and then into
squared Rayleigh fading gains (exponentials, via inverse CDF), applies the
per-scheme intercept condition directly to the gains, and aggregates a
stratified estimate: each pair is simulated conditionally with its exact
duty-cycle weight, which removes the scheduling variance a naive mixture
sampler would add.

A batch is a block of raw 64-bit words, one row per trial.  A word becomes
its uniform only where a scheme reads it, as numpy's `Generator.random`
would make it: the top 53 bits times 2**-53.  nonc converts the main and
eavesdropper words; rjs also the pick word and the picked jammer's word of
the trials where nonc holds; ojs takes the largest word of each run of
jammers with equal mean on those trials and converts only that.  Every
uniform a scheme reads is the double `Generator.random` gives on the same
stream, so the estimates are those of converting the whole block.

Reproducibility contract: the seed is an integer in [0, 2**64).  The stream
for pair i is the counter-based generator Philox keyed by (seed, i), and
trial t of that stream starts at counter block t * draws_per_trial(N) / 4.
The estimate is therefore a pure function of (seed, config, scheme, gamma,
trials) no matter how trials are batched or how many workers run them.

The schemes share draws by construction: the layout does not depend on the
scheme, so every scheme reads the same gains for a given seed, and
`estimate_intercepts` draws each batch once and evaluates every requested
scheme on it.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from .model import (
    NONCOOP, SC_OJS, SC_RJS, PairParams, SystemConfig, require_scheme, require_seed, require_snr,
)

__all__ = [
    "InterceptEstimate",
    "draws_per_trial",
    "estimate_intercept",
    "estimate_intercepts",
    "coupled_dominance_check",
]

# Upper bound on one batch's word block, so that a worker's memory stays
# bounded as N grows: 65536 trials for 3 to 6 pairs, fewer for more.  Every
# trial reads a fixed slot of its pair's stream, so the batch size changes
# memory and speed, never a result.
BATCH_BYTES = 4 << 20

_PHILOX_WORDS_PER_BLOCK = 4


def draws_per_trial(n_pairs: int) -> int:
    """Philox words consumed per trial: gains, jammer pick, block padding.

    One draw each for the main and eavesdropper gains, one per candidate
    jammer, one for random jammer selection, rounded up to the Philox block
    size (4) so that trial boundaries are exact counter offsets.
    """
    needed = n_pairs + 2
    blocks = -(-needed // _PHILOX_WORDS_PER_BLOCK)
    return blocks * _PHILOX_WORDS_PER_BLOCK


def _pair_stream(seed: int, pair_index: int, n_pairs: int, start_trial: int) -> Philox:
    """Philox positioned at trial `start_trial` of pair `pair_index`'s stream."""
    key = np.array([seed, pair_index], dtype=np.uint64)
    bit_gen = Philox(key=key)
    if start_trial:
        blocks = start_trial * draws_per_trial(n_pairs) // _PHILOX_WORDS_PER_BLOCK
        bit_gen.advance(blocks)
    return bit_gen


def _uniform(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Uniforms in [0, 1) of Philox words, bit for bit those `Generator.random` makes.

    The top 53 bits of each word times 2**-53.  Works in one array, `out`
    if given (which may be `w` itself, read back as doubles).  The cast
    goes through an int64 view, which numpy casts to double much faster
    than uint64, and runs in place on a flat view: a ufunc or a 2-d
    `copyto` would first copy operands that share memory.
    """
    top = np.right_shift(w, 11, out=out).reshape(-1)
    u = top.view(np.float64)
    np.copyto(u, top.view(np.int64), casting="unsafe")
    u *= 2.0**-53
    return u.reshape(np.shape(w))


@dataclass(frozen=True)
class InterceptEstimate:
    """Monte Carlo estimate with its binomial standard error."""

    p_hat: float
    trials: int
    std_err: float
    scheme: str
    gamma: float
    degraded: bool = False

    def __post_init__(self):
        if not 0.0 <= self.p_hat <= 1.0:
            raise ValueError(f"estimate {self.p_hat} outside [0, 1]")
        if self.trials <= 0:
            raise ValueError("trial count must be positive")
        if self.std_err < 0.0:
            raise ValueError("standard error must be nonnegative")


def _exp_gain(mean, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exponential gain(s) -mean*log1p(-u) of the given mean(s) by inverse CDF.

    log1p(-u) keeps u = 0 from producing an infinite gain.  Works in one
    array, `out` if given (which may be `u` itself), so that a large block
    costs no temporaries.
    """
    g = np.negative(u, out=out)
    np.log1p(g, out=g)
    return np.multiply(-mean, g, out=g)


def _sc_intercept(g_je, gamma: float, g_sd, g_se):
    """Source-cooperation intercept condition g_je*gamma + 2 < 2*g_se/g_sd.

    Evaluated in product form so a zero main gain counts as intercept (zero
    main capacity) and exact equality counts as no intercept.  Takes scalars
    or broadcasting arrays.
    """
    # Overflow gives +inf and a false event, the exact limit.  Only inf*0 (g_sd = 0) gives
    # NaN; fmax then takes 2*g_sd, the exact left side there and a lower bound elsewhere.
    with np.errstate(over="ignore", invalid="ignore"):
        floor = 2.0 * g_sd
        return np.fmax(g_je * gamma * g_sd + floor, floor) < 2.0 * g_se


def _batch_events(
    pair: PairParams,
    jammer_means: np.ndarray,
    schemes: Sequence[str],
    gamma: float,
    w: np.ndarray,
) -> list[np.ndarray]:
    """Boolean intercept indicators of each scheme for one word batch of one pair.

    Computes g_sd and g_se once; the nonc event is g_sd < g_se.  On a row
    where it fails no jammer can give an intercept, since g_je*gamma*g_sd is
    >= 0 (or NaN) and rounded doubling and addition are monotone, so rjs
    converts the pick word and the picked jammer's word, and ojs the jammer
    words, only on the rows where nonc holds.  ojs takes the largest word
    of each run of equal jammer means, in column order, before it converts:
    the gain -mean*log1p(-u) does not decrease as the word grows, so the
    run's strongest gain is the gain of its largest word.  Each gain read
    is computed as transforming every column would compute it, so the
    events equal those of the all-columns transform.  Returns one array per
    entry of `schemes`, in order; `w` is left as it was.
    """
    g_sd, g_se = _uniform(w[:, 0]), _uniform(w[:, 1])
    _exp_gain(pair.sigma2_sd, g_sd, out=g_sd)
    _exp_gain(pair.sigma2_se, g_se, out=g_se)
    events = {NONCOOP: g_sd < g_se}
    m = len(jammer_means)
    jammed = [s for s in (SC_RJS, SC_OJS) if s in schemes]
    if m == 0:
        events |= dict.fromkeys(jammed, events[NONCOOP])
    elif jammed:
        live = np.flatnonzero(events[NONCOOP])
        g_sd, g_se = g_sd[live], g_se[live]
        jammer_gain = {}
        if SC_RJS in jammed:
            pick = np.minimum((_uniform(w[live, m + 2]) * m).astype(np.int64), m - 1)
            flat = live * w.shape[1] + 2 + pick
            picked = _uniform(w.ravel().take(flat))
            jammer_gain[SC_RJS] = _exp_gain(jammer_means.take(pick), picked, out=picked)
        if SC_OJS in jammed:
            starts = np.flatnonzero(np.diff(jammer_means, prepend=np.nan) != 0)
            top = w[live, 2 : m + 2]
            if len(starts) < m:
                top = np.maximum.reduceat(top, starts, axis=1)
            g_je = _uniform(top, out=top)
            _exp_gain(jammer_means[starts], g_je, out=g_je)
            # Column by column: numpy reduces a short contiguous axis slowly.
            jammer_gain[SC_OJS] = functools.reduce(np.maximum, g_je.T)
        for scheme, g_j in jammer_gain.items():
            events[scheme] = np.zeros(len(w), dtype=bool)
            events[scheme][live] = _sc_intercept(g_j, gamma, g_sd, g_se)
    return [events[s] for s in schemes]


def _batch_trials(n_pairs: int) -> int:
    """Trials per batch: as many as fit in BATCH_BYTES of words, at least one."""
    return max(1, BATCH_BYTES // (draws_per_trial(n_pairs) * 8))


def _batch_ranges(trials_per_pair: int, n_pairs: int):
    step = _batch_trials(n_pairs)
    for start in range(0, trials_per_pair, step):
        yield start, min(start + step, trials_per_pair)


def _run_batches(config: SystemConfig, gamma: float, trials: int, rng: int, workers: int, count):
    """Sum `count(pair, jammer_means, w)` over every word batch of every pair.

    `w` is one batch's (rows, draws_per_trial) block of the pair's stream as
    raw uint64 Philox words, which `count` may overwrite; `jammer_means`
    holds the other pairs' sigma2_se in config order, one per jammer
    column; `count` returns a number or a numpy count vector.  Each pair
    runs ceil(trials / N) trials; returns the per-pair sums and that trial
    count.  Checks every argument but the config, valid by type.
    """
    require_snr(gamma)
    trials = operator.index(trials)
    if trials < 1:
        raise ValueError("need at least one trial")
    seed = require_seed(rng)
    workers = operator.index(workers)
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    n = config.n_pairs
    per_pair = -(-trials // n)
    se_means = np.array([p.sigma2_se for p in config.pairs])

    def run_batch(pair: int, start: int, stop: int):
        w = _pair_stream(seed, pair, n, start).random_raw((stop - start, draws_per_trial(n)))
        return count(config.pairs[pair], np.delete(se_means, pair), w)

    tasks = [(i, a, b) for i in range(n) for a, b in _batch_ranges(per_pair, n)]
    workers = min(workers, len(tasks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(lambda t: run_batch(*t), tasks))
    else:
        counts = [run_batch(*t) for t in tasks]
    sums = [0] * n
    for (i, _, _), c in zip(tasks, counts):
        sums[i] += c
    return sums, per_pair


def estimate_intercepts(
    config: SystemConfig,
    schemes: Sequence[str],
    gamma: float,
    trials: int,
    rng: int,
    workers: int = 1,
) -> list[InterceptEstimate]:
    """Stratified Monte Carlo estimates of the intercept probability of each scheme.

    Runs ceil(trials / N) conditional trials for every pair and combines the
    per-pair frequencies with their exact duty-cycle weights; the standard
    error is propagated from the per-pair binomial variances.  Every scheme
    is evaluated on the same word batches, each drawn once, so the
    estimates are those of separate `estimate_intercept` calls.  Returns
    one estimate per entry of `schemes`, in order.  Requesting a
    cooperation scheme with a single pair degrades to non-cooperation
    events and flags the estimate.  `rng` is the integer seed, in
    [0, 2**64).
    """
    schemes = tuple(map(require_scheme, schemes))
    if not schemes:
        raise ValueError("need at least one scheme")
    successes, per_pair = _run_batches(
        config, gamma, trials, rng, workers,
        lambda pair, means, w: np.array(
            [np.count_nonzero(e) for e in _batch_events(pair, means, schemes, gamma, w)]
        ),
    )
    n = config.n_pairs
    estimates = []
    for k, scheme in enumerate(schemes):
        rates = [int(successes[i][k]) / per_pair for i in range(n)]
        p_hat = math.fsum(config.pairs[i].alpha * rates[i] for i in range(n))
        variance = math.fsum(
            config.pairs[i].alpha ** 2 * rates[i] * (1.0 - rates[i]) / per_pair
            for i in range(n)
        )
        estimates.append(InterceptEstimate(
            p_hat=p_hat,
            trials=per_pair * n,
            std_err=math.sqrt(variance),
            scheme=scheme,
            gamma=gamma,
            degraded=scheme != NONCOOP and n == 1,
        ))
    return estimates


def estimate_intercept(
    config: SystemConfig,
    scheme: str,
    gamma: float,
    trials: int,
    rng: int,
    workers: int = 1,
) -> InterceptEstimate:
    """Stratified Monte Carlo estimate of one scheme; see `estimate_intercepts`."""
    return estimate_intercepts(config, (scheme,), gamma, trials, rng, workers)[0]


def _chain_violations(
    gamma: float, pair: PairParams, jammer_means: np.ndarray, w: np.ndarray
) -> int:
    """Rows of one word batch where the event-inclusion chain fails, counted per link.

    Converts the whole block to uniforms and transforms the jammer columns,
    both in place, and tests one column at a time, so the batch builds no
    (trials, N-1) temporary.  The strongest jammer's event is the condition
    at the row maximum, which equals the condition at the argmax column
    since the condition is elementwise.
    """
    u = _uniform(w, out=w)
    g_sd = _exp_gain(pair.sigma2_sd, u[:, 0])
    g_se = _exp_gain(pair.sigma2_se, u[:, 1])
    g_je = u[:, 2 : len(jammer_means) + 2]
    _exp_gain(jammer_means, g_je, out=g_je)
    every = np.ones(len(u), dtype=bool)
    some = np.zeros(len(u), dtype=bool)
    for col in g_je.T:
        e = _sc_intercept(col, gamma, g_sd, g_se)
        every &= e
        some |= e
    strongest = functools.reduce(np.maximum, g_je.T)
    e_ojs = _sc_intercept(strongest, gamma, g_sd, g_se)
    return int(np.count_nonzero(e_ojs & ~every) + np.count_nonzero(some & ~(g_sd < g_se)))


def coupled_dominance_check(
    config: SystemConfig, gamma: float, trials: int, rng: int
) -> int:
    """Count violations of the per-draw event-inclusion chain on shared draws.

    For every trial, using one shared set of gains: intercept with the
    optimal (strongest) jammer must imply intercept with every candidate
    jammer, and intercept with any jammer must imply the non-cooperation
    intercept.  Returns the number of violating draws; 0 means the chain
    held everywhere.  Runs on one worker.
    """
    if config.n_pairs < 2:
        raise ValueError("dominance check needs at least two pairs")
    count = functools.partial(_chain_violations, gamma)
    counts, _ = _run_batches(config, gamma, trials, rng, 1, count)
    return sum(counts)
