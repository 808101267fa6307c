"""First-principles Monte Carlo estimation of intercept probabilities.

Draws squared Rayleigh fading gains (exponentials, via inverse CDF) from
Philox words, applies the per-scheme intercept condition directly to the
gains, and aggregates a stratified estimate: each pair is simulated
conditionally with its exact duty-cycle weight, which removes the
scheduling variance a naive mixture sampler would add.

Layout v2.  A batch is a block of raw 64-bit words, one row of W words per
trial.  A word becomes its uniform only where a scheme reads it, as numpy's
`Generator.random` would make it: the top 53 bits times 2**-53.  The
estimators read W = 4 + R words per trial, where R is the number of runs
of equal eavesdropper gains among the active pair's jammers (the other
pairs, in config order): the main gain g_sd, the eavesdropper gain g_se,
the pick word, the rjs word, then one word per run.  A symmetric system
draws 5 words per trial at any N, an all-distinct one N + 3.  `_runs`
alone finds runs: a batch's, and every pair's count from the config's own.

One word per run suffices because the largest of k i.i.d. uniforms has the
law of U**(1/k) (Devroye, "Non-Uniform Random Variate Generation", 1986).
ojs reads each run's strongest gain -mean*log(-expm1(log(U)/k)) from its
word, and a run of one its plain gain -mean*log1p(-U).  rjs picks a jammer
uniformly with the pick word, and so its run.  In a run of one its uniform
is the run word.  In a run of k > 1 it is the run's largest uniform M with
probability 1/k, and otherwise M*W with W uniform on [0, 1): given M, the
other k - 1 uniforms are i.i.d. uniform below M.  The rjs word decides
both.  ojs and rjs share one run-gain function and one run-shape dispatch:
the picked gain is the strongest gain's formula with one term >= 0 added
inside its logarithm, so it never exceeds its run's strongest gain.  On
every trial the events therefore nest by construction, ojs within rjs
within nonc, and so do the estimates of one seed.

The dominance check needs every jammer on every trial and has its own
layout: g_sd, g_se and one word per jammer, W = N + 1.

Reproducibility contract: the seed is an integer in [0, 2**64).  The stream
for pair i is the counter-based generator Philox keyed by (seed, i) (Salmon
et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11).  Trial t
reads words t*W .. t*W + W - 1 of it; a batch opens the stream at Philox
counter floor(t*W / 4), four words per counter step, and drops t*W mod 4
words.  An estimate is therefore a pure function of (seed, config, scheme,
gamma, trials) no matter how trials are batched or how many workers run
them.  The layout does not depend on the scheme, so every scheme reads the
same gains for a given seed, and `estimate_intercepts` draws each batch
once and evaluates every requested scheme on it.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from collections.abc import Callable, Sequence
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
# bounded as N grows: 104857 trials of a symmetric system, 7825 of an
# all-distinct 64-pair one.  Every trial reads a fixed slot of its pair's
# stream, so the batch size changes memory and speed, never a result.
BATCH_BYTES = 4 << 20

# Most worker threads one call may start.  Without it a huge `workers` would
# start one thread per batch, thousands of them on a large trial count.
MAX_WORKERS = 64

# Words at the head of every estimation trial: g_sd, g_se, the pick word and
# the rjs word.  The run words follow.
_HEAD_WORDS = 4


def draws_per_trial(n_pairs: int) -> int:
    """Most Philox words one estimation trial of an N-pair system draws: N + 3.

    The four head words and one per run of equal jammer eavesdropper
    gains, N - 1 runs when every gain differs.  Equal gains draw fewer.
    """
    return _HEAD_WORDS + n_pairs - 1


def _runs(means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and length of each run of equal means, in order."""
    edge = np.ones(len(means) + 1, dtype=bool)
    np.not_equal(means[1:], means[:-1], out=edge[1:-1])
    at = np.flatnonzero(edge)
    return means[at[:-1]], at[1:] - at[:-1]


def _estimate_words(se_means: np.ndarray) -> np.ndarray:
    """Each pair's words per estimation trial: the head words and one per run of its jammers.

    Pair i's jammers are the other pairs' means in config order, so they keep
    the config's runs, less pair i's own run if pair i is alone in it, and
    less one more when the runs on either side of that run then join.
    """
    means, counts = _runs(se_means)
    alone = counts == 1
    join = np.zeros_like(alone)
    join[1:-1] = means[2:] == means[:-2]
    return _HEAD_WORDS + np.repeat(len(means) - alone * (1 + join), counts)


def _dominance_words(se_means: np.ndarray) -> np.ndarray:
    """Each pair's words per dominance-check trial: g_sd, g_se and one per jammer."""
    return np.full(len(se_means), 1 + len(se_means))


def _pair_stream(seed: int, pair_index: int, words: int, start_trial: int) -> Philox:
    """Philox at trial `start_trial` of pair `pair_index`'s stream of `words` words per trial.

    Philox makes four words per counter step, so the stream opens at the
    step that holds the trial's first word and drops the words before it.
    """
    steps, skip = divmod(start_trial * words, 4)
    bit_gen = Philox(key=np.array([seed, pair_index], dtype=np.uint64), counter=steps)
    if skip:
        bit_gen.random_raw(skip)
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


def _run_gain(mean, k, u: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    """A run's strongest gain from its uniform u, or with the rjs uniform v the picked jammer's.

    The run holds k > 1 i.i.d. exponential gains of the given mean(s).  The gap below 1 of the run's largest uniform M = u**(1/k) is d = -expm1(log(u)/k), which
    keeps its relative precision as u nears 1; u = 0 gives d = 1, with no warning.  The
    strongest gain is -mean*log(d).  v*k < 1 picks M; otherwise the picked uniform is M*W
    with W = (v*k - 1)/(k - 1).  Its gain -mean*log(1 - M*W) is computed as
    -mean*log(d + q*(1 - d)) with q = 1 - W, which is 0 when M is picked.  The rounded sum
    of d and a term >= 0 is >= d and at most 1, so the picked gain lies between 0 and the
    strongest gain, and equals it bit for bit when q = 0.  Works in `u` and overwrites `v`.
    """
    with np.errstate(divide="ignore"):
        d = np.log(u, out=u)
    d /= k
    np.expm1(d, out=d)
    np.negative(d, out=d)
    if v is not None:
        q = np.multiply(v, k, out=v)
        largest = q < 1.0
        np.subtract(k, q, out=q)
        q /= k - 1
        q[largest] = 0.0
        q *= 1.0 - d
        d += q
    return np.multiply(-mean, np.log(d, out=d), out=d)


def _row_max(g: np.ndarray) -> np.ndarray:
    """Each row's maximum, exact either way.

    Column by column, since numpy reduces a short contiguous axis slowly,
    unless the rows are fewer than the columns, where one ufunc call per
    column would cost more than the row-wise reduction.
    """
    if len(g) < g.shape[1]:
        return g.max(axis=1)
    return functools.reduce(np.maximum, g.T)


def _jammer_gain(counts: np.ndarray, mean, k, u: np.ndarray, v: np.ndarray | None = None):
    """Gains from run uniforms `u`, of runs of means `mean` and lengths `k` along its last axis.

    Without the rjs words `v` (raw, one per element of `u`) each run's strongest gain, with
    them the picked jammer's gain; a run of one gives its own word's gain either way.  The
    path follows the pair's run lengths `counts`: all runs of one, all longer, or mixed.
    Overwrites `u` and `v`.
    """
    if counts.max() == 1:
        return _exp_gain(mean, u, out=u)
    if counts.min() > 1:
        return _run_gain(mean, k, u, None if v is None else _uniform(v, out=v))
    # every element as a run of one, then the longer runs' elements, taken out first
    many = np.flatnonzero(k > 1)
    top = _run_gain(mean[many], k[many], u[..., many], None if v is None else _uniform(v[many]))
    g = _exp_gain(mean, u, out=u)
    g[..., many] = top
    return g


def _rjs_gain(means: np.ndarray, counts: np.ndarray, w: np.ndarray, live: np.ndarray) -> np.ndarray:
    """The picked jammer's gain on each `live` row of word batch `w`.

    The pick word chooses one of the m jammers uniformly and so fixes its
    run; with one run it decides nothing and is not read.
    """
    if len(counts) == 1:
        run = 0
        u = _uniform(w[live, _HEAD_WORDS])
    else:
        m = int(counts.sum())
        pick = np.minimum((_uniform(w[live, 2]) * m).astype(np.int64), m - 1)
        run = np.repeat(np.arange(len(counts)), counts).take(pick)
        u = _uniform(w.ravel().take(live * w.shape[1] + _HEAD_WORDS + run))
    return _jammer_gain(counts, means.take(run), counts.take(run), u, w[live, 3])


def _batch_events(
    pair: PairParams,
    jammer_means: np.ndarray,
    schemes: Sequence[str],
    gamma: float,
    w: np.ndarray,
) -> list[np.ndarray]:
    """Boolean intercept indicators of each scheme for one layout-v2 word batch of one pair.

    Computes g_sd and g_se once; the nonc event is g_sd < g_se.  On a row
    where it fails no jammer can give an intercept, since g_je*gamma*g_sd is
    >= 0 (or NaN) and rounded doubling and addition are monotone, so rjs
    and ojs convert words only on the rows where nonc holds.  Returns one
    array per entry of `schemes`, in order; `w` is left as it was.
    """
    g_sd, g_se = _uniform(w[:, 0]), _uniform(w[:, 1])
    _exp_gain(pair.sigma2_sd, g_sd, out=g_sd)
    _exp_gain(pair.sigma2_se, g_se, out=g_se)
    events = {NONCOOP: g_sd < g_se}
    jammed = [s for s in (SC_RJS, SC_OJS) if s in schemes]
    if not len(jammer_means):
        events |= dict.fromkeys(jammed, events[NONCOOP])
    elif jammed:
        live = np.flatnonzero(events[NONCOOP])
        g_sd, g_se = g_sd[live], g_se[live]
        means, counts = _runs(jammer_means)
        jammer_gain = {}
        if SC_RJS in jammed:
            jammer_gain[SC_RJS] = _rjs_gain(means, counts, w, live)
        if SC_OJS in jammed:
            top = w[live, _HEAD_WORDS:]
            g = _jammer_gain(counts, means, counts, _uniform(top, out=top))
            jammer_gain[SC_OJS] = _row_max(g)
        for scheme, g_j in jammer_gain.items():
            events[scheme] = np.zeros(len(w), dtype=bool)
            events[scheme][live] = _sc_intercept(g_j, gamma, g_sd, g_se)
    return [events[s] for s in schemes]


def _batch_trials(words: int) -> int:
    """Trials per batch of `words` words each: as many as fit in BATCH_BYTES, at least one."""
    return max(1, BATCH_BYTES // (words * 8))


def _run_batches(config: SystemConfig, trials: int, rng: int, workers: int, count, words: Callable):
    """Sum `count(pair, jammer_means, w)` over every word batch of every pair.

    `jammer_means` holds the other pairs' sigma2_se in config order, and
    `words(se_means)` gives every pair's words per trial from all pairs'
    sigma2_se.  `w` is one batch's (rows, words) block of the pair's stream
    as raw uint64 Philox words, which `count` may overwrite; `count` returns
    a number or a numpy count vector.  Each pair runs ceil(trials / N)
    trials; returns the per-pair sums and that trial count.  Checks every
    argument but the config, valid by type.  Workers share the batches one
    at a time into integer sums, so no split moves a bit, and free each block
    before the next is drawn, so a worker holds one block at any trial count.
    """
    trials = operator.index(trials)
    if trials < 1:
        raise ValueError("need at least one trial")
    seed = require_seed(rng)
    workers = operator.index(workers)
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"need at least one worker and at most {MAX_WORKERS}, got {workers}")
    n = config.n_pairs
    per_pair = -(-trials // n)
    se_means = np.array([p.sigma2_se for p in config.pairs])
    widths = words(se_means).tolist()
    batches = ((i, a) for i in range(n) for a in range(0, per_pair, _batch_trials(widths[i])))
    lock = threading.Lock()

    def run_batch(pair: int, start: int):
        rows = min(_batch_trials(widths[pair]), per_pair - start)
        w = _pair_stream(seed, pair, widths[pair], start).random_raw((rows, widths[pair]))
        return count(config.pairs[pair], np.delete(se_means, pair), w)

    def worker_sums(_=None) -> list:
        sums = [0] * n
        while True:
            with lock:  # a generator may not run in two threads at once
                batch = next(batches, None)
            if batch is None:
                return sums
            sums[batch[0]] += run_batch(*batch)

    workers = min(workers, sum(-(-per_pair // _batch_trials(w)) for w in widths))
    if workers == 1:
        return worker_sums(), per_pair
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            return [sum(c) for c in zip(*pool.map(worker_sums, range(workers)))], per_pair
        finally:  # after an error or an interrupt the other workers take no further batch
            with lock:
                batches.close()


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
    gamma = require_snr(gamma)
    successes, per_pair = _run_batches(
        config, trials, rng, workers,
        lambda pair, means, w: np.array(
            [np.count_nonzero(e) for e in _batch_events(pair, means, schemes, gamma, w)]
        ),
        _estimate_words,
    )
    n = config.n_pairs
    estimates = []
    for k, scheme in enumerate(schemes):
        rates = [int(successes[i][k]) / per_pair for i in range(n)]
        # duty cycles may sum to 1 + 1e-12 (SystemConfig), which can carry the sum past 1
        p_hat = min(math.fsum(config.pairs[i].alpha * rates[i] for i in range(n)), 1.0)
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

    The batch holds g_sd, g_se and one word per jammer in each row.
    Converts the whole block to uniforms and transforms the jammer columns,
    both in place, and tests one column at a time, so the batch builds no
    (trials, N-1) temporary.  The strongest jammer's event is the condition
    at the row maximum, which equals the condition at the argmax column
    since the condition is elementwise.
    """
    u = _uniform(w, out=w)
    g_sd = _exp_gain(pair.sigma2_sd, u[:, 0])
    g_se = _exp_gain(pair.sigma2_se, u[:, 1])
    g_je = u[:, 2:]
    _exp_gain(jammer_means, g_je, out=g_je)
    every = np.ones(len(u), dtype=bool)
    some = np.zeros(len(u), dtype=bool)
    for col in g_je.T:
        e = _sc_intercept(col, gamma, g_sd, g_se)
        every &= e
        some |= e
    strongest = _row_max(g_je)
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
    count = functools.partial(_chain_violations, require_snr(gamma))
    counts, _ = _run_batches(config, trials, rng, 1, count, _dominance_words)
    return sum(counts)
