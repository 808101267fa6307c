from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.random import Generator
from scipy import stats

from secrecy_sim.analytic import intercept_noncoop, intercept_sc_ojs, intercept_sc_rjs
from secrecy_sim import simulate
from secrecy_sim.model import SCHEMES, PairParams, SystemConfig, make_symmetric_config
from secrecy_sim.simulate import (
    _batch_events,
    _batch_trials,
    _chain_violations,
    _exp_gain,
    _pair_stream,
    _sc_intercept,
    _uniform,
    coupled_dominance_check,
    draws_per_trial,
    estimate_intercept,
    estimate_intercepts,
)

UNIT_PAIR = PairParams(1.0, 1.0, 0.25)
MAX_UNIFORM = 1.0 - 2.0**-53  # the uniform of word 2**64 - 1


def _block(seed, pair, words, trials, start_trial=0):
    """A pair's uniforms, `words` per trial, as numpy's own `Generator.random` makes them."""
    gen = Generator(_pair_stream(seed, pair, words, start_trial))
    return gen.random((trials, words))


def _snap(u):
    """`u` rounded down to the 2**-53 grid on which every uniform of a word lies."""
    return np.floor(np.asarray(u) * 2.0**53) * 2.0**-53


def _words(u):
    """The Philox words the kernels read for uniforms `u`, which lie on the 2**-53 grid."""
    k = np.floor(u * 2.0**53)
    assert np.array_equal(k * 2.0**-53, u), "uniforms off the 2**-53 grid"
    return k.astype(np.uint64) << 11


def _gain_rows(rows, means):
    """Layout-v2 uniforms of a unit-mean pair whose rows are (g_sd, g_se, *jammer gains).

    No two neighbours in `means` are equal, so every jammer is a run of one
    and its word gives its gain; the pick and rjs words are 0.  Gains hold
    to 1e-14.
    """
    gains = np.asarray(rows, dtype=float)
    scale = np.array([1.0, 1.0, *means])[: gains.shape[1]]
    cols = [0, 1, *range(4, 4 + len(means))][: gains.shape[1]]
    u = np.zeros((len(gains), 4 + len(means)))
    u[:, cols] = _snap(-np.expm1(-gains / scale))
    assert np.allclose(-scale * np.log1p(-u[:, cols]), gains, rtol=1e-14, atol=0.0)
    return u


def _events(u, means, scheme, gamma):
    """Kernel events for a unit-mean active pair with the given jammer means."""
    return _batch_events(UNIT_PAIR, np.asarray(means, dtype=float), (scheme,), gamma, _words(u))[0]


def _rjs_picks(u, means):
    """The jammer the rjs kernel picks in each row of `u`, read off its events.

    Every jammer is a run of one.  In a copy of the block jammer k gets zero
    gain, every other jammer a huge one, and g_se > g_sd, so the rjs event
    holds exactly where k is picked.  Only the gain words change; the pick
    word does not.
    """
    m = len(means)
    picks = np.full(len(u), -1)
    for k in range(m):
        v = u.copy()
        v[:, 0], v[:, 1] = 0.5, 0.9
        v[:, 4 : 4 + m] = MAX_UNIFORM
        v[:, 4 + k] = 0.0
        hit = _events(v, means, "rjs", 1e6)
        assert not (hit & (picks >= 0)).any()
        picks[hit] = k
    assert (picks >= 0).all()
    return picks


def _random_config(rng, n):
    """N pairs with gains 10^U(-3, 3) and random duty cycles summing to 1."""
    gains = 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 2))
    weights = rng.uniform(0.5, 1.5, size=n)
    alphas = weights / weights.sum()
    return SystemConfig(pairs=tuple(PairParams(sd, se, a) for (sd, se), a in zip(gains, alphas)))


def _jammer_means(config, i):
    """Pair i's jammer means in config order: the other pairs' eavesdropper gains.

    The other pairs keep their config order with pair i left out, so pair j
    sits at k = j for j < i and at k = j - 1 for j > i.
    """
    others = [j for j in range(config.n_pairs) if j != i]
    return np.array([config.pairs[j].sigma2_se for j in others])


def _all_gains(pair, jammer_means, u):
    """Every gain of a dominance-layout block: main, eavesdropper, one column per jammer."""
    g_je = -jammer_means[None, :] * np.log1p(-u[:, 2 : len(jammer_means) + 2])
    return -pair.sigma2_sd * np.log1p(-u[:, 0]), -pair.sigma2_se * np.log1p(-u[:, 1]), g_je


def _decoded_events(pair, jammer_means, gamma, u):
    """(nonc, rjs, ojs) events of layout-v2 uniforms `u`, decoded row by row in plain Python.

    An independent reading of the layout: the runs by a scan of the means,
    the pick by integer arithmetic, and each gain from numpy's scalar
    log1p, log and expm1, which give the bits the kernel's array calls give.
    """
    runs = []  # [mean, k] of each run of equal jammer means, in config order
    for mean in map(float, jammer_means):
        if runs and runs[-1][0] == mean:
            runs[-1][1] += 1
        else:
            runs.append([mean, 1])
    run_of = [r for r, (_, k) in enumerate(runs) for _ in range(k)]

    def gain(mean, k, x, q=0.0):
        # the picked jammer's gain -mean*log(1 - M*(1 - q)), M the largest of the run's k
        # uniforms; q = 0 gives the run's strongest gain
        if k == 1:
            return -mean * np.log1p(-x)
        with np.errstate(divide="ignore"):
            d = -np.expm1(np.log(x) / k)
        return -mean * np.log(d + q * (1.0 - d))

    def intercept(g_j, g_sd, g_se):
        return bool(g_j * gamma * g_sd + 2.0 * g_sd < 2.0 * g_se)

    events = []
    for row in u:
        g_sd = -pair.sigma2_sd * np.log1p(-row[0])
        g_se = -pair.sigma2_se * np.log1p(-row[1])
        nonc = bool(g_sd < g_se)
        if not (runs and nonc):
            events.append((nonc, nonc, nonc))
            continue
        strongest = max(gain(mean, k, row[4 + r]) for r, (mean, k) in enumerate(runs))
        r = run_of[min(int(row[2] * len(run_of)), len(run_of) - 1)]
        mean, k = runs[r]
        t = row[3] * k
        q = 0.0 if k == 1 or t < 1.0 else (k - t) / (k - 1)
        events.append((True, intercept(gain(mean, k, row[4 + r], q), g_sd, g_se),
                       intercept(strongest, g_sd, g_se)))
    return dict(zip(SCHEMES, np.array(events, dtype=bool).reshape(-1, 3).T))


# --- stream layout and sampling ----------------------------------------------


def test_words_per_trial_count_runs_of_equal_jammer_gains():
    # four head words, then one per run of equal jammer means in config order
    assert [draws_per_trial(n) for n in (1, 2, 3, 64)] == [4, 5, 6, 67]
    # pair 0's jammers are `means`
    for means, runs in (([], 0), ([2.0], 1), ([1.0] * 63, 1), ([1.0, 1.0, 2.0, 2.0, 2.0], 2),
                        ([1.0, 2.0, 1.0, 2.0], 4), (list(range(63)), 63)):
        se_means = np.array([0.5, *means])
        assert simulate._estimate_words(se_means)[0] == 4 + runs
        assert len(simulate._runs(np.array(means, dtype=float))[1]) == runs
        assert (simulate._dominance_words(se_means) == 2 + len(means)).all()
    for n in (1, 9):
        assert (simulate._estimate_words(np.arange(n, 0.0, -1.0)) == draws_per_trial(n)).all()
    # every pair's count from the means of all pairs: taking a pair out can join its neighbours
    rng = np.random.default_rng(17)
    for n in range(1, 12):
        for _ in range(20):
            se_means = rng.integers(0, 3, n).astype(float)
            want = [4 + len(simulate._runs(np.delete(se_means, i))[1]) for i in range(n)]
            assert simulate._estimate_words(se_means).tolist() == want


def test_rejects_out_of_range_seed():
    cfg = make_symmetric_config(2, 1.0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            estimate_intercept(cfg, "nonc", 1.0, 100, seed)
    assert estimate_intercept(cfg, "nonc", 1.0, 100, 2**64 - 1).trials == 100


def test_rejects_non_integer_seed():
    # a float or a digit string is not silently truncated or parsed
    cfg = make_symmetric_config(2, 1.0)
    for seed in (42.7, "42"):
        with pytest.raises(TypeError):
            estimate_intercept(cfg, "nonc", 1.0, 1000, seed)
        with pytest.raises(TypeError):
            coupled_dominance_check(cfg, 10.0, 1000, seed)


def test_rejects_non_integer_trials():
    # a Fraction used to run ceil(trials / N) trials per pair without a word
    cfg = make_symmetric_config(2, 1.0)
    for trials in (2500.5, "1000", Fraction(5001, 2)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            estimate_intercepts(cfg, ["nonc"], 10.0, trials, 1)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            coupled_dominance_check(cfg, 10.0, trials, 1)


def test_pair_streams_differ_and_reproduce():
    a = _block(5, 0, 6, 3)
    assert np.array_equal(a, _block(5, 0, 6, 3))
    assert not np.array_equal(a, _block(5, 1, 6, 3))
    assert not np.array_equal(a, _block(6, 0, 6, 3))


def test_advance_to_trial_matches_sequential_consumption():
    # trial t starts at word t*W: the stream advances whole four-word
    # counter steps and drops the rest, at every offset mod 4
    for words in (3, 4, 5, 6, 7, 67):
        gen = Generator(_pair_stream(99, 2, words, 0))
        sequential = np.vstack([gen.random((1, words)) for _ in range(9)])
        assert np.array_equal(sequential, _block(99, 2, words, 9))
        for start in range(1, 8):
            got = _block(99, 2, words, 9 - start, start_trial=start)
            assert np.array_equal(got, sequential[start:]), (words, start)


@pytest.mark.parametrize("n,start", [(4, 0), (3, 0), (5, 0), (4, 7), (3, 1001), (64, 5)])
def test_uniforms_of_words_are_generator_random(n, start):
    # N + 3 words per trial, so a trial may start inside a counter step; an
    # advanced start reads a block the stream skips and drops words to
    words = _pair_stream(31, 2, draws_per_trial(n), start).random_raw((50, draws_per_trial(n)))
    want = _block(31, 2, draws_per_trial(n), 50, start_trial=start)
    assert np.array_equal(_uniform(words), want)
    assert np.array_equal(_uniform(words[:, 1]), want[:, 1])
    assert np.array_equal(_words(want) >> 11, words >> 11)
    in_place = _uniform(words, out=words)
    assert np.shares_memory(in_place, words) and np.array_equal(in_place, want)


def test_extreme_words_give_extreme_finite_gains():
    # word 0 and word 2**64 - 1 on every path: a run of one, the strongest of
    # a run of k, and a picked jammer that is or is not the run's largest
    u = _uniform(np.array([0, 2**64 - 1], dtype=np.uint64))
    assert u.tolist() == [0.0, MAX_UNIFORM]
    g = _exp_gain(2.0, u)
    assert g[0] == 0.0 and np.isfinite(g[1]) and g[1] == pytest.approx(2.0 * 53 * math.log(2.0))
    for k in (2, 3, 1023):
        top = simulate._run_max_gain(2.0, k, u.copy())
        assert top[0] == 0.0 and top[1] == pytest.approx(2.0 * math.log(k * 2.0**53), rel=1e-12)
        for v in u:
            picked = simulate._picked_gain(2.0, k, u.copy(), np.full(2, v))
            assert picked[0] == 0.0 and np.isfinite(picked[1]) and 0.0 <= picked[1] <= top[1]
            assert (picked[1] == top[1]) == (v == 0.0)


def test_gains_shapes_and_positivity():
    cfg = make_symmetric_config(5, 2.0)
    means = _jammer_means(cfg, 1)
    u = _block(0, 1, cfg.n_pairs + 1, 1000)
    u[0] = 0.0
    g_sd, g_se, g_je = _all_gains(cfg.pairs[1], means, u)
    assert np.array_equal(_exp_gain(cfg.pairs[1].sigma2_sd, u[:, 0]), g_sd)
    assert np.array_equal(_exp_gain(cfg.pairs[1].sigma2_se, u[:, 1]), g_se)
    # in place, on a strided view of the block, as the dominance check does
    in_place = u[:, 2 : cfg.n_pairs + 1]
    assert _exp_gain(means, in_place, out=in_place) is in_place
    assert np.array_equal(u[:, 2 : cfg.n_pairs + 1], g_je)
    assert g_sd.shape == g_se.shape == (1000,)
    assert g_je.shape == (1000, cfg.n_pairs - 1)
    for g in (g_sd, g_se, g_je):
        assert np.isfinite(g).all() and (g >= 0.0).all()
    assert g_sd[0] == g_se[0] == 0.0 and not g_je[0].any()


def test_sample_marginals_match_exponential_distribution():
    cfg = SystemConfig(pairs=(PairParams(1.0, 2.0, 0.5), PairParams(1.0, 3.0, 0.5)))
    n = 10**6
    u = _block(1234, 0, 5, n)
    g_sd = -1.0 * np.log1p(-u[:, 0])
    g_se = -2.0 * np.log1p(-u[:, 1])
    assert g_sd.mean() == pytest.approx(1.0, abs=0.004)
    assert g_se.mean() == pytest.approx(2.0, abs=0.008)
    # empirical CDF at the mean: 1 - e^-1
    ecdf = np.mean(g_sd < 1.0)
    assert ecdf == pytest.approx(1.0 - math.exp(-1.0), abs=3.0 * 0.5 / math.sqrt(n))


def test_symmetric_gains_tie_probability():
    cfg = make_symmetric_config(2, 1.0)
    est = estimate_intercept(cfg, "nonc", 1.0, 10**6, 7)
    assert abs(est.p_hat - 0.5) <= 3.0 * est.std_err


# --- events ----------------------------------------------------------------


def test_event_noncoop_examples():
    u = _gain_rows([(2.0, 1.0, 0.5), (1.0, 2.0, 0.5)], [1.0])
    u = np.vstack([u, u[:1]])
    u[2, 1] = u[2, 0]  # equal gains
    assert _events(u, [1.0], "nonc", 10.0).tolist() == [False, True, False]


def test_event_sc_boundary_and_examples():
    assert not _sc_intercept(0.0, 10.0, 1.0, 1.0)
    assert _sc_intercept(0.01, 10.0, 0.1, 1.0)
    for gamma in (0.1, 10.0, 1e6):
        assert not _sc_intercept(0.1, gamma, 2.0, 1.0)
    # exact equality of the main and eavesdropper gains, with zero jamming,
    # is no intercept for any scheme: one run of three jammers whose word is 0
    u = _block(3, 0, 5, 500)
    u[:, 1] = u[:, 0]
    u[:, 4] = 0.0
    for scheme in SCHEMES:
        assert not _events(u, np.ones(3), scheme, 10.0).any()


def test_event_sc_zero_main_gain_counts_as_intercept():
    assert _sc_intercept(5.0, 10.0, 0.0, 1.0)
    u = _block(4, 0, 5, 500)
    u[:, 0] = 0.0
    u[:, 1] = np.maximum(u[:, 1], _snap(1e-12))
    assert (u[:, 1] > 0.0).all()
    for scheme in SCHEMES:
        assert _events(u, np.ones(3), scheme, 1e6).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma", [1e3, 1e307])
def test_event_sc_zero_main_gain_limits_hold_at_every_snr(gamma):
    # at gamma=1e307, g_je*gamma overflows to inf and inf*g_sd is inf*0
    g_je = np.array([100.0, 100.0])
    assert _sc_intercept(g_je, gamma, np.zeros(2), np.array([1.0, 0.0])).tolist() == [True, False]


@pytest.mark.filterwarnings("error")
def test_overflowing_jamming_product_is_no_warning():
    # g_je*gamma overflows to inf at an SNR the closed forms accept
    # (intercept_sc_ojs gives 1.73e-307 here); inf makes the event false,
    # its exact limit
    cfg = make_symmetric_config(4, 1.0)
    assert not _sc_intercept(np.array([20.0]), 1e307, 1.0, 1.0).any()
    assert coupled_dominance_check(cfg, 1e307, 10_000, 1) == 0
    estimates = estimate_intercepts(cfg, SCHEMES, 1e307, 100_000, 1)
    assert [e.p_hat for e in estimates[1:]] == [0.0, 0.0]


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("p_hat", -0.1, r"outside \[0, 1\]"),
        ("p_hat", 1.5, r"outside \[0, 1\]"),
        ("trials", 0, "trial count must be positive"),
        ("std_err", -1e-3, "standard error must be nonnegative"),
    ],
)
def test_intercept_estimate_refuses_impossible_fields(field, value, message):
    fields = dict(p_hat=0.5, trials=10, std_err=0.1, scheme="nonc", gamma=1.0)
    with pytest.raises(ValueError, match=message):
        simulate.InterceptEstimate(**{**fields, field: value})


def test_event_sc_rejects_bad_gamma():
    cfg = make_symmetric_config(2, 1.0)
    for gamma in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            estimate_intercept(cfg, "rjs", gamma, 100, 0)
        with pytest.raises(ValueError):
            coupled_dominance_check(cfg, gamma, 100, 0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from((1e-3, 0.5, 1.0, 2.0, 1e3)), min_size=1, max_size=7).flatmap(
        lambda means: st.tuples(
            st.just(np.array(means)),
            hnp.arrays(
                np.uint64,
                st.tuples(st.integers(min_value=1, max_value=20), st.just(4 + len(means))),
                elements=st.one_of(
                    st.sampled_from((0, 2**64 - 1)), st.integers(min_value=0, max_value=2**64 - 1)
                ),
            ),
        )
    ),
    st.floats(min_value=1e-6, max_value=1e6),
)
def test_event_inclusion_chain_on_arbitrary_draws(block, gamma):
    # arbitrary words, 0 and 2**64 - 1 among them, and jammer means in runs
    means, w = block
    pair = PairParams(1.0, 1.0, 0.5)
    # the dominance layout reads every jammer's own word
    dominance = w[:, : 2 + len(means)].copy()
    g_sd, g_se, g_je = _all_gains(pair, means, _uniform(dominance))
    e_nonc = g_sd < g_se
    e_sc = _sc_intercept(g_je, gamma, g_sd[:, None], g_se[:, None])
    e_best = e_sc[np.arange(len(w)), g_je.argmax(axis=1)]
    assert not (e_best & ~e_sc.all(axis=1)).any()
    assert not (e_sc & ~e_nonc[:, None]).any()
    assert _chain_violations(gamma, pair, means, dominance) == 0
    # layout v2 reads one word per run; the picked gain never exceeds the strongest
    starts, counts = simulate._runs(means)
    v2 = w[:, : 4 + len(counts)].copy()
    nonc, rjs, ojs = _batch_events(pair, means, SCHEMES, gamma, v2)
    assert not (ojs & ~rjs).any() and not (rjs & ~nonc).any()
    g_rjs = simulate._rjs_gain(means[starts], counts, v2, np.arange(len(w)))
    g_ojs = simulate._ojs_gain(means[starts], counts, _uniform(v2[:, 4:]))
    assert np.isfinite(g_ojs).all() and (g_rjs >= 0.0).all() and (g_rjs <= g_ojs).all()


@pytest.mark.parametrize("k", [2, 3, 7, 64])
def test_run_word_gains_follow_the_order_statistic_law(k):
    # the strongest gain a run's one word gives, and the picked jammer's gain,
    # against the maximum and the first of k explicit exponentials.  Each
    # two-sample KS test rejects a correct law with probability at most
    # 1e-3, so the 8 of this test together at most 8e-3.
    rng = np.random.default_rng(4000 + k)
    n, mean = 20_000, 2.0
    explicit = rng.exponential(mean, size=(n, k))
    u, v = rng.random(n), rng.random(n)
    top = simulate._run_max_gain(mean, k, u.copy())
    picked = simulate._picked_gain(mean, k, u, v)
    assert (picked <= top).all()
    assert stats.ks_2samp(top, explicit.max(axis=1)).pvalue > 1e-3
    assert stats.ks_2samp(picked, explicit[:, 0]).pvalue > 1e-3
    # the pick is the run's strongest with probability 1/k
    hits = np.count_nonzero(picked == top)
    assert abs(hits - n / k) <= 4.0 * math.sqrt(n / k * (1.0 - 1.0 / k))


# --- jammer selection -----------------------------------------------------


def test_select_jammer_optimal_examples():
    # at gamma = 2 with g_sd = 1 and g_se = 2, a jammer gain of 1 or more
    # stops the intercept, so in the first row only the strongest jammer
    # (1.7) can decide the event
    means = [1.0, 2.0, 1.0]
    rows = [(1.0, 2.0, 0.2, 1.7, 0.9), (1.0, 2.0, 0.2, 0.3, 0.9)]
    assert _events(_gain_rows(rows, means), means, "ojs", 2.0).tolist() == [False, True]
    for g_j in (0.2, 0.9, 1.7):
        single = _events(_gain_rows([(1.0, 2.0, g_j)], [1.0]), [1.0], "ojs", 2.0)
        assert single.tolist() == [g_j < 1.0]


def test_select_jammer_optimal_permutation_equivariance():
    rng = np.random.default_rng(11)
    n = 6
    u = _block(8, 0, n + 3, 4000)
    means = 10.0 ** rng.uniform(-1.0, 1.0, n - 1)
    pair = PairParams(1.0, 2.0, 1.0 / n)
    base = _batch_events(pair, means, ("ojs",), 10.0, _words(u))[0]
    for perm in (np.arange(n - 1)[::-1], rng.permutation(n - 1), rng.permutation(n - 1)):
        shuffled = u.copy()
        shuffled[:, 4 : n + 3] = u[:, 4 + perm]
        got = _batch_events(pair, means[perm], ("ojs",), 10.0, _words(shuffled))[0]
        assert np.array_equal(got, base)


def test_tied_strongest_jammers_give_same_ojs_event():
    # interleaved means: the two outer jammers are runs of one with one mean,
    # so their words can tie exactly
    means = [1.0, 0.5, 1.0]
    u = _block(12, 0, 7, 4000)
    u[:, 6] = u[:, 4]
    u[:, 5] = _snap(u[:, 4] * 0.5)
    assert (u[:, 5] < u[:, 4]).sum() == (u[:, 4] > 0.0).sum()
    events = _events(u, means, "ojs", 10.0)
    g_sd, g_se = -np.log1p(-u[:, 0]), -np.log1p(-u[:, 1])
    assert np.array_equal(events, _sc_intercept(-np.log1p(-u[:, 4]), 10.0, g_sd, g_se))
    for tied in (4, 6):
        one_left = u.copy()
        one_left[:, tied] = 0.0
        assert np.array_equal(_events(one_left, means, "ojs", 10.0), events)
    assert events.any() and not events.all()


def _repeated_gain_config(n, kind):
    """N unit-main-gain pairs whose eavesdropper gains repeat by `kind`, in config order."""
    rng = np.random.default_rng(n)
    a, b = 0.5, 2.0
    se = {
        "symmetric": [a] * n,
        "two runs": [a] * (n // 2) + [b] * (n - n // 2),
        "interleaved": [(a, b)[j % 2] for j in range(n)],
        "all distinct": list(10.0 ** rng.uniform(-1.0, 1.0, n)),
    }[kind]
    return SystemConfig(pairs=tuple(PairParams(1.0, g, 1.0 / n) for g in se))


@pytest.mark.parametrize("kind", ["symmetric", "two runs", "interleaved", "all distinct"])
@pytest.mark.parametrize("n", [2, 3, 9, 64])
def test_ojs_runs_of_equal_jammer_means_match_reference(n, kind):
    # runs of equal jammer means, alone, beside runs of one and interleaved:
    # every scheme's events must equal the plain-Python decoder's, bit for
    # bit, with the smallest and largest words in the pick, rjs and run words
    cfg = _repeated_gain_config(n, kind)
    wide_beside_other = beside_single = False
    for i in sorted({0, n // 2, n - 1}):
        means = _jammer_means(cfg, i)
        counts = simulate._runs(means)[1]
        wide_beside_other |= 1 < len(counts) < len(means)
        beside_single |= 1 == counts.min() < counts.max()
        u = _block(50 + i, i, 4 + len(counts), 2000)
        u[:100, 2:] = 0.0
        u[100:200, 2:] = MAX_UNIFORM
        u[200:300, 3] = 0.0
        u[300:400, 3] = MAX_UNIFORM
        for gamma in (0.3, 3.0):
            want = _decoded_events(cfg.pairs[i], means, gamma, u)
            got = _batch_events(cfg.pairs[i], means, SCHEMES, gamma, _words(u))
            for scheme, events in zip(SCHEMES, got):
                assert np.array_equal(events, want[scheme]), (i, gamma, scheme)
            assert want["ojs"].any() and not want["ojs"].all()
    assert wide_beside_other == (n > 3 and kind in ("two runs", "interleaved"))
    assert beside_single == (n > 3 and kind == "interleaved")


def test_select_jammer_random_uniform():
    # equally spaced pick uniforms must spread exactly evenly over the
    # candidates, and the extreme uniforms must pick the first and last
    for m in (2, 3, 5, 7):
        means = np.arange(1.0, m + 1.0)
        u = _block(42, 0, 4 + m, 300 * m + 2)
        u[:-2, 2] = _snap((np.arange(300 * m) + 0.5) / (300 * m))
        u[-2:, 2] = 0.0, MAX_UNIFORM
        picks = _rjs_picks(u, means)
        assert (np.bincount(picks[:-2], minlength=m) == 300).all()
        assert picks[-2:].tolist() == [0, m - 1]


def test_select_jammer_random_single_candidate():
    # with one candidate the random pick is the optimal one
    u = _block(0, 0, 5, 5000)
    assert np.array_equal(_events(u, [1.0], "rjs", 10.0), _events(u, [1.0], "ojs", 10.0))
    assert (_rjs_picks(u, [1.0]) == 0).all()
    # with none, both cooperative schemes fall back to the noncoop event
    for scheme in ("rjs", "ojs"):
        assert np.array_equal(_events(u, [], scheme, 10.0), _events(u, [], "nonc", 10.0))


def test_select_jammer_random_independent_of_gains():
    # contingency of the picked jammer vs the strongest jammer must look
    # independent: chi-square test not rejecting at alpha = 0.01
    means = np.array([1.0, 2.0, 3.0])
    u = _block(2024, 0, 7, 30_000)
    g_je = -means * np.log1p(-u[:, 4:7])
    table = np.zeros((3, 3), dtype=int)
    np.add.at(table, (_rjs_picks(u, means), g_je.argmax(axis=1)), 1)
    _, p_value, _, _ = stats.chi2_contingency(table)
    assert p_value > 0.01


# --- estimator -----------------------------------------------------------------


def test_estimator_is_deterministic():
    cfg = make_symmetric_config(4, 1.0)
    a = estimate_intercept(cfg, "rjs", 10.0, 200_000, 42)
    b = estimate_intercept(cfg, "rjs", 10.0, 200_000, 42)
    assert a == b


def test_estimator_worker_count_invariance():
    cfg = make_symmetric_config(3, 2.0)
    trials = cfg.n_pairs * (3 * _batch_trials(5) + 1234)  # 5 words a trial, 4 batches per pair
    single = estimate_intercept(cfg, "ojs", 10.0, trials, 9, workers=1)
    multi = estimate_intercept(cfg, "ojs", 10.0, trials, 9, workers=4)
    assert single == multi


def test_estimator_batching_matches_single_pass():
    cfg = make_symmetric_config(2, 1.0)
    trials = cfg.n_pairs * (3 * _batch_trials(5) + 5000)  # 5 words a trial, 4 batches per pair
    per_pair = -(-trials // cfg.n_pairs)
    est = estimate_intercept(cfg, "nonc", 1.0, trials, 11)
    hits = []
    for i in range(cfg.n_pairs):
        u = _block(11, i, 5, per_pair)
        g_sd = -np.log1p(-u[:, 0])
        g_se = -np.log1p(-u[:, 1])
        hits.append(int((g_sd < g_se).sum()))
    expected = math.fsum(0.5 * h / per_pair for h in hits)
    assert est.p_hat == expected


@pytest.mark.parametrize("scheme", ["rjs", "ojs"])
def test_wide_system_batches_match_single_block(scheme):
    # 64 pairs with distinct gains: one batch holds fewer trials than a pair
    # runs, so every pair spans three batches, split over two workers; the
    # kernel on each pair's whole stream read in one piece must agree
    cfg = _random_config(np.random.default_rng(64), 64)
    n, gamma = cfg.n_pairs, 30.0
    per_pair = 2 * _batch_trials(draws_per_trial(n)) + 321
    one = estimate_intercept(cfg, scheme, gamma, n * per_pair, 5, workers=1)
    two = estimate_intercept(cfg, scheme, gamma, n * per_pair, 5, workers=2)
    assert one == two
    hits = []
    for i in range(n):
        w = _pair_stream(5, i, draws_per_trial(n), 0).random_raw((per_pair, draws_per_trial(n)))
        events = _batch_events(cfg.pairs[i], _jammer_means(cfg, i), (scheme,), gamma, w)[0]
        hits.append(int(events.sum()))
    assert one.p_hat == math.fsum(p.alpha * h / per_pair for p, h in zip(cfg.pairs, hits))


def test_estimator_memory_grows_with_n_not_n_squared():
    # 1024 pairs, one trial each: a table of N - 1 jammer means per pair would be 8 MiB
    cfg = make_symmetric_config(1024, 1.0)
    tracemalloc.start()
    try:
        estimates = estimate_intercepts(cfg, SCHEMES, 10.0, 1000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [e.trials for e in estimates] == [1024] * 3
    assert peak < 2 * 2**20


def _estimate_from_hits(cfg, scheme, gamma, hits, per_pair):
    """The stratified estimate the package should build from per-pair hit counts."""
    rates = [h / per_pair for h in hits]
    alphas = [p.alpha for p in cfg.pairs]
    variance = math.fsum(a * a * r * (1.0 - r) / per_pair for a, r in zip(alphas, rates))
    return simulate.InterceptEstimate(
        p_hat=math.fsum(a * r for a, r in zip(alphas, rates)),
        trials=per_pair * cfg.n_pairs,
        std_err=math.sqrt(max(variance, 0.0)),
        scheme=scheme,
        gamma=gamma,
        degraded=scheme != "nonc" and cfg.n_pairs == 1,
    )


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 64])
def test_shared_block_estimates_match_reference_and_single_scheme(n, monkeypatch):
    # every scheme is evaluated on one draw of each batch; in any subset and
    # order each estimate must equal the plain-Python decoder's on the raw
    # stream and the single-scheme call, field for field.  Small batches put
    # two batch boundaries inside every pair's trials.
    monkeypatch.setattr(simulate, "BATCH_BYTES", 1 << 14)
    rng = np.random.default_rng(9000 + n)
    cfg = _random_config(rng, n)
    gamma = 10.0 ** rng.uniform(-4.0, 8.0)
    words = draws_per_trial(n)  # every gain differs
    step = _batch_trials(words)
    per_pair = 2 * step + int(rng.integers(1, step + 1))
    trials = n * per_pair - int(rng.integers(n))
    seed = int(rng.integers(2**64, dtype=np.uint64))
    decoded = [
        _decoded_events(cfg.pairs[i], _jammer_means(cfg, i), gamma, _block(seed, i, words, per_pair))
        for i in range(n)
    ]
    reference = {
        scheme: _estimate_from_hits(
            cfg, scheme, gamma, [int(events[scheme].sum()) for events in decoded], per_pair
        )
        for scheme in SCHEMES
    }
    for scheme in SCHEMES:
        for workers in (1, 2):
            assert estimate_intercept(cfg, scheme, gamma, trials, seed, workers) == reference[scheme]
    for size in (1, 2, 3):
        for order in itertools.permutations(SCHEMES, size):
            for workers in (1, 2):
                got = estimate_intercepts(cfg, order, gamma, trials, seed, workers=workers)
                assert got == [reference[s] for s in order], (order, workers)


def test_estimate_intercepts_rejects_bad_scheme_lists():
    cfg = make_symmetric_config(2, 1.0)
    # a bare name is a sequence of one-letter names, none of them a scheme
    for schemes in ((), [], ("nonc", "magic"), ("Rjs",), "nonc"):
        with pytest.raises(ValueError):
            estimate_intercepts(cfg, schemes, 10.0, 100, 0)


def test_rejects_bad_worker_count():
    cfg = make_symmetric_config(3, 1.0)
    for workers in (0, -3):
        with pytest.raises(ValueError, match="at least one worker"):
            estimate_intercept(cfg, "rjs", 10.0, 3000, 1, workers=workers)
    with pytest.raises(TypeError):
        estimate_intercept(cfg, "rjs", 10.0, 3000, 1, workers=2.5)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 9, 14, 23, 40, 64, 79])
def test_batch_events_match_all_columns_reference(n):
    # the kernel converts only the words each scheme reads; on all-distinct
    # gains its events must equal those of the plain-Python decoder, which
    # converts every word of every row, bit for bit
    rng = np.random.default_rng(7000 + n)
    near = np.zeros(3, dtype=int)  # boundary rows below, at and above g_sd
    for gamma in (1e-4, 10.0 ** rng.uniform(-4.0, 8.0), 1e8):
        cfg = _random_config(rng, n)
        i = int(rng.integers(n))
        u = rng.random((3000, draws_per_trial(n)))
        u[rng.random(u.shape) < 0.01] = 0.0
        u[rng.random(u.shape) < 0.01] = MAX_UNIFORM
        # a third of the rows sit at the non-cooperative boundary: g_se
        # within a relative 1e-16..1e-2 of g_sd, on either side, before the
        # snap to the grid of word uniforms
        pair = cfg.pairs[i]
        rel = rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-16.0, -2.0, 1000)
        g_se = -pair.sigma2_sd * np.log1p(-u[:1000, 0]) * (1.0 + rel)
        u[:1000, 1] = _snap(np.minimum(-np.expm1(-g_se / pair.sigma2_se), np.nextafter(1.0, 0.0)))
        g_sd, g_se, _ = _all_gains(pair, np.empty(0), u[:1000])
        with np.errstate(invalid="ignore"):
            snapped_rel = g_se / g_sd - 1.0
        near += [np.count_nonzero((snapped_rel < 0.0) & (snapped_rel > -1e-12)),
                 np.count_nonzero(g_se == g_sd),
                 np.count_nonzero((snapped_rel > 0.0) & (snapped_rel < 1e-12))]
        means = _jammer_means(cfg, i)
        decoded = _decoded_events(pair, means, gamma, u)
        expected = [decoded[scheme] for scheme in SCHEMES]
        for scheme, want in zip(SCHEMES, expected):
            got = _batch_events(pair, means, (scheme,), gamma, _words(u))[0]
            assert np.array_equal(got, want), (scheme, gamma)
        together = _batch_events(pair, means, SCHEMES, gamma, _words(u))
        for scheme, got, want in zip(SCHEMES, together, expected):
            assert np.array_equal(got, want), (scheme, gamma)
    # the boundary survives the snap: ties and rows within 1e-12 either side
    assert (near > 0).all(), near


def test_estimator_clamps_workers_to_task_count(monkeypatch):
    pool_sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", RecordingPool)
    cfg = make_symmetric_config(3, 1.0)
    est = estimate_intercept(cfg, "rjs", 10.0, 300, 5, workers=1_000_000)
    assert pool_sizes == [3]  # one batch per pair
    trials = cfg.n_pairs * (2 * _batch_trials(5) + 1)
    estimate_intercept(cfg, "rjs", 10.0, trials, 5, workers=4)
    assert pool_sizes == [3, 4]
    assert est == estimate_intercept(cfg, "rjs", 10.0, 300, 5, workers=1)
    assert pool_sizes == [3, 4]


def test_noncoop_estimates_do_not_read_gamma():
    cfg = make_symmetric_config(4, 1.0)
    a = estimate_intercept(cfg, "nonc", 1.0, 100_000, 3)
    b = estimate_intercept(cfg, "nonc", 1e3, 100_000, 3)
    assert a.p_hat == b.p_hat
    assert a.std_err == b.std_err


def test_default_system_noncoop_estimate():
    est = estimate_intercept(make_symmetric_config(4, 1.0), "nonc", 1.0, 10**6, 42)
    assert abs(est.p_hat - 0.5) <= 3.0 * 0.0005


def test_two_pair_rjs_estimate_at_ten_million_trials():
    cfg = make_symmetric_config(2, 1.0)
    est = estimate_intercept(cfg, "rjs", 10.0, 10**7, 42)
    assert abs(est.p_hat - intercept_sc_rjs(cfg, 10.0)) <= 3.0 * est.std_err


@pytest.mark.parametrize("scheme", ["nonc", "rjs", "ojs"])
def test_estimates_match_closed_forms(scheme):
    cfg = make_symmetric_config(2, 1.0)
    reference = {
        "nonc": intercept_noncoop(cfg),
        "rjs": intercept_sc_rjs(cfg, 10.0),
        "ojs": intercept_sc_ojs(cfg, 10.0),
    }[scheme]
    est = estimate_intercept(cfg, scheme, 10.0, 10**6, 42)
    assert abs(est.p_hat - reference) <= 3.0 * est.std_err


def test_estimates_match_closed_forms_asymmetric():
    cfg = SystemConfig(
        pairs=(
            PairParams(2.0, 0.7, 0.3),
            PairParams(0.5, 1.9, 0.25),
            PairParams(1.1, 1.2, 0.2),
        )
    )
    for scheme, ref in (
        ("rjs", intercept_sc_rjs(cfg, 25.0)),
        ("ojs", intercept_sc_ojs(cfg, 25.0)),
    ):
        est = estimate_intercept(cfg, scheme, 25.0, 600_000, 8)
        assert abs(est.p_hat - ref) <= 3.0 * est.std_err


def test_estimator_metadata_and_stderr():
    cfg = make_symmetric_config(3, 1.0)
    est = estimate_intercept(cfg, "rjs", 10.0, 100, 0)
    per_pair = -(-100 // 3)
    assert est.trials == per_pair * 3
    assert est.scheme == "rjs"
    assert est.gamma == 10.0
    assert 0.0 <= est.std_err <= 0.5


def test_estimator_degraded_single_pair():
    cfg = SystemConfig(pairs=(PairParams(4.0, 1.0, 1.0),))
    est = estimate_intercept(cfg, "ojs", 10.0, 200_000, 5)
    assert est.degraded is True
    assert abs(est.p_hat - intercept_noncoop(cfg)) <= 3.0 * est.std_err
    nonc = estimate_intercept(cfg, "nonc", 10.0, 200_000, 5)
    assert est.p_hat == nonc.p_hat
    assert nonc.degraded is False


def test_estimator_rejects_bad_inputs():
    cfg = make_symmetric_config(2, 1.0)
    with pytest.raises(ValueError):
        estimate_intercept(cfg, "nonsense", 1.0, 100, 0)
    with pytest.raises(ValueError):
        estimate_intercept(cfg, "rjs", 0.0, 100, 0)
    with pytest.raises(ValueError):
        estimate_intercept(cfg, "rjs", 1.0, 0, 0)


def test_heterogeneous_five_pair_triangle():
    # closed form, quadrature oracle, and Monte Carlo must agree pairwise
    from secrecy_sim.analytic import intercept_sc_ojs_oracle, intercept_sc_rjs_oracle

    cfg = SystemConfig(
        pairs=(
            PairParams(3.0, 0.4, 0.15),
            PairParams(0.8, 2.5, 0.30),
            PairParams(1.6, 1.0, 0.05),
            PairParams(0.3, 0.9, 0.25),
            PairParams(5.0, 1.5, 0.20),
        )
    )
    gamma = 40.0
    for closed, oracle, scheme in (
        (intercept_sc_rjs(cfg, gamma), intercept_sc_rjs_oracle(cfg, gamma), "rjs"),
        (intercept_sc_ojs(cfg, gamma), intercept_sc_ojs_oracle(cfg, gamma), "ojs"),
    ):
        assert closed == pytest.approx(oracle, rel=1e-8, abs=0.0)
        est = estimate_intercept(cfg, scheme, gamma, 800_000, 3)
        assert abs(est.p_hat - closed) <= 3.0 * est.std_err


def test_same_seed_estimates_are_exactly_ordered():
    # schemes read the same uniform layout, and the per-draw event inclusion
    # makes the ordering deterministic for a shared seed, not just statistical
    for n, mer, gamma, seed in ((3, 1.0, 10.0, 0), (5, 0.5, 3.0, 9), (4, 2.0, 100.0, 21)):
        cfg = make_symmetric_config(n, mer)
        p_nonc = estimate_intercept(cfg, "nonc", gamma, 300_000, seed).p_hat
        p_rjs = estimate_intercept(cfg, "rjs", gamma, 300_000, seed).p_hat
        p_ojs = estimate_intercept(cfg, "ojs", gamma, 300_000, seed).p_hat
        assert p_ojs <= p_rjs <= p_nonc


# --- dominance ----------------------------------------------------------------


def test_dominance_chain_holds_on_shared_draws():
    cfg = make_symmetric_config(4, 1.0)
    assert coupled_dominance_check(cfg, 10.0, 10**6, 42) == 0


def test_dominance_two_pairs_and_weak_jamming():
    assert coupled_dominance_check(make_symmetric_config(2, 1.0), 10.0, 200_000, 1) == 0
    assert coupled_dominance_check(make_symmetric_config(4, 1.0), 1e-6, 200_000, 2) == 0


def test_dominance_seed_independent():
    cfg = make_symmetric_config(3, 0.5)
    for seed in (0, 1, 12345):
        assert coupled_dominance_check(cfg, 5.0, 100_000, seed) == 0


def test_dominance_rejects_single_pair():
    with pytest.raises(ValueError):
        coupled_dominance_check(make_symmetric_config(1, 1.0), 10.0, 100, 0)


def _reference_violations(cfg, gamma, trials, seed):
    """The chain check on every gain of each pair's whole block at once."""
    n = cfg.n_pairs
    per_pair = -(-trials // n)
    violations = 0
    for i in range(n):
        u = _block(seed, i, n + 1, per_pair)
        g_sd, g_se, g_je = _all_gains(cfg.pairs[i], _jammer_means(cfg, i), u)
        e_sc = simulate._sc_intercept(g_je, gamma, g_sd[:, None], g_se[:, None])
        e_best = e_sc[np.arange(per_pair), g_je.argmax(axis=1)]
        violations += int(np.count_nonzero(e_best & ~e_sc.all(axis=1)))
        violations += int(np.count_nonzero((e_sc & ~(g_sd < g_se)[:, None]).any(axis=1)))
    return violations


def _flipped_comparison(g_je, gamma, g_sd, g_se):
    return g_je * gamma * g_sd + 2.0 * g_sd > 2.0 * g_se


def _doubled_eavesdropper_gain(g_je, gamma, g_sd, g_se):
    return g_je * gamma * g_sd + 2.0 * g_sd < 4.0 * g_se


def _negated_jamming(g_je, gamma, g_sd, g_se):
    return 2.0 * g_sd - g_je * gamma * g_sd < 2.0 * g_se


def _dropped_gamma(g_je, gamma, g_sd, g_se):
    return g_je * g_sd + 2.0 * g_sd < 2.0 * g_se


@pytest.mark.parametrize(
    "condition,chain_holds",
    [
        (_sc_intercept, True),
        # dropping gamma sets it to 1, under which the chain still holds
        (_dropped_gamma, True),
        (_flipped_comparison, False),
        (_doubled_eavesdropper_gain, False),
        (_negated_jamming, False),
    ],
)
def test_dominance_check_counts_mutant_violations(condition, chain_holds, monkeypatch):
    # the check tests one jammer column at a time on gains it transformed in
    # place; under any intercept condition it must count exactly what the
    # all-columns form counts, and it can only read 0 where the chain holds
    monkeypatch.setattr(simulate, "_sc_intercept", condition)
    rng = np.random.default_rng(2026)
    for n, per_pair in ((2, _batch_trials(3) + 77), (3, 4000), (5, 3000), (64, 300)):
        cfg = _random_config(rng, n)
        gamma = 10.0 ** rng.uniform(-2.0, 4.0)
        seed = int(rng.integers(2**32))
        expected = _reference_violations(cfg, gamma, n * per_pair, seed)
        assert coupled_dominance_check(cfg, gamma, n * per_pair, seed) == expected
        assert (expected == 0) == chain_holds, (n, expected)
