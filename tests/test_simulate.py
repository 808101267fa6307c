from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from secrecy_sim.analytic import intercept_noncoop, intercept_sc_ojs, intercept_sc_rjs
from secrecy_sim import simulate
from secrecy_sim.model import SCHEMES, PairParams, SystemConfig, make_symmetric_config
from secrecy_sim.simulate import (
    _batch_events,
    _batch_trials,
    _candidate_means,
    _chain_violations,
    _exp_gain,
    _pair_generator,
    _sc_intercept,
    coupled_dominance_check,
    draws_per_trial,
    estimate_intercept,
    estimate_intercepts,
)

UNIT_PAIR = PairParams(1.0, 1.0, 0.25)


def _block(seed, pair, n, trials, start_trial=0):
    gen = _pair_generator(seed, pair, n, start_trial)
    return gen.random((trials, draws_per_trial(n)))


def _unit_gain_rows(rows, n):
    """Uniforms whose unit-mean gains are the given (g_sd, g_se, *g_je) rows."""
    gains = np.asarray(rows, dtype=float)
    u = np.zeros((len(gains), draws_per_trial(n)))
    u[:, : gains.shape[1]] = -np.expm1(-gains)
    return u


def _events(u, m, scheme, gamma):
    """Kernel events for a unit-mean active pair with m unit-mean candidate jammers."""
    return _batch_events(UNIT_PAIR, np.ones(m), (scheme,), gamma, u)[0]


def _rjs_picks(u, m):
    """The jammer the rjs kernel picks in each row of `u`, read off its events.

    In a copy of the block jammer k gets zero gain, every other jammer a
    huge one, and g_se > g_sd, so the rjs event holds exactly where k is
    picked.  Only the jammer and gain columns change; the pick column does
    not.
    """
    picks = np.full(len(u), -1)
    for k in range(m):
        v = u.copy()
        v[:, 0], v[:, 1] = 0.5, 0.9
        v[:, 2 : m + 2] = np.nextafter(1.0, 0.0)
        v[:, 2 + k] = 0.0
        hit = _events(v, m, "rjs", 1e6)
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


def _all_gains(pair, jammer_means, u):
    """Every gain of a uniform block: main, eavesdropper, one column per jammer."""
    g_je = -jammer_means[None, :] * np.log1p(-u[:, 2 : len(jammer_means) + 2])
    return -pair.sigma2_sd * np.log1p(-u[:, 0]), -pair.sigma2_se * np.log1p(-u[:, 1]), g_je


def _reference_events(config, i, scheme, gamma, u):
    """Intercept events from every gain of the block, then the max or the pick."""
    n = config.n_pairs
    g_sd, g_se, g_je = _all_gains(config.pairs[i], _candidate_means(config, i), u)
    if scheme == "nonc" or n == 1:
        return g_sd < g_se
    if scheme == "rjs":
        m = n - 1
        pick = np.minimum((u[:, n + 1] * m).astype(np.int64), m - 1)
        gj = g_je[np.arange(len(u)), pick]
    else:
        gj = g_je.max(axis=1)
    return gj * gamma * g_sd + 2.0 * g_sd < 2.0 * g_se


# --- stream layout and sampling ----------------------------------------------


@pytest.mark.parametrize("n,expected", [(1, 4), (2, 4), (3, 8), (6, 8), (7, 12), (14, 16)])
def test_draws_per_trial_block_aligned(n, expected):
    assert draws_per_trial(n) == expected


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
    a = _block(5, 0, 3, 3)
    assert np.array_equal(a, _block(5, 0, 3, 3))
    assert not np.array_equal(a, _block(5, 1, 3, 3))
    assert not np.array_equal(a, _block(6, 0, 3, 3))


def test_advance_to_trial_matches_sequential_consumption():
    n = 4
    gen = _pair_generator(99, 2, n, 0)
    sequential = np.vstack([gen.random((1, draws_per_trial(n))) for _ in range(6)])
    assert np.array_equal(sequential, _block(99, 2, n, 6))
    assert np.array_equal(_block(99, 2, n, 2, start_trial=4), sequential[4:])


def test_gains_shapes_and_positivity():
    cfg = make_symmetric_config(5, 2.0)
    means = _candidate_means(cfg, 1)
    u = _block(0, 1, cfg.n_pairs, 1000)
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
    u = _block(1234, 0, cfg.n_pairs, n)
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
    u = _unit_gain_rows([(2.0, 1.0, 0.5), (1.0, 2.0, 0.5)], 2)
    u = np.vstack([u, u[:1]])
    u[2, 1] = u[2, 0]  # equal gains
    assert _events(u, 1, "nonc", 10.0).tolist() == [False, True, False]


def test_event_sc_boundary_and_examples():
    assert not _sc_intercept(0.0, 10.0, 1.0, 1.0)
    assert _sc_intercept(0.01, 10.0, 0.1, 1.0)
    for gamma in (0.1, 10.0, 1e6):
        assert not _sc_intercept(0.1, gamma, 2.0, 1.0)
    # exact equality of the main and eavesdropper gains, with zero jamming,
    # is no intercept for any scheme
    u = _block(3, 0, 4, 500)
    u[:, 1] = u[:, 0]
    u[:, 2:5] = 0.0
    for scheme in SCHEMES:
        assert not _events(u, 3, scheme, 10.0).any()


def test_event_sc_zero_main_gain_counts_as_intercept():
    assert _sc_intercept(5.0, 10.0, 0.0, 1.0)
    u = _block(4, 0, 4, 500)
    u[:, 0] = 0.0
    u[:, 1] = np.maximum(u[:, 1], 1e-12)
    for scheme in SCHEMES:
        assert _events(u, 3, scheme, 1e6).all()


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
    st.integers(min_value=1, max_value=6).flatmap(
        lambda m: st.tuples(
            st.just(m),
            hnp.arrays(
                np.float64,
                st.tuples(st.integers(min_value=1, max_value=20), st.just(draws_per_trial(m + 1))),
                elements=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            ),
        )
    ),
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=6, max_size=6),
    st.floats(min_value=1e-6, max_value=1e6),
)
def test_event_inclusion_chain_on_arbitrary_draws(block, means, gamma):
    m, u = block
    jammer_means = np.array(means[:m])
    pair = PairParams(1.0, 1.0, 0.5)
    g_sd, g_se, g_je = _all_gains(pair, jammer_means, u)
    e_nonc = g_sd < g_se
    e_sc = _sc_intercept(g_je, gamma, g_sd[:, None], g_se[:, None])
    e_best = e_sc[np.arange(len(u)), g_je.argmax(axis=1)]
    assert not (e_best & ~e_sc.all(axis=1)).any()
    assert not (e_sc & ~e_nonc[:, None]).any()
    assert _chain_violations(gamma, pair, jammer_means, u.copy()) == 0
    nonc, rjs, ojs = _batch_events(pair, jammer_means, SCHEMES, gamma, u)
    assert not (ojs & ~rjs).any() and not (rjs & ~nonc).any()


# --- jammer selection -----------------------------------------------------


def test_select_jammer_optimal_examples():
    # at gamma = 2 with g_sd = 1 and g_se = 2, a jammer gain of 1 or more
    # stops the intercept, so in the first row only the strongest jammer
    # (1.7) can decide the event
    rows = [(1.0, 2.0, 0.2, 1.7, 0.9), (1.0, 2.0, 0.2, 0.3, 0.9)]
    assert _events(_unit_gain_rows(rows, 4), 3, "ojs", 2.0).tolist() == [False, True]
    for g_j in (0.2, 0.9, 1.7):
        single = _events(_unit_gain_rows([(1.0, 2.0, g_j)], 2), 1, "ojs", 2.0)
        assert single.tolist() == [g_j < 1.0]


def test_select_jammer_optimal_permutation_equivariance():
    rng = np.random.default_rng(11)
    n = 6
    u = _block(8, 0, n, 4000)
    means = 10.0 ** rng.uniform(-1.0, 1.0, n - 1)
    pair = PairParams(1.0, 2.0, 1.0 / n)
    base = _batch_events(pair, means, ("ojs",), 10.0, u)[0]
    for perm in (np.arange(n - 1)[::-1], rng.permutation(n - 1), rng.permutation(n - 1)):
        shuffled = u.copy()
        shuffled[:, 2 : n + 1] = u[:, 2 + perm]
        assert np.array_equal(_batch_events(pair, means[perm], ("ojs",), 10.0, shuffled)[0], base)


def test_tied_strongest_jammers_give_same_ojs_event():
    u = _block(12, 0, 4, 4000)
    u[:, 3] = u[:, 2]
    u[:, 4] = u[:, 2] * 0.5
    events = _events(u, 3, "ojs", 10.0)
    g_sd, g_se, g_je = _all_gains(UNIT_PAIR, np.ones(3), u)
    assert np.array_equal(events, _sc_intercept(g_je[:, 0], 10.0, g_sd, g_se))
    for tied in (2, 3):
        one_left = u.copy()
        one_left[:, tied] = 0.0
        assert np.array_equal(_events(one_left, 3, "ojs", 10.0), events)
    assert events.any() and not events.all()


def test_select_jammer_random_uniform():
    # equally spaced pick uniforms must spread exactly evenly over the
    # candidates, and the extreme uniforms must pick the first and last
    for m in (2, 3, 5, 7):
        u = _block(42, 0, m + 1, 300 * m + 2)
        u[:-2, m + 2] = (np.arange(300 * m) + 0.5) / (300 * m)
        u[-2:, m + 2] = 0.0, np.nextafter(1.0, 0.0)
        picks = _rjs_picks(u, m)
        assert (np.bincount(picks[:-2], minlength=m) == 300).all()
        assert picks[-2:].tolist() == [0, m - 1]


def test_select_jammer_random_single_candidate():
    # with one candidate the random pick is the optimal one
    u = _block(0, 0, 2, 5000)
    assert np.array_equal(_events(u, 1, "rjs", 10.0), _events(u, 1, "ojs", 10.0))
    assert (_rjs_picks(u, 1) == 0).all()
    # with none, both cooperative schemes fall back to the noncoop event
    for scheme in ("rjs", "ojs"):
        assert np.array_equal(_events(u, 0, scheme, 10.0), _events(u, 0, "nonc", 10.0))


def test_select_jammer_random_independent_of_gains():
    # contingency of the picked jammer vs the strongest jammer must look
    # independent: chi-square test not rejecting at alpha = 0.01
    cfg = make_symmetric_config(4, 1.0)
    u = _block(2024, 0, cfg.n_pairs, 30_000)
    _, _, g_je = _all_gains(cfg.pairs[0], _candidate_means(cfg, 0), u)
    table = np.zeros((3, 3), dtype=int)
    np.add.at(table, (_rjs_picks(u, 3), g_je.argmax(axis=1)), 1)
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
    trials = cfg.n_pairs * (3 * _batch_trials(cfg.n_pairs) + 1234)  # 4 batches per pair
    single = estimate_intercept(cfg, "ojs", 10.0, trials, 9, workers=1)
    multi = estimate_intercept(cfg, "ojs", 10.0, trials, 9, workers=4)
    assert single == multi


def test_estimator_batching_matches_single_pass():
    cfg = make_symmetric_config(2, 1.0)
    trials = cfg.n_pairs * (3 * _batch_trials(cfg.n_pairs) + 5000)  # 4 batches per pair
    per_pair = -(-trials // cfg.n_pairs)
    est = estimate_intercept(cfg, "nonc", 1.0, trials, 11)
    hits = []
    for i in range(cfg.n_pairs):
        u = _block(11, i, cfg.n_pairs, per_pair)
        g_sd = -np.log1p(-u[:, 0])
        g_se = -np.log1p(-u[:, 1])
        hits.append(int((g_sd < g_se).sum()))
    expected = math.fsum(0.5 * h / per_pair for h in hits)
    assert est.p_hat == expected


@pytest.mark.parametrize("scheme", ["rjs", "ojs"])
def test_wide_system_batches_match_single_block(scheme):
    # 64 pairs: one batch holds fewer trials than a pair runs, so every
    # pair spans three batches, split over two workers
    cfg = _random_config(np.random.default_rng(64), 64)
    n, gamma = cfg.n_pairs, 30.0
    per_pair = 2 * _batch_trials(n) + 321
    one = estimate_intercept(cfg, scheme, gamma, n * per_pair, 5, workers=1)
    two = estimate_intercept(cfg, scheme, gamma, n * per_pair, 5, workers=2)
    assert one == two
    hits = []
    for i in range(n):
        u = _block(5, i, n, per_pair)
        hits.append(int(_reference_events(cfg, i, scheme, gamma, u).sum()))
    assert one.p_hat == math.fsum(p.alpha * h / per_pair for p, h in zip(cfg.pairs, hits))


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
    # order each estimate must equal the all-columns reference on the raw
    # stream and the single-scheme call, field for field.  Small batches put
    # two batch boundaries inside every pair's trials.
    monkeypatch.setattr(simulate, "BATCH_BYTES", 1 << 14)
    rng = np.random.default_rng(9000 + n)
    cfg = _random_config(rng, n)
    gamma = 10.0 ** rng.uniform(-4.0, 8.0)
    step = _batch_trials(n)
    per_pair = 2 * step + int(rng.integers(1, step + 1))
    trials = n * per_pair - int(rng.integers(n))
    seed = int(rng.integers(2**64, dtype=np.uint64))
    blocks = [_block(seed, i, n, per_pair) for i in range(n)]
    reference = {
        scheme: _estimate_from_hits(cfg, scheme, gamma, [
            int(_reference_events(cfg, i, scheme, gamma, u).sum()) for i, u in enumerate(blocks)
        ], per_pair)
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
    # the kernel transforms only the uniforms each scheme reads; its events
    # must equal those of transforming every column, bit for bit
    rng = np.random.default_rng(7000 + n)
    for gamma in (1e-4, 10.0 ** rng.uniform(-4.0, 8.0), 1e8):
        cfg = _random_config(rng, n)
        i = int(rng.integers(n))
        u = rng.random((3000, draws_per_trial(n)))
        u[rng.random(u.shape) < 0.01] = 0.0
        # a third of the rows sit at the non-cooperative boundary: g_se
        # within a relative 1e-16..1e-2 of g_sd, on either side
        pair = cfg.pairs[i]
        rel = rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-16.0, -2.0, 1000)
        g_se = -pair.sigma2_sd * np.log1p(-u[:1000, 0]) * (1.0 + rel)
        u[:1000, 1] = np.minimum(-np.expm1(-g_se / pair.sigma2_se), np.nextafter(1.0, 0.0))
        means = _candidate_means(cfg, i)
        expected = [_reference_events(cfg, i, scheme, gamma, u) for scheme in SCHEMES]
        for scheme, want in zip(SCHEMES, expected):
            got = _batch_events(pair, means, (scheme,), gamma, u)[0]
            assert np.array_equal(got, want), (scheme, gamma)
        together = _batch_events(pair, means, SCHEMES, gamma, u)
        for scheme, got, want in zip(SCHEMES, together, expected):
            assert np.array_equal(got, want), (scheme, gamma)


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
    trials = cfg.n_pairs * (2 * _batch_trials(cfg.n_pairs) + 1)
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
        u = _block(seed, i, n, per_pair)
        g_sd, g_se, g_je = _all_gains(cfg.pairs[i], _candidate_means(cfg, i), u)
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
    for n, per_pair in ((2, _batch_trials(2) + 77), (3, 4000), (5, 3000), (64, 300)):
        cfg = _random_config(rng, n)
        gamma = 10.0 ** rng.uniform(-2.0, 4.0)
        seed = int(rng.integers(2**32))
        expected = _reference_violations(cfg, gamma, n * per_pair, seed)
        assert coupled_dominance_check(cfg, gamma, n * per_pair, seed) == expected
        assert (expected == 0) == chain_holds, (n, expected)
