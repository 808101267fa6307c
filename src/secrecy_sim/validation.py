"""Validation suite: the paper's results checked against independent references.

Each check returns (passed, detail); `run` evaluates them in table order.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from . import analytic, diversity, simulate, special
from .model import NONCOOP, SC_OJS, SC_RJS, SCHEMES, PairParams, SystemConfig, make_symmetric_config

__all__ = ["run"]


def _e1_quadrature_reference(x: float) -> float:
    """Adaptive-quadrature reference for E1, independent of the exp1 kernel.

    Uses exp(x)*E1(x) = integral of exp(-s)/(s+x) over s >= 0 for x >= 1 and
    the substitution t = x*e^v turning E1 into integral of exp(-x*(e^v - 1))
    times exp(-x) over v >= 0 for small x.
    """
    if x >= 1.0:
        scaled, _ = integrate.quad(
            lambda s: math.exp(-s) / (s + x), 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=400
        )
        return math.exp(-x) * scaled

    def integrand(v: float) -> float:
        with np.errstate(over="ignore"):
            t = x * float(np.expm1(v))
        return math.exp(-t) if t < 745.0 else 0.0

    scaled, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=400)
    return math.exp(-x) * scaled


def _e1_bounds(seed, trials, workers):
    # E1 leaves the normal range near x = 745, where its bracket turns into 0 <= 0 <= 0;
    # e1_scaled, which every closed form calls, switches to its tail series past 700
    xs = np.logspace(-6, 6, 241)
    head = xs[xs <= 700.0]
    ok = all(lo <= special.e1(x) <= hi for x, (lo, hi) in zip(head, map(special.e1_bounds, head)))
    scaled = special.e1_scaled(xs)
    ok = ok and bool(np.all((0.5 * np.log1p(2.0 / xs) <= scaled) & (scaled <= np.log1p(1.0 / xs))))
    return ok, "bracket holds for e1 on [1e-6, 700] and e1_scaled on [1e-6, 1e6], 241-point grid"


def _e1_quadrature(seed, trials, workers):
    xs = np.logspace(-8, math.log10(700.0), 40)
    refs = map(_e1_quadrature_reference, xs)
    worst = max(abs(special.e1(x) - ref) / ref for x, ref in zip(xs, refs))
    return worst <= 1e-12, f"max_rel={worst:.3e}"


def _oracle_grid():
    """Symmetric systems and SNRs on which closed forms meet their oracles."""
    for n in (2, 3, 4):
        for mer in (0.1, 1.0, 10.0):
            config = make_symmetric_config(n, mer)
            for gamma in np.logspace(-1, 12, 14):
                yield config, gamma


def _spread_config(n: int) -> SystemConfig:
    """N pairs of equal duty cycle, each gain 10^U(-2, 2) on its own, from numpy default_rng(0)."""
    gains = 10.0 ** np.random.default_rng(0).uniform(-2.0, 2.0, size=(n, 2))
    return SystemConfig(tuple(PairParams(*g, 1.0 / n) for g in gains.tolist()))


def _trapezoid_grid():
    """Systems past the OJS subset sum's 11 pairs, where the trapezoid answers, and SNRs."""
    configs = [
        make_symmetric_config(n, mer) for n in (12, 16, 64, 1024) for mer in (0.1, 1.0, 10.0)
    ]
    configs += [_spread_config(16), _spread_config(32)]
    for config in configs:
        for gamma in (1e-1, 1e3, 1e12):
            yield config, gamma


def _asymmetric_grid():
    """Systems of 3 to 11 pairs with distinct gains, where the OJS subset sum answers, and SNRs.

    On a symmetric system every pair has the same candidates, so a subset sum over the wrong
    candidates still meets the oracle there.
    """
    for n in range(3, 12):
        config = _spread_config(n)
        for gamma in (1e-1, 1e3, 1e12):
            yield config, gamma


def _rjs():
    # looked up when a check runs, so a patched closed form or oracle is the one checked
    return analytic.intercept_sc_rjs, analytic.intercept_sc_rjs_oracle


def _ojs():
    return analytic.intercept_sc_ojs, analytic.intercept_sc_ojs_oracle


def _oracle_equivalence(forms, grid=_oracle_grid):
    """Each (closed form, oracle) in forms within 1e-8 relative of each other at every point."""
    worst = 0.0
    for config, gamma in grid():
        for closed_form, oracle in forms:
            ref = oracle(config, gamma)
            worst = max(worst, abs(closed_form(config, gamma) - ref) / ref)
    return worst <= 1e-8, f"max_rel={worst:.3e}"


def _ordering_grid():
    """Systems on both sides of the OJS switch, down to SNRs where the schemes agree to rounding."""
    configs = [
        make_symmetric_config(n, mer) for n in (2, 3, 4, 8, 11, 12, 16) for mer in (0.1, 1.0, 10.0)
    ]
    configs += [_spread_config(8), _spread_config(16)]
    for config in configs:
        for gamma in np.logspace(-300, 12, 40):
            yield config, gamma


def _scheme_ordering(seed, trials, workers):
    # exact: the closed forms state the order themselves, so no rounding allowance
    ok = True
    for config, gamma in _ordering_grid():
        rjs = analytic.intercept_sc_rjs(config, gamma)
        ojs = analytic.intercept_sc_ojs(config, gamma)
        ok &= ojs <= rjs <= analytic.intercept_noncoop(config)
    return ok, "ojs <= rjs <= nonc on validation grid"


def _dominance(seed, trials, workers):
    config = make_symmetric_config(4, 1.0)
    violations = simulate.coupled_dominance_check(config, 10.0, 200_000, seed)
    return violations == 0, f"violations={violations}"


def _mc_consistency(seed, trials, workers):
    trials = max(trials, 100_000)
    # the retry's seed wraps, so the top seed 2**64 - 1 retries on 0
    for attempt_seed in (seed, (seed + 1) % 2**64):
        misses = []
        for n in (2, 4):
            for mer in (0.5, 1.0, 2.0):
                config = make_symmetric_config(n, mer)
                for gamma in (1.0, 10.0, 100.0):
                    estimates = simulate.estimate_intercepts(
                        config, SCHEMES, gamma, trials, attempt_seed, workers=workers
                    )
                    for scheme, est in zip(SCHEMES, estimates):
                        ref = analytic.scheme_intercept(config, scheme, gamma).value
                        if abs(est.p_hat - ref) > 3.0 * max(est.std_err, 1e-300):
                            misses.append((n, mer, gamma, scheme))
        if not misses:
            break
    return not misses, f"3-sigma misses={len(misses)} (retry-once rule)"


def _diversity(seed, trials, workers):
    # Finite-window estimates: the random-selection curve carries a
    # ln(gamma)/gamma factor (bias ~ 1/ln gamma), while for three or more
    # pairs the optimal-selection curve decays as a pure 1/gamma (the
    # alternating subset sum cancels the log term), so the two estimates are
    # only compared where the schemes provably coincide (two pairs).
    window = diversity.DEFAULT_WINDOW
    config = make_symmetric_config(4, 1.0)
    d_nonc = diversity.fit_diversity(NONCOOP, config, window).diversity
    d_rjs = diversity.fit_diversity(SC_RJS, config, window).diversity
    d_ojs = diversity.fit_diversity(SC_OJS, config, window).diversity
    two_pair = make_symmetric_config(2, 1.0)
    d_rjs2 = diversity.fit_diversity(SC_RJS, two_pair, window).diversity
    d_ojs2 = diversity.fit_diversity(SC_OJS, two_pair, window).diversity
    ok = (
        abs(d_nonc) <= 1e-8
        and 0.85 <= d_rjs <= 1.0
        and 0.85 <= d_ojs <= 1.0
        and abs(d_rjs2 - d_ojs2) <= 0.02
    )
    return ok, f"nonc={d_nonc:.2e} rjs={d_rjs:.4f} ojs={d_ojs:.4f}"


_CHECKS = (
    ("e1-bounds", _e1_bounds),
    ("e1-quadrature", _e1_quadrature),
    ("oracle-equivalence-rjs", lambda *_: _oracle_equivalence([_rjs()])),
    ("oracle-equivalence-ojs", lambda *_: _oracle_equivalence([_ojs()])),
    ("scheme-ordering", _scheme_ordering),
    ("dominance", _dominance),
    ("mc-consistency", _mc_consistency),
    ("diversity", _diversity),
    ("oracle-equivalence-ojs-trapezoid", lambda *_: _oracle_equivalence([_ojs()], _trapezoid_grid)),
    ("oracle-equivalence-asymmetric",
     lambda *_: _oracle_equivalence([_rjs(), _ojs()], _asymmetric_grid)),
)


def run(seed: int, trials: int, workers: int) -> list[dict]:
    """One {"check", "passed", "detail"} row per check, in table order.

    A check that raises fails under its own name, with the exception as its detail.
    """
    rows = []
    for name, check in _CHECKS:
        try:
            passed, detail = check(seed, trials, workers)
        except Exception as exc:  # a crashing check is a failing check
            passed, detail = False, f"exception: {exc}"
        rows.append({"check": name, "passed": bool(passed), "detail": detail})
    return rows
