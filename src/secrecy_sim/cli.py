"""Experiment harness: deterministic CSV sweeps and a validation suite.

Each experiment evaluates the closed-form intercept probabilities (and,
unless --trials 0 is given, a Monte Carlo cross-check) over a parameter
grid and writes CSV with a versioned header line.  Identical flags and seed
produce byte-identical output regardless of worker count.

Config file grammar (--config), one statement per line, '#' comments:

    symmetric N MER          symmetric system shorthand
    SD_GAIN SE_GAIN ALPHA    one explicit pair per line
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np
from scipy import integrate

from . import analytic, diversity, simulate
from .model import (
    NONCOOP,
    SC_OJS,
    SC_RJS,
    SCHEMES,
    SystemConfig,
    load_config,
    make_symmetric_config,
)
from .special import e1, e1_bounds

__all__ = ["main"]

CSV_VERSION_LINE = "# secrecy-sim v1"

EXPERIMENTS = ("fig2", "fig3", "fig4", "fig5", "fig6", "sweep", "validate")

_MIN_MC_TRIALS = 1000
_MAX_GRID_POINTS = 1_000_000


def _db_to_linear(db: float) -> float:
    """Convert dB to linear, refusing results outside the positive finite floats."""
    try:
        value = 10.0 ** (db / 10.0)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ValueError(f"{db:g} dB is outside the range of positive finite floats")
    return value


def _parse_grid(text: str) -> list[float]:
    """Parse 'lo:hi:step' (inclusive endpoints) or a single value."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be 'lo:hi:step', got {text!r}")
        lo, hi, step = (float(p) for p in parts)
        if step <= 0 or hi < lo:
            raise ValueError(f"bad grid bounds in {text!r}")
        span = (hi - lo) / step
        if not span <= _MAX_GRID_POINTS:
            raise ValueError(f"grid {text!r} has more than {_MAX_GRID_POINTS} points")
        count = int(round(span))
        values = [lo + k * step for k in range(count + 1)]
        if values[-1] > hi + 1e-9:
            values.pop()
        return values
    return [float(text)]


def _parse_symmetric(tokens: list[str]) -> tuple[int, float]:
    n = None
    mer = None
    for tok in tokens:
        key, _, value = tok.partition("=")
        if key.upper() == "N":
            n = int(value)
        elif key.upper() == "MER":
            mer = float(value)
        else:
            raise ValueError(f"expected N=.. or MER=.., got {tok!r}")
    if n is None or mer is None:
        raise ValueError("--symmetric needs both N=.. and MER=..")
    return n, mer


def _parse_seed(text: str) -> int:
    return int(text, 0)


def _resolve_config(args) -> SystemConfig:
    if args.config and args.symmetric:
        raise ValueError("--config and --symmetric are mutually exclusive")
    if args.config:
        return load_config(args.config)
    if args.symmetric:
        n, mer = _parse_symmetric(args.symmetric)
        return make_symmetric_config(n, mer)
    return make_symmetric_config(4, 1.0)


def _selected_schemes(args) -> list[str]:
    names = [s.strip() for s in args.schemes.split(",") if s.strip()]
    for name in names:
        if name not in SCHEMES:
            raise ValueError(f"unknown scheme {name!r} (choose from {', '.join(SCHEMES)})")
    # Canonical order keeps output sorting deterministic.
    return [s for s in SCHEMES if s in names]


def _fmt_axis(value: float) -> str:
    return f"{value:g}"


def _fmt_prob(value: float) -> str:
    return f"{value:.12e}"


def _fmt_err(value: float) -> str:
    return f"{value:.6e}"


def _write_csv(out_path: str | None, fieldnames: list[str], rows: list[dict]) -> None:
    lines = [CSV_VERSION_LINE, ",".join(fieldnames)]
    lines.extend(",".join(row[f] for f in fieldnames) for row in rows)
    payload = "\n".join(lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(payload)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)


def _scheme_cells(config, scheme, gamma, args) -> dict:
    cell = {
        "scheme": scheme,
        "p_analytic": _fmt_prob(analytic.scheme_intercept(config, scheme, gamma).value),
    }
    if args.trials > 0:
        est = simulate.estimate_intercept(
            config, scheme, gamma, args.trials, args.seed, workers=args.workers
        )
        cell["p_mc"] = _fmt_prob(est.p_hat)
        cell["mc_stderr"] = _fmt_err(est.std_err)
    return cell


def _mc_fields(args) -> list[str]:
    return ["p_mc", "mc_stderr"] if args.trials > 0 else []


def _gamma_grid(args, default: str) -> list[float]:
    return _parse_grid(args.gamma_db if args.gamma_db else default)


def _mer_grid(args, default: str) -> list[float]:
    return _parse_grid(args.mer_db if args.mer_db else default)


def run_fig2(args) -> int:
    """Intercept probability versus SNR for all schemes."""
    config = _resolve_config(args)
    rows = []
    for gamma_db in _gamma_grid(args, "0:40:2"):
        gamma = _db_to_linear(gamma_db)
        for scheme in _selected_schemes(args):
            rows.append({"gamma_db": _fmt_axis(gamma_db)} | _scheme_cells(config, scheme, gamma, args))
    _write_csv(args.out, ["gamma_db", "scheme", "p_analytic"] + _mc_fields(args), rows)
    return 0


def run_sweep(args) -> int:
    return run_fig2(args)


def _symmetric_mer(args) -> float:
    if args.symmetric:
        return _parse_symmetric(args.symmetric)[1]
    return 1.0


def _require_no_config_file(args, experiment: str) -> None:
    if args.config:
        raise ValueError(f"{experiment} sweeps the pair count; use --symmetric, not --config")


def run_fig3(args) -> int:
    """Intercept probability versus number of pairs at fixed SNR."""
    _require_no_config_file(args, "fig3")
    gamma = _db_to_linear(_gamma_grid(args, "10")[0])
    mer = _symmetric_mer(args)
    rows = []
    for n in range(1, 9):
        config = make_symmetric_config(n, mer)
        for scheme in _selected_schemes(args):
            rows.append({"n": str(n)} | _scheme_cells(config, scheme, gamma, args))
    _write_csv(args.out, ["n", "scheme", "p_analytic"] + _mc_fields(args), rows)
    return 0


def run_fig4(args) -> int:
    """Intercept probability versus MER at fixed SNR.

    Defaults to -10 dB SNR: in that regime the jamming-to-noise ratio is
    small, so the three schemes' curves converge relatively at high MER as
    well as absolutely.  At larger SNR the cooperative schemes keep a
    roughly constant relative advantage (ratio ~ 2*e1_scaled(2/gamma)/gamma)
    however large the MER gets; pass --gamma-db to sweep that regime.
    """
    if args.config:
        raise ValueError("fig4 sweeps the MER; use --symmetric N=.., not --config")
    n = _parse_symmetric(args.symmetric)[0] if args.symmetric else 4
    gamma = _db_to_linear(_gamma_grid(args, "-10")[0])
    rows = []
    for mer_db in _mer_grid(args, "-10:30:2"):
        config = make_symmetric_config(n, _db_to_linear(mer_db))
        for scheme in _selected_schemes(args):
            rows.append({"mer_db": _fmt_axis(mer_db)} | _scheme_cells(config, scheme, gamma, args))
    _write_csv(args.out, ["mer_db", "scheme", "p_analytic"] + _mc_fields(args), rows)
    return 0


def run_fig5(args) -> int:
    """Intercept probability versus SNR for several MER values."""
    if args.config:
        raise ValueError("fig5 sweeps the MER; use --symmetric N=.., not --config")
    n = _parse_symmetric(args.symmetric)[0] if args.symmetric else 4
    rows = []
    for mer_db in _mer_grid(args, "-5:5:10"):
        config = make_symmetric_config(n, _db_to_linear(mer_db))
        for gamma_db in _gamma_grid(args, "0:40:2"):
            gamma = _db_to_linear(gamma_db)
            for scheme in _selected_schemes(args):
                rows.append(
                    {"mer_db": _fmt_axis(mer_db), "gamma_db": _fmt_axis(gamma_db)}
                    | _scheme_cells(config, scheme, gamma, args)
                )
    _write_csv(args.out, ["mer_db", "gamma_db", "scheme", "p_analytic"] + _mc_fields(args), rows)
    return 0


def run_fig6(args) -> int:
    """Intercept probability versus number of pairs for several MER values."""
    _require_no_config_file(args, "fig6")
    gamma = _db_to_linear(_gamma_grid(args, "10")[0])
    rows = []
    for mer_db in _mer_grid(args, "-5:5:10"):
        mer = _db_to_linear(mer_db)
        for n in range(1, 9):
            config = make_symmetric_config(n, mer)
            for scheme in _selected_schemes(args):
                rows.append(
                    {"mer_db": _fmt_axis(mer_db), "n": str(n)}
                    | _scheme_cells(config, scheme, gamma, args)
                )
    _write_csv(args.out, ["mer_db", "n", "scheme", "p_analytic"] + _mc_fields(args), rows)
    return 0


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


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"check": name, "passed": bool(passed), "detail": detail}


def _check_e1_bounds(args) -> list[dict]:
    xs = np.logspace(-6, 3, 200)
    ok = all(e1_bounds(x).contains(e1(x)) for x in xs)
    return [_check("e1-bounds", ok, "bracket holds on 200-point grid [1e-6, 1e3]")]


def _check_e1_quadrature(args) -> list[dict]:
    xs = np.logspace(-8, math.log10(700.0), 40)
    worst = max(
        abs(e1(x) - _e1_quadrature_reference(x)) / _e1_quadrature_reference(x) for x in xs
    )
    return [_check("e1-quadrature", worst <= 1e-12, f"max_rel={worst:.3e}")]


def _check_oracles_and_ordering(args) -> list[dict]:
    gammas = np.logspace(-1, 6, 7)
    worst_rjs = 0.0
    worst_ojs = 0.0
    ordering_ok = True
    for n in (2, 3, 4):
        for mer in (0.1, 1.0, 10.0):
            config = make_symmetric_config(n, mer)
            for gamma in gammas:
                rjs = analytic.intercept_sc_rjs(config, gamma)
                ojs = analytic.intercept_sc_ojs(config, gamma)
                rjs_ref = analytic.intercept_sc_rjs_oracle(config, gamma)
                ojs_ref = analytic.intercept_sc_ojs_oracle(config, gamma)
                worst_rjs = max(worst_rjs, abs(rjs - rjs_ref) / rjs_ref)
                worst_ojs = max(worst_ojs, abs(ojs - ojs_ref) / ojs_ref)
                nonc = analytic.intercept_noncoop(config)
                tol = 1e-12 * nonc
                ordering_ok &= ojs <= rjs + tol and rjs <= nonc + tol
    return [
        _check("oracle-equivalence-rjs", worst_rjs <= 1e-8, f"max_rel={worst_rjs:.3e}"),
        _check("oracle-equivalence-ojs", worst_ojs <= 1e-8, f"max_rel={worst_ojs:.3e}"),
        _check("scheme-ordering", ordering_ok, "ojs <= rjs <= nonc on validation grid"),
    ]


def _check_dominance(args) -> list[dict]:
    config = make_symmetric_config(4, 1.0)
    violations = simulate.coupled_dominance_check(config, 10.0, 200_000, args.seed)
    return [_check("dominance", violations == 0, f"violations={violations}")]


def _check_mc_consistency(args) -> list[dict]:
    trials = max(args.trials, 100_000)
    misses = []
    for seed in (args.seed, args.seed + 1):
        misses = []
        for n in (2, 4):
            for mer in (0.5, 1.0, 2.0):
                config = make_symmetric_config(n, mer)
                for gamma in (1.0, 10.0, 100.0):
                    for scheme in SCHEMES:
                        est = simulate.estimate_intercept(
                            config, scheme, gamma, trials, seed, workers=args.workers
                        )
                        ref = analytic.scheme_intercept(config, scheme, gamma).value
                        if abs(est.p_hat - ref) > 3.0 * max(est.std_err, 1e-300):
                            misses.append((n, mer, gamma, scheme))
        if not misses:
            break
    return [
        _check("mc-consistency", not misses, f"3-sigma misses={len(misses)} (retry-once rule)")
    ]


def _check_diversity(args) -> list[dict]:
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
    return [_check("diversity", ok, f"nonc={d_nonc:.2e} rjs={d_rjs:.4f} ojs={d_ojs:.4f}")]


_VALIDATION_BLOCKS = (
    ("e1-bounds", _check_e1_bounds),
    ("e1-quadrature", _check_e1_quadrature),
    ("oracle-equivalence-ojs", _check_oracles_and_ordering),
    ("dominance", _check_dominance),
    ("mc-consistency", _check_mc_consistency),
    ("diversity", _check_diversity),
)


def _validate_checks(args) -> list[dict]:
    checks: list[dict] = []
    for name, block in _VALIDATION_BLOCKS:
        try:
            checks.extend(block(args))
        except Exception as exc:  # a crashing check is a failing check
            checks.append(_check(name, False, f"exception: {exc}"))
    return checks


def run_validate(args) -> int:
    checks = _validate_checks(args)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} {c['check']}: {c['detail']}")
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            for c in checks:
                fh.write(json.dumps(c, sort_keys=True) + "\n")
    failed = [c["check"] for c in checks if not c["passed"]]
    if failed:
        print(f"FAILED checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


_RUNNERS = {
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "sweep": run_sweep,
    "validate": run_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secrecy-sim",
        description="Intercept-probability sweeps for spectrum sharing under cooperative jamming.",
    )
    parser.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    parser.add_argument("--config", help="path to a pair-list config file")
    parser.add_argument(
        "--symmetric",
        nargs=2,
        metavar=("N=..", "MER=.."),
        help="symmetric system, e.g. --symmetric N=4 MER=1.0",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=10_000,
        help="Monte Carlo trials per grid point; 0 disables MC columns",
    )
    parser.add_argument(
        "--seed", type=_parse_seed, default=42, help="64-bit seed, decimal or 0x-hex"
    )
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument(
        "--gamma-db",
        help="SNR grid 'lo:hi:step' in dB, or one value; fixed-SNR "
        "experiments (fig3/fig4/fig6) use the first grid value",
    )
    parser.add_argument("--mer-db", help="MER grid 'lo:hi:step' in dB, or one value")
    parser.add_argument(
        "--schemes", default="nonc,rjs,ojs", help="comma list from: nonc,rjs,ojs"
    )
    parser.add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if 0 < args.trials < _MIN_MC_TRIALS:
        print(f"--trials must be 0 or >= {_MIN_MC_TRIALS}", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    try:
        return _RUNNERS[args.experiment](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
