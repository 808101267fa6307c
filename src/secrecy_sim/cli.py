"""Command line: deterministic CSV sweeps and the validation report.

Each figure experiment writes CSV with a versioned header line: closed-form
intercept probabilities over a grid and, unless --trials 0, a Monte Carlo
cross-check; identical flags and seed give identical bytes at any worker
count.  `validate` prints one line per check of `secrecy_sim.validation`.

Config file grammar (--config), one statement per line, '#' comments:

    symmetric N MER          symmetric system shorthand
    SD_GAIN SE_GAIN ALPHA    one explicit pair per line
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass

from . import analytic, simulate, validation
from .model import (
    SCHEMES, load_config, make_symmetric_config, require_scheme, require_seed,
)

__all__ = ["main"]

CSV_VERSION_LINE = "# secrecy-sim v2"

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
        if not (step > 0 and hi >= lo):
            raise ValueError(f"bad grid bounds in {text!r}")
        span = (hi - lo) / step
        if span <= _MAX_GRID_POINTS:  # bounds the list before it is built
            values = [lo + k * step for k in range(int(round(span)) + 1)]
            if values[-1] > hi + 1e-9:
                values.pop()
            if len(values) <= _MAX_GRID_POINTS:
                return values
        raise ValueError(f"grid {text!r} has more than {_MAX_GRID_POINTS} points")
    return [float(text)]


def _parse_symmetric(tokens: list[str]) -> tuple[int, float]:
    n = None
    mer = None
    try:
        for tok in tokens:
            key, _, value = tok.partition("=")
            if key.upper() == "N":
                n = int(value)
            elif key.upper() == "MER":
                mer = float(value)
            else:
                raise ValueError(f"expected N=.. or MER=.., got {tok!r}")
        if n is None or mer is None:
            raise ValueError("needs both N=.. and MER=..")
        make_symmetric_config(n, mer)
    except ValueError as exc:
        raise ValueError(f"--symmetric: {exc}") from None
    return n, mer


def _parse_seed(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a decimal or 0x-hex integer, got {text!r}"
        ) from None


def _selected_schemes(args) -> list[str]:
    if args.schemes is None:
        return list(SCHEMES)
    names = [require_scheme(s.strip()) for s in args.schemes.split(",") if s.strip()]
    if not names:
        raise ValueError("--schemes names no scheme")
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


@dataclass(frozen=True)
class _Grid:
    """One experiment: its swept axes, outermost first, and default grids.

    Axes are drawn from "mer_db", "n" (pairs 1..8) and "gamma_db".  Without
    a "gamma_db" axis the SNR is fixed at the first value of the SNR grid.
    """

    axes: tuple[str, ...]
    gamma_db: str
    mer_db: str | None = None


_GRIDS = {
    "fig2": _Grid(axes=("gamma_db",), gamma_db="0:40:2"),
    "fig3": _Grid(axes=("n",), gamma_db="10"),
    # -10 dB SNR: there the jamming-to-noise ratio is small, so the three
    # schemes' curves converge relatively at high MER as well as absolutely.
    # At larger SNR the cooperative schemes keep a roughly constant relative
    # advantage (ratio ~ 2*e1_scaled(2/gamma)/gamma) however large the MER
    # gets; pass --gamma-db to sweep that regime.
    "fig4": _Grid(axes=("mer_db",), gamma_db="-10", mer_db="-10:30:2"),
    "fig5": _Grid(axes=("mer_db", "gamma_db"), gamma_db="0:40:2", mer_db="-5:5:10"),
    "fig6": _Grid(axes=("mer_db", "n"), gamma_db="10", mer_db="-5:5:10"),
}
_GRIDS["sweep"] = _GRIDS["fig2"]


def _refuse_unread(args, ignored: dict) -> None:
    """Refuse the first flag that was given although the experiment ignores it."""
    for flag, given in ignored.items():
        if given:
            raise ValueError(f"{args.experiment} does not read {flag}")


def run_grid(args) -> int:
    """Every selected scheme at every point of the experiment's axis product.

    The system comes from --config or --symmetric when the SNR is the only
    axis; otherwise each point is a symmetric system whose pair count and
    MER come from the swept axes, the rest from --symmetric (default N=4,
    MER=1).  A flag the experiment would ignore, or a grid of more than
    _MAX_GRID_POINTS points on one axis or in all, is refused before any
    point runs.
    """
    grid = _GRIDS[args.experiment]
    _refuse_unread(args, {
        "--config": args.config and grid.axes != ("gamma_db",),
        "--symmetric": args.symmetric and {"n", "mer_db"} <= set(grid.axes),
        "--mer-db": args.mer_db and "mer_db" not in grid.axes,
    })
    if args.config and args.symmetric:
        raise ValueError("--config and --symmetric are mutually exclusive")
    n, mer = _parse_symmetric(args.symmetric) if args.symmetric else (4, 1.0)
    fixed = load_config(args.config) if args.config else None
    grids = {"gamma_db": args.gamma_db or grid.gamma_db, "mer_db": args.mer_db or grid.mer_db}
    first_gamma_db = _parse_grid(grids["gamma_db"])[0]
    axes = [range(1, 9) if axis == "n" else _parse_grid(grids[axis]) for axis in grid.axes]
    if math.prod(map(len, axes)) > _MAX_GRID_POINTS:
        raise ValueError(f"{args.experiment} grid has more than {_MAX_GRID_POINTS} points")
    schemes = _selected_schemes(args)
    rows = []
    for point in itertools.product(*axes):
        at = dict(zip(grid.axes, point))
        gamma = _db_to_linear(at.get("gamma_db", first_gamma_db))
        config = fixed
        if config is None:
            point_mer = _db_to_linear(at["mer_db"]) if "mer_db" in at else mer
            config = make_symmetric_config(at.get("n", n), point_mer)
        axis_cells = {axis: _fmt_axis(value) for axis, value in at.items()}
        cells = [
            axis_cells | {"scheme": scheme, "p_analytic": _fmt_prob(closed.value)}
            for scheme, closed in zip(schemes, analytic.intercepts(config, schemes, gamma))
        ]
        if args.trials > 0:
            estimates = simulate.estimate_intercepts(
                config, schemes, gamma, args.trials, args.seed, workers=args.workers
            )
            for cell, est in zip(cells, estimates):
                cell |= {"p_mc": _fmt_prob(est.p_hat), "mc_stderr": _fmt_err(est.std_err)}
        rows.extend(cells)
    mc_fields = ["p_mc", "mc_stderr"] if args.trials > 0 else []
    _write_csv(args.out, [*grid.axes, "scheme", "p_analytic", *mc_fields], rows)
    return 0


def run_validate(args) -> int:
    _refuse_unread(args, {
        "--config": args.config,
        "--symmetric": args.symmetric,
        "--gamma-db": args.gamma_db,
        "--mer-db": args.mer_db,
        "--schemes": args.schemes is not None,
    })
    checks = validation.run(args.seed, args.trials, args.workers)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secrecy-sim",
        description="Intercept-probability sweeps for spectrum sharing under cooperative jamming.",
    )
    parser.add_argument("--experiment", required=True, choices=[*_GRIDS, "validate"])
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
    parser.add_argument("--schemes", help="comma list from: nonc,rjs,ojs")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=f"Monte Carlo worker threads, 1..{simulate.MAX_WORKERS}; never changes results",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.trials != 0 and args.trials < _MIN_MC_TRIALS:
        print(f"--trials must be 0 or >= {_MIN_MC_TRIALS}", file=sys.stderr)
        return 2
    if not 1 <= args.workers <= simulate.MAX_WORKERS:
        print(f"--workers must be between 1 and {simulate.MAX_WORKERS}", file=sys.stderr)
        return 2
    try:
        require_seed(args.seed)
        if args.experiment == "validate":
            return run_validate(args)
        return run_grid(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
