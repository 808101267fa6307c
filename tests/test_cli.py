from __future__ import annotations

import hashlib
import json
import re

import pytest

from secrecy_sim import analytic, simulate, special, validation
from secrecy_sim.cli import _parse_grid, _parse_symmetric, build_parser, main
from secrecy_sim.model import MAX_PAIRS, SystemConfig, load_config, make_symmetric_config
from secrecy_sim.special import e1_scaled

from ojs_subsets import SubsetIterator, phi_ojs


def _rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# secrecy-sim v2"
    header = lines[1].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[2:]]


# --- flag parsing --------------------------------------------------------------


def test_parse_grid_range_and_single():
    assert _parse_grid("0:40:2") == [float(v) for v in range(0, 41, 2)]
    assert _parse_grid("10") == [10.0]
    assert _parse_grid("-5:5:10") == [-5.0, 5.0]
    # the rounded point count overshoots hi, so the last point is dropped
    assert _parse_grid("0:1:0.6") == [0.0, 0.6]
    with pytest.raises(ValueError):
        _parse_grid("0:40")
    with pytest.raises(ValueError):
        _parse_grid("40:0:2")
    with pytest.raises(ValueError):
        _parse_grid("0:10:-1")
    for text in ("nan:10:2", "0:10:nan"):
        with pytest.raises(ValueError, match="bad grid bounds"):
            _parse_grid(text)
    # at most 1000000 points, endpoints included
    assert len(_parse_grid("0:999999:1")) == 1_000_000
    with pytest.raises(ValueError, match="has more than 1000000 points"):
        _parse_grid("0:1000000:1")


def test_grid_of_too_many_points_in_all_is_refused_before_any_point(monkeypatch, capsys):
    # 1001 MER x 1001 SNR values: each axis fits, their product of 1002001 points does not
    def unreachable(*args):
        raise AssertionError("a point ran")

    monkeypatch.setattr(analytic, "intercepts", unreachable)
    argv = ["--experiment", "fig5", "--mer-db=-5:5:0.01", "--gamma-db", "0:1000:1", "--trials", "0"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: fig5 grid has more than 1000000 points\n"


def test_parse_symmetric_order_insensitive():
    assert _parse_symmetric(["N=4", "MER=1.0"]) == (4, 1.0)
    assert _parse_symmetric(["MER=0.5", "N=2"]) == (2, 0.5)
    with pytest.raises(ValueError):
        _parse_symmetric(["N=4", "X=1"])
    with pytest.raises(ValueError):
        _parse_symmetric(["N=4", "N=5"])


def test_seed_accepts_hex():
    args = build_parser().parse_args(["--experiment", "fig2", "--seed", "0x2A"])
    assert args.seed == 42


def test_unparsable_seed_error_names_the_flag_and_the_format(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--experiment", "fig2", "--trials", "0", "--seed", "abc"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: expected a decimal or 0x-hex integer, got 'abc'" in err
    assert "_parse_seed" not in err


# --- figure experiments ----------------------------------------------------


def test_fig2_analytic_only_schema_and_content(tmp_path):
    out = tmp_path / "fig2.csv"
    rc = main(
        ["--experiment", "fig2", "--out", str(out), "--trials", "0", "--gamma-db", "0:20:5"]
    )
    assert rc == 0
    header, rows = _rows(out)
    assert header == ["gamma_db", "scheme", "p_analytic"]
    assert len(rows) == 5 * 3
    nonc = [float(r["p_analytic"]) for r in rows if r["scheme"] == "nonc"]
    assert all(v == 0.5 for v in nonc)
    for scheme in ("rjs", "ojs"):
        curve = [float(r["p_analytic"]) for r in rows if r["scheme"] == scheme]
        assert all(b < a for a, b in zip(curve, curve[1:]))


def test_fig2_mc_columns_and_agreement(tmp_path):
    out = tmp_path / "fig2.csv"
    rc = main(
        [
            "--experiment", "fig2", "--out", str(out),
            "--trials", "20000", "--seed", "42", "--gamma-db", "0:20:4",
        ]
    )
    assert rc == 0
    header, rows = _rows(out)
    assert header == ["gamma_db", "scheme", "p_analytic", "p_mc", "mc_stderr"]
    misses = sum(
        abs(float(r["p_mc"]) - float(r["p_analytic"])) > 3.0 * float(r["mc_stderr"])
        for r in rows
    )
    assert misses / len(rows) <= 0.01


def test_fig2_byte_identical_across_runs_and_workers(tmp_path):
    argv = ["--experiment", "fig2", "--trials", "10000", "--seed", "7", "--gamma-db", "0:10:5"]
    paths = [tmp_path / f"fig2_{k}.csv" for k in range(3)]
    assert main(argv + ["--out", str(paths[0])]) == 0
    assert main(argv + ["--out", str(paths[1])]) == 0
    assert main(argv + ["--out", str(paths[2]), "--workers", "3"]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_fig3_pair_count_sweep(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["--experiment", "fig3", "--out", str(out), "--trials", "0"]) == 0
    header, rows = _rows(out)
    assert header == ["n", "scheme", "p_analytic"]
    by = {(r["n"], r["scheme"]): float(r["p_analytic"]) for r in rows}
    assert by[("1", "rjs")] == by[("1", "nonc")] == by[("1", "ojs")]
    rjs = [by[(str(n), "rjs")] for n in range(2, 9)]
    assert all(v == pytest.approx(rjs[0], rel=1e-14, abs=0.0) for v in rjs)
    ojs = [by[(str(n), "ojs")] for n in range(2, 9)]
    assert all(b <= a for a, b in zip(ojs, ojs[1:]))
    assert by[("8", "ojs")] <= by[("2", "ojs")]


def test_fig4_mer_sweep(tmp_path):
    out = tmp_path / "fig4.csv"
    assert main(["--experiment", "fig4", "--out", str(out), "--trials", "0"]) == 0
    header, rows = _rows(out)
    assert header == ["mer_db", "scheme", "p_analytic"]
    for r in rows:
        if r["scheme"] == "nonc":
            mer = 10.0 ** (float(r["mer_db"]) / 10.0)
            assert float(r["p_analytic"]) == pytest.approx(1.0 / (1.0 + mer), rel=1e-12, abs=0.0)
    by = {(r["mer_db"], r["scheme"]): float(r["p_analytic"]) for r in rows}
    for mer_db in {r["mer_db"] for r in rows}:
        assert by[(mer_db, "ojs")] <= by[(mer_db, "rjs")] <= by[(mer_db, "nonc")]
    for scheme in ("nonc", "rjs", "ojs"):
        curve = [float(r["p_analytic"]) for r in rows if r["scheme"] == scheme]
        assert all(b <= a for a, b in zip(curve, curve[1:]))
    # at the default low-SNR operating point the schemes converge at high
    # MER: relative gap under 10% at 30 dB
    gap = (by[("30", "nonc")] - by[("30", "ojs")]) / by[("30", "nonc")]
    assert gap < 0.10


def test_fig5_snr_sweep_per_mer(tmp_path):
    out = tmp_path / "fig5.csv"
    assert main(
        ["--experiment", "fig5", "--out", str(out), "--trials", "0", "--gamma-db", "0:30:10"]
    ) == 0
    header, rows = _rows(out)
    assert header == ["mer_db", "gamma_db", "scheme", "p_analytic"]
    assert {r["mer_db"] for r in rows} == {"-5", "5"}
    for mer_db in ("-5", "5"):
        nonc = [float(r["p_analytic"]) for r in rows if r["mer_db"] == mer_db and r["scheme"] == "nonc"]
        assert len(set(nonc)) == 1
        for scheme in ("rjs", "ojs"):
            curve = [
                float(r["p_analytic"])
                for r in rows
                if r["mer_db"] == mer_db and r["scheme"] == scheme
            ]
            assert all(b < a for a, b in zip(curve, curve[1:]))
    by = {(r["mer_db"], r["gamma_db"], r["scheme"]): float(r["p_analytic"]) for r in rows}
    for (mer_db, gamma_db, _), _v in by.items():
        assert by[(mer_db, gamma_db, "ojs")] <= by[(mer_db, gamma_db, "rjs")]
        assert by[(mer_db, gamma_db, "rjs")] <= by[(mer_db, gamma_db, "nonc")]


def test_fig6_pair_sweep_per_mer(tmp_path):
    out = tmp_path / "fig6.csv"
    assert main(["--experiment", "fig6", "--out", str(out), "--trials", "0"]) == 0
    header, rows = _rows(out)
    assert header == ["mer_db", "n", "scheme", "p_analytic"]
    by = {(r["mer_db"], r["n"], r["scheme"]): float(r["p_analytic"]) for r in rows}
    for mer_db in ("-5", "5"):
        nonc = [by[(mer_db, str(n), "nonc")] for n in range(2, 9)]
        rjs = [by[(mer_db, str(n), "rjs")] for n in range(2, 9)]
        assert len(set(nonc)) == 1
        assert all(v == pytest.approx(rjs[0], rel=1e-14, abs=0.0) for v in rjs)
        ojs = [by[(mer_db, str(n), "ojs")] for n in range(2, 9)]
        assert all(b <= a for a, b in zip(ojs, ojs[1:]))
        ratio = by[(mer_db, "8", "ojs")] / by[(mer_db, "4", "ojs")]
        assert 0.5 <= ratio <= 1.0


def test_sweep_with_config_file(tmp_path):
    cfg_path = tmp_path / "pairs.cfg"
    cfg_path.write_text("2.0 1.0 0.5\n1.0 1.0 0.5\n", encoding="utf-8")
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "--experiment", "sweep", "--config", str(cfg_path),
            "--out", str(out), "--trials", "0", "--gamma-db", "10", "--schemes", "rjs",
        ]
    )
    assert rc == 0
    header, rows = _rows(out)
    assert header == ["gamma_db", "scheme", "p_analytic"]
    assert len(rows) == 1
    from secrecy_sim.model import PairParams, SystemConfig

    expected = analytic.intercept_sc_rjs(
        SystemConfig(pairs=(PairParams(2.0, 1.0, 0.5), PairParams(1.0, 1.0, 0.5))), 10.0
    )
    assert float(rows[0]["p_analytic"]) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_golden_csv_bytes(tmp_path):
    out = tmp_path / "golden.csv"
    rc = main(
        [
            "--experiment", "sweep", "--out", str(out), "--trials", "0",
            "--gamma-db", "10", "--symmetric", "N=2", "MER=1",
        ]
    )
    assert rc == 0
    assert out.read_bytes() == (
        b"# secrecy-sim v2\n"
        b"gamma_db,scheme,p_analytic\n"
        b"10,nonc,5.000000000000e-01\n"
        b"10,rjs,2.095656016912e-01\n"
        b"10,ojs,2.095656016912e-01\n"
    )


# SHA-256 of each experiment's CSV, Monte Carlo columns included, recorded
# when the Monte Carlo stream moved to layout v2 (one word per run of equal
# jammers), which changed every p_mc and mc_stderr cell and the header.
_PINNED_CSV = {
    "fig2": (
        ["--gamma-db", "0:10:5"],
        "b0c45616f2c8eb9f8a7ed8c47338a555aa3bc3982f7aff0d18e3f3e69298537a",
    ),
    "fig3": (
        ["--gamma-db", "5:15:5"],
        "71d480b5dd8646762e2faa7f5bc2cf60f6e3a1da105657696a8e2fb825f8e592",
    ),
    "fig4": (
        ["--mer-db=-10:10:10", "--symmetric", "N=3", "MER=1"],
        "5bc48a8d7965d8f96be5e43ba53c1a22e7fcce44cc4ec539d84dc97d2f7bb83e",
    ),
    "fig5": (
        ["--mer-db=-5:5:10", "--gamma-db", "0:10:10"],
        "9ae8306cf1d4dfc9e599983f4bece96e917760f6fb494d93b2448cc8d0dd5a36",
    ),
    "fig6": (
        ["--mer-db", "0", "--gamma-db", "20"],
        "56c952401b4728286a1de6232834bfb136547642686ea6f7ae14de411f3a114a",
    ),
    "sweep": (
        ["--gamma-db", "0:10:5", "--symmetric", "N=3", "MER=2"],
        "5d14995edbbd2b61292bb69e15598124ca32cb55e58a09e56592168979303142",
    ),
}


@pytest.mark.parametrize("experiment", sorted(_PINNED_CSV))
def test_every_experiment_csv_bytes_pinned(experiment, tmp_path):
    flags, digest = _PINNED_CSV[experiment]
    out = tmp_path / f"{experiment}.csv"
    argv = ["--experiment", experiment, *flags, "--trials", "1000", "--seed", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of closed-form-only CSVs over wide grids, recorded before RJS and
# OJS shared one jamming-term kernel.  Only the header line has changed since:
# the same bytes under "# secrecy-sim v1" give the digests first recorded.
_PINNED_ANALYTIC_CSV = [
    (
        ["--experiment", "fig2", "--gamma-db=-20:60:1"],
        "b5d542439b15389f670eb21055808109429443b827ec53fa44d62f2282019e9c",
    ),
    (
        ["--experiment", "fig2", "--symmetric", "N=8", "MER=0.3", "--gamma-db=-10:60:0.5"],
        "e525167f9f3d0d336f2a443c48fa842049146118da98c546cbfb1d908ba633a7",
    ),
    (
        ["--experiment", "fig6", "--mer-db=-20:20:1", "--gamma-db", "25"],
        "7af77bd516155109f37c98da7c15b125874dec7dba1f1b6b598fe2d3f7880d8f",
    ),
]


@pytest.mark.parametrize("flags, digest", _PINNED_ANALYTIC_CSV, ids=["fig2", "fig2-sym8", "fig6"])
def test_closed_form_csv_bytes_pinned_on_wide_grids(flags, digest, tmp_path):
    out = tmp_path / "out.csv"
    assert main([*flags, "--trials", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_output_defaults_to_stdout(capsys):
    rc = main(["--experiment", "sweep", "--trials", "0", "--gamma-db", "0", "--schemes", "nonc"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("# secrecy-sim v2\n")
    assert "0,nonc,5.000000000000e-01" in stdout


def test_schemes_filter_and_order(tmp_path):
    out = tmp_path / "filtered.csv"
    rc = main(
        [
            "--experiment", "fig2", "--out", str(out), "--trials", "0",
            "--gamma-db", "10", "--schemes", "ojs,nonc",
        ]
    )
    assert rc == 0
    _, rows = _rows(out)
    assert [r["scheme"] for r in rows] == ["nonc", "ojs"]


# --- validation suite -------------------------------------------------------

_VALIDATION_CHECKS = [
    "e1-bounds",
    "e1-quadrature",
    "oracle-equivalence-rjs",
    "oracle-equivalence-ojs",
    "scheme-ordering",
    "dominance",
    "mc-consistency",
    "diversity",
    "oracle-equivalence-ojs-trapezoid",
    "oracle-equivalence-asymmetric",
    "mc-consistency-asymmetric",
]


def test_validate_default_passes(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    rc = main(["--experiment", "validate", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "PASS e1-bounds" in stdout
    assert "FAIL" not in stdout
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(rec["passed"] for rec in records)
    assert [rec["check"] for rec in records] == _VALIDATION_CHECKS
    assert stdout.splitlines() == [f"PASS {rec['check']}: {rec['detail']}" for rec in records]


def test_validate_seed_choice_does_not_break_properties():
    checks = dict(validation._CHECKS)
    for name in ("dominance", "mc-consistency", "mc-consistency-asymmetric"):
        passed, detail = checks[name](1337, 10_000, 1)
        assert passed, f"{name}: {detail}"


def test_validate_catches_sign_flip_mutation(monkeypatch):
    def flipped_ojs(config, gamma):
        # deliberate mutant: parity of the subset sign inverted
        total = 0.0
        for i in range(config.n_pairs):
            sd = config.pairs[i].sigma2_sd
            se = config.pairs[i].sigma2_se
            candidates = [j for j in range(config.n_pairs) if j != i]
            bracket = 0.0
            for subset in SubsetIterator(candidates):
                phi = phi_ojs(config, i, subset, gamma)
                inner = sum(
                    2.0 * se / (sd * config.pairs[j].sigma2_se * gamma) for j in subset
                )
                bracket += (-1.0) ** len(subset) * inner * e1_scaled(phi)
            total += config.pairs[i].alpha * bracket
        return total

    monkeypatch.setattr(analytic, "intercept_sc_ojs", flipped_ojs)
    assert not dict(validation._CHECKS)["oracle-equivalence-ojs"](0, 0, 1)[0]


def test_validate_attributes_a_crash_to_its_own_check(monkeypatch, capsys):
    def broken_oracle(config, gamma):
        raise RuntimeError("oracle down")

    monkeypatch.setattr(analytic, "intercept_sc_rjs_oracle", broken_oracle)
    assert main(["--experiment", "validate"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1].rstrip(":") for line in lines] == _VALIDATION_CHECKS
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL oracle-equivalence-rjs: exception: oracle down",
        "FAIL oracle-equivalence-asymmetric: exception: oracle down",
    ]


def test_validate_catches_a_wrong_candidate_list(monkeypatch):
    # deliberate mutant: pair i's subset sum runs over every pair but the one of largest
    # sigma2_se, not over every pair but itself.  That is the true sum of pair k, the largest,
    # with pair i's own gains put in its place.  On a symmetric system the two lists are the
    # same, so only the asymmetric row sees it.
    exact = analytic._ojs_subset_values

    def wrong_candidates(gains, rows, gamma):
        k = int(gains[1].argmax())  # the first pair of largest sigma2_se
        values = []
        for i in rows:
            swapped = [column.copy() for column in gains]
            for column in swapped:
                column[k] = column[i]
            values += exact(swapped, [k], gamma)
        return values

    monkeypatch.setattr(analytic, "_ojs_subset_values", wrong_candidates)
    checks = dict(validation._CHECKS)
    assert checks["oracle-equivalence-ojs"](0, 0, 1)[0]
    passed, detail = checks["oracle-equivalence-asymmetric"](0, 0, 1)
    assert not passed
    assert float(detail.removeprefix("max_rel=")) > 0.1


def test_validate_catches_tail_series_mutation(monkeypatch):
    # one series term leaves e1_scaled below its lower bound past the 700 cutoff
    monkeypatch.setattr(special, "_TAIL_TERMS", 1)
    assert not dict(validation._CHECKS)["e1-bounds"](0, 0, 1)[0]


def test_mc_consistency_retries_from_the_top_seed(monkeypatch):
    # a closed form 5% high misses on both attempts; the retry's seed wraps to 0
    exact = analytic.intercepts

    def shifted(config, schemes, gamma):
        return [value._replace(value=1.05 * value.value) for value in exact(config, schemes, gamma)]

    monkeypatch.setattr(analytic, "intercepts", shifted)
    passed, detail = dict(validation._CHECKS)["mc-consistency"](2**64 - 1, 0, 1)
    assert passed is False
    assert re.fullmatch(r"3-sigma misses=[1-9]\d* \(retry-once rule\)", detail)


# --- argument errors --------------------------------------------------------


def test_rejects_small_nonzero_trials(capsys):
    for trials in ("500", "-1", "-5"):
        assert main(["--experiment", "fig2", "--trials", trials]) == 2
        assert capsys.readouterr().err == "--trials must be 0 or >= 1000\n"


def test_duty_cycle_slack_config_gets_estimates_of_at_most_one(tmp_path, capsys):
    # duty cycles summing to 1 + 4e-13, which the config accepts, used to stop the estimate
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("1e-17 1 0.1000000000000399\n" * 10)
    out = tmp_path / "fig2.csv"
    flags = ["--experiment", "fig2", "--config", str(cfg), "--gamma-db", "10", "--seed", "1"]
    assert main(flags + ["--trials", "1000", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, rows = _rows(out)
    assert [(r["scheme"], float(r["p_analytic"]), float(r["p_mc"])) for r in rows] == [
        (scheme, 1.0, 1.0) for scheme in ("nonc", "rjs", "ojs")
    ]


def test_rejects_bad_worker_count(capsys, tmp_path, monkeypatch):
    assert main(["--experiment", "fig2", "--workers", "0"]) == 2
    capsys.readouterr()
    # refused before any thread could start
    assert main(["--experiment", "fig2", "--workers", "1000000", "--trials", "0"]) == 2
    assert capsys.readouterr().err == "--workers must be between 1 and 64\n"
    out = tmp_path / "fig2.csv"
    flags = ["--experiment", "fig2", "--workers", "64", "--trials", "0", "--out", str(out)]
    assert main(flags) == 0
    # the bound is the one of the module that starts the threads
    monkeypatch.setattr(simulate, "MAX_WORKERS", 3)
    assert main(["--experiment", "fig2", "--workers", "4", "--trials", "0"]) == 2
    assert capsys.readouterr().err == "--workers must be between 1 and 3\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "flags",
    [
        ["--experiment", "fig2", "--gamma-db", "4000", "--trials", "1000"],
        ["--experiment", "fig2", "--gamma-db", "inf", "--trials", "0"],
        ["--experiment", "fig2", "--gamma-db", "0:1e300:1e-300", "--trials", "0"],
        ["--experiment", "fig4", "--mer-db", "-4000", "--trials", "0"],
        ["--experiment", "fig3", "--symmetric", "N=4", "MER=nan", "--trials", "0"],
        ["--experiment", "fig2", "--gamma-db", "-3090", "--trials", "0"],
        ["--experiment", "fig2", "--gamma-db", "3080", "--trials", "0", "--config", "{cfg}"],
        # values an experiment does not read are refused, not ignored
        ["--experiment", "fig3", "--symmetric", "N=0", "MER=1", "--trials", "0"],
        ["--experiment", "fig4", "--symmetric", "N=4", "MER=nan", "--trials", "0"],
        ["--experiment", "fig5", "--symmetric", "N=4", "MER=nan", "--trials", "0"],
        ["--experiment", "fig6", "--symmetric", "N=0", "MER=1", "--trials", "0"],
        ["--experiment", "fig6", "--symmetric", "N=4", "MER=1", "--trials", "0"],
        ["--experiment", "fig2", "--mer-db", "-4000", "--trials", "0"],
        ["--experiment", "fig3", "--mer-db", "-4000", "--trials", "0"],
        ["--experiment", "sweep", "--mer-db", "-4000", "--trials", "0"],
        ["--experiment", "validate", "--config", "{cfg}"],
        ["--experiment", "validate", "--symmetric", "N=4", "MER=1"],
        ["--experiment", "validate", "--gamma-db", "10"],
        ["--experiment", "validate", "--mer-db", "0"],
        ["--experiment", "validate", "--schemes", "nonc"],
        ["--experiment", "validate", "--schemes", "nonc,rjs,ojs"],
        [
            "--experiment", "validate", "--mer-db", "nan", "--symmetric", "N=0", "MER=nan",
            "--gamma-db", "inf", "--schemes", "magic", "--config", "/nonexistent",
        ],
        # more pairs than MAX_PAIRS, refused before any pair is built
        ["--experiment", "fig2", "--symmetric", f"N={MAX_PAIRS + 1}", "MER=1", "--trials", "1000"],
        ["--experiment", "fig3", "--symmetric", f"N={MAX_PAIRS + 1}", "MER=1", "--trials", "0"],
    ],
)
def test_rejects_nonfinite_or_overflowing_inputs(flags, tmp_path, capsys):
    # A finite SNR can still overflow against the channel gains: 3080 dB
    # times a gain of 2 is inf, and -3090 dB is subnormal, so 2/(gain*SNR)
    # is inf.
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("1.0 2.0 0.5\n1.0 2.0 0.5\n")
    flags = [f.format(cfg=cfg) for f in flags]
    assert main(flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "E1" not in err


@pytest.mark.parametrize(
    "flags, message",
    [
        # refused before any check runs or any row is written
        (["--experiment", "validate", "--seed", "-1"],
         "seed must fit in an unsigned 64-bit integer"),
        (["--experiment", "fig2", "--trials", "0", "--seed", "-5"],
         "seed must fit in an unsigned 64-bit integer"),
        (["--experiment", "fig2", "--trials", "0", "--seed", "0x10000000000000000"],
         "seed must fit in an unsigned 64-bit integer"),
        (["--experiment", "fig2", "--trials", "0", "--symmetric", "N=2.5", "MER=1"],
         "--symmetric: invalid literal for int() with base 10: '2.5'"),
        (["--experiment", "fig2", "--trials", "0", "--symmetric", "N=4", "MER=abc"],
         "--symmetric: could not convert string to float: 'abc'"),
    ],
    ids=["validate-seed", "negative-seed", "seed-2**64", "symmetric-n", "symmetric-mer"],
)
def test_bad_seed_or_symmetric_value_is_one_line_error(flags, message, capsys):
    assert main(flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_largest_seed_is_accepted(capsys):
    flags = ["--experiment", "fig2", "--trials", "0", "--gamma-db", "0", "--schemes", "nonc"]
    assert main([*flags, "--seed", "0xffffffffffffffff"]) == 0
    assert capsys.readouterr().out.endswith("0,nonc,5.000000000000e-01\n")


def test_config_range_error_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("# symmetric system\nsymmetric 0 1\n")
    assert main(["--experiment", "fig2", "--config", str(cfg), "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: number of pairs must be between 1 and 1024, got 0\n"


def test_config_number_error_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("1.0 1.0 0.5\n1.0 abc 0.5\n")
    assert main(["--experiment", "fig2", "--config", str(cfg), "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: could not convert string to float: 'abc'\n"


@pytest.mark.parametrize("schemes", ["nonc", "rjs", "ojs"])
def test_rejects_config_with_infinite_gain(schemes, tmp_path, capsys):
    cfg = tmp_path / "sys.cfg"
    cfg.write_text("1.0 inf 0.5\n1.0 1.0 0.5\n")
    flags = ["--experiment", "fig2", "--config", str(cfg), "--schemes", schemes, "--trials", "0"]
    assert main(flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid system config: pair 0: infinite gain sigma2_se=inf\n"


@pytest.mark.parametrize(
    "system", [["--symmetric", "N=24", "MER=1"], ["--config", "{cfg}"]], ids=["symmetric", "file"]
)
def test_ojs_answers_systems_past_the_subset_sum(system, tmp_path):
    # beyond 11 pairs the ojs column comes from the trapezoid, with no pair limit
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("1.0 1.0 0.04\n" * 21)
    out = tmp_path / "fig2.csv"
    flags = ["--experiment", "fig2", *(f.format(cfg=cfg) for f in system), "--out", str(out)]
    assert main([*flags, "--trials", "0", "--gamma-db=-10:50:30"]) == 0
    header, rows = _rows(out)
    assert header == ["gamma_db", "scheme", "p_analytic"]
    config = load_config(cfg) if "--config" in system else make_symmetric_config(24, 1.0)
    ojs = [r for r in rows if r["scheme"] == "ojs"]
    assert len(ojs) == 3
    for row in ojs:
        gamma = 10.0 ** (float(row["gamma_db"]) / 10.0)
        oracle = analytic.intercept_sc_ojs_oracle(config, gamma)
        assert float(row["p_analytic"]) == pytest.approx(oracle, rel=1e-8, abs=0.0)


def test_rejects_unknown_scheme():
    assert main(["--experiment", "fig2", "--schemes", "nonc,magic", "--trials", "0"]) == 2


@pytest.mark.parametrize("schemes", ["", ",", " , "])
def test_rejects_empty_scheme_list(schemes, capsys):
    for trials in ("0", "1000"):
        assert main(["--experiment", "fig2", "--schemes", schemes, "--trials", trials]) == 2
        assert "--schemes names no scheme" in capsys.readouterr().err


def test_rejects_config_and_symmetric_together(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("1 1 1\n", encoding="utf-8")
    rc = main(
        [
            "--experiment", "fig2", "--config", str(cfg),
            "--symmetric", "N=2", "MER=1", "--trials", "0",
        ]
    )
    assert rc == 2


def test_rejects_config_for_pair_sweeps(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("1 1 1\n", encoding="utf-8")
    assert main(["--experiment", "fig3", "--config", str(cfg), "--trials", "0"]) == 2


def test_unwritable_output_path(tmp_path):
    rc = main(
        [
            "--experiment", "fig2", "--trials", "0", "--gamma-db", "10",
            "--out", str(tmp_path / "missing_dir" / "x.csv"),
        ]
    )
    assert rc == 2


def test_symmetric_flag_changes_system(tmp_path):
    out = tmp_path / "fig2.csv"
    rc = main(
        [
            "--experiment", "fig2", "--out", str(out), "--trials", "0",
            "--gamma-db", "10", "--symmetric", "N=2", "MER=10", "--schemes", "nonc",
        ]
    )
    assert rc == 0
    _, rows = _rows(out)
    assert float(rows[0]["p_analytic"]) == pytest.approx(1.0 / 11.0, rel=1e-12, abs=0.0)
