from __future__ import annotations

import dataclasses
import math

import pytest

from secrecy_sim.analytic import scheme_intercept
from secrecy_sim.model import (
    MAX_PAIRS,
    SCHEMES,
    PairParams,
    SnrSweep,
    SystemConfig,
    make_symmetric_config,
    parse_config_text,
    load_config,
    require_scheme,
    require_valid,
)
from secrecy_sim.simulate import estimate_intercepts


def test_symmetric_default_experiment_config():
    cfg = make_symmetric_config(4, 1.0)
    assert cfg.n_pairs == 4
    for p in cfg.pairs:
        assert p.alpha == 0.25
        assert p.sigma2_sd == 1.0
        assert p.sigma2_se == 1.0


def test_symmetric_single_pair():
    cfg = make_symmetric_config(1, 1.0)
    assert cfg.n_pairs == 1
    assert cfg.pairs[0].alpha == 1.0


def test_symmetric_mer_sets_main_gain():
    cfg = make_symmetric_config(2, 10.0)
    assert cfg.pairs[0].sigma2_sd == 10.0
    assert cfg.pairs[0].sigma2_se == 1.0


def test_symmetric_mer_round_trip_exact():
    for mer in (0.1, 0.5, 1.0, 3.7, 10.0, 123.0):
        cfg = make_symmetric_config(3, mer)
        assert cfg.pairs[0].sigma2_sd / cfg.pairs[0].sigma2_se == mer


@pytest.mark.parametrize("n,mer", [(0, 1.0), (-1, 1.0), (2, 0.0), (2, -5.0)])
def test_symmetric_rejects_bad_arguments(n, mer):
    with pytest.raises(ValueError):
        make_symmetric_config(n, mer)


def test_symmetric_rejects_non_integer_pair_count():
    for n in (2.5, 2.0, "4"):
        with pytest.raises(TypeError):
            make_symmetric_config(n, 1.0)


def test_symmetric_always_validates():
    for n in range(1, 9):
        for mer in (0.01, 1.0, 100.0):
            require_valid(make_symmetric_config(n, mer))


def test_validate_reports_duty_cycle_sum():
    cfg = SystemConfig(pairs=(PairParams(1.0, 1.0, 0.6), PairParams(1.0, 1.0, 0.6)))
    with pytest.raises(ValueError, match=r"duty cycles sum 1\.2 > 1"):
        require_valid(cfg)


def test_validate_reports_nonpositive_gain():
    cfg = SystemConfig(pairs=(PairParams(0.0, 1.0, 0.5),))
    with pytest.raises(ValueError, match="nonpositive gain sigma2_sd"):
        require_valid(cfg)
    cfg = SystemConfig(pairs=(PairParams(1.0, -2.0, 0.5),))
    with pytest.raises(ValueError, match="nonpositive gain sigma2_se"):
        require_valid(cfg)


def test_validate_reports_infinite_gain():
    # inf passes a positivity check, and downstream it makes nonc nan and
    # the cooperative schemes blame the SNR
    cfg = SystemConfig(pairs=(PairParams(1.0, 1.0, 0.5), PairParams(math.inf, 1.0, 0.5)))
    with pytest.raises(ValueError, match="pair 1: infinite gain sigma2_sd=inf"):
        require_valid(cfg)
    cfg = SystemConfig(pairs=(PairParams(1.0, math.inf, 0.5), PairParams(1.0, 1.0, 0.5)))
    with pytest.raises(ValueError, match="pair 0: infinite gain sigma2_se=inf"):
        require_valid(cfg)


def test_validate_reports_alpha_out_of_range():
    cfg = SystemConfig(pairs=(PairParams(1.0, 1.0, 1.5),))
    with pytest.raises(ValueError, match="duty cycle"):
        require_valid(cfg)


def test_validate_allows_slack_and_zero_duty_cycles():
    cfg = SystemConfig(pairs=(PairParams(1.0, 1.0, 0.3), PairParams(2.0, 1.0, 0.0)))
    require_valid(cfg)


def test_pair_count_bound():
    # one past the bound is refused before any pair is built
    assert make_symmetric_config(MAX_PAIRS, 1.0).n_pairs == MAX_PAIRS
    with pytest.raises(ValueError, match=f"between 1 and {MAX_PAIRS}, got {MAX_PAIRS + 1}"):
        make_symmetric_config(MAX_PAIRS + 1, 1.0)
    with pytest.raises(ValueError, match=f"{MAX_PAIRS + 1} pairs exceed the limit"):
        require_valid(parse_config_text("1.0 1.0 0.0\n" * (MAX_PAIRS + 1)))


def test_every_entry_point_refuses_an_unknown_scheme_alike():
    assert [require_scheme(s) for s in SCHEMES] == list(SCHEMES)
    cfg = make_symmetric_config(2, 1.0)
    for refuse in (
        require_scheme,
        lambda name: scheme_intercept(cfg, name, 1.0),
        lambda name: estimate_intercepts(cfg, ["nonc", name], 1.0, 10, 0),
    ):
        with pytest.raises(ValueError) as info:
            refuse("magic")
        assert str(info.value) == "unknown scheme 'magic' (choose from nonc, rjs, ojs)"


def test_config_is_immutable():
    cfg = make_symmetric_config(2, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.pairs = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.pairs[0].alpha = 0.9


def test_snr_sweep_checks_grid():
    sweep = SnrSweep((1.0, 10.0, 100.0))
    assert sweep.gamma_values == (1.0, 10.0, 100.0)
    with pytest.raises(ValueError):
        SnrSweep(())
    with pytest.raises(ValueError):
        SnrSweep((0.0, 1.0))
    with pytest.raises(ValueError):
        SnrSweep((1.0, 1.0))
    with pytest.raises(ValueError):
        SnrSweep((10.0, 1.0))
    # a non-finite SNR would pass on to fit_diversity's least-squares fit
    # and fail inside LAPACK
    for values in ((1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="SNR must be positive and finite"):
            SnrSweep(values)


def test_snr_sweep_log_spaced():
    sweep = SnrSweep.log_spaced(1e2, 1e6, 9)
    assert len(sweep.gamma_values) == 9
    assert sweep.gamma_values[0] == 1e2
    assert sweep.gamma_values[-1] == 1e6
    with pytest.raises(ValueError):
        SnrSweep.log_spaced(1e2, 1e6, 1)
    with pytest.raises(ValueError):
        SnrSweep.log_spaced(1e6, 1e2, 5)


def test_parse_pair_lines_with_comments():
    cfg = parse_config_text(
        """
        # main eavesdropper duty
        2.0 1.0 0.5
        1.0 0.5 0.25   # trailing comment
        """
    )
    assert cfg.n_pairs == 2
    assert cfg.pairs[0] == PairParams(2.0, 1.0, 0.5)
    assert cfg.pairs[1] == PairParams(1.0, 0.5, 0.25)


def test_parse_symmetric_shorthand():
    cfg = parse_config_text("symmetric 4 2.0\n")
    assert cfg == make_symmetric_config(4, 2.0)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "1.0 1.0\n",
        "symmetric 4\n",
        "symmetric 4 1.0\n1.0 1.0 0.5\n",
        "1.0 1.0 0.5\nsymmetric 4 1.0\n",
        "a b c\n",
    ],
)
def test_parse_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_config_text(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1.0 abc 0.5\n", "line 1: could not convert string to float: 'abc'"),
        ("# header\nsymmetric 2.5 1\n", "line 2: invalid literal for int() with base 10: '2.5'"),
        ("symmetric 4 x\n", "line 1: could not convert string to float: 'x'"),
        # the shorthand's range checks name the line too
        ("symmetric 0 1\n", "line 1: number of pairs must be between 1 and 1024, got 0"),
        ("# header\nsymmetric 4 nan\n", "line 2: MER must be positive and finite, got nan"),
    ],
)
def test_parse_names_the_line_of_a_bad_number(text, message):
    with pytest.raises(ValueError) as info:
        parse_config_text(text)
    assert str(info.value) == message


def test_load_config_from_file(tmp_path):
    path = tmp_path / "pairs.cfg"
    path.write_text("1.5 0.5 0.4\n2.5 1.0 0.6\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.n_pairs == 2
    assert cfg.pairs[1].sigma2_sd == 2.5
