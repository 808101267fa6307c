"""Intercept-probability analysis for spectrum sharing under cooperative jamming.

Closed-form intercept probabilities for non-cooperation and for source
cooperation with random or optimal jammer selection, cross-validated by
adaptive-quadrature oracles and a reproducible Monte Carlo channel
simulator, plus an empirical secrecy-diversity estimator and a CSV
experiment harness.
"""

from .analytic import (
    InterceptValue,
    QuadratureError,
    intercept_noncoop,
    intercept_sc_ojs,
    intercept_sc_ojs_oracle,
    intercept_sc_rjs,
    intercept_sc_rjs_oracle,
    scheme_intercept,
)
from .diversity import DiversityFit, fit_diversity
from .model import (
    NONCOOP,
    SC_OJS,
    SC_RJS,
    SCHEMES,
    PairParams,
    SnrSweep,
    SystemConfig,
    load_config,
    make_symmetric_config,
    parse_config_text,
)
from .simulate import (
    InterceptEstimate,
    coupled_dominance_check,
    estimate_intercept,
    estimate_intercepts,
)
from .special import e1, e1_bounds, e1_scaled

__version__ = "0.1.0"
