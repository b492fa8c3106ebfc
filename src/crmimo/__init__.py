"""Downlink beamforming and serving-probability analysis for an underlay
cognitive-radio network with a massive-MIMO secondary base station.

Modules:
    network: configuration, channel generation, the link evaluator.
    beamforming: maximum-eigenmode and zero-forcing beam computation.
    power: feasibility-driven and equal-rate power allocation.
    simplex: phase-1 feasibility solver for general A x <= b systems; the
        LF program is decided in closed form by power instead.
    specfun: incomplete gamma/beta special functions.
    analytics: closed-form SINR/interference laws and the equal-power optimizer.
    montecarlo: seeded trial runner, max-SU search, empirical CDFs.
    cli: command line experiments (console script `crmimo`).
"""

from .network import (
    NetworkConfig,
    ChannelRealization,
    LinkMetrics,
    db_to_linear,
    linear_to_db,
    generate_channels,
    evaluate_links,
)
from .beamforming import (
    MEB,
    ZFB,
    BeamformingSolution,
    AntennaShortageError,
    IllConditionedError,
    compute_meb,
    compute_zfb,
)
from .power import (
    PowerAllocation,
    SlackReport,
    ZeroGainError,
    solve_lf_meb,
    solve_lf_zfb,
    verify_allocation,
)
from .analytics import (
    GammaParams,
    InverseGammaParams,
    GenFParams,
    PointMassParams,
    expected_max_eig,
    meb_sinr_params,
    meb_sinr_cdf,
    meb_interference_cdf,
    zfb_sinr_params,
    zfb_sinr_cdf,
    zfb_sinr_exact_cdf,
    zfb_interference_cdf,
    q_k,
    equal_power_bounds,
    optimize_equal_power,
)
from .montecarlo import (
    POLICY_LF,
    POLICY_EQUAL_POWER,
    POLICY_EQUAL_POWER_OPT,
    ExperimentResult,
    EmpiricalCdf,
    run_trials,
    max_sus_at_confidence,
    empirical_cdf,
)
from . import simplex

__version__ = "0.1.0"
