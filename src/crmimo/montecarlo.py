"""Seeded Monte Carlo experiments over channel realizations.

Each trial draws its own sub-seed from the master seed by counter, so a
run is fully determined by (config, scheme, policy, n_trials, seed) and
independent of how many workers execute it.  run_trials estimates the
probability that all SUs are served (the serving verdict uses the
estimated constraints, i.e. what the SBS can check; the true-channel
verdict is kept as an audit column).  max_sus_at_confidence searches
the largest number of SUs servable at a given confidence along a
constraint sweep.  EmpiricalCdf pools raw samples for
Kolmogorov-Smirnov comparisons against the closed-form laws.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .analytics import optimize_equal_power
from .beamforming import AntennaShortageError, IllConditionedError, compute_beams
from .network import NetworkConfig, evaluate_links, generate_channels
from .power import equal_power, slack_from_links, solve_lf

__all__ = [
    "POLICY_LF",
    "POLICY_EQUAL_POWER",
    "POLICY_EQUAL_POWER_OPT",
    "TrialOutcome",
    "ExperimentResult",
    "EmpiricalCdf",
    "trial_seed",
    "run_trials",
    "max_sus_at_confidence",
    "empirical_cdf",
]

POLICY_LF = "LF"
POLICY_EQUAL_POWER = "EQUAL_POWER"
POLICY_EQUAL_POWER_OPT = "EQUAL_POWER_OPT"
_POLICIES = (POLICY_LF, POLICY_EQUAL_POWER, POLICY_EQUAL_POWER_OPT)

MAX_K_SWEEP = 64


@dataclass(frozen=True)
class TrialOutcome:
    """One realization's verdicts and raw samples.

    served applies the estimated constraints (rates, interference cap,
    power budget, all at slack >= -1e-9); served_true applies the same
    test on true channels.  error names a per-trial failure
    (AntennaShortageError etc.) counted by the caller, never raised.
    """

    served: bool
    served_true: bool
    sinr_est: np.ndarray
    sinr_true: np.ndarray
    int_to_pu_est: np.ndarray
    int_to_pu_true: np.ndarray
    p: np.ndarray
    error: str | None = None


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated run_trials output with pooled sample arrays."""

    config: NetworkConfig
    scheme: str
    policy: str
    p_eq: float | None
    n_trials: int
    seed: int
    p_served: float
    stderr: float
    p_served_true: float
    csi_violation_rate: float
    n_failed: int
    sinr_est: np.ndarray
    sinr_true: np.ndarray
    int_to_pu_est: np.ndarray
    int_to_pu_true: np.ndarray


def trial_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Sub-seed of trial `index` under a master seed."""
    return np.random.SeedSequence(entropy=(int(master_seed), int(index)))


def _run_trial(config, scheme, policy, p_eq, master_seed, index) -> TrialOutcome:
    real = generate_channels(config, trial_seed(master_seed, index))
    k, l_rx = config.k_su, config.l_rx
    try:
        beams = compute_beams(real, scheme)
    except (AntennaShortageError, IllConditionedError) as exc:
        nan_k = np.full(k, np.nan)
        nan_l = np.full(l_rx, np.nan)
        return TrialOutcome(
            served=False, served_true=False,
            sinr_est=nan_k, sinr_true=nan_k.copy(),
            int_to_pu_est=nan_l, int_to_pu_true=nan_l.copy(),
            p=np.zeros(k), error=type(exc).__name__,
        )

    links = evaluate_links(real, beams.v, beams.u, config)
    if policy == POLICY_LF:
        alloc = solve_lf(links, scheme, config)
        p, solver_ok = alloc.p, alloc.feasible
    else:
        p = equal_power(config, p_eq)
        solver_ok = True

    est = slack_from_links(links, p, config, use_estimates=True)
    true = slack_from_links(links, p, config, use_estimates=False)
    return TrialOutcome(
        served=bool(solver_ok and est.all_met()),
        served_true=bool(solver_ok and true.all_met()),
        sinr_est=est.sinr,
        sinr_true=true.sinr,
        int_to_pu_est=est.int_to_pu,
        int_to_pu_true=true.int_to_pu,
        p=p,
    )


def _run_block(args) -> list[TrialOutcome]:
    config, scheme, policy, p_eq, master_seed, indices = args
    return [_run_trial(config, scheme, policy, p_eq, master_seed, i) for i in indices]


def run_trials(config: NetworkConfig, scheme: str, policy: str, n_trials: int, seed: int,
               p_eq: float | None = None, n_workers: int = 1) -> ExperimentResult:
    """Estimate the probability of serving all SUs over seeded trials.

    Args:
        config: scenario.
        scheme: MEB or ZFB; anything else raises ValueError.
        policy: POLICY_LF (solve the scheme's feasibility program per
            trial), POLICY_EQUAL_POWER (fixed p_eq, required argument),
            or POLICY_EQUAL_POWER_OPT (p_eq from optimize_equal_power,
            computed once and reused across trials).
        n_trials: number of realizations, >= 1.
        seed: master seed; trial i uses sub-seed (seed, i).
        p_eq: per-SU power for POLICY_EQUAL_POWER.
        n_workers: process count; the result does not depend on it.

    Returns:
        ExperimentResult with exact p_served = (#served)/n_trials,
        binomial standard error, true-channel audit rates and pooled
        SINR/interference samples (failed trials contribute NaNs).
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if policy == POLICY_EQUAL_POWER_OPT:
        p_eq = optimize_equal_power(scheme, config).p_eq
        policy_run = POLICY_EQUAL_POWER
    else:
        policy_run = policy
    if policy_run == POLICY_EQUAL_POWER and p_eq is None:
        raise ValueError("equal-power policy needs p_eq")

    indices = range(n_trials)
    if n_workers > 1:
        blocks = np.array_split(np.arange(n_trials), n_workers)
        payloads = [
            (config, scheme, policy_run, p_eq, seed, block.tolist())
            for block in blocks if block.size
        ]
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            outcomes = [t for block in pool.map(_run_block, payloads) for t in block]
    else:
        outcomes = [_run_trial(config, scheme, policy_run, p_eq, seed, i) for i in indices]

    served = np.array([t.served for t in outcomes])
    served_true = np.array([t.served_true for t in outcomes])
    p_served = served.sum() / n_trials
    return ExperimentResult(
        config=config,
        scheme=scheme,
        policy=policy,
        p_eq=p_eq if policy != POLICY_LF else None,
        n_trials=n_trials,
        seed=seed,
        p_served=float(p_served),
        stderr=float(np.sqrt(p_served * (1.0 - p_served) / n_trials)),
        p_served_true=float(served_true.sum() / n_trials),
        csi_violation_rate=float((served & ~served_true).sum() / n_trials),
        n_failed=sum(t.error is not None for t in outcomes),
        sinr_est=np.concatenate([t.sinr_est for t in outcomes]),
        sinr_true=np.concatenate([t.sinr_true for t in outcomes]),
        int_to_pu_est=np.concatenate([t.int_to_pu_est for t in outcomes]),
        int_to_pu_true=np.concatenate([t.int_to_pu_true for t in outcomes]),
    )


_AXIS_DIRECTION = {"r0": -1, "i0": +1, "p0": +1}


def max_sus_at_confidence(config_base: NetworkConfig, scheme: str, confidence: float,
                          sweep_name: str, sweep_values, n_trials: int = 500, seed: int = 0,
                          policy: str = POLICY_EQUAL_POWER_OPT,
                          p_eq: float | None = None) -> list[tuple[float, int]]:
    """Largest servable SU count per sweep value at the given confidence.

    For each value of the swept config field, binary-searches the
    largest k with p_served >= confidence; k ranges over 1..min(64,
    m_b - l_rx) (the ZF antenna condition).  Returns [(value, max_k)].
    Known constraint axes are checked for monotonicity: max_k must not
    increase along tightening r0 nor decrease along loosening i0/p0.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    if sweep_name not in {f.name for f in dataclass_fields(NetworkConfig)}:
        raise ValueError(f"unknown sweep field {sweep_name!r}")
    k_cap = min(MAX_K_SWEEP, config_base.m_b - config_base.l_rx)
    if k_cap < 1:
        raise ValueError("m_b - l_rx leaves no room for any SU")

    def passes(cfg, k):
        res = run_trials(cfg.replace(k_su=k), scheme, policy, n_trials, seed, p_eq=p_eq)
        return res.p_served >= confidence

    rows = []
    for value in sweep_values:
        cfg = config_base.replace(**{sweep_name: value})
        if not passes(cfg, 1):
            rows.append((value, 0))
            continue
        lo = 1  # largest k known to pass
        hi = None  # smallest k known to fail
        while hi is None and lo * 2 <= k_cap:
            k = lo * 2
            if passes(cfg, k):
                lo = k
            else:
                hi = k
        if hi is None and lo < k_cap:
            if passes(cfg, k_cap):
                lo = k_cap
            else:
                hi = k_cap
        while hi is not None and hi - lo > 1:
            mid = (lo + hi) // 2
            if passes(cfg, mid):
                lo = mid
            else:
                hi = mid
        rows.append((value, lo))

    direction = _AXIS_DIRECTION.get(sweep_name)
    if direction is not None and len(rows) > 1:
        order = np.argsort([v for v, _ in rows])
        ks = [rows[i][1] for i in order]
        diffs = np.diff(ks) * direction
        if np.any(diffs < 0):
            raise AssertionError(
                f"max_k not monotone along {sweep_name}: {rows}"
            )
    return rows


class EmpiricalCdf:
    """Right-continuous empirical CDF with KS distance support."""

    def __init__(self, samples):
        samples = np.asarray(samples, dtype=float).ravel()
        if samples.size == 0:
            raise ValueError("need at least one sample")
        if not np.isfinite(samples).all():
            raise ValueError("samples must be finite")
        self.samples = np.sort(samples)
        self.n = samples.size

    def __call__(self, x):
        return np.searchsorted(self.samples, x, side="right") / self.n

    def ks_distance(self, other) -> float:
        """Sup-norm distance to another CDF.

        `other` may be a second EmpiricalCdf (two-sample form) or any
        callable returning CDF values (checked on both sides of each
        jump of this CDF).
        """
        if isinstance(other, EmpiricalCdf):
            support = np.concatenate([self.samples, other.samples])
            return float(np.abs(self(support) - other(support)).max())
        values = np.asarray([other(x) for x in self.samples], dtype=float)
        steps = np.arange(1, self.n + 1) / self.n
        upper = np.abs(values - steps).max()
        lower = np.abs(values - (steps - 1.0 / self.n)).max()
        return float(max(upper, lower))


def empirical_cdf(samples) -> EmpiricalCdf:
    """Build an EmpiricalCdf, dropping nothing (NaNs are an error)."""
    return EmpiricalCdf(samples)
