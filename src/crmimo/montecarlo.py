"""Seeded Monte Carlo experiments over channel realizations.

Each trial draws its own sub-seed from the master seed by counter, so a
run is fully determined by (config, scheme, policy, n_trials, seed) and
independent of how many workers execute it.  Trials run in blocks: each
trial draws its own channels, then one call each computes the beams,
the link gains and the slack of the whole block along a leading trial
axis.  Block size changes no bit of any result.  run_trials estimates the
probability that all SUs are served (the serving verdict uses the
estimated constraints, i.e. what the SBS can check; the true-channel
verdict is kept as an audit column).  max_sus_at_confidence searches
the largest number of SUs servable at a given confidence along a
constraint sweep.  EmpiricalCdf pools raw samples for
Kolmogorov-Smirnov comparisons against the closed-form laws.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .analytics import optimize_equal_power
from .beamforming import AntennaShortageError, IllConditionedError, compute_beams
from .network import ChannelRealization, NetworkConfig, evaluate_links, generate_channels
from .power import equal_power, slack_from_links, solve_lf

__all__ = [
    "POLICY_LF",
    "POLICY_EQUAL_POWER",
    "POLICY_EQUAL_POWER_OPT",
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

# complex SU-channel elements per block of trials: 12 trials at m_b=64,
# k_su=10, m_u=4, 4-16 at m_b=128 with k_su=16-4, and one at m_b=1024.
# A block's ~60 numpy calls for beams, links and slack are shared by its
# trials: against 2^13 (3 trials at m_b=64), the benchmark's trials_m64
# ran about 10% more trials per second while its peak memory rose 3%,
# from 47.1 to 48.6 MB (a block's arrays, about twice this budget, live
# at once).  2^16 ran no faster (541 against 530 us/trial) in 1.6 MB more.
_BLOCK_ELEMENTS = 2 ** 15

# added to a gap's deviation bound in ks_distance before it is compared with
# the largest deviation found: far above the laws' rounding (about 1e-14)
# and far below any KS value
_KS_BOUND_SLACK = 1e-9


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


_CHANNELS = ("h_su", "h_pu_sbs", "h_pu_su", "hhat_pu_sbs", "hhat_pu_su")


def _draw_block(config, master_seed, indices) -> ChannelRealization:
    """Trials `indices`, each drawn from its own sub-seed, along a leading trial axis.

    Each draw is copied into the block and dropped; one trial is viewed.
    """
    n, block = len(indices), {}
    for t, i in enumerate(indices):
        real = generate_channels(config, trial_seed(master_seed, i))
        if n == 1:
            return replace(real, **{name: getattr(real, name)[None] for name in _CHANNELS})
        for name in _CHANNELS:
            if t == 0:
                block[name] = np.empty((n, *getattr(real, name).shape), dtype=complex)
            block[name][t] = getattr(real, name)
    for a in block.values():
        a.setflags(write=False)
    return replace(real, **block)


def _run_block(config, scheme, policy, p_eq, master_seed, indices, out, start):
    """Draw trials `indices` and write their rows of the run's buffers from row `start`.

    A failed trial keeps its NaN samples and unserved verdicts, and its
    error names the exception.
    """
    n = len(indices)
    rows = slice(start, start + n)
    real = _draw_block(config, master_seed, indices)
    try:
        beams = compute_beams(real, scheme)
    except (AntennaShortageError, IllConditionedError) as exc:
        if isinstance(exc, IllConditionedError) and n > 1:
            # find the ill-conditioned trials: redraw every trial as a block of its own
            for t, i in enumerate(indices):
                _run_block(config, scheme, policy, p_eq, master_seed, [i], out, start + t)
        else:
            out["error"][rows] = type(exc).__name__
        return

    links = evaluate_links(real, beams.v, beams.u, config)
    if policy == POLICY_LF:
        allocs = [solve_lf(links[t], scheme, config) for t in range(n)]
        p = np.stack([a.p for a in allocs])
        solver_ok = np.array([a.feasible for a in allocs])
    else:
        p = np.broadcast_to(equal_power(config, p_eq), (n, config.k_su))
        solver_ok = True

    est, true = slack_from_links(links, p, config)
    out["served"][rows] = solver_ok & est.all_met()
    out["served_true"][rows] = solver_ok & true.all_met()
    for flavor, report in (("est", est), ("true", true)):
        out[f"sinr_{flavor}"][rows] = report.sinr
        out[f"int_to_pu_{flavor}"][rows] = report.int_to_pu


def _run_range(args) -> dict:
    """Trials `indices` in blocks, into one set of result buffers, trial axis first.

    An error entry is None for a trial that ran.
    """
    config, scheme, policy, p_eq, master_seed, indices = args
    n = len(indices)
    out = {"served": np.zeros(n, dtype=bool), "served_true": np.zeros(n, dtype=bool),
           "sinr_est": np.full((n, config.k_su), np.nan),
           "sinr_true": np.full((n, config.k_su), np.nan),
           "int_to_pu_est": np.full((n, config.l_rx), np.nan),
           "int_to_pu_true": np.full((n, config.l_rx), np.nan),
           "error": np.full(n, None, dtype=object)}
    per_block = max(1, _BLOCK_ELEMENTS // (config.k_su * config.m_u * config.m_b))
    for start in range(0, n, per_block):
        _run_block(config, scheme, policy, p_eq, master_seed,
                   indices[start:start + per_block], out, start)
    return out


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
        n_workers: process count, >= 1; the result does not depend on it.

    Returns:
        ExperimentResult with exact p_served = (#served)/n_trials,
        binomial standard error, true-channel audit rates and pooled
        SINR/interference samples (failed trials contribute NaNs).
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    if n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if policy == POLICY_EQUAL_POWER_OPT:
        p_eq = optimize_equal_power(scheme, config).p_eq
        policy_run = POLICY_EQUAL_POWER
    else:
        policy_run = policy
    if policy_run == POLICY_EQUAL_POWER and p_eq is None:
        raise ValueError("equal-power policy needs p_eq")

    if n_workers > 1:
        payloads = [
            (config, scheme, policy_run, p_eq, seed, chunk.tolist())
            for chunk in np.array_split(np.arange(n_trials), n_workers) if chunk.size
        ]
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(_run_range, payloads))
        out = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
    else:
        out = _run_range((config, scheme, policy_run, p_eq, seed, range(n_trials)))

    p_served = out["served"].sum() / n_trials
    return ExperimentResult(
        config=config,
        scheme=scheme,
        policy=policy,
        p_eq=p_eq if policy != POLICY_LF else None,
        n_trials=n_trials,
        seed=seed,
        p_served=float(p_served),
        stderr=float(np.sqrt(p_served * (1.0 - p_served) / n_trials)),
        p_served_true=float(out["served_true"].sum() / n_trials),
        csi_violation_rate=float((out["served"] & ~out["served_true"]).sum() / n_trials),
        n_failed=sum(e is not None for e in out["error"]),
        sinr_est=out["sinr_est"].ravel(),
        sinr_true=out["sinr_true"].ravel(),
        int_to_pu_est=out["int_to_pu_est"].ravel(),
        int_to_pu_true=out["int_to_pu_true"].ravel(),
    )


_AXIS_DIRECTION = {"r0": -1, "i0": +1, "p0": +1, "i0_db": +1, "p0_db": +1}


def max_sus_at_confidence(config_base: NetworkConfig, scheme: str, confidence: float,
                          sweep_name: str, sweep_values, n_trials: int = 500, seed: int = 0,
                          policy: str = POLICY_EQUAL_POWER_OPT,
                          p_eq: float | None = None) -> list[tuple[float, int]]:
    """Largest servable SU count per sweep value at the given confidence.

    For each value of the swept config key (a field or a dB key such as
    p0_db, applied as NetworkConfig.with_items does), binary-searches the
    largest k with p_served >= confidence; k ranges over 1..min(64,
    m_b - l_rx) (the ZF antenna condition).  Returns [(value, max_k)].
    An unknown key raises ValueError before any trial.  Known constraint
    axes are checked for monotonicity: max_k should not increase along
    tightening r0 nor decrease along loosening i0/p0 (linear or dB).
    Monte Carlo noise can break that near the confidence level, so a
    break emits a RuntimeWarning naming the rows, which are returned
    unchanged.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    points = [(value, config_base.with_items({sweep_name: value})) for value in sweep_values]
    k_cap = min(MAX_K_SWEEP, config_base.m_b - config_base.l_rx)
    if k_cap < 1:
        raise ValueError("m_b - l_rx leaves no room for any SU")

    def passes(cfg, k):
        res = run_trials(cfg.replace(k_su=k), scheme, policy, n_trials, seed, p_eq=p_eq)
        return res.p_served >= confidence

    rows = []
    for value, cfg in points:
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
        if np.any(np.diff(ks) * direction < 0):
            warnings.warn(f"max_k not monotone along {sweep_name}: {rows}", RuntimeWarning,
                          stacklevel=2)
    return rows


class EmpiricalCdf:
    """Right-continuous empirical CDF with KS distance support.

    The samples must be finite.  n counts them; n_dropped counts the NaN
    markers empirical_cdf dropped before building it.
    """

    def __init__(self, samples):
        samples = np.asarray(samples, dtype=float).ravel()
        if samples.size == 0:
            raise ValueError("need at least one sample")
        if not np.isfinite(samples).all():
            raise ValueError("samples must be finite")
        self.samples = np.sort(samples)
        self.n = samples.size
        self.n_dropped = 0

    def __call__(self, x):
        return np.searchsorted(self.samples, x, side="right") / self.n

    def ks_distance(self, other) -> float:
        """Sup-norm distance to another CDF.

        `other` may be a second EmpiricalCdf (two-sample form) or a
        nondecreasing callable returning CDF values, checked on both
        sides of each jump of this CDF.  The callable is evaluated at
        every s-th sorted sample, s = max(1, isqrt(n) // 4), and at the
        first and last; then at the samples between two of them, a < b
        (0-based), if the bound max(F(b) - (a+1)/n, b/n - F(a)) on their
        deviation comes within 1e-9 of the largest deviation found.  The
        result is the float that evaluating every sample gives.

        Each pass is one call with a sorted sample array (the
        closed-form CDFs of crmimo.analytics return their array of
        values), or one call per sample if that raises TypeError,
        ValueError or ArithmeticError or returns another shape.  A
        sample outside a law's domain raises what the scalar call
        raises, as the end samples are always evaluated; a sample where
        a law does not converge or is NaN raises only if it is evaluated,
        NaN as a ValueError naming the first such sample.
        """
        if isinstance(other, EmpiricalCdf):
            support = np.concatenate([self.samples, other.samples])
            return float(np.abs(self(support) - other(support)).max())
        n = self.n
        steps = np.arange(1, n + 1) / n
        below = steps - 1.0 / n

        def deviation(index, values):
            return np.maximum(np.abs(values - steps[index]),
                              np.abs(values - below[index])).max()

        coarse = np.arange(0, n, max(1, math.isqrt(n) // 4))
        if coarse[-1] != n - 1:
            coarse = np.append(coarse, n - 1)
        values = _cdf_values(other, self.samples[coarse])
        best = deviation(coarse, values)
        a, b = coarse[:-1], coarse[1:]
        bound = np.maximum(values[1:] - below[a + 1], steps[b - 1] - values[:-1])
        inside = np.zeros(n, dtype=bool)
        inside[:-1] = np.repeat(bound + _KS_BOUND_SLACK >= best, b - a)
        inside[coarse] = False
        if inside.any():
            fine = np.flatnonzero(inside)
            best = max(best, deviation(fine, _cdf_values(other, self.samples[fine])))
        return float(best)


def _cdf_values(cdf, points: np.ndarray) -> np.ndarray:
    """cdf at an array of points: one array call, else one call per point."""
    try:
        values = np.asarray(cdf(points), dtype=float)
    except (TypeError, ValueError, ArithmeticError):
        values = None
    if values is None or values.shape != points.shape:
        values = np.asarray([cdf(x) for x in points], dtype=float)
    nan = np.isnan(values)
    if nan.any():
        raise ValueError(f"CDF is NaN at sample {points[nan][0].item()!r}")
    return values


def empirical_cdf(samples) -> EmpiricalCdf:
    """Build an EmpiricalCdf of the finite samples, dropping and counting NaNs.

    run_trials pools NaN for failed trials; they are dropped and counted
    in n_dropped.  Infinite samples, or no sample left, raise ValueError.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    nan = np.isnan(samples)
    cdf = EmpiricalCdf(samples[~nan])
    cdf.n_dropped = int(nan.sum())
    return cdf
