"""Seeded Monte Carlo experiments over channel realizations.

Each trial draws its own sub-seed from the master seed by counter, so a
run is fully determined by (config, scheme, policy, n_trials, seed) and
independent of how many workers execute it.  A run has two stages.  In
the gains stage, one function (_gains) turns each block of trials into
link gains: each trial draws its channels once, then one call each
computes the MEB beams, the ZFB beams built on them where asked, and
each scheme's link gains of the whole block along a leading trial axis;
several workers compute the blocks in a process pool.  The serve stage,
in the calling process, serves part by part through one step
(_serve_part, which the CLI's single_solve shares): powers, by LF
(LF-MEB one trial at a time) or the policy's, slack and verdicts.  A call
reading kept gains that does not decide serves each run of good trials
as one part, a streamed or deciding call each block.  The gains read
no rate floor, cap, budget, policy or p_eq, so a run keeps its gains
for a next run that reads the same ones, by one rule: when they fit the
current store, of any size inside a _shared_gains scope and up to 512
KB outside one; one draw can feed both schemes (see run_trials).  Block
size, worker count and reuse change no bit of any result.  run_trials estimates the probability
that all SUs are served (the serving verdict uses the estimated
constraints, i.e. what the SBS can check; the true-channel verdict is
kept as an audit column).  max_sus_at_confidence searches the largest number of SUs
servable at a given confidence along a constraint sweep; its probes stop
serving, and drawing, trials once their verdict is settled.
EmpiricalCdf pools raw samples for Kolmogorov-Smirnov comparisons
against the closed-form laws.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .analytics import optimize_equal_power
from .beamforming import (MEB, ZFB, AntennaShortageError, IllConditionedError, compute_meb,
                          compute_zfb)
from .network import ChannelRealization, NetworkConfig, evaluate_links, generate_channels
from .power import _lf_block, equal_power, slack_from_links

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
# A block's ~60 numpy calls for beams and links are shared by its trials,
# and so are its calls for power and slack where a streamed or deciding
# call serves it (a call on kept gains serves a run of blocks at once):
# against 2^13 (3 trials at m_b=64), the benchmark's trials_m64 ran
# about 10% more trials per second while its peak memory rose 3%, from
# 47.1 to 48.6 MB (a block's arrays, about twice this budget, live at
# once).  2^16 ran no faster (541 against 530 us/trial) in 1.6 MB more.
_BLOCK_ELEMENTS = 2 ** 15

# the config fields that a trial's channels, beams and link gains do not read
_SERVE_FIELDS = ("r0", "i0", "p0")


@dataclass
class _GainsStore:
    """run_trials' kept link gains.  entries is {key: (schemes, drawn,
    rest)}: the schemes held, the _gains blocks drawn so far and an
    iterator of the rest; limit is the most floats a call may keep;
    schemes are those a miss computes together; settle_at is the
    confidence that a deciding call settles at, or None."""

    entries: dict
    limit: float
    schemes: tuple = ()
    settle_at: float | None = None


# outside any _shared_gains scope, one store shared by every thread; its
# limit is the size of the block of channels the gains stage holds (512 KB)
_GAINS = ContextVar("_GAINS", default=_GainsStore({}, 2 * _BLOCK_ELEMENTS, (MEB, ZFB)))

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


def _check_integer(name, val, least):
    """ValueError naming `name` unless val is an int or numpy integer (not a
    bool) of at least `least`."""
    if not isinstance(val, (int, np.integer)) or isinstance(val, bool):
        raise ValueError(f"{name} must be an integer, got {val!r}")
    if val < least:
        raise ValueError(f"{name} must be at least {least}, got {val}")


def trial_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Sub-seed of trial `index` under a master seed, both integers >= 0.

    A bool, a float or a negative value raises ValueError naming the
    argument, as run_trials' seed check does."""
    _check_integer("master_seed", master_seed, 0)
    _check_integer("index", index, 0)
    return np.random.SeedSequence(entropy=(int(master_seed), int(index)))


def _gains(config, schemes, master_seed, trials):
    """{scheme: [(rows, gains)]} of `trials`, consecutive indices in order, one pool task.

    The trials' draws, in trial order, are stacked read-only along a
    leading axis (one trial is viewed, not copied) for one MEB beam call;
    _block_gains turns them into the gains without drawing a trial again."""
    n, block = len(trials), {}
    for t, i in enumerate(trials):
        for name, a in vars(generate_channels(config, trial_seed(master_seed, i))).items():
            if t == 0:
                block[name] = a[None] if n == 1 else np.empty((n, *a.shape), dtype=complex)
            if n > 1:
                block[name][t] = a
    for a in block.values():
        a.setflags(write=False)
    real = ChannelRealization(**block)
    return _block_gains(real, compute_meb(real), schemes, trials[0], config)


def _block_gains(real, meb, schemes, first, config):
    """_gains of the block `real` of trials first, first + 1, ..., from its
    MEB beams `meb`: gains is the LinkMetrics of trials `rows`, one link
    call per scheme, or the name of the exception the beams raised.  A
    block ill-conditioned for ZFB is solved again for ZFB alone, one trial
    at a time from views of its channels and MEB beams, so only that trial
    fails, no trial is drawn twice and the block's MEB gains stand."""
    n, out = len(meb.v), {}
    rows = slice(first, first + n)
    for scheme in schemes:
        try:
            beams = meb if scheme == MEB else compute_zfb(real, meb)
        except (AntennaShortageError, IllConditionedError) as exc:
            out[scheme] = [(rows, type(exc).__name__)]
        else:
            out[scheme] = [(rows, evaluate_links(real, beams.v, beams.u, config))]
    if n > 1 and out.get(ZFB) == [(rows, IllConditionedError.__name__)]:
        out[ZFB] = [part for t in range(n) for part in _block_gains(
            *(type(x)(**{k: a[t:t + 1] for k, a in vars(x).items()}) for x in (real, meb)),
            (ZFB,), first + t, config)[ZFB]]
    return out


def _trial_gains(config, schemes, master_seed, n_trials, n_workers):
    """The _gains of trials 0..n_trials-1, block by block in trial order.

    One worker computes each block as it is taken; more start a process
    pool that computes the same blocks, one task each, in trial order.
    """
    per_block = max(1, _BLOCK_ELEMENTS // (config.k_su * config.m_u * config.m_b))
    blocks = [range(lo, min(lo + per_block, n_trials)) for lo in range(0, n_trials, per_block)]
    gains = functools.partial(_gains, config, schemes, master_seed)
    if n_workers == 1:
        yield from map(gains, blocks)
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            yield from pool.map(gains, blocks)


def _drawn_then_rest(drawn, rest):
    """The blocks in `drawn`, then those of `rest`, each appended to `drawn` as it comes."""
    yield from drawn
    for part in rest:
        drawn.append(part)
        yield part


def _joined(parts):
    """The (rows, gains) parts, in trial order, with each run of consecutive
    LinkMetrics joined along the trial axis into one; a failed part stays its own."""
    for failed, run in itertools.groupby(parts, key=lambda part: isinstance(part[1], str)):
        run = list(run)
        if failed or len(run) == 1:
            yield from run
        else:
            first = run[0][1]
            yield slice(run[0][0].start, run[-1][0].stop), dataclasses.replace(first, **{
                f.name: np.concatenate([getattr(links, f.name) for _, links in run])
                for f in dataclasses.fields(first) if f.name != "noise"})


def _serve_part(links, scheme, config, power):
    """(p, est, true, served, served_true) of a part of trials, trial axis first:
    the powers `power`, or the LF allocation (_lf_block) where power is None,
    their (estimated, true) SlackReports and verdicts, which need LF's too."""
    if power is None:
        p, solver_ok = _lf_block(links, scheme, config)
    else:
        p = np.broadcast_to(power, (len(links.cross), config.k_su))
        solver_ok = True
    est, true = slack_from_links(links, p, config)
    return p, est, true, solver_ok & est.all_met(), solver_ok & true.all_met()


def _serve(parts, n, config, scheme, power, settle_at=None) -> dict:
    """The result buffers of n trials, trial axis first, from the (rows, gains)
    parts of their gains for `scheme`, in trial order.

    Each part is served by one _serve_part call.  A failed trial keeps
    its NaN samples and unserved verdicts, and its error names the
    exception; the error entry is None for a trial that ran.
    With settle_at set, it stops after the part, failed or not, that
    settles whether p_served >= settle_at: the s trials served among the
    first m pass it once s / n does, and fail it once n - (m - s), the
    most that can still be served, over n falls below it.  The trials
    after that part keep the buffers of a failed trial, with no error.
    """
    out = {"served": np.zeros(n, dtype=bool), "served_true": np.zeros(n, dtype=bool),
           "sinr_est": np.full((n, config.k_su), np.nan),
           "sinr_true": np.full((n, config.k_su), np.nan),
           "int_to_pu_est": np.full((n, config.l_rx), np.nan),
           "int_to_pu_true": np.full((n, config.l_rx), np.nan),
           "error": np.full(n, None, dtype=object)}
    for rows, links in parts:
        if isinstance(links, str):
            out["error"][rows] = links
        else:
            _, est, true, out["served"][rows], out["served_true"][rows] = _serve_part(
                links, scheme, config, power)
            for flavor, report in (("est", est), ("true", true)):
                out[f"sinr_{flavor}"][rows] = report.sinr
                out[f"int_to_pu_{flavor}"][rows] = report.int_to_pu
        if settle_at is not None:
            served = int(out["served"].sum())  # no trial past this part has run
            if served / n >= settle_at or (n - (rows.stop - served)) / n < settle_at:
                break
    return out


@contextlib.contextmanager
def _shared_gains(confidence=None, schemes=()):
    """A scope with a fresh store of no limit for run_trials' link gains.

    It holds one draw's gains at most, about n_trials k_su^2 floats a
    scheme (16 MB at 500 trials and k_su = 64), and drops them on exit;
    a nested scope starts empty.  A miss computes all of `schemes` if
    its own is one of them.  With a confidence the scope decides: a call
    at one worker stops serving, and drawing, trials once whether
    p_served >= confidence is settled (see _serve), and keeps the blocks
    drawn so far with the iterator of the rest, so a later call with the
    same key draws only the blocks it still needs.
    """
    token = _GAINS.set(_GainsStore({}, math.inf, schemes, confidence))
    try:
        yield
    finally:
        _GAINS.reset(token)


def _policy_power(config, scheme, policy, p_eq):
    """(p_eq, per-SU powers) that `policy` runs at, (None, None) under POLICY_LF.

    POLICY_EQUAL_POWER_OPT runs at optimize_equal_power's p_eq whatever p_eq
    is given.  An unknown policy, or a missing or bad p_eq, raises ValueError."""
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if policy == POLICY_LF:
        return None, None
    if policy == POLICY_EQUAL_POWER_OPT:
        p_eq = optimize_equal_power(scheme, config).p_eq
    if p_eq is None:
        raise ValueError("equal-power policy needs p_eq")
    return p_eq, equal_power(config, p_eq)


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
        n_trials: number of realizations, an integer >= 1.
        seed: master seed, an integer >= 0; trial i uses sub-seed (seed, i).
        p_eq: per-SU power for POLICY_EQUAL_POWER, finite and >= 0.
        n_workers: process count, an integer >= 1; the result does not depend on it.
            More than one starts a pool for the gains stage, in which one
            _gains call draws, beams and links each block of trials; the
            serve stage always runs in the calling process.

    A bad count, seed, scheme, policy or p_eq raises ValueError before
    the optimizer runs or any channel is drawn.

    One rule keeps a call's channels, beams and link gains.  The store
    keys an entry by its draw: a call reuses the entry when it holds the
    call's scheme and only r0, i0, p0, the policy or p_eq differ, at any
    worker count, and montecarlo binds the same trial_seed,
    generate_channels, compute_meb, compute_zfb and evaluate_links (a
    patched or traced stage draws afresh).  On a miss it empties the
    store, draws, and keeps its gains if their n_trials k_su (k_su + 2 +
    2 l_rx) floats a scheme fit the store's limit; a larger call streams
    its trials.  The miss computes, from one draw, every scheme the store
    names if the call's is one of them and all fit; else only its own.
    Threads that miss at once can each leave an entry.  Outside any
    scope the store is shared by every thread, names MEB and ZFB and
    fits 2 _BLOCK_ELEMENTS floats (512 KB: 468 trials of one scheme at
    the default config, 234 of both); a _shared_gains scope
    (max_sus_at_confidence and the CLI open them) sets one with no
    limit.  The result is bit-identical to a fresh draw.  A call that
    reads a kept entry, and does not decide as below, serves each run of
    trials whose beams did not fail in one piece: one allocation (LF-MEB
    still one solve_lf_meb call per trial) and one slack pass, on the
    run's gains joined for the call and dropped after it.  A call that
    streams serves block by block, so its memory stays bounded.

    Inside the deciding scope of max_sus_at_confidence, a call with
    n_workers = 1 serves and draws trials block by block and stops once
    whether p_served >= confidence is settled.  Its result then counts
    the trials it did not run as not served, in p_served and the audit
    rates, which gives the same verdict, and their samples stay NaN;
    n_failed counts only the trials that ran.  Any other call that keeps
    its gains draws them all before serving, so a failed draw keeps none.

    Returns:
        ExperimentResult with exact p_served = (#served)/n_trials,
        binomial standard error, true-channel audit rates and pooled
        SINR/interference samples (failed trials contribute NaNs).
    """
    for name, val, least in (("n_trials", n_trials, 1), ("n_workers", n_workers, 1),
                             ("seed", seed, 0)):
        _check_integer(name, val, least)
    if scheme not in (MEB, ZFB):
        raise ValueError(f"unknown scheme {scheme!r}")
    p_eq, power = _policy_power(config, scheme, policy, p_eq)

    store = _GAINS.get()
    # a pool's generator is never left suspended
    settle_at = store.settle_at if n_workers == 1 else None
    key = (tuple(v for f, v in vars(config).items() if f not in _SERVE_FIELDS),
           seed, n_trials, trial_seed, generate_channels, compute_meb, compute_zfb,
           evaluate_links)
    kept = store.entries.get(key)  # not [key]: another thread may clear the entry
    if kept is None or scheme not in kept[0]:
        # before drawing, so one caller's old and new gains never coexist
        store.entries.clear()
        size = n_trials * config.k_su * (config.k_su + 2 + 2 * config.l_rx)  # one scheme's
        schemes = (store.schemes if scheme in store.schemes
                   and len(store.schemes) * size <= store.limit else (scheme,))
        blocks = _trial_gains(config, schemes, seed, n_trials, n_workers)
        kept = None  # a call too large for the store streams its trials and keeps none
        if size <= store.limit:  # an eager entry's rest is its spent iterator
            kept = store.entries[key] = (schemes, [] if settle_at else list(blocks), blocks)
    blocks = blocks if kept is None else _drawn_then_rest(*kept[1:])
    parts = (part for block in blocks for part in block[scheme])
    # kept gains are held anyway, so a run of them serves in one piece; a deciding
    # call serves block by block to settle early, a streamed one to bound its memory
    if kept is not None and settle_at is None:
        parts = _joined(parts)
    out = _serve(parts, n_trials, config, scheme, power, settle_at)

    p_served = out["served"].sum() / n_trials
    return ExperimentResult(
        config=config,
        scheme=scheme,
        policy=policy,
        p_eq=None if p_eq is None else float(p_eq),
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


def _largest_passing_k(k_cap):
    """The max-SU search of one sweep value, as a generator.

    Yields each probed k and is sent whether it passes.  Probes k = 1,
    doubles k while it passes and stays within k_cap, probes k_cap, then
    bisects between the largest pass and the smallest fail.  Returns the
    largest passing k, 0 when k = 1 fails.
    """
    if not (yield 1):
        return 0
    lo = 1  # largest k known to pass
    hi = None  # smallest k known to fail
    while hi is None and lo * 2 <= k_cap:
        k = lo * 2
        if (yield k):
            lo = k
        else:
            hi = k
    if hi is None and lo < k_cap:
        if (yield k_cap):
            lo = k_cap
        else:
            hi = k_cap
    while hi is not None and hi - lo > 1:
        mid = (lo + hi) // 2
        if (yield mid):
            lo = mid
        else:
            hi = mid
    return lo


def max_sus_at_confidence(config_base: NetworkConfig, scheme: str, confidence: float,
                          sweep_name: str, sweep_values, n_trials: int = 500, seed: int = 0,
                          policy: str = POLICY_EQUAL_POWER_OPT,
                          p_eq: float | None = None) -> list[tuple[float, int]]:
    """Largest servable SU count per sweep value at the given confidence.

    For each value of the swept config key (a field or a dB key such as
    p0_db, applied as NetworkConfig.with_items does), binary-searches the
    largest k with p_served >= confidence; k ranges over 1..min(64,
    m_b - l_rx) of that value's config (the ZF antenna condition).
    Returns [(value, max_k)].  An unknown key, k_su (which the search
    sets), or a value that leaves no room for any SU raises ValueError
    before any trial.

    The values' searches run in lockstep: each round takes every
    unfinished search's next probe and runs the probes in order of k,
    inside one deciding _shared_gains scope, so values whose probes agree
    in k (the doubling k = 1, 2, 4, ... along a rate sweep) share one
    draw of each trial when the sweep leaves the gains alone.  Each value
    probes the same k as a search of its own would, with the same
    run_trials call.  A probe serves its trials block by block and stops
    once its verdict is settled, drawing only the trials that no earlier
    probe of the same k drew; the trials it skips count as not served in
    its p_served, which gives the verdict that serving all would.

    Known constraint axes are checked for monotonicity: max_k should not
    increase along tightening r0 nor decrease along loosening i0/p0
    (linear or dB).  Monte Carlo noise can break that near the
    confidence level, so a break emits a RuntimeWarning naming the rows,
    which are returned unchanged.  The search itself assumes p_served
    falls with k.  At small trial counts noise can break that too, and
    then max_k depends on the probe path: at m_b = 100, with 10 trials
    of ZFB under the default config and seed 1, a search capped at k =
    63 reports 59 and one capped at 64 reports 55 (k = 56 fails where
    k = 59 passes).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    if sweep_name == "k_su":
        raise ValueError("the max-SU search sets k_su; it cannot be the sweep axis")
    points = [(value, config_base.with_items({sweep_name: value})) for value in sweep_values]
    searches = []
    for value, cfg in points:
        k_cap = min(MAX_K_SWEEP, cfg.m_b - cfg.l_rx)
        if k_cap < 1:
            raise ValueError(f"{sweep_name}={value}: m_b - l_rx leaves no room for any SU")
        searches.append(_largest_passing_k(k_cap))

    probes = {i: next(search) for i, search in enumerate(searches)}
    max_k = {}
    with _shared_gains(confidence):
        while probes:
            for i in sorted(probes, key=probes.get):  # equal k run back to back
                res = run_trials(points[i][1].replace(k_su=probes[i]), scheme, policy,
                                 n_trials, seed, p_eq=p_eq)
                try:
                    probes[i] = searches[i].send(res.p_served >= confidence)
                except StopIteration as done:
                    max_k[i] = done.value
                    del probes[i]
    rows = [(value, max_k[i]) for i, (value, _) in enumerate(points)]

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
