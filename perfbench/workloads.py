"""The four benchmark workloads.

A workload turns the benchmark seed into an endless, deterministic
sequence of operations and runs one operation at a time through the
public crmimo API (``api`` is the imported package).  An operation is
one answer a user waits for; it returns ``Item``s, one per program call
whose output is checked against the references recorded in
``references/<workload>.json``.

Every input a run can draw comes from a fixed pool (master seeds, a
config grid, sample sets) whose outputs were recorded at the commit that
defined the benchmark, so every operation of every run is checked
exactly, whatever seed the run is given.  The seed picks which pool
entries a run uses and in what order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from tracer import CallCounter

MEB, ZFB = "MEB", "ZFB"
EP_OPT, EP, LF = "EQUAL_POWER_OPT", "EQUAL_POWER", "LF"

QUANTILES = (0.1, 0.5, 0.9)
SAMPLE_FIELDS = ("sinr_est", "sinr_true", "int_to_pu_est", "int_to_pu_true")

# Continuous outputs, compared within REL_TOL so that a reordered but
# equivalent floating-point computation still passes; every other field
# (verdict rates, failure counts, max-SU rows) must match exactly.
REL_TOL = 1e-6
TOLERANT_FIELDS = {"p_eq", "q", "ks"} | {f"{field}_q" for field in SAMPLE_FIELDS}


@dataclass
class Item:
    """One checked program call inside an operation."""

    key: str
    scheme: str
    seconds: float
    work: int
    output: dict


def _shuffled_cycle(rng, entries):
    """Visit every pool entry once in random order, then again, forever.

    Sampling without replacement keeps the work of one run close to the
    pool average, which keeps run-to-run spread down.
    """
    entries = list(entries)
    while True:
        for i in rng.permutation(len(entries)):
            yield entries[i]


def summarize_result(res) -> dict:
    """The checked fields of an ExperimentResult.

    Pooled samples are compared through quantiles, and only under the
    equal-power policies: LF samples depend on which feasible point the
    LF solver returns, which is not part of its contract.
    """
    out = {
        "p_served": res.p_served,
        "p_served_true": res.p_served_true,
        "csi_violation_rate": res.csi_violation_rate,
        "n_failed": res.n_failed,
    }
    if res.policy != LF:
        out["p_eq"] = res.p_eq
        for field in SAMPLE_FIELDS:
            out[f"{field}_q"] = np.quantile(getattr(res, field), QUANTILES).tolist()
    return out


def mismatches(output: dict, expected: dict) -> list[str]:
    """Fields of ``output`` that differ from the recorded reference."""
    bad = []
    for field in sorted(set(output) | set(expected)):
        got, want = output.get(field), expected.get(field)
        if field in TOLERANT_FIELDS and got is not None and want is not None:
            got_a, want_a = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
            ok = got_a.shape == want_a.shape and bool(
                np.all(np.abs(got_a - want_a) <= REL_TOL * np.abs(want_a) + 1e-12))
        else:
            ok = got == want
        if not ok:
            bad.append(f"{field}: got {got!r}, want {want!r}")
    return bad


class PooledWorkload:
    """A workload whose operations each take one master seed from a pool."""

    pool: int

    def ops(self, seed: int):
        return _shuffled_cycle(np.random.default_rng(seed), range(self.pool))

    def prepare(self, api, seed: int):
        pass

    def reference_items(self, api):
        for master in range(self.pool):
            yield from self.run(api, master)


class TrialsWorkload(PooledWorkload):
    """run_trials over the four {MEB, ZFB} x {EQUAL_POWER_OPT, LF} cells.

    One operation runs every cell once, ``trials`` trials each, under one
    master seed from the pool: the 2 x 2 table of serving probabilities.
    """

    cells = ((MEB, EP_OPT), (MEB, LF), (ZFB, EP_OPT), (ZFB, LF))

    def __init__(self, name: str, why: str, m_b: int, trials: int, pool: int):
        self.name, self.why = name, why
        self.m_b, self.trials, self.pool = m_b, trials, pool
        self.shapes = ((4, m_b),)

    def config(self, api):
        return api.NetworkConfig(m_b=self.m_b)

    def first_result(self, api):
        return api.run_trials(self.config(api), MEB, EP_OPT, 1, seed=0)

    def run(self, api, master: int) -> list[Item]:
        cfg = self.config(api)
        items = []
        for scheme, policy in self.cells:
            t0 = perf_counter()
            res = api.run_trials(cfg, scheme, policy, self.trials, seed=master)
            items.append(Item(f"{scheme}_{policy}/{master}", scheme, perf_counter() - t0,
                              self.trials, summarize_result(res)))
        return items


class Fig5Workload(PooledWorkload):
    """max_sus_at_confidence on the Criterion 8 scenario, both schemes.

    One operation is the full max-SU table (r0 = 1..4) of both schemes
    under one master seed.  Work is counted as the trials the search ran,
    at the run_trials binding the search calls through.
    """

    r0_values = (1.0, 2.0, 3.0, 4.0)
    confidence = 0.95

    def __init__(self, name: str, why: str, trials: int, pool: int):
        self.name, self.why = name, why
        self.trials, self.pool = trials, pool
        self.shapes = ((4, 128),)

    def config(self, api):
        return api.NetworkConfig(m_b=128, sigma2_delta=0.1)

    def first_result(self, api):
        return api.run_trials(self.config(api).replace(k_su=1), ZFB, EP_OPT, 1, seed=0)

    def run(self, api, master: int) -> list[Item]:
        cfg = self.config(api)
        items = []
        for scheme in (MEB, ZFB):
            with CallCounter(api.montecarlo, "run_trials", "n_trials") as counter:
                t0 = perf_counter()
                rows = api.max_sus_at_confidence(cfg, scheme, self.confidence, "r0",
                                                 self.r0_values, n_trials=self.trials,
                                                 seed=master)
                seconds = perf_counter() - t0
            items.append(Item(f"{scheme}/{master}", scheme, seconds, counter.total,
                              {"rows": [[float(v), int(k)] for v, k in rows]}))
        return items


class AnalyticWorkload:
    """optimize_equal_power over a config grid, plus KS validation.

    One operation optimizes ``batch`` grid configs for both schemes and
    then computes the KS distance of four fixed pooled sample sets
    against the four closed-form CDFs.  The samples come from run_trials
    in ``prepare``, before timing; a run uses two of the ``sample_sets``
    recorded sets, alternating.
    """

    grid_m_b = (64, 128, 1024)
    grid_k_su = tuple(range(1, 61))
    grid_r0 = (1.0, 2.0, 3.0, 4.0)
    grid_sigma2_delta = (0.01, 0.1)

    def __init__(self, name: str, why: str, batch: int, sample_sets: int,
                 sample_trials: int):
        self.name, self.why = name, why
        self.batch, self.sample_sets, self.sample_trials = batch, sample_sets, sample_trials
        self.grid = list(itertools.product(self.grid_m_b, self.grid_k_su,
                                           self.grid_r0, self.grid_sigma2_delta))
        self.shapes = tuple((4, m_b) for m_b in self.grid_m_b)
        self._samples = {}

    def grid_config(self, api, index: int):
        m_b, k_su, r0, s2d = self.grid[index]
        return api.NetworkConfig(m_b=m_b, k_su=k_su, r0=r0, sigma2_delta=s2d)

    def _sets_for(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        return [int(s) for s in rng.choice(self.sample_sets, size=2, replace=False)]

    def ops(self, seed: int):
        rng = np.random.default_rng(seed)
        configs = _shuffled_cycle(rng, range(len(self.grid)))
        for sample_set in itertools.cycle(self._sets_for(seed)):
            yield (tuple(next(configs) for _ in range(self.batch)), sample_set)

    def draw_samples(self, api, sample_set: int) -> dict:
        """Pooled true-channel samples of one recorded set, per scheme."""
        cfg = api.NetworkConfig()
        p_eq = cfg.p0 / cfg.k_su
        out = {}
        for scheme in (MEB, ZFB):
            res = api.run_trials(cfg, scheme, EP, self.sample_trials, seed=sample_set,
                                 p_eq=p_eq)
            out[scheme] = {"sinr": res.sinr_true, "interference": res.int_to_pu_true}
        return out

    def prepare(self, api, seed: int):
        self._samples = {s: self.draw_samples(api, s) for s in self._sets_for(seed)}

    def first_result(self, api):
        return api.optimize_equal_power(MEB, self.grid_config(api, 0))

    def validate(self, api, sample_set: int, samples: dict) -> list[Item]:
        """KS distance of each pooled sample set against its closed-form law."""
        cfg = api.NetworkConfig()
        p_eq = cfg.p0 / cfg.k_su
        items = []
        for scheme in (MEB, ZFB):
            t0 = perf_counter()
            if scheme == MEB:
                model = api.meb_sinr_params(cfg, p_eq)
                laws = {"sinr": lambda s: api.meb_sinr_cdf(model, max(s, 1e-300)),
                        "interference": lambda x: api.meb_interference_cdf(cfg, p_eq, x)}
            else:
                model = api.zfb_sinr_params(cfg, p_eq)
                laws = {"sinr": lambda s: api.zfb_sinr_cdf(model, s),
                        "interference": lambda x: api.zfb_interference_cdf(cfg, p_eq, x)}
            for quantity, cdf in laws.items():
                ks = api.empirical_cdf(samples[scheme][quantity]).ks_distance(cdf)
                t1 = perf_counter()
                items.append(Item(f"ks/{sample_set}/{scheme}/{quantity}", scheme, t1 - t0,
                                  0, {"ks": ks}))
                t0 = t1
        return items

    def optimize(self, api, indices) -> list[Item]:
        items = []
        for index in indices:
            cfg = self.grid_config(api, index)
            for scheme in (MEB, ZFB):
                t0 = perf_counter()
                opt = api.optimize_equal_power(scheme, cfg)
                items.append(Item(f"opt/{index}/{scheme}", scheme, perf_counter() - t0, 1,
                                  {"p_eq": opt.p_eq, "q": opt.q,
                                   "range_feasible": opt.range_feasible}))
        return items

    def run(self, api, op) -> list[Item]:
        indices, sample_set = op
        return (self.optimize(api, indices)
                + self.validate(api, sample_set, self._samples[sample_set]))

    def reference_items(self, api):
        yield from self.optimize(api, range(len(self.grid)))
        for sample_set in range(self.sample_sets):
            yield from self.validate(api, sample_set, self.draw_samples(api, sample_set))


WORKLOADS = {w.name: w for w in (
    TrialsWorkload(
        "trials_m64",
        "m_b=64: small arrays, so per-trial Python overhead and the LF simplex are visible",
        m_b=64, trials=64, pool=48),
    TrialsWorkload(
        "trials_m1024",
        "m_b=1024: bound by BLAS and the RNG (beams, link kernel, channel draw); "
        "power-layer changes should not show",
        m_b=1024, trials=8, pool=48),
    Fig5Workload(
        "fig5_search",
        "max-SU search on the Criterion 8 scenario: k up to 64 stresses the k x k link "
        "kernel through many short run_trials calls",
        trials=10, pool=4),
    AnalyticWorkload(
        "analytic_sweep",
        "equal-power optimizer over a config grid plus KS validation: the only workload "
        "where analytics and specfun dominate",
        batch=8, sample_sets=8, sample_trials=300),
)}
