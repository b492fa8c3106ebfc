"""Seeded trials: determinism, serving logic, pooled samples and the CDF tools."""

import dataclasses
import math
import re
import sys
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

import crmimo.montecarlo
import crmimo.power
from crmimo.analytics import (
    GammaParams,
    PointMassParams,
    laws,
    meb_sinr_cdf,
    meb_sinr_params,
    zfb_sinr_params,
)
from crmimo.beamforming import MEB, ZFB, compute_meb, compute_zfb
from crmimo.montecarlo import (
    MAX_K_SWEEP,
    POLICY_EQUAL_POWER,
    POLICY_EQUAL_POWER_OPT,
    POLICY_LF,
    EmpiricalCdf,
    ExperimentResult,
    _shared_gains,
    empirical_cdf,
    max_sus_at_confidence,
    run_trials,
    trial_seed,
)
from crmimo.network import NetworkConfig, evaluate_links, generate_channels
from crmimo.power import equal_power, slack_from_links

SMALL = NetworkConfig(m_b=16, m_u=2, k_su=3, l_tx=1, l_rx=1, sigma2_delta=0.01)
RESULT_FIELDS = ("p_served", "stderr", "p_served_true", "csi_violation_rate", "n_failed",
                 "sinr_est", "sinr_true", "int_to_pu_est", "int_to_pu_true")


def trials_per_block(monkeypatch, config, n):
    """Set the block budget so that a block holds n trials of config."""
    monkeypatch.setattr(crmimo.montecarlo, "_BLOCK_ELEMENTS",
                        n * config.k_su * config.m_u * config.m_b)


def reached_past_the_checks(*args, **kwargs):
    raise AssertionError("reached past the argument checks")


def counted_draws(monkeypatch):
    """The trial seeds' entropies that run_trials draws from, as it draws them."""
    draws = []
    original = crmimo.montecarlo.generate_channels

    def counted(config, seed):
        draws.append(seed.entropy)
        return original(config, seed)

    monkeypatch.setattr(crmimo.montecarlo, "generate_channels", counted)
    return draws


def ill_conditioned_trial(monkeypatch, *indices):
    """Make the trials `indices` of every run rank deficient for ZFB: their
    two receiving-PU estimates coincide (the config needs l_rx >= 2)."""
    draw = crmimo.montecarlo.generate_channels

    def defective(config, seed):
        real = draw(config, seed)
        if seed.entropy[1] not in indices:
            return real
        hhat = real.hhat_pu_rx.copy()
        hhat[1] = hhat[0]
        return dataclasses.replace(real, hhat_pu_rx=hhat)

    monkeypatch.setattr(crmimo.montecarlo, "generate_channels", defective)


def kept_entries():
    """The {key: (schemes, drawn, rest)} entries of the store that run_trials uses here."""
    return crmimo.montecarlo._GAINS.get().entries


def assert_same_result(a, b):
    for name in RESULT_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y, equal_nan=True), name
        else:
            assert x == y, name


class TestSeeding:
    def test_trial_seeds_distinct(self):
        seqs = {tuple(trial_seed(7, i).entropy) for i in range(100)}
        assert len(seqs) == 100
        assert tuple(trial_seed(7, 0).entropy) != tuple(trial_seed(8, 0).entropy)

    @pytest.mark.parametrize("master_seed, index, name", [
        (1.5, 0, "master_seed"), (True, 0.7, "master_seed"), (2.0, 0, "master_seed"),
        (np.bool_(True), 0, "master_seed"), (-1, 0, "master_seed"), (0, 0.7, "index"),
        (0, False, "index"), (0, "3", "index"), (0, -2, "index"),
    ])
    def test_trial_seed_checks_its_arguments(self, master_seed, index, name):
        # int() would truncate: 1.5 and True would both give entropy 1
        with pytest.raises(ValueError, match=f"{name} must be "):
            trial_seed(master_seed, index)

    def test_trial_seed_takes_numpy_integers(self):
        seq = trial_seed(np.int64(7), np.uint8(3))
        assert seq.entropy == (7, 3) and all(type(e) is int for e in seq.entropy)

    def test_trial_realizations_differ(self):
        a = generate_channels(SMALL, trial_seed(0, 0))
        b = generate_channels(SMALL, trial_seed(0, 1))
        assert not np.array_equal(a.h_su, b.h_su)

    def test_run_deterministic(self):
        r1 = run_trials(SMALL, ZFB, POLICY_EQUAL_POWER, 40, seed=3, p_eq=0.5)
        r2 = run_trials(SMALL, ZFB, POLICY_EQUAL_POWER, 40, seed=3, p_eq=0.5)
        assert r1.p_served == r2.p_served
        assert np.array_equal(r1.sinr_true, r2.sinr_true)
        assert np.array_equal(r1.int_to_pu_est, r2.int_to_pu_est)

    def test_worker_independence(self):
        kw = dict(n_trials=30, seed=5, p_eq=0.4)
        serial = run_trials(SMALL, MEB, POLICY_EQUAL_POWER, n_workers=1, **kw)
        parallel = run_trials(SMALL, MEB, POLICY_EQUAL_POWER, n_workers=2, **kw)
        assert serial.p_served == parallel.p_served
        assert serial.p_served_true == parallel.p_served_true
        assert np.array_equal(serial.sinr_est, parallel.sinr_est)
        assert np.array_equal(serial.int_to_pu_true, parallel.int_to_pu_true)

    def test_seed_sensitivity_within_binomial_noise(self):
        r1 = run_trials(SMALL, ZFB, POLICY_EQUAL_POWER, 400, seed=1, p_eq=0.5)
        r2 = run_trials(SMALL, ZFB, POLICY_EQUAL_POWER, 400, seed=2, p_eq=0.5)
        se = np.hypot(max(r1.stderr, 1e-3), max(r2.stderr, 1e-3))
        assert abs(r1.p_served - r2.p_served) < 5 * se


class TestServingLogic:
    def test_vacuous_constraints_always_served(self):
        cfg = SMALL.replace(r0=1e-9, i0=1e9, p0=1e9)
        res = run_trials(cfg, ZFB, POLICY_EQUAL_POWER, 25, seed=0, p_eq=0.1)
        assert res.p_served == 1.0
        assert res.p_served_true == 1.0
        assert res.csi_violation_rate == 0.0

    def test_impossible_rate_never_served(self):
        cfg = SMALL.replace(r0=60.0)
        res = run_trials(cfg, MEB, POLICY_EQUAL_POWER, 25, seed=0, p_eq=0.1)
        assert res.p_served == 0.0

    def test_antenna_shortage_counts_failures(self):
        cfg = NetworkConfig(m_b=4, m_u=2, k_su=6, l_tx=1, l_rx=1)
        res = run_trials(cfg, ZFB, POLICY_EQUAL_POWER, 10, seed=0, p_eq=0.1)
        assert res.n_failed == 10
        assert res.p_served == 0.0
        assert np.all(np.isnan(res.sinr_true))

    def test_meb_unaffected_by_antenna_shortage(self):
        cfg = NetworkConfig(m_b=4, m_u=2, k_su=6, l_tx=1, l_rx=1, r0=1e-9, i0=1e9)
        res = run_trials(cfg, MEB, POLICY_EQUAL_POWER, 10, seed=0, p_eq=0.01)
        assert res.n_failed == 0
        assert res.p_served == 1.0

    def test_lf_policy_uses_solver_verdict(self):
        res = run_trials(SMALL, ZFB, POLICY_LF, 50, seed=1)
        assert res.p_eq is None
        assert 0.0 <= res.p_served <= 1.0
        # LF ZFB meets the estimated rates exactly when feasible, so the
        # serving rate equals the solver feasibility rate
        assert res.policy == POLICY_LF

    def test_opt_policy_resolves_power_once(self):
        res = run_trials(SMALL, MEB, POLICY_EQUAL_POWER_OPT, 10, seed=0)
        assert res.p_eq is not None and res.p_eq > 0
        again = run_trials(SMALL, MEB, POLICY_EQUAL_POWER, 10, seed=0, p_eq=res.p_eq)
        assert res.p_served == again.p_served

    def test_csi_violations_observable(self):
        # coarse CSI and a tight cap: some estimated-feasible trials
        # violate the true interference limit
        cfg = NetworkConfig(m_b=64, m_u=4, k_su=10, sigma2_delta=0.1, i0=10 ** -0.3)
        res = run_trials(cfg, ZFB, POLICY_EQUAL_POWER, 300, seed=2, p_eq=10 ** -0.5)
        assert res.csi_violation_rate > 0.0
        # mean(served) - mean(served_true) = mean(est-only) - mean(true-only)
        assert res.csi_violation_rate >= res.p_served - res.p_served_true - 1e-12

    def test_sample_pools_shapes(self):
        res = run_trials(SMALL, MEB, POLICY_EQUAL_POWER, 7, seed=0, p_eq=0.3)
        assert res.sinr_est.shape == (7 * SMALL.k_su,)
        assert res.int_to_pu_true.shape == (7 * SMALL.l_rx,)
        assert np.all(np.isfinite(res.sinr_est))
        assert isinstance(res, ExperimentResult)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_trials(SMALL, MEB, POLICY_EQUAL_POWER, 0, seed=0, p_eq=1.0)
        with pytest.raises(ValueError):
            run_trials(SMALL, MEB, "GREEDY", 5, seed=0)
        with pytest.raises(ValueError):
            run_trials(SMALL, MEB, POLICY_EQUAL_POWER, 5, seed=0)  # missing p_eq

    @pytest.mark.parametrize("n_workers", [0, -3])
    def test_worker_count_validated(self, n_workers):
        with pytest.raises(ValueError, match="n_workers must be at least 1"):
            run_trials(SMALL, MEB, POLICY_EQUAL_POWER, 5, seed=0, p_eq=1.0, n_workers=n_workers)

    @pytest.mark.parametrize("name,value", [("n_trials", 2.5), ("n_trials", True),
                                            ("n_workers", 1.5), ("n_workers", True),
                                            ("seed", 1.5), ("seed", True), ("seed", 2.0),
                                            ("seed", -1)])
    def test_counts_must_be_integers(self, name, value, monkeypatch):
        # rejected before the optimizer runs or a channel is drawn; the seed
        # would otherwise run as int(seed) and be recorded as given
        monkeypatch.setattr(crmimo.montecarlo, "optimize_equal_power", reached_past_the_checks)
        monkeypatch.setattr(crmimo.montecarlo, "generate_channels", reached_past_the_checks)
        counts = {"n_trials": 5, "n_workers": 1, "seed": 0, name: value}
        negative = not isinstance(value, bool) and value < 0
        with pytest.raises(ValueError, match=f"{name} must be "
                           + ("at least 0" if negative else "an integer")):
            run_trials(SMALL, MEB, POLICY_EQUAL_POWER_OPT, **counts)

    def test_numpy_integer_counts_accepted(self):
        res = run_trials(SMALL, MEB, POLICY_EQUAL_POWER, np.int64(3), seed=0, p_eq=0.3,
                         n_workers=np.int32(1))
        assert res.n_trials == 3
        seeded = run_trials(SMALL, MEB, POLICY_EQUAL_POWER, 3, seed=np.int64(0), p_eq=0.3)
        assert_same_result(res, seeded)

    def test_more_su_antennas_than_sbs_antennas(self):
        # m_u > m_b is a valid config: the optimizer reads the (m_b, m_u) Wishart mean
        cfg = NetworkConfig(m_b=4, m_u=8, k_su=2, l_tx=1, l_rx=1)
        res = run_trials(cfg, MEB, POLICY_EQUAL_POWER_OPT, 5, seed=0)
        assert res.n_failed == 0 and 0.0 <= res.p_served <= 1.0

    @pytest.mark.parametrize("scheme", [MEB, ZFB])
    def test_opt_policy_at_a_zero_threshold(self, scheme):
        # 2^r0 - 1 rounds to 0: the optimizer's bracket has no log floor of its own
        res = run_trials(SMALL.replace(r0=1e-17, i0=1e6), scheme, POLICY_EQUAL_POWER_OPT,
                         5, seed=0)
        assert res.n_failed == 0 and res.p_served == 1.0 and res.p_eq > 0

    @pytest.mark.parametrize("scheme", ["meb", "bogus"])
    @pytest.mark.parametrize("policy", [POLICY_LF, POLICY_EQUAL_POWER])
    def test_unknown_scheme_rejected(self, scheme, policy, monkeypatch, pools):
        # rejected before any pool starts or any channel is drawn
        monkeypatch.setattr(crmimo.montecarlo, "generate_channels", reached_past_the_checks)
        for n_workers in (1, 2):
            with pytest.raises(ValueError, match="unknown scheme"):
                run_trials(SMALL, scheme, policy, 30, seed=0, p_eq=0.5, n_workers=n_workers)
        assert pools == []

    @pytest.mark.parametrize("p_eq, message", [
        (-1.0, "p_eq must be finite and nonnegative"),
        (math.nan, "p_eq must be finite and nonnegative"),
        (math.inf, "p_eq must be finite and nonnegative"),
        (None, "equal-power policy needs p_eq"),
        (True, "p_eq must be a number"),
    ])
    def test_bad_power_rejected_before_any_draw(self, p_eq, message, monkeypatch, pools,
                                                gains_memo):
        monkeypatch.setattr(crmimo.montecarlo, "generate_channels", reached_past_the_checks)
        for n_workers in (1, 2):
            with pytest.raises(ValueError, match=message):
                run_trials(SMALL, MEB, POLICY_EQUAL_POWER, 30, seed=0, p_eq=p_eq,
                           n_workers=n_workers)
        assert pools == [] and gains_memo.entries == {}

    @pytest.mark.parametrize("p_eq", [1, np.float32(0.25)])
    def test_power_is_kept_as_a_float(self, p_eq):
        res = run_trials(SMALL, MEB, POLICY_EQUAL_POWER, 2, seed=0, p_eq=p_eq)
        assert type(res.p_eq) is float and res.p_eq == p_eq

    @pytest.mark.parametrize("scheme", [MEB, ZFB])
    def test_lf_without_receiving_pu_has_no_cap(self, scheme):
        # i0 / sigma2_delta = 0.1 bounds nothing when no PU receives
        cfg = NetworkConfig(l_rx=0, sigma2_delta=0.1, i0=0.01)
        assert run_trials(cfg, scheme, POLICY_LF, 200, seed=3).p_served == 1.0

    @pytest.mark.parametrize("scheme", [MEB, ZFB])
    def test_lf_evaluates_links_once_per_block(self, scheme, monkeypatch):
        calls = []
        for module in (crmimo.montecarlo, crmimo.power):
            original = module.evaluate_links

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "evaluate_links", counted)
        trials_per_block(monkeypatch, SMALL, 3)
        res = run_trials(SMALL, scheme, POLICY_LF, 7, seed=4)
        assert res.n_failed == 0
        assert len(calls) == 3  # blocks of 3, 3 and 1 trials


class TestBlocks:
    SHORTAGE = NetworkConfig(m_b=4, m_u=2, k_su=6, l_tx=1, l_rx=1)

    @pytest.mark.parametrize("config, scheme, policy", [
        (SMALL, MEB, POLICY_EQUAL_POWER), (SMALL, ZFB, POLICY_EQUAL_POWER),
        (SMALL, MEB, POLICY_LF), (SMALL, ZFB, POLICY_LF),
        (SHORTAGE, ZFB, POLICY_EQUAL_POWER),
    ])
    def test_results_independent_of_blocks_and_workers(self, config, scheme, policy,
                                                       monkeypatch):
        kw = dict(n_trials=23, seed=6, p_eq=0.3)
        results = []
        for n in (1, 7, 1000):
            trials_per_block(monkeypatch, config, n)
            for n_workers in (1, 2):
                results.append(run_trials(config, scheme, policy, n_workers=n_workers, **kw))
        assert results[0].n_failed == (23 if config is self.SHORTAGE else 0)
        for other in results[1:]:
            assert_same_result(results[0], other)

    @pytest.mark.parametrize("scheme", [MEB, ZFB])
    def test_block_matches_single_trial_calls(self, scheme, monkeypatch):
        # the public functions without a trial axis give the pooled samples bit for bit
        trials_per_block(monkeypatch, SMALL, 5)
        res = run_trials(SMALL, scheme, POLICY_EQUAL_POWER, 12, seed=8, p_eq=0.3)
        pooled = {name: [] for name in ("sinr_est", "sinr_true", "int_to_pu_est",
                                        "int_to_pu_true")}
        for i in range(12):
            real = generate_channels(SMALL, trial_seed(8, i))
            beams = compute_meb(real) if scheme == MEB else compute_zfb(real)
            links = evaluate_links(real, beams.v, beams.u, SMALL)
            est, true = slack_from_links(links, equal_power(SMALL, 0.3), SMALL)
            for flavor, report in (("est", est), ("true", true)):
                pooled[f"sinr_{flavor}"].append(report.sinr)
                pooled[f"int_to_pu_{flavor}"].append(report.int_to_pu)
        for name, parts in pooled.items():
            assert np.array_equal(getattr(res, name), np.concatenate(parts)), name

    def test_per_trial_call_shape(self, monkeypatch):
        # one seed, one draw and one LF solve per trial, in trial order; one
        # beam and one link call per block, and no ZFB beams for a MEB run
        calls = []

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls.append((name, args[1].entropy if name == "generate_channels" else None))
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in ("trial_seed", "generate_channels", "compute_meb", "compute_zfb",
                     "evaluate_links"):
            counting(crmimo.montecarlo, name)
        counting(crmimo.power, "solve_lf_meb")
        trials_per_block(monkeypatch, SMALL, 4)
        run_trials(SMALL, MEB, POLICY_LF, 10, seed=2)
        names = [name for name, _ in calls]
        for name, count in (("trial_seed", 10), ("generate_channels", 10),
                            ("solve_lf_meb", 10), ("compute_meb", 3), ("compute_zfb", 0),
                            ("evaluate_links", 3)):
            assert names.count(name) == count, name
        draws = [entropy for name, entropy in calls if name == "generate_channels"]
        assert draws == [(2, i) for i in range(10)]
        assert names[:2] == ["trial_seed", "generate_channels"]

    def test_lf_decides_a_zfb_block_in_one_call(self, monkeypatch):
        # LF-ZFB makes no solve_lf_zfb call, and equals one per trial field by
        # field (its trials are feasible, cap-blocked and budget-blocked);
        # LF-MEB still solves each trial with solve_lf_meb, as the benchmark's
        # tracer counts
        cfg = SMALL.replace(sigma2_delta=0.1, i0=0.3, r0=3.0, p0=4.0)
        solve_lf_zfb, calls = crmimo.power.solve_lf_zfb, Counter()
        for name in ("solve_lf_meb", "solve_lf_zfb"):
            def counted(*args, _name=name, _original=getattr(crmimo.power, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(crmimo.power, name, counted)
        trials_per_block(monkeypatch, cfg, 4)
        res = run_trials(cfg, ZFB, POLICY_LF, 10, seed=2)
        assert calls == Counter()
        run_trials(cfg, MEB, POLICY_LF, 10, seed=2)
        assert calls == Counter(solve_lf_meb=10)

        served, pooled, families = [], {name: [] for name in RESULT_FIELDS[5:]}, set()
        for i in range(10):
            real = generate_channels(cfg, trial_seed(2, i))
            beams = compute_zfb(real)
            links = evaluate_links(real, beams.v, beams.u, cfg)
            alloc = solve_lf_zfb(links, cfg)
            families.add(alloc.blocking)
            est, true = slack_from_links(links, alloc.p, cfg)
            served.append((alloc.feasible and est.all_met(), alloc.feasible and true.all_met()))
            for flavor, report in (("est", est), ("true", true)):
                pooled[f"sinr_{flavor}"].append(report.sinr)
                pooled[f"int_to_pu_{flavor}"].append(report.int_to_pu)
        assert families == {None, "interference", "power"}
        est_ok, true_ok = np.array(served).T
        p = est_ok.sum() / 10
        assert_same_result(res, SimpleNamespace(
            p_served=p, stderr=float(np.sqrt(p * (1.0 - p) / 10)),
            p_served_true=true_ok.sum() / 10, csi_violation_rate=(est_ok & ~true_ok).sum() / 10,
            n_failed=0, **{name: np.concatenate(parts) for name, parts in pooled.items()}))

    def test_ill_conditioned_trial_fails_alone(self, monkeypatch):
        # a duplicated receiving-PU estimate makes trial 3 rank deficient; its
        # block falls back to one trial at a time and loses only that trial
        cfg = SMALL.replace(l_rx=2)
        trials_per_block(monkeypatch, cfg, 6)
        clean = run_trials(cfg, ZFB, POLICY_EQUAL_POWER, 8, seed=1, p_eq=0.3)
        ill_conditioned_trial(monkeypatch, 3)
        res = run_trials(cfg, ZFB, POLICY_EQUAL_POWER, 8, seed=1, p_eq=0.3)
        assert res.n_failed == 1
        ok = np.arange(8) != 3
        for name in ("sinr_true", "int_to_pu_est"):
            got, want = getattr(res, name).reshape(8, -1), getattr(clean, name).reshape(8, -1)
            assert np.all(np.isnan(got[3]))
            assert np.array_equal(got[ok], want[ok]), name


# run_trials calls that differ only in what the serve stage reads: the rate
# floor, the cap, the budget, the policy and p_eq
SERVE_VARIANTS = (
    dict(policy=POLICY_EQUAL_POWER, p_eq=0.3),
    dict(policy=POLICY_EQUAL_POWER, p_eq=0.05, r0=2.0),
    dict(policy=POLICY_LF, i0=0.1),
    dict(policy=POLICY_EQUAL_POWER_OPT, p0=3.0),
    dict(policy=POLICY_LF, r0=0.5, p0=30.0),
    dict(policy=POLICY_EQUAL_POWER_OPT, r0=1.5, i0=1.0),
)
GAIN_CHANGES = (dict(m_b=20), dict(m_u=3), dict(k_su=2), dict(l_tx=2), dict(l_rx=2),
                dict(sigma2_h=2.0), dict(sigma2_delta=0.02), dict(sigma2_w=0.5),
                dict(p_p=2.0))


GAINS_CASES = ("MEB", "ZFB", "ill-conditioned", "antenna shortage")


def gains_case(case, monkeypatch):
    """(config, scheme, serve variants) of a GAINS_CASES case, in blocks of 4 trials."""
    config, scheme, variants = SMALL, ZFB, SERVE_VARIANTS
    if case == MEB:
        scheme = MEB
    elif case == "ill-conditioned":
        config = SMALL.replace(l_rx=2)
        ill_conditioned_trial(monkeypatch, 3)
    elif case == "antenna shortage":
        # the optimizer rejects this config, so no EQUAL_POWER_OPT call
        config = NetworkConfig(m_b=12, k_su=12)
        variants = [v for v in SERVE_VARIANTS if v["policy"] != POLICY_EQUAL_POWER_OPT]
    trials_per_block(monkeypatch, config, 4)
    return config, scheme, variants


def run_variants(config, scheme, variants, n_trials=9, seed=5, n_workers=1):
    results = []
    for variant in variants:
        kw = dict(variant)
        policy, p_eq = kw.pop("policy"), kw.pop("p_eq", None)
        results.append(run_trials(config.replace(**kw), scheme, policy, n_trials, seed,
                                  p_eq=p_eq, n_workers=n_workers))
    return results


def expect_shared(case, draws, results, fresh):
    """The first call drew and the others reused (draws is None where a pool
    drew): the block of trials 0-3 is drawn again one trial at a time when
    trial 3 is ill-conditioned."""
    if draws is not None:
        assert len(draws) == (9 + 4 if case == "ill-conditioned" else 9)
    expect_failed = {"ill-conditioned": 1, "antenna shortage": 9}.get(case, 0)
    for a, b in zip(fresh, results, strict=True):
        assert a.n_failed == expect_failed
        assert_same_result(a, b)


class TestSharedGains:
    @pytest.mark.parametrize("case", GAINS_CASES)
    def test_bit_identical_in_and_out_of_the_scope(self, case, monkeypatch):
        config, scheme, variants = gains_case(case, monkeypatch)
        outside = run_variants(config, scheme, variants)
        draws = counted_draws(monkeypatch)
        with _shared_gains():
            inside = run_variants(config, scheme, variants)
        expect_shared(case, draws, inside, outside)

    @pytest.mark.parametrize("change", [*GAIN_CHANGES, dict(scheme=MEB), dict(seed=6),
                                        dict(n_trials=8)],
                             ids=lambda change: "-".join(change))
    def test_any_gains_input_redraws(self, change, monkeypatch):
        first = dict(config=SMALL, scheme=ZFB, policy=POLICY_LF, n_trials=9, seed=5)
        second = dict(first)
        for name, value in change.items():
            if name in second:
                second[name] = value
            else:
                second["config"] = SMALL.replace(**{name: value})
        fresh = run_trials(**second)
        draws = counted_draws(monkeypatch)
        with _shared_gains():
            run_trials(**first)
            res = run_trials(**second)
        assert len(draws) == first["n_trials"] + second["n_trials"]
        assert_same_result(res, fresh)

    def test_reuse_ends_with_the_scope(self, monkeypatch, gains_memo):
        draws = counted_draws(monkeypatch)
        for _ in range(2):
            run_trials(SMALL, MEB, POLICY_EQUAL_POWER, 4, seed=1, p_eq=0.3)
        assert len(draws) == 4  # outside a scope, a repeated small call draws once
        trials_per_block(monkeypatch, SMALL, 1)  # the gains of 9 trials fit the bound
        gains_memo.limit = 2 * crmimo.montecarlo._BLOCK_ELEMENTS
        for _ in range(2):
            run_trials(SMALL, MEB, POLICY_EQUAL_POWER, 10, seed=1, p_eq=0.3)
        assert len(draws) == 4 + 20  # and a call over the bound redraws
        with _shared_gains():
            run_trials(SMALL, MEB, POLICY_EQUAL_POWER, 4, seed=1, p_eq=0.3)
            with _shared_gains():  # a nested scope starts empty
                run_trials(SMALL, MEB, POLICY_EQUAL_POWER, 4, seed=1, p_eq=0.3)
            run_trials(SMALL, MEB, POLICY_LF, 4, seed=1)
        run_trials(SMALL, MEB, POLICY_EQUAL_POWER, 4, seed=1, p_eq=0.3)
        assert len(draws) == 24 + 4 + 4 + 4
        assert crmimo.montecarlo._GAINS.get() is gains_memo

    def test_workers_read_and_fill_the_gains(self, monkeypatch, pools):
        # the first call's pool draws the gains and the scope keeps them; the
        # later calls, at either worker count, serve them and start no pool
        calls = [(policy, n_workers) for n_workers in (2, 2, 1)
                 for policy in (POLICY_LF, POLICY_EQUAL_POWER)]
        trials_per_block(monkeypatch, SMALL, 4)
        fresh = [run_trials(SMALL, ZFB, policy, 10, seed=2, p_eq=0.3) for policy, _ in calls]
        pools.clear()
        draws = counted_draws(monkeypatch)
        with _shared_gains():
            inside = [run_trials(SMALL, ZFB, policy, 10, seed=2, p_eq=0.3, n_workers=n_workers)
                      for policy, n_workers in calls]
        assert pools == [2]
        assert draws == []  # the pool drew every trial; the caller drew none
        for a, b in zip(fresh, inside):
            assert_same_result(a, b)


@pytest.mark.usefixtures("gains_memo")
class TestGainsMemo:
    """Outside a scope, run_trials keeps the last call's gains when they are small."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("case", GAINS_CASES)
    def test_hit_is_bit_identical_to_a_fresh_run(self, case, n_workers, monkeypatch, pools):
        config, scheme, variants = gains_case(case, monkeypatch)
        fresh = []
        for variant in variants:
            kept_entries().clear()
            fresh += run_variants(config, scheme, [variant])
        draws = counted_draws(monkeypatch)
        pools.clear()
        kept = run_variants(config, scheme, variants, n_workers=n_workers)
        if n_workers > 1:  # the first call's pool drew every trial, the others none
            assert draws == [] and pools == [n_workers]
            draws = None
        expect_shared(case, draws, kept, fresh)

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("order", [(MEB, ZFB), (ZFB, MEB)], ids="-then-".join)
    @pytest.mark.parametrize("case", GAINS_CASES)
    def test_one_draw_feeds_both_schemes(self, case, order, n_workers, monkeypatch, pools):
        # the first call computes both schemes' gains from one draw; the
        # second draws nothing, and each equals a run of its scheme alone
        config, _, variants = gains_case(case, monkeypatch)
        with _shared_gains():  # a scope that names no scheme computes one
            fresh = [run_variants(config, scheme, variants[:1])[0] for scheme in order]
        draws = counted_draws(monkeypatch)  # a binding of the key, so set before both calls
        first = run_variants(config, order[0], variants[:1], n_workers=n_workers)[0]
        draws.clear()
        pools.clear()
        second = run_variants(config, order[1], variants[:1], n_workers=n_workers)[0]
        assert draws == [] and pools == []
        for a, b in zip(fresh, (first, second)):
            for field in dataclasses.fields(ExperimentResult):
                x, y = getattr(a, field.name), getattr(b, field.name)
                assert (np.array_equal(x, y, equal_nan=True) if isinstance(x, np.ndarray)
                        else x == y), field.name

    @pytest.mark.parametrize("limit, both", [(377, False), (378, True)])
    def test_both_schemes_only_when_both_fit(self, limit, both, monkeypatch, gains_memo):
        # SMALL's gains are 21 floats per trial and scheme: 189 for 9 trials
        # of one scheme, 378 for both
        gains_memo.limit = limit
        zfb_beams = []
        original = crmimo.montecarlo.compute_zfb
        monkeypatch.setattr(crmimo.montecarlo, "compute_zfb",
                            lambda *args: zfb_beams.append(1) or original(*args))
        draws = counted_draws(monkeypatch)
        run_trials(SMALL, MEB, POLICY_EQUAL_POWER, 9, seed=1, p_eq=0.3)
        ((schemes, drawn, _),) = kept_entries().values()
        assert schemes == ((MEB, ZFB) if both else (MEB,))
        assert all(set(block) == set(schemes) for block in drawn)
        assert len(zfb_beams) == (len(drawn) if both else 0)
        draws.clear()
        run_trials(SMALL, ZFB, POLICY_EQUAL_POWER, 9, seed=1, p_eq=0.3)
        assert len(draws) == (0 if both else 9)

    def test_bound(self, monkeypatch, gains_memo):
        # SMALL's gains are 3 (3 + 2 + 2) = 21 floats per trial, and two blocks
        # of one trial hold 2 * 96 elements: 9 trials fit, 10 do not
        memo = gains_memo.entries
        run_trials(SMALL, MEB, POLICY_EQUAL_POWER, 4, seed=1, p_eq=0.3)
        assert len(memo) == 1
        trials_per_block(monkeypatch, SMALL, 1)
        gains_memo.limit = 2 * crmimo.montecarlo._BLOCK_ELEMENTS
        run_trials(SMALL, ZFB, POLICY_EQUAL_POWER, 10, seed=1, p_eq=0.3)
        assert memo == {}  # a call over the bound keeps nothing
        run_trials(SMALL, ZFB, POLICY_EQUAL_POWER, 9, seed=1, p_eq=0.3)
        assert len(memo) == 1

    @pytest.mark.parametrize("name", ["trial_seed", "generate_channels", "compute_meb",
                                      "compute_zfb", "evaluate_links"])
    def test_a_patched_stage_misses(self, name, monkeypatch):
        plain = run_trials(SMALL, ZFB, POLICY_LF, 6, seed=3)
        calls = []
        original = getattr(crmimo.montecarlo, name)

        def passthrough(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(crmimo.montecarlo, name, passthrough)
        patched = run_trials(SMALL, ZFB, POLICY_LF, 6, seed=3)
        assert calls  # the patched pipeline drew its own gains
        assert_same_result(plain, patched)
        calls.clear()
        run_trials(SMALL, ZFB, POLICY_EQUAL_POWER, 6, seed=3, p_eq=0.3)
        assert calls == []  # and keeps them for the same pipeline

    def test_a_miss_drops_the_old_entry_before_drawing(self, monkeypatch, gains_memo):
        memo = gains_memo.entries
        run_trials(SMALL, MEB, POLICY_EQUAL_POWER, 4, seed=1, p_eq=0.3)
        kept_while_drawing = []
        draw = crmimo.montecarlo.generate_channels

        def watched(config, seed):
            kept_while_drawing.append(len(memo))
            return draw(config, seed)

        monkeypatch.setattr(crmimo.montecarlo, "generate_channels", watched)
        run_trials(SMALL, MEB, POLICY_EQUAL_POWER, 4, seed=2, p_eq=0.3)
        assert kept_while_drawing == [0] * 4
        assert len(memo) == 1

    def test_a_failed_draw_leaves_no_entry(self, monkeypatch):
        # a kept entry is drawn in full before it is served: a lazy entry whose
        # draw died at trial 5 would serve trials 0-4 and count the rest as
        # unserved, with no failure
        fresh = run_trials(SMALL, ZFB, POLICY_EQUAL_POWER, 9, seed=3, p_eq=0.3)
        draws, fail_at = [], [5]
        draw = crmimo.montecarlo.generate_channels

        def fails_once(config, seed):  # one binding, so both calls share a key
            if seed.entropy[1] in fail_at:
                fail_at.clear()
                raise RuntimeError("draw failed")
            draws.append(seed.entropy[1])
            return draw(config, seed)

        monkeypatch.setattr(crmimo.montecarlo, "generate_channels", fails_once)
        with pytest.raises(RuntimeError, match="draw failed"):
            run_trials(SMALL, ZFB, POLICY_EQUAL_POWER, 9, seed=3, p_eq=0.3)
        assert draws == [0, 1, 2, 3, 4] and kept_entries() == {}
        res = run_trials(SMALL, ZFB, POLICY_EQUAL_POWER, 9, seed=3, p_eq=0.3)
        assert draws[5:] == list(range(9))
        assert_same_result(res, fresh)

    def test_a_numpy_scalar_field_draws_as_the_number_it_equals(self):
        # np.float32(1.0) equals and hashes as 1.0, so both configs share a key,
        # and a hit is right only because both draw the same bits
        narrow = SMALL.replace(sigma2_h=np.float32(SMALL.sigma2_h))
        fresh = run_trials(narrow, ZFB, POLICY_LF, 6, seed=3)
        kept_entries().clear()
        run_trials(SMALL, ZFB, POLICY_LF, 6, seed=3)
        assert_same_result(fresh, run_trials(narrow, ZFB, POLICY_LF, 6, seed=3))

    def test_threads_are_served_their_own_gains(self):
        # more threads than cores, switching often: a hit never serves another
        # call's gains, and an entry another thread clears never raises
        def run(scheme, policy, seed):
            return run_trials(SMALL, scheme, policy, 5, seed, p_eq=0.3)

        calls = [(scheme, policy, seed) for scheme in (MEB, ZFB) for seed in (1, 2)
                 for policy in (POLICY_EQUAL_POWER, POLICY_LF)]
        fresh = {}
        for call in calls:
            kept_entries().clear()
            fresh[call] = run(*call)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [(call, pool.submit(run, *call)) for call in calls * 8]
                results = [(call, future.result(timeout=120)) for call, future in futures]
        finally:
            sys.setswitchinterval(interval)
        for call, res in results:
            assert_same_result(fresh[call], res)


# every constraint met: a trial that runs is served
VACUOUS_SMALL = SMALL.replace(l_rx=2, r0=1e-9, i0=1e9, p0=1e9)


def shared_blocks():
    """The blocks drawn so far of the open scope's one entry, which holds ZFB alone."""
    ((schemes, drawn, _),) = kept_entries().values()
    assert schemes == (ZFB,)
    return drawn


class TestSettledProbes:
    """In a deciding scope, a call stops once p_served >= confidence is settled."""

    def test_a_settled_probe_leaves_a_partial_entry(self, monkeypatch):
        # 3 blocks of 4 trials: no trial is served at r0 = 1e9, so the first
        # block settles the fail; served at r0 = 1e-9 needs all 12 trials
        trials_per_block(monkeypatch, SMALL, 4)
        fresh = run_trials(SMALL, ZFB, POLICY_EQUAL_POWER, 12, seed=4, p_eq=0.3)
        draws = counted_draws(monkeypatch)
        with _shared_gains(0.95):
            failed = run_trials(SMALL.replace(r0=1e9), ZFB, POLICY_EQUAL_POWER, 12, seed=4,
                                p_eq=0.3)
            assert [t for _, t in draws] == [0, 1, 2, 3]
            assert [rows for block in shared_blocks() for rows, _ in block[ZFB]] == [slice(0, 4)]
            served = run_trials(SMALL, ZFB, POLICY_EQUAL_POWER, 12, seed=4, p_eq=0.3)
            assert len(shared_blocks()) == 3
        assert [t for _, t in draws] == list(range(12))  # each trial drawn once
        assert fresh.p_served == 1.0
        assert_same_result(served, fresh)
        assert failed.p_served == 0.0 and failed.n_failed == 0
        assert np.isnan(failed.sinr_est.reshape(12, -1)[4:]).all()
        assert not np.isnan(failed.sinr_est.reshape(12, -1)[:4]).any()

    @pytest.mark.parametrize("bad, expect_draws", [((), 19), ((3,), 20), ((3, 7), 8)],
                             ids=["passes-at-19-of-20", "one-failed", "two-failed"])
    def test_settle_rule_at_the_float_edge(self, bad, expect_draws, monkeypatch):
        # n = 20 at 0.95: 19/20 == 0.95 passes, and (20 - 2)/20 fails, so one
        # unserved trial settles nothing and a second settles the fail; a
        # failed (ill-conditioned) block counts as unserved
        trials_per_block(monkeypatch, VACUOUS_SMALL, 1)
        ill_conditioned_trial(monkeypatch, *bad)
        fresh = run_trials(VACUOUS_SMALL, ZFB, POLICY_EQUAL_POWER, 20, seed=2, p_eq=0.01)
        assert fresh.n_failed == len(bad)
        draws = counted_draws(monkeypatch)
        with _shared_gains(0.95):
            res = run_trials(VACUOUS_SMALL, ZFB, POLICY_EQUAL_POWER, 20, seed=2, p_eq=0.01)
        assert len(draws) == expect_draws
        assert (res.p_served >= 0.95) == (fresh.p_served >= 0.95) == (len(bad) < 2)
        assert res.p_served == (expect_draws - len(bad)) / 20
        assert res.n_failed == len(bad)

    def test_workers_draw_every_trial(self, monkeypatch, pools):
        # a pool's generator is never left suspended: at two workers the same
        # fail draws all 12 trials, and a one-worker call then reads them
        trials_per_block(monkeypatch, SMALL, 4)
        draws = counted_draws(monkeypatch)
        with _shared_gains(0.95):
            run_trials(SMALL.replace(r0=1e9), ZFB, POLICY_EQUAL_POWER, 12, seed=4, p_eq=0.3,
                       n_workers=2)
            assert len(shared_blocks()) == 3
            run_trials(SMALL, ZFB, POLICY_EQUAL_POWER, 12, seed=4, p_eq=0.3)
        assert pools == [2] and draws == []  # the pool drew every trial, the caller none


class TestMaxSus:
    def test_meb_search_builds_no_zfb_beams(self, monkeypatch, gains_memo):
        # the deciding scope computes the called scheme alone, whatever the
        # store outside it names; 113 draws is the count a one-scheme pass gave
        zfb_beams = []
        monkeypatch.setattr(crmimo.montecarlo, "compute_zfb", lambda *args: zfb_beams.append(1))
        monkeypatch.setattr(crmimo.montecarlo, "_BLOCK_ELEMENTS", 1)  # one trial a block
        draws = counted_draws(monkeypatch)
        cfg = NetworkConfig(m_b=32, m_u=2, sigma2_delta=0.1)
        rows = max_sus_at_confidence(cfg, MEB, 0.9, "r0", [0.25, 0.5, 1.0], n_trials=20,
                                     seed=3, policy=POLICY_EQUAL_POWER, p_eq=0.05)
        assert rows == [(0.25, 6), (0.5, 4), (1.0, 0)]
        assert zfb_beams == [] and len(draws) == 113

    def test_vacuous_constraints_reach_cap(self):
        cfg = NetworkConfig(m_b=8, m_u=1, k_su=1, l_tx=0, l_rx=1,
                            r0=1e-9, i0=1e9, p0=1e9, sigma2_delta=0.0)
        rows = max_sus_at_confidence(cfg, ZFB, 0.5, "p0", [1e9], n_trials=10,
                                     policy=POLICY_EQUAL_POWER, p_eq=0.01)
        assert rows == [(1e9, 7)]  # m_b - l_rx caps the count

    def test_impossible_cap_gives_zero(self):
        cfg = NetworkConfig(m_b=8, m_u=1, k_su=1, l_tx=0, l_rx=1,
                            i0=1e-12, sigma2_delta=0.1)
        rows = max_sus_at_confidence(cfg, ZFB, 0.9, "r0", [1.0], n_trials=10,
                                     policy=POLICY_EQUAL_POWER, p_eq=0.5)
        assert rows == [(1.0, 0)]

    def test_monotone_along_rate_sweep(self):
        cfg = NetworkConfig(m_b=16, m_u=2, k_su=1, l_tx=1, l_rx=1, sigma2_delta=0.01)
        rows = max_sus_at_confidence(cfg, ZFB, 0.8, "r0", [0.5, 2.0], n_trials=40,
                                     policy=POLICY_EQUAL_POWER_OPT)
        ks = dict(rows)
        assert ks[0.5] >= ks[2.0]
        assert all(0 <= k <= MAX_K_SWEEP for k in ks.values())

    def test_non_monotone_table_warns_and_is_returned(self, monkeypatch):
        # Monte Carlo noise: the tighter rate r0 = 2 serves more SUs than r0 = 1
        max_k = {1.0: 2, 2.0: 5}

        def fake_run_trials(config, scheme, policy, n_trials, seed, p_eq=None):
            return SimpleNamespace(p_served=float(config.k_su <= max_k[config.r0]))

        monkeypatch.setattr(crmimo.montecarlo, "run_trials", fake_run_trials)
        with pytest.warns(RuntimeWarning, match=r"not monotone along r0: \[\(1.0, 2\), "):
            rows = max_sus_at_confidence(SMALL, ZFB, 0.5, "r0", [1.0, 2.0], n_trials=3)
        assert rows == [(1.0, 2), (2.0, 5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            max_k[2.0] = 1
            assert max_sus_at_confidence(SMALL, ZFB, 0.5, "r0", [1.0, 2.0],
                                         n_trials=3) == [(1.0, 2), (2.0, 1)]

    @pytest.mark.parametrize("key, field", [("p0_db", "p0"), ("i0_db", "i0")])
    def test_db_sweep_sets_linear_field(self, key, field, monkeypatch):
        # the fake table loses SUs as the budget or the cap loosens in dB, so it warns
        seen = []

        def fake_run_trials(config, scheme, policy, n_trials, seed, p_eq=None):
            seen.append(getattr(config, field))
            return SimpleNamespace(p_served=float(config.k_su <= (3 if seen[-1] < 5 else 1)))

        monkeypatch.setattr(crmimo.montecarlo, "run_trials", fake_run_trials)
        with pytest.warns(RuntimeWarning, match=f"not monotone along {key}"):
            rows = max_sus_at_confidence(SMALL, ZFB, 0.5, key, [0.0, 10.0], n_trials=3)
        assert rows == [(0.0, 3), (10.0, 1)]
        assert set(seen) == {1.0, 10.0}

    def test_search_axis_cannot_be_swept(self, monkeypatch):
        # the search sets k_su, so every row would be the same search
        monkeypatch.setattr(crmimo.montecarlo, "run_trials", None)
        with pytest.raises(ValueError, match="sets k_su"):
            max_sus_at_confidence(NetworkConfig(), MEB, 0.9, "k_su", [2], n_trials=2)

    VACUOUS = NetworkConfig(m_b=8, m_u=1, k_su=1, l_tx=0, l_rx=1,
                            r0=1e-9, i0=1e9, p0=1e9, sigma2_delta=0.0)

    def test_cap_follows_each_antenna_count(self):
        rows = max_sus_at_confidence(self.VACUOUS, ZFB, 0.5, "m_b", [8, 32], n_trials=4,
                                     policy=POLICY_EQUAL_POWER, p_eq=0.01)
        assert rows == [(8, 7), (32, 31)]

    def test_cap_follows_each_receiving_pu_count(self):
        rows = max_sus_at_confidence(self.VACUOUS, ZFB, 0.5, "l_rx", [3, 0, 1], n_trials=4,
                                     policy=POLICY_EQUAL_POWER, p_eq=0.01)
        assert rows == [(3, 5), (0, 8), (1, 7)]

    @pytest.mark.parametrize("seed, confidence",
                             [pytest.param(seed, 0.95, id=str(seed)) for seed in range(4)]
                             + [pytest.param(seed, 0.5, id=f"{seed}-at-0.5") for seed in (0, 1)])
    def test_lockstep_matches_one_search_per_value(self, seed, confidence, monkeypatch):
        # the Criterion 8 scenario: the same run_trials calls and the same rows
        # as searching the values one after another, each call outside any
        # scope; each k's trials are drawn at most once, and fewer in all than
        # drawing every probed k in full; at 0.5 probes settle early by passing too
        cfg, sweep = NetworkConfig(m_b=128, sigma2_delta=0.1), (1.0, 2.0, 3.0, 4.0)
        original = crmimo.montecarlo.run_trials
        calls, p_served = [], {}

        def recorded(config, scheme, policy, n_trials, seed, p_eq=None):
            call = (config, scheme, policy, n_trials, seed, p_eq)
            calls.append(call)
            res = original(config, scheme, policy, n_trials, seed, p_eq=p_eq)
            p_served.setdefault(call, []).append(res.p_served)
            return res

        def passes(config, k):
            res = recorded(config.replace(k_su=k), scheme, POLICY_EQUAL_POWER_OPT, 10, seed)
            return res.p_served >= confidence

        draw = crmimo.montecarlo.generate_channels
        draws, drawn, drawn_in_full = [], 0, 0

        def counted(config, seed):
            draws.append((config.k_su, seed.entropy))
            return draw(config, seed)

        for scheme in (MEB, ZFB):
            expected = []
            for value in sweep:
                config = cfg.replace(r0=value)
                lo, hi = 0, None
                if passes(config, 1):
                    lo = 1
                    while hi is None and lo * 2 <= 64:
                        lo, hi = (lo * 2, None) if passes(config, lo * 2) else (lo, lo * 2)
                    if hi is None and lo < 64:
                        lo, hi = (64, None) if passes(config, 64) else (lo, 64)
                    while hi is not None and hi - lo > 1:
                        mid = (lo + hi) // 2
                        lo, hi = (mid, hi) if passes(config, mid) else (lo, mid)
                expected.append((value, lo))
            reference, calls[:] = Counter(calls), []
            monkeypatch.setattr(crmimo.montecarlo, "run_trials", recorded)
            monkeypatch.setattr(crmimo.montecarlo, "generate_channels", counted)
            rows = max_sus_at_confidence(cfg, scheme, confidence, "r0", sweep, n_trials=10,
                                         seed=seed)
            monkeypatch.setattr(crmimo.montecarlo, "run_trials", original)
            monkeypatch.setattr(crmimo.montecarlo, "generate_channels", draw)
            assert rows == expected
            assert Counter(calls) == reference
            assert max(Counter(draws).values()) == 1
            drawn += len(draws)
            drawn_in_full += 10 * len({call[0].k_su for call in calls})
            for fresh, searched in p_served.values():
                assert (fresh >= confidence) == (searched >= confidence)
                assert searched <= fresh
            early_passes = sum(confidence <= searched < fresh
                               for fresh, searched in p_served.values())
            assert early_passes > 0 if confidence == 0.5 else early_passes == 0
            calls[:], draws[:] = [], []
            p_served.clear()
        assert drawn < drawn_in_full

    @pytest.mark.parametrize("cap, max_k", [(63, 59), (64, 55)])
    def test_max_k_depends_on_the_probe_path(self, cap, max_k, monkeypatch):
        # p_served need not fall with k at 10 trials: k = 56 fails where k = 59
        # passes, so the k = 64 probe's bisection stops below 59
        monkeypatch.setattr(crmimo.montecarlo, "MAX_K_SWEEP", cap)
        rows = max_sus_at_confidence(NetworkConfig(), ZFB, 0.95, "m_b", [100], n_trials=10,
                                     seed=1)
        assert rows == [(100, max_k)]

    def test_validation(self, monkeypatch):
        monkeypatch.setattr(crmimo.montecarlo, "run_trials", None)  # no trial may run
        with pytest.raises(ValueError, match="l_rx=16: m_b - l_rx leaves no room"):
            max_sus_at_confidence(SMALL, ZFB, 0.9, "l_rx", [1, 16])
        with pytest.raises(ValueError, match="unknown config key"):
            max_sus_at_confidence(SMALL, ZFB, 0.9, "p_eq_db", [1.0])
        with pytest.raises(ValueError):
            max_sus_at_confidence(SMALL, ZFB, 1.5, "r0", [1.0])
        with pytest.raises(ValueError):
            max_sus_at_confidence(SMALL, ZFB, 0.9, "bogus", [1.0])


class TestEmpiricalCdf:
    def test_single_sample_step(self):
        f = EmpiricalCdf([2.0])
        assert f(1.9) == 0.0 and f(2.0) == 1.0 and f(2.1) == 1.0

    def test_right_continuity_and_counts(self):
        f = EmpiricalCdf([1.0, 1.0, 3.0, 5.0])
        assert f(0.0) == 0.0
        assert f(1.0) == 0.5
        assert f(3.0) == 0.75
        assert f(4.999) == 0.75
        assert f(5.0) == 1.0

    def test_ks_identical_sets_zero(self):
        x = np.array([0.3, 1.2, 2.2, 9.0])
        assert EmpiricalCdf(x).ks_distance(EmpiricalCdf(x.copy())) == 0.0

    def test_ks_disjoint_sets_one(self):
        a = EmpiricalCdf([1.0, 2.0])
        b = EmpiricalCdf([10.0, 20.0])
        assert a.ks_distance(b) == 1.0

    def test_ks_one_sample_exact(self):
        # single sample at the median of U(0,1): distance is exactly 1/2
        f = EmpiricalCdf([0.5])
        assert f.ks_distance(lambda x: min(max(x, 0.0), 1.0)) == pytest.approx(0.5)

    def test_ks_against_own_law(self):
        rng = np.random.default_rng(0)
        g = GammaParams(shape=3.0, scale=2.0)
        samples = rng.gamma(3.0, 2.0, 10_000)
        ks = empirical_cdf(samples).ks_distance(g.cdf)
        assert ks < 0.02

    def test_ks_two_sample_same_law(self):
        rng = np.random.default_rng(1)
        a = empirical_cdf(rng.exponential(1.0, 4000))
        b = empirical_cdf(rng.exponential(1.0, 4000))
        assert a.ks_distance(b) < 0.05

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([])
        with pytest.raises(ValueError):
            EmpiricalCdf([1.0, np.nan])
        with pytest.raises(ValueError):
            empirical_cdf([np.inf])
        with pytest.raises(ValueError):
            empirical_cdf([1.0, -np.inf, np.nan])
        with pytest.raises(ValueError):
            empirical_cdf([np.nan, np.nan])

    def test_drops_and_counts_nans(self):
        f = empirical_cdf([3.0, np.nan, 1.0, np.nan, np.nan])
        assert (f.n, f.n_dropped) == (2, 3)
        assert f(1.0) == 0.5 and f(3.0) == 1.0
        assert EmpiricalCdf([1.0]).n_dropped == 0

    def test_failed_trials_dropped_from_pool(self):
        # every ZFB trial of this config fails, every MEB trial succeeds
        cfg = NetworkConfig(m_b=12, k_su=12)
        failed = run_trials(cfg, ZFB, POLICY_EQUAL_POWER, 5, seed=0, p_eq=0.1)
        served = run_trials(cfg, MEB, POLICY_EQUAL_POWER, 5, seed=0, p_eq=0.1)
        f = empirical_cdf(np.concatenate([failed.sinr_true, served.sinr_true]))
        assert (f.n, f.n_dropped) == (60, 60)
        assert np.array_equal(f.samples, np.sort(served.sinr_true))


def ks_per_point(cdf, samples):
    """KS distance with one cdf call per sorted sample, in ks_distance's arithmetic."""
    xs = np.sort(np.asarray(samples, dtype=float))
    values = np.array([cdf(x) for x in xs])
    steps = np.arange(1, xs.size + 1) / xs.size
    return float(max(np.abs(values - steps).max(),
                     np.abs(values - (steps - 1.0 / xs.size)).max()))


def counting(cdf):
    """cdf, recording the points of each call in the list .calls."""
    def counted(x):
        counted.calls.append(x)
        return cdf(x)
    counted.calls = []
    return counted


def crmimo_laws(config, p_eq):
    """(scheme, sample field, name, cdf) of every row of analytics.laws at p_eq,
    and of the other call forms of the SINR laws: the dataclass .cdf and the
    benchmark's scalar-only wrapper."""
    meb, zfb = meb_sinr_params(config, p_eq), zfb_sinr_params(config, p_eq)
    return [(scheme, field, quantity, cdf) for scheme in (MEB, ZFB)
            for quantity, field, cdf, _ in laws(scheme, config, p_eq)] + [
        (MEB, "sinr_true", "law", meb.cdf),
        (ZFB, "sinr_true", "law", zfb.cdf),
        # the benchmark's scalar-only form: Python's max rejects an array
        (MEB, "sinr_true", "scalar meb_sinr_cdf", lambda s: meb_sinr_cdf(meb, max(s, 1e-300))),
    ]


class TestKsDistanceContract:
    """ks_distance calls a CDF at most twice, on sorted sample subsets
    (once per sample of a subset if it rejects the array), and returns
    the value of evaluating it at every sample."""

    samples = np.random.default_rng(3).gamma(3.0, 2.0, 500)

    def test_array_capable_callable_called_at_most_twice(self):
        law = GammaParams(shape=3.0, scale=2.0)
        counted = counting(law.cdf)
        ks = empirical_cdf(self.samples).ks_distance(counted)
        xs = np.sort(self.samples)
        assert 1 <= len(counted.calls) <= 2
        for call in counted.calls:
            assert isinstance(call, np.ndarray) and np.all(np.diff(call) >= 0)
            assert np.isin(call, xs).all()
        assert counted.calls[0][0] == xs[0] and counted.calls[0][-1] == xs[-1]
        assert ks == ks_per_point(law.cdf, self.samples)

    @pytest.mark.parametrize("cdf", [
        lambda x: 1.0 - math.exp(-x / 6.0),                    # math.* rejects an array
        lambda x: min(max(x / 20.0, 0.0), 1.0),                # so does Python's max
        lambda x: GammaParams(shape=3.0, scale=2.0).cdf(float(x)),
    ])
    def test_scalar_only_callable_falls_back(self, cdf):
        ks = empirical_cdf(self.samples).ks_distance(cdf)
        assert ks == ks_per_point(cdf, self.samples)

    def test_constant_callable_falls_back(self):
        # a float for a whole array has the wrong shape: each sample of the
        # pass gets its own call, and a flat CDF rules out every gap
        counted = counting(lambda x: 0.5)
        n = self.samples.size
        assert empirical_cdf(self.samples).ks_distance(counted) == 0.5
        assert len(counted.calls) < n // 4
        f = EmpiricalCdf([1.0, 2.0, 3.0])
        assert f.ks_distance(lambda x: 0.5) == ks_per_point(lambda x: 0.5, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("scale", [2.0, 2.2], ids=["own law", "wrong scale"])
    def test_few_evaluations_on_3000_samples(self, scale):
        # the closer the law, the more gaps can hold the supremum: against
        # its own law, 40 seeds of this set took 340 to 1276 evaluations
        samples = np.random.default_rng(3).gamma(3.0, 2.0, 3000)
        law = GammaParams(shape=3.0, scale=scale)
        counted = counting(law.cdf)
        ks = empirical_cdf(samples).ks_distance(counted)
        assert sum(call.size for call in counted.calls) < samples.size / 4
        assert ks == ks_per_point(law.cdf, samples)

    @pytest.mark.parametrize("config", [NetworkConfig(), NetworkConfig(l_tx=0, l_rx=2),
                                        NetworkConfig(k_su=1, l_tx=0, sigma2_delta=0.1)],
                             ids=["base", "no pu transmits", "one su"])
    def test_every_law_on_pooled_samples(self, config):
        # Criterion-4-style pools: equal power p0/k_su, true-channel samples
        p_eq = config.p0 / config.k_su
        pools = {scheme: run_trials(config, scheme, POLICY_EQUAL_POWER, 300, seed=11,
                                    p_eq=p_eq) for scheme in (MEB, ZFB)}
        if config.k_su == 1:
            assert isinstance(meb_sinr_params(config, p_eq), PointMassParams)
        for scheme, field, name, cdf in crmimo_laws(config, p_eq):
            samples = getattr(pools[scheme], field)
            ks = empirical_cdf(samples).ks_distance(cdf)
            assert ks == ks_per_point(cdf, samples), (scheme, name)

    def test_sample_outside_domain_raises_scalar_error(self):
        law = meb_sinr_params(NetworkConfig(), 0.1)
        f = EmpiricalCdf(np.concatenate([[-1.0], self.samples]))
        with pytest.raises(ValueError) as scalar:
            meb_sinr_cdf(law, f.samples[0])  # the per-sample call on the first sample
        with pytest.raises(ValueError) as array:
            f.ks_distance(lambda s: meb_sinr_cdf(law, s))
        assert str(array.value) == str(scalar.value)

    @pytest.mark.parametrize("form", ["array", "scalar-only"])
    @pytest.mark.parametrize("which", ["first pass", "second pass"])
    def test_nan_value_raises(self, form, which):
        # a NaN where Python's max would drop it (second pass) must raise as
        # one where np.max would keep it (first pass)
        law = GammaParams(shape=3.0, scale=2.0)
        counted = counting(law.cdf)
        empirical_cdf(self.samples).ks_distance(counted)
        assert len(counted.calls) == 2
        coarse, fine = counted.calls
        target = (coarse[coarse.size // 2] if which == "first pass" else fine[fine.size // 2]).item()
        if form == "array":
            cdf = lambda x: np.where(x == target, np.nan, law.cdf(x))
        else:
            cdf = lambda x: math.nan if x == target else law.cdf(float(x))
        with pytest.raises(ValueError, match=re.escape(f"CDF is NaN at sample {target!r}")):
            empirical_cdf(self.samples).ks_distance(cdf)

    def test_non_convergence_raises_scalar_error(self):
        # a shape near 5e5 close to the series seam exceeds the iteration cap
        law = GammaParams(shape=501436.62702860456, scale=1.0)
        f = EmpiricalCdf([1.0, 500728.5051273554, 600000.0])
        with pytest.raises(ArithmeticError) as scalar:
            law.cdf(f.samples[1])
        with pytest.raises(ArithmeticError) as array:
            f.ks_distance(law.cdf)
        assert str(array.value) == str(scalar.value)
