"""Power allocation: LP feasibility, equal-rate powers and the audits."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import linprog

from crmimo.beamforming import compute_meb, compute_zfb
from crmimo.network import LinkMetrics, NetworkConfig, evaluate_links, generate_channels
from crmimo.power import (
    PowerAllocation,
    ZeroGainError,
    equal_power,
    export_constraints,
    lf_meb_constraints,
    load_constraints,
    slack_from_links,
    solve_lf_meb,
    solve_lf_zfb,
    verify_allocation,
)

TOL = -1e-9


def scenario(seed=0, **kw):
    base = dict(m_b=32, m_u=4, k_su=6, l_tx=1, l_rx=1, sigma2_delta=0.01,
                p0=10.0, i0=10 ** -0.3, r0=1.0)
    base.update(kw)
    cfg = NetworkConfig(**base)
    return cfg, generate_channels(cfg, seed)


def links_of(real, beams, cfg):
    return evaluate_links(real, beams.v, beams.u, cfg)


def oracle_verdict(a, b):
    res = linprog(np.zeros(a.shape[1]), A_ub=a, b_ub=b, bounds=(0, None), method="highs")
    return res.status == 0


class TestLfMebConstraints:
    def test_shapes_and_labels(self):
        cfg, real = scenario(l_rx=2)
        beams = compute_meb(real)
        a, b, labels = lf_meb_constraints(links_of(real, beams, cfg), cfg)
        assert a.shape == (2 + cfg.k_su + 1, cfg.k_su)
        assert labels[:2] == ["int:0", "int:1"]
        assert labels[-1] == "power"
        assert b[-1] == cfg.p0

    def test_rate_row_algebra(self):
        # a rate row evaluated at p must match thr*(noise + interference) - signal
        cfg, real = scenario()
        beams = compute_meb(real)
        a, b, _ = lf_meb_constraints(links_of(real, beams, cfg), cfg)
        rng = np.random.default_rng(0)
        p = rng.uniform(0.0, 1.0, cfg.k_su)
        thr = 2.0 ** cfg.r0 - 1.0
        slack = verify_allocation(real, beams, p, cfg, use_estimates=True)
        sinr = 2.0 ** (slack.rate + cfg.r0) - 1.0
        for k in range(cfg.k_su):
            row_val = a[cfg.l_rx + k] @ p - b[cfg.l_rx + k]
            # row value and (thr - sinr) share a sign by construction
            denom_sign = np.sign(thr - sinr[k])
            assert np.sign(row_val) == denom_sign or abs(row_val) < 1e-12

    def test_export_load_round_trip(self, tmp_path):
        cfg, real = scenario()
        beams = compute_meb(real)
        a, b, labels = lf_meb_constraints(links_of(real, beams, cfg), cfg)
        path = tmp_path / "lp.txt"
        export_constraints(path, a, b, labels)
        a2, b2, labels2 = load_constraints(path)
        assert labels2 == labels
        assert np.array_equal(a2, a)  # repr round trip is exact
        assert np.array_equal(b2, b)


class TestSolveLfMeb:
    @pytest.mark.parametrize("seed", range(30))
    def test_verdict_matches_lp_oracle(self, seed):
        cfg, real = scenario(seed=seed, r0=2.0, i0=0.05)  # mix of verdicts
        beams = compute_meb(real)
        links = links_of(real, beams, cfg)
        alloc = solve_lf_meb(links, cfg)
        a, b, _ = lf_meb_constraints(links, cfg)
        assert alloc.feasible == oracle_verdict(a, b)
        assert (alloc.blocking is None) == alloc.feasible

    def test_feasible_point_meets_all_constraints(self):
        hits = 0
        for seed in range(20):
            cfg, real = scenario(seed=seed)
            beams = compute_meb(real)
            alloc = solve_lf_meb(links_of(real, beams, cfg), cfg)
            if alloc.feasible:
                hits += 1
                assert verify_allocation(real, beams, alloc, cfg, use_estimates=True).all_met()
                assert np.all(alloc.p >= 0)
                assert alloc.p.sum() <= cfg.p0 + 1e-9
                assert alloc.blocking is None
        assert hits > 0

    def test_infeasible_reports_blocking(self):
        # the error floor alone forces any rate-positive power over the cap
        cfg, real = scenario(i0=1e-12, sigma2_delta=0.01)
        beams = compute_meb(real)
        alloc = solve_lf_meb(links_of(real, beams, cfg), cfg)
        assert not alloc.feasible and alloc.blocking == "interference"
        # no nonnegative point meets the rate rows
        cfg = cfg.replace(r0=20.0, i0=1e9, p0=1e9)
        alloc = solve_lf_meb(links_of(real, beams, cfg), cfg)
        assert not alloc.feasible and alloc.blocking == "rate"
        assert np.array_equal(alloc.p, np.zeros(cfg.k_su))
        # the minimum-power point exists but exceeds the budget
        cfg = cfg.replace(r0=1.0, p0=1e-6)
        alloc = solve_lf_meb(links_of(real, beams, cfg), cfg)
        assert not alloc.feasible and alloc.blocking == "power"
        assert alloc.p.sum() > cfg.p0

    @pytest.mark.parametrize("seed", range(10))
    def test_returns_minimum_power_point(self, seed):
        # p* meets every rate row with equality and is the LP's minimum-power point
        cfg, real = scenario(seed=seed)
        links = links_of(real, compute_meb(real), cfg)
        alloc = solve_lf_meb(links, cfg)
        a, b, _ = lf_meb_constraints(links, cfg)
        lp = linprog(np.ones(cfg.k_su), A_ub=a, b_ub=b, bounds=(0, None), method="highs")
        assert alloc.feasible == (lp.status == 0)
        if alloc.feasible:
            rate = slack_from_links(links, alloc.p, cfg)[0].rate
            assert np.max(np.abs(rate)) < 1e-12
            assert np.allclose(alloc.p, lp.x, rtol=1e-6)

    def test_singular_rate_system_is_infeasible(self):
        # thr = 1 makes I - F = [[1, -1], [-1, 1]] exactly singular: no p* exists
        k = 2
        links = LinkMetrics(cross=np.ones((k, k)), pu_to_su_true=np.zeros(k),
                            pu_to_su_est=np.zeros(k), leak_true=np.zeros((k, 1)),
                            leak_est=np.zeros((k, 1)), noise=1.0)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.eye(k) - np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(k))
        alloc = solve_lf_meb(links, NetworkConfig(k_su=k, r0=1.0))
        assert not alloc.feasible and alloc.blocking == "rate"
        assert np.array_equal(alloc.p, np.zeros(k))

    def test_vacuous_rate_floor(self):
        # r0 -> 0 drops the rate rows to "0 <= 0"; p = 0 is always feasible
        cfg, real = scenario(r0=1e-300)
        beams = compute_meb(real)
        alloc = solve_lf_meb(links_of(real, beams, cfg), cfg)
        assert alloc.feasible
        assert np.array_equal(alloc.p, np.zeros(cfg.k_su))

    def test_monotone_in_relaxation(self):
        for seed in range(10):
            cfg, real = scenario(seed=seed, r0=3.0, i0=0.02)
            beams = compute_meb(real)
            tight = solve_lf_meb(links_of(real, beams, cfg), cfg).feasible
            for relaxed_cfg in (
                cfg.replace(i0=cfg.i0 * 10),
                cfg.replace(r0=cfg.r0 / 4),
                cfg.replace(p0=cfg.p0 * 10),
            ):
                relaxed = solve_lf_meb(links_of(real, beams, relaxed_cfg), relaxed_cfg).feasible
                assert relaxed or not tight  # tight feasible implies relaxed feasible


class TestEqualRateZfb:
    def test_rates_exact(self):
        cfg, real = scenario()
        beams = compute_zfb(real)
        alloc = solve_lf_zfb(links_of(real, beams, cfg), cfg)
        slack = verify_allocation(real, beams, alloc.p, cfg, use_estimates=True)
        assert np.max(np.abs(slack.rate)) < 1e-9
        assert (alloc.blocking is None) == alloc.feasible

    def test_unit_case(self):
        # gain g, no PUs: p = (2^r0 - 1) sigma2_w / g exactly
        cfg, real = scenario(l_tx=0, r0=2.0, sigma2_w=3.0)
        links = links_of(real, compute_zfb(real), cfg)
        expect = 3.0 * 3.0 / np.diagonal(links.cross)
        alloc = solve_lf_zfb(links, cfg)
        assert np.allclose(alloc.p, expect, rtol=1e-12)

    def test_feasibility_is_exact_budget_test(self):
        for seed in range(30):
            cfg, real = scenario(seed=seed, r0=4.0, i0=0.02, sigma2_delta=0.05)
            beams = compute_zfb(real)
            alloc = solve_lf_zfb(links_of(real, beams, cfg), cfg)
            budget = min(cfg.p0, cfg.i0 / cfg.sigma2_delta)
            assert alloc.feasible == (alloc.p.sum() <= budget)

    def test_perfect_csi_budget_is_p0_only(self):
        cfg, real = scenario(sigma2_delta=0.0, r0=6.0)
        beams = compute_zfb(real)
        alloc = solve_lf_zfb(links_of(real, beams, cfg), cfg)
        assert alloc.feasible == (alloc.p.sum() <= cfg.p0)
        # true nulling is exact here, so the interference slack is full
        true_slack = verify_allocation(real, beams, alloc.p, cfg, use_estimates=False)
        assert np.allclose(true_slack.interference, cfg.i0, atol=1e-12)

    def test_no_receiving_pu_budget_is_p0_only(self):
        # no cap row without a receiving PU, however small i0 / sigma2_delta is
        verdicts = set()
        for seed in range(20):
            cfg, real = scenario(seed=seed, l_rx=0, r0=5.0, i0=0.01, sigma2_delta=0.1)
            alloc = solve_lf_zfb(links_of(real, compute_zfb(real), cfg), cfg)
            assert alloc.p.sum() > cfg.i0 / cfg.sigma2_delta
            assert alloc.feasible == (alloc.p.sum() <= cfg.p0)
            assert alloc.blocking == (None if alloc.feasible else "power")
            verdicts.add(alloc.feasible)
        assert verdicts == {True, False}

    def test_blocking_attribution(self):
        cfg, real = scenario(i0=1e-6, sigma2_delta=0.1)
        alloc = solve_lf_zfb(links_of(real, compute_zfb(real), cfg), cfg)
        assert not alloc.feasible and alloc.blocking == "interference"
        cfg2, real2 = scenario(p0=1e-6, i0=100.0, sigma2_delta=1e-6)
        alloc2 = solve_lf_zfb(links_of(real2, compute_zfb(real2), cfg2), cfg2)
        assert not alloc2.feasible and alloc2.blocking == "power"

    def test_zero_gain_rejected(self):
        cfg, real = scenario()
        links = links_of(real, compute_zfb(real), cfg)
        broken = dataclasses.replace(links, cross=np.zeros_like(links.cross))
        with pytest.raises(ZeroGainError):
            solve_lf_zfb(broken, cfg)


class TestAudits:
    def test_equal_power_vector(self):
        cfg, _ = scenario()
        p = equal_power(cfg, 0.5)
        assert p.shape == (cfg.k_su,) and np.all(p == 0.5)
        with pytest.raises(ValueError):
            equal_power(cfg, -1.0)
        with pytest.raises(ValueError):
            equal_power(cfg, np.inf)

    def test_verify_matches_direct_recomputation(self):
        cfg, real = scenario(l_rx=2, l_tx=2)
        beams = compute_meb(real)
        rng = np.random.default_rng(3)
        p = rng.uniform(0.0, 2.0, cfg.k_su)
        slack = verify_allocation(real, beams, p, cfg, use_estimates=False)
        # scalar recomputation of each margin
        for i in range(cfg.l_rx):
            acc = sum(p[k] * abs(np.conj(beams.v[k]) @ real.h_pu_rx[i]) ** 2
                      for k in range(cfg.k_su))
            assert slack.interference[i] == pytest.approx(cfg.i0 - acc, rel=1e-12, abs=1e-15)
        for k in range(cfg.k_su):
            hk = real.h_su[k]
            sig = p[k] * abs(np.conj(beams.u[k]) @ hk @ beams.v[k]) ** 2
            inter = sum(p[j] * abs(np.conj(beams.u[k]) @ hk @ beams.v[j]) ** 2
                        for j in range(cfg.k_su) if j != k)
            pu = sum(cfg.p_p * abs(np.conj(beams.u[k]) @ real.h_pu_tx[l, k]) ** 2
                     for l in range(cfg.l_tx))
            rate = np.log2(1 + sig / (cfg.sigma2_w + pu + inter))
            assert slack.rate[k] == pytest.approx(rate - cfg.r0, rel=1e-12, abs=1e-12)
        assert slack.power == pytest.approx(cfg.p0 - p.sum(), rel=1e-12)

    def test_accepts_allocation_object(self):
        cfg, real = scenario()
        beams = compute_zfb(real)
        alloc = solve_lf_zfb(links_of(real, beams, cfg), cfg)
        direct = verify_allocation(real, beams, alloc.p, cfg, use_estimates=True)
        via_alloc = verify_allocation(real, beams, alloc, cfg, use_estimates=True)
        assert np.array_equal(direct.interference, via_alloc.interference)
        assert np.array_equal(direct.rate, via_alloc.rate)
        assert direct.power == via_alloc.power

    def test_zero_power_slacks(self):
        cfg, real = scenario()
        beams = compute_meb(real)
        slack = verify_allocation(real, beams, np.zeros(cfg.k_su), cfg, use_estimates=True)
        assert np.all(slack.rate < 0)  # r0 > 0 cannot hold at zero power
        assert np.allclose(slack.interference, cfg.i0)
        assert slack.power == cfg.p0
        assert not slack.all_met()
        assert slack.min_slack() == pytest.approx(-cfg.r0)

    def test_allocation_dataclass(self):
        cfg, real = scenario()
        beams = compute_meb(real)
        links = links_of(real, beams, cfg)
        alloc = solve_lf_meb(links, cfg)
        assert isinstance(alloc, PowerAllocation)
        # use_estimates=True audits the SBS view, the first report of slack_from_links
        est, true = slack_from_links(links, alloc.p, cfg)
        got = verify_allocation(real, beams, alloc, cfg, use_estimates=True)
        assert np.array_equal(got.sinr, est.sinr) and not np.array_equal(got.sinr, true.sinr)
        assert np.array_equal(got.int_to_pu, est.int_to_pu)
