"""End-to-end acceptance checks at pinned tolerances.

Each test prints one verdict line (collected into the terminal summary
by conftest) and asserts it.  The master seed is fixed; every quantity
below is deterministic given this file.

The ZFB SINR check (4c) asserts the exact-denominator law
analytics.zfb_sinr_exact_cdf at KS <= 0.05.  Under ZF the SINR is
W/(sigma2_w + Y) with Y exactly Gamma(l_tx, p_p sigma2_h); the paper's
generalized-F law moment-matches sigma2_w + Y by a gamma whose support
starts at 0 rather than at sigma2_w, which alone costs KS ~ 0.1 in
these configs.  The verdict line reports that law's worst KS too,
unasserted, so the gap stays visible.
"""

import math
import time

import numpy as np
import pytest
import scipy.optimize
from scipy.integrate import quad

import conftest
from crmimo import analytics
from crmimo.beamforming import MEB, ZFB, compute_meb, compute_zfb
from crmimo.montecarlo import (
    POLICY_EQUAL_POWER,
    _shared_gains,
    empirical_cdf,
    max_sus_at_confidence,
    run_trials,
    trial_seed,
)
from crmimo.network import (NetworkConfig, db_to_linear, evaluate_links, generate_channels,
                            linear_to_db)
from crmimo.power import (
    export_constraints,
    lf_meb_constraints,
    load_constraints,
    solve_lf_meb,
    solve_lf_zfb,
    verify_allocation,
)
from crmimo.specfun import regularized_incomplete_beta, regularized_lower_gamma
from test_beamforming import residuals

SEED = 2
BASELINE = NetworkConfig()  # m_b=64, k_su=10, i0=-3dB, r0=1, p0=10dB, s2d=0.01


def verdict(tag, ok, detail):
    line = f"CRITERION {tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


# criterion 4 shares its trial runs across the four model checks
_GRID = [(m_b, k, s2d) for m_b in (64, 128) for k in (5, 10) for s2d in (0.01, 0.1)]
_N_GRID_TRIALS = 10_000
_grid_cache = {}


def _grid_run(scheme, m_b, k, s2d):
    if (scheme, m_b, k, s2d) not in _grid_cache:
        cfg = BASELINE.replace(m_b=m_b, k_su=k, sigma2_delta=s2d)
        p_eq = cfg.p0 / cfg.k_su
        with _shared_gains(schemes=(MEB, ZFB)):  # one pass gives both schemes' runs
            for each in (MEB, ZFB):
                res = run_trials(cfg, each, POLICY_EQUAL_POWER, _N_GRID_TRIALS,
                                 seed=SEED, p_eq=p_eq)
                _grid_cache[(each, m_b, k, s2d)] = (cfg, p_eq, res)
    return _grid_cache[(scheme, m_b, k, s2d)]


def _grid_ks(scheme, quantity):
    rows = []
    for m_b, k, s2d in _GRID:
        cfg, p_eq, res = _grid_run(scheme, m_b, k, s2d)
        field, cdf = next((field, cdf) for name, field, cdf, _ in analytics.laws(scheme, cfg, p_eq)
                          if name == quantity)
        rows.append(((m_b, k, s2d), empirical_cdf(getattr(res, field)).ks_distance(cdf)))
    return rows


def _worst(rows):
    cfg, ks = max(rows, key=lambda r: r[1])
    return f"max KS {ks:.4f} at (m_b={cfg[0]}, k_su={cfg[1]}, s2d={cfg[2]})"


class TestCriterion1:
    def test_zfb_equal_power_plateau(self):
        points = [float(db) for db in range(-10, 1, 2)]
        served = {}
        t0 = time.perf_counter()
        for db in points:
            res = run_trials(BASELINE, ZFB, POLICY_EQUAL_POWER, 1000,
                             seed=SEED, p_eq=float(db_to_linear(db)))
            served[db] = res.p_served
        elapsed = time.perf_counter() - t0
        ok = all(v >= 0.97 for v in served.values()) and elapsed <= 120.0
        verdict("1 zfb plateau", ok,
                f"min p_served {min(served.values()):.3f} over {points} dB, "
                f"bar 0.97, {elapsed:.1f}s of 120s")


class TestCriterion2:
    def test_meb_operating_point(self):
        p_eq = float(db_to_linear(-12.74))
        res = run_trials(BASELINE, MEB, POLICY_EQUAL_POWER, 1000, seed=SEED, p_eq=p_eq)
        opt = analytics.optimize_equal_power(MEB, BASELINE)
        opt_db = float(linear_to_db(opt.p_eq))
        ok = (abs(res.p_served - 0.27) <= 0.08
              and abs(opt.q - 0.27) <= 0.05
              and abs(opt_db - (-12.74)) <= 1.0)
        verdict("2 meb operating point", ok,
                f"empirical {res.p_served:.3f} vs 0.27±0.08; "
                f"q* {opt.q:.3f} vs 0.27±0.05; p* {opt_db:+.2f}dB vs -12.74±1dB")


class TestCriterion3:
    def test_large_array_spot_check(self):
        cfg = BASELINE.replace(m_b=1024)
        t0 = time.perf_counter()
        res = run_trials(cfg, MEB, POLICY_EQUAL_POWER, 1000,
                         seed=SEED, p_eq=float(db_to_linear(-20.0)))
        elapsed = time.perf_counter() - t0
        ok = res.p_served >= 0.97 and elapsed <= 600.0
        verdict("3 m_b=1024 meb", ok,
                f"p_served {res.p_served:.3f}, bar 0.97 at -20dB, "
                f"{elapsed:.1f}s of 600s")


class TestCriterion4:
    def test_meb_sinr_model(self):
        rows = _grid_ks(MEB, "sinr")
        ok = all(ks <= 0.05 for _, ks in rows)
        verdict("4a meb sinr ks<=0.05", ok, _worst(rows))

    def test_meb_interference_model(self):
        rows = _grid_ks(MEB, "interference")
        ok = all(ks <= 0.03 for _, ks in rows)
        verdict("4b meb interference ks<=0.03", ok, _worst(rows))

    def test_zfb_sinr_model(self):
        # the exact-denominator law is asserted; the paper's generalized-F
        # law is only reported: its gamma-matched denominator starts at 0
        # instead of sigma2_w and keeps KS near 0.1 whatever p_eq
        rows = _grid_ks(ZFB, "sinr_exact")
        ok = all(ks <= 0.05 for _, ks in rows)
        paper = _grid_ks(ZFB, "sinr")
        verdict("4c zfb sinr ks<=0.05", ok,
                f"exact law {_worst(rows)}; paper law, not asserted, {_worst(paper)}")

    def test_zfb_interference_model(self):
        rows = _grid_ks(ZFB, "interference")
        ok = all(ks <= 0.03 for _, ks in rows)
        verdict("4d zfb interference ks<=0.03", ok, _worst(rows))


class TestCriterion5:
    def test_lf_zfb_equivalence(self):
        mismatches = slack_fails = rate_fails = 0
        n_feasible = 0
        for i in range(500):
            real = generate_channels(BASELINE, trial_seed(SEED, i))
            beams = compute_zfb(real)
            alloc = solve_lf_zfb(evaluate_links(real, beams.v, beams.u, BASELINE), BASELINE)
            budget = min(BASELINE.p0, BASELINE.i0 / BASELINE.sigma2_delta)
            if alloc.feasible != (alloc.p.sum() <= budget):
                mismatches += 1
            if alloc.feasible:
                n_feasible += 1
                slack = verify_allocation(real, beams, alloc.p, BASELINE,
                                          use_estimates=True)
                if slack.min_slack() < -1e-9:
                    slack_fails += 1
                if np.max(np.abs(slack.rate)) > 1e-9:
                    rate_fails += 1
        ok = mismatches == 0 and slack_fails == 0 and rate_fails == 0 and n_feasible > 0
        verdict("5 lf zfb equivalence", ok,
                f"500 realizations, {n_feasible} feasible, "
                f"{mismatches} verdict mismatches, {slack_fails} slack fails, "
                f"{rate_fails} rate deviations beyond 1e-9")


class TestCriterion6:
    def test_lf_meb_soundness(self, tmp_path):
        # the closed-form verdict: its minimum-power point passes the audit with
        # every rate exactly at r0, and HiGHS agrees on exported instances
        audit_fails = rate_fails = 0
        n_feasible = 0
        verdicts = []
        for i in range(500):
            real = generate_channels(BASELINE, trial_seed(SEED, i))
            beams = compute_meb(real)
            links = evaluate_links(real, beams.v, beams.u, BASELINE)
            alloc = solve_lf_meb(links, BASELINE)
            verdicts.append((links, alloc.feasible))
            if alloc.feasible:
                n_feasible += 1
                slack = verify_allocation(real, beams, alloc, BASELINE, use_estimates=True)
                if not slack.all_met(tol=-1e-9):
                    audit_fails += 1
                if np.max(np.abs(slack.rate)) > 1e-9:
                    rate_fails += 1
        lp_mismatches = 0
        for n, (links, feasible) in enumerate(verdicts[:20]):
            a, b, labels = lf_meb_constraints(links, BASELINE)
            path = tmp_path / f"instance_{n}.txt"
            export_constraints(path, a, b, labels)
            a2, b2, _ = load_constraints(path)
            res = scipy.optimize.linprog(np.zeros(a2.shape[1]), A_ub=a2, b_ub=b2,
                                         bounds=(0, None), method="highs")
            if (res.status == 0) != feasible:
                lp_mismatches += 1
        ok = audit_fails == 0 and rate_fails == 0 and lp_mismatches == 0
        verdict("6 lf meb soundness", ok,
                f"500 realizations, {n_feasible} feasible, {audit_fails} audit fails, "
                f"{rate_fails} rate deviations beyond 1e-9; "
                f"20 exported instances, {lp_mismatches} LP verdict mismatches")


class TestCriterion7:
    def test_zf_nulling_residuals(self):
        worst_pu = 0.0
        worst_stream = 0.0
        for i in range(200):
            real = generate_channels(BASELINE, trial_seed(SEED, i))
            beams = compute_zfb(real)
            pu_res, stream_res = residuals(real, beams, BASELINE)
            worst_pu = max(worst_pu, float(pu_res.max()))
            worst_stream = max(worst_stream, float((stream_res / beams.sigma2_k1).max()))
        ok = worst_pu < 1e-18 and worst_stream < 1e-18
        verdict("7 zf nulling", ok,
                f"200 realizations, max pu residual {worst_pu:.2e}, "
                f"max stream residual/sigma2_k1 {worst_stream:.2e}, bar 1e-18")


class TestCriterion8:
    def test_zfb_serves_at_least_as_many(self):
        cfg = BASELINE.replace(m_b=128, sigma2_delta=0.1)
        sweep = [1.0, 2.0, 3.0, 4.0]
        meb = dict(max_sus_at_confidence(cfg, MEB, 0.95, "r0", sweep,
                                         n_trials=500, seed=SEED))
        zfb = dict(max_sus_at_confidence(cfg, ZFB, 0.95, "r0", sweep,
                                         n_trials=500, seed=SEED))
        pairs = {r0: (meb[r0], zfb[r0]) for r0 in sweep}
        ok = all(zfb[r0] >= meb[r0] for r0 in sweep)
        verdict("8 zfb >= meb max-k", ok,
                "per r0 (meb, zfb): " + ", ".join(
                    f"{r0:g}:{pairs[r0]}" for r0 in sweep))


class TestCriterion9:
    def test_quadrature_grid(self):
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for _ in range(50):
            k = float(rng.uniform(0.6, 60.0))
            x = float(rng.uniform(0.05, 2.5) * k)
            norm = math.lgamma(k)
            expect, _ = quad(lambda t: math.exp((k - 1) * math.log(t) - t - norm),
                             0.0, x, epsabs=0.0, epsrel=1e-13, limit=400)
            got = regularized_lower_gamma(k, x)
            worst = max(worst, abs(got - expect) / abs(expect))
        for _ in range(50):
            a = float(rng.uniform(0.6, 40.0))
            b = float(rng.uniform(0.6, 40.0))
            x = float(rng.uniform(0.03, 0.97))
            norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
            expect, _ = quad(lambda t: math.exp((a - 1) * math.log(t)
                                                + (b - 1) * math.log1p(-t) - norm),
                             0.0, x, epsabs=0.0, epsrel=1e-13, limit=400)
            got = regularized_incomplete_beta(x, a, b)
            worst = max(worst, abs(got - expect) / abs(expect))
        ok = worst <= 1e-10
        verdict("9a specfun quadrature", ok,
                f"100-point grid, worst relative error {worst:.2e}, bar 1e-10")

    def test_randomized_properties(self):
        rng = np.random.default_rng(SEED + 1)
        cases = violations = 0
        for _ in range(600):
            k = float(rng.uniform(0.05, 500.0))
            xs = np.sort(rng.uniform(0.0, 4.0, size=3) * k)
            vals = [regularized_lower_gamma(k, float(x)) for x in xs]
            cases += 1
            if not (all(0.0 <= v <= 1.0 for v in vals)
                    and all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))
                    and regularized_lower_gamma(k, 0.0) == 0.0
                    and regularized_lower_gamma(k, math.inf) == 1.0):
                violations += 1
        for _ in range(600):
            a = float(rng.uniform(0.05, 300.0))
            b = float(rng.uniform(0.05, 300.0))
            xs = np.sort(rng.uniform(0.0, 1.0, size=3))
            vals = [regularized_incomplete_beta(float(x), a, b) for x in xs]
            cases += 1
            if not (all(0.0 <= v <= 1.0 for v in vals)
                    and all(hi >= lo - 1e-13 for lo, hi in zip(vals, vals[1:]))
                    and regularized_incomplete_beta(0.0, a, b) == 0.0
                    and regularized_incomplete_beta(1.0, a, b) == 1.0):
                violations += 1
        ok = violations == 0 and cases >= 1000
        verdict("9b specfun properties", ok,
                f"{cases} randomized monotonicity/boundary cases, "
                f"{violations} violations")
