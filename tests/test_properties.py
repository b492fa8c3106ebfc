"""Property tests of the beamformers, the LF verdict, the block LF-ZFB
kernel, the array q_k, the equal-power optimum and the array KS validation
over valid configs, and of the pruned KS distance over nondecreasing step
functions."""

import bisect
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from crmimo.analytics import equal_power_bounds, laws, optimize_equal_power, q_k
from crmimo.beamforming import MEB, ZFB, compute_meb, compute_zfb
from crmimo.network import NetworkConfig, evaluate_links, generate_channels
from crmimo.power import (_lf_block, _lf_zfb, lf_meb_constraints, slack_from_links, solve_lf,
                          solve_lf_zfb)

from crmimo.montecarlo import _gains, empirical_cdf

from test_analytics import ks_against, q_from_laws
from test_beamforming import assert_principal_pair, residuals

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def zf_configs(draw):
    """(config, seed) with m_b > k_su - 1 + l_rx, so ZFB has its null space."""
    m_u = draw(st.integers(1, 6))
    k_su = draw(st.integers(1, 12))
    l_rx = draw(st.integers(0, 3))
    m_b = draw(st.integers(k_su + l_rx, k_su + l_rx + 40))
    seed = draw(st.integers(0, 2**32 - 1))
    return NetworkConfig(m_b=m_b, m_u=m_u, k_su=k_su, l_rx=l_rx), seed


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None, database=None)
@hypothesis.given(zf_configs())
def test_beam_invariants(case):
    config, seed = case
    real = generate_channels(config, seed)
    meb = compute_meb(real)
    zfb = compute_zfb(real)
    for beams in (meb, zfb):
        assert np.abs(np.linalg.norm(beams.u, axis=1) - 1.0).max() < 1e-10
        assert np.abs(np.linalg.norm(beams.v, axis=1) - 1.0).max() < 1e-10
    for k in range(config.k_su):
        assert_principal_pair(real.h_su[k], meb.sigma2_k1[k], meb.u[k], meb.v[k])
    assert np.array_equal(zfb.u, meb.u)
    pu_res, stream_res = residuals(real, zfb, config)
    assert pu_res.max() < 1e-18
    assert (stream_res / zfb.sigma2_k1).max() < 1e-18


@st.composite
def lf_configs(draw):
    """(config, seed, p_eq) with ZF room, over shipped and unshipped Wishart shapes."""
    m_u = draw(st.integers(1, 6))
    m_b = draw(st.integers(8, 32))
    l_rx = draw(st.integers(0, 2))
    k_su = draw(st.integers(1, min(8, m_b - l_rx)))
    config = NetworkConfig(
        m_b=m_b, m_u=m_u, k_su=k_su, l_rx=l_rx, l_tx=draw(st.integers(0, 2)),
        sigma2_delta=draw(st.sampled_from([0.0, 0.01, 0.1])),
        r0=draw(st.floats(0.05, 5.0)),
        i0=10.0 ** draw(st.floats(-3.0, 1.0)),
        p0=10.0 ** draw(st.floats(-1.0, 2.0)),
    )
    return config, draw(st.integers(0, 2**32 - 1)), 10.0 ** draw(st.floats(-3.0, 1.0))


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
@hypothesis.given(lf_configs())
def test_lf_verdict(case):
    config, seed, p_eq = case
    real = generate_channels(config, seed)
    for scheme in (MEB, ZFB):
        beams = compute_meb(real) if scheme == MEB else compute_zfb(real)
        links = evaluate_links(real, beams.v, beams.u, config)
        alloc = solve_lf(links, scheme, config)
        a, b, _ = lf_meb_constraints(links, config)
        oracle = linprog(np.zeros(a.shape[1]), A_ub=a, b_ub=b, bounds=(0, None), method="highs")
        assert alloc.feasible == (oracle.status == 0)
        if alloc.feasible:
            assert slack_from_links(links, alloc.p, config)[0].all_met()
        assert 0.0 <= q_k(scheme, config, p_eq) <= 1.0


@st.composite
def zfb_blocks(draw):
    """(config, seed, n_trials, frac): a block of 1-5 trials with ZF room, and
    the cap's share frac of the budget where a cap binds."""
    l_rx = draw(st.integers(0, 2))
    k_su = draw(st.integers(1, 8))
    config = NetworkConfig(
        m_b=draw(st.integers(k_su + l_rx + 1, k_su + l_rx + 24)), m_u=draw(st.integers(1, 4)),
        k_su=k_su, l_tx=draw(st.integers(0, 2)), l_rx=l_rx,
        sigma2_delta=draw(st.sampled_from([0.0, 0.01, 0.1])),
        p0=10.0 ** draw(st.floats(-1.0, 2.0)),
    )
    return config, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 5)), \
        draw(st.floats(0.05, 0.5))


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None, database=None)
@hypothesis.given(zfb_blocks())
def test_lf_zfb_block_matches_one_trial_calls(case):
    # every trial of a block gets solve_lf_zfb's powers, bit for bit, verdict
    # and blocking family.  The cap is i0 = frac sigma2_delta p0, since ZF
    # leaves a cap row sigma2_delta sum(p) <= i0; r0 puts trial 0's sum(p) at
    # frac p0 / 2 (feasible), sqrt(frac) p0 (cap-blocked where a cap binds)
    # and 2 p0 (budget-blocked)
    config, seed, n, frac = case
    [(_, links)] = _gains(config, (ZFB,), seed, range(n))[ZFB]  # the block run_trials serves
    caps_bind = config.sigma2_delta > 0.0 and config.l_rx > 0
    i0 = frac * config.p0 * (config.sigma2_delta if caps_bind else 1.0)
    # trial 0's sum(p) at 2^r0 - 1 = 1
    unit_sum = np.sum((config.sigma2_w + links.pu_to_su_est[0]) / np.diagonal(links.cross[0]))
    for share, expect in ((frac / 2, None), (math.sqrt(frac), "interference" if caps_bind else None),
                          (2.0, "power")):
        cfg = config.replace(r0=math.log2(1.0 + share * config.p0 / unit_sum), i0=i0)
        p, over_budget, over_cap = _lf_zfb(links, cfg)
        block_p, feasible = _lf_block(links, ZFB, cfg)
        assert block_p.shape == (n, config.k_su) and feasible.shape == (n,)
        for t in range(n):
            alloc = solve_lf_zfb(links[t], cfg)
            assert block_p[t].tobytes() == alloc.p.tobytes()
            assert feasible[t] == alloc.feasible
            assert ("power" if over_budget[t] else "interference" if over_cap[t] else None) \
                == alloc.blocking
        assert solve_lf_zfb(links[0], cfg).blocking == expect


@st.composite
def q_configs(draw):
    """Configs over every q_k law branch, with ZF room, over shipped and
    unshipped Wishart shapes."""
    m_b = draw(st.integers(4, 1024))
    l_rx = draw(st.integers(0, 2))
    return NetworkConfig(
        m_b=m_b, m_u=draw(st.integers(1, 6)), k_su=draw(st.integers(1, min(60, m_b - l_rx))),
        l_tx=draw(st.integers(0, 2)), l_rx=l_rx,
        sigma2_delta=draw(st.sampled_from([0.0, 0.01, 0.1])),
        p_p=draw(st.sampled_from([0.0, 0.1, 1.0, 10.0])),
        r0=draw(st.floats(0.05, 6.0)),
        i0=10.0 ** draw(st.floats(-3.0, 1.0)),
        p0=10.0 ** draw(st.floats(-1.0, 2.0)),
    )


@hypothesis.settings(derandomize=True, max_examples=120, deadline=None, database=None)
@hypothesis.given(q_configs())
def test_q_k_grid_call_matches_scalar_calls(config):
    # the grid optimize_equal_power scores in one call
    p_min, p_max = equal_power_bounds(config)
    grid = np.logspace(math.log10(p_min), math.log10(p_max), 256)
    for scheme in (MEB, ZFB):
        try:
            expect = [q_k(scheme, config, p) for p in grid.tolist()]
        except ArithmeticError as exc:
            # large MEB shapes near the series seam exceed MAX_ITER; the
            # array call must fail the same way
            with pytest.raises(ArithmeticError) as array:
                q_k(scheme, config, grid)
            assert str(array.value) == str(exc)
            continue
        assert np.array_equal(q_k(scheme, config, grid), expect)


@hypothesis.settings(derandomize=True, max_examples=120, deadline=None, database=None)
@hypothesis.given(q_configs())
@hypothesis.example(NetworkConfig(p0=0.1, r0=6.0))  # p_min above p_max
def test_optimum_reproduces_through_q_k(config):
    # the optimizer's kernel gives q_k's bits: at the returned power a float
    # call and a one-element array call both give the returned q; there and
    # at p0/k_su, q_k is the product of the in_q laws' public CDFs, bit for bit
    for scheme in (MEB, ZFB):
        try:
            opt = optimize_equal_power(scheme, config)
        except ArithmeticError:
            continue  # large MEB shapes near the series seam, as in the grid test
        assert q_k(scheme, config, opt.p_eq).hex() == opt.q.hex()
        assert q_k(scheme, config, np.array([opt.p_eq]))[0].hex() == opt.q.hex()
        for p_eq in (opt.p_eq, config.p0 / config.k_su):
            try:
                expect = q_from_laws(scheme, config, p_eq)
            except (ValueError, ArithmeticError):
                continue  # a law out of its range, where q_k takes its limit
            assert q_k(scheme, config, p_eq) == expect


@hypothesis.settings(derandomize=True, max_examples=120, deadline=None, database=None)
@hypothesis.given(q_configs(), st.floats(-3.0, 1.0),
                  st.lists(st.one_of(st.just(0.0), st.floats(-6.0, 6.0)), min_size=1,
                           max_size=200))
def test_ks_array_call_matches_per_point_oracle(config, log_p, exponents):
    # samples from 1e-6 to 1e6, with exact zeros, against every law of the config
    p_eq = 10.0 ** log_p
    samples = np.array([e and 10.0 ** e for e in exponents])
    for _, _, cdf, _ in laws(MEB, config, p_eq) + laws(ZFB, config, p_eq):
        try:
            expect = ks_against(samples, cdf)
        except ArithmeticError as exc:
            # a large shape near the series seam: the same error as the scalar loop
            with pytest.raises(ArithmeticError) as array:
                empirical_cdf(samples).ks_distance(cdf)
            assert str(array.value) == str(exc)
            continue
        assert empirical_cdf(samples).ks_distance(cdf) == expect


@st.composite
def step_cdfs(draw):
    """Jump points and nondecreasing levels of a step function, often on
    quarter-integer samples and often with plateaus at exactly 0 and 1."""
    jumps = sorted(draw(st.lists(st.one_of(st.integers(0, 60).map(lambda i: i / 4),
                                           st.floats(-1.0, 16.0)), max_size=40)))
    levels = sorted(draw(st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
                                  min_size=len(jumps) + 1, max_size=len(jumps) + 1)))
    return jumps, levels


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
@hypothesis.given(step_cdfs(),
                  st.lists(st.one_of(st.integers(0, 60).map(lambda i: i / 4),
                                     st.floats(-1.0, 16.0)), min_size=1, max_size=500))
# at 100 samples the first pass takes every other one; in each example the
# supremum, 0.42, lies at sample 41 inside the gap (40, 42) and is reached by
# one side of that gap's bound only, while the first pass finds 0.415
@hypothesis.example(([41.5, 98.5], [0.0, 0.575, 1.0]), [float(i) for i in range(100)])
@hypothesis.example(([40.5], [0.415, 0.83]), [float(i) for i in range(100)])
def test_ks_pruning_matches_per_point_oracle(step, samples):
    # duplicate samples, samples on a jump, and n from 1 to 500; an array
    # call and a scalar-only call of the same step function
    jumps, levels = step
    table = np.array(levels)
    array_cdf = lambda x: table[np.searchsorted(jumps, x, side="right")]
    scalar_cdf = lambda x: levels[bisect.bisect_right(jumps, x)]  # rejects an array
    samples = np.array(samples)
    expect = ks_against(samples, scalar_cdf)
    assert empirical_cdf(samples).ks_distance(array_cdf) == expect
    assert empirical_cdf(samples).ks_distance(scalar_cdf) == expect
