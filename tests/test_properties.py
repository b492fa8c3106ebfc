"""Property tests of the beamformers and the LF verdict over valid configs."""

import numpy as np
import pytest
from scipy.optimize import linprog

from crmimo.analytics import q_k
from crmimo.beamforming import MEB, ZFB, compute_beams, compute_meb, compute_zfb, nulling_residuals
from crmimo.network import NetworkConfig, evaluate_links, generate_channels
from crmimo.power import lf_meb_constraints, slack_from_links, solve_lf

from test_beamforming import assert_principal_pair

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
    pu_res, stream_res = nulling_residuals(real, zfb)
    assert pu_res.max() < 1e-18
    assert (stream_res / zfb.sigma2_k1).max() < 1e-18


@st.composite
def lf_configs(draw):
    """(config, seed, p_eq) with ZF room and Wishart shapes the shipped table has."""
    m_u = draw(st.integers(2, 4))
    m_b = draw(st.sampled_from([8, 16, 32]))
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
        beams = compute_beams(real, scheme)
        links = evaluate_links(real, beams.v, beams.u, config)
        alloc = solve_lf(links, scheme, config)
        a, b, _ = lf_meb_constraints(links, config)
        oracle = linprog(np.zeros(a.shape[1]), A_ub=a, b_ub=b, bounds=(0, None), method="highs")
        assert alloc.feasible == (oracle.status == 0)
        if alloc.feasible:
            assert slack_from_links(links, alloc.p, config)[0].all_met()
        assert 0.0 <= q_k(scheme, config, p_eq) <= 1.0
