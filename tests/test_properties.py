"""Property tests of the beamformers over the space of valid configs."""

import numpy as np
import pytest

from crmimo.beamforming import compute_meb, compute_zfb, nulling_residuals
from crmimo.network import NetworkConfig, generate_channels

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
