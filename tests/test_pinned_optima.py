"""Pinned equal-power optima: the exact bits of p_eq and q, and range_feasible,
from optimize_equal_power under both schemes.

The configs are NetworkConfig(), the corners of the analytic benchmark grid
(m_b in {64, 128, 1024} x k_su in {1, 10, 60} x r0 in {1, 4} x sigma2_delta in
{0.01, 0.1}) and the Criterion 8 points (m_b = 128, sigma2_delta = 0.1,
k_su in {1, 8, 32, 50} x r0 in {1, 2, 3, 4}).  On a q = 1 plateau one ulp of q
can move p_eq by a whole grid cell, so any change to the optimizer's arithmetic
shows here.
"""

import pytest

from crmimo.analytics import optimize_equal_power
from crmimo.beamforming import MEB, ZFB
from crmimo.network import NetworkConfig

# (m_b, k_su, r0, sigma2_delta): ((p_eq hex, q hex, range_feasible) for MEB, then for ZFB)
PINNED = {  # the first entry is NetworkConfig()
    (64, 10, 1.0, 0.01): (('0x1.b8296576b4b7bp-5', '0x1.22ed395a4bd7ep-2', True),
                           ('0x1.0374717776c2fp-1', '0x1.0000000000000p+0', True)),
    (64, 1, 1.0, 0.01): (('0x1.3bea98c993c77p-4', '0x1.febf0f0b94ef7p-1', True),
                          ('0x1.abefa4a93bd28p-2', '0x1.0000000000000p+0', True)),
    (64, 1, 1.0, 0.1): (('0x1.3bea98c993c77p-4', '0x1.febf0f0b94ef7p-1', True),
                         ('0x1.d2e2dc6d5940cp-3', '0x1.fffffffb21d3ep-1', True)),
    (64, 1, 4.0, 0.01): (('0x1.12dea583318ebp-1', '0x1.0a4f3efd2db5ep-1', True),
                          ('0x1.671d8e5efd68dp+1', '0x1.fffffedd5f38cp-1', True)),
    (64, 1, 4.0, 0.1): (('0x1.12dea583318ebp-1', '0x1.0a4f3efd2db5ep-1', True),
                         ('0x1.0a9341e4803bfp+0', '0x1.f934ee6e6ee6bp-1', True)),
    (64, 10, 1.0, 0.1): (('0x1.b8296576b4b7bp-5', '0x1.22ed395a4bd7ep-2', True),
                          ('0x1.5e45587749c51p-3', '0x1.fffc5a67eaa57p-1', True)),
    (64, 10, 4.0, 0.01): (('0x1.0000000000000p+0', '0x1.e7a6e8a6a8084p-109', True),
                           ('0x1.0000000000000p+0', '0x1.a0cadd7d2081dp-1', True)),
    (64, 10, 4.0, 0.1): (('0x1.0000000000000p+0', '0x1.e7a6e8a6a8084p-109', True),
                          ('0x1.742346c51cc20p-1', '0x1.d53bfc2bb74d0p-5', True)),
    (64, 60, 1.0, 0.01): (('0x1.5555555555555p-3', '0x1.1a60557ffe978p-275', True),
                           ('0x1.5555555555555p-3', '0x1.0b0b7599dfc90p-173', True)),
    (64, 60, 1.0, 0.1): (('0x1.5555555555555p-3', '0x1.1a60557ffe978p-275', True),
                          ('0x1.5555555555555p-3', '0x1.16c1405bb1db9p-193', True)),
    (64, 60, 4.0, 0.01): (('0x1.5555555555555p-3', '0x0.0p+0', False),
                           ('0x1.5555555555555p-3', '0x1.63f077768d97dp-928', False)),
    (64, 60, 4.0, 0.1): (('0x1.5555555555555p-3', '0x0.0p+0', False),
                          ('0x1.5555555555555p-3', '0x1.738c2be91ecc8p-948', False)),
    (128, 1, 1.0, 0.01): (('0x1.b1d22c083d635p-5', '0x1.ffeee45bd39b1p-1', True),
                           ('0x1.723e379de7a00p-3', '0x1.0000000000000p+0', True)),
    (128, 1, 1.0, 0.1): (('0x1.b1d22c083d635p-5', '0x1.ffeee45bd39b1p-1', True),
                          ('0x1.3e45a15052184p-3', '0x1.fffffffffff44p-1', True)),
    (128, 1, 4.0, 0.01): (('0x1.4f20826635f68p-2', '0x1.6db96de14e71ap-1', True),
                           ('0x1.eb4d47d53071bp+0', '0x1.ffffffffecb2dp-1', True)),
    (128, 1, 4.0, 0.1): (('0x1.4f20826635f68p-2', '0x1.6db96de14e71ap-1', True),
                          ('0x1.64aa7d56be25cp-1', '0x1.ff5a8e7356462p-1', True)),
    (128, 10, 1.0, 0.01): (('0x1.1d0fc865fdc67p-5', '0x1.ada6849977a4bp-1', True),
                            ('0x1.9a8c2a46bf8f3p-3', '0x1.0000000000000p+0', True)),
    (128, 10, 1.0, 0.1): (('0x1.1d0fc865fdc67p-5', '0x1.ada6849977a4bp-1', True),
                           ('0x1.ef74f8a877e12p-4', '0x1.ffffffe6abe38p-1', True)),
    (128, 10, 4.0, 0.01): (('0x1.8686b0bc0c5ecp-1', '0x1.09fc0e57e9c1fp-51', True),
                            ('0x1.0000000000000p+0', '0x1.ffebbd6dd2104p-1', True)),
    (128, 10, 4.0, 0.1): (('0x1.8686b0bc0c5ecp-1', '0x1.09fc0e57e9c1fp-51', True),
                           ('0x1.ccea597dd457ap-2', '0x1.fdc9a948e9d51p-2', True)),
    (128, 60, 1.0, 0.01): (('0x1.1b2e0833a41afp-5', '0x1.6908ffc91ec76p-79', True),
                            ('0x1.5555555555555p-3', '0x1.ffff210eb97e9p-1', True)),
    (128, 60, 1.0, 0.1): (('0x1.1b2e0833a41afp-5', '0x1.6908ffc91ec76p-79', True),
                           ('0x1.27cfdd174e9bep-4', '0x1.69eac66a59cf6p-1', True)),
    (128, 60, 4.0, 0.01): (('0x1.8613731129e80p-4', '0x0.0p+0', True),
                            ('0x1.5555555555555p-3', '0x1.21d7db2dbb7eap-183', True)),
    (128, 60, 4.0, 0.1): (('0x1.8613731129e80p-4', '0x0.0p+0', True),
                           ('0x1.5555555555555p-3', '0x1.2e8d942dc9892p-203', True)),
    (1024, 1, 1.0, 0.01): (('0x1.1bf2ce264f63ep-6', '0x1.fffffffffee3dp-1', True),
                            ('0x1.704a249381249p-6', '0x1.0000000000000p+0', True)),
    (1024, 1, 1.0, 0.1): (('0x1.1bf2ce264f63ep-6', '0x1.fffffffffee3dp-1', True),
                           ('0x1.704a249381249p-6', '0x1.0000000000000p+0', True)),
    (1024, 1, 4.0, 0.01): (('0x1.59d1720788127p-4', '0x1.fdd23d0b3e6d0p-1', True),
                            ('0x1.5874b381c6747p-2', '0x1.0000000000000p+0', True)),
    (1024, 1, 4.0, 0.1): (('0x1.59d1720788127p-4', '0x1.fdd23d0b3e6d0p-1', True),
                           ('0x1.c04c4a7355ca2p-3', '0x1.fffffffe3bcc5p-1', True)),
    (1024, 10, 1.0, 0.01): (('0x1.a6d78f971e87bp-7', '0x1.ffffff50f33a4p-1', True),
                             ('0x1.712e1c458f75ap-6', '0x1.0000000000000p+0', True)),
    (1024, 10, 1.0, 0.1): (('0x1.a6d78f971e87bp-7', '0x1.ffffff50f33a4p-1', True),
                            ('0x1.712e1c458f75ap-6', '0x1.0000000000000p+0', True)),
    (1024, 10, 4.0, 0.01): (('0x1.e2834b9ce99ecp-5', '0x1.8a15cfa4ca5ebp-3', True),
                             ('0x1.562b6f1318edcp-2', '0x1.0000000000000p+0', True)),
    (1024, 10, 4.0, 0.1): (('0x1.e2834b9ce99ecp-5', '0x1.8a15cfa4ca5ebp-3', True),
                            ('0x1.4491951ad0c46p-3', '0x1.ffff5fbf1952ep-1', True)),
    (1024, 60, 1.0, 0.01): (('0x1.a6a46573d6272p-8', '0x1.e98eb4e174249p-1', True),
                             ('0x1.7f231c347fe51p-6', '0x1.0000000000000p+0', True)),
    (1024, 60, 1.0, 0.1): (('0x1.a6a46573d6272p-8', '0x1.e98eb4e174249p-1', True),
                            ('0x1.7f231c347fe51p-6', '0x1.0000000000000p+0', True)),
    (1024, 60, 4.0, 0.01): (('0x1.5555555555555p-3', '0x1.c54e856dfde39p-253', True),
                             ('0x1.5555555555555p-3', '0x1.fffdf46d36da0p-1', True)),
    (1024, 60, 4.0, 0.1): (('0x1.5555555555555p-3', '0x1.c54e856dfde39p-253', True),
                            ('0x1.398d7db7c57f1p-4', '0x1.061e759c8659cp-1', True)),
    (128, 1, 2.0, 0.1): (('0x1.adb03c09f65b9p-4', '0x1.f939591d7d0a2p-1', True),
                          ('0x1.1c3e0a97ed4fep-2', '0x1.ffffff1aed9bap-1', True)),
    (128, 1, 3.0, 0.1): (('0x1.7d22143cb3abep-3', '0x1.cdaf5ef63adc4p-1', True),
                          ('0x1.c7e412eb633efp-2', '0x1.fffd042369b42p-1', True)),
    (128, 8, 1.0, 0.1): (('0x1.2eabdf4845b9ap-5', '0x1.db13a81042ae6p-1', True),
                          ('0x1.02b609c3dfd1ep-3', '0x1.fffffffbc86c8p-1', True)),
    (128, 8, 2.0, 0.1): (('0x1.4db9a35435582p-4', '0x1.29af37b758daep-3', True),
                          ('0x1.aa97cc5c371b8p-3', '0x1.fff32c6ca58e1p-1', True)),
    (128, 8, 3.0, 0.1): (('0x1.9ef75b5342b0ap-3', '0x1.03f9627a3e859p-11', True),
                          ('0x1.419c0c6f49c27p-2', '0x1.f57bba25ea780p-1', True)),
    (128, 8, 4.0, 0.1): (('0x1.343591763e60cp-1', '0x1.45479a1df7628p-30', True),
                          ('0x1.e7ff2abf00f11p-2', '0x1.68e84e7eaffcap-1', True)),
    (128, 32, 1.0, 0.1): (('0x1.d1a17c0afc86dp-6', '0x1.c4a9f07eb9070p-15', True),
                           ('0x1.681cde4b49485p-4', '0x1.ffd2dbb117f56p-1', True)),
    (128, 32, 2.0, 0.1): (('0x1.4498b5bac0b72p-3', '0x1.30c61583869c7p-93', True),
                           ('0x1.15bebae6a7a8ep-3', '0x1.3e3fb77863c0bp-1', True)),
    (128, 32, 3.0, 0.1): (('0x1.6c122721160bbp-5', '0x1.256fac7c07a48p-443', True),
                           ('0x1.c12f19a0f0b65p-3', '0x1.050ca5e2ecf67p-8', True)),
    (128, 32, 4.0, 0.1): (('0x1.8613731129e80p-4', '0x0.0p+0', True),
                           ('0x1.3ffffffffffffp-2', '0x1.d43b58af6f121p-28', True)),
    (128, 50, 1.0, 0.1): (('0x1.004c7b7822a2dp-5', '0x1.1b9206f904be0p-49', True),
                           ('0x1.362f9092541b0p-4', '0x1.e7026b39912e3p-1', True)),
    (128, 50, 2.0, 0.1): (('0x1.999999999999ap-3', '0x1.b288ff7eb82a3p-411', True),
                           ('0x1.014b8f4c59b32p-3', '0x1.711f99ce535ccp-8', True)),
    (128, 50, 3.0, 0.1): (('0x1.6c122721160bbp-5', '0x0.0p+0', True),
                           ('0x1.999999999999ap-3', '0x1.955c269e6deacp-35', True)),
    (128, 50, 4.0, 0.1): (('0x1.8613731129e80p-4', '0x0.0p+0', True),
                           ('0x1.999999999999ap-3', '0x1.d31a2876b7f29p-116', True)),
}


@pytest.mark.parametrize("key", list(PINNED), ids=str)
def test_pinned_optimum(key):
    m_b, k_su, r0, sigma2_delta = key
    cfg = NetworkConfig(m_b=m_b, k_su=k_su, r0=r0, sigma2_delta=sigma2_delta)
    for scheme, (p_hex, q_hex, feasible) in zip((MEB, ZFB), PINNED[key]):
        opt = optimize_equal_power(scheme, cfg)
        assert (opt.p_eq.hex(), opt.q.hex(), opt.range_feasible) == (p_hex, q_hex, feasible)

