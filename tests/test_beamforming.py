"""Beamforming schemes against eigensolver oracles and exact identities."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from crmimo.beamforming import (
    MEB,
    ZFB,
    AntennaShortageError,
    BeamformingSolution,
    IllConditionedError,
    compute_beams,
    compute_meb,
    compute_zfb,
    export_diagnostics,
    nulling_residuals,
)
from crmimo.network import NetworkConfig, generate_channels

# m_b = 24, 128 and 1024, and a square stacking matrix (k_su = m_b - l_rx)
ZF_SHAPES = [{}, dict(m_b=128, k_su=32), dict(m_b=1024), dict(k_su=22)]


def make(seed=0, **kw):
    base = dict(m_b=24, m_u=4, k_su=5, l_tx=1, l_rx=2, sigma2_delta=0.05)
    base.update(kw)
    cfg = NetworkConfig(**base)
    return cfg, generate_channels(cfg, seed)


def assert_principal_pair(hk, sigma2, u, v):
    """sigma2, u, v are the principal singular triple of hk, up to one unit phase."""
    un, s, vh = np.linalg.svd(hk)
    assert sigma2 == pytest.approx(s[0] ** 2, rel=1e-12)
    phase = np.vdot(un[:, 0], u)
    phase /= abs(phase)
    assert np.abs(u - phase * un[:, 0]).max() < 1e-10
    assert np.abs(v - phase * vh[0].conj()).max() < 1e-10


class TestMeb:
    def test_unit_norms(self):
        _, real = make()
        beams = compute_meb(real)
        assert np.allclose(np.linalg.norm(beams.v, axis=1), 1.0, atol=1e-10)
        assert np.allclose(np.linalg.norm(beams.u, axis=1), 1.0, atol=1e-10)

    def test_gain_is_principal_eigenvalue(self):
        # oracle: a per-SU SVD, independent of the Gram eigensolver under test
        for shape in ({}, dict(m_u=4, m_b=3), dict(m_u=1)):
            _, real = make(**shape)
            beams = compute_meb(real)
            for k in range(real.k_su):
                hk = real.h_su[k]
                assert_principal_pair(hk, beams.sigma2_k1[k], beams.u[k], beams.v[k])
                got = abs(np.conj(beams.u[k]) @ hk @ beams.v[k]) ** 2
                assert got == pytest.approx(beams.sigma2_k1[k], rel=1e-9)
            assert np.array_equal(beams.gain, beams.sigma2_k1)

    def test_optimality_over_random_probes(self):
        _, real = make(seed=7)
        beams = compute_meb(real)
        rng = np.random.default_rng(1)
        for k in range(real.k_su):
            hk = real.h_su[k]
            for _ in range(50):
                a = rng.standard_normal(real.m_u) + 1j * rng.standard_normal(real.m_u)
                b = rng.standard_normal(real.m_b) + 1j * rng.standard_normal(real.m_b)
                a /= np.linalg.norm(a)
                b /= np.linalg.norm(b)
                assert abs(np.conj(a) @ hk @ b) ** 2 <= beams.gain[k] * (1 + 1e-12)

    def test_rank_one_channel(self):
        cfg, real = make(k_su=1, m_u=2, m_b=3, l_tx=0, l_rx=0)
        a = np.array([1.0, 1j]) / np.sqrt(2)
        b = np.array([1.0, -1.0, 2j]) / np.sqrt(6)
        h = 3.0 * np.outer(a, b.conj())
        real = type(real)(
            h_su=h[None], h_pu_sbs=real.h_pu_sbs, h_pu_su=real.h_pu_su,
            hhat_pu_sbs=real.hhat_pu_sbs, hhat_pu_su=real.hhat_pu_su,
            pu_tx=real.pu_tx, pu_rx=real.pu_rx,
        )
        beams = compute_meb(real)
        assert beams.sigma2_k1[0] == pytest.approx(9.0, rel=1e-12)
        assert abs(np.conj(beams.u[0]) @ h @ beams.v[0]) ** 2 == pytest.approx(9.0, rel=1e-12)

    def test_single_receive_antenna(self):
        _, real = make(m_u=1)
        beams = compute_meb(real)
        for k in range(real.k_su):
            h = real.h_su[k, 0]
            assert beams.sigma2_k1[k] == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-12)
            # v must align with h (up to the phase convention)
            overlap = abs(np.conj(beams.v[k]) @ h.conj()) / np.linalg.norm(h)
            assert overlap == pytest.approx(1.0, rel=1e-10)

    def test_phase_convention(self):
        _, real = make(seed=3)
        beams = compute_meb(real)
        idx = np.argmax(np.abs(beams.v), axis=1)
        piv = beams.v[np.arange(real.k_su), idx]
        assert np.all(piv.real > 0)
        assert np.allclose(piv.imag, 0.0, atol=1e-12)

    def test_deterministic(self):
        _, real = make(seed=5)
        a, b = compute_meb(real), compute_meb(real)
        assert np.array_equal(a.v, b.v) and np.array_equal(a.u, b.u)


class TestZfb:
    def test_unit_norms_and_scheme(self):
        _, real = make()
        beams = compute_zfb(real)
        assert beams.scheme == ZFB
        assert np.allclose(np.linalg.norm(beams.v, axis=1), 1.0, atol=1e-10)
        assert np.allclose(np.linalg.norm(beams.u, axis=1), 1.0, atol=1e-10)

    def test_receive_beams_match_meb(self):
        _, real = make()
        assert np.array_equal(compute_zfb(real).u, compute_meb(real).u)

    def test_nulling(self):
        for seed in range(20):
            _, real = make(seed=seed)
            beams = compute_zfb(real)
            pu_res, stream_res = nulling_residuals(real, beams)
            assert pu_res.max() < 1e-18
            assert (stream_res / beams.sigma2_k1).max() < 1e-18

    def test_gain_recompute_and_bound(self):
        _, real = make(seed=2)
        meb = compute_meb(real)
        zfb = compute_zfb(real)
        for k in range(real.k_su):
            got = abs(np.conj(zfb.u[k]) @ real.h_su[k] @ zfb.v[k]) ** 2
            assert zfb.gain[k] == pytest.approx(got, rel=1e-9)
        assert np.all(zfb.gain <= meb.gain * (1 + 1e-12))
        assert np.all(zfb.gain > 0)

    def test_gain_approaches_meb_with_many_antennas(self):
        # with m_b >> k_su + l_rx the ZF projection loses little gain
        ratios = []
        for seed in range(20):
            _, real = make(seed=seed, m_b=512, k_su=10, l_rx=1, sigma2_delta=0.01)
            meb = compute_meb(real)
            zfb = compute_zfb(real)
            ratios.append(zfb.gain / meb.gain)
        assert np.mean(ratios) > 0.8

    def test_no_receiving_pus(self):
        _, real = make(l_rx=0)
        beams = compute_zfb(real)
        pu_res, stream_res = nulling_residuals(real, beams)
        assert np.all(pu_res == 0)
        assert stream_res.max() < 1e-18

    def test_single_su_no_rx_pu_matches_matched_filter(self):
        _, real = make(k_su=1, l_rx=0)
        beams = compute_zfb(real)
        # nothing to null: v is the normalized equivalent channel, gain = sigma2_k1
        assert beams.gain[0] == pytest.approx(beams.sigma2_k1[0], rel=1e-10)

    def test_antenna_shortage(self):
        _, real = make(m_b=6, k_su=5, l_rx=2)
        with pytest.raises(AntennaShortageError):
            compute_zfb(real)
        _, real = make(m_b=7, k_su=5, l_rx=2)
        compute_zfb(real)  # boundary m_b = k_su + l_rx passes

    def test_ill_conditioned(self):
        _, real = make(l_rx=2)
        hhat = real.hhat_pu_sbs.copy()
        hhat[real.pu_rx[1]] = hhat[real.pu_rx[0]]  # duplicate protected PU column
        clone = type(real)(
            h_su=real.h_su, h_pu_sbs=real.h_pu_sbs, h_pu_su=real.h_pu_su,
            hhat_pu_sbs=hhat, hhat_pu_su=real.hhat_pu_su,
            pu_tx=real.pu_tx, pu_rx=real.pu_rx,
        )
        with pytest.raises(IllConditionedError):
            compute_zfb(clone)


def pinv_beams(real):
    """Unit-norm SU-stream columns of pinv(G)^H, G stacking H_k^H u_k and the
    estimated receiving-PU channels: the ZF beams by their definition."""
    u = compute_meb(real).u
    g = [real.h_su[k].conj().T @ u[k] for k in range(real.k_su)]
    g += [real.hhat_pu_sbs[l] for l in real.pu_rx]
    cols = np.linalg.pinv(np.array(g).T).conj().T[:, :real.k_su]
    return (cols / np.linalg.norm(cols, axis=0)).T


def stack(reals):
    """The realizations as one block along a leading trial axis."""
    names = ("h_su", "h_pu_sbs", "h_pu_su", "hhat_pu_sbs", "hhat_pu_su")
    return replace(reals[0], **{n: np.stack([getattr(r, n) for r in reals]) for n in names})


class TestZfbOracle:
    """compute_zfb against numpy's SVD-based pseudo-inverse."""

    @pytest.mark.parametrize("shape", ZF_SHAPES)
    def test_beams_are_pinv_columns(self, shape):
        _, real = make(seed=4, **shape)
        assert np.abs(compute_zfb(real).v - pinv_beams(real)).max() < 1e-10

    @pytest.mark.parametrize("shape", ZF_SHAPES)
    def test_nulling_residuals_relative_to_gain(self, shape):
        _, real = make(seed=5, **shape)
        beams = compute_zfb(real)
        pu_res, stream_res = nulling_residuals(real, beams)
        assert (pu_res / beams.gain).max() < 1e-20
        assert (stream_res / beams.gain).max() < 1e-20

    def test_block_of_trials(self):
        cfg, _ = make()
        reals = [generate_channels(cfg, seed) for seed in range(5)]
        beams = compute_zfb(stack(reals))
        assert beams.v.shape == (5, cfg.k_su, cfg.m_b)
        for t, real in enumerate(reals):
            assert np.abs(beams.v[t] - pinv_beams(real)).max() < 1e-10
            assert np.array_equal(beams.v[t], compute_zfb(real).v)

    def test_block_with_duplicated_pu_raises(self):
        cfg, _ = make(l_rx=2)
        reals = [generate_channels(cfg, seed) for seed in range(3)]
        hhat = reals[1].hhat_pu_sbs.copy()
        hhat[reals[1].pu_rx[1]] = hhat[reals[1].pu_rx[0]]
        reals[1] = replace(reals[1], hhat_pu_sbs=hhat)
        with pytest.raises(IllConditionedError):
            compute_zfb(stack(reals))


class TestComputeBeams:
    def test_dispatch_and_unknown_scheme(self):
        _, real = make()
        assert np.array_equal(compute_beams(real, MEB).v, compute_meb(real).v)
        assert np.array_equal(compute_beams(real, ZFB).v, compute_zfb(real).v)
        with pytest.raises(ValueError, match="unknown scheme"):
            compute_beams(real, "meb")


class TestDiagnostics:
    def test_export(self, tmp_path):
        _, real = make()
        beams = compute_zfb(real)
        path = tmp_path / "diag.csv"
        export_diagnostics(real, beams, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == real.k_su
        assert rows[0]["scheme"] == ZFB
        for k, row in enumerate(rows):
            assert int(row["su"]) == k
            assert float(row["gain"]) == beams.gain[k]
            assert float(row["max_pu_residual"]) < 1e-18

    def test_solution_reuse(self):
        _, real = make()
        beams = compute_meb(real)
        assert isinstance(beams, BeamformingSolution)
        assert beams.scheme == MEB
        with pytest.raises(ValueError):
            beams.v[0, 0] = 0  # read-only
