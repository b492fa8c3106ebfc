"""Config, channel generation and the exact link evaluator."""

import hashlib
import math

import numpy as np
import pytest

from crmimo.montecarlo import trial_seed
from crmimo.network import (
    NetworkConfig,
    db_to_linear,
    evaluate_links,
    generate_channels,
    linear_to_db,
)


def small_config(**kw):
    base = dict(m_b=16, m_u=3, k_su=4, l_tx=2, l_rx=2, sigma2_delta=0.05)
    base.update(kw)
    return NetworkConfig(**base)


def unit_rows(rng, shape):
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


class TestConfig:
    def test_defaults_valid(self):
        cfg = NetworkConfig()
        assert cfg.m_b == 64 and cfg.l_pu == 2

    @pytest.mark.parametrize("bad", [
        dict(m_b=0), dict(m_u=0), dict(k_su=0), dict(l_tx=-1), dict(l_rx=-1),
        dict(sigma2_h=0.0), dict(sigma2_w=-1.0), dict(p0=0.0), dict(i0=0.0),
        dict(r0=0.0), dict(sigma2_delta=-0.1), dict(p_p=-1.0),
        dict(sigma2_h=np.inf), dict(m_b=2.5), dict(sigma2_delta=1.5, sigma2_h=1.0),
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            NetworkConfig(**bad)

    def test_db_conversions(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert linear_to_db(db_to_linear(-12.74)) == pytest.approx(-12.74)

    def test_file_round_trip(self, tmp_path):
        cfg = small_config(p0=3.5, i0=0.25)
        path = tmp_path / "net.cfg"
        cfg.to_file(path)
        assert NetworkConfig.from_file(path) == cfg

    def test_db_keys_in_file(self, tmp_path):
        path = tmp_path / "net.cfg"
        path.write_text("p0_db = 10\ni0_db = -3\npp_db = 0\nk_su = 10\n")
        cfg = NetworkConfig.from_file(path)
        assert cfg.p0 == pytest.approx(10.0)
        assert cfg.i0 == pytest.approx(10 ** -0.3)
        assert cfg.p_p == pytest.approx(1.0)

    def test_db_and_linear_conflict(self, tmp_path):
        path = tmp_path / "net.cfg"
        path.write_text("p0 = 10\np0_db = 10\n")
        with pytest.raises(ValueError, match="twice"):
            NetworkConfig.from_file(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "net.cfg"
        path.write_text("m_bb = 4\n")
        with pytest.raises(ValueError, match="unknown config key"):
            NetworkConfig.from_file(path)

    def test_integer_fields_reject_fractions(self):
        cfg = NetworkConfig()
        assert cfg.with_items({"m_b": 64.0, "k_su": "3"}) == cfg.replace(m_b=64, k_su=3)
        for raw in (64.5, np.float64(64.5), math.inf, "64.5"):
            with pytest.raises(ValueError):
                cfg.with_items({"m_b": raw})

    @pytest.mark.parametrize("raw", [True, False, np.bool_(True)])
    def test_integer_fields_reject_bools(self, raw):
        # as NetworkConfig(k_su=True) does
        with pytest.raises(ValueError, match="needs an integer"):
            NetworkConfig().with_items({"k_su": raw})

    def test_replace(self):
        cfg = NetworkConfig().replace(k_su=5)
        assert cfg.k_su == 5 and cfg.m_b == 64


class TestGeneration:
    def test_deterministic(self):
        cfg = small_config()
        a = generate_channels(cfg, 42)
        b = generate_channels(cfg, 42)
        for name in ("h_su", "h_pu_rx", "hhat_pu_rx", "h_pu_tx", "hhat_pu_tx"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        c = generate_channels(cfg, 43)
        assert not np.array_equal(a.h_su, c.h_su)

    def test_shapes_and_roles(self):
        cfg = small_config()
        real = generate_channels(cfg, 0)
        assert real.h_su.shape == (4, 3, 16)
        assert real.h_pu_rx.shape == real.hhat_pu_rx.shape == (2, 16)
        assert real.h_pu_tx.shape == real.hhat_pu_tx.shape == (2, 4, 3)
        # the PU order is fixed: with one more transmitting PU, the first
        # receiving PU takes the transmit role and keeps its draws
        more_tx = generate_channels(cfg.replace(l_tx=3, l_rx=1), 0)
        assert np.array_equal(more_tx.h_pu_tx[:2], real.h_pu_tx)
        assert np.array_equal(more_tx.h_pu_rx, real.h_pu_rx[1:])

    def test_read_only(self):
        real = generate_channels(small_config(), 0)
        with pytest.raises(ValueError):
            real.h_su[0, 0, 0] = 0

    def test_channel_variance(self):
        cfg = NetworkConfig(m_b=64, k_su=20, sigma2_h=2.0, sigma2_delta=0.5)
        real = generate_channels(cfg, 3)
        entries = real.h_su.ravel()  # 20*4*64 = 5120 complex entries
        assert entries.size >= 5000
        var = np.mean(np.abs(entries) ** 2)
        assert abs(var - 2.0) / 2.0 < 0.05
        parts = np.concatenate([entries.real, entries.imag])
        assert abs(np.var(parts) - 1.0) < 0.05

    def test_error_variance_and_consistency(self):
        # 20 x 256 = 5120 entries per receive-role array, 128 x 10 x 4 per transmit-role one
        cfg = NetworkConfig(m_b=256, k_su=10, l_tx=128, l_rx=20, sigma2_delta=0.1)
        real = generate_channels(cfg, 11)
        for h, hhat in ((real.h_pu_rx, real.hhat_pu_rx), (real.h_pu_tx, real.hhat_pu_tx)):
            assert h.size == 5120
            var = np.mean(np.abs(h - hhat) ** 2)
            assert abs(var - 0.1) / 0.1 < 0.05
            var_h = np.mean(np.abs(h) ** 2)
            assert abs(var_h - 1.0) < 0.05

    # first 16 hex digits of the SHA-256 of each array a trial reads, drawn at
    # trial_seed(5, 7): RNG output only (no BLAS), so they pin the draw order
    # on any platform with the same numpy
    _PINNED = {
        (): dict(h_su="4ee1a8db8c3e3bf1", h_pu_rx="b67265356f52140a",
                 hhat_pu_rx="d6061d49dec2a044", h_pu_tx="6778f62051e79de4",
                 hhat_pu_tx="dace799c1dcd15ad"),
        (("l_tx", 0),): dict(h_su="4ee1a8db8c3e3bf1", h_pu_rx="b56a15fe5f5c3914",
                             hhat_pu_rx="9081bc1eead91ba8"),
        (("l_rx", 0),): dict(h_su="4ee1a8db8c3e3bf1", h_pu_tx="2422008a5c1643c2",
                             hhat_pu_tx="3ec703a5e3973ad7"),
    }

    @pytest.mark.parametrize("variant", list(_PINNED))
    def test_draw_stream_pinned(self, variant):
        cfg = NetworkConfig(m_b=8, m_u=2, k_su=3, l_tx=2, l_rx=3).replace(**dict(variant))
        real = generate_channels(cfg, trial_seed(5, 7))
        arrays = dict(h_su=real.h_su, h_pu_rx=real.h_pu_rx, hhat_pu_rx=real.hhat_pu_rx,
                      h_pu_tx=real.h_pu_tx, hhat_pu_tx=real.hhat_pu_tx)
        assert arrays["h_su"].shape == (3, 2, 8)
        assert arrays["h_pu_rx"].shape == arrays["hhat_pu_rx"].shape == (cfg.l_rx, 8)
        assert arrays["h_pu_tx"].shape == arrays["hhat_pu_tx"].shape == (cfg.l_tx, 3, 2)
        got = {name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]
               for name, a in arrays.items() if a.size}
        assert got == self._PINNED[variant]

    def test_zero_error_collapse(self):
        cfg = small_config(sigma2_delta=0.0)
        real = generate_channels(cfg, 5)
        assert np.array_equal(real.h_pu_rx, real.hhat_pu_rx)
        assert np.array_equal(real.h_pu_tx, real.hhat_pu_tx)


class TestEvaluators:
    @pytest.fixture()
    def setup(self):
        cfg = small_config()
        real = generate_channels(cfg, 9)
        rng = np.random.default_rng(10)
        v = unit_rows(rng, (cfg.k_su, cfg.m_b))
        u = unit_rows(rng, (cfg.k_su, cfg.m_u))
        p = rng.uniform(0.1, 2.0, cfg.k_su)
        return cfg, real, v, u, p

    def test_zero_power(self, setup):
        cfg, real, v, u, p = setup
        links = evaluate_links(real, v, u, cfg)
        zero = np.zeros(cfg.k_su)
        assert np.all(links.int_to_pu(zero, use_estimates=False) == 0)
        assert np.all(np.array(links.sinr(zero)) == 0)

    def test_aligned_beam(self):
        cfg = small_config(k_su=1, l_tx=0, l_rx=1, m_u=1)
        real = generate_channels(cfg, 2)
        h = real.h_pu_rx[0]
        v = (h / np.linalg.norm(h))[None, :]
        links = evaluate_links(real, v, np.ones((1, 1)), cfg)
        assert links.leak_true[0, 0] == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-12)
        out = links.int_to_pu(np.ones(1), use_estimates=False)
        assert out[0] == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-12)

    def test_interference_oracle(self, setup):
        cfg, real, v, u, p = setup
        links = evaluate_links(real, v, u, cfg)
        int_true = links.int_to_pu(p, use_estimates=False)
        int_est = links.int_to_pu(p, use_estimates=True)
        for i in range(cfg.l_rx):
            acc_t = acc_e = 0.0
            for k in range(cfg.k_su):
                dot_t = sum(np.conj(v[k][b]) * real.h_pu_rx[i][b] for b in range(cfg.m_b))
                dot_e = sum(np.conj(v[k][b]) * real.hhat_pu_rx[i][b] for b in range(cfg.m_b))
                assert links.leak_true[k, i] == pytest.approx(abs(dot_t) ** 2, rel=1e-12)
                assert links.leak_est[k, i] == pytest.approx(abs(dot_e) ** 2 + cfg.sigma2_delta,
                                                             rel=1e-12)
                acc_t += p[k] * abs(dot_t) ** 2
                acc_e += p[k] * (abs(dot_e) ** 2 + cfg.sigma2_delta)
            assert int_true[i] == pytest.approx(acc_t, rel=1e-12)
            assert int_est[i] == pytest.approx(acc_e, rel=1e-12)

    def test_sinr_oracle(self, setup):
        cfg, real, v, u, p = setup
        links = evaluate_links(real, v, u, cfg)
        sinr_est, sinr_true = links.sinr(p)
        assert links.noise == cfg.sigma2_w
        for k in range(cfg.k_su):
            hk = real.h_su[k]
            for j in range(cfg.k_su):
                assert links.cross[k, j] == pytest.approx(
                    abs(np.conj(u[k]) @ hk @ v[j]) ** 2, rel=1e-12)
            sig = p[k] * abs(np.conj(u[k]) @ hk @ v[k]) ** 2
            inter = sum(p[j] * abs(np.conj(u[k]) @ hk @ v[j]) ** 2
                        for j in range(cfg.k_su) if j != k)
            pu_t = sum(cfg.p_p * abs(np.conj(u[k]) @ real.h_pu_tx[l, k]) ** 2
                       for l in range(cfg.l_tx))
            pu_e = sum(cfg.p_p * (abs(np.conj(u[k]) @ real.hhat_pu_tx[l, k]) ** 2
                                  + cfg.sigma2_delta)
                       for l in range(cfg.l_tx))
            assert links.pu_to_su_true[k] == pytest.approx(pu_t, rel=1e-12)
            assert links.pu_to_su_est[k] == pytest.approx(pu_e, rel=1e-12)
            assert sinr_true[k] == pytest.approx(sig / (cfg.sigma2_w + pu_t + inter), rel=1e-12)
            assert sinr_est[k] == pytest.approx(sig / (cfg.sigma2_w + pu_e + inter), rel=1e-12)

    def test_error_floor(self, setup):
        cfg, real, v, u, p = setup
        links = evaluate_links(real, v, u, cfg)
        assert np.all(links.leak_est >= cfg.sigma2_delta)
        est = links.int_to_pu(p, use_estimates=True)
        assert np.all(est >= p.sum() * cfg.sigma2_delta - 1e-15)

    def test_perfect_csi_collapse(self):
        cfg = small_config(sigma2_delta=0.0)
        real = generate_channels(cfg, 4)
        rng = np.random.default_rng(5)
        v = unit_rows(rng, (cfg.k_su, cfg.m_b))
        u = unit_rows(rng, (cfg.k_su, cfg.m_u))
        links = evaluate_links(real, v, u, cfg)
        assert np.array_equal(links.leak_true, links.leak_est)
        assert np.array_equal(links.pu_to_su_true, links.pu_to_su_est)

    def test_dimension_mismatch(self, setup):
        cfg, real, v, u, p = setup
        with pytest.raises(ValueError):
            evaluate_links(real, v[:, :-1], u, cfg)
        with pytest.raises(ValueError):
            evaluate_links(real, v, u[:-1], cfg)
        with pytest.raises(ValueError):
            evaluate_links(real, v, u[:, :-1], cfg)

    def test_evaluate_links_consistent(self, setup):
        # both flavors share the signal and the inter-stream term
        cfg, real, v, u, p = setup
        links = evaluate_links(real, v, u, cfg)
        inter = links.cross @ p - np.diagonal(links.cross) * p
        sinr_est, sinr_true = links.sinr(p)
        sig_true = sinr_true * (cfg.sigma2_w + links.pu_to_su_true + inter)
        sig_est = sinr_est * (cfg.sigma2_w + links.pu_to_su_est + inter)
        assert np.allclose(sig_true, sig_est, rtol=1e-14)
        assert np.all(inter >= 0)
        assert np.all(np.isfinite(inter))
