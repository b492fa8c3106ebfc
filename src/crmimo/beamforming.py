"""Transmit/receive beamforming for the secondary downlink.

Two schemes.  MEB points each SU's transmit and receive beams along the
principal singular pair of its own channel and ignores the PUs; the pair
comes from the top eigenpair of the m_u x m_u Gram matrix H_k H_k^H.
ZFB keeps the MEB receive beams but picks transmit beams from the
pseudo-inverse of the stacked equivalent SU channels and estimated
receiving-PU channels, so each stream nulls the other SUs and the PU
estimates.  ZFB needs m_b > k_su - 1 + l_rx spatial degrees of freedom.
The beams come from a reduced QR of the stacking matrix G = QR, as
Q R^-H, and the 1e-10 rank cutoff reads the singular values of the small
R, which are those of G.  No Gram matrix is formed: it would square the
condition number, and the cutoff could no longer be resolved.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .network import ChannelRealization, _cross_gains

__all__ = [
    "MEB",
    "ZFB",
    "BeamformingSolution",
    "AntennaShortageError",
    "IllConditionedError",
    "compute_meb",
    "compute_zfb",
    "compute_beams",
    "nulling_residuals",
    "export_diagnostics",
]

MEB = "MEB"
ZFB = "ZFB"

# rank-revealing cutoff for the ZF pseudo-inverse
_COND_TOL = 1e-10


class AntennaShortageError(ValueError):
    """Raised when m_b is too small for the requested ZF null space."""


class IllConditionedError(RuntimeError):
    """Raised when the ZF stacking matrix is numerically rank deficient."""


@dataclass(frozen=True)
class BeamformingSolution:
    """Beams plus the per-SU effective gains.

    The arrays carry the leading trial axes of the realization.

    Attributes:
        scheme: MEB or ZFB.
        v: (k_su, m_b) unit-norm transmit beams.
        u: (k_su, m_u) unit-norm receive beams under both schemes: the
            principal left singular vectors, i.e. the top eigenvectors of
            each H_k H_k^H.
        sigma2_k1: squared principal singular value of each SU channel.
        gain: effective link gain |u_k^H H_k v_k|^2.
    """

    scheme: str
    v: np.ndarray
    u: np.ndarray
    sigma2_k1: np.ndarray
    gain: np.ndarray


def _fix_phase(v, u):
    """Rotate each (v_k, u_k) pair so the largest-|.| entry of v_k is real positive."""
    idx = np.argmax(np.abs(v), axis=-1)
    piv = np.take_along_axis(v, idx[..., None], axis=-1)
    phase = (piv / np.abs(piv)).conj()
    return v * phase, u * phase


def compute_meb(real: ChannelRealization) -> BeamformingSolution:
    """Maximum eigenmode beamforming: principal singular pair per SU.

    The pair comes from the top eigenpair (lambda, u_k) of the m_u x m_u
    Gram matrix H_k H_k^H, then v_k = H_k^H u_k / sqrt(lambda): one
    batched eigh of k_su tiny matrices instead of an SVD of each
    m_u x m_b channel.  lambda is the squared principal singular value.

    Args:
        real: channel realization.

    Returns:
        BeamformingSolution with gain equal to sigma2_k1.
    """
    h = real.h_su
    lam, vec = np.linalg.eigh(h @ h.conj().swapaxes(-1, -2))
    sigma2_k1 = lam[..., -1]
    u = vec[..., -1]
    # scale the short u side: dividing the long complex v costs more
    w = u.conj() / np.sqrt(sigma2_k1)[..., None]
    v = (w[..., None, :] @ h)[..., 0, :].conj()
    v, u = _fix_phase(v, u)
    for a in (v, u, sigma2_k1):
        a.setflags(write=False)
    return BeamformingSolution(scheme=MEB, v=v, u=u, sigma2_k1=sigma2_k1, gain=sigma2_k1)


def compute_zfb(real: ChannelRealization) -> BeamformingSolution:
    """Zero-forcing beamforming against other SUs and estimated PU receivers.

    Transmit beams are the first k_su columns of the pseudo-inverse of
    G = [g_1 .. g_K, hhat_rx...], normalized to unit power, where
    g_k = H_k^H u_k are the equivalent channels under the MEB receive
    beams.

    Raises:
        AntennaShortageError: if m_b <= k_su - 1 + l_rx.
        IllConditionedError: if G is numerically rank deficient (in any
            trial of a block).
    """
    k, mb = real.k_su, real.m_b
    l_rx = real.pu_rx.size
    if mb <= k - 1 + l_rx:
        raise AntennaShortageError(
            f"ZFB needs m_b > k_su - 1 + l_rx, got m_b={mb}, k_su={k}, l_rx={l_rx}"
        )
    meb = compute_meb(real)
    # g_k = H_k^H u_k = sqrt(sigma2_k1) v_k, phase fix included
    g = meb.v.swapaxes(-1, -2) * np.sqrt(meb.sigma2_k1)[..., None, :]
    cols = [g]
    if l_rx:
        cols.append(real.hhat_pu_sbs[..., real.pu_rx, :].swapaxes(-1, -2))
    big_g = np.concatenate(cols, axis=-1)

    q, r = np.linalg.qr(big_g)
    # R has the singular values of G
    s = np.linalg.svd(r, compute_uv=False)
    if np.any(s[..., -1] < _COND_TOL * s[..., 0]):
        raise IllConditionedError(
            f"ZF stacking matrix has condition number {np.max(s[..., 0] / s[..., -1]):.3e}"
        )
    # the SU-stream columns of pinv(G)^H = Q R^-H, normalized on the small
    # side: Q has orthonormal columns, so it keeps their norms
    c = np.linalg.inv(r)[..., :k, :].conj().swapaxes(-1, -2)
    c /= np.linalg.norm(c, axis=-2)[..., None, :]
    v = (q @ c).swapaxes(-1, -2)
    gain = np.abs(np.einsum("...bk,...kb->...k", g.conj(), v)) ** 2
    for a in (v, gain):
        a.setflags(write=False)
    return BeamformingSolution(
        scheme=ZFB, v=v, u=meb.u, sigma2_k1=meb.sigma2_k1, gain=gain
    )


def compute_beams(real: ChannelRealization, scheme: str) -> BeamformingSolution:
    """Beams of the named scheme.

    Raises:
        ValueError: if scheme is neither MEB nor ZFB.
    """
    if scheme == MEB:
        return compute_meb(real)
    if scheme == ZFB:
        return compute_zfb(real)
    raise ValueError(f"unknown scheme {scheme!r}")


def nulling_residuals(real: ChannelRealization, beams: BeamformingSolution):
    """Residual leakage of the transmit beams, for diagnostics and audits.

    Returns:
        (pu_residual, stream_residual): per-SU maxima of |v_k^H hhat_l0|^2
        over receiving PUs (zeros when l_rx = 0) and of |u_k^H H_k v_j|^2
        over j != k.
    """
    k = real.k_su
    if real.pu_rx.size:
        hhat_rx = real.hhat_pu_sbs[real.pu_rx]
        pu_res = (np.abs(beams.v.conj() @ hhat_rx.T) ** 2).max(axis=1)
    else:
        pu_res = np.zeros(k)
    eff = _cross_gains(real, beams.v, beams.u)
    np.fill_diagonal(eff, 0.0)
    return pu_res, eff.max(axis=1)


def export_diagnostics(real: ChannelRealization, beams: BeamformingSolution, path):
    """Write one CSV row per SU: scheme, gains and nulling residuals."""
    pu_res, stream_res = nulling_residuals(real, beams)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["scheme", "su", "sigma2_k1", "gain", "max_pu_residual", "max_stream_residual"]
        )
        for k in range(real.k_su):
            writer.writerow(
                [beams.scheme, k, repr(float(beams.sigma2_k1[k])), repr(float(beams.gain[k])),
                 repr(float(pu_res[k])), repr(float(stream_res[k]))]
            )
