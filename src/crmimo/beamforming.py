"""Transmit/receive beamforming for the secondary downlink.

Two schemes.  MEB points each SU's transmit and receive beams along the
principal singular pair of its own channel and ignores the PUs; the pair
comes from the top eigenpair of the m_u x m_u Gram matrix H_k H_k^H.
ZFB keeps the MEB receive beams but picks transmit beams from the
pseudo-inverse of the stacked equivalent SU channels and estimated
receiving-PU channels, so each stream nulls the other SUs and the PU
estimates.  ZFB needs m_b > k_su - 1 + l_rx spatial degrees of freedom.
The beams are Q R^-H from a reduced QR of the stacking matrix G = QR,
taken as G R^-1 R^-H from the R factor alone: Q is never formed.  The
1e-10 rank cutoff is settled by the bound cond(R) <= |R|_F |R^-1|_F
where it can be; only where the bound is inconclusive does an SVD of the
small R, whose singular values are those of G, decide it.  No Gram
matrix G^H G is formed: it would square the condition number, and the
cutoff could no longer be resolved.  Nulling is accurate to about
cond(G) eps relative to the link gain, as R^-1 R^-H is applied to G.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import ChannelRealization

__all__ = [
    "MEB",
    "ZFB",
    "BeamformingSolution",
    "AntennaShortageError",
    "IllConditionedError",
    "compute_meb",
    "compute_zfb",
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
    """Beams of the scheme the caller chose; network.evaluate_links turns
    them into link gains, the ZF nulling residuals among them.

    The arrays carry the leading trial axes of the realization.

    Attributes:
        v: (k_su, m_b) unit-norm transmit beams.
        u: (k_su, m_u) unit-norm receive beams under both schemes: the
            principal left singular vectors, i.e. the top eigenvectors of
            each H_k H_k^H.
        sigma2_k1: squared principal singular value of each SU channel,
            which is the MEB link gain |u_k^H H_k v_k|^2.
    """

    v: np.ndarray
    u: np.ndarray
    sigma2_k1: np.ndarray


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
    return BeamformingSolution(v=v, u=u, sigma2_k1=sigma2_k1)


def compute_zfb(real: ChannelRealization,
                meb: BeamformingSolution | None = None) -> BeamformingSolution:
    """Zero-forcing beamforming against other SUs and estimated PU receivers.

    Transmit beams are the first k_su columns of the pseudo-inverse of
    G = [g_1 .. g_K, hhat_rx...], normalized to unit power, where
    g_k = H_k^H u_k are the equivalent channels under the MEB receive
    beams.  meb is compute_meb(real) when the caller already has it;
    None computes it.

    Raises:
        AntennaShortageError: if m_b <= k_su - 1 + l_rx.
        IllConditionedError: if G is numerically rank deficient (in any
            trial of a block).
    """
    k, mb, l_rx = real.k_su, real.m_b, real.hhat_pu_rx.shape[-2]
    if mb <= k - 1 + l_rx:
        raise AntennaShortageError(
            f"ZFB needs m_b > k_su - 1 + l_rx, got m_b={mb}, k_su={k}, l_rx={l_rx}"
        )
    meb = compute_meb(real) if meb is None else meb
    # g_k = H_k^H u_k = sqrt(sigma2_k1) v_k, phase fix included
    g = meb.v.swapaxes(-1, -2) * np.sqrt(meb.sigma2_k1)[..., None, :]
    big_g = np.concatenate([g, real.hhat_pu_rx.swapaxes(-1, -2)], axis=-1)

    r = np.linalg.qr(big_g, mode="r")
    try:
        r_inv = np.linalg.inv(r)
        # cond_2(R) <= |R|_F |R^-1|_F: a product below half the cutoff proves
        # the rank, with room for rounding in the computed R^-1
        proven = np.all(np.linalg.norm(r, axis=(-2, -1)) * np.linalg.norm(r_inv, axis=(-2, -1))
                        < 0.5 / _COND_TOL)
    except np.linalg.LinAlgError:
        r_inv, proven = None, False
    if not proven:
        # R has the singular values of G
        s = np.linalg.svd(r, compute_uv=False)
        if r_inv is None or np.any(s[..., -1] < _COND_TOL * s[..., 0]):
            with np.errstate(divide="ignore"):  # s[-1] = 0 for an exactly singular R
                cond = np.max(s[..., 0] / s[..., -1])
            raise IllConditionedError(f"ZF stacking matrix has condition number {cond:.3e}")
    # the SU-stream columns of pinv(G)^H = Q R^-H = G R^-1 R^-H, normalized
    # on the small side: Q has orthonormal columns, so it keeps their norms
    c = r_inv[..., :k, :].conj().swapaxes(-1, -2)
    c /= np.linalg.norm(c, axis=-2)[..., None, :]
    v = (big_g @ (r_inv @ c)).swapaxes(-1, -2)
    v.setflags(write=False)
    return BeamformingSolution(v=v, u=meb.u, sigma2_k1=meb.sigma2_k1)
