"""Network model for an underlay cognitive-radio downlink.

A secondary base station (SBS) with m_b antennas serves k_su secondary
users (SUs, m_u antennas each) on the same band as l_tx transmitting and
l_rx receiving single-antenna primary users (PUs).  Channels are flat
Rayleigh fading.  The SBS knows the SU channels exactly but only noisy
estimates of the PU channels.  evaluate_links computes the
power-independent gains of one beam choice, with every PU term in a true
and an estimated flavor; LinkMetrics turns them into SINRs and PU
interference at any power vector.  Realizations, beams and gains may
carry leading trial axes, so one call serves a block of trials.

Complex Gaussian convention: CN(0, s2) means total variance s2, i.e.
each real part has variance s2/2.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NetworkConfig",
    "ChannelRealization",
    "LinkMetrics",
    "db_to_linear",
    "linear_to_db",
    "generate_channels",
    "evaluate_links",
]

_DB_KEYS = {"p0_db": "p0", "i0_db": "i0", "pp_db": "p_p"}


def db_to_linear(x_db):
    """Convert a dB power value to linear scale."""
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def linear_to_db(x):
    """Convert a linear power value to dB."""
    return 10.0 * np.log10(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class NetworkConfig:
    """Static scenario parameters, all powers in linear scale.

    Attributes:
        m_b: SBS antenna count.
        m_u: antennas per SU.
        k_su: number of SUs served simultaneously.
        l_tx: number of transmitting PUs (interfere with SUs).
        l_rx: number of receiving PUs (protected by the cap i0).
        sigma2_h: per-element channel variance, all links.
        sigma2_delta: CSI error variance of the PU channel estimates.
        sigma2_w: receiver noise power.
        p_p: PU transmit power.
        p0: SBS total transmit power budget.
        i0: maximum allowed interference at each receiving PU.
        r0: minimum rate per SU in bps/Hz.
    """

    m_b: int = 64
    m_u: int = 4
    k_su: int = 10
    l_tx: int = 1
    l_rx: int = 1
    sigma2_h: float = 1.0
    sigma2_delta: float = 0.01
    sigma2_w: float = 1.0
    p_p: float = 1.0
    p0: float = 10.0
    i0: float = 10.0 ** -0.3
    r0: float = 1.0

    def __post_init__(self):
        for f in dataclasses.fields(self):  # a bool is neither an integer nor a number
            val, whole = getattr(self, f.name), f.type == "int"
            kinds = (int, np.integer) if whole else (int, float, np.integer, np.floating)
            if isinstance(val, (bool, np.bool_)) or not isinstance(val, kinds):
                kind = "an integer" if whole else "a number"
                raise ValueError(f"{f.name} must be {kind}, got {val!r}")
            # stored as int or float: a numpy scalar would compute in its own
            # precision, yet equal and hash as the Python number it rounds to
            object.__setattr__(self, f.name, int(val) if whole else float(val))
        if self.m_b < 1 or self.m_u < 1 or self.k_su < 1:
            raise ValueError("m_b, m_u and k_su must be positive")
        if self.l_tx < 0 or self.l_rx < 0:
            raise ValueError("l_tx and l_rx must be nonnegative")
        for name in ("sigma2_h", "sigma2_w", "p0", "i0", "r0"):
            val = getattr(self, name)
            if not np.isfinite(val) or val <= 0:
                raise ValueError(f"{name} must be finite and positive, got {val!r}")
        for name in ("sigma2_delta", "p_p"):
            val = getattr(self, name)
            if not np.isfinite(val) or val < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {val!r}")
        if self.sigma2_delta > self.sigma2_h:
            raise ValueError(
                "sigma2_delta must not exceed sigma2_h "
                "(the estimate carries the remaining variance)"
            )

    @property
    def l_pu(self):
        """Total number of PUs."""
        return self.l_tx + self.l_rx

    def replace(self, **updates) -> "NetworkConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **updates)

    def to_file(self, path):
        """Write the config as flat key = value lines (linear units)."""
        with open(path, "w") as fh:
            fh.write("# network config, powers in linear scale\n")
            for f in dataclasses.fields(self):
                fh.write(f"{f.name} = {getattr(self, f.name)!r}\n")

    @classmethod
    def from_file(cls, path) -> "NetworkConfig":
        """Read a flat key = value config file over the defaults (see with_items)."""
        with open(path) as fh:
            return cls().with_items(_parse_kv_lines(fh))

    def with_items(self, items: dict) -> "NetworkConfig":
        """Return a copy with {key: value} items applied, values as strings or numbers.

        Power fields also accept dB forms p0_db, i0_db, pp_db with
        linear = 10^(dB/10).  Giving both forms of one field is an error.
        An integer field takes any integral value, as a number or a
        string (64, 64.0, "64.0"; not 64.5); no field takes a bool.  A
        value that does not parse raises ValueError naming its key.
        """
        field_types = {f.name: f.type for f in dataclasses.fields(self)}
        updates = {}
        for key, raw in items.items():
            target = _DB_KEYS.get(key, key)
            if target not in field_types:
                raise ValueError(f"unknown config key {key!r}")
            whole = field_types[target] == "int"
            try:
                value = _count(key, raw) if whole else float(raw)
            except (TypeError, ValueError):
                value = None
            if value is None or isinstance(raw, (bool, np.bool_)):
                kind = "an integer" if whole else "a number"
                raise ValueError(f"config key {key!r} needs {kind}, got {raw!r}")
            if key in _DB_KEYS:
                value = float(db_to_linear(value))
            if target in updates:
                raise ValueError(f"config sets {target!r} twice (dB and linear forms?)")
            updates[target] = value
        return self.replace(**updates)


def _count(name: str, val) -> int:
    """val, a number or a numeric string, as an int; ValueError for a bool
    or a value that is not integral (64.0 and "64.0" give 64, 64.5 raises)."""
    try:
        whole = not isinstance(val, (bool, np.bool_)) and float(val).is_integer()
    except (TypeError, ValueError):
        whole = False
    if not whole:
        raise ValueError(f"{name} must be an integer, got {val!r}")
    return int(float(val)) if isinstance(val, str) else int(val)


def _parse_kv_lines(lines, where="line") -> dict:
    """{key: value} strings from key = value lines, '#' starting a comment;
    an error names the n-th line as f"{where} {n}" (a file line, a --set pair)."""
    items = {}
    for lineno, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"{where} {lineno}: expected key = value, got {line.strip()!r}")
        key, _, val = body.partition("=")
        key, val = key.strip(), val.strip()
        if key in items:
            raise ValueError(f"{where} {lineno}: duplicate key {key!r}")
        items[key] = val
    return items


@dataclass(frozen=True)
class ChannelRealization:
    """One fading realization: the channels a trial reads, all read-only.

    A transmitting PU keeps only its links to the SUs, a receiving PU
    only its link to the SBS.  The arrays may carry leading trial axes
    (a block of realizations stacked along axis 0).

    Attributes:
        h_su: (k_su, m_u, m_b) true SBS-to-SU channels.
        h_pu_rx, hhat_pu_rx: (l_rx, m_b) true and estimated channels
            between the SBS and each receiving PU.
        h_pu_tx, hhat_pu_tx: (l_tx, k_su, m_u) true and estimated
            channels from each transmitting PU to the SUs.
    """

    h_su: np.ndarray
    h_pu_rx: np.ndarray
    hhat_pu_rx: np.ndarray
    h_pu_tx: np.ndarray
    hhat_pu_tx: np.ndarray

    @property
    def k_su(self):
        return self.h_su.shape[-3]

    @property
    def m_u(self):
        return self.h_su.shape[-2]

    @property
    def m_b(self):
        return self.h_su.shape[-1]


@dataclass(frozen=True)
class LinkMetrics:
    """Power-independent link gains of one beam choice.

    sinr and int_to_pu evaluate them at a power vector.  The *_est
    fields follow the SBS view: estimated PU channels plus the
    sigma2_delta error floor.  SU channels are known exactly.  The
    arrays may carry leading trial axes, with powers shaped to match;
    links[t] is the gains of trial t.

    Attributes:
        cross: (k_su, k_su) |u_k^H H_k v_j|^2, SU k's receiver, stream j.
        pu_to_su_true, pu_to_su_est: (k_su,) PU-to-SU interference per
            SU, sum over transmitting PUs l of p_p |u_k^H h_lk|^2.
        leak_true, leak_est: (k_su, l_rx) |v_k^H h_l|^2 of unit-power
            stream k at receiving PU l.
        noise: receiver noise power sigma2_w.
    """

    cross: np.ndarray
    pu_to_su_true: np.ndarray
    pu_to_su_est: np.ndarray
    leak_true: np.ndarray
    leak_est: np.ndarray
    noise: float

    def __getitem__(self, index) -> "LinkMetrics":
        """The gains of trial `index` along the leading trial axis."""
        return dataclasses.replace(self, **{
            f.name: getattr(self, f.name)[index]
            for f in dataclasses.fields(self) if f.name != "noise"})

    def sinr(self, p) -> tuple[np.ndarray, np.ndarray]:
        """Per-SU (estimated, true) SINR at powers p; the inter-stream term is exact.

        Both flavors share the signal and the inter-stream term; only
        the PU-to-SU interference differs.
        """
        signal = np.diagonal(self.cross, axis1=-2, axis2=-1) * p
        inter = (self.cross @ p[..., None])[..., 0] - signal
        return (signal / (self.noise + self.pu_to_su_est + inter),
                signal / (self.noise + self.pu_to_su_true + inter))

    def int_to_pu(self, p, use_estimates: bool) -> np.ndarray:
        """Interference at each receiving PU at powers p."""
        leak = self.leak_est if use_estimates else self.leak_true
        return (leak.swapaxes(-1, -2) @ p[..., None])[..., 0]


def _cgauss(rng, shape, var):
    scale = np.sqrt(var / 2.0)
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape) * scale  # re drawn before im
    z.imag = rng.standard_normal(shape) * scale
    return z


def generate_channels(config: NetworkConfig, seed) -> ChannelRealization:
    """Draw one i.i.d. Rayleigh realization, deterministic in (config, seed).

    Estimates and errors are independent: hhat ~ CN(0, sigma2_h -
    sigma2_delta) and delta ~ CN(0, sigma2_delta), with the true channel
    h = hhat + delta.  This gives h the full variance sigma2_h, keeps
    h - hhat = delta exactly, and makes the error orthogonal to the
    estimate as an estimation model requires.  Every PU's links are
    drawn for both roles, so the draw order does not depend on l_tx;
    the first l_tx PUs transmit and the rest receive.

    Args:
        config: scenario parameters.
        seed: anything np.random.default_rng accepts (int, SeedSequence).

    Returns:
        ChannelRealization with read-only arrays.
    """
    rng = np.random.default_rng(seed)
    k, mu, mb, l = config.k_su, config.m_u, config.m_b, config.l_pu
    s2hat = config.sigma2_h - config.sigma2_delta

    h_su = _cgauss(rng, (k, mu, mb), config.sigma2_h)
    hhat_pu_sbs = _cgauss(rng, (l, mb), s2hat)
    delta_pu_sbs = _cgauss(rng, (l, mb), config.sigma2_delta)
    hhat_pu_su = _cgauss(rng, (l, k, mu), s2hat)
    delta_pu_su = _cgauss(rng, (l, k, mu), config.sigma2_delta)

    tx, rx = slice(config.l_tx), slice(config.l_tx, l)
    arrays = dict(
        h_su=h_su,
        h_pu_rx=hhat_pu_sbs[rx] + delta_pu_sbs[rx],
        hhat_pu_rx=hhat_pu_sbs[rx],
        h_pu_tx=hhat_pu_su[tx] + delta_pu_su[tx],
        hhat_pu_tx=hhat_pu_su[tx],
    )
    for a in arrays.values():
        a.setflags(write=False)
    return ChannelRealization(**arrays)


def evaluate_links(real: ChannelRealization, v, u, config: NetworkConfig) -> LinkMetrics:
    """Compute the power-independent gains of a beam choice once.

    The one link-gain kernel: at sigma2_delta = 0, leak_est and the
    off-diagonal of cross are the nulling residuals of ZF beams.

    Args:
        v: (..., k_su, m_b) transmit beams, leading axes as in real.
        u: (..., k_su, m_u) receive beams.

    Raises:
        ValueError: if a shape does not match the realization.
    """
    v, u = np.asarray(v), np.asarray(u)
    lead, k = real.h_su.shape[:-3], real.k_su
    for name, arr, shape in (("v", v, (*lead, k, real.m_b)), ("u", u, (*lead, k, real.m_u))):
        if arr.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    uc = u.conj()
    g = (uc[..., None, :] @ real.h_su)[..., 0, :]  # u_k^H H_k
    # |u_k^H h_lk|^2 of each transmitting PU l at SU k
    pu_true = np.abs(np.einsum("...ku,...lku->...lk", uc, real.h_pu_tx)) ** 2
    pu_est = np.abs(np.einsum("...ku,...lku->...lk", uc, real.hhat_pu_tx)) ** 2
    return LinkMetrics(
        cross=np.abs(g @ v.swapaxes(-1, -2)) ** 2,
        pu_to_su_true=config.p_p * pu_true.sum(axis=-2),
        pu_to_su_est=config.p_p * (pu_est + config.sigma2_delta).sum(axis=-2),
        leak_true=np.abs(v.conj() @ real.h_pu_rx.swapaxes(-1, -2)) ** 2,
        leak_est=np.abs(v.conj() @ real.hhat_pu_rx.swapaxes(-1, -2)) ** 2
        + config.sigma2_delta,
        noise=config.sigma2_w,
    )
