"""Power allocation under interference, rate and budget constraints.

solve_lf_meb runs a phase-1 simplex on the linear feasibility system
induced by the MEB beams (interference caps at the receiving PUs,
per-SU rate floors, total power budget).  solve_lf_zfb computes the
closed-form powers that make every SU's estimated rate exactly r0 under
ZF beams, which is feasible iff the total stays inside min(p0,
i0/sigma2_delta).  solve_lf picks the solver by the beams' scheme.
verify_allocation audits any powers against the original constraints,
on estimated or true channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .beamforming import MEB, ZFB, BeamformingSolution
from .network import ChannelRealization, NetworkConfig, evaluate_links, interference_from_pu

__all__ = [
    "LF_MEB",
    "LF_ZFB_EQUAL_RATE",
    "EQUAL_POWER",
    "ZeroGainError",
    "SlackReport",
    "PowerAllocation",
    "lf_meb_constraints",
    "export_constraints",
    "load_constraints",
    "solve_lf_meb",
    "solve_lf_zfb",
    "solve_lf",
    "equal_power",
    "slack_from_links",
    "verify_allocation",
]

LF_MEB = "LF_MEB"
LF_ZFB_EQUAL_RATE = "LF_ZFB_EQUAL_RATE"
EQUAL_POWER = "EQUAL_POWER"

SLACK_TOL = -1e-9


class ZeroGainError(ValueError):
    """Raised when an effective beam gain is not strictly positive."""


@dataclass(frozen=True)
class SlackReport:
    """Signed margins of every constraint at a given power vector.

    interference[l] = i0 - interference at receiving PU l,
    rate[k] = log2(1 + SINR_k) - r0, power = p0 - sum(p).
    Nonnegative entries mean the constraint holds.
    """

    interference: np.ndarray
    rate: np.ndarray
    power: float
    use_estimates: bool

    def min_slack(self) -> float:
        parts = [self.interference, self.rate, [self.power]]
        return float(min(np.min(p) for p in parts if len(p)))

    def all_met(self, tol: float = SLACK_TOL) -> bool:
        return self.min_slack() >= tol


@dataclass(frozen=True)
class PowerAllocation:
    """Solver output: powers and verdict.

    Audit the powers with verify_allocation.  blocking names the
    constraint family (interference, rate, power) with the largest
    violation at the phase-1 optimum when the LF MEB system is
    infeasible; None otherwise.
    """

    p: np.ndarray
    feasible: bool
    scheme: str
    blocking: str | None = None


def lf_meb_constraints(real: ChannelRealization, beams: BeamformingSolution, config: NetworkConfig):
    """Build the LF MEB system as rows of A x <= b with labels.

    Rows: one per receiving PU (estimated interference cap), one per SU
    (rate floor, multiplied through by 2^r0 - 1 so it stays linear and
    degenerates gracefully as r0 -> 0), one power budget row.

    Returns:
        (a, b, labels) with labels like "int:0", "rate:3", "power".
    """
    if beams.scheme != MEB:
        raise ValueError(f"expected MEB beams, got {beams.scheme}")
    k = config.k_su
    thr = 2.0 ** config.r0 - 1.0
    rows, rhs, labels = [], [], []

    hhat_rx = real.hhat_pu_sbs[real.pu_rx]
    cross_pu = np.abs(beams.v.conj() @ hhat_rx.T) ** 2 + config.sigma2_delta
    for i in range(config.l_rx):
        rows.append(cross_pu[:, i])
        rhs.append(config.i0)
        labels.append(f"int:{i}")

    pu_su = interference_from_pu(real, beams.u, config, use_estimates=True)
    cross_su = np.abs(beams.v.conj() @ beams.v.T) ** 2  # |v_k^H v_j|^2
    for i in range(k):
        row = thr * beams.sigma2_k1[i] * cross_su[i]
        row[i] = -beams.sigma2_k1[i]
        rows.append(row)
        rhs.append(-thr * (config.sigma2_w + pu_su[i]))
        labels.append(f"rate:{i}")

    rows.append(np.ones(k))
    rhs.append(config.p0)
    labels.append("power")
    return np.array(rows), np.array(rhs), labels


def export_constraints(path, a, b, labels):
    """Write a labeled dense text dump of A x <= b (one row per line)."""
    a = np.asarray(a, dtype=float)
    with open(path, "w") as fh:
        fh.write("# schema=1\n")
        fh.write("# label  a_1 .. a_n  rhs   (rows of A x <= b)\n")
        for label, row, rhs in zip(labels, a, b):
            coeffs = " ".join(repr(float(c)) for c in row)
            fh.write(f"{label} {coeffs} {float(rhs)!r}\n")


def load_constraints(path):
    """Read back a dump written by export_constraints."""
    labels, rows, rhs = [], [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            labels.append(parts[0])
            values = [float(tok) for tok in parts[1:]]
            rows.append(values[:-1])
            rhs.append(values[-1])
    return np.array(rows), np.array(rhs), labels


def _blocking_family(labels, row_violation) -> str | None:
    worst = {}
    for label, viol in zip(labels, row_violation):
        family = label.split(":", 1)[0]
        worst[family] = max(worst.get(family, 0.0), viol)
    family, value = max(worst.items(), key=lambda kv: kv[1])
    return family if value > 0.0 else None


def solve_lf_meb(real: ChannelRealization, beams: BeamformingSolution, config: NetworkConfig) -> PowerAllocation:
    """Decide the LF MEB feasibility problem and return a point.

    Feasible verdicts return a basic feasible power vector; infeasible
    verdicts return the phase-1 optimum together with the blocking
    constraint family.
    """
    a, b, labels = lf_meb_constraints(real, beams, config)
    result = simplex.find_feasible(a, b)
    blocking = None if result.feasible else _blocking_family(labels, result.row_violation)
    return PowerAllocation(p=result.x, feasible=result.feasible, scheme=LF_MEB, blocking=blocking)


def solve_lf_zfb(real: ChannelRealization, beams: BeamformingSolution, config: NetworkConfig) -> PowerAllocation:
    """Decide LF ZFB through the equal-rate powers, which decide it exactly.

    p_k = (2^r0 - 1)(sigma2_w + estimated PU-to-SU interference) / gain_k
    makes every estimated rate exactly r0 (ZF removes the inter-stream
    terms).  The allocation is feasible iff sum(p) <= min(p0,
    i0/sigma2_delta); with perfect CSI the interference bound vanishes.

    Raises:
        ZeroGainError: if any gain is not strictly positive.
    """
    if beams.scheme != ZFB:
        raise ValueError(f"expected ZFB beams, got {beams.scheme}")
    if np.any(beams.gain <= 0.0):
        raise ZeroGainError("nonpositive ZF gain, beams are degenerate")
    thr = 2.0 ** config.r0 - 1.0
    pu_su = interference_from_pu(real, beams.u, config, use_estimates=True)
    p = thr * (config.sigma2_w + pu_su) / beams.gain

    budget = config.p0
    if config.sigma2_delta > 0.0:
        budget = min(budget, config.i0 / config.sigma2_delta)
    feasible = bool(p.sum() <= budget)
    return PowerAllocation(
        p=p, feasible=feasible, scheme=LF_ZFB_EQUAL_RATE,
        blocking=None if feasible else ("power" if p.sum() > config.p0 else "interference"),
    )


def solve_lf(real: ChannelRealization, beams: BeamformingSolution, config: NetworkConfig) -> PowerAllocation:
    """Decide the LF problem with the solver of the beams' scheme."""
    if beams.scheme == MEB:
        return solve_lf_meb(real, beams, config)
    if beams.scheme == ZFB:
        return solve_lf_zfb(real, beams, config)
    raise ValueError(f"unknown scheme {beams.scheme!r}")


def equal_power(config: NetworkConfig, p_eq: float) -> np.ndarray:
    """Uniform power vector p_eq per SU."""
    if not np.isfinite(p_eq) or p_eq < 0:
        raise ValueError(f"p_eq must be finite and nonnegative, got {p_eq!r}")
    return np.full(config.k_su, float(p_eq))


def slack_from_links(links, p, config: NetworkConfig, use_estimates: bool) -> SlackReport:
    """Constraint margins from precomputed LinkMetrics."""
    p = np.asarray(p, dtype=float)
    interference = links.int_to_pu_est if use_estimates else links.int_to_pu_true
    sinr = links.sinr_est if use_estimates else links.sinr_true
    return SlackReport(
        interference=config.i0 - interference,
        rate=np.log2(1.0 + sinr) - config.r0,
        power=float(config.p0 - p.sum()),
        use_estimates=use_estimates,
    )


def verify_allocation(real: ChannelRealization, beams: BeamformingSolution, p, config: NetworkConfig,
                      use_estimates: bool) -> SlackReport:
    """Recompute every constraint of the allocation problem from scratch.

    Args:
        p: power vector, or a PowerAllocation whose powers to audit.
        use_estimates: audit the SBS view (estimated channels plus error
            floor) when true, the physical view when false.

    Returns:
        SlackReport of signed margins; pure audit, nothing is mutated.
    """
    if isinstance(p, PowerAllocation):
        p = p.p
    p = np.asarray(p, dtype=float)
    links = evaluate_links(real, beams.v, beams.u, p, config)
    return slack_from_links(links, p, config, use_estimates)
