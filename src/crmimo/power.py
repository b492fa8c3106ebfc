"""Power allocation under interference, rate and budget constraints.

Every solver reads the gains of network.evaluate_links (LinkMetrics).
solve_lf_meb runs a phase-1 simplex on the linear feasibility system
stacked from them (interference caps at the receiving PUs, per-SU rate
floors, total power budget).  solve_lf_zfb computes the closed-form
powers that make every SU's estimated rate exactly r0 under ZF beams;
they decide the system exactly, through the budget and the cap rows.
solve_lf picks the solver by scheme.  slack_from_links and
verify_allocation audit any powers against the constraints, on
estimated or true channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .beamforming import MEB, ZFB, BeamformingSolution
from .network import ChannelRealization, LinkMetrics, NetworkConfig, evaluate_links

__all__ = [
    "LF_MEB",
    "LF_ZFB_EQUAL_RATE",
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

SLACK_TOL = -1e-9


class ZeroGainError(ValueError):
    """Raised when an effective beam gain is not strictly positive."""


@dataclass(frozen=True)
class SlackReport:
    """Signed margins of every constraint at a given power vector.

    interference[l] = i0 - int_to_pu[l], the cap margin at receiving
    PU l; rate[k] = log2(1 + sinr[k]) - r0; power = p0 - sum(p).
    Nonnegative entries mean the constraint holds.  sinr and int_to_pu
    are the figures behind the margins.
    """

    interference: np.ndarray
    rate: np.ndarray
    power: float
    use_estimates: bool
    sinr: np.ndarray
    int_to_pu: np.ndarray

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


def lf_meb_constraints(links: LinkMetrics, config: NetworkConfig):
    """Build the LF system of one beam choice as rows of A x <= b with labels.

    Rows: one per receiving PU (estimated interference cap), one per SU
    (rate floor, multiplied through by 2^r0 - 1 so it stays linear and
    degenerates gracefully as r0 -> 0), one power budget row.

    Returns:
        (a, b, labels) with labels like "int:0", "rate:3", "power".
    """
    k, l_rx = links.cross.shape[0], links.leak_est.shape[1]
    thr = 2.0 ** config.r0 - 1.0
    rate = thr * links.cross
    np.fill_diagonal(rate, -np.diagonal(links.cross))
    a = np.vstack([links.leak_est.T, rate, np.ones((1, k))])
    b = np.concatenate([np.full(l_rx, config.i0),
                        -thr * (links.noise + links.pu_to_su_est), [config.p0]])
    labels = [f"int:{i}" for i in range(l_rx)] + [f"rate:{i}" for i in range(k)] + ["power"]
    return a, b, labels


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


def solve_lf_meb(links: LinkMetrics, config: NetworkConfig) -> PowerAllocation:
    """Decide the LF MEB feasibility problem and return a point.

    Feasible verdicts return a basic feasible power vector; infeasible
    verdicts return the phase-1 optimum together with the blocking
    constraint family.
    """
    a, b, labels = lf_meb_constraints(links, config)
    result = simplex.find_feasible(a, b)
    blocking = None if result.feasible else _blocking_family(labels, result.row_violation)
    return PowerAllocation(p=result.x, feasible=result.feasible, scheme=LF_MEB, blocking=blocking)


def solve_lf_zfb(links: LinkMetrics, config: NetworkConfig) -> PowerAllocation:
    """Decide LF ZFB through the equal-rate powers, which decide it exactly.

    p_k = (2^r0 - 1)(sigma2_w + estimated PU-to-SU interference) / gain_k
    with gain_k = cross[k, k] makes every estimated rate exactly r0 (ZF
    removes the inter-stream terms).  The allocation is feasible iff
    sum(p) <= p0 and it meets every estimated cap row; ZF nulls the PU
    estimates, so a cap row reads sigma2_delta sum(p) <= i0.

    Raises:
        ZeroGainError: if any gain is not strictly positive.
    """
    gain = np.diagonal(links.cross)
    if np.any(gain <= 0.0):
        raise ZeroGainError("nonpositive ZF gain, beams are degenerate")
    thr = 2.0 ** config.r0 - 1.0
    p = thr * (links.noise + links.pu_to_su_est) / gain
    over_budget = p.sum() > config.p0
    over_cap = bool(np.any(links.int_to_pu(p, use_estimates=True) > config.i0))
    feasible = not (over_budget or over_cap)
    return PowerAllocation(
        p=p, feasible=feasible, scheme=LF_ZFB_EQUAL_RATE,
        blocking=None if feasible else ("power" if over_budget else "interference"),
    )


def solve_lf(links: LinkMetrics, scheme: str, config: NetworkConfig) -> PowerAllocation:
    """Decide the LF problem of one beam choice with its scheme's solver."""
    if scheme == MEB:
        return solve_lf_meb(links, config)
    if scheme == ZFB:
        return solve_lf_zfb(links, config)
    raise ValueError(f"unknown scheme {scheme!r}")


def equal_power(config: NetworkConfig, p_eq: float) -> np.ndarray:
    """Uniform power vector p_eq per SU."""
    if not np.isfinite(p_eq) or p_eq < 0:
        raise ValueError(f"p_eq must be finite and nonnegative, got {p_eq!r}")
    return np.full(config.k_su, float(p_eq))


def slack_from_links(links: LinkMetrics, p, config: NetworkConfig,
                     use_estimates: bool) -> SlackReport:
    """Constraint margins at powers p from precomputed LinkMetrics."""
    p = np.asarray(p, dtype=float)
    sinr = links.sinr(p, use_estimates)
    int_to_pu = links.int_to_pu(p, use_estimates)
    return SlackReport(
        interference=config.i0 - int_to_pu,
        rate=np.log2(1.0 + sinr) - config.r0,
        power=float(config.p0 - p.sum()),
        use_estimates=use_estimates,
        sinr=sinr,
        int_to_pu=int_to_pu,
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
    return slack_from_links(evaluate_links(real, beams.v, beams.u, config), p, config,
                            use_estimates)
