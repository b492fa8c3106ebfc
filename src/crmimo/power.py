"""Power allocation under interference, rate and budget constraints.

Every solver reads the gains of network.evaluate_links (LinkMetrics).
Both LF solvers decide the linear feasibility system (interference caps
at the receiving PUs, per-SU rate floors, total power budget) in closed
form.  solve_lf_meb solves for the minimum-power point p* of the rate
rows, (I - F) p = d with F >= 0 and d >= 0, which exists with p* >= 0
exactly when the rate rows are feasible and lies below every other
point that meets them; the caps and the budget have nonnegative
coefficients, so p* decides the whole system (Zander 1992; Foschini and
Miljanic 1993; Yates 1995).  solve_lf_zfb computes the powers that make
every SU's estimated rate exactly r0 under ZF beams, which is the same
point once ZF removes F; its kernel decides a block of trials in one
call.  _lf_block, the one LF entry of the program, picks the solver by
scheme for a block of trials.
lf_meb_constraints stacks the rows for export and for independent LP
audits.  slack_from_links and verify_allocation audit any powers against
the constraints, on estimated and true channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamforming import ZFB, BeamformingSolution
from .network import ChannelRealization, LinkMetrics, NetworkConfig, evaluate_links

__all__ = [
    "ZeroGainError",
    "SlackReport",
    "PowerAllocation",
    "lf_meb_constraints",
    "export_constraints",
    "load_constraints",
    "solve_lf_meb",
    "solve_lf_zfb",
    "equal_power",
    "slack_from_links",
    "verify_allocation",
]

SLACK_TOL = -1e-9


class ZeroGainError(ValueError):
    """Raised when an effective beam gain is not strictly positive."""


@dataclass(frozen=True)
class SlackReport:
    """Signed margins of every constraint at a given power vector.

    interference[l] = i0 - int_to_pu[l], the cap margin at receiving
    PU l; rate[k] = log2(1 + sinr[k]) - r0; power = p0 - sum(p).
    Nonnegative entries mean the constraint holds.  sinr and int_to_pu
    are the figures behind the margins.  A report does not name its
    view: slack_from_links returns the (estimated, true) pair.  For a
    block of trials every array field carries the leading trial axis,
    power is an array over it instead of a float, and min_slack and
    all_met answer per trial.
    """

    interference: np.ndarray
    rate: np.ndarray
    power: float | np.ndarray
    sinr: np.ndarray
    int_to_pu: np.ndarray

    def min_slack(self):
        power = np.asarray(self.power)[..., None]
        return np.concatenate([self.interference, self.rate, power], axis=-1).min(axis=-1)

    def all_met(self, tol: float = SLACK_TOL):
        return self.min_slack() >= tol


@dataclass(frozen=True)
class PowerAllocation:
    """Solver output: powers and verdict, whichever solver made them.

    Audit the powers with verify_allocation.  blocking names the
    constraint family that makes the system infeasible, None when it is
    feasible: "rate" when no nonnegative point meets the rate rows,
    otherwise whichever of "interference" (caps) and "power" (budget)
    the minimum-power point violates most.
    """

    p: np.ndarray
    feasible: bool
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


def solve_lf_meb(links: LinkMetrics, config: NetworkConfig) -> PowerAllocation:
    """Decide the LF MEB feasibility problem at its minimum-power point.

    With thr = 2^r0 - 1 the rate rows read p >= F p + d, where
    F[k, j] = thr cross[k, j] / cross[k, k] (0 on the diagonal) and
    d = thr (sigma2_w + estimated PU-to-SU interference) / cross[k, k].
    The system is feasible iff p* = (I - F)^-1 d exists, is finite and
    nonnegative, and meets the caps and the budget; with d > 0 a
    nonnegative p* is positive.  Feasible verdicts return p*, which
    meets every rate row with equality.  Infeasible verdicts return p*
    when it is nonnegative, zeros otherwise.
    """
    own = np.diagonal(links.cross)
    thr = 2.0 ** config.r0 - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        f = thr * links.cross / own[:, None]
        d = thr * (links.noise + links.pu_to_su_est) / own
    np.fill_diagonal(f, 0.0)
    try:
        p = np.linalg.solve(np.eye(own.size) - f, d)
    except np.linalg.LinAlgError:
        p = np.full(own.size, np.nan)
    if not (np.isfinite(p).all() and np.all(p >= 0.0)):
        return PowerAllocation(p=np.zeros(own.size), feasible=False, blocking="rate")
    worst = {"interference": np.max(links.int_to_pu(p, use_estimates=True) - config.i0,
                                    initial=-np.inf),
             "power": p.sum() - config.p0}
    family = max(worst, key=worst.get)
    feasible = bool(worst[family] <= 0.0)
    return PowerAllocation(p=p, feasible=feasible, blocking=None if feasible else family)


def _lf_zfb(links: LinkMetrics, config: NetworkConfig):
    """solve_lf_zfb along the leading trial axes of links: the equal-rate powers
    p, and over_budget and over_cap, the per-trial verdicts of the budget and cap rows."""
    gain = np.diagonal(links.cross, axis1=-2, axis2=-1)
    if np.any(gain <= 0.0):
        raise ZeroGainError("nonpositive ZF gain, beams are degenerate")
    thr = 2.0 ** config.r0 - 1.0
    p = thr * (links.noise + links.pu_to_su_est) / gain
    over_budget = p.sum(axis=-1) > config.p0
    over_cap = np.any(links.int_to_pu(p, use_estimates=True) > config.i0, axis=-1)
    return p, over_budget, over_cap


def solve_lf_zfb(links: LinkMetrics, config: NetworkConfig) -> PowerAllocation:
    """Decide LF ZFB through the equal-rate powers, which decide it exactly.

    p_k = (2^r0 - 1)(sigma2_w + estimated PU-to-SU interference) / gain_k
    with gain_k = cross[k, k] makes every estimated rate exactly r0 (ZF
    removes the inter-stream terms).  The allocation is feasible iff
    sum(p) <= p0 and it meets every estimated cap row; ZF nulls the PU
    estimates, so a cap row reads sigma2_delta sum(p) <= i0.  It is the
    one-trial view of the kernel that decides a block of trials.

    Raises:
        ZeroGainError: if any gain is not strictly positive.
    """
    p, over_budget, over_cap = _lf_zfb(links, config)
    feasible = not (over_budget or over_cap)
    return PowerAllocation(
        p=p, feasible=feasible,
        blocking=None if feasible else ("power" if over_budget else "interference"),
    )


def _lf_block(links: LinkMetrics, scheme: str, config: NetworkConfig):
    """(p, feasible) of the LF problems of a block of trials, trial axis first:
    ZFB in one call of its kernel, MEB in one solve_lf_meb call per trial."""
    if scheme == ZFB:
        p, over_budget, over_cap = _lf_zfb(links, config)
        return p, ~(over_budget | over_cap)
    allocs = [solve_lf_meb(links[t], config) for t in range(len(links.cross))]
    return np.stack([a.p for a in allocs]), np.array([a.feasible for a in allocs])


def equal_power(config: NetworkConfig, p_eq: float) -> np.ndarray:
    """Uniform power vector p_eq per SU."""
    if isinstance(p_eq, (bool, np.bool_)):
        raise ValueError(f"p_eq must be a number, got {p_eq!r}")
    if not np.isfinite(p_eq) or p_eq < 0:
        raise ValueError(f"p_eq must be finite and nonnegative, got {p_eq!r}")
    return np.full(config.k_su, float(p_eq))


def slack_from_links(links: LinkMetrics, p, config: NetworkConfig
                     ) -> tuple[SlackReport, SlackReport]:
    """(estimated, true) constraint margins at powers p from precomputed LinkMetrics.

    p carries the leading trial axes of links, if any.
    """
    p = np.asarray(p, dtype=float)
    power = config.p0 - p.sum(axis=-1)
    reports = []
    for use_estimates, sinr in zip((True, False), links.sinr(p)):
        int_to_pu = links.int_to_pu(p, use_estimates)
        reports.append(SlackReport(
            interference=config.i0 - int_to_pu,
            rate=np.log2(1.0 + sinr) - config.r0,
            power=power,
            sinr=sinr,
            int_to_pu=int_to_pu,
        ))
    return reports[0], reports[1]


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
    est, true = slack_from_links(evaluate_links(real, beams.v, beams.u, config), p, config)
    return est if use_estimates else true
