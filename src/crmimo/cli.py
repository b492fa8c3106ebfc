"""Command line front end.

Dispatches preset experiments (equal-power sweeps, allocation-policy
comparisons, max-SU searches, distribution validation, single solves)
over a base config assembled from defaults, an optional config file and
--set overrides in the config file's key = value syntax.  Each
experiment's runner returns its CSV header and a sequence of units, one
per scheme or sweep point; run consumes the units in order, turning a
unit's model-domain error into an error row, and writes
<out>/<experiment>.csv plus a one-line summary per point.
emit-plot-data splits any result CSV into whitespace-delimited .dat
series files.  All powers cross the CLI boundary in dB; everything
internal is linear.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .beamforming import MEB, ZFB, IllConditionedError, compute_meb, compute_zfb
from .montecarlo import (
    POLICY_EQUAL_POWER,
    POLICY_EQUAL_POWER_OPT,
    POLICY_LF,
    _POLICIES,
    _policy_power,
    _serve_part,
    _shared_gains,
    max_sus_at_confidence,
    empirical_cdf,
    run_trials,
)
from .network import (ChannelRealization, NetworkConfig, _parse_kv_lines, db_to_linear,
                      evaluate_links, generate_channels, linear_to_db)
from .power import equal_power
from . import analytics

__all__ = ["ExperimentSpec", "build_spec", "run", "emit_plot_data", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved description of one CLI run."""

    experiment: str
    config: NetworkConfig
    sweep: tuple[str, tuple[float, ...]] | None
    schemes: tuple[str, ...]
    policies: tuple[str, ...]
    n_trials: int
    seed: int
    out_dir: str
    m_b_list: tuple[int, ...]
    confidence: float = 0.95
    p_eq: float | None = None
    n_workers: int = 1
    dump_samples: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.sweep is not None:
            name, values = self.sweep
            if not values:
                raise ValueError(f"sweep {name!r} needs at least one value")
            if not np.isfinite(values).all():
                raise ValueError(f"sweep values must be finite, got {values}")
            if self.experiment == "fig5_max_sus" and name == "k_su":
                raise ValueError("fig5_max_sus searches k_su; it cannot be the sweep axis")
            if name not in ("p_eq", "p_eq_db"):
                for value in values:  # an unknown key or bad value fails here, before any trial
                    self.config.with_items({name: value})
        for scheme in self.schemes:
            if scheme not in (MEB, ZFB):
                raise ValueError(f"unknown scheme {scheme!r}")
        for policy in self.policies:
            if policy not in _POLICIES:
                raise ValueError(f"unknown policy {policy!r}")
        if self.n_trials < 1:
            raise ValueError("trials must be positive")
        if self.experiment == "single_solve" and self.n_trials != 1:
            raise ValueError(f"single_solve solves one realization, got {self.n_trials} trials")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.n_workers < 1:
            raise ValueError(f"workers must be positive, got {self.n_workers}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must lie in (0, 1), got {self.confidence!r}")
        if self.p_eq is not None:  # a non-finite power fails here, before any trial
            equal_power(self.config, self.p_eq)


def build_spec(args) -> ExperimentSpec:
    """Turn parsed CLI arguments into a validated ExperimentSpec."""
    config = NetworkConfig.from_file(args.config) if args.config else NetworkConfig()
    overrides = _parse_kv_lines(args.overrides, where="--set")
    config = config.with_items(overrides)

    preset = _PRESETS[args.experiment]
    sweep = preset.sweep
    if args.sweep:
        if "=" not in args.sweep:
            raise ValueError(f"--sweep expects FIELD=V1,V2,..., got {args.sweep!r}")
        name, _, tail = args.sweep.partition("=")
        name, tokens = name.strip(), [tok for tok in tail.split(",") if tok.strip()]
        if name not in ("p_eq", "p_eq_db"):
            for tok in tokens:  # --set's rule per key, and its messages
                config.with_items({name: tok})
        sweep = (name, tuple(float(tok) for tok in tokens))

    if sweep is not None:
        if preset.sweep is None:
            raise ValueError(f"{args.experiment} has no sweep axis")
        # only fig2 sweeps the power itself; the other sweeps set config fields
        power_sweep = preset.sweep[0] == "p_eq_db"
        if power_sweep != (sweep[0] in ("p_eq", "p_eq_db")):
            raise ValueError(f"{args.experiment} sweeps "
                             f"{'p_eq_db' if power_sweep else 'config fields'}; "
                             f"cannot sweep {sweep[0]!r} here")

    if "m_b" in overrides or args.config:
        m_b_list = (config.m_b,)
    else:
        m_b_list = (64, 128) + ((512, 1024) if args.large_mb else ())

    schemes = preset.schemes
    if args.schemes:
        schemes = tuple(s.strip().upper() for s in args.schemes.split(","))
    policies = preset.policies
    if args.policies:
        policies = tuple(s.strip().upper() for s in args.policies.split(","))
    if preset.fixed_policy and set(policies) != set(preset.policies):
        raise ValueError(f"{args.experiment} runs only {preset.policies[0]}, "
                         f"got --policies {args.policies}")
    if not preset.policy_column and len(policies) > 1:
        raise ValueError(f"{args.experiment} runs one policy (its CSV has no "
                         f"policy column), got --policies {args.policies}")
    if POLICY_EQUAL_POWER in policies and args.p_eq_db is None and not preset.own_p_eq:
        raise ValueError(f"{args.experiment} --policies {POLICY_EQUAL_POWER} "
                         "needs --p-eq-db")

    p_eq = None
    if args.p_eq_db is not None:
        p_eq = float(db_to_linear(args.p_eq_db))

    return ExperimentSpec(
        experiment=args.experiment,
        config=config,
        sweep=sweep,
        schemes=schemes,
        policies=policies,
        n_trials=preset.trials if args.trials is None else args.trials,
        seed=args.seed,
        out_dir=args.out,
        m_b_list=m_b_list,
        confidence=args.confidence,
        p_eq=p_eq,
        n_workers=args.workers,
        dump_samples=args.dump_samples,
    )


def _fmt(x):
    if isinstance(x, float):
        return repr(float(x))
    return x


def _fig2(spec: ExperimentSpec):
    name, values = spec.sweep

    def sweep(config, scheme):
        for value in values:
            p_eq = float(db_to_linear(value)) if name == "p_eq_db" else float(value)
            p_eq_db = float(linear_to_db(p_eq))
            analytic = analytics.q_k(scheme, config, p_eq)
            res = run_trials(config, scheme, POLICY_EQUAL_POWER, spec.n_trials,
                             spec.seed, p_eq=p_eq, n_workers=spec.n_workers)
            print(f"fig2 m_b={config.m_b} scheme={scheme} p_eq={p_eq_db:+.1f}dB "
                  f"analytic={analytic:.4f} empirical={res.p_served:.4f}")
            yield [config.m_b, p_eq_db, scheme, _fmt(analytic), _fmt(res.p_served),
                   _fmt(res.stderr), res.n_trials, ""]

    header = ["m_b", "p_eq_db", "scheme", "p_served_analytical",
              "p_served_empirical", "stderr", "n_trials", "error"]
    return header, ((f"fig2 m_b={m_b} scheme={scheme}",
                     sweep(spec.config.replace(m_b=m_b), scheme), {"m_b": m_b, "scheme": scheme})
                    for m_b in spec.m_b_list for scheme in spec.schemes)


def _fig_compare(spec: ExperimentSpec):
    name, values = spec.sweep

    def compare(value, config, scheme, policy):
        res = run_trials(config, scheme, policy, spec.n_trials, spec.seed,
                         p_eq=spec.p_eq, n_workers=spec.n_workers)
        analytic = ""
        if policy == POLICY_EQUAL_POWER_OPT:
            analytic = _fmt(analytics.q_k(scheme, config, res.p_eq))
        p_eq_db = "" if res.p_eq is None else _fmt(float(linear_to_db(res.p_eq)))
        print(f"{spec.experiment} {name}={value} scheme={scheme} policy={policy} "
              f"p_served={res.p_served:.4f}")
        yield [_fmt(float(value)), scheme, policy, _fmt(res.p_served),
               _fmt(res.stderr), analytic, p_eq_db, res.n_trials, ""]

    header = [name, "scheme", "policy", "p_served", "stderr",
              "q_analytical", "p_eq_db", "n_trials", "error"]
    return header, ((f"{spec.experiment} {name}={value} scheme={scheme} policy={policy}",
                     compare(value, spec.config.with_items({name: value}), scheme, policy),
                     {name: _fmt(float(value)), "scheme": scheme, "policy": policy})
                    for value in values for scheme in spec.schemes for policy in spec.policies)


def _fig5(spec: ExperimentSpec):
    name, values = spec.sweep
    # (print prefix, leading columns, config) per table; an m_b sweep sets the
    # antenna count itself, so it runs one table per scheme with no m_b column
    tables = [("fig5", {}, spec.config)] if name == "m_b" else \
        [(f"fig5 m_b={m_b}", {"m_b": m_b}, spec.config.replace(m_b=m_b)) for m_b in spec.m_b_list]

    def table(prefix, lead, config, scheme):
        for value, max_k in max_sus_at_confidence(
                config, scheme, spec.confidence, name, values,
                n_trials=spec.n_trials, seed=spec.seed,
                policy=spec.policies[0], p_eq=spec.p_eq):
            print(f"{prefix} {name}={value} max_k={max_k}")
            yield [*lead.values(), _fmt(float(value)), scheme, max_k,
                   _fmt(spec.confidence), spec.n_trials, ""]

    def units():
        for where, lead, config in tables:
            for scheme in spec.schemes:
                prefix = f"{where} scheme={scheme}"
                yield prefix, table(prefix, lead, config, scheme), {**lead, "scheme": scheme}

    header = ["m_b"] * (name != "m_b") + [name, "scheme", "max_k", "confidence",
                                          "n_trials", "error"]
    return header, units()


def _cdf_validation(spec: ExperimentSpec):
    config = spec.config
    p_eq = spec.p_eq if spec.p_eq is not None else config.p0 / config.k_su
    p_eq_db = float(linear_to_db(p_eq))

    def validate(scheme):
        res = run_trials(config, scheme, POLICY_EQUAL_POWER, spec.n_trials,
                         spec.seed, p_eq=p_eq, n_workers=spec.n_workers)
        dumped = set()  # one samples file per field: sinr_exact reads the sinr samples
        for quantity, field, law, _ in analytics.laws(scheme, config, p_eq):
            samples = getattr(res, field)
            if samples.size == 0:
                continue
            cdf = empirical_cdf(samples)  # failed trials' NaNs dropped
            ks = cdf.ks_distance(law)
            print(f"cdf_validation scheme={scheme} quantity={quantity} ks={ks:.4f}")
            if spec.dump_samples and field not in dumped:
                dumped.add(field)
                np.savetxt(os.path.join(spec.out_dir, f"samples_{scheme}_{quantity}.txt"),
                           cdf.samples)
            yield [scheme, quantity, _fmt(ks), cdf.n, res.n_trials, _fmt(p_eq_db), ""]

    header = ["scheme", "quantity", "ks_distance", "n_samples", "n_trials", "p_eq_db", "error"]
    return header, ((f"cdf_validation scheme={scheme}", validate(scheme),
                     {"scheme": scheme, "p_eq_db": _fmt(p_eq_db)}) for scheme in spec.schemes)


def _single_solve(spec: ExperimentSpec):
    config = spec.config
    # the one realization as a one-trial block, served by run_trials' own step
    real = ChannelRealization(**{name: a[None] for name, a in
                                 vars(generate_channels(config, spec.seed)).items()})
    meb = compute_meb(real)
    p_eq = spec.p_eq if spec.p_eq is not None else config.p0 / config.k_su

    def solve(scheme, policy):
        beams = meb if scheme == MEB else compute_zfb(real, meb)
        links = evaluate_links(real, beams.v, beams.u, config)
        _, power = _policy_power(config, scheme, policy, p_eq)
        [p], _, _, [feasible], _ = _serve_part(links, scheme, config, power)
        feasible = bool(feasible)
        print(f"single_solve scheme={scheme} policy={policy} feasible={feasible}")
        for k, pk in enumerate(p):
            db = float(linear_to_db(pk)) if pk > 0 else float("-inf")
            print(f"  P_{k} = {pk:.6e} ({db:+.2f} dB)" if pk > 0
                  else f"  P_{k} = {pk:.6e}")
            yield [k, _fmt(float(pk)), _fmt(db), scheme, policy, feasible, ""]

    header = ["su", "p", "p_db", "scheme", "policy", "feasible", "error"]
    return header, ((f"single_solve scheme={scheme} policy={policy}", solve(scheme, policy),
                     {"scheme": scheme, "policy": policy})
                    for scheme in spec.schemes for policy in spec.policies)


@dataclass(frozen=True)
class _Preset:
    """What an experiment runs by default, and which policies it can take.

    An experiment whose CSV has no policy column runs one policy; a
    fixed-policy experiment runs only its default policy.  One without
    its own p_eq needs --p-eq-db to run EQUAL_POWER.
    """

    runner: Callable[[ExperimentSpec], tuple[list, Iterable[tuple]]]
    trials: int
    sweep: tuple[str, tuple[float, ...]] | None
    schemes: tuple[str, ...]
    policies: tuple[str, ...]
    policy_column: bool = False
    fixed_policy: bool = False
    own_p_eq: bool = False


_SIGMA2_DELTA_SWEEP = ("sigma2_delta", (0.01, 0.02, 0.05, 0.1, 0.2, 0.5))
_COMPARED = (POLICY_EQUAL_POWER_OPT, POLICY_LF)

_PRESETS = {
    "fig2_eq_power_sweep": _Preset(
        _fig2, 1000, ("p_eq_db", tuple(float(x) for x in range(-20, 1, 2))),
        (MEB, ZFB), (POLICY_EQUAL_POWER,), fixed_policy=True, own_p_eq=True),
    "fig3_meb_compare": _Preset(_fig_compare, 1000, _SIGMA2_DELTA_SWEEP, (MEB,), _COMPARED,
                                policy_column=True),
    "fig4_zfb_compare": _Preset(_fig_compare, 1000, _SIGMA2_DELTA_SWEEP, (ZFB,), _COMPARED,
                                policy_column=True),
    "fig5_max_sus": _Preset(_fig5, 500, ("r0", (1.0, 2.0, 3.0, 4.0)), (MEB, ZFB),
                            (POLICY_EQUAL_POWER_OPT,)),
    "cdf_validation": _Preset(_cdf_validation, 10_000, None, (MEB, ZFB),
                              (POLICY_EQUAL_POWER,), fixed_policy=True, own_p_eq=True),
    "single_solve": _Preset(_single_solve, 1, None, (MEB, ZFB), (POLICY_LF,),
                            policy_column=True, own_p_eq=True),
}

EXPERIMENTS = tuple(_PRESETS)


def run(spec: ExperimentSpec) -> int:
    """Execute one experiment spec and write <out_dir>/<experiment>.csv.

    The runner returns the CSV header and units of (prefix, rows, key),
    key being the unit's {column: value} cells.  A model-domain error
    while a unit yields its rows (a ValueError such as
    AntennaShortageError, an IllConditionedError, or the ArithmeticError
    of a special function that does not converge) is printed after the
    prefix, and the unit records a row of its key cells with the
    exception name in the trailing error column instead of losing the
    rest of the run.

    Every experiment runs inside one _shared_gains scope naming its
    schemes, open while run consumes its units.  The scope keeps
    run_trials' gains of any size: the units on one draw read it once,
    across schemes and r0/i0/p0 points, and one on a new draw empties
    it.  So cdf_validation draws once for both schemes; fig5's search
    opens its own deciding scope inside it.
    Returns a process exit status.
    """
    os.makedirs(spec.out_dir, exist_ok=True)
    rows = []
    with _shared_gains(schemes=spec.schemes):
        header, units = _PRESETS[spec.experiment].runner(spec)
        for prefix, unit_rows, key in units:
            try:
                rows += list(unit_rows)
            except (ValueError, ArithmeticError, IllConditionedError) as exc:
                print(f"{prefix} error={type(exc).__name__}: {exc}")
                rows.append([key.get(c, "") for c in header[:-1]] + [type(exc).__name__])
    path = os.path.join(spec.out_dir, f"{spec.experiment}.csv")
    with open(path, "w", newline="") as fh:
        fh.write("# schema=1\n")
        csv.writer(fh).writerows([header, *rows])
    print(f"wrote {path}")
    return EXIT_OK


def emit_plot_data(csv_path, out_dir=None) -> list:
    """Split a result CSV into whitespace-delimited .dat series files.

    One file per distinct (scheme, policy) pair when those columns
    exist, otherwise a single file.  Values are copied verbatim, so a
    round trip preserves them exactly; an empty field is written as nan,
    which keeps the whitespace-delimited columns aligned.  Idempotent.
    """
    with open(csv_path, newline="") as fh:
        lines = [ln for ln in fh if not ln.lstrip().startswith("#")]
    reader = csv.reader(lines)
    table = list(reader)
    if not table:
        raise ValueError(f"{csv_path} has no header row")
    header, body = table[0], table[1:]

    group_cols = [i for i, name in enumerate(header) if name in ("scheme", "policy")]
    stem = os.path.splitext(os.path.basename(csv_path))[0]
    directory = out_dir if out_dir is not None else (os.path.dirname(csv_path) or ".")
    os.makedirs(directory, exist_ok=True)

    groups: dict[tuple, list] = {}
    for row in body:
        key = tuple(row[i] for i in group_cols)
        groups.setdefault(key, []).append(row)
    if not groups:
        groups[()] = []

    written = []
    for key, rows in sorted(groups.items()):
        suffix = "".join(f"_{part}" for part in key)
        path = os.path.join(directory, f"{stem}{suffix.lower()}.dat")
        with open(path, "w") as fh:
            fh.write("# schema=1\n")
            fh.write("# " + " ".join(header) + "\n")
            for row in rows:
                fh.write(" ".join(field or "nan" for field in row) + "\n")
        written.append(path)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crmimo",
        description="Underlay cognitive-radio massive-MIMO downlink experiments",
    )
    parser.add_argument("--experiment", choices=EXPERIMENTS,
                        help="preset experiment to run")
    parser.add_argument("--config", metavar="FILE",
                        help="flat key = value config file")
    parser.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="KEY=VALUE", help="config override, repeatable")
    parser.add_argument("--sweep", metavar="FIELD=V1,V2,...",
                        help="override the preset sweep axis")
    parser.add_argument("--schemes", help="comma list of MEB,ZFB")
    parser.add_argument("--policies", help="comma list of LF,EQUAL_POWER,EQUAL_POWER_OPT")
    parser.add_argument("--trials", type=int, help="trials per point")
    parser.add_argument("--seed", type=int, default=1, help="master seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--confidence", type=float, default=0.95,
                        help="confidence level for fig5_max_sus")
    parser.add_argument("--p-eq-db", type=float, dest="p_eq_db",
                        help="per-SU power in dB for equal-power policies")
    parser.add_argument("--workers", type=int, default=1,
                        help="trial worker processes (fig5_max_sus and single_solve "
                             "ignore it)")
    parser.add_argument("--large-mb", action="store_true",
                        help="include m_b in {512, 1024} in presets")
    parser.add_argument("--dump-samples", action="store_true",
                        help="write raw sample arrays next to the CSV")
    parser.add_argument("--emit-plot-data", metavar="CSV",
                        help="convert a result CSV into .dat series files and exit")
    args = parser.parse_args(argv)
    if not args.emit_plot_data and not args.experiment:
        parser.error("--experiment is required (or use --emit-plot-data)")
    try:
        if args.emit_plot_data:
            for path in emit_plot_data(args.emit_plot_data):
                print(f"wrote {path}")
            return EXIT_OK
        return run(build_spec(args))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
