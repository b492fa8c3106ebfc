"""Run one crmimo benchmark workload and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload trials_m64 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; their
timings are calibrated against a fixed kernel (see ``calibrate``), and the
uncalibrated figures are printed on the ``uncalibrated`` line.
``--trace 1`` runs every operation twice, untraced and traced, back to
back in alternating order, and reports the per-layer metrics from the
traced runs.  Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment.  A fuller report (per-operation timings, the
per-function table and, when traced, the spans) is written under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy can be imported.
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PIN_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer, find_wrappers, summarize  # noqa: E402
from workloads import WORKLOADS, mismatches  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# Cold set-ups per untraced run; setup_s is their median.
SETUP_REPS = 11
# Timings are reported at the speed at which calibrate() takes this long.
CALIBRATION_REF_S = 0.005
# Span storage cap (about 36 bytes a span); a traced run stops at the
# first operation boundary past it.
MAX_SPANS = 400_000

END_TO_END = {
    "work_per_s": "1/s",
    "meb_work_per_s": "1/s",
    "zfb_work_per_s": "1/s",
    "answer_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

TRACED_FUNCTIONS = (
    "network.generate_channels",
    "network.evaluate_links",
    "beamforming.compute_meb",
    "beamforming.compute_zfb",
    "power.lf_meb_constraints",
    "power.solve_lf_meb",
    "power.solve_lf_zfb",
    "power.verify_allocation",
    "simplex.find_feasible",
    "specfun.regularized_lower_gamma",
    "specfun.regularized_incomplete_beta",
    "analytics.q_k",
    "analytics.optimize_equal_power",
    "montecarlo.run_trials",
    "montecarlo.max_sus_at_confidence",
    "montecarlo.EmpiricalCdf.ks_distance",
)

PER_LAYER = {
    **{f"{name}.{stat}": unit for name in TRACED_FUNCTIONS
       for stat, unit in (("self_s", "s"), ("calls", "count"), ("us_p50", "us"))},
    "network.evaluate_links.calls_per_trial": "calls/trial",
    "power.lf_feasible_frac": "frac",
    "analytics.q_k.calls_per_optimize": "calls/optimize",
    "montecarlo.run_trials.self_frac": "frac",
    "montecarlo.trials_run": "count",
    "trace_overhead_frac": "frac",
    "trace.unwrapped_frac": "frac",
    "trace.wall_s": "s",
}


@dataclass
class OpRecord:
    """One timed operation: its input, wall time, checked items, error."""

    op: object
    seconds: float
    items: list
    error: str | None = None
    scale: float = 1.0  # CALIBRATION_REF_S over the calibration time around the op

    def outputs(self):
        return [(item.key, item.output) for item in self.items]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def wishart_misses(shapes) -> list:
    """Shapes the shipped Wishart table lacks; each would cost a long
    simulation inside the first analytic call that needs it."""
    shipped = set()
    table = SRC / "crmimo" / "data" / "wishart_means.txt"
    for line in table.read_text().splitlines():
        fields = line.split("#", 1)[0].split()
        if fields:
            shipped.add((int(fields[0]), int(fields[1])))
    return [shape for shape in shapes if shape[0] != 1 and tuple(shape) not in shipped]


def calibrate() -> float:
    """Wall time of a fixed kernel that does not use crmimo.

    A shared machine changes speed by a fifth or more for stretches of
    seconds.  Timing this kernel right before and after each measurement
    tracks that speed; a Python loop and small complex SVDs mirror the
    mix of interpreter and LAPACK work in the workloads.
    """
    rng = np.random.default_rng(12345)
    t0 = perf_counter()
    total = 0.0
    for i in range(1, 6000):
        total += math.log(i) / i
    for _ in range(12):
        a = rng.standard_normal((10, 4, 64)) + 1j * rng.standard_normal((10, 4, 64))
        np.linalg.svd(a, full_matrices=False)
    return perf_counter() - t0


def cold_setup(workload):
    """Import crmimo afresh and compute the workload's first result.

    Earlier imports are dropped from sys.modules first, so the module
    bodies and the lazy Wishart table load run again every time.
    """
    for name in [n for n in sys.modules if n == "crmimo" or n.startswith("crmimo.")]:
        del sys.modules[name]
    t0 = perf_counter()
    api = importlib.import_module("crmimo")
    workload.first_result(api)
    return perf_counter() - t0, api


def run_op(workload, api, op) -> OpRecord:
    """Run and time one operation; an operation that raises is recorded."""
    t0 = perf_counter()
    try:
        record = OpRecord(op, 0.0, workload.run(api, op))
    except Exception:  # a failing operation is counted, and the run goes on
        record = OpRecord(op, 0.0, [], traceback.format_exc())
    record.seconds = perf_counter() - t0
    return record


def check_records(records, references) -> tuple[int, int, list[str]]:
    """Compare every item with its reference: (attempted, failed, messages).

    An item fails when it differs from its reference, has none, or
    recorded trial errors; an operation that raised counts as one failed
    item.
    """
    attempted = failed = 0
    messages = []
    for record in records:
        if record.error is not None:
            attempted += 1
            failed += 1
            messages.append(f"operation {record.op!r} raised:\n{record.error}")
            continue
        for item in record.items:
            attempted += 1
            want = references.get(item.key)
            bad = ["no reference recorded"] if want is None else mismatches(item.output, want)
            if item.output.get("n_failed"):
                bad.append(f"{item.output['n_failed']} trials recorded an error")
            if bad:
                failed += 1
                messages.append(f"{item.key}: " + "; ".join(bad))
    return attempted, failed, messages


def rate(records, scheme: str | None = None) -> float:
    """Work done per calibrated second of operation time, over the run.

    A total over the run rather than a median over operations: a total
    averages over stretches of machine slowdown that calibration misses,
    where a median jumps between them.  With ``scheme`` set, only that
    scheme's items count, over the time spent in them.
    """
    work = seconds = 0.0
    for record in records:
        items = [i for i in record.items if scheme is None or i.scheme == scheme]
        work += sum(i.work for i in items)
        op_seconds = record.seconds if scheme is None else sum(i.seconds for i in items)
        seconds += op_seconds * record.scale
    return work / seconds if seconds > 0 else 0.0


def end_to_end_metrics(records, setups: list[float]) -> dict:
    values = {
        "work_per_s": rate(records),
        "meb_work_per_s": rate(records, "MEB"),
        "zfb_work_per_s": rate(records, "ZFB"),
        "answer_ms": statistics.fmean(r.seconds * r.scale for r in records) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(summary: dict, tracer, traced_wall: float, overhead: float,
                      unwrapped: float) -> dict:
    values = {}
    for name in TRACED_FUNCTIONS:
        stats = summary[name]
        values[f"{name}.self_s"] = stats["self_ns"] / 1e9
        values[f"{name}.calls"] = stats["calls"]
        values[f"{name}.us_p50"] = stats["us_p50"]
    trials = summary["montecarlo.trial_seed"]["calls"]
    optimizes = summary["analytics.optimize_equal_power"]["calls"]
    values.update({
        "network.evaluate_links.calls_per_trial":
            summary["network.evaluate_links"]["calls"] / trials if trials else 0.0,
        "power.lf_feasible_frac":
            tracer.lf_feasible / tracer.lf_solves if tracer.lf_solves else 0.0,
        "analytics.q_k.calls_per_optimize":
            summary["analytics.q_k"]["calls"] / optimizes if optimizes else 0.0,
        "montecarlo.run_trials.self_frac":
            summary["montecarlo.run_trials"]["self_ns"] / 1e9 / traced_wall,
        "montecarlo.trials_run": trials,
        "trace_overhead_frac": overhead,
        "trace.unwrapped_frac": unwrapped / traced_wall,
        "trace.wall_s": traced_wall,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def untraced_run(workload, references, args) -> tuple[dict, dict]:
    calibrate()  # the first call pays for loading LAPACK
    raw_setups, setups = [], []
    for _ in range(SETUP_REPS):
        before = calibrate()
        seconds, api = cold_setup(workload)
        raw_setups.append(seconds)
        setups.append(seconds * 2 * CALIBRATION_REF_S / (before + calibrate()))
    check_source(api)
    workload.prepare(api, args.seed)
    records = []
    before = calibrate()
    start = perf_counter()
    for op in workload.ops(args.seed):
        record = run_op(workload, api, op)
        after = calibrate()
        record.scale = 2 * CALIBRATION_REF_S / (before + after)
        records.append(record)
        before = after
        if perf_counter() - start >= args.seconds:
            break
    attempted, failed, messages = check_records(records, references)
    metrics = end_to_end_metrics(records, setups)
    uncalibrated = end_to_end_metrics([replace(r, scale=1.0) for r in records], raw_setups)
    report = {"setup_s": raw_setups, "calibrated_setup_s": setups, "ops": _op_report(records),
              "uncalibrated_metrics": uncalibrated, "mismatches": messages}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, report


def traced_run(workload, references, args) -> tuple[dict, dict]:
    _, api = cold_setup(workload)
    check_source(api)
    workload.prepare(api, args.seed)
    tracer = Tracer(api)
    untraced, traced = [], []
    start = perf_counter()
    for index, op in enumerate(workload.ops(args.seed)):
        tracer.op = index
        for traced_now in ((False, True) if index % 2 == 0 else (True, False)):
            if traced_now:
                with tracer:
                    traced.append(run_op(workload, api, op))
            else:
                untraced.append(run_op(workload, api, op))
        if perf_counter() - start >= args.seconds or len(tracer) >= MAX_SPANS:
            break
    leftover = find_wrappers(api.__name__)

    attempted, failed, messages = check_records(untraced + traced, references)
    differing = [i for i in range(len(traced)) if untraced[i].outputs() != traced[i].outputs()]
    messages += [f"traced operation {untraced[i].op!r} differs from the untraced run"
                 for i in differing]
    failed += len(differing)
    messages += [f"wrapper left in place: {name}" for name in leftover]

    spans = tracer.arrays()
    summary, tree = summarize(spans, tracer.names)
    traced_wall = sum(r.seconds for r in traced)
    overhead = traced_wall / sum(r.seconds for r in untraced) - 1.0
    unwrapped = traced_wall - tree["root_ns"] / 1e9
    closes = abs(tree["self_total_ns"] / 1e9 + unwrapped - traced_wall) <= 1e-6 * traced_wall
    tree_ok = closes and unwrapped >= 0 and tree["escape_ns"] == 0 and tree["min_self_ns"] >= 0
    if not tree_ok:
        messages.append(f"span times do not add up to the traced wall time: {tree}")

    np.savez(OUT_DIR / f"{workload.name}.spans.npz", names=np.array(tracer.names), **spans)
    metrics = per_layer_metrics(summary, tracer, traced_wall, overhead, unwrapped)
    correct = failed == 0 and not leftover and tree_ok
    report = {"untraced_ops": _op_report(untraced), "traced_ops": _op_report(traced),
              "spans": len(tracer), "span_tree": tree, "functions": summary,
              "mismatches": messages}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, report


def _op_report(records) -> list:
    return [{"op": repr(r.op), "seconds": r.seconds, "scale": r.scale,
             "items": [[i.key, i.seconds, i.work] for i in r.items]} for r in records]


def check_source(api):
    """Refuse to measure any crmimo other than the one in this checkout."""
    if SRC.resolve() not in Path(api.__file__).resolve().parents:
        raise SystemExit(f"error: imported crmimo from {api.__file__}, not from {SRC}")


def load_references(name: str) -> dict:
    with open(BENCH_DIR / "references" / f"{name}.json") as fh:
        return json.load(fh)["items"]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "crmimo").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_pin": {var: os.environ.get(var) for var in PIN_VARS},
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def main(argv=None) -> int:
    if not (SRC / "crmimo" / "__init__.py").is_file():
        print(f"error: no crmimo sources under {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    missing = wishart_misses(workload.shapes)
    if missing:
        print(f"error: shapes {missing} are not in the shipped Wishart table; the "
              "on-miss simulation would land inside the measurement", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    references = load_references(workload.name)
    OUT_DIR.mkdir(exist_ok=True)
    run = traced_run if args.trace else untraced_run
    result, report = run(workload, references, args)
    env = environment()
    for message in report["mismatches"][:20]:
        print(f"mismatch: {message}", file=sys.stderr)
    with open(OUT_DIR / f"{workload.name}.trace{args.trace}.json", "w") as fh:
        json.dump({"args": vars(args), "env": env, "result": result, **report}, fh, indent=1)
    if "uncalibrated_metrics" in report:
        print("uncalibrated " + json.dumps(report["uncalibrated_metrics"]))
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
