"""Tests of the benchmark itself: inputs, tracing, references, metric names.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import crmimo  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _first_ops(workload, seed, n):
    return list(itertools.islice(workload.ops(seed), n))


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


class TestWorkloadInputs:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_same_seed_same_inputs(self, name):
        workload = WORKLOADS[name]
        assert _first_ops(workload, 7, 50) == _first_ops(workload, 7, 50)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_other_seed_other_order(self, name):
        workload = WORKLOADS[name]
        assert _first_ops(workload, 7, 50) != _first_ops(workload, 8, 50)

    @pytest.mark.parametrize("name", ["trials_m64", "trials_m1024", "fig5_search"])
    def test_pool_visited_without_replacement(self, name):
        workload = WORKLOADS[name]
        ops = _first_ops(workload, 3, 2 * workload.pool)
        assert sorted(ops[:workload.pool]) == list(range(workload.pool))
        assert sorted(ops[workload.pool:]) == list(range(workload.pool))

    def test_analytic_ops_stay_in_grid_and_sample_sets(self):
        workload = WORKLOADS["analytic_sweep"]
        ops = _first_ops(workload, 5, 400)
        sets = {sample_set for _, sample_set in ops}
        assert len(sets) == 2 and sets <= set(range(workload.sample_sets))
        indices = [i for batch, _ in ops for i in batch]
        assert all(len(batch) == workload.batch for batch, _ in ops)
        assert sorted(indices[:len(workload.grid)]) == list(range(len(workload.grid)))

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_reachable_input_has_a_reference(self, name):
        workload = WORKLOADS[name]
        refs = run.load_references(name)
        if name.startswith("trials_"):
            keys = {f"{s}_{p}/{m}" for s, p in workload.cells for m in range(workload.pool)}
        elif name == "fig5_search":
            keys = {f"{s}/{m}" for s in ("MEB", "ZFB") for m in range(workload.pool)}
        else:
            keys = {f"opt/{i}/{s}" for i in range(len(workload.grid)) for s in ("MEB", "ZFB")}
            keys |= {f"ks/{v}/{s}/{q}" for v in range(workload.sample_sets)
                     for s in ("MEB", "ZFB") for q in ("sinr", "interference")}
        assert set(refs) == keys

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_shapes_in_shipped_wishart_table(self, name):
        assert run.wishart_misses(WORKLOADS[name].shapes) == []

    def test_wishart_guard_reports_a_missing_shape(self):
        assert run.wishart_misses([(4, 1000), (1, 7), (4, 64)]) == [(4, 1000)]

    def test_one_operation_matches_its_reference(self):
        workload = WORKLOADS["trials_m64"]
        refs = run.load_references("trials_m64")
        items = workload.run(crmimo, 5)
        assert [workloads.mismatches(i.output, refs[i.key]) for i in items] == [[]] * 4


class TestMismatches:
    def test_tolerant_fields_allow_rounding(self):
        want = {"p_eq": 0.25, "sinr_est_q": [1.0, 2.0, 3.0], "n_failed": 0}
        got = {"p_eq": 0.25 * (1 + 1e-9), "sinr_est_q": [1.0, 2.0 + 1e-9, 3.0], "n_failed": 0}
        assert workloads.mismatches(got, want) == []

    def test_tolerant_fields_catch_real_changes(self):
        want = {"p_eq": 0.25, "ks": 0.01}
        assert len(workloads.mismatches({"p_eq": 0.2501, "ks": 0.01}, want)) == 1

    def test_verdicts_are_exact(self):
        want = {"p_served": 0.5, "rows": [[1.0, 6], [2.0, 2]]}
        assert workloads.mismatches({"p_served": 0.5, "rows": [[1.0, 6], [2.0, 2]]}, want) == []
        assert len(workloads.mismatches({"p_served": 0.5 + 1e-12, "rows": [[1.0, 6], [2.0, 2]]},
                                        want)) == 1
        assert len(workloads.mismatches({"p_served": 0.5, "rows": [[1.0, 7], [2.0, 2]]},
                                        want)) == 1

    def test_missing_field_is_a_mismatch(self):
        assert len(workloads.mismatches({"p_served": 0.5}, {"p_served": 0.5, "n_failed": 0})) == 1


def _bindings():
    """Every object bound in every crmimo module and traced class."""
    out = {}
    for module in tracer.package_modules():
        for attr, obj in vars(module).items():
            out[(module.__name__, attr)] = obj
    out[("EmpiricalCdf", "ks_distance")] = crmimo.EmpiricalCdf.__dict__["ks_distance"]
    return out


class TestTracer:
    def test_wrappers_removed_and_results_unchanged(self):
        cfg = crmimo.NetworkConfig()
        before = _bindings()
        plain = crmimo.run_trials(cfg, "MEB", "LF", 3, seed=4)
        tr = tracer.Tracer(crmimo)
        with tr:
            assert tracer.find_wrappers()
            assert crmimo.montecarlo.run_trials is not before[("crmimo.montecarlo", "run_trials")]
            traced = crmimo.run_trials(cfg, "MEB", "LF", 3, seed=4)
            crmimo.empirical_cdf(traced.sinr_est).ks_distance(lambda s: 0.5)
        after = _bindings()
        assert tracer.find_wrappers() == []
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before)
        assert traced.p_served == plain.p_served
        np.testing.assert_array_equal(traced.sinr_est, plain.sinr_est)

        spans = tr.arrays()
        names = [tr.names[i] for i in spans["name_id"]]
        assert names[0] == "montecarlo.run_trials" and spans["parent"][0] == -1
        assert names.count("montecarlo.trial_seed") == 3
        assert names.count("power.solve_lf_meb") == 3 and tr.lf_solves == 3
        assert "montecarlo.EmpiricalCdf.ks_distance" in names
        inner = spans["parent"] >= 0
        assert inner.sum() == len(names) - 3  # run_trials, empirical_cdf, ks_distance
        trials = spans["trial"][[n == "network.generate_channels" for n in names]]
        assert trials.tolist() == [0, 1, 2]
        _, tree = tracer.summarize(spans, tr.names)
        assert tree["escape_ns"] == 0 and tree["min_self_ns"] >= 0
        assert tree["self_total_ns"] == tree["root_ns"]

    def test_uninstall_restores_after_an_error(self):
        before = _bindings()
        with pytest.raises(ValueError):
            with tracer.Tracer(crmimo):
                crmimo.run_trials(crmimo.NetworkConfig(), "MEB", "LF", 0, seed=1)
        assert tracer.find_wrappers() == []
        assert all(_bindings()[k] is before[k] for k in before)

    def test_summarize_self_time(self):
        spans = {
            "name_id": np.array([0, 1, 1, 0], dtype=np.int32),
            "parent": np.array([-1, 0, 0, -1]),
            "start_ns": np.array([0, 10, 40, 200]),
            "end_ns": np.array([100, 30, 90, 250]),
        }
        summary, tree = tracer.summarize(spans, ["a", "b"])
        assert summary["a"] == {"calls": 2, "total_ns": 150, "self_ns": 80, "us_p50": 0.075}
        assert summary["b"]["self_ns"] == 70
        assert tree == {"root_ns": 150, "self_total_ns": 150, "escape_ns": 0,
                                 "min_self_ns": 20}

    def test_summarize_flags_escaping_child(self):
        spans = {
            "name_id": np.array([0, 1], dtype=np.int32),
            "parent": np.array([-1, 0]),
            "start_ns": np.array([0, 50]),
            "end_ns": np.array([100, 120]),
        }
        assert tracer.summarize(spans, ["a", "b"])[1]["escape_ns"] == 20

    def test_call_counter_counts_and_restores(self):
        original = crmimo.montecarlo.run_trials
        with tracer.CallCounter(crmimo.montecarlo, "run_trials", "n_trials") as counter:
            crmimo.max_sus_at_confidence(crmimo.NetworkConfig(m_b=16, k_su=1), "ZFB", 0.5,
                                         "r0", [8.0], n_trials=2, seed=0)
        assert crmimo.montecarlo.run_trials is original
        assert counter.calls >= 1 and counter.total == 2 * counter.calls


class TestMetrics:
    def _records(self):
        item = workloads.Item
        return [
            run.OpRecord(0, 2.0, [item("a", "MEB", 1.0, 10, {}), item("b", "ZFB", 1.0, 30, {})],
                         scale=0.5),
            run.OpRecord(1, 4.0, [item("c", "MEB", 3.0, 20, {}), item("d", "ZFB", 1.0, 0, {})]),
        ]

    def test_rates_use_calibrated_time(self):
        records = self._records()
        assert run.rate(records) == pytest.approx(60 / (2.0 * 0.5 + 4.0))
        assert run.rate(records, "MEB") == pytest.approx(30 / (0.5 + 3.0))
        assert run.rate(records, "ZFB") == pytest.approx(30 / (0.5 + 1.0))
        metrics = run.end_to_end_metrics(records, [0.2, 0.1, 0.3])
        assert metrics["answer_ms"]["value"] == pytest.approx(2500.0)
        assert metrics["setup_s"]["value"] == pytest.approx(0.2)
        assert set(metrics) == set(run.END_TO_END)

    def test_calibration_kernel_runs(self):
        assert 0 < run.calibrate() < 5.0


class TestBenchmarkSpec:
    def test_keys_and_command(self, spec):
        assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}
        assert spec["command"] == ["python3", "perfbench/run.py"]
        assert spec["paths"] == ["perfbench"]
        assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60

    def test_workloads_match_the_runner(self, spec):
        names = [w["name"] for w in spec["workloads"]]
        assert names == list(WORKLOADS)
        for w in spec["workloads"]:
            assert set(w) == {"name", "why"}
            assert "\n" not in w["why"] and len(w["why"]) <= 200
            assert w["why"] == WORKLOADS[w["name"]].why

    def test_metric_names_and_units(self, spec):
        metrics = spec["end_to_end"] + spec["per_layer"]
        names = [m["name"] for m in metrics]
        assert len(names) == len(set(names))
        for m in metrics:
            assert NAME.fullmatch(m["name"]), m["name"]
            assert UNIT.fullmatch(m["unit"]), m["unit"]
            assert m["better"] in ("higher", "lower")
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
        assert 1 <= len(spec["per_layer"]) <= 128 and 1 <= len(spec["end_to_end"]) <= 16

    def test_bounds(self, spec):
        for m in spec["end_to_end"]:
            assert set(m) == {"name", "unit", "better", "bound"}
            assert 0 < m["bound"] <= 0.25
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                          "bound": max(m["bound"] for m in spec["end_to_end"])}]

    def test_traced_functions_exist(self):
        targets = tracer.traced_targets(crmimo)
        assert set(run.TRACED_FUNCTIONS) <= set(targets)
        assert "montecarlo.trial_seed" in targets
