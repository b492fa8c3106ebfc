"""Command line front end: spec building, experiments, exit codes, plot data."""

import csv
import os

import numpy as np
import pytest

import crmimo.cli
import crmimo.montecarlo
from crmimo.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXPERIMENTS,
    ExperimentSpec,
    build_spec,
    emit_plot_data,
    main,
)
from crmimo.analytics import laws, optimize_equal_power
from crmimo.beamforming import AntennaShortageError, compute_meb, compute_zfb
from crmimo.montecarlo import POLICY_EQUAL_POWER, empirical_cdf, max_sus_at_confidence, run_trials
from crmimo.network import (NetworkConfig, db_to_linear, evaluate_links, generate_channels,
                            linear_to_db)
from crmimo.power import equal_power, slack_from_links, solve_lf_meb, solve_lf_zfb

TINY = ["--set", "m_b=16", "--set", "m_u=2", "--set", "k_su=3"]


def read_csv(path):
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


class TestSpecValidation:
    def spec_kwargs(self, **kw):
        base = dict(
            experiment="single_solve", config=NetworkConfig(), sweep=None,
            schemes=("MEB",), policies=("LF",), n_trials=1, seed=0,
            out_dir=".", m_b_list=(64,),
        )
        base.update(kw)
        return base

    def test_valid(self):
        spec = ExperimentSpec(**self.spec_kwargs())
        assert spec.confidence == 0.95

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            ExperimentSpec(**self.spec_kwargs(experiment="fig9"))

    def test_unknown_sweep_param(self):
        with pytest.raises(ValueError):
            ExperimentSpec(**self.spec_kwargs(sweep=("bogus", (1.0,))))

    def test_sweep_accepts_db_and_p_eq_axes(self):
        for name in ("p0_db", "p_eq", "p_eq_db", "r0"):
            ExperimentSpec(**self.spec_kwargs(sweep=(name, (1.0, 2.0))))

    def test_empty_or_nonfinite_sweep(self):
        with pytest.raises(ValueError):
            ExperimentSpec(**self.spec_kwargs(sweep=("r0", ())))
        with pytest.raises(ValueError):
            ExperimentSpec(**self.spec_kwargs(sweep=("r0", (np.nan,))))

    def test_unknown_scheme_or_policy(self):
        with pytest.raises(ValueError):
            ExperimentSpec(**self.spec_kwargs(schemes=("MRT",)))
        with pytest.raises(ValueError):
            ExperimentSpec(**self.spec_kwargs(policies=("WATERFILL",)))

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            ExperimentSpec(**self.spec_kwargs(n_trials=0))

    def test_bad_seed_or_workers(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            ExperimentSpec(**self.spec_kwargs(seed=-1))
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers must be positive"):
                ExperimentSpec(**self.spec_kwargs(n_workers=workers))

    def test_confidence_outside_unit_interval(self):
        for confidence in (0.0, 1.0, 1.5, -0.2, np.nan):
            with pytest.raises(ValueError, match="confidence must lie in"):
                ExperimentSpec(**self.spec_kwargs(confidence=confidence))


class TestMainExitCodes:
    def test_unknown_set_key(self, tmp_path, capsys):
        code = main(["--experiment", "single_solve", "--set", "nope=1",
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "unknown config key" in capsys.readouterr().err

    def test_set_db_and_linear_conflict(self, tmp_path, capsys):
        code = main(["--experiment", "single_solve", "--set", "p0=10", "--set", "p0_db=10",
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "twice" in capsys.readouterr().err

    def test_zero_trials(self, tmp_path, capsys):
        # not read as "no --trials", which takes the preset's count
        code = main(["--experiment", "single_solve", *TINY, "--trials", "0",
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "trials must be positive" in capsys.readouterr().err

    def test_single_solve_takes_no_trial_count(self, tmp_path, capsys, monkeypatch):
        # single_solve solves one realization: a count of several would
        # silently run one
        def no_draw(*args, **kwargs):
            raise AssertionError("a realization was drawn")

        monkeypatch.setattr(crmimo.cli, "generate_channels", no_draw)
        for n in ("2", "5"):
            code = main(["--experiment", "single_solve", *TINY, "--trials", n,
                         "--out", str(tmp_path)])
            assert code == EXIT_CONFIG
            assert (f"error: single_solve solves one realization, got {n} trials\n"
                    == capsys.readouterr().err)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag,value,message", [
        ("--seed", "-1", "seed must be nonnegative"),
        ("--workers", "0", "workers must be positive"),
        ("--workers", "-3", "workers must be positive"),
    ])
    def test_bad_seed_or_workers(self, tmp_path, capsys, flag, value, message):
        # rejected before any trial: no CSV of error rows
        code = main(["--experiment", "fig3_meb_compare", *TINY, flag, value,
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("experiment", ["single_solve", "fig3_meb_compare",
                                            "cdf_validation", "fig5_max_sus"])
    def test_non_finite_power(self, tmp_path, capsys, experiment, value):
        # rejected before any trial, as a bad seed is: no CSV of error rows
        code = main(["--experiment", experiment, *TINY, "--p-eq-db", value,
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "p_eq must be finite" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_bad_confidence(self, tmp_path, capsys):
        # rejected before any trial, as a bad seed is: no CSV of error rows
        code = main(["--experiment", "fig5_max_sus", *TINY, "--confidence", "1.5",
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "confidence must lie in (0, 1), got 1.5" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_fig2_rejects_foreign_sweep(self, tmp_path, capsys):
        code = main(["--experiment", "fig2_eq_power_sweep", "--sweep", "r0=1,2",
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "p_eq_db" in capsys.readouterr().err

    def test_fractional_integer_sweep_runs_no_trial(self, tmp_path, capsys, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(crmimo.cli, "run_trials", no_trials)
        monkeypatch.setattr(crmimo.cli, "max_sus_at_confidence", no_trials)
        for experiment in ("fig3_meb_compare", "fig5_max_sus"):
            code = main(["--experiment", experiment, *TINY, "--sweep", "m_b=16,16.5",
                         "--trials", "2", "--out", str(tmp_path)])
            assert code == EXIT_CONFIG
            assert "config key 'm_b' needs an integer, got '16.5'" in capsys.readouterr().err

    def test_fig5_cannot_sweep_the_searched_count(self, tmp_path, capsys, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(crmimo.cli, "run_trials", no_trials)
        monkeypatch.setattr(crmimo.cli, "max_sus_at_confidence", no_trials)
        code = main(["--experiment", "fig5_max_sus", *TINY, "--sweep", "k_su=2,3",
                     "--trials", "2", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert "fig5_max_sus searches k_su" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("experiment", ["cdf_validation", "single_solve"])
    def test_no_sweep_axis(self, experiment, tmp_path, capsys, monkeypatch):
        # a preset without a sweep axis would run one unswept point
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(crmimo.cli, "run_trials", no_trials)
        monkeypatch.setattr(crmimo.cli, "generate_channels", no_trials)
        for sweep in ("r0=1,2,3", "p_eq_db=-10,0"):
            code = main(["--experiment", experiment, *TINY, "--sweep", sweep,
                         "--out", str(tmp_path)])
            assert code == EXIT_CONFIG
            out, err = capsys.readouterr()
            assert out == ""
            assert f"error: {experiment} has no sweep axis\n" == err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("pair, message", [
        ("m_b=16.5", "config key 'm_b' needs an integer, got '16.5'"),
        ("p0=true", "config key 'p0' needs a number, got 'true'"),
        ("r0=x", "config key 'r0' needs a number, got 'x'"),
        ("bogus=x", "unknown config key 'bogus'"),
    ])
    def test_set_value_that_does_not_parse(self, pair, message, tmp_path, capsys):
        # a --sweep value of a config key parses by --set's rule, with its message
        key, _, value = pair.partition("=")
        for args in (["--set", pair], ["--sweep", f"{key}=1,{value}"]):
            code = main(["--experiment", "fig3_meb_compare", *args, "--out", str(tmp_path)])
            assert code == EXIT_CONFIG
            assert f"error: {message}\n" == capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_power_sweep_only_in_fig2(self, tmp_path, capsys):
        # the other sweeps set config fields, so a power axis runs no trial
        for experiment in ("fig3_meb_compare", "fig4_zfb_compare", "fig5_max_sus"):
            for axis in ("p_eq", "p_eq_db"):
                code = main(["--experiment", experiment, *TINY, "--sweep", f"{axis}=-10",
                             "--trials", "2", "--out", str(tmp_path)])
                assert code == EXIT_CONFIG
                out, err = capsys.readouterr()
                assert out == ""
                assert f"cannot sweep {axis!r}" in err
        assert not list(tmp_path.iterdir())

    def test_repeated_set_key(self, tmp_path, capsys):
        # as in a config file, a repeated key is an error, not last-wins
        code = main(["--experiment", "single_solve", "--set", "k_su=2", "--set", "k_su=3",
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "--set 2: duplicate key 'k_su'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_unknown_sweep_key(self, tmp_path, capsys):
        for experiment in ("fig3_meb_compare", "fig5_max_sus", "single_solve"):
            code = main(["--experiment", experiment, *TINY, "--sweep", "bogus=1",
                         "--out", str(tmp_path)])
            assert code == EXIT_CONFIG
            out, err = capsys.readouterr()
            assert out == ""
            assert "'bogus'" in err
        assert not list(tmp_path.iterdir())

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["--experiment", "single_solve",
                     "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)])
        assert code == EXIT_IO

    def test_bad_config_values_reach_exit_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("m_b = 0\n")
        code = main(["--experiment", "single_solve", "--config", str(cfg),
                     "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_emit_plot_data_missing_file(self, tmp_path, capsys):
        code = main(["--emit-plot-data", str(tmp_path / "absent.csv")])
        assert code == EXIT_IO

    def test_policy_the_csv_cannot_record(self, tmp_path, capsys):
        # fig5 writes no policy column; fig2 and cdf_validation run equal power
        for experiment, policies in (("fig5_max_sus", "EQUAL_POWER_OPT,LF"),
                                     ("fig2_eq_power_sweep", "LF"),
                                     ("cdf_validation", "EQUAL_POWER_OPT")):
            code = main(["--experiment", experiment, "--policies", policies,
                         "--out", str(tmp_path)])
            assert code == EXIT_CONFIG
            assert experiment in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_equal_power_without_p_eq_runs_nothing(self, tmp_path, capsys):
        # fig3/fig4/fig5 have no p_eq of their own for EQUAL_POWER
        for experiment, policies in (("fig3_meb_compare", "EQUAL_POWER_OPT,EQUAL_POWER"),
                                     ("fig4_zfb_compare", "EQUAL_POWER_OPT,EQUAL_POWER"),
                                     ("fig5_max_sus", "EQUAL_POWER")):
            code = main(["--experiment", experiment, *TINY, "--policies", policies,
                         "--sweep", "r0=1", "--trials", "2", "--out", str(tmp_path)])
            assert code == EXIT_CONFIG
            out, err = capsys.readouterr()
            assert out == ""
            assert "--p-eq-db" in err
        assert not list(tmp_path.iterdir())

    def test_experiment_names_stable(self):
        assert EXPERIMENTS == (
            "fig2_eq_power_sweep", "fig3_meb_compare", "fig4_zfb_compare",
            "fig5_max_sus", "cdf_validation", "single_solve",
        )


class TestSingleSolve:
    def test_end_to_end(self, tmp_path, capsys):
        code = main(["--experiment", "single_solve", *TINY,
                     "--schemes", "ZFB", "--seed", "7", "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "single_solve scheme=ZFB policy=LF feasible=" in out
        header, body = read_csv(tmp_path / "single_solve.csv")
        assert header == ["su", "p", "p_db", "scheme", "policy", "feasible", "error"]
        assert len(body) == 3
        assert {row[3] for row in body} == {"ZFB"}
        with open(tmp_path / "single_solve.csv") as fh:
            assert fh.readline() == "# schema=1\n"

    def test_default_runs_every_scheme_and_policy(self, tmp_path, capsys):
        code = main(["--experiment", "single_solve", *TINY, "--seed", "7",
                     "--policies", "LF,EQUAL_POWER", "--out", str(tmp_path)])
        assert code == EXIT_OK
        _, body = read_csv(tmp_path / "single_solve.csv")
        pairs = [(row[3], row[4]) for row in body]
        assert pairs == [(scheme, policy) for scheme in ("MEB", "ZFB")
                         for policy in ("LF", "EQUAL_POWER") for _ in range(3)]
        # every pair solves the same realization as a run of that pair alone
        main(["--experiment", "single_solve", *TINY, "--seed", "7",
              "--schemes", "ZFB", "--out", str(tmp_path / "zfb")])
        _, alone = read_csv(tmp_path / "zfb" / "single_solve.csv")
        assert body[6:9] == alone

    def test_failed_scheme_keeps_the_others(self, tmp_path, capsys):
        # m_b = 3 leaves ZFB no null space for k_su = 3 and one receiving PU
        code = main(["--experiment", "single_solve", "--set", "m_b=3", "--set", "m_u=2",
                     "--set", "k_su=3", "--policies", "LF,EQUAL_POWER",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for policy in ("LF", "EQUAL_POWER"):
            assert f"scheme=ZFB policy={policy} error=AntennaShortageError" in out
        header, body = read_csv(tmp_path / "single_solve.csv")
        assert header[-1] == "error"
        assert [(row[3], row[4]) for row in body[:6]] == [
            ("MEB", policy) for policy in ("LF", "EQUAL_POWER") for _ in range(3)]
        assert all(row[1] != "" and row[-1] == "" for row in body[:6])
        assert body[6:] == [["", "", "", "ZFB", policy, "", "AntennaShortageError"]
                            for policy in ("LF", "EQUAL_POWER")]
        written = emit_plot_data(str(tmp_path / "single_solve.csv"))
        assert sorted(os.path.basename(p) for p in written) == [
            f"single_solve_{scheme}_{policy}.dat"
            for scheme in ("meb", "zfb") for policy in ("equal_power", "lf")]
        with open(tmp_path / "single_solve_zfb_lf.dat") as fh:
            (line,) = [ln.split() for ln in fh if not ln.startswith("#")]
        assert line == ["nan", "nan", "nan", "ZFB", "LF", "nan", "AntennaShortageError"]

    def test_failed_policy_keeps_the_others(self, tmp_path, capsys):
        # r0 = 0.125 with one SU pair and no transmitting PU gives the optimizer a
        # MEB inverse-gamma shape near 5e5, where the gamma series does not converge
        code = main(["--experiment", "single_solve", "--schemes", "MEB",
                     "--policies", "LF,EQUAL_POWER_OPT", "--set", "k_su=2",
                     "--set", "l_tx=0", "--set", "r0=0.125", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert ("single_solve scheme=MEB policy=EQUAL_POWER_OPT error=ArithmeticError"
                in capsys.readouterr().out)
        _, body = read_csv(tmp_path / "single_solve.csv")
        assert [(row[0], row[4], row[-1]) for row in body[:2]] == [
            ("0", "LF", ""), ("1", "LF", "")]
        assert all(row[1] != "" for row in body[:2])
        assert body[2:] == [["", "", "", "MEB", "EQUAL_POWER_OPT", "", "ArithmeticError"]]

    def test_equal_power_policy(self, tmp_path, capsys):
        code = main(["--experiment", "single_solve", *TINY,
                     "--schemes", "MEB", "--policies", "EQUAL_POWER",
                     "--p-eq-db", "-10", "--out", str(tmp_path)])
        assert code == EXIT_OK
        _, body = read_csv(tmp_path / "single_solve.csv")
        assert all(float(row[1]) == pytest.approx(0.1) for row in body)

    @pytest.mark.parametrize("scheme", ["MEB", "ZFB"])
    def test_optimal_power_ignores_a_given_power(self, scheme, tmp_path, capsys):
        # as in run_trials, EQUAL_POWER_OPT runs at the optimum; EQUAL_POWER at --p-eq-db
        code = main(["--experiment", "single_solve", *TINY, "--schemes", scheme,
                     "--policies", "EQUAL_POWER,EQUAL_POWER_OPT", "--p-eq-db", "-3",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        _, body = read_csv(tmp_path / "single_solve.csv")
        opt = optimize_equal_power(scheme, NetworkConfig(m_b=16, m_u=2, k_su=3))
        assert [(row[4], row[1]) for row in body] == \
            [("EQUAL_POWER", repr(float(db_to_linear(-3.0))))] * 3 + \
            [("EQUAL_POWER_OPT", repr(opt.p_eq))] * 3

    @pytest.mark.parametrize("overrides, seed", [
        (TINY, 1),  # LF feasible and equal power met under both schemes
        (TINY, 0),  # equal power misses a MEB rate floor
        ([*TINY, "--set", "r0=3", "--set", "p0=1"], 0),  # nothing feasible
        (["--set", "m_b=3", "--set", "m_u=2", "--set", "k_su=3"], 1),  # no ZF null space
    ], ids=["feasible", "meb-equal-power-misses", "infeasible", "antenna-shortage"])
    def test_rows_match_the_per_trial_oracle(self, overrides, seed, tmp_path, capsys):
        # the one realization generate_channels(config, seed) solved trial by
        # trial: LF by the scheme's solver, equal power by its estimated slack
        policies = ("LF", "EQUAL_POWER", "EQUAL_POWER_OPT")
        code = main(["--experiment", "single_solve", *overrides, "--seed", str(seed),
                     "--policies", ",".join(policies), "--p-eq-db", "-5",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        config = NetworkConfig().with_items(dict(pair.split("=") for pair in overrides[1::2]))
        real = generate_channels(config, seed)
        expected = []
        for scheme, solver in (("MEB", solve_lf_meb), ("ZFB", solve_lf_zfb)):
            try:
                beams = compute_meb(real) if scheme == "MEB" else compute_zfb(real)
            except AntennaShortageError as exc:
                for policy in policies:
                    assert (f"single_solve scheme={scheme} policy={policy} "
                            f"error=AntennaShortageError: {exc}\n") in out
                    expected.append(["", "", "", scheme, policy, "", "AntennaShortageError"])
                continue
            links = evaluate_links(real, beams.v, beams.u, config)
            for policy in policies:
                if policy == "LF":
                    alloc = solver(links, config)
                    p, feasible = alloc.p, alloc.feasible
                else:
                    p = equal_power(config, optimize_equal_power(scheme, config).p_eq
                                    if policy == "EQUAL_POWER_OPT" else db_to_linear(-5.0))
                    feasible = slack_from_links(links, p, config)[0].all_met()
                expected += [[str(k), repr(float(pk)),
                              repr(float(linear_to_db(pk))) if pk > 0 else "-inf",
                              scheme, policy, str(bool(feasible)), ""]
                             for k, pk in enumerate(p)]
        assert read_csv(tmp_path / "single_solve.csv")[1] == expected


class TestSweepExperiments:
    def test_fig2_tiny(self, tmp_path, capsys):
        code = main(["--experiment", "fig2_eq_power_sweep", *TINY,
                     "--sweep", "p_eq_db=-10,0", "--trials", "8",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        header, body = read_csv(tmp_path / "fig2_eq_power_sweep.csv")
        assert header == ["m_b", "p_eq_db", "scheme", "p_served_analytical",
                          "p_served_empirical", "stderr", "n_trials", "error"]
        # explicit m_b: one antenna count, two schemes, two sweep points
        assert len(body) == 4
        assert {row[0] for row in body} == {"16"}
        for row in body:
            assert 0.0 <= float(row[3]) <= 1.0
            assert 0.0 <= float(row[4]) <= 1.0
            assert row[-1] == ""

    def test_fig2_failed_scheme_keeps_the_others(self, tmp_path, capsys):
        # k_su = m_b leaves ZFB no null space: its SINR model rejects the config
        code = main(["--experiment", "fig2_eq_power_sweep", "--set", "m_b=12",
                     "--set", "k_su=12", "--sweep", "p_eq_db=-10,-5", "--trials", "20",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert "fig2 m_b=12 scheme=ZFB error=ValueError" in capsys.readouterr().out
        header, body = read_csv(tmp_path / "fig2_eq_power_sweep.csv")
        assert header[-1] == "error"
        assert [(row[2], row[-1]) for row in body[:2]] == [("MEB", "")] * 2
        assert all(0.0 <= float(row[4]) <= 1.0 for row in body[:2])
        assert body[2:] == [["12", "", "ZFB", "", "", "", "", "ValueError"]]

    def test_fig2_preset_mb_list(self, tmp_path):
        code = main(["--experiment", "fig2_eq_power_sweep",
                     "--sweep", "p_eq_db=-6", "--trials", "2", "--schemes", "MEB",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        _, body = read_csv(tmp_path / "fig2_eq_power_sweep.csv")
        assert [row[0] for row in body] == ["64", "128"]

    def test_fig3_compare(self, tmp_path, capsys):
        code = main(["--experiment", "fig3_meb_compare", *TINY,
                     "--sweep", "sigma2_delta=0.01,0.1", "--trials", "6",
                     "--policies", "LF", "--out", str(tmp_path)])
        assert code == EXIT_OK
        header, body = read_csv(tmp_path / "fig3_meb_compare.csv")
        assert header[0] == "sigma2_delta"
        assert len(body) == 2
        assert {row[1] for row in body} == {"MEB"}
        assert {row[2] for row in body} == {"LF"}

    def test_fig3_non_converging_point_keeps_the_others(self, tmp_path, capsys):
        # r0 = 0.125 with one SU pair and no transmitting PU gives the optimizer a
        # MEB inverse-gamma shape near 5e5, where the gamma series does not converge
        code = main(["--experiment", "fig3_meb_compare", "--set", "k_su=2",
                     "--set", "l_tx=0", "--sweep", "r0=0.125,1", "--trials", "2",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert ("r0=0.125 scheme=MEB policy=EQUAL_POWER_OPT error=ArithmeticError: "
                "gamma series did not converge") in capsys.readouterr().out
        _, body = read_csv(tmp_path / "fig3_meb_compare.csv")
        assert body[0] == ["0.125", "MEB", "EQUAL_POWER_OPT", "", "", "", "", "",
                           "ArithmeticError"]
        assert [(row[0], row[2], row[-1]) for row in body[1:]] == [
            ("0.125", "LF", ""), ("1.0", "EQUAL_POWER_OPT", ""), ("1.0", "LF", "")]

    def test_fig3_every_scheme(self, tmp_path, capsys):
        code = main(["--experiment", "fig3_meb_compare", *TINY,
                     "--sweep", "sigma2_delta=0.05", "--trials", "4",
                     "--schemes", "MEB,ZFB", "--out", str(tmp_path)])
        assert code == EXIT_OK
        _, body = read_csv(tmp_path / "fig3_meb_compare.csv")
        assert [(row[1], row[2]) for row in body] == [
            ("MEB", "EQUAL_POWER_OPT"), ("MEB", "LF"),
            ("ZFB", "EQUAL_POWER_OPT"), ("ZFB", "LF")]

    def test_fig4_compare_policies(self, tmp_path):
        code = main(["--experiment", "fig4_zfb_compare", *TINY,
                     "--sweep", "sigma2_delta=0.05", "--trials", "5",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        _, body = read_csv(tmp_path / "fig4_zfb_compare.csv")
        assert [row[2] for row in body] == ["EQUAL_POWER_OPT", "LF"]
        opt_row = body[0]
        assert opt_row[5] != ""  # analytic q present for the OPT policy
        assert opt_row[6] != ""  # resolved p_eq_db recorded

    def test_fig4_failed_policy_keeps_the_others(self, tmp_path, capsys):
        # k_su = m_b leaves ZFB no null space: the optimizer rejects the config,
        # while LF records every trial as failed
        code = main(["--experiment", "fig4_zfb_compare", "--set", "m_b=12",
                     "--set", "k_su=12", "--trials", "5", "--sweep", "sigma2_delta=0.01",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert ("fig4_zfb_compare sigma2_delta=0.01 scheme=ZFB policy=EQUAL_POWER_OPT "
                "error=ValueError") in capsys.readouterr().out
        header, body = read_csv(tmp_path / "fig4_zfb_compare.csv")
        assert header[-1] == "error"
        assert body[0] == ["0.01", "ZFB", "EQUAL_POWER_OPT", "", "", "", "", "", "ValueError"]
        assert body[1][:4] == ["0.01", "ZFB", "LF", "0.0"] and body[1][-1] == ""
        assert len(body) == 2

    @pytest.mark.parametrize("experiment", ["fig2_eq_power_sweep", "fig4_zfb_compare"])
    def test_shared_trials_give_each_row_its_own_run(self, experiment, tmp_path, capsys,
                                                     monkeypatch, default_store):
        # one draw of each trial serves every run of a config in the sweep, of
        # both schemes in fig2; each row still equals a run_trials call made on
        # its own, outside any scope
        draws = []
        original = crmimo.montecarlo.generate_channels

        def counted(config, seed):
            draws.append(seed.entropy)
            return original(config, seed)

        monkeypatch.setattr(crmimo.montecarlo, "generate_channels", counted)
        code = main(["--experiment", experiment, *TINY, "--trials", "30",
                     "--out", str(tmp_path)])
        monkeypatch.setattr(crmimo.montecarlo, "generate_channels", original)
        assert code == EXIT_OK
        assert crmimo.montecarlo._GAINS.get() is default_store
        _, body = read_csv(tmp_path / f"{experiment}.csv")
        config = NetworkConfig(m_b=16, m_u=2, k_su=3)
        expected = []
        if experiment == "fig2_eq_power_sweep":
            assert len(draws) == 30  # once per trial per m_b, for both schemes
            for scheme in ("MEB", "ZFB"):
                for p_eq_db in range(-20, 1, 2):
                    p_eq = float(db_to_linear(p_eq_db))
                    res = run_trials(config, scheme, POLICY_EQUAL_POWER, 30, 1, p_eq=p_eq)
                    expected.append(["16", repr(float(linear_to_db(p_eq))), scheme,
                                     repr(res.p_served), repr(res.stderr), "30", ""])
            assert [row[:3] + row[4:] for row in body] == expected
        else:
            assert len(draws) == 30 * 6  # once per trial per sweep value
            for s2d in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5):
                for policy in ("EQUAL_POWER_OPT", "LF"):
                    res = run_trials(config.replace(sigma2_delta=s2d), "ZFB", policy, 30, 1)
                    p_eq_db = "" if res.p_eq is None else repr(float(linear_to_db(res.p_eq)))
                    expected.append([repr(s2d), "ZFB", policy, repr(res.p_served),
                                     repr(res.stderr), p_eq_db, "30", ""])
            assert [row[:5] + row[6:] for row in body] == expected

    @pytest.mark.parametrize("experiment, args, n_draws, units", [
        # both schemes and every r0 read one draw
        ("fig3_meb_compare", [*TINY, "--schemes", "MEB,ZFB", "--sweep", "r0=1,2"], 20,
         [["--schemes", s, "--sweep", f"r0={v}"] for v in (1, 2) for s in ("MEB", "ZFB")]),
        # each m_b, and each sigma2_delta, is a draw of its own
        ("fig2_eq_power_sweep", ["--set", "m_u=2", "--set", "k_su=3",
                                 "--sweep", "p_eq_db=-10,0"], 40,
         [["--set", f"m_b={m}", "--schemes", s] for m in (64, 128) for s in ("MEB", "ZFB")]),
        ("fig4_zfb_compare", [*TINY, "--sweep", "sigma2_delta=0.01,0.1"], 40,
         [["--sweep", f"sigma2_delta={v}"] for v in (0.01, 0.1)]),
    ], ids=["fig3_two_schemes_r0", "fig2_two_m_b", "fig4_sigma2_delta"])
    def test_one_scope_per_runner(self, experiment, args, n_draws, units, tmp_path, capsys,
                                  monkeypatch):
        # a runner's one scope draws each trial once per draw key, and every
        # row equals that of a fresh run of its unit alone
        draws = []
        original = crmimo.montecarlo.generate_channels

        def counted(config, seed):
            draws.append(seed.entropy)
            return original(config, seed)

        base = ["--experiment", experiment, *args, "--trials", "20"]
        monkeypatch.setattr(crmimo.montecarlo, "generate_channels", counted)
        assert main([*base, "--out", str(tmp_path / "all")]) == EXIT_OK
        monkeypatch.setattr(crmimo.montecarlo, "generate_channels", original)
        assert len(draws) == n_draws
        alone = []
        for i, unit in enumerate(units):
            assert main([*base, *unit, "--out", str(tmp_path / str(i))]) == EXIT_OK
            alone += read_csv(tmp_path / str(i) / f"{experiment}.csv")[1]
        assert read_csv(tmp_path / "all" / f"{experiment}.csv")[1] == alone

    @pytest.mark.parametrize("experiment, n_pools", [("fig2_eq_power_sweep", 2),
                                                     ("fig4_zfb_compare", 6)])
    def test_workers_write_the_same_bytes(self, experiment, n_pools, tmp_path, capsys,
                                          pools):
        # with two workers a shared draw is still drawn once, by one pool: fig2
        # starts one per m_b, fig4 one per sweep value
        args = ["--experiment", experiment, "--set", "k_su=3", "--trials", "6"]
        assert main([*args, "--out", str(tmp_path / "w1")]) == EXIT_OK
        assert main([*args, "--workers", "2", "--out", str(tmp_path / "w2")]) == EXIT_OK
        assert pools == [2] * n_pools
        csvs = [(tmp_path / w / f"{experiment}.csv").read_bytes() for w in ("w1", "w2")]
        assert csvs[0] == csvs[1]

    def test_cdf_validation_shares_one_scope(self, tmp_path, capsys, monkeypatch,
                                             default_store):
        # both schemes' runs sit in run's one scope, so each of the 20 trials is
        # drawn once for both (not once per scheme), and each row equals that of
        # a run_trials call made on its own, outside any scope
        stores, draws = [], []
        original = crmimo.montecarlo.generate_channels

        def counted(config, seed):
            draws.append(seed.entropy)
            return original(config, seed)

        def recorded(*args, **kwargs):
            stores.append(crmimo.montecarlo._GAINS.get())
            return run_trials(*args, **kwargs)

        monkeypatch.setattr(crmimo.cli, "run_trials", recorded)
        monkeypatch.setattr(crmimo.montecarlo, "generate_channels", counted)
        code = main(["--experiment", "cdf_validation", *TINY, "--trials", "20",
                     "--out", str(tmp_path)])
        monkeypatch.setattr(crmimo.montecarlo, "generate_channels", original)
        assert code == EXIT_OK
        assert len(draws) == 20
        assert len(stores) == 2 and stores[0] is stores[1] is not default_store
        config = NetworkConfig(m_b=16, m_u=2, k_su=3)
        p_eq = config.p0 / config.k_su
        expected = []
        for scheme in ("MEB", "ZFB"):
            res = run_trials(config, scheme, POLICY_EQUAL_POWER, 20, 1, p_eq=p_eq)
            for quantity, field, law, _ in laws(scheme, config, p_eq):
                cdf = empirical_cdf(getattr(res, field))
                expected.append([scheme, quantity, repr(cdf.ks_distance(law)), str(cdf.n),
                                 "20", repr(float(linear_to_db(p_eq))), ""])
        assert read_csv(tmp_path / "cdf_validation.csv")[1] == expected

    def test_fig5_tiny(self, tmp_path, capsys):
        code = main(["--experiment", "fig5_max_sus", *TINY,
                     "--sweep", "r0=1", "--trials", "10", "--schemes", "ZFB",
                     "--confidence", "0.5", "--out", str(tmp_path)])
        assert code == EXIT_OK
        header, body = read_csv(tmp_path / "fig5_max_sus.csv")
        assert header == ["m_b", "r0", "scheme", "max_k", "confidence", "n_trials", "error"]
        assert len(body) == 1
        assert int(body[0][3]) >= 0
        assert body[0][-1] == ""

    def test_fig5_db_sweep(self, tmp_path, capsys):
        code = main(["--experiment", "fig5_max_sus", *TINY, "--sweep", "i0_db=-10,0",
                     "--trials", "10", "--schemes", "MEB", "--confidence", "0.5",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        header, body = read_csv(tmp_path / "fig5_max_sus.csv")
        assert header[1] == "i0_db"
        assert [row[1] for row in body] == ["-10.0", "0.0"]

    def test_fig5_antenna_sweep_runs_one_table_per_scheme(self, tmp_path, capsys):
        # the preset m_b list does not multiply an m_b sweep, and no column
        # names an antenna count that the row did not run at
        code = main(["--experiment", "fig5_max_sus", "--set", "m_u=2", "--sweep", "m_b=8,16",
                     "--trials", "5", "--schemes", "ZFB", "--confidence", "0.5",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        header, body = read_csv(tmp_path / "fig5_max_sus.csv")
        assert header == ["m_b", "scheme", "max_k", "confidence", "n_trials", "error"]
        rows = max_sus_at_confidence(NetworkConfig(m_u=2), "ZFB", 0.5, "m_b", (8.0, 16.0),
                                     n_trials=5, seed=1)
        assert [row[:3] for row in body] == [[repr(v), "ZFB", str(k)] for v, k in rows]
        out = capsys.readouterr().out
        assert "fig5 scheme=ZFB m_b=8.0 max_k=" in out and "m_b=64" not in out

    def test_fig5_failed_scheme_keeps_the_others(self, tmp_path, capsys, monkeypatch):
        search = crmimo.cli.max_sus_at_confidence

        def failing_for_zfb(config, scheme, *args, **kwargs):
            if scheme == "ZFB":
                raise ValueError("no ZFB table")
            return search(config, scheme, *args, **kwargs)

        monkeypatch.setattr(crmimo.cli, "max_sus_at_confidence", failing_for_zfb)
        code = main(["--experiment", "fig5_max_sus", *TINY, "--sweep", "r0=1,2",
                     "--trials", "10", "--confidence", "0.5", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert "fig5 m_b=16 scheme=ZFB error=ValueError: no ZFB table" in capsys.readouterr().out
        _, body = read_csv(tmp_path / "fig5_max_sus.csv")
        assert [(row[1], row[2], row[-1]) for row in body[:2]] == [
            ("1.0", "MEB", ""), ("2.0", "MEB", "")]
        assert all(int(row[3]) >= 0 for row in body[:2])
        assert body[2:] == [["16", "", "ZFB", "", "", "", "ValueError"]]

    def test_cdf_validation_tiny(self, tmp_path, capsys):
        code = main(["--experiment", "cdf_validation", *TINY,
                     "--trials", "60", "--out", str(tmp_path), "--dump-samples"])
        assert code == EXIT_OK
        header, body = read_csv(tmp_path / "cdf_validation.csv")
        assert header[:3] == ["scheme", "quantity", "ks_distance"]
        assert [(row[0], row[1]) for row in body] == [
            ("MEB", "sinr"), ("MEB", "interference"),
            ("ZFB", "sinr"), ("ZFB", "sinr_exact"), ("ZFB", "interference"),
        ]
        for row in body:
            assert 0.0 <= float(row[2]) <= 1.0
        # one file per sample field: sinr_exact reads the sinr samples
        assert sorted(p.name for p in tmp_path.glob("samples_*")) == [
            f"samples_{scheme}_{quantity}.txt" for scheme in ("MEB", "ZFB")
            for quantity in ("interference", "sinr")]

    def test_cdf_validation_without_receiving_pus(self, tmp_path, capsys):
        # no receiving PU leaves no interference samples, hence no interference rows
        code = main(["--experiment", "cdf_validation", *TINY, "--set", "l_rx=0",
                     "--trials", "20", "--out", str(tmp_path), "--dump-samples"])
        assert code == EXIT_OK
        _, body = read_csv(tmp_path / "cdf_validation.csv")
        assert [(row[0], row[1], row[-1]) for row in body] == [
            ("MEB", "sinr", ""), ("ZFB", "sinr", ""), ("ZFB", "sinr_exact", "")]
        assert sorted(p.name for p in tmp_path.glob("samples_*")) == [
            "samples_MEB_sinr.txt", "samples_ZFB_sinr.txt"]

    def test_cdf_validation_failed_scheme_keeps_the_others(self, tmp_path, capsys):
        code = main(["--experiment", "cdf_validation", "--set", "m_b=12", "--set", "k_su=12",
                     "--trials", "50", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert "cdf_validation scheme=ZFB error=ValueError" in capsys.readouterr().out
        header, body = read_csv(tmp_path / "cdf_validation.csv")
        assert header[-1] == "error"
        assert [(row[0], row[1], row[-1]) for row in body[:2]] == [
            ("MEB", "sinr", ""), ("MEB", "interference", "")]
        assert body[2][:5] == ["ZFB", "", "", "", ""] and body[2][-1] == "ValueError"
        assert len(body) == 3

    def test_deterministic_output_bytes(self, tmp_path):
        args = ["--experiment", "fig2_eq_power_sweep", *TINY,
                "--sweep", "p_eq_db=-4", "--trials", "5", "--schemes", "ZFB",
                "--seed", "9"]
        main([*args, "--out", str(tmp_path / "a")])
        main([*args, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "fig2_eq_power_sweep.csv").read_bytes()
        b = (tmp_path / "b" / "fig2_eq_power_sweep.csv").read_bytes()
        assert a == b

    def test_config_file_plus_override(self, tmp_path):
        cfg = tmp_path / "net.cfg"
        cfg.write_text("m_b = 16\nm_u = 2\nk_su = 4\np0_db = 10\n")
        code = main(["--experiment", "single_solve", "--config", str(cfg),
                     "--set", "k_su=2", "--out", str(tmp_path)])
        assert code == EXIT_OK
        _, body = read_csv(tmp_path / "single_solve.csv")
        # override wins over the file: 2 SUs for each default scheme
        assert [row[3] for row in body] == ["MEB", "MEB", "ZFB", "ZFB"]


class TestEmitPlotData:
    def fig2_csv(self, tmp_path):
        main(["--experiment", "fig2_eq_power_sweep", *TINY,
              "--sweep", "p_eq_db=-8,-2", "--trials", "4",
              "--out", str(tmp_path)])
        return tmp_path / "fig2_eq_power_sweep.csv"

    def test_split_by_scheme_exact_values(self, tmp_path):
        path = self.fig2_csv(tmp_path)
        written = emit_plot_data(str(path))
        names = sorted(os.path.basename(p) for p in written)
        assert names == ["fig2_eq_power_sweep_meb.dat", "fig2_eq_power_sweep_zfb.dat"]
        header, body = read_csv(path)
        for out in written:
            with open(out) as fh:
                lines = [ln.split() for ln in fh if not ln.startswith("#")]
            scheme = "MEB" if out.endswith("_meb.dat") else "ZFB"
            expect = [row for row in body if row[2] == scheme]
            assert len(lines) == len(expect)
            for got, want in zip(lines, expect):
                # verbatim round trip, no reformatting; the empty error field reads nan
                assert got == [field or "nan" for field in want]

    def test_idempotent(self, tmp_path):
        path = self.fig2_csv(tmp_path)
        first = emit_plot_data(str(path))
        contents = {p: open(p).read() for p in first}
        second = emit_plot_data(str(path))
        assert sorted(first) == sorted(second)
        for p in first:
            assert open(p).read() == contents[p]

    def test_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# schema=1\ncolumn_a,column_b\n")
        written = emit_plot_data(str(path))
        assert len(written) == 1
        with open(written[0]) as fh:
            lines = fh.read().splitlines()
        assert lines == ["# schema=1", "# column_a column_b"]

    def test_no_header_rejected(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("# schema=1\n")
        with pytest.raises(ValueError):
            emit_plot_data(str(path))

    def test_out_dir_override(self, tmp_path):
        path = self.fig2_csv(tmp_path)
        dest = tmp_path / "plots"
        written = emit_plot_data(str(path), out_dir=str(dest))
        assert all(os.path.dirname(p) == str(dest) for p in written)
        assert dest.is_dir()

    def test_main_entry(self, tmp_path, capsys):
        path = self.fig2_csv(tmp_path)
        capsys.readouterr()
        code = main(["--emit-plot-data", str(path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("wrote ") == 2


class TestBuildSpec:
    def parse(self, argv):
        import argparse

        from crmimo.cli import main as _  # reuse the real parser via main's module

        # build_spec consumes parsed args; emulate the parser defaults
        ns = argparse.Namespace(
            experiment="single_solve", config=None, overrides=[], sweep=None,
            schemes=None, policies=None, trials=None, seed=1, out=".",
            confidence=0.95, p_eq_db=None, workers=1, large_mb=False,
            dump_samples=False,
        )
        for key, value in argv.items():
            setattr(ns, key, value)
        return build_spec(ns)

    def test_defaults(self):
        spec = self.parse({})
        assert spec.experiment == "single_solve"
        assert spec.n_trials == 1
        assert spec.schemes == ("MEB", "ZFB")
        assert spec.policies == ("LF",)
        assert spec.m_b_list == (64, 128)

    def test_large_mb(self):
        spec = self.parse({"large_mb": True})
        assert spec.m_b_list == (64, 128, 512, 1024)

    def test_explicit_mb_pins_list(self):
        spec = self.parse({"overrides": ["m_b=32"]})
        assert spec.m_b_list == (32,)

    def test_set_takes_integral_strings(self):
        spec = self.parse({"overrides": ["m_b=64.0", "k_su=3"]})
        assert spec.config == NetworkConfig(m_b=64, k_su=3)
        assert spec.m_b_list == (64,)

    @pytest.mark.parametrize("experiment", ["fig3_meb_compare", "fig4_zfb_compare"])
    def test_compare_figures_sweep_k_su(self, experiment):
        spec = self.parse({"experiment": experiment, "sweep": "k_su=2,3"})
        assert spec.sweep == ("k_su", (2.0, 3.0))

    def test_set_takes_config_file_syntax(self, tmp_path):
        cfg = tmp_path / "net.cfg"
        cfg.write_text("m_b = 16 # note\n")
        spec = self.parse({"overrides": ["m_b=16 # note", " k_su = 3 "]})
        assert spec.config == NetworkConfig.from_file(cfg).replace(k_su=3)
        assert spec.m_b_list == (16,)

    def test_preset_sweeps(self):
        spec = self.parse({"experiment": "fig2_eq_power_sweep"})
        assert spec.sweep[0] == "p_eq_db"
        assert spec.sweep[1][0] == -20.0 and spec.sweep[1][-1] == 0.0
        spec = self.parse({"experiment": "fig5_max_sus"})
        assert spec.sweep == ("r0", (1.0, 2.0, 3.0, 4.0))
        assert spec.n_trials == 500
        assert spec.policies == ("EQUAL_POWER_OPT",)

    def test_scheme_policy_parsing(self):
        spec = self.parse({"schemes": "meb", "policies": "equal_power_opt"})
        assert spec.schemes == ("MEB",)
        assert spec.policies == ("EQUAL_POWER_OPT",)

    def test_equal_power_p_eq_sources(self):
        # fig2 sweeps p_eq, cdf_validation and single_solve fall back to p0/k_su
        for experiment in ("fig2_eq_power_sweep", "cdf_validation", "single_solve"):
            assert self.parse({"experiment": experiment,
                               "policies": "EQUAL_POWER"}).p_eq is None
        spec = self.parse({"experiment": "fig3_meb_compare",
                           "policies": "EQUAL_POWER", "p_eq_db": -10.0})
        assert spec.p_eq == pytest.approx(0.1)

    def test_p_eq_db_conversion(self):
        spec = self.parse({"p_eq_db": -10.0})
        assert spec.p_eq == pytest.approx(0.1)
