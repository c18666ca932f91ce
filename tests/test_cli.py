import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import mxl
from mxl.cli import (
    EXIT_ERROR,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    cmd_run,
    cmd_sweep,
    cmd_verify,
    load_config,
    main,
)
from mxl.families import synth_channels

MAC_CFG = str(resources.files("mxl") / "configs" / "mac_quadratic.cfg")
EE_CFG = str(resources.files("mxl") / "configs" / "ee_2user_noise100.cfg")

os.environ.setdefault("MXL_WORKERS", "2")


def write_cfg(tmp_path, payload, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def mac_payload(**solver_overrides):
    solver = {
        "schedule": {"kind": "power_law", "gamma0": 1.0, "exponent": 0.5},
        "noise": {"kind": "none"},
        "max_iters": 4000,
        "stop_residual": 1e-6,
        "seed": 1,
        "log_every": 25,
    }
    solver.update(solver_overrides)
    return {"game": {"kind": "mac", "players": 2, "b": 1.0, "c": 2.0}, "solver": solver,
            "experiment": {"mode": "run"}}


def ee_fixture_cfg(tmp_path, entry):
    """EE run config on a channel fixture whose first cross-link entry is `entry`."""
    fixture = json.loads(synth_channels(2, 2, 2, 2, seed=7).to_json())
    fixture["entries_re"][1][0][0][0][0] = entry
    (tmp_path / "channels.json").write_text(json.dumps(fixture))
    return write_cfg(tmp_path, {
        "game": {"kind": "ee", "fixture": str(tmp_path / "channels.json")},
        "solver": {"max_iters": 50},
        "experiment": {"mode": "run"},
    })


PROBABILITIES_NOT_A_LIST = "async.probabilities must be a list of numbers, one per player"


class TestRun:
    def test_bundled_mac_config_converges(self, tmp_path):
        out = tmp_path / "out"
        assert cmd_run(MAC_CFG, str(out), quiet=True) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "converged"
        assert summary["terminal_residual"] < 1e-6
        assert (out / "trace.csv").exists()
        assert (out / "utility_plot.csv").exists()
        assert (out / "residual_plot.csv").exists()
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "n,player,utility,nash_residual,kl_to_ref,step_size"

    def test_bundled_ee_noise100_converges(self, tmp_path):
        out = tmp_path / "out"
        assert cmd_run(EE_CFG, str(out), quiet=True) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "converged"
        assert summary["iterations"] <= 5000

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cmd_run(MAC_CFG, str(out1), quiet=True) == EXIT_OK
        assert cmd_run(MAC_CFG, str(out2), quiet=True) == EXIT_OK
        for name in ("trace.csv", "summary.json", "utility_plot.csv", "residual_plot.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_noise_path(self, tmp_path):
        cfg = write_cfg(tmp_path, mac_payload(noise={"kind": "relative", "level": 0.5},
                                              stop_residual=0.0, max_iters=200))
        a, b = tmp_path / "a", tmp_path / "b"
        assert cmd_run(cfg, str(a), seed=5, quiet=True) in (EXIT_OK, EXIT_NO_CONVERGENCE)
        assert cmd_run(cfg, str(b), seed=6, quiet=True) in (EXIT_OK, EXIT_NO_CONVERGENCE)
        assert (a / "trace.csv").read_bytes() != (b / "trace.csv").read_bytes()
        echoed = json.loads((a / "summary.json").read_text())["config"]["solver"]["seed"]
        assert echoed == 5

    def test_non_convergence_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, mac_payload(max_iters=10, stop_residual=1e-12))
        assert cmd_run(cfg, str(tmp_path / "out"), quiet=True) == EXIT_NO_CONVERGENCE

    def test_malformed_json_exits_1_no_outputs(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text('{"game": {"kind": "mac",\n   broken\n}')
        out = tmp_path / "out"
        assert cmd_run(str(bad), str(out), quiet=True) == EXIT_ERROR
        assert not out.exists()
        err = capsys.readouterr().err
        assert "bad.cfg:2" in err  # line-anchored message

    def test_unknown_key_rejected(self, tmp_path):
        payload = mac_payload()
        payload["game"]["mystery"] = 1
        cfg = write_cfg(tmp_path, payload)
        assert cmd_run(cfg, str(tmp_path / "out"), quiet=True) == EXIT_ERROR

    def test_unknown_game_kind_rejected(self, tmp_path):
        payload = mac_payload()
        payload["game"]["kind"] = "poker"
        cfg = write_cfg(tmp_path, payload)
        assert cmd_run(cfg, str(tmp_path / "out"), quiet=True) == EXIT_ERROR

    def test_mode_mismatch_rejected(self, tmp_path):
        payload = mac_payload()
        payload["experiment"] = {"mode": "stability"}
        cfg = write_cfg(tmp_path, payload)
        assert cmd_run(cfg, str(tmp_path / "out"), quiet=True) == EXIT_ERROR

    @pytest.mark.parametrize("section, value, message", [
        ("schedule", {"kind": "cosine"}, "unknown schedule kind 'cosine'"),
        ("noise", {"kind": "laplace"}, "unknown noise kind 'laplace'"),
        ("schedule", {"kind": "power_law", "exponent": 1.5},
         "power_law exponent must lie in (0, 1]"),
    ])
    def test_bad_schedule_or_noise_one_line_error(self, tmp_path, capsys, section, value,
                                                  message):
        cfg = write_cfg(tmp_path, mac_payload(**{section: value}))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_delay_not_below_horizon_one_line_error(self, tmp_path, capsys):
        payload = mac_payload(max_iters=5)
        payload["async"] = {"probabilities": [0.5, 0.5], "delay_max": 5}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == "error: delay_max must be smaller than max_iters\n"

    @pytest.mark.parametrize("probabilities", [0.5, "0.5", [0.5, None]],
                             ids=["number", "string", "null_entry"])
    def test_non_list_probabilities_one_line_error(self, tmp_path, capsys, probabilities):
        payload = mac_payload()
        payload["async"] = {"probabilities": probabilities}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {PROBABILITIES_NOT_A_LIST}\n"

    @pytest.mark.parametrize("section, key, value, message", [
        ("solver", "max_iters", None, "solver.max_iters must be a number, got null"),
        ("solver", "seed", "1", 'solver.seed must be a number, got "1"'),
        ("solver", "log_every", [25], "solver.log_every must be a number, got [25]"),
        ("solver", "stop_residual", True, "solver.stop_residual must be a number, got true"),
        ("schedule", "gamma0", None, "solver.schedule.gamma0 must be a number, got null"),
        ("async", "delay_max", None, "async.delay_max must be a number, got null"),
        ("game", "b", "1.0", 'game.b must be a number, got "1.0"'),
    ], ids=["null", "string", "list", "bool", "nested_section", "async", "game"])
    def test_non_number_one_line_error(self, tmp_path, capsys, section, key, value, message):
        payload = mac_payload()
        if section == "async":
            payload["async"] = {"probabilities": [0.5, 0.5], key: value}
        elif section == "schedule":
            payload["solver"]["schedule"][key] = value
        else:
            payload[section][key] = value
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("path, value, message", [
        ("solver.max_iters", float("inf"), "solver.max_iters must be a finite number, got Infinity"),
        ("solver.noise.sigma", float("nan"), "solver.noise.sigma must be a finite number, got NaN"),
        ("solver.schedule.gamma0", float("inf"),
         "solver.schedule.gamma0 must be a finite number, got Infinity"),
        ("game.b", float("-inf"), "game.b must be a finite number, got -Infinity"),
        ("experiment.checkpoints", [100, float("inf")],
         "experiment.checkpoints[1] must be a finite number, got Infinity"),
    ], ids=["max_iters", "sigma", "gamma0", "game", "list_entry"])
    def test_non_finite_number_one_line_error(self, tmp_path, capsys, path, value, message):
        payload = mac_payload(noise={"kind": "gaussian", "sigma": 0.2})
        node = payload
        *parents, key = path.split(".")
        for name in parents:
            node = node.setdefault(name, {})
        node[key] = value
        cfg = write_cfg(tmp_path, payload)  # json.dumps writes NaN and Infinity as such
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_non_bool_hermitian_one_line_error(self, tmp_path, capsys, value):
        payload = mac_payload(noise={"kind": "gaussian", "sigma": 0.2, "hermitian": value})
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: solver.noise.hermitian must be true or false, got {json.dumps(value)}\n")

    def test_keys_defaulting_to_null_stay_free_form(self, tmp_path):
        payload = {"game": {"kind": "metric", "trace_cap": None, "features": 3.0},
                   "solver": {"reference": "none"}, "async": {"probabilities": None},
                   "experiment": {"grid": None}}
        resolved = load_config(write_cfg(tmp_path, payload))
        assert resolved["game"]["trace_cap"] is None and resolved["game"]["features"] == 3.0
        assert resolved["solver"]["reference"] == "none"

    def test_non_finite_channel_fixture_one_line_error(self, tmp_path, capsys):
        cfg = ee_fixture_cfg(tmp_path, float("nan"))
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-finite" in err

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_overflowing_channel_fixture_diverges_without_traceback(self, tmp_path, flags):
        cfg = ee_fixture_cfg(tmp_path, 1e200)
        out = tmp_path / "out"
        src = str(Path(mxl.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "mxl.cli", "run", cfg, "--out", str(out), "--quiet"],
            capture_output=True, text=True, env=env, timeout=120, check=False)
        assert proc.returncode == EXIT_ERROR
        assert proc.stderr == ""
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "diverged"
        assert "definiteness" in summary["diagnostic"]

    def test_async_section_drives_partial_updates(self, tmp_path):
        payload = mac_payload(max_iters=2000, stop_residual=1e-3)
        payload["async"] = {"probabilities": [0.5, 0.5], "delay_max": 3}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        code = cmd_run(cfg, str(out), quiet=True)
        assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)
        summary = json.loads((out / "summary.json").read_text())
        updates = summary["updates_per_player"]
        assert len(updates) == 2 and all(u < 2000 for u in updates)

    def test_schedule_and_noise_defaults(self, tmp_path):
        cfg = write_cfg(tmp_path, {"game": {"kind": "mac"}, "solver": {"max_iters": 10}})
        solver = load_config(cfg)["solver"]
        assert solver["schedule"] == {"kind": "power_law", "gamma0": 1.0, "exponent": 0.5,
                                      "stability": 1.0}
        assert solver["noise"] == {"kind": "none", "sigma": 0.0, "level": 0.0, "tail_index": 1.5,
                                   "scale": 1.0, "hermitian": True}

    def test_async_probability_count_mismatch_rejected(self, tmp_path):
        payload = mac_payload()
        payload["async"] = {"probabilities": [1.0, 1.0, 1.0]}
        cfg = write_cfg(tmp_path, payload)
        assert cmd_run(cfg, str(tmp_path / "out"), quiet=True) == EXIT_ERROR

    def test_summary_echoes_resolved_defaults(self, tmp_path):
        cfg = write_cfg(tmp_path, {"game": {"kind": "mac"}, "experiment": {"mode": "run"}})
        out = tmp_path / "out"
        code = cmd_run(cfg, str(out), quiet=True)
        assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)
        echoed = json.loads((out / "summary.json").read_text())["config"]
        assert echoed["game"]["players"] == 2
        assert echoed["solver"]["schedule"]["kind"] == "power_law"
        assert echoed["experiment"]["mode"] == "run"


class TestVerify:
    def test_stability_mode_on_mac(self, tmp_path):
        payload = {
            "game": {"kind": "mac", "players": 2, "b": 1.0, "c": 2.0},
            "solver": {"seed": 3},
            "experiment": {"mode": "stability", "samples": 800, "vs_radius": 0.2},
        }
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert cmd_verify(cfg, str(out), quiet=True) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["monotonicity"]["violations"] == 0
        assert report["variational_stability"]["violations"] == 0
        assert report["hessian"]["hessian_max_quadform"] < 0

    def test_rate_mode_interior_instance(self, tmp_path):
        payload = {
            "game": {"kind": "mac", "players": 2, "b": 1.0, "c": 2.0},
            "solver": {
                "schedule": {"kind": "optimized", "stability": 0.102089},
                "noise": {"kind": "gaussian", "sigma": 0.25},
                "max_iters": 5000,
                "seed": 21,
                "log_every": 100,
            },
            "experiment": {"mode": "rate", "seeds": 30,
                           "checkpoints": [50, 158, 500, 1581, 5000],
                           "metric": "nuclear_distance",
                           "slope_target": -0.5, "slope_tol": 0.15},
        }
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert cmd_verify(cfg, str(out), quiet=True) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert abs(report["rate_fit"]["slope"] + 0.5) <= 0.15

    def test_rate_mode_constant_step_negative_control(self, tmp_path):
        payload = {
            "game": {"kind": "mac", "players": 2, "b": 1.0, "c": 2.0},
            "solver": {
                "schedule": {"kind": "constant", "gamma0": 0.5},
                "noise": {"kind": "gaussian", "sigma": 0.25},
                "max_iters": 5000,
                "seed": 21,
                "log_every": 100,
            },
            "experiment": {"mode": "rate", "seeds": 12,
                           "checkpoints": [50, 158, 500, 1581, 5000],
                           "metric": "nuclear_distance",
                           "slope_target": -0.5, "slope_tol": 0.15},
        }
        cfg = write_cfg(tmp_path, payload)
        assert cmd_verify(cfg, str(tmp_path / "out"), quiet=True) == EXIT_VERIFY_FAILED

    def test_wrong_mode_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, mac_payload())
        assert cmd_verify(cfg, str(tmp_path / "out"), quiet=True) == EXIT_ERROR

    @staticmethod
    def rate_payload(checkpoints, reference=None):
        return {
            "game": {"kind": "mac", "players": 2, "b": 1.0, "c": 2.0},
            "solver": {"schedule": {"kind": "optimized", "stability": 0.102089},
                       "noise": {"kind": "gaussian", "sigma": 0.25},
                       "seed": 21, "reference": reference},
            "experiment": {"mode": "rate", "seeds": 3, "checkpoints": checkpoints,
                           "metric": "nuclear_distance",
                           "slope_target": -0.5, "slope_tol": 0.15},
        }

    @pytest.mark.parametrize("checkpoints", [[10, 10, 50, 1000], [0, 10, 50, 1000]])
    def test_rate_mode_bad_checkpoints_one_line_error(self, tmp_path, capsys, checkpoints):
        cfg = write_cfg(tmp_path, self.rate_payload(checkpoints))
        assert main(["verify", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "strictly increasing" in err

    def test_rate_mode_non_list_checkpoints_rejected_before_any_work(self, tmp_path, capsys,
                                                                      monkeypatch):
        cfg = write_cfg(tmp_path, self.rate_payload(5))
        out = tmp_path / "out"
        monkeypatch.setattr(mxl.cli, "brute_force_ne", lambda *args, **kw: pytest.fail("work ran"))
        assert main(["verify", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == "error: experiment.checkpoints must be a list, got 5\n"

    @pytest.mark.parametrize("change", [{"seeds": 1}, {"checkpoints": [10, 30, 100, 316]}],
                             ids=["one_seed", "under_two_decades"])
    def test_rate_protocol_rejected_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                    change):
        payload = self.rate_payload([10, 100, 316, 1000])
        payload["experiment"].update(change)
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        monkeypatch.setattr(mxl.cli, "brute_force_ne", lambda *args, **kw: pytest.fail("work ran"))
        assert main(["verify", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_rate_mode_reports_a_raised_gamma_b_flag(self, tmp_path):
        # gamma_1 = 1 on a power_law schedule: gamma*B is the MAC margin, about 0.1
        payload = self.rate_payload([1, 10, 30, 100])
        payload["solver"]["schedule"] = {"kind": "power_law", "gamma0": 1.0, "exponent": 0.5}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert cmd_verify(cfg, str(out), quiet=True) in (EXIT_OK, EXIT_VERIFY_FAILED)
        report = json.loads((out / "report.json").read_text())
        fit = report["rate_fit"]
        assert fit["gamma_b_flag"] is True and "bound" not in fit
        assert fit["gamma_b"] == report["strong_stability"]["b_hat"] > 0

    def test_rate_mode_bad_schedule_one_line_error(self, tmp_path, capsys, monkeypatch):
        import mxl.cli

        calls = []
        monkeypatch.setattr(mxl.cli, "brute_force_ne", lambda *args, **kw: calls.append(1))
        for reference in (None, "oracle"):  # the schedule is checked before any oracle runs
            payload = self.rate_payload([10, 100, 316, 1000], reference=reference)
            payload["solver"]["schedule"] = {"kind": "power_law", "exponent": 1.5}
            cfg = write_cfg(tmp_path, payload)
            assert main(["verify", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == EXIT_ERROR
            assert capsys.readouterr().err == "error: power_law exponent must lie in (0, 1]\n"
        assert calls == []

    def test_async_section_rejected(self, tmp_path, capsys):
        payload = mac_payload()
        payload["async"] = {"probabilities": [0.5, 0.5]}
        payload["experiment"] = {"mode": "stability", "samples": 10}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["verify", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: mxl verify runs synchronous play only; remove the async section\n")

    def test_rate_mode_computes_the_oracle_once(self, tmp_path, monkeypatch):
        import mxl.cli

        calls = []
        real = mxl.cli.brute_force_ne

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(mxl.cli, "brute_force_ne", counting)
        cfg = write_cfg(tmp_path, self.rate_payload([1, 10, 30, 100], reference="oracle"))
        assert cmd_verify(cfg, str(tmp_path / "out"), quiet=True) in (EXIT_OK, EXIT_VERIFY_FAILED)
        assert len(calls) == 1


class TestSweep:
    def test_noise_level_sweep(self, tmp_path):
        payload = {
            "game": {"kind": "mac", "players": 2, "b": 1.0, "c": 2.0},
            "solver": {
                "schedule": {"kind": "power_law", "gamma0": 1.0, "exponent": 0.6},
                "noise": {"kind": "relative", "level": 0.0},
                "max_iters": 5000,
                "seed": 2,
                "log_every": 50,
            },
            "experiment": {"mode": "sweep", "seeds": 6, "threshold": 1e-2,
                           "grid": {"solver.noise.level": [0.0, 0.5]}},
        }
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert cmd_sweep(cfg, str(out), quiet=True) == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "solver.noise.level,seeds,converged_fraction,median_iterations"
        assert len(lines) == 3
        fracs = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(f >= 0.5 for f in fracs)
        assert fracs[0] >= fracs[1]  # convergence does not improve with noise

    def test_ee_noise_sweep_fraction_not_increasing(self, tmp_path):
        payload = {
            "game": {"kind": "ee", "users": 2, "tx_antennas": 2, "rx_antennas": 2,
                     "subcarriers": 2, "pmax": 2.0, "pc": 1.0, "pathloss_spread": 1.0,
                     "channel_seed": 8},
            "solver": {
                "schedule": {"kind": "power_law", "gamma0": 1.0, "exponent": 0.6},
                "noise": {"kind": "relative", "level": 0.0},
                "max_iters": 5000,
                "seed": 100,
                "log_every": 25,
            },
            "experiment": {"mode": "sweep", "seeds": 4, "threshold": 1e-2,
                           "grid": {"solver.noise.level": [0.0, 1.0]}},
        }
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert cmd_sweep(cfg, str(out), quiet=True) == EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        fracs = [float(r.split(",")[2]) for r in rows]
        meds = [float(r.split(",")[3]) for r in rows]
        assert fracs[0] >= fracs[1]
        assert meds[0] <= meds[1]

    def test_step_exponent_sweep_all_converge(self, tmp_path):
        payload = {
            "game": {"kind": "mac", "players": 2, "b": 1.0, "c": 2.0},
            "solver": {
                "schedule": {"kind": "power_law", "gamma0": 2.0, "exponent": 0.5},
                "noise": {"kind": "none"},
                "max_iters": 5000,
                "seed": 2,
                "log_every": 50,
            },
            "experiment": {"mode": "sweep", "seeds": 3, "threshold": 1e-2,
                           "grid": {"solver.schedule.exponent": [0.5, 0.75, 1.0]}},
        }
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        assert cmd_sweep(cfg, str(out), quiet=True) == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(lines) == 3
        assert all(float(line.split(",")[2]) == 1.0 for line in lines)

    def test_empty_grid_rejected(self, tmp_path):
        payload = mac_payload()
        payload["experiment"] = {"mode": "sweep", "grid": {}}
        cfg = write_cfg(tmp_path, payload)
        assert cmd_sweep(cfg, str(tmp_path / "out"), quiet=True) == EXIT_ERROR

    def test_bad_grid_value_rejected_before_any_cell_runs(self, tmp_path, capsys, monkeypatch):
        payload = mac_payload()
        payload["experiment"] = {"mode": "sweep", "seeds": 2,
                                 "grid": {"solver.schedule.exponent": [0.5, 1.5]}}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        monkeypatch.setenv("MXL_WORKERS", "1")
        monkeypatch.setattr(mxl.cli, "run_batch", lambda *args: pytest.fail("a cell ran"))
        assert main(["sweep", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == "error: power_law exponent must lie in (0, 1]\n"

    @pytest.mark.parametrize("grid, message", [
        ({"solver.max_iters": [100, None]}, "solver.max_iters must be a number, got null"),
        ({"solver.noise.sigma": [0.1, "0.2"]}, 'solver.noise.sigma must be a number, got "0.2"'),
        ({"solver.seed": 3}, "sweep grid values of 'solver.seed' must be a non-empty list, got 3"),
        ({"solver.schedule.exponent": [0.5], "solver.noise.sigma": 0.2},
         "sweep grid values of 'solver.noise.sigma' must be a non-empty list, got 0.2"),
        ({"solver.seed": "1, 2"},
         "sweep grid values of 'solver.seed' must be a non-empty list, got \"1, 2\""),
        ({"experiment.checkpoints": [[10, 100], 5]}, "experiment.checkpoints must be a list, got 5"),
        ({"solver.noise.sigma": [0.1, float("nan")]},
         "solver.noise.sigma must be a finite number, got NaN"),
        ({"solver.max_iters": [100, float("inf")]},
         "solver.max_iters must be a finite number, got Infinity"),
    ], ids=["null", "string", "values_not_a_list", "second_values_not_a_list",
            "values_a_string", "list_key_given_a_number", "nan", "infinity"])
    def test_non_number_grid_value_rejected_before_any_cell_runs(self, tmp_path, capsys,
                                                                 monkeypatch, grid, message):
        payload = mac_payload()
        payload["experiment"] = {"mode": "sweep", "seeds": 2, "grid": grid}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        monkeypatch.setenv("MXL_WORKERS", "1")
        monkeypatch.setattr(mxl.cli, "run_batch", lambda *args: pytest.fail("a cell ran"))
        assert main(["sweep", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_non_bool_grid_value_rejected_before_any_cell_runs(self, tmp_path, capsys,
                                                               monkeypatch):
        payload = mac_payload(noise={"kind": "gaussian", "sigma": 0.2})
        payload["experiment"] = {"mode": "sweep", "seeds": 2,
                                 "grid": {"solver.noise.hermitian": [True, "false"]}}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        monkeypatch.setenv("MXL_WORKERS", "1")
        monkeypatch.setattr(mxl.cli, "run_batch", lambda *args: pytest.fail("a cell ran"))
        assert main(["sweep", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == (
            'error: solver.noise.hermitian must be true or false, got "false"\n')

    @pytest.mark.parametrize("seeds", [0, -1])
    def test_seeds_below_one_rejected_before_any_cell_runs(self, tmp_path, capsys, monkeypatch,
                                                           seeds):
        payload = mac_payload()
        payload["experiment"] = {"mode": "sweep", "seeds": seeds,
                                 "grid": {"solver.schedule.exponent": [0.5, 1.0]}}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        monkeypatch.setenv("MXL_WORKERS", "1")
        monkeypatch.setattr(mxl.cli, "run_batch", lambda *args: pytest.fail("a cell ran"))
        assert main(["sweep", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == f"error: experiment.seeds must be at least 1, got {seeds}\n"

    @staticmethod
    def exponent_sweep(async_section=None, **solver):
        payload = mac_payload(**solver)
        payload["experiment"] = {"mode": "sweep", "seeds": 3, "threshold": 1e-2,
                                 "grid": {"solver.schedule.exponent": [0.5, 1.0]}}
        if async_section is not None:
            payload["async"] = async_section
        return payload

    def test_async_section_applies_to_every_cell(self, tmp_path):
        csv = {}
        for name, section in (("sync", None), ("async", {"probabilities": [0.3, 0.3],
                                                         "delay_max": 5})):
            cfg = write_cfg(tmp_path, self.exponent_sweep(section, max_iters=2000), f"{name}.cfg")
            assert cmd_sweep(cfg, str(tmp_path / name), quiet=True) == EXIT_OK
            csv[name] = (tmp_path / name / "sweep.csv").read_text()
        assert csv["sync"] != csv["async"]

    @pytest.mark.parametrize("section, message", [
        ({"probabilities": [0.3, 0.3, 0.3]}, "async schedule must list one probability per player"),
        ({"probabilities": [0.3, 0.3], "delay_max": 99999},
         "delay_max must be smaller than max_iters"),
        ({"probabilities": 0.3}, PROBABILITIES_NOT_A_LIST),
    ], ids=["probability_count", "delay_max", "probabilities_not_a_list"])
    def test_bad_async_rejected_before_any_cell_runs(self, tmp_path, capsys, monkeypatch,
                                                     section, message):
        cfg = write_cfg(tmp_path, self.exponent_sweep(section))
        out = tmp_path / "out"
        monkeypatch.setenv("MXL_WORKERS", "1")
        monkeypatch.setattr(mxl.cli, "run_batch", lambda *args: pytest.fail("a cell ran"))
        assert main(["sweep", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_oracle_computed_once_per_cell(self, tmp_path, monkeypatch):
        calls = []
        real = mxl.cli.brute_force_ne

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(mxl.cli, "brute_force_ne", counting)
        monkeypatch.setenv("MXL_WORKERS", "1")
        cfg = write_cfg(tmp_path, self.exponent_sweep(max_iters=500, reference="oracle"))
        assert cmd_sweep(cfg, str(tmp_path / "out"), quiet=True) == EXIT_OK
        assert len(calls) == 2

    def test_crashed_worker_one_line_error(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path, self.exponent_sweep(max_iters=200))
        out = tmp_path / "out"
        monkeypatch.setenv("MXL_WORKERS", "2")
        monkeypatch.setattr(mxl.cli, "_run_sweep_cell", _die)  # workers fork with it patched
        assert main(["sweep", cfg, "--out", str(out), "--quiet"]) == EXIT_ERROR
        assert not (out / "sweep.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("error: sweep worker crashed") and err.count("\n") == 1

    def test_bad_grid_path_rejected(self, tmp_path):
        payload = mac_payload()
        payload["experiment"] = {"mode": "sweep", "seeds": 2,
                                 "grid": {"solver.nope.level": [0.1]}}
        cfg = write_cfg(tmp_path, payload)
        assert cmd_sweep(cfg, str(tmp_path / "out"), quiet=True) == EXIT_ERROR


def _die(task):
    """A sweep cell whose worker process dies without a word."""
    os._exit(7)


def test_load_config_strictness(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(json.dumps({"game": {"kind": "mac"}, "extra_section": {}}))
    with pytest.raises(Exception):
        load_config(cfg)


def test_main_dispatch(tmp_path):
    out = tmp_path / "out"
    code = main(["run", MAC_CFG, "--out", str(out), "--quiet"])
    assert code == EXIT_OK
