"""Config plumbing, persistence, runners, and the CLI surface."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from sburgers.cli import main
from sburgers.harness import (
    ConfigError, ESTIMATORS, config_hash, load_config, parse_config,
    parse_observable, run_estimate, run_simulate, run_verify,
    write_trajectory_csv,
)
from sburgers.integrator import BLOCK_ROWS, simulate


def base_raw(**overrides) -> dict:
    raw = {
        "model": {"n_modes": 4, "dt": 1e-3, "t_end": 0.05, "dt_save": 1e-2},
        "gaussian": {"decay": {"normalize_to": 1.0}},
        "jump": {"intensity": 1.0,
                 "marks": {"kind": "exponential", "rate": 2.0},
                 "direction": {"kind": "constant_mode", "mode": 1}},
        "seed": 3,
    }
    raw.update(overrides)
    return raw


class TestConfigParsing:
    def test_round_trip_fields(self):
        cfg = parse_config(base_raw())
        assert cfg.sim.n_modes == 4
        assert cfg.sim.dt == 1e-3
        assert cfg.sim.t_end == 0.05
        assert cfg.sim.dt_save == 1e-2
        assert cfg.sim.seed == 3
        assert cfg.sim.nonlinearity_on
        assert cfg.sim.gaussian is not None
        assert cfg.sim.jumps is not None
        assert cfg.sim.jumps.intensity == 1.0
        assert cfg.sim.jumps.marks.rate == 2.0

    def test_missing_jump_block_means_pure_brownian(self):
        raw = base_raw()
        del raw["jump"]
        cfg = parse_config(raw)
        assert cfg.sim.jumps is None
        assert cfg.sim.gaussian is not None

    def test_missing_gaussian_block_means_no_brownian(self):
        raw = base_raw()
        del raw["gaussian"]
        assert parse_config(raw).sim.gaussian is None

    def test_missing_model_field_names_the_path(self):
        raw = base_raw()
        del raw["model"]["dt"]
        with pytest.raises(ConfigError, match="model.dt"):
            parse_config(raw)

    def test_bad_type_names_the_path(self):
        raw = base_raw()
        raw["model"]["n_modes"] = "four"
        with pytest.raises(ConfigError, match="model.n_modes"):
            parse_config(raw)

    def test_negative_dt_rejected(self):
        raw = base_raw()
        raw["model"]["dt"] = -1e-3
        with pytest.raises(ConfigError, match="model.dt"):
            parse_config(raw)

    def test_unknown_mark_kind(self):
        raw = base_raw()
        raw["jump"]["marks"] = {"kind": "cauchy"}
        with pytest.raises(ConfigError, match="jump.marks.kind"):
            parse_config(raw)

    def test_unknown_direction_kind(self):
        raw = base_raw()
        raw["jump"]["direction"] = {"kind": "spinning"}
        with pytest.raises(ConfigError, match="jump.direction.kind"):
            parse_config(raw)

    def test_direction_mode_out_of_range(self):
        raw = base_raw()
        raw["jump"]["direction"] = {"kind": "constant_mode", "mode": 9}
        with pytest.raises(ConfigError, match="exceeds n_modes"):
            parse_config(raw)

    def test_direction_coefficients_and_saturated(self):
        raw = base_raw()
        raw["jump"]["direction"] = {"kind": "saturated",
                                    "coefficients": [0.5, 0.25],
                                    "amplitude": 2.0}
        jumps = parse_config(raw).sim.jumps
        d = jumps.direction.to_dict()
        assert d["name"] == "saturated"
        assert d["amplitude"] == 2.0
        assert d["coeffs"][:2] == [0.5, 0.25]

    def test_explicit_betas(self):
        raw = base_raw(gaussian={"betas": [1.0, 0.5, 0.25, 0.125]})
        g = parse_config(raw).sim.gaussian
        assert np.allclose(g.betas, [1.0, 0.5, 0.25, 0.125])

    def test_betas_length_must_match(self):
        raw = base_raw(gaussian={"betas": [1.0, 0.5]})
        with pytest.raises(ConfigError, match="gaussian.betas"):
            parse_config(raw)

    def test_seed_override_applies(self):
        cfg = parse_config(base_raw(), seed_override=99)
        assert cfg.sim.seed == 99
        assert cfg.raw["seed"] == 99

    def test_bad_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(base_raw(seed=-1))

    def test_unknown_experiment_kind(self):
        raw = base_raw(experiment={"kind": "meditate"})
        with pytest.raises(ConfigError, match="experiment.kind"):
            parse_config(raw)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_load_config_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(p)


class TestInitialCondition:
    def test_default_zero(self):
        assert parse_config(base_raw()).sim.x0 is None

    def test_modes_kind(self):
        raw = base_raw()
        raw["model"]["initial_condition"] = {
            "kind": "modes", "coefficients": [2.0, 0.0, 1.0]}
        x0 = parse_config(raw).sim.x0
        assert np.allclose(x0.coeffs, [2.0, 0.0, 1.0, 0.0])

    def test_scaled_random_norm_and_determinism(self):
        raw = base_raw()
        raw["model"]["initial_condition"] = {
            "kind": "scaled_random", "norm": 3.0}
        a = parse_config(raw).sim.x0
        b = parse_config(raw).sim.x0
        assert np.allclose(np.sqrt(np.sum(a.coeffs ** 2)), 3.0)
        assert np.array_equal(a.coeffs, b.coeffs)
        # a different seed draws a different direction
        c = parse_config(raw, seed_override=4).sim.x0
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_unknown_kind(self):
        raw = base_raw()
        raw["model"]["initial_condition"] = {"kind": "warm"}
        with pytest.raises(ConfigError, match="initial_condition.kind"):
            parse_config(raw)


class TestConfigHash:
    def test_permutation_stable(self):
        raw = base_raw()
        permuted = {k: raw[k] for k in reversed(list(raw))}
        permuted["model"] = {k: raw["model"][k]
                             for k in reversed(list(raw["model"]))}
        assert config_hash(raw) == config_hash(permuted)

    def test_output_block_excluded(self):
        raw = base_raw()
        with_out = base_raw(output={"directory": "elsewhere"})
        assert config_hash(raw) == config_hash(with_out)

    def test_content_changes_hash(self):
        assert config_hash(base_raw()) != config_hash(base_raw(seed=4))

    def test_seed_override_changes_hash(self):
        a = parse_config(base_raw())
        b = parse_config(base_raw(), seed_override=4)
        assert a.hash != b.hash


class TestObservableSpecs:
    def test_mode(self):
        obs = parse_observable({"kind": "mode", "k": 2})
        assert obs.name == "a_2"

    def test_tanh_mode(self):
        obs = parse_observable({"kind": "tanh_mode", "k": 1, "c": 2.0})
        x = np.array([[0.3, 0.0]])
        assert obs.values(x)[0] == pytest.approx(math.tanh(0.6))

    def test_named_kinds(self):
        for kind in ("norm_h", "norm_h_sq", "psi"):
            assert parse_observable({"kind": kind}).name

    def test_unknown_kind_lists_path(self):
        with pytest.raises(ConfigError, match="observable.kind"):
            parse_observable({"kind": "entropy"})


class TestSimulateRunner:
    def test_minimal_all_off_config_zero_states(self, tmp_path):
        raw = {"model": {"n_modes": 3, "dt": 1e-2, "t_end": 0.1,
                         "dt_save": 5e-2}, "seed": 0}
        cfg = parse_config(raw)
        run_simulate(cfg, out_dir=tmp_path)
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == f"# config_hash={cfg.hash}"
        assert lines[1] == "t,a_1,a_2,a_3,norm_h,norm_v"
        assert len(lines) == 2 + 3
        for row in lines[2:]:
            cells = row.split(",")
            assert all(float(c) == 0.0 for c in cells[1:])
        # no jumps configured, so the log is empty
        assert (tmp_path / "jumps.jsonl").read_text() == ""

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = parse_config(base_raw())
        run_simulate(cfg, out_dir=tmp_path / "a")
        run_simulate(cfg, out_dir=tmp_path / "b")
        for name in ("trajectory.csv", "jumps.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_manifest_contents(self, tmp_path):
        cfg = parse_config(base_raw())
        res = run_simulate(cfg, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"] == cfg.hash
        assert manifest["seed"] == 3
        assert manifest["blowup_count"] == 0
        assert "trajectory.csv" in manifest["outputs"]
        assert manifest["finished_at"] >= manifest["started_at"]
        assert res["snapshots"] == 6

    def test_jump_log_records(self, tmp_path):
        raw = base_raw()
        raw["jump"]["intensity"] = 50.0
        raw["model"]["t_end"] = 0.2
        cfg = parse_config(raw)
        run_simulate(cfg, out_dir=tmp_path)
        records = [json.loads(line) for line in
                   (tmp_path / "jumps.jsonl").read_text().splitlines()]
        assert records
        times = [r["time"] for r in records]
        assert times == sorted(times)
        assert all(r["config_hash"] == cfg.hash for r in records)
        assert all(r["mark"] > 0 for r in records)

    def test_csv_17_significant_digits(self, tmp_path):
        cfg = parse_config(base_raw())
        traj = simulate(cfg.sim)
        path = tmp_path / "t.csv"
        write_trajectory_csv(path, traj, cfg.hash)
        rows = path.read_text().splitlines()[2:]
        parsed = np.array([[float(c) for c in row.split(",")]
                           for row in rows])
        assert np.array_equal(parsed[:, 0], traj.times)
        assert np.array_equal(parsed[:, 1:5], traj.coeffs)


class TestVerifyRunner:
    def test_default_model_zero_failures(self, tmp_path):
        raw = base_raw(experiment={"kind": "verify", "n_states": 20,
                                   "n_mart": 4})
        raw["model"]["t_end"] = 0.2
        report = run_verify(parse_config(raw), out_dir=tmp_path)
        assert report["failures"] == 0
        assert report["checks"] > 0
        assert not (tmp_path / "verify_failures.csv").exists()
        saved = json.loads((tmp_path / "verify_report.json").read_text())
        assert saved["failures"] == 0

    def test_corrupted_c1_fails(self, tmp_path):
        raw = base_raw(experiment={"kind": "verify", "n_states": 10,
                                   "n_mart": 2, "c1_override": 0.5})
        report = run_verify(parse_config(raw), out_dir=tmp_path)
        assert report["failures"] > 0
        table = (tmp_path / "verify_failures.csv").read_text().splitlines()
        assert table[0] == f"# config_hash={parse_config(raw).hash}"
        assert len(table) == 2 + report["failures"]

    def test_zero_states_is_usage_error(self, tmp_path):
        raw = base_raw(experiment={"kind": "verify", "n_states": 0})
        with pytest.raises(ConfigError, match="n_states"):
            run_verify(parse_config(raw), out_dir=tmp_path)

    def test_supermartingale_reported(self, tmp_path):
        raw = base_raw(experiment={"kind": "verify", "n_states": 5,
                                   "n_mart": 6, "lam": 0.25})
        report = run_verify(parse_config(raw), out_dir=tmp_path)
        mart = report["supermartingale"]
        assert mart["n"] == 6
        assert math.isfinite(mart["mean"])
        assert mart["std_err"] >= 0


def linear_single_mode(t_end, dt=1e-3, dt_save=1e-2, seed=7, **exp):
    return parse_config({
        "model": {"n_modes": 1, "dt": dt, "t_end": t_end,
                  "dt_save": dt_save, "nonlinearity": False},
        "gaussian": {"betas": [1.0]},
        "seed": seed,
        "experiment": dict({"kind": "estimate"}, **exp),
    })


class TestEstimateRunner:
    def test_unknown_estimator_lists_names(self, tmp_path):
        cfg = parse_config(base_raw())
        with pytest.raises(ConfigError) as err:
            run_estimate(cfg, "bogus", out_dir=tmp_path)
        for name in ESTIMATORS:
            assert name in str(err.value)

    def test_occupation_constant_path_single_bin(self, tmp_path):
        cfg = parse_config({
            "model": {"n_modes": 2, "dt": 1e-2, "t_end": 1.0,
                      "dt_save": 0.1,
                      "initial_condition": {"kind": "modes",
                                            "coefficients": [0.0, 1.0]},
                      "nonlinearity": False},
            "seed": 0,
            "experiment": {"kind": "estimate",
                           "observable": {"kind": "mode", "k": 1},
                           "bins": 1},
        })
        res = run_estimate(cfg, "occupation", out_dir=tmp_path)
        rec = res["records"][0]
        assert rec["masses"] == [1.0]
        assert rec["config_hash"] == cfg.hash

    def test_sigma2_linear_record(self, tmp_path):
        cfg = linear_single_mode(400.0, dt=5e-3, dt_save=5e-2,
                                 observable={"kind": "mode", "k": 1},
                                 burn_in=10.0)
        res = run_estimate(cfg, "sigma2", out_dir=tmp_path)
        rec = res["records"][0]
        sigma2 = 1.0 / math.pi ** 4
        assert abs(rec["value"] - sigma2) <= max(rec["half_width"],
                                                 0.5 * sigma2)
        lines = (tmp_path / "estimate.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["estimator"] == "sigma2"

    def test_gamma_linear_recovers_pi_squared(self, tmp_path):
        cfg = linear_single_mode(1.0, dt=1e-3, dt_save=2e-2,
                                 estimator="gamma", n_traj=3,
                                 separation=2.0, n_points=15)
        res = run_estimate(cfg, "gamma", out_dir=tmp_path)
        rec = res["records"][0]
        assert rec["value"] == pytest.approx(math.pi ** 2, rel=1e-4)
        table = (tmp_path / "estimate.csv").read_text().splitlines()
        assert table[1] == "t,d"

    def test_expmoment_domain_error(self, tmp_path):
        raw = base_raw(experiment={"kind": "estimate", "theta": 0.5,
                                   "lam": 2.5, "n_traj": 4})
        with pytest.raises(ValueError, match="divergent|exceeds"):
            run_estimate(parse_config(raw), "expmoment", out_dir=tmp_path)

    def test_expmoment_record(self, tmp_path):
        raw = base_raw(experiment={"kind": "estimate", "theta": 0.5,
                                   "lam": 0.5, "n_traj": 6})
        res = run_estimate(parse_config(raw), "expmoment",
                           out_dir=tmp_path)
        rec = res["records"][0]
        assert rec["value"] >= 1.0
        assert rec["extra"]["bound"] > rec["value"] - rec["half_width"]

    def test_mdp_record(self, tmp_path):
        cfg = linear_single_mode(20.0, dt=5e-3, dt_save=5e-2,
                                 observable={"kind": "mode", "k": 1},
                                 mu_reference=0.0, exponent=0.25)
        res = run_estimate(cfg, "mdp", out_dir=tmp_path)
        rec = res["records"][0]
        assert rec["mu_reference"] == 0.0
        assert math.isfinite(rec["value"])

    def test_tailprobe_zero_radius(self, tmp_path):
        cfg = linear_single_mode(2.0, dt=5e-3, dt_save=5e-2,
                                 observable={"kind": "mode", "k": 1},
                                 mu_reference=0.0, r_grid=[0.0],
                                 t_grid=[2.0], n_traj=4)
        res = run_estimate(cfg, "tailprobe", out_dir=tmp_path)
        rec = res["records"][0]
        assert rec["prob"] == 1.0
        assert rec["rate"] == 0.0

    def test_hitting_record(self, tmp_path):
        raw = base_raw(experiment={"kind": "estimate", "n_traj": 4,
                                   "t_max": 2.0, "initial_v_norm": 1.0})
        raw["model"]["t_end"] = 2.0
        res = run_estimate(parse_config(raw), "hitting", out_dir=tmp_path)
        rec = res["records"][0]
        assert rec["n"] == 4
        assert rec["config_hash"] == parse_config(raw).hash

    def test_estimate_outputs_carry_hash(self, tmp_path):
        cfg = linear_single_mode(2.0, dt=1e-2, dt_save=1e-1,
                                 observable={"kind": "mode", "k": 1},
                                 bins=4)
        run_estimate(cfg, "occupation", out_dir=tmp_path)
        for name in ("estimate.csv",):
            first = (tmp_path / name).read_text().splitlines()[0]
            assert first == f"# config_hash={cfg.hash}"
        for line in (tmp_path / "estimate.jsonl").read_text().splitlines():
            assert json.loads(line)["config_hash"] == cfg.hash


def write_config(tmp_path, raw, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return str(p)


class TestCli:
    def test_simulate_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, base_raw())
        code = main(["simulate", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["snapshots"] == 6
        assert (tmp_path / "out" / "trajectory.csv").exists()

    def test_seed_flag_changes_output(self, tmp_path):
        path = write_config(tmp_path, base_raw())
        main(["simulate", "--config", path, "--out", str(tmp_path / "a")])
        main(["simulate", "--config", path, "--seed", "8",
              "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "trajectory.csv").read_text()
        b = (tmp_path / "b" / "trajectory.csv").read_text()
        assert a != b

    def test_verify_failure_exit_code(self, tmp_path, capsys):
        raw = base_raw(experiment={"kind": "verify", "n_states": 5,
                                   "n_mart": 2, "c1_override": 0.5})
        path = write_config(tmp_path, raw)
        code = main(["verify", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert (tmp_path / "out" / "verify_failures.csv").exists()
        capsys.readouterr()

    def test_verify_clean_exit_zero(self, tmp_path, capsys):
        raw = base_raw(experiment={"kind": "verify", "n_states": 5,
                                   "n_mart": 2})
        path = write_config(tmp_path, raw)
        assert main(["verify", "--config", path,
                     "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()

    def test_unknown_estimator_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, base_raw())
        code = main(["estimate", "bogus", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        for name in ESTIMATORS:
            assert name in err

    def test_missing_config_exit_two(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "none.json")])
        assert code == 2
        capsys.readouterr()

    def test_malformed_config_exit_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        assert main(["simulate", "--config", str(p)]) == 2
        capsys.readouterr()

    def test_schema_error_exit_two(self, tmp_path, capsys):
        raw = base_raw()
        del raw["model"]["t_end"]
        path = write_config(tmp_path, raw)
        assert main(["simulate", "--config", path]) == 2
        assert "model.t_end" in capsys.readouterr().err

    def test_blowup_exit_three(self, tmp_path, capsys):
        raw = base_raw()
        raw["model"]["nonlinearity"] = False
        raw["model"]["initial_condition"] = {
            "kind": "modes", "coefficients": [2e6]}
        path = write_config(tmp_path, raw)
        code = main(["simulate", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "blow-up" in capsys.readouterr().err

    def test_ensemble_blowup_exit_three(self, tmp_path, capsys):
        raw = base_raw(experiment={"kind": "estimate", "n_traj": 4,
                                   "t_max": 0.05, "initial_v_norm": 5000.0})
        raw["model"].update(n_modes=8, dt=2e-3)
        path = write_config(tmp_path, raw)
        code = main(["estimate", "hitting", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "blow-up: 4 of 4 trajectories blew up" in err

    def test_verify_threads_identical(self, tmp_path, capsys):
        # more supermartingale paths than one block, so two workers share
        raw = base_raw(experiment={"kind": "verify", "n_states": 5,
                                   "n_mart": BLOCK_ROWS + 1})
        path = write_config(tmp_path, raw)
        for threads in ("1", "2"):
            assert main(["verify", "--config", path, "--threads", threads,
                         "--out", str(tmp_path / threads)]) == 0
        assert (tmp_path / "1" / "verify_report.json").read_bytes() == \
            (tmp_path / "2" / "verify_report.json").read_bytes()
        capsys.readouterr()

    def test_expmoment_domain_error_exit_two(self, tmp_path, capsys):
        raw = base_raw(experiment={"kind": "estimate", "theta": 0.5,
                                   "lam": 2.5, "n_traj": 4})
        path = write_config(tmp_path, raw)
        code = main(["estimate", "expmoment", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        capsys.readouterr()

    def test_bad_threads_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, base_raw())
        assert main(["simulate", "--config", path, "--threads", "0"]) == 2
        capsys.readouterr()

    def test_estimate_happy_path(self, tmp_path, capsys):
        raw = {
            "model": {"n_modes": 1, "dt": 1e-2, "t_end": 2.0,
                      "dt_save": 0.1, "nonlinearity": False},
            "gaussian": {"betas": [1.0]},
            "seed": 5,
            "experiment": {"kind": "estimate",
                           "observable": {"kind": "mode", "k": 1},
                           "bins": 8},
        }
        path = write_config(tmp_path, raw)
        code = main(["estimate", "occupation", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["estimator"] == "occupation"
        assert (tmp_path / "out" / "estimate.jsonl").exists()
        assert (tmp_path / "out" / "estimate.csv").exists()
        assert (tmp_path / "out" / "manifest.json").exists()
