"""Config plumbing, persistence, runners, and the CLI surface."""

import csv
import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import sburgers
from sburgers import harness, integrator
from sburgers.cli import main
from sburgers.harness import (
    ConfigError, ESTIMATORS, config_hash, load_config, parse_config,
    parse_observable, run_estimate, run_simulate, run_verify,
)
from sburgers.integrator import BLOCK_ROWS, BlowUpError, \
    EnsembleBlowUpError, ensemble, simulate
from sburgers.lyapunov import tilt_constants
from sburgers.noise import DivergentMomentError, SaturatedDirection


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
        d = parse_config(raw).sim.jumps.direction
        assert isinstance(d, SaturatedDirection)
        assert d.amplitude == 2.0
        assert d.g0.coeffs[:2].tolist() == [0.5, 0.25]

    def test_saturated_amplitude_scales_g_once(self):
        # a mode direction's amplitude also scales g0, but field_at
        # normalises g0, so G is amplitude tanh(||x||_H) e_2 either way
        fields = []
        for spec in ({"mode": 2}, {"coefficients": [0, 5]}):
            raw = base_raw()
            raw["jump"]["direction"] = dict(spec, kind="saturated",
                                            amplitude=3)
            fields.append(parse_config(raw).sim.jumps.direction)
        x = np.random.default_rng(5).standard_normal((20, 4))
        e2 = np.array([0.0, 1.0, 0.0, 0.0])
        expected = 3.0 * np.tanh(np.sqrt((x ** 2).sum(axis=-1)))[:, None] * e2
        assert fields[0].field_at(x).tobytes() == \
            fields[1].field_at(x).tobytes()
        assert np.allclose(fields[0].field_at(x), expected, rtol=1e-15,
                           atol=0.0)
        assert fields[0].sup_norm == fields[1].sup_norm == 3.0

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


ROOT = Path(__file__).resolve().parents[1]


def every_block_raw() -> dict:
    """A config that holds every block _KEYS declares."""
    raw = base_raw(experiment={"kind": "estimate", "bins": 4,
                               "observable": {"kind": "mode", "k": 1}},
                   output={"directory": "runs"})
    raw["model"]["initial_condition"] = {"kind": "modes",
                                         "coefficients": [0.1]}
    return raw


def run_cli(tmp_path, capsys, raw, *command) -> tuple:
    """(exit code, stderr) of one CLI run of raw, into tmp_path / "out"
    unless command names its own --out."""
    name, *args = command
    code = main([name, "--out", str(tmp_path / "out"), *args,
                 "--config", write_config(tmp_path, raw)])
    return code, capsys.readouterr().err


class TestConfigKeys:
    """Each block takes only the keys _KEYS lists for it."""

    @pytest.mark.parametrize("path", [
        "", "model", "model.initial_condition", "gaussian", "gaussian.decay",
        "jump", "jump.marks", "jump.direction", "experiment",
        "experiment.observable", "output"])
    def test_unknown_key_exit_two(self, tmp_path, capsys, path):
        raw = every_block_raw()
        block = raw
        for key in filter(None, path.split(".")):
            block = block[key]
        block["bogus"] = 1
        field = f"{path}.bogus" if path else "bogus"
        assert run_cli(tmp_path, capsys, raw, "estimate", "occupation") == \
            (2, f"config error: {field}: unknown field\n")

    def test_every_block_config_runs(self, tmp_path, capsys):
        assert run_cli(tmp_path, capsys, every_block_raw(), "estimate",
                       "occupation")[0] == 0

    @pytest.mark.parametrize("typos, field", [
        ({"bogus": 1, "model": {"n_mode": 8},
          "experiment": {"n_trajj": 50}}, "bogus"),
        ({"model": {"n_mode": 8}}, "model.n_mode"),
        ({"experiment": {"n_trajj": 50}}, "experiment.n_trajj")])
    def test_typo_run_exit_two(self, tmp_path, capsys, typos, field):
        raw = json.loads((ROOT / "configs" / "estimate_hitting.json")
                         .read_text())
        for key, value in typos.items():
            if isinstance(value, dict):
                raw[key].update(value)
            else:
                raw[key] = value
        assert run_cli(tmp_path, capsys, raw, "estimate", "hitting") == \
            (2, f"config error: {field}: unknown field\n")

    @pytest.mark.parametrize("block, message", [
        ({"jump": {"direction": {"kind": "constant", "coefficients": [1.0],
                                 "amplitude": 5}}},
         "jump.direction.amplitude: unknown field"),
        ({"jump": {"direction": {"kind": "constant_mode", "mode": 1,
                                 "coefficients": [0, 9]}}},
         "jump.direction.coefficients: unknown field"),
        ({"jump": {"direction": {"kind": "saturated", "mode": 1,
                                 "coefficients": [0, 9]}}},
         "jump.direction: takes mode or coefficients, not both"),
        ({"gaussian": {"betas": [1.0, 1.0, 1.0, 1.0],
                       "decay": {"normalize_to": 1.0}}},
         "gaussian: need exactly one of 'betas' and 'decay'"),
        ({"gaussian": {}},
         "gaussian: need exactly one of 'betas' and 'decay'")])
    def test_field_beside_the_one_read_exit_two(self, tmp_path, capsys,
                                                 block, message):
        # each of these ran, and wrote the same trajectory as without the
        # field that was never read
        raw = json.loads((ROOT / "configs" / "jumps_only.json").read_text())
        for key, value in block.items():
            raw[key] = dict(raw.get(key) or {}, **value)
        assert run_cli(tmp_path, capsys, raw, "simulate") == \
            (2, f"config error: {message}\n")

    def test_direction_coefficients(self):
        raw = base_raw()
        raw["jump"]["direction"] = {"kind": "constant",
                                    "coefficients": [0.5, 0.25]}
        g0 = parse_config(raw).sim.jumps.direction.g0
        assert g0.coeffs.tolist() == [0.5, 0.25, 0.0, 0.0]
        raw["jump"]["direction"] = {"kind": "constant_mode"}
        with pytest.raises(ConfigError, match=r"^jump\.direction\.mode: "
                                              "missing required field$"):
            parse_config(raw)

    def test_deterministic_marks_value(self, tmp_path):
        raw = base_raw()
        raw["jump"]["intensity"] = 50.0
        raw["jump"]["marks"] = {"kind": "deterministic", "value": 0.5}
        cfg = parse_config(raw)
        assert cfg.sim.jumps.marks.value == 0.5
        run_simulate(cfg, out_dir=tmp_path)
        marks = [json.loads(line)["mark"] for line in
                 (tmp_path / "jumps.jsonl").read_text().splitlines()]
        assert marks and set(marks) == {0.5}
        raw["jump"]["marks"] = {"kind": "deterministic", "rate": 2.0}
        with pytest.raises(ConfigError,
                           match=r"^jump\.marks\.rate: unknown field$"):
            parse_config(raw)

    def test_readme_field_table_matches_keys(self):
        declared = set()
        for block, keys in harness._KEYS.items():
            if isinstance(keys, dict):
                keys = ("kind",) + tuple(k for ks in keys.values()
                                         for k in ks)
            declared |= {f"{block}.{k}" if block else k for k in keys}
        text = (ROOT / "README.md").read_text()
        section = text.split("### Config format", 1)[1].split("\n## ", 1)[0]
        documented = {line.split("`")[1] for line in section.splitlines()
                      if line.startswith("| `")}
        assert documented == declared


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
        assert parse_observable(None).name == "a_1"

    def test_mode_index_checked_against_n_modes(self):
        for kind in ("mode", "tanh_mode"):
            assert parse_observable({"kind": kind, "k": 8}, n_modes=8).name
            with pytest.raises(ConfigError,
                               match=r"^observable\.k: 9 exceeds n_modes=8$"):
                parse_observable({"kind": kind, "k": 9}, n_modes=8)

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
        assert "trajectory_seeds" not in manifest
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
        run_simulate(cfg, out_dir=tmp_path)
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()[2:]
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

    def test_failure_rows_ordered_by_state_then_check(self, tmp_path,
                                                      monkeypatch):
        raw = base_raw(experiment={"kind": "verify", "n_states": 10,
                                   "n_mart": 2, "c1_override": 0.5})
        raw["model"]["t_end"] = 0.2
        cfg = parse_config(raw)
        names = ["drift_chain", "dissipation_gap"] + [
            f"jump_gap_u={-math.log(1.0 - q) / 2.0:.3g}"
            for q in (0.1, 0.5, 0.9)]

        def table(out):
            lines = (out / "verify_failures.csv").read_text().splitlines()
            return list(csv.DictReader(lines[1:]))

        control = run_verify(cfg, out_dir=tmp_path / "control")
        rows = table(tmp_path / "control")
        assert len(rows) == control["failures"] > 0
        assert {r["check"] for r in rows} == {"drift_chain"}
        times = [float(r["t"]) for r in rows]
        assert times == sorted(times) and len(set(times)) == len(times)

        # the gap checks never fail on real states; make them fail on some
        # states so every check kind shows up in the table
        real_gap = harness.dissipation_term_gap
        real_jump = harness.jump_taylor_gap
        monkeypatch.setattr(
            harness, "dissipation_term_gap",
            lambda a, lam: real_gap(a, lam) - (np.arange(len(a)) % 2))
        monkeypatch.setattr(
            harness, "jump_taylor_gap",
            lambda a, u, jumps, lam: real_jump(a, u, jumps, lam)
            - (np.arange(len(a)) % 3 == 0))
        report = run_verify(cfg, out_dir=tmp_path / "forced")
        forced = table(tmp_path / "forced")
        assert report["failures"] == len(forced) == len(rows) + 5 + 4 * 3
        keys = [(float(r["t"]), names.index(r["check"])) for r in forced]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert [r for r in forced if r["check"] == "drift_chain"] == rows

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


def _lower_blowup_norm(monkeypatch, norm: float) -> None:
    monkeypatch.setattr(integrator, "BLOWUP_NORM", norm)
    monkeypatch.setattr(integrator, "_SAFE_NORM_SQ",
                        norm ** 2 * (1.0 - 1e-9))


class TestVerifyMainRow:
    """verify steps its checked path as one more row of the first block of
    the supermartingale ensemble."""

    @staticmethod
    def _cfg(n_mart: int):
        # dt_save = dt, so every step's norm is on the save grid
        raw = base_raw(experiment={"kind": "verify", "n_states": 10 ** 6,
                                   "n_mart": n_mart, "lam": 0.5})
        raw["model"].update(n_modes=8, dt=2e-3, t_end=0.1, dt_save=2e-3)
        return parse_config(raw)

    @staticmethod
    def _ends(cfg, n_mart: int) -> list:
        """The supermartingale reductions of a separate ensemble run."""
        m_lambda, hs = tilt_constants(cfg.sim, 0.5)
        return ensemble(cfg.sim, n_mart, partial(
            harness._martingale_end, lam=0.5, m_lambda=m_lambda, hs=hs))

    @classmethod
    def _blowups(cls, cfg, n_mart: int) -> tuple:
        """The BlowUp records a separate supermartingale ensemble raises."""
        with pytest.raises(EnsembleBlowUpError) as err:
            cls._ends(cfg, n_mart)
        return err.value.records

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n_mart", [4, BLOCK_ROWS + 1])
    def test_rows_equal_separate_runs(self, tmp_path, monkeypatch, n_mart,
                                      threads):
        cfg = self._cfg(n_mart)
        seen = {}
        check = harness.drift_condition_check

        def states_seen(states, *args):
            seen["states"] = states.copy()
            return check(states, *args)

        def ends_seen(*args, **kwargs):
            traj, seen["ends"] = ensemble(*args, **kwargs)
            return traj, seen["ends"]

        monkeypatch.setattr(harness, "drift_condition_check", states_seen)
        monkeypatch.setattr(harness, "ensemble", ends_seen)
        run_verify(cfg, out_dir=tmp_path, n_workers=threads)
        assert seen["states"].tobytes() == simulate(cfg.sim).coeffs.tobytes()
        assert seen["ends"] == self._ends(cfg, n_mart)

    def test_one_kernel_loop(self, tmp_path, monkeypatch):
        rows = []
        run = integrator._Kernel.run

        def counted(self, seeds, starts, until=None):
            rows.append(len(seeds))
            return run(self, seeds, starts, until)

        monkeypatch.setattr(integrator._Kernel, "run", counted)
        run_verify(self._cfg(BLOCK_ROWS), out_dir=tmp_path)
        assert rows == [BLOCK_ROWS + 1]

    def test_main_path_blowup_comes_first(self, tmp_path, monkeypatch,
                                          capsys):
        # the trust region shrunk to just below the main path's peak: it
        # and some supermartingale paths, in both blocks, leave it
        cfg = self._cfg(BLOCK_ROWS + 1)
        peak = simulate(cfg.sim).norm_h().max()
        _lower_blowup_norm(monkeypatch, peak * (1.0 - 1e-6))
        blown = [r.index for r in self._blowups(cfg, BLOCK_ROWS + 1)]
        assert 0 < len(blown) and max(blown) == BLOCK_ROWS
        with pytest.raises(BlowUpError) as err:
            simulate(cfg.sim)
        path = write_config(tmp_path, cfg.raw)
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert main(["verify", "--config", path, "--threads", threads,
                         "--out", str(out)]) == 3
            assert capsys.readouterr().err == f"blow-up: {err.value}\n"
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["blowup_count"] == 1
            assert manifest["outputs"] == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_supermartingale_blowups_numbered_from_zero(self, tmp_path,
                                                        monkeypatch,
                                                        threads):
        # the trust region shrunk above the main path's peak and the median
        # peak of the others: only supermartingale paths leave it, and they
        # keep their indices
        n_mart = BLOCK_ROWS + 1
        cfg = self._cfg(n_mart)
        peaks = ensemble(cfg.sim, n_mart, lambda traj: traj.norm_h().max())
        peak = max(simulate(cfg.sim).norm_h().max(), np.median(peaks))
        _lower_blowup_norm(monkeypatch, peak * (1.0 + 1e-6))
        records = self._blowups(cfg, n_mart)
        assert 0 < len(records) < n_mart
        with pytest.raises(EnsembleBlowUpError) as err:
            run_verify(cfg, out_dir=tmp_path, n_workers=threads)
        assert err.value.records == tuple(records)
        assert str(err.value).startswith(
            f"{len(records)} of {n_mart} trajectories blew up; "
            f"first: index {records[0].index}")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["blowup_count"] == len(records)


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
        cfg = linear_single_mode(1.0, dt=1e-3, dt_save=2e-2, n_traj=3,
                                 separation=2.0, n_points=15)
        res = run_estimate(cfg, "gamma", out_dir=tmp_path)
        rec = res["records"][0]
        assert rec["value"] == pytest.approx(math.pi ** 2, rel=1e-4)
        table = (tmp_path / "estimate.csv").read_text().splitlines()
        assert table[1] == "t,d"

    def test_mdp_prefactor_divides_the_functional(self, tmp_path):
        values = []
        for prefactor in (1.0, 4.0):
            cfg = linear_single_mode(20.0, dt=5e-3, dt_save=5e-2,
                                     mu_reference=0.0, prefactor=prefactor)
            rec = run_estimate(cfg, "mdp", out_dir=tmp_path)["records"][0]
            assert rec["prefactor"] == prefactor
            values.append(rec["value"])
        assert values[1] == pytest.approx(values[0] / 4.0, rel=1e-12)

    def test_one_config_serves_every_estimator(self, tmp_path):
        # the fields of every estimator and of verify, side by side
        cfg = linear_single_mode(
            40.0, dt=1e-2, dt_save=1e-2, seed=5,
            observable={"kind": "mode", "k": 1}, burn_in=1.0, n_batches=30,
            n_traj=3, separation=2.0, n_points=5, t_max=0.2,
            initial_v_norm=1.0, theta=0.5, lam=0.25, bins=8,
            mu_reference=0.0, exponent=0.25, prefactor=1.0,
            r_grid=[0.0, 0.1], t_grid=[1.0], n_states=5, n_mart=2)
        for name in ESTIMATORS:
            res = run_estimate(cfg, name, out_dir=tmp_path / name)
            assert res["records"], name
        assert run_verify(cfg, out_dir=tmp_path / "verify")["checks"] > 0

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


def changed_raw(changes: dict, **overrides) -> dict:
    """base_raw(**overrides) with each dotted path of changes set to its
    value, or removed where the value is None."""
    raw = base_raw(**overrides)
    for path, value in changes.items():
        *parents, key = path.split(".")
        block = raw
        for name in parents:
            block = block[name]
        if value is None:
            del block[key]
        else:
            block[key] = value
    return raw


def first_state(out) -> str:
    return (out / "trajectory.csv").read_text().splitlines()[2]


def occupation_bins(out) -> tuple:
    rec = json.loads((out / "estimate.jsonl").read_text().splitlines()[0])
    return rec["edges"], len(rec["masses"])


def verify_report(out) -> dict:
    return json.loads((out / "verify_report.json").read_text())


VERIFY_SMALL = {"kind": "verify", "n_states": 5, "n_mart": 2}


class TestCli:
    # paths no other test and no shipped run reaches, and the --seed bound,
    # which the CLI leaves to the config parser: a config error names its
    # field (exit 2), as does a run's "error: " message, or a run succeeds
    # and read(output directory) == value
    @pytest.mark.parametrize("raw, command, expected", [
        (changed_raw({"model.dt": 0.05, "model.dt_save": 0.07,
                      "model.t_end": 0.7}), ["simulate"],
         "model: dt_save must be an integer multiple of dt"),
        ([base_raw()], ["simulate"], "top level: expected a JSON object"),
        (base_raw(), ["simulate", "--seed", "-1"],
         "seed: must be >= 0, got -1\n"),
        (changed_raw({"model": 5}), ["simulate"],
         "model: expected an object"),
        (changed_raw({"jump.direction": {
            "kind": "constant", "coefficients": [1.0, 0, 0, 0, 0]}}),
         ["simulate"], "jump.direction.coefficients: "),
        (changed_raw({"jump.marks.kind": 3}), ["simulate"],
         "jump.marks.kind: "),
        (changed_raw({"jump.intensity": -1.0}), ["simulate"],
         "jump.intensity: must be nonnegative"),
        (changed_raw({"model.initial_condition": {"kind": "zero"}}),
         ["simulate"], (first_state, "0,0,0,0,0,0,0")),
        (changed_raw({}, experiment={"kind": "estimate",
                                     "bins": [-1, 0, 1]}),
         ["estimate", "occupation"], (occupation_bins, ([-1, 0, 1], 2))),
        (changed_raw({"jump.marks": {"kind": "deterministic", "value": 0.5}},
                     experiment=VERIFY_SMALL), ["verify"],
         (lambda out: verify_report(out)["checks"], 3 * 5)),
        (changed_raw({"gaussian": None, "jump.direction": {
            "kind": "constant", "coefficients": [0, 0, 0, 0]}},
                     experiment=VERIFY_SMALL), ["verify"],
         (lambda out: verify_report(out)["c1"], 1.0)),
        (changed_raw({"model.t_end": 10 ** 400}), ["simulate"],
         "model.t_end: too large for a float"),
        (changed_raw({"model.t_end": 1e308}), ["simulate"],
         "model: t_end / dt overflows: the step and snapshot counts are "
         "not finite"),
        (changed_raw({"model.n_modes": 10 ** 13}), ["simulate"],
         "model.n_modes: must be <= 1000000, got 10000000000000\n"),
        (changed_raw({"model.n_modes": 10 ** 400}), ["simulate"],
         "model.n_modes: must be <= 1000000, got 1000"),
        (changed_raw({"model.t_end": 1e12}), ["simulate"],
         "error: 1 x 100000000000001 snapshots of 4 modes (3.2e+15 bytes) "
         "do not fit in memory: lower model.t_end / model.dt_save or "
         "model.n_modes\n"),
        (changed_raw({}, experiment={"kind": "estimate", "n_traj": 4,
                                     "mu_reference": 0.0,
                                     "t_grid": [1e-12, 0.05]}),
         ["estimate", "tailprobe"], "experiment.t_grid[0]: must be a "
         "positive integer multiple of model.dt_save"),
        (changed_raw({}, experiment={"kind": "estimate", "n_traj": 4,
                                     "t_max": 1e-12}),
         ["estimate", "hitting"], "experiment.t_max: must be a positive "
         "integer multiple of model.dt_save"),
        (changed_raw({}, experiment={"kind": "estimate", "bins": 10 ** 12}),
         ["estimate", "occupation"],
         "experiment.bins: must be <= 1000000, got 1000000000000\n"),
        (changed_raw({}, experiment={"kind": "estimate",
                                     "n_points": 10 ** 12}),
         ["estimate", "gamma"],
         "experiment.n_points: must be <= 1000000, got 1000000000000\n"),
        # an existing file, not a directory (a read-only directory would
        # not stop a run as root)
        (base_raw(), ["simulate", "--out", os.devnull],
         f"error: cannot use {os.devnull} as the output directory: File "
         "exists\n"),
    ], ids=["dt_save-not-multiple", "top-level-list", "negative-seed-flag",
            "model-not-object", "too-many-coefficients",
            "mark-kind-not-string", "negative-intensity",
            "zero-initial-condition", "occupation-edge-list",
            "verify-deterministic-marks", "verify-zero-direction",
            "number-overflows-float", "step-count-overflows-float",
            "n_modes-above-ceiling", "n_modes-overflows-float",
            "snapshots-exceed-memory",
            "t_grid-below-save-interval", "t_max-below-save-interval",
            "bins-above-ceiling", "n_points-above-ceiling",
            "output-directory-is-a-file"])
    def test_rarely_reached_paths(self, tmp_path, capsys, raw, command,
                                  expected):
        code, err = run_cli(tmp_path, capsys, raw, *command)
        if isinstance(expected, str):
            assert code == 2
            if not expected.startswith("error: "):
                expected = f"config error: {expected}"
            assert err.startswith(expected), err
        else:
            read, value = expected
            assert (code, err) == (0, "")
            assert read(tmp_path / "out") == value

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

    def test_rerun_writes_new_files(self, tmp_path, capsys):
        # a rerun into the same directory writes each output as a new file,
        # so a hard link keeps the old bytes, and a clean verify removes an
        # earlier run's failure table
        out = tmp_path / "out"
        failing = base_raw(experiment={**VERIFY_SMALL, "c1_override": 0.01})
        assert run_cli(tmp_path, capsys, failing, "verify")[0] == 1
        report, table = out / "verify_report.json", out / "verify_failures.csv"
        assert table.exists()
        old = tmp_path / "old_report.json"
        os.link(report, old)
        old_bytes = old.read_bytes()
        clean = base_raw(experiment=VERIFY_SMALL)
        assert run_cli(tmp_path, capsys, clean, "verify") == (0, "")
        assert not table.exists()
        assert report.stat().st_ino != old.stat().st_ino
        assert old.read_bytes() == old_bytes != report.read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["verify_report.json"]

    @pytest.mark.parametrize("command, failing, code, blowups", [
        ("simulate", changed_raw({"model.t_end": 1e12}), 2, 0),
        ("simulate", changed_raw({"model.nonlinearity": False,
                                  "model.initial_condition": {
                                      "kind": "modes",
                                      "coefficients": [2e6]}}), 3, 1),
        ("verify", base_raw(experiment={**VERIFY_SMALL, "lam": 1e9}), 2, 0),
    ], ids=["snapshots-exceed-memory", "blowup", "verify-lam-too-large"])
    def test_failed_rerun_leaves_only_its_manifest(self, tmp_path, capsys,
                                                   command, failing, code,
                                                   blowups):
        # a rerun that fails in its runner removes the earlier run's files
        # and writes its own manifest, which lists no output
        out = tmp_path / "out"
        first = base_raw(experiment=VERIFY_SMALL)
        assert run_cli(tmp_path, capsys, first, command) == (0, "")
        assert run_cli(tmp_path, capsys, failing, command)[0] == code
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == []
        assert manifest["blowup_count"] == blowups
        assert manifest["config_hash"] == config_hash(failing)

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
        manifest = json.loads((tmp_path / "out" / "manifest.json")
                              .read_text())
        assert manifest["blowup_count"] == 1
        assert manifest["outputs"] == []

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
        manifest = json.loads((tmp_path / "out" / "manifest.json")
                              .read_text())
        assert manifest["blowup_count"] == 4
        assert manifest["outputs"] == []

    @pytest.mark.parametrize("prefix", [
        "scipy",                # numpy is the only run-time dependency
        "numpy.polynomial",     # the Laguerre rule is stored, not built
        "signal",               # imported where a failed fan-out kills
        "dataclasses",          # records are built without generated code
    ])
    def test_cli_does_not_import(self, prefix):
        # start-up loads only what every command needs before it runs
        src = str(Path(sburgers.__file__).resolve().parents[1])
        code = (f"import sys, sburgers.cli; print(sorted(m for m in "
                f"sys.modules if m == {prefix!r} or "
                f"m.startswith({prefix + '.'!r})))")
        run = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=60,
                             check=True)
        assert run.stdout.strip() == "[]"

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

    def test_hitting_threads_identical(self, tmp_path, capsys):
        # one path more than a block, so two workers share the blocks
        raw = base_raw(experiment={"kind": "estimate",
                                   "n_traj": BLOCK_ROWS + 1, "t_max": 0.2,
                                   "initial_v_norm": 7.0})
        raw["model"].update(n_modes=8, dt=2e-3)
        path = write_config(tmp_path, raw)
        for threads in ("1", "2"):
            assert main(["estimate", "hitting", "--config", path,
                         "--threads", threads,
                         "--out", str(tmp_path / threads)]) == 0
        for name in ("estimate.jsonl", "estimate.csv"):
            assert (tmp_path / "1" / name).read_bytes() == \
                (tmp_path / "2" / name).read_bytes()
        rec = json.loads((tmp_path / "1" / "estimate.jsonl").read_text())
        assert rec["n"] == BLOCK_ROWS + 1 and rec["n_censored"] < rec["n"]
        capsys.readouterr()

    def test_hitting_t_max_off_save_grid_exit_two(self, tmp_path, capsys):
        raw = base_raw(experiment={"kind": "estimate", "n_traj": 4,
                                   "t_max": 0.055})
        path = write_config(tmp_path, raw)
        code = main(["estimate", "hitting", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "experiment.t_max" in err and "t_end" not in err

    def test_tailprobe_t_grid_off_save_grid_exit_two(self, tmp_path,
                                                     capsys):
        # 0.055 is no multiple of dt_save = 0.01, whether or not it is the
        # largest time; an empty grid has no end
        for t_grid, field in (([0.05, 0.055], "experiment.t_grid[1]"),
                              ([0.055, 0.1], "experiment.t_grid[0]"),
                              ([], "experiment.t_grid")):
            raw = base_raw(experiment={"kind": "estimate", "n_traj": 4,
                                       "mu_reference": 0.0,
                                       "t_grid": t_grid})
            path = write_config(tmp_path, raw)
            code = main(["estimate", "tailprobe", "--config", path,
                         "--out", str(tmp_path / "out")])
            assert code == 2
            err = capsys.readouterr().err
            assert field in err and "t_end" not in err

    @pytest.mark.parametrize("r_grid, field", [
        (0.1, "experiment.r_grid:"), (["a"], "experiment.r_grid[0]:")])
    def test_tailprobe_r_grid_not_numbers_exit_two(self, tmp_path, capsys,
                                                   r_grid, field):
        raw = base_raw(experiment={"kind": "estimate", "n_traj": 4,
                                   "mu_reference": 0.0, "r_grid": r_grid})
        path = write_config(tmp_path, raw)
        code = main(["estimate", "tailprobe", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("estimator",
                             ["sigma2", "occupation", "mdp", "tailprobe"])
    @pytest.mark.parametrize("kind, k", [("mode", 99), ("tanh_mode", 9)])
    def test_observable_mode_past_n_modes_exit_two(self, tmp_path, capsys,
                                                   estimator, kind, k):
        raw = base_raw(experiment={"kind": "estimate",
                                   "observable": {"kind": kind, "k": k}})
        raw["model"]["n_modes"] = 8
        path = write_config(tmp_path, raw)
        code = main(["estimate", estimator, "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: experiment.observable.k: {k} exceeds "
            f"n_modes=8\n")

    @pytest.mark.parametrize("bins, field", [
        ([], "experiment.bins:"), ([1.0], "experiment.bins:"),
        ([2.0, 1.0], "experiment.bins:"),
        ([0.0, 1.0, 1.0], "experiment.bins:"),
        ([0.0, "a"], "experiment.bins[1]:")])
    def test_occupation_bins_list_exit_two(self, tmp_path, capsys, bins,
                                           field):
        raw = base_raw(experiment={"kind": "estimate", "bins": bins})
        path = write_config(tmp_path, raw)
        code = main(["estimate", "occupation", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field, value", [
        ("experiment.mu_reference", math.nan),
        ("gaussian.betas[2]", math.inf), ("model.dt", -math.inf)])
    def test_non_finite_number_exit_two(self, tmp_path, capsys, field,
                                        value):
        # Python's json reads NaN, Infinity and -Infinity; they are named
        # by their path before the config is hashed
        raw = base_raw(gaussian={"betas": [1.0, 0.5, 0.25, 0.125]},
                       experiment={"kind": "estimate", "n_traj": 4,
                                   "mu_reference": 0.0})
        block, _, key = field.partition(".")
        if key.endswith("]"):
            raw[block]["betas"][2] = value
        else:
            raw[block][key] = value
        path = write_config(tmp_path, raw)
        text = Path(path).read_text()
        assert "NaN" in text or "Infinity" in text
        code = main(["estimate", "tailprobe", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: {field}: expected a finite number, "
            f"got {value}\n")

    @pytest.mark.parametrize("estimator", ["mdp", "tailprobe"])
    def test_self_referenced_mean_short_path_exit_two(self, tmp_path, capsys,
                                                      estimator):
        # the shipped path has 91 samples after burn-in, too few batches
        path = Path(__file__).resolve().parents[1] / "configs" / \
            "jumps_only.json"
        code = main(["estimate", estimator, "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: model.t_end")
        assert "experiment.mu_reference" in err

    @pytest.mark.parametrize("estimator", ["mdp", "tailprobe"])
    def test_self_referenced_mean_needs_only_its_batches(self, tmp_path,
                                                         capsys, estimator):
        # a_3 has 30 batch means on this path; psi, whose batch means the
        # mean does not use, has only 24
        raw = json.loads((ROOT / "configs" / "jumps_only.json").read_text())
        raw["model"].update(t_end=60, dt=0.01, dt_save=0.05)
        raw.update(gaussian={"betas": [0.3, 1, 1, 1]},
                   experiment={"kind": "estimate", "n_traj": 4,
                               "observable": {"kind": "mode", "k": 3}})
        assert run_cli(tmp_path, capsys, raw, "estimate", estimator) == \
            (0, "")

    @pytest.mark.parametrize("command, lam, verb", [
        (["verify"], 3.0, "exceeds"),
        (["estimate", "expmoment"], 3.0, "exceeds"),
        (["verify"], 2.0, "reaches"),
        (["estimate", "expmoment"], 2.0, "reaches")],
        ids=["verify", "expmoment", "verify-at-limit", "expmoment-at-limit"])
    def test_tilt_past_jump_limit_names_the_field(self, tmp_path, capsys,
                                                  command, lam, verb):
        # at the limit 2.0 itself M_lambda is infinite: the supermartingale
        # is 0 on every path and the moment bound infinite, so both runs
        # would report a vacuous result
        raw = json.loads((ROOT / "configs" / "jumps_only.json").read_text())
        raw["experiment"] = {"kind": command[0], "lam": lam, "n_traj": 4,
                             "n_mart": 4}
        assert run_cli(tmp_path, capsys, raw, *command) == \
            (2, f"config error: experiment.lam: {lam} {verb} the admissible "
                "maximum 2.0 of the jump forcing\n")
        # the library keeps its own answers for API callers
        sim = parse_config(raw).sim
        if lam > 2.0:
            with pytest.raises(DivergentMomentError):
                tilt_constants(sim, lam)
        else:
            assert tilt_constants(sim, lam)[0] == math.inf

    @pytest.mark.parametrize("command, observable, message", [
        (["verify"], {"kind": "mode", "bogus": 1}, "bogus: unknown field"),
        (["estimate", "hitting"], {"kind": "psi", "k": 1},
         "k: unknown field"),
        (["verify"], {"kind": "mode", "k": 9}, "k: 9 exceeds n_modes=4")],
        ids=["verify-bogus", "hitting-psi-k", "verify-k-past-n_modes"])
    def test_observable_checked_by_every_command(self, tmp_path, capsys,
                                                 command, observable,
                                                 message):
        raw = base_raw(experiment={"kind": command[0], "n_traj": 4,
                                   "observable": observable})
        assert run_cli(tmp_path, capsys, raw, *command) == \
            (2, f"config error: experiment.observable.{message}\n")

    def test_sigma2_checks_n_batches_before_stepping(self, tmp_path, capsys,
                                                     monkeypatch):
        def no_steps(sim):
            raise AssertionError("simulate called")

        monkeypatch.setattr(harness, "simulate", no_steps)
        raw = base_raw(experiment={"kind": "estimate", "n_batches": 10})
        assert run_cli(tmp_path, capsys, raw, "estimate", "sigma2") == \
            (2, "config error: experiment.n_batches: must be >= 30, "
                "got 10\n")

    @pytest.mark.parametrize("name", ["jumps_only", "default_run"])
    def test_sigma2_short_path_exit_two(self, tmp_path, capsys, name):
        # too few samples for 30 batch means of 20 correlation times each
        path = Path(__file__).resolve().parents[1] / "configs" / \
            f"{name}.json"
        code = main(["estimate", "sigma2", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: model.t_end")
        assert "experiment.burn_in" in err
        assert "experiment.n_batches" in err

    def test_hitting_fans_out_without_pool_modules(self, tmp_path):
        # the fan-out is os.fork and pipes: no executor or pool machinery
        raw = base_raw(experiment={"kind": "estimate",
                                   "n_traj": BLOCK_ROWS + 1, "t_max": 0.2,
                                   "initial_v_norm": 7.0})
        raw["model"].update(n_modes=8, dt=2e-3)
        path = write_config(tmp_path, raw)
        src = str(Path(sburgers.__file__).resolve().parents[1])
        code = ("import sys\n"
                "from sburgers.cli import main\n"
                f"code = main(['estimate', 'hitting', '--config', {path!r}, "
                f"'--threads', '2', '--out', {str(tmp_path / 'out')!r}])\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] in "
                "('concurrent', 'multiprocessing')))\n"
                "sys.exit(code)\n")
        run = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=60,
                             check=True)
        assert run.stdout.splitlines()[-1] == "[]"

    def test_hitting_and_gamma_leave_numpy_ma_unloaded(self, tmp_path):
        # np.quantile and a plain np.unique import numpy.ma (about 13 ms);
        # the estimators compute the same numbers without them.  verify
        # reads the stored Gauss-Laguerre rule, so no run loads
        # numpy.polynomial either
        raw = base_raw(experiment={"kind": "estimate", "n_traj": 40,
                                   "t_max": 0.2, "initial_v_norm": 7.0,
                                   "n_states": 5, "n_mart": 4})
        raw["model"].update(n_modes=8, dt=2e-3, t_end=0.2)
        path = write_config(tmp_path, raw)
        src = str(Path(sburgers.__file__).resolve().parents[1])
        code = ("import sys\n"
                "from sburgers.cli import main\n"
                "for verb in (['estimate', 'hitting'], ['estimate', 'gamma'],"
                " ['verify']):\n"
                f"    code = main([*verb, '--config', {path!r}, "
                f"'--out', {str(tmp_path / 'out')!r}])\n"
                "    print(verb[-1], code, 'numpy.ma' in sys.modules,\n"
                "          'numpy.polynomial' in sys.modules)\n")
        run = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=60,
                             check=True)
        seen = [ln for ln in run.stdout.splitlines()
                if ln.startswith(("hitting ", "gamma ", "verify "))]
        assert seen == ["hitting 0 False False", "gamma 0 False False",
                        "verify 0 False False"]

    def test_expmoment_domain_error_exit_two(self, tmp_path, capsys):
        raw = base_raw(experiment={"kind": "estimate", "theta": 0.5,
                                   "lam": 2.5, "n_traj": 4})
        path = write_config(tmp_path, raw)
        code = main(["estimate", "expmoment", "--config", path,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("estimator, field, value, message", [
        ("expmoment", "lam", -1, "must be positive, got -1.0"),
        ("expmoment", "theta", 0, "must be positive, got 0.0"),
        ("expmoment", "theta", 1, "must be below 1.0, got 1.0"),
        ("mdp", "exponent", 0.6, "must be below 0.5, got 0.6"),
        ("mdp", "exponent", 0, "must be positive, got 0.0")])
    def test_estimator_range_names_the_field(self, tmp_path, capsys,
                                             estimator, field, value,
                                             message):
        raw = base_raw(experiment={"kind": "estimate", "n_traj": 4,
                                   "mu_reference": 0.0, field: value})
        assert run_cli(tmp_path, capsys, raw, "estimate", estimator) == \
            (2, f"config error: experiment.{field}: {message}\n")

    def test_bad_threads_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, base_raw())
        assert main(["estimate", "occupation", "--config", path,
                     "--threads", "0"]) == 2
        assert "--threads" in capsys.readouterr().err
        # simulate runs one path and takes no --threads
        assert main(["simulate", "--config", path, "--threads", "2"]) == 2
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

    @pytest.mark.parametrize("exit_code", [0, 1, 2, 3])
    def test_process_exit_loses_nothing(self, tmp_path, exit_code):
        # a real interpreter exit, teardown included, for each exit code
        shipped = Path(__file__).resolve().parents[1] / "configs"
        blowup = base_raw()
        blowup["model"]["nonlinearity"] = False
        blowup["model"]["initial_condition"] = {
            "kind": "modes", "coefficients": [2e6]}
        negative = base_raw(experiment={"kind": "verify", "n_states": 5,
                                        "n_mart": 2, "c1_override": 0.5})
        args, message = {
            0: (["simulate", "--config", str(shipped / "jumps_only.json")],
                None),
            1: (["verify", "--config",
                 write_config(tmp_path, negative, "verify.json")],
                "verify: 5 inequality failures"),
            2: (["estimate", "bogus",
                 "--config", write_config(tmp_path, base_raw())],
                "config error: unknown estimator 'bogus'"),
            3: (["simulate", "--config",
                 write_config(tmp_path, blowup, "blowup.json")],
                "blow-up: ||x||_H"),
        }[exit_code]
        out = tmp_path / "out"
        src = str(Path(sburgers.__file__).resolve().parents[1])
        # block-buffered stdout, so an exit that skipped its flush would show
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        run = subprocess.run(
            [sys.executable, "-m", "sburgers.cli", *args, "--out", str(out)],
            env=dict(env, PYTHONPATH=src), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=60)
        assert run.returncode == exit_code
        paths = []
        if exit_code in (0, 1):
            result = json.loads(run.stdout.splitlines()[-1])
            assert result["config_hash"]
            paths += [Path(p) for p in result.get("outputs", [])]
        if message is None:
            assert run.stderr == ""
        else:
            assert run.stderr.startswith(message)
        if (out / "manifest.json").exists():
            manifest = json.loads((out / "manifest.json").read_text())
            paths += [out / "manifest.json"]
            paths += [out / name for name in manifest["outputs"]]
        assert exit_code == 2 or paths
        for p in paths:
            assert p.stat().st_size > 0, p

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(),
                        reason="needs /proc/self/fd")
    def test_main_leaves_no_file_open(self, tmp_path, capsys):
        # the exit leaves live objects to the OS, so no output file may
        # rely on a collection to be closed
        fan_out = base_raw(experiment={"kind": "estimate",
                                       "n_traj": BLOCK_ROWS + 1,
                                       "t_max": 0.2, "initial_v_norm": 7.0})
        fan_out["model"].update(n_modes=8, dt=2e-3)
        verify = base_raw(experiment={"kind": "verify", "n_states": 5,
                                      "n_mart": BLOCK_ROWS + 1})
        sigma2 = {
            "model": {"n_modes": 1, "dt": 1e-2, "t_end": 40.0,
                      "dt_save": 1e-2, "nonlinearity": False},
            "gaussian": {"betas": [1.0]},
            "seed": 5,
            "experiment": {"kind": "estimate",
                           "observable": {"kind": "mode", "k": 1},
                           "burn_in": 1.0, "n_batches": 30},
        }
        runs = [
            ["simulate", "--config", write_config(tmp_path, base_raw(),
                                                  "simulate.json")],
            ["verify", "--config", write_config(tmp_path, verify,
                                                "verify.json"),
             "--threads", "2"],
            ["estimate", "hitting", "--config",
             write_config(tmp_path, fan_out, "hitting.json"),
             "--threads", "2"],
            ["estimate", "sigma2", "--config",
             write_config(tmp_path, sigma2, "sigma2.json")],
        ]
        for i, argv in enumerate(runs):
            before = sorted(os.listdir("/proc/self/fd"))
            assert main(argv + ["--out", str(tmp_path / str(i))]) == 0
            assert sorted(os.listdir("/proc/self/fd")) == before, argv
        capsys.readouterr()
