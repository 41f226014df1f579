"""Command line driver: exit codes, output routing, artifact layout."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import levyem
from levyem.cli import main
from levyem.experiments import entry_config


def _write_cfg(path, cfg):
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return str(path)


def _small_convergence_cfg(**extra):
    cfg = entry_config("paper-5.1c")
    cfg.update(
        {
            "dts": [2.0 ** -3, 2.0 ** -4, 2.0 ** -5],
            "reference_dt": 2.0 ** -7,
            "n_paths": 128,
            "master_seed": 99,
        }
    )
    cfg.update(extra)
    return cfg


def _small_measure_cfg(**extra):
    cfg = entry_config("paper-5.4")
    cfg.update(
        {
            "dt": 0.05,
            "checkpoints": [0.2, 1.0, 5.0],
            "ratio_times": [0.2, 1.0],
            "n_paths": 128,
            "master_seed": 7,
        }
    )
    cfg.update(extra)
    return cfg


# ---------------------------------------------------------------------------
# list


def test_list_prints_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("paper-5.1a", "paper-5.1b", "paper-5.1c", "paper-5.2", "paper-5.3", "paper-5.4"):
        assert name in out


# ---------------------------------------------------------------------------
# run: happy paths


def test_run_convergence_writes_artifacts(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path / "conv.json", _small_convergence_cfg())
    out_dir = tmp_path / "out"
    assert main(["run", cfg_path, "--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "order" in stdout
    assert "guaranteed order: 0.5000" in stdout
    assert "band [0.4, inf): " in stdout
    assert {p.name for p in out_dir.iterdir()} == {
        "strong_errors.csv",
        "rmse_vs_dt.dat",
        "summary.json",
    }
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["experiment"] == "convergence"
    assert summary["problem"] == "paper-5.1c"
    assert summary["band"] == [0.4, None]


def test_run_measure_writes_artifacts(tmp_path, capsys):
    cfg = _small_measure_cfg(reference={"kind": "final-snapshot"})
    cfg_path = _write_cfg(tmp_path / "meas.json", cfg)
    out_dir = tmp_path / "out"
    assert main(["run", cfg_path, "--out", str(out_dir)]) == 0
    names = {p.name for p in out_dir.iterdir()}
    assert "distance_table.csv" in names
    assert "summary.json" in names
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["experiment"] == "invariant-measure"
    assert "wasserstein_ratio" in summary


def test_run_flags_override_config(tmp_path):
    cfg_path = _write_cfg(tmp_path / "conv.json", _small_convergence_cfg())
    out_dir = tmp_path / "out"
    assert main(["run", cfg_path, "--out", str(out_dir), "--paths", "112", "--seed", "5"]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["params"]["n_paths"] == 112
    assert summary["params"]["master_seed"] == 5


def test_rerun_is_byte_identical(tmp_path):
    cfg_path = _write_cfg(tmp_path / "conv.json", _small_convergence_cfg())
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg_path, "--out", str(a)]) == 0
    assert main(["run", cfg_path, "--out", str(b)]) == 0
    assert (a / "strong_errors.csv").read_bytes() == (b / "strong_errors.csv").read_bytes()
    assert (a / "rmse_vs_dt.dat").read_bytes() == (b / "rmse_vs_dt.dat").read_bytes()


# ---------------------------------------------------------------------------
# run: output directory precedence


def test_out_dir_from_environment(tmp_path, monkeypatch, capsys):
    cfg_path = _write_cfg(tmp_path / "conv.json", _small_convergence_cfg())
    monkeypatch.setenv("LEVYEM_OUT", str(tmp_path / "envroot"))
    assert main(["run", cfg_path]) == 0
    target = tmp_path / "envroot" / "conv"
    assert (target / "summary.json").exists()
    assert str(target) in capsys.readouterr().out


def test_out_flag_beats_environment(tmp_path, monkeypatch):
    cfg_path = _write_cfg(tmp_path / "conv.json", _small_convergence_cfg())
    monkeypatch.setenv("LEVYEM_OUT", str(tmp_path / "envroot"))
    out_dir = tmp_path / "flagged"
    assert main(["run", cfg_path, "--out", str(out_dir)]) == 0
    assert (out_dir / "summary.json").exists()
    assert not (tmp_path / "envroot").exists()


def test_out_dir_from_config_field(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _small_convergence_cfg(output_dir=str(tmp_path / "cfgout"))
    cfg_path = _write_cfg(tmp_path / "conv.json", cfg)
    assert main(["run", cfg_path]) == 0
    assert (tmp_path / "cfgout" / "summary.json").exists()


def test_out_dir_default_under_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LEVYEM_OUT", raising=False)
    cfg_path = _write_cfg(tmp_path / "conv.json", _small_convergence_cfg())
    assert main(["run", cfg_path]) == 0
    assert (tmp_path / "levyem-runs" / "conv" / "summary.json").exists()


# ---------------------------------------------------------------------------
# run: failure exit codes


def test_missing_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


def test_unparseable_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"experiment": "convergence",,}\n')
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:1:" in err  # line:col diagnostics


def test_precondition_failure_exits_3(tmp_path, capsys):
    # strong-order measurement requires a finite second moment; the
    # heavy-tailed pure-stable driver fails that precondition
    cfg = _small_convergence_cfg()
    cfg["problem"] = entry_config("paper-5.3")["problem"]
    cfg_path = _write_cfg(tmp_path / "heavy.json", cfg)
    assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 3
    assert "precondition" in capsys.readouterr().err


def test_zero_paths_exits_3(tmp_path, capsys):
    cfg_path = str(Path(__file__).resolve().parents[1] / "configs" / "paper-5.3.json")
    assert main(["run", cfg_path, "--paths", "0", "--out", str(tmp_path / "o")]) == 3
    assert "n_paths must be >= 1, got 0" in capsys.readouterr().err


_SAMPLER_CFG = {"experiment": "sampler-validation", "problem": "paper-5.4", "n": 64, "times": [0.5]}
_PROBE_CFG = {"experiment": "probe-assumptions", "problem": "paper-5.4", "n_pairs": 64}


@pytest.mark.parametrize(
    "cfg, workers",
    [
        pytest.param(None, "0", id="0"),
        pytest.param(None, "-2", id="-2"),
        pytest.param(_SAMPLER_CFG, "0", id="sampler-validation-0"),
        pytest.param(_PROBE_CFG, "0", id="probe-assumptions-0"),
    ],
)
def test_worker_count_below_one_exits_3(tmp_path, capsys, cfg, workers):
    # every kind checks workers, also those that never start a pool
    if cfg is None:
        cfg_path = str(Path(__file__).resolve().parents[1] / "configs" / "paper-5.3.json")
    else:
        cfg_path = _write_cfg(tmp_path / "cfg.json", cfg)
    out_dir = tmp_path / "o"
    assert main(["run", cfg_path, "--workers", workers, "--out", str(out_dir)]) == 3
    assert f"workers must be an integer >= 1, got {workers}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "cfg", [_PROBE_CFG, _SAMPLER_CFG], ids=["probe-assumptions", "sampler-validation"]
)
def test_paths_flag_on_a_kind_that_draws_no_paths_exits_3(tmp_path, capsys, cfg):
    # --paths is the key n_paths, which these kinds do not read: it is refused, not ignored
    cfg_path = _write_cfg(tmp_path / "cfg.json", cfg)
    out_dir = tmp_path / "o"
    assert main(["run", cfg_path, "--paths", "7", "--out", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert f"field 'n_paths' is not read by a {cfg['experiment']} experiment; allowed: " in err
    assert not out_dir.exists()


def test_seed_flag_applies_to_a_probe_run(tmp_path):
    # --seed reaches every kind; test_seed_above_float_precision_runs_as_given covers the sampler
    cfg_path = _write_cfg(tmp_path / "probe.json", _PROBE_CFG)
    out_dir = tmp_path / "o"
    assert main(["run", cfg_path, "--seed", "5", "--out", str(out_dir)]) == 0
    assert json.loads((out_dir / "summary.json").read_text())["params"]["seed"] == 5


def test_tempering_past_the_piece_cap_exits_3(tmp_path, capsys):
    # tempering 200 at dt = 1 needs 625 sampler pieces per increment, above the cap of 64
    cfg = _small_measure_cfg(dt=1.0, checkpoints=[1.0, 2.0], ratio_times=[1.0, 2.0])
    cfg["problem"]["noise"]["tempering"] = 200.0
    cfg_path = _write_cfg(tmp_path / "steep.json", cfg)
    out_dir = tmp_path / "o"
    assert main(["run", cfg_path, "--workers", "1", "--out", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert "625 pieces" in err and "tempering" in err and "dt" in err
    assert not out_dir.exists()


def _package_env():
    """The environment, with the package under test importable, installed or not."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(levyem.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    ))


@pytest.mark.parametrize(
    "key, value",
    [("n_pairs", 0), ("n_pairs", -5), ("radius", 0), ("radius", -1)],
    ids=["n_pairs-0", "n_pairs--5", "radius-0", "radius--1"],
)
def test_bad_probe_block_exits_3(tmp_path, key, value):
    # a subprocess with a timeout, so that a probe stuck redrawing fails the test
    cfg_path = _write_cfg(tmp_path / "probe.json", dict(_PROBE_CFG, **{key: value}))
    proc = subprocess.run(
        [sys.executable, "-m", "levyem.cli", "run", cfg_path, "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=60, env=_package_env(),
    )
    assert proc.returncode == 3, proc.stderr
    assert f"'{key}'" in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n", [1, 0])
def test_sampler_validation_needs_two_draws(tmp_path, capsys, n):
    # one draw has no standard error: every z would be NaN
    cfg_path = _write_cfg(tmp_path / "sampler.json", dict(_SAMPLER_CFG, n=n))
    assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 3
    assert "'n'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field", ["times", "u_grid"])
def test_sampler_validation_needs_values(tmp_path, capsys, field):
    cfg_path = _write_cfg(tmp_path / "sampler.json", dict(_SAMPLER_CFG, **{field: []}))
    assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 3
    assert f"'{field}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_seed_above_float_precision_runs_as_given(tmp_path):
    cfg_path = _write_cfg(tmp_path / "sampler.json", _SAMPLER_CFG)
    for seed in (2**53 + 1, 10**400):
        out_dir = tmp_path / str(seed)[:8]
        assert main(["run", cfg_path, "--seed", str(seed), "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["params"]["master_seed"] == seed


@pytest.mark.parametrize(
    "key, value", [("n_paths", 128.9), ("dt", "0.05"), ("master_seed", "7"), ("dt", math.nan)]
)
def test_uncoercible_run_numbers_exit_3(tmp_path, capsys, key, value):
    cfg = _small_measure_cfg(**{key: value})
    cfg_path = _write_cfg(tmp_path / "strict.json", cfg)
    assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 3
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("noise", "kind", "compound_poisson"),
        ("noise", "rate", 2.0),
        ("noise", "jump_law", {"kind": "normal", "mu": 0.0, "sigma": 1.0}),
        (None, "declared_probes", ["one_sided"]),
    ],
)
def test_removed_problem_inputs_exit_3(tmp_path, capsys, block, key, value):
    cfg = _small_measure_cfg()
    target = cfg["problem"] if block is None else cfg["problem"][block]
    target[key] = value
    cfg_path = _write_cfg(tmp_path / "removed.json", cfg)
    assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 3
    assert key in capsys.readouterr().err


def _noise_lambda_cfg():
    cfg = _small_measure_cfg()
    noise = cfg["problem"]["noise"]
    noise["lambda"] = noise.pop("tempering")
    return cfg


@pytest.mark.parametrize(
    "cfg, key, allowed",
    [
        pytest.param(
            _small_convergence_cfg(error_mode="terminal"), "error_mode", "reference_dt",
            id="error_mode",
        ),
        pytest.param(_noise_lambda_cfg(), "lambda", "'tempering'", id="noise-lambda"),
    ],
)
def test_removed_options_exit_3(tmp_path, capsys, cfg, key, allowed):
    cfg_path = _write_cfg(tmp_path / "removed.json", cfg)
    assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert key in err and "allowed: " in err and allowed in err
    assert not (tmp_path / "o").exists()


def test_duplicate_checkpoints_exit_3(tmp_path, capsys):
    cfg = _small_measure_cfg(checkpoints=[0.2, 0.2, 1.0, 5.0])
    cfg_path = _write_cfg(tmp_path / "dup.json", cfg)
    assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 3
    assert "'checkpoints'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_step_failure_exits_4(tmp_path, capsys):
    cfg = _small_convergence_cfg()
    cfg["problem"] = {
        "name": "runaway",
        "dim": 1,
        "drift": [{"coeff": 1.0, "x_power": 2}],
        "x0": 1000.0,
        "horizon": 1.0,
        "monotone_bound": 0.0,
        "constants": {
            "H": 1.0, "sigma": 1.0, "q": 10.0, "M": 1.0,
            "K1": 1.0, "K2": 1.0, "gamma1": 0.5, "gamma2": 0.5,
        },
        "noise": {"kind": "none", "brownian_dim": 0},
    }
    cfg_path = _write_cfg(tmp_path / "runaway.json", cfg)
    assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "simulation failed" in err
    # every path blows up on the first step of the 2^-7 reference run
    assert "at path=0 step=1 t=0.0078125" in err


def test_unwritable_out_dir_exits_3(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path / "conv.json", _small_convergence_cfg())
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file, not a directory\n")
    assert main(["run", cfg_path, "--out", str(blocker / "sub")]) == 3
    assert capsys.readouterr().err != ""


# ---------------------------------------------------------------------------
# packaging


def test_console_script_list():
    proc = subprocess.run(
        [sys.executable, "-m", "levyem.cli", "list"],
        capture_output=True,
        text=True,
        timeout=120,
        env=_package_env(),
    )
    assert proc.returncode == 0
    assert "paper-5.4" in proc.stdout
