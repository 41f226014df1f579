"""Experiment catalog, config execution, and on-disk run artifacts."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import levyem.engine as engine
import levyem.experiments as experiments
import levyem.measures as measures
from levyem.convergence import predicted_order
from levyem.errors import ConfigurationError
from levyem.experiments import (
    ConvergenceResult,
    MeasureResult,
    ProbeResult,
    SamplerResult,
    catalog,
    entry_config,
    execute_config,
    format_band,
    run_probe_assumptions,
    run_sampler_validation,
    write_run,
)
from levyem.problems import builtin_problem, builtin_problem_names

EXPECTED_NAMES = [
    "paper-5.1a",
    "paper-5.1b",
    "paper-5.1c",
    "paper-5.2",
    "paper-5.3",
    "paper-5.4",
]


# ---------------------------------------------------------------------------
# Catalog


def test_catalog_names_and_stability():
    entries = catalog()
    assert list(entries) == EXPECTED_NAMES
    assert list(catalog()) == EXPECTED_NAMES
    assert builtin_problem_names() == EXPECTED_NAMES


def test_catalog_entries_have_bands_and_defaults():
    for name, entry in catalog().items():
        assert entry.name == name
        assert entry.kind in ("convergence", "invariant-measure")
        lo, hi = entry.band
        assert lo < hi
        assert entry.headline >= lo
        assert name in entry.describe()
        assert entry.metric in entry.describe()


def test_convergence_bands_are_floors_under_the_guaranteed_order():
    floors = {"paper-5.1a": 0.12, "paper-5.1b": 0.12, "paper-5.1c": 0.40, "paper-5.2": 0.65}
    for name, floor in floors.items():
        entry = catalog()[name]
        problem = builtin_problem(name)
        assert entry.band == (floor, math.inf)
        assert entry.headline == predicted_order(
            problem.constants, problem.noise, problem.diffusion is not None
        )
        assert floor <= entry.headline
        assert entry_config(name)["band"] == [floor, None]


def test_format_band_marks_open_edges():
    assert format_band((0.12, math.inf)) == "[0.12, inf)"
    assert format_band((0.0, 0.2)) == "[0, 0.2]"


def test_bundled_configs_match_the_catalog():
    config_dir = Path(__file__).resolve().parents[1] / "configs"
    files = sorted(config_dir.glob("*.json"))
    assert [f.stem for f in files] == EXPECTED_NAMES
    for path in files:
        assert json.loads(path.read_text()) == entry_config(path.stem), path.name


def test_entry_config_is_self_contained_and_json_round_trips():
    for name in EXPECTED_NAMES:
        cfg = entry_config(name)
        assert cfg["experiment"] in ("convergence", "invariant-measure")
        assert isinstance(cfg["problem"], dict)  # inline, no registry lookup needed
        clone = json.loads(json.dumps(cfg))
        assert clone == cfg
        # the inline problem definition must rebuild the named builtin
        from levyem.problems import problem_from_config

        rebuilt = problem_from_config(cfg["problem"])
        ref = builtin_problem(name)
        assert rebuilt.name == ref.name
        for t, x in ((0.5, 1.3), (1.0, -2.0)):
            assert rebuilt.drift(t, x) == pytest.approx(ref.drift(t, x), rel=1e-12)


def test_entry_config_unknown_name():
    with pytest.raises(ConfigurationError, match="paper-0.0"):
        entry_config("paper-0.0")


def test_entry_config_mutation_does_not_leak():
    cfg = entry_config("paper-5.3")
    cfg["n_paths"] = 7
    cfg["problem"]["drift"] = []
    cfg["problem"]["noise"]["alpha"] = 0.5
    fresh = entry_config("paper-5.3")
    assert fresh["n_paths"] == 10_000
    assert fresh["problem"]["drift"]
    assert fresh["problem"]["noise"]["alpha"] == 1.5


# ---------------------------------------------------------------------------
# execute_config validation diagnostics


def test_rejects_unknown_experiment_kind():
    with pytest.raises(ConfigurationError, match="nonsense"):
        execute_config({"experiment": "nonsense"})


def test_rejects_an_experiment_that_is_not_a_name():
    # a list is not a key of the kind table: named, not a TypeError
    with pytest.raises(ConfigurationError, match=r"field 'experiment': got \['convergence'\]"):
        execute_config({"experiment": ["convergence"]})


@pytest.mark.parametrize(
    "cfg",
    [
        {"experiment": "probe-assumptions", "problem": "paper-5.4", "n_pairs": 200},
        {"experiment": "sampler-validation", "problem": "paper-5.4", "n": 500},
    ],
    ids=["probe-assumptions", "sampler-validation"],
)
def test_paths_override_is_refused_by_kinds_that_draw_no_paths(cfg):
    kind = cfg["experiment"]
    with pytest.raises(
        ConfigurationError, match=f"^field 'n_paths' is not read by a {kind} experiment; allowed: "
    ):
        execute_config(cfg, n_paths=7)


def test_rejects_non_dict_root():
    with pytest.raises(ConfigurationError, match="object"):
        execute_config([1, 2, 3])


def test_reports_missing_field_by_name():
    with pytest.raises(ConfigurationError, match="'dts'"):
        execute_config(
            {"experiment": "convergence", "problem": "paper-5.1c", "reference_dt": 0.01}
        )
    with pytest.raises(ConfigurationError, match="'checkpoints'"):
        execute_config(
            {"experiment": "invariant-measure", "problem": "paper-5.3", "dt": 0.01}
        )
    with pytest.raises(ConfigurationError, match="'problem'"):
        execute_config({"experiment": "probe-assumptions"})


def test_rejects_unknown_top_level_key():
    cfg = dict(_small_convergence_cfg(), n_path=10)
    with pytest.raises(ConfigurationError, match=r"'n_path'.*allowed: .*n_paths"):
        execute_config(cfg)
    with pytest.raises(ConfigurationError, match="'dts'"):
        execute_config(dict(_small_measure_cfg(), dts=[0.1]))


@pytest.mark.parametrize(
    "base, key, value",
    [
        ("measure", "n_paths", 128.9),
        ("measure", "dt", "0.05"),
        ("measure", "master_seed", "7"),
        ("measure", "checkpoints", [0.2, "1.0"]),
        ("measure", "k", True),
        ("convergence", "dts", 0.125),
        ("convergence", "reference_dt", None),
        ("probe", "n_pairs", 10.5),
        ("probe", "radius", "5"),
        ("sampler", "n", "1000"),
        pytest.param("measure", "dt", 10**400, id="measure-dt-10^400"),
        pytest.param("sampler", "times", ["0.5", True], id="sampler-times-strings"),
        pytest.param("sampler", "u_grid", [1.0, None], id="sampler-u_grid-null"),
        pytest.param("measure", "ratio_times", ["1.0"], id="measure-ratio_times-string"),
        pytest.param("measure", "ratio_times", [1.0], id="measure-ratio_times-one"),
        pytest.param("measure", "ratio_times", [0.2, 1.0, 5.0], id="measure-ratio_times-three"),
    ],
)
def test_run_block_numbers_are_strict(base, key, value):
    # the run-level numbers are read like the problem block: no coercion
    cfg = {
        "measure": _small_measure_cfg,
        "convergence": _small_convergence_cfg,
        "probe": lambda: {"experiment": "probe-assumptions", "problem": "paper-5.4"},
        "sampler": lambda: {"experiment": "sampler-validation", "problem": "paper-5.4"},
    }[base]()
    cfg[key] = value
    with pytest.raises(ConfigurationError, match=key):
        execute_config(cfg)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "keys, name",
    [
        (["dt"], "dt"),
        (["problem", "x0"], "x0"),
        (["problem", "horizon"], "horizon"),
        (["problem", "drift", 0, "coeff"], "drift[0].coeff"),
        (["problem", "noise", "scale"], "noise.scale"),
    ],
    ids=["dt", "x0", "horizon", "drift-coeff", "noise-scale"],
)
def test_non_finite_numbers_are_rejected_by_name(keys, name, value):
    # a NaN or infinite number is named where it is read, before any run:
    # it must not surface later as a failed step or an unhandled error
    cfg = entry_config("paper-5.4")
    block = cfg
    for key in keys[:-1]:
        block = block[key]
    block[keys[-1]] = value
    with pytest.raises(ConfigurationError, match=re.escape(f"{name} must be finite")):
        execute_config(cfg)


@pytest.mark.parametrize(
    "seed", [2**53 + 1, 2**130 + 99, 10**400], ids=["2^53+1", "2^130+99", "10^400"]
)
def test_large_seeds_reach_the_run_exactly(seed):
    # an integer seed is kept as it is: through a float, 2**53 + 1 would run
    # as 2**53 and 10**400 would overflow
    cfg = {"experiment": "sampler-validation", "problem": "paper-5.4", "n": 64, "times": [0.5]}
    from_config = execute_config(dict(cfg, master_seed=seed))
    overridden = execute_config(cfg, master_seed=seed)
    assert from_config.params["master_seed"] == overridden.params["master_seed"] == seed
    assert from_config.rows == overridden.rows
    assert execute_config(cfg, master_seed=seed - 1).rows != from_config.rows


def test_bundled_configs_pass_the_schema(monkeypatch):
    # the runners are stubbed: only validation and problem building run
    monkeypatch.setattr(experiments, "run_convergence", lambda *a, **k: "convergence")
    monkeypatch.setattr(experiments, "run_invariant_measure", lambda *a, **k: "invariant-measure")
    config_dir = Path(__file__).resolve().parents[1] / "configs"
    for path in sorted(config_dir.glob("*.json")):
        cfg = json.loads(path.read_text())
        assert execute_config(cfg) == cfg["experiment"], path.name


def test_rejects_malformed_band():
    cfg = {
        "experiment": "convergence",
        "problem": "paper-5.1c",
        "dts": [0.25, 0.125],
        "reference_dt": 0.03125,
        "band": [0.9, 0.1],
    }
    with pytest.raises(ConfigurationError, match="band"):
        execute_config(cfg)


def test_open_band_edges_are_null_in_json(tmp_path):
    cfg = _small_convergence_cfg()
    cfg["band"] = [0.0, None]
    result = execute_config(cfg)
    assert result.band == (0.0, math.inf)
    assert result.in_band is True
    for bad in ([0.1], [None, 0.0], "open"):
        with pytest.raises(ConfigurationError, match="band"):
            execute_config(dict(cfg, band=bad))

    out = write_run(result, tmp_path / "run")

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    assert summary["band"] == [0.0, None]


def test_rejects_unknown_reference_kind():
    cfg = {
        "experiment": "invariant-measure",
        "problem": "paper-5.3",
        "dt": 0.1,
        "checkpoints": [0.5, 1.0],
        "reference": {"kind": "table-lookup"},
    }
    with pytest.raises(ConfigurationError, match="table-lookup"):
        execute_config(cfg, n_paths=64)


def test_analytic_reference_requires_alpha_and_scale():
    cfg = {
        "experiment": "invariant-measure",
        "problem": "paper-5.3",
        "dt": 0.1,
        "checkpoints": [0.5, 1.0],
        "reference": {"kind": "analytic-stable", "alpha": 1.5},
    }
    with pytest.raises(ConfigurationError, match="scale"):
        execute_config(cfg, n_paths=64)


# ---------------------------------------------------------------------------
# Small end-to-end runs


def _small_convergence_cfg():
    return {
        "experiment": "convergence",
        "problem": "paper-5.1c",
        "dts": [2.0 ** -3, 2.0 ** -4, 2.0 ** -5],
        "reference_dt": 2.0 ** -7,
        "n_paths": 128,
        "master_seed": 99,
        "band": [0.0, 2.0],
    }


def _must_not_run(*args, **kwargs):
    raise AssertionError("simulated before the config was checked")


@pytest.mark.parametrize(
    "dts, match",
    [
        pytest.param([2.0 ** -3, 2.0 ** -4], "at least 3 distinct", id="two-dts"),
        pytest.param([2.0 ** -3, 2.0 ** -4, 2.0 ** -4], "at least 3 distinct", id="repeated-dt"),
        pytest.param([2.0 ** -3, 2.0 ** -4, 2.0 ** -7], "exceed reference_dt", id="dt-at-reference"),
    ],
)
def test_unfittable_dts_fail_before_simulating(monkeypatch, dts, match):
    monkeypatch.setattr(experiments, "strong_error_table", _must_not_run)
    cfg = dict(_small_convergence_cfg(), dts=dts)
    with pytest.raises(ConfigurationError, match=f"'dts'.*{match}"):
        execute_config(cfg)


def test_execute_small_convergence_config():
    result = execute_config(_small_convergence_cfg())
    assert isinstance(result, ConvergenceResult)
    assert len(result.table.rows) == 3
    assert result.fit.slope > 0.0
    assert result.in_band is True
    assert result.params["n_paths"] == 128


def test_overrides_trump_config_values():
    result = execute_config(_small_convergence_cfg(), n_paths=112, master_seed=123)
    assert result.params["n_paths"] == 112
    assert result.params["master_seed"] == 123


def test_execute_inline_problem_definition():
    cfg = _small_convergence_cfg()
    cfg["problem"] = entry_config("paper-5.1c")["problem"]
    inline = execute_config(cfg)
    named = execute_config(_small_convergence_cfg())
    assert inline.fit.slope == named.fit.slope


def _small_measure_cfg():
    return {
        "experiment": "invariant-measure",
        "problem": "paper-5.4",
        "dt": 0.05,
        "checkpoints": [0.2, 1.0, 5.0],
        "n_paths": 128,
        "master_seed": 7,
        "reference": {"kind": "final-snapshot"},
        "ratio_times": [0.2, 1.0],
    }


def test_execute_small_measure_config():
    result = execute_config(_small_measure_cfg())
    assert isinstance(result, MeasureResult)
    assert [r.t for r in result.report.rows] == [0.2, 1.0, 5.0]
    # final snapshot compared with itself
    assert result.report.rows[-1].ks == 0.0
    assert result.ratio is not None and result.ratio >= 0.0
    assert result.reference["kind"] == "final-snapshot"


def test_ratio_times_are_checked_before_simulating(monkeypatch):
    monkeypatch.setattr(experiments, "evolve_empirical_law", _must_not_run)
    cfg = dict(_small_measure_cfg(), ratio_times=[0.2, 0.5])
    with pytest.raises(ConfigurationError, match="no checkpoint at t = 0.5"):
        execute_config(cfg)


@pytest.mark.parametrize(
    "checkpoints", [[0.2, 1.0, 0.2, 5.0], [0.2, 1.0, 1.0 + 1e-12, 5.0]], ids=["equal", "one-step"]
)
def test_duplicate_checkpoints_are_rejected_before_simulating(monkeypatch, checkpoints):
    # 1 + 1e-12 lies on the grid step of t = 1: its snapshot and density file would repeat t = 1's
    monkeypatch.setattr(engine, "_run_chunks", _must_not_run)
    cfg = dict(_small_measure_cfg(), checkpoints=checkpoints)
    with pytest.raises(ConfigurationError, match="'checkpoints'.* two times on one step"):
        execute_config(cfg)


def test_reference_must_be_an_object():
    cfg = dict(_small_measure_cfg(), reference="final-snapshot")
    with pytest.raises(ConfigurationError, match="'reference'"):
        execute_config(cfg)


_ANALYTIC = {"kind": "analytic-stable", "alpha": 1.5, "scale": 0.96}


@pytest.mark.parametrize(
    "reference, message",
    [
        (dict(_ANALYTIC, alpha="1.5"), "reference.alpha must be a number, got '1.5'"),
        (dict(_ANALYTIC, scale=True), "reference.scale must be a number, got True"),
        (dict(_ANALYTIC, scale=math.inf), "reference.scale must be finite"),
        (dict(_ANALYTIC, alpah=1.5), "'reference.alpah' is not read by .* kind analytic-stable"),
        ({"kind": "analytic-stable", "scale": 0.96}, "'reference.alpha' is required"),
        (dict(_ANALYTIC, alpha=3.0), "alpha must lie in"),
        ({"kind": "final-snapshot", "alpah": 1.5}, "'reference.alpah' is not read by .*final-snapshot"),
        ({"kind": "final-snapshot", "t": 5.0}, "'reference.t' is not read"),
        ({"alpha": 1.5, "scale": 0.96}, "'reference.kind': got None"),
        ({}, "'reference.kind': got None"),
        ({"kind": ["final-snapshot"]}, "'reference.kind': got \\['final-snapshot'\\]"),
    ],
    ids=[
        "string-alpha", "bool-scale", "inf-scale", "analytic-unknown-key", "analytic-missing-alpha",
        "alpha-out-of-range", "snapshot-unknown-key", "snapshot-t", "no-kind", "empty", "list-kind",
    ],
)
def test_reference_block_is_checked_before_simulating(monkeypatch, reference, message):
    # nothing is coerced or dropped: "1.5" and true used to run as 1.5 and 1.0, "alpah" was ignored
    monkeypatch.setattr(experiments, "evolve_empirical_law", _must_not_run)
    cfg = dict(_small_measure_cfg(), problem="paper-5.3", reference=reference)
    cfg.pop("ratio_times")
    with pytest.raises(ConfigurationError, match=message):
        execute_config(cfg)


def test_analytic_reference_is_reported_as_parsed():
    cfg = dict(_small_measure_cfg(), problem="paper-5.3", reference=dict(_ANALYTIC, alpha=2))
    cfg.pop("ratio_times")
    result = execute_config(cfg, n_paths=32)
    assert result.reference == {"kind": "analytic-stable", "alpha": 2.0, "scale": 0.96}
    assert isinstance(result.reference["alpha"], float)


def test_probe_run_populates_decay_and_passes():
    result = run_probe_assumptions(builtin_problem("paper-5.4"), n_pairs=2000, seed=4)
    assert isinstance(result, ProbeResult)
    assert result.all_pass
    assert result.decay is not None
    assert 0.0 < result.decay["Q1"] < 1.0
    assert {p.probe for p in result.probes} >= {"one_sided", "polynomial"}


@pytest.mark.parametrize("name", ["paper-5.1c", "paper-5.4"])
def test_probe_run_writes_and_prints_the_derived_bound(name, tmp_path):
    problem = builtin_problem(name)
    result = run_probe_assumptions(problem, n_pairs=200, seed=4)
    summary = json.loads((write_run(result, tmp_path / "p") / "summary.json").read_text())
    assert summary["one_sided_bound"] == problem.monotone_bound
    # 1 / 1.1575 for paper-5.1c; null for paper-5.4, where every dt is solvable
    limit = 1.0 / problem.monotone_bound if problem.monotone_bound > 0 else None
    assert summary["solvability_limit"] == limit
    assert f"one-sided bound: {problem.monotone_bound:+.6f}" in "\n".join(result.lines())
    # with no K3 declared, the one-sided probe's claim is the derived bound
    claim = problem.constants.K3 if problem.constants.K3 is not None else problem.monotone_bound
    assert result.probes[0].claimed == {"bound": claim}


def test_sampler_validation_small():
    result = run_sampler_validation(
        builtin_problem("paper-5.3").noise, n=20_000, master_seed=11
    )
    assert isinstance(result, SamplerResult)
    assert result.max_z < 5.0
    assert len(result.rows) == 4 * 5


@pytest.mark.parametrize("field", ["times", "u_grid"])
def test_sampler_validation_needs_values(field):
    # an empty list would run no test and report max |z| = 0
    noise = builtin_problem("paper-5.4").noise
    with pytest.raises(ConfigurationError, match=f"'{field}'"):
        run_sampler_validation(noise, n=64, **{field: []})


def test_sampler_validation_needs_jumps():
    from levyem.noise import NoiseSpec

    with pytest.raises(ConfigurationError, match="jump"):
        run_sampler_validation(NoiseSpec(kind="none", brownian_dim=1), n=100)


# ---------------------------------------------------------------------------
# Artifacts on disk


def test_write_convergence_run(tmp_path):
    result = execute_config(_small_convergence_cfg())
    out = write_run(result, tmp_path / "run")
    names = {p.name for p in out.iterdir()}
    assert names == {"strong_errors.csv", "rmse_vs_dt.dat", "summary.json"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["experiment"] == "convergence"
    assert summary["in_band"] is True
    header = (out / "strong_errors.csv").read_text().splitlines()[0]
    assert header == "dt,n_paths,mse,rmse,stderr_mse"


def test_write_measure_run(tmp_path):
    result = execute_config(_small_measure_cfg())
    out = write_run(result, tmp_path / "run")
    names = {p.name for p in out.iterdir()}
    assert {"distance_table.csv", "ks_vs_t.dat", "wasserstein_vs_t.dat", "summary.json"} <= names
    assert {n for n in names if n.startswith("density_t")} == {
        "density_t0.2.dat",
        "density_t1.dat",
        "density_t5.dat",
    }
    summary = json.loads((out / "summary.json").read_text())
    assert summary["experiment"] == "invariant-measure"
    assert "wasserstein_ratio" in summary
    tail_mass = summary["density_tail_mass"]
    assert list(tail_mass) == ["0.2", "1", "5"]
    for t, snap in zip(tail_mass, result.snapshots):
        assert tail_mass[t] == measures.density_curve(snap)[2]
        assert _density_file_mass(out / f"density_t{t}.dat") + tail_mass[t] == pytest.approx(
            1.0, abs=1e-12
        )


def _density_file_mass(path):
    centres, dens = np.loadtxt(path, unpack=True)
    return float(np.sum(dens) * (centres[1] - centres[0]))


def test_density_at_the_start_holds_every_path(tmp_path):
    # at t = 0 every path sits at x0: the density is one spike of mass 1
    cfg = dict(_small_measure_cfg(), checkpoints=[0.0, 0.2, 1.0, 5.0])
    out = write_run(execute_config(cfg), tmp_path / "run")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["density_tail_mass"]["0"] == 0.0
    assert _density_file_mass(out / "density_t0.dat") == pytest.approx(1.0, abs=1e-12)


def test_writing_a_law_run_uses_no_kernel_density(tmp_path, monkeypatch):
    from scipy import stats

    def _refuse(*args, **kwargs):
        raise AssertionError("gaussian_kde called")

    monkeypatch.setattr(stats, "gaussian_kde", _refuse)
    out = write_run(execute_config(_small_measure_cfg()), tmp_path / "run")
    assert (out / "density_t5.dat").exists()


def test_write_probe_and_sampler_runs(tmp_path):
    probe = run_probe_assumptions(builtin_problem("paper-5.3"), n_pairs=500, seed=1)
    out_p = write_run(probe, tmp_path / "p")
    assert {p.name for p in out_p.iterdir()} == {"probes.csv", "summary.json"}
    sampler = run_sampler_validation(builtin_problem("paper-5.3").noise, n=5_000)
    out_s = write_run(sampler, tmp_path / "s")
    assert {p.name for p in out_s.iterdir()} == {
        "ecf_table.csv",
        "ecf_z.dat",
        "summary.json",
    }


def test_dat_files_hold_two_float_columns(tmp_path):
    out = write_run(execute_config(_small_measure_cfg()), tmp_path / "run")
    dat_files = sorted(out.glob("*.dat"))
    assert len(dat_files) == 5  # ks, wasserstein and three densities
    for path in dat_files:
        for line in path.read_text().splitlines():
            x, y = (float(c) for c in line.split(" "))


def test_artifacts_are_byte_deterministic(tmp_path):
    a = write_run(execute_config(_small_measure_cfg()), tmp_path / "a")
    b = write_run(execute_config(_small_measure_cfg()), tmp_path / "b")
    for name in ("distance_table.csv", "ks_vs_t.dat", "wasserstein_vs_t.dat", "density_t1.dat"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # summaries differ only in the timestamp
    sa = json.loads((a / "summary.json").read_text())
    sb = json.loads((b / "summary.json").read_text())
    sa.pop("created_utc"), sb.pop("created_utc")
    assert sa == sb


def test_worker_count_does_not_change_results():
    serial = execute_config(_small_convergence_cfg(), workers=1)
    pooled = execute_config(_small_convergence_cfg(), workers=2)
    assert serial.fit.slope == pooled.fit.slope
    for r1, r2 in zip(serial.table.rows, pooled.table.rows):
        assert r1.mse == r2.mse
