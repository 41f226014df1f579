"""Named experiment catalog, runners, and result writers.

Each built-in experiment packages a model, a protocol (step sizes, horizons,
path counts, seeds) and the headline number it is expected to reproduce,
together with an acceptance band.  A band's upper edge may be open
(infinite); in JSON it is then ``null``, since ``Infinity`` is not valid JSON.
Runs persist to one directory: a ``summary.json`` (the only file carrying a
timestamp), per-table CSV files, and two-column ``.dat`` plot data.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .convergence import ErrorTable, OrderFit, fit_order, predicted_order, strong_error_table
from .errors import ConfigurationError
from .measures import (
    EmpiricalMeasure,
    InvariantReport,
    StationaryReference,
    evolve_empirical_law,
    invariant_convergence_report,
    kde_curve,
    ou_stationary_scale,
)
from .model import (
    SdeProblem,
    moment_decay_factors,
    run_declared_probes,
    zero_state_bounds,
)
from .noise import (
    NoiseSpec,
    SeedPolicy,
    increment_characteristic_function,
    sample_levy_increments,
    validate_moment_conditions,
)
from .problems import _integer, _real, builtin_problem, problem_from_config

__all__ = [
    "ExperimentEntry",
    "catalog",
    "entry_config",
    "format_band",
    "ConvergenceResult",
    "MeasureResult",
    "ProbeResult",
    "SamplerResult",
    "run_convergence",
    "run_invariant_measure",
    "run_probe_assumptions",
    "run_sampler_validation",
    "execute_config",
    "write_run",
]

_DEFAULT_SEED = 20240817
_CONVERGENCE_DTS = [2.0 ** -9, 2.0 ** -10, 2.0 ** -11, 2.0 ** -12]
_CONVERGENCE_REF = 2.0 ** -15


def format_band(band) -> str:
    """``[lo, hi]``, or ``[lo, inf)`` when the upper edge is open."""
    lo, hi = band
    return f"[{lo:g}, inf)" if hi == math.inf else f"[{lo:g}, {hi:g}]"


def _band_to_json(band):
    return None if band is None else [band[0], None if band[1] == math.inf else band[1]]


def _band_from_json(band):
    try:
        lo, hi = band
        band = (float(lo), math.inf if hi is None else float(hi))
    except (TypeError, ValueError):
        band = None
    if band is None or not band[0] <= band[1]:
        raise ConfigurationError(
            "field 'band': expected [lo, hi] with lo <= hi (hi null for an open edge)"
        )
    return band


@dataclass(frozen=True)
class ExperimentEntry:
    """One catalog row: what to run and what number it should reproduce.

    For a convergence entry ``headline`` is the order the theory guarantees
    (:func:`~levyem.convergence.predicted_order`) and ``band`` is a floor
    ``(lo, inf)``: the guarantee is a lower bound, and the scheme may converge
    faster.  For an invariant-measure entry ``band`` bounds the metric on
    both sides.
    """

    name: str
    kind: str        # "convergence" | "invariant-measure"
    title: str
    metric: str      # what the headline number measures
    headline: float  # guaranteed order, or expected value of the metric
    band: tuple      # acceptance interval for the metric; an edge may be infinite
    defaults: dict = field(hash=False)

    def describe(self) -> str:
        if self.kind == "convergence":
            target = f"guaranteed order {self.headline:.4g}; {self.metric} in "
        else:
            target = f"headline: {self.metric} ~ {self.headline:g}, band "
        return (
            f"{self.name:<11s} {self.kind:<18s} {self.title}\n"
            f"{'':11s} {target}{format_band(self.band)}"
        )


def _convergence_entry(name: str, title: str, floor: float) -> ExperimentEntry:
    problem = builtin_problem(name)
    return ExperimentEntry(
        name=name,
        kind="convergence",
        title=title,
        metric="fitted rmse order",
        headline=predicted_order(
            problem.constants, problem.noise, problem.diffusion is not None
        ),
        band=(floor, math.inf),
        defaults={
            "n_paths": 1000,
            "master_seed": _DEFAULT_SEED,
            "dts": list(_CONVERGENCE_DTS),
            "reference_dt": _CONVERGENCE_REF,
            "error_mode": "terminal",
        },
    )


def catalog() -> dict:
    """The built-in experiments, keyed by name, in stable order."""
    entries = [
        _convergence_entry(
            "paper-5.1a",
            "quintic drift, rough time-weights (exps 1/5, 2/5), tempered stable alpha=1.3",
            0.12,
        ),
        _convergence_entry(
            "paper-5.1b",
            "quintic drift, rough time-weights (exps 1/5, 2/5), tempered stable alpha=1.5",
            0.12,
        ),
        _convergence_entry(
            "paper-5.1c",
            "quintic drift, smoother time-weights (exps 4/5, 3/5), tempered stable alpha=1.3",
            0.40,
        ),
        _convergence_entry(
            "paper-5.2",
            "quintic drift, no diffusion (exp 9/10), tempered stable alpha=1.3",
            0.65,
        ),
        ExperimentEntry(
            name="paper-5.3",
            kind="invariant-measure",
            title="Ornstein-Uhlenbeck with additive alpha-stable noise vs its stationary stable law",
            metric="final two-sample KS p-value (with KS decreasing over checkpoints)",
            headline=0.01,
            band=(0.01, 1.0),
            defaults={
                "n_paths": 10_000,
                "master_seed": _DEFAULT_SEED,
                "dt": 0.01,
                "checkpoints": [0.1, 0.3, 0.7, 2.0, 5.0],
                "k": 1.0,
                "reference": {
                    "kind": "analytic-stable",
                    "alpha": 1.5,
                    "scale": ou_stationary_scale(1.5),
                },
            },
        ),
        ExperimentEntry(
            name="paper-5.4",
            kind="invariant-measure",
            title="cubic-drift jump diffusion settling onto its numerical invariant law",
            metric="W1(t=1)/W1(t=0.2) against the t=10 snapshot",
            headline=0.2,
            band=(0.0, 0.2),
            defaults={
                "n_paths": 10_000,
                "master_seed": _DEFAULT_SEED,
                "dt": 0.01,
                "checkpoints": [0.04, 0.1, 0.2, 1.0, 10.0],
                "k": 1.0,
                "reference": {"kind": "final-snapshot"},
                "ratio_times": [0.2, 1.0],
            },
        ),
    ]
    return {e.name: e for e in entries}


def entry_config(name: str) -> dict:
    """A complete, self-contained run config for a catalog entry.

    The problem is inlined (expression-grammar form) so the config is
    auditable without consulting the built-in table.
    """
    entry = catalog().get(name)
    if entry is None:
        raise ConfigurationError(f"unknown experiment {name!r}")
    cfg = {
        "experiment": entry.kind,
        "problem": json.loads(json.dumps(builtin_problem(name).source)),  # deep copy
        "band": _band_to_json(entry.band),
        "headline": entry.headline,
    }
    cfg.update(json.loads(json.dumps(entry.defaults)))  # deep copy, JSON-clean
    return cfg


# ---------------------------------------------------------------------------
# Runners


@dataclass
class ConvergenceResult:
    problem: str
    params: dict
    table: ErrorTable
    fit: OrderFit
    predicted: float
    band: tuple | None
    in_band: bool | None


@dataclass
class MeasureResult:
    problem: str
    params: dict
    report: InvariantReport
    reference: dict
    snapshots: list
    ratio: float | None
    in_band: bool | None


@dataclass
class ProbeResult:
    problem: str
    params: dict
    probes: list
    moment_report: object
    zero_bounds: tuple
    decay: dict
    all_pass: bool


@dataclass
class SamplerResult:
    params: dict
    rows: list  # dicts with t, u, |ecf-cf|, stderr, z
    moment_report: object
    max_z: float


def run_convergence(
    problem: SdeProblem,
    dts,
    reference_dt: float,
    n_paths: int,
    master_seed: int,
    error_mode: str = "terminal",
    workers: int = 1,
    band=None,
) -> ConvergenceResult:
    """Measure the strong order on coupled grids and fit the loglog slope."""
    table = strong_error_table(
        problem, dts, reference_dt, n_paths, master_seed,
        error_mode=error_mode, workers=workers,
    )
    fit = fit_order(table)
    predicted = predicted_order(
        problem.constants, problem.noise, problem.diffusion is not None
    )
    in_band = None if band is None else bool(band[0] <= fit.slope <= band[1])
    return ConvergenceResult(
        problem=problem.name,
        params={
            "dts": [float(d) for d in dts],
            "reference_dt": float(reference_dt),
            "n_paths": int(n_paths),
            "master_seed": int(master_seed),
            "error_mode": error_mode,
        },
        table=table,
        fit=fit,
        predicted=predicted,
        band=None if band is None else tuple(band),
        in_band=in_band,
    )


def _build_reference(spec: dict | None, snapshots) -> tuple[StationaryReference, dict]:
    spec = dict(spec or {"kind": "final-snapshot"})
    kind = spec.get("kind")
    if kind == "analytic-stable":
        for key in ("alpha", "scale"):
            if key not in spec:
                raise ConfigurationError(f"reference field {key!r} is required")
        ref = StationaryReference(
            kind="analytic_stable", alpha=float(spec["alpha"]), scale=float(spec["scale"])
        )
        return ref, spec
    if kind == "final-snapshot":
        final = max(snapshots, key=lambda m: m.t)
        ref = StationaryReference(kind="empirical_snapshot", snapshot=final)
        return ref, {"kind": "final-snapshot", "t": final.t}
    raise ConfigurationError(f"unknown reference kind {kind!r}")


def _at_time(report: InvariantReport, t: float):
    for row in report.rows:
        if abs(row.t - t) <= 1e-9 * max(1.0, abs(t)):
            return row
    raise ConfigurationError(f"no checkpoint at t = {t}")


def run_invariant_measure(
    problem: SdeProblem,
    dt: float,
    checkpoints,
    n_paths: int,
    master_seed: int,
    reference: dict | None = None,
    k: float = 1.0,
    ratio_times=None,
    workers: int = 1,
    band=None,
) -> MeasureResult:
    """Snapshot the ensemble over time and compare against a reference law."""
    snapshots = evolve_empirical_law(
        problem, dt, n_paths, checkpoints, master_seed, workers=workers
    )
    ref, ref_desc = _build_reference(reference, snapshots)
    report = invariant_convergence_report(snapshots, ref, k)
    ratio = None
    in_band = None
    if ratio_times is not None:
        early, late = (float(t) for t in ratio_times)
        w_early = _at_time(report, early).wasserstein
        w_late = _at_time(report, late).wasserstein
        if w_early <= 0.0:
            raise ConfigurationError(f"degenerate ratio: W at t = {early} is zero")
        ratio = w_late / w_early
        if band is not None:
            in_band = bool(band[0] <= ratio <= band[1])
    elif band is not None:
        # Band applies to the final p-value, alongside the decreasing flag.
        in_band = bool(report.ks_decreasing and band[0] <= report.final_p_value <= band[1])
    return MeasureResult(
        problem=problem.name,
        params={
            "dt": float(dt),
            "checkpoints": [float(t) for t in checkpoints],
            "n_paths": int(n_paths),
            "master_seed": int(master_seed),
            "k": float(k),
        },
        report=report,
        reference=ref_desc,
        snapshots=snapshots,
        ratio=ratio,
        in_band=in_band,
    )


def run_probe_assumptions(
    problem: SdeProblem, n_pairs: int = 10_000, radius: float = 5.0, seed: int = 0
) -> ProbeResult:
    """Monte-Carlo check of the declared structural constants, plus derived factors."""
    probes = run_declared_probes(problem, n_pairs=n_pairs, radius=radius, seed=seed)
    moment_report = validate_moment_conditions(problem.noise)
    m1, m2 = zero_state_bounds(problem)
    decay = {}
    if problem.constants.K3 is not None:
        dt = 0.01
        q1, q2 = moment_decay_factors(problem, dt)
        decay = {"dt": dt, "Q1": q1, "Q2": q2}
    all_pass = all(p.violations == 0 for p in probes) and moment_report.passed
    return ProbeResult(
        problem=problem.name,
        params={"n_pairs": n_pairs, "radius": radius, "seed": seed},
        probes=probes,
        moment_report=moment_report,
        zero_bounds=(m1, m2),
        decay=decay,
        all_pass=all_pass,
    )


def run_sampler_validation(
    noise: NoiseSpec,
    n: int = 100_000,
    master_seed: int = _DEFAULT_SEED,
    times=(0.25, 0.5, 1.0, 2.0),
    u_grid=(0.25, 0.5, 1.0, 2.0, 4.0),
) -> SamplerResult:
    """Empirical vs analytic characteristic function of the jump increments."""
    if not noise.has_jumps:
        raise ConfigurationError("sampler validation needs a jump component")
    u = np.asarray(u_grid, dtype=float)
    rows = []
    max_z = 0.0
    for j, t in enumerate(times):
        draw = sample_levy_increments(noise, float(t), n, SeedPolicy(master_seed, j, "levy"))
        phase = np.exp(1j * u[:, None] * draw[None, :])
        emp = phase.mean(axis=1)
        # stderr of the complex mean, coordinate-wise
        se_re = phase.real.std(axis=1, ddof=1) / np.sqrt(n)
        se_im = phase.imag.std(axis=1, ddof=1) / np.sqrt(n)
        theo = increment_characteristic_function(noise, u, float(t))
        z_re = np.abs(emp.real - theo.real) / se_re
        z_im = np.abs(emp.imag - theo.imag) / np.maximum(se_im, 1e-300)
        for i, ui in enumerate(u):
            z = float(max(z_re[i], z_im[i]))
            max_z = max(max_z, z)
            rows.append(
                {
                    "t": float(t),
                    "u": float(ui),
                    "ecf_gap": float(np.abs(emp[i] - theo[i])),
                    "stderr": float(np.hypot(se_re[i], se_im[i])),
                    "z": z,
                }
            )
    moment_report = validate_moment_conditions(noise)
    return SamplerResult(
        params={"n": int(n), "master_seed": int(master_seed), "times": list(times),
                "u_grid": [float(x) for x in u_grid]},
        rows=rows,
        moment_report=moment_report,
        max_z=max_z,
    )


# ---------------------------------------------------------------------------
# Config-driven execution (used by the command line)

# The top-level keys each experiment kind reads; any other key is an error.
# ``headline`` is informational and ``output_dir`` is read by the CLI.
_COMMON_KEYS = {"experiment", "problem", "master_seed", "headline", "output_dir"}
_KEYS = {
    "convergence": _COMMON_KEYS | {"n_paths", "band", "dts", "reference_dt", "error_mode"},
    "invariant-measure": _COMMON_KEYS
    | {"n_paths", "band", "dt", "checkpoints", "reference", "k", "ratio_times"},
    "probe-assumptions": _COMMON_KEYS | {"n_pairs", "radius"},
    "sampler-validation": _COMMON_KEYS | {"n", "times", "u_grid"},
}


def _resolve_problem(ref) -> SdeProblem:
    if isinstance(ref, str):
        return builtin_problem(ref)
    if isinstance(ref, dict):
        return problem_from_config(ref)
    raise ConfigurationError("field 'problem': expected a name or an inline definition")


def _need(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigurationError(f"field {key!r} is required for {cfg.get('experiment')!r}")
    return cfg[key]


def _reals(value, path: str) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{path} must be a list of numbers, got {value!r}")
    return [_real(v, f"{path}[{i}]") for i, v in enumerate(value)]


def execute_config(cfg: dict, n_paths=None, master_seed=None, workers=1):
    """Validate and run one experiment config; overrides trump config values."""
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root must be an object")
    kind = cfg.get("experiment")
    if kind not in _KEYS:
        raise ConfigurationError(
            f"field 'experiment': got {kind!r}, expected one of {', '.join(_KEYS)}"
        )
    unknown = sorted(set(cfg) - _KEYS[kind])
    if unknown:
        raise ConfigurationError(
            f"field {unknown[0]!r} is not read by a {kind} experiment; "
            f"allowed: {', '.join(sorted(_KEYS[kind]))}"
        )
    band = cfg.get("band")
    if band is not None:
        band = _band_from_json(band)
    paths = _integer(n_paths if n_paths is not None else cfg.get("n_paths", 1000), "n_paths")
    seed = _integer(
        master_seed if master_seed is not None else cfg.get("master_seed", _DEFAULT_SEED),
        "master_seed",
    )

    if kind == "sampler-validation":
        problem = _resolve_problem(_need(cfg, "problem"))
        return run_sampler_validation(
            problem.noise,
            n=_integer(cfg.get("n", 100_000), "n"),
            master_seed=seed,
            times=cfg.get("times", (0.25, 0.5, 1.0, 2.0)),
            u_grid=cfg.get("u_grid", (0.25, 0.5, 1.0, 2.0, 4.0)),
        )

    problem = _resolve_problem(_need(cfg, "problem"))
    if kind == "convergence":
        return run_convergence(
            problem,
            _reals(_need(cfg, "dts"), "dts"),
            _real(_need(cfg, "reference_dt"), "reference_dt"),
            paths,
            seed,
            error_mode=cfg.get("error_mode", "terminal"),
            workers=workers,
            band=band,
        )
    if kind == "invariant-measure":
        return run_invariant_measure(
            problem,
            _real(_need(cfg, "dt"), "dt"),
            _reals(_need(cfg, "checkpoints"), "checkpoints"),
            paths,
            seed,
            reference=cfg.get("reference"),
            k=_real(cfg.get("k", 1.0), "k"),
            ratio_times=cfg.get("ratio_times"),
            workers=workers,
            band=band,
        )
    return run_probe_assumptions(
        problem,
        n_pairs=_integer(cfg.get("n_pairs", 10_000), "n_pairs"),
        radius=_real(cfg.get("radius", 5.0), "radius"),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Writers


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_dat(path: Path, pairs):
    lines = [f"{x!r} {y!r}" for x, y in pairs]
    path.write_text("\n".join(lines) + "\n")


def _summary_base(result) -> dict:
    return {
        "created_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "params": result.params,
    }


def write_run(result, out_dir) -> Path:
    """Persist one result to ``out_dir``; returns the directory path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = _summary_base(result)

    if isinstance(result, ConvergenceResult):
        summary.update(
            {
                "experiment": "convergence",
                "problem": result.problem,
                "fitted_order": result.fit.slope,
                "order_ci95": list(result.fit.slope_ci),
                "r_squared": result.fit.r_squared,
                "predicted_order": result.predicted,
                "band": _band_to_json(result.band),
                "in_band": result.in_band,
            }
        )
        _write_csv(
            out / "strong_errors.csv",
            ["dt", "n_paths", "mse", "rmse", "stderr_mse"],
            [[r.dt, r.n_paths, r.mse, r.rmse, r.stderr] for r in result.table.rows],
        )
        _write_dat(out / "rmse_vs_dt.dat", [(r.dt, r.rmse) for r in result.table.rows])
    elif isinstance(result, MeasureResult):
        summary.update(
            {
                "experiment": "invariant-measure",
                "problem": result.problem,
                "reference": result.reference,
                "ks_decreasing": result.report.ks_decreasing,
                "wasserstein_decreasing": result.report.wasserstein_decreasing,
                "final_p_value": result.report.final_p_value,
                "wasserstein_ratio": result.ratio,
                "in_band": result.in_band,
            }
        )
        _write_csv(
            out / "distance_table.csv",
            ["t", "ks", "p_value", "ks_stderr", "wasserstein", "w_stderr"],
            [
                [r.t, r.ks, r.p_value, r.ks_stderr, r.wasserstein, r.w_stderr]
                for r in result.report.rows
            ],
        )
        _write_dat(out / "ks_vs_t.dat", [(r.t, r.ks) for r in result.report.rows])
        _write_dat(
            out / "wasserstein_vs_t.dat",
            [(r.t, r.wasserstein) for r in result.report.rows],
        )
        for snap in result.snapshots:
            grid, dens = kde_curve(snap)
            _write_dat(out / f"density_t{snap.t:g}.dat", zip(grid, dens))
    elif isinstance(result, ProbeResult):
        summary.update(
            {
                "experiment": "probe-assumptions",
                "problem": result.problem,
                "all_pass": result.all_pass,
                "zero_state_bounds": list(result.zero_bounds),
                "decay_factors": result.decay,
                "moment_conditions": {
                    "small_jump_ok": result.moment_report.small_jump_ok,
                    "large_jump_ok": result.moment_report.large_jump_ok,
                    "passed": result.moment_report.passed,
                },
            }
        )
        _write_csv(
            out / "probes.csv",
            ["probe", "n_pairs", "radius", "max_ratio", "violations"],
            [[p.probe, p.n_pairs, p.radius, p.max_ratio, p.violations] for p in result.probes],
        )
    elif isinstance(result, SamplerResult):
        summary.update(
            {
                "experiment": "sampler-validation",
                "max_z": result.max_z,
                "moment_conditions": {
                    "small_jump_ok": result.moment_report.small_jump_ok,
                    "large_jump_ok": result.moment_report.large_jump_ok,
                    "passed": result.moment_report.passed,
                },
            }
        )
        _write_csv(
            out / "ecf_table.csv",
            ["t", "u", "ecf_gap", "stderr", "z"],
            [[r["t"], r["u"], r["ecf_gap"], r["stderr"], r["z"]] for r in result.rows],
        )
        _write_dat(out / "ecf_z.dat", [(r["u"], r["z"]) for r in result.rows])
    else:
        raise ConfigurationError(f"cannot persist result of type {type(result).__name__}")

    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return out
