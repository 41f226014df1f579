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
from typing import Callable, NamedTuple

import numpy as np

from .convergence import ErrorTable, OrderFit, fit_order, predicted_order, strong_error_table
from .engine import check_workers
from .errors import ConfigurationError
from .implicit import solvability_limit
from .measures import (
    InvariantReport,
    StationaryReference,
    evolve_empirical_law,
    invariant_convergence_report,
    ou_stationary_scale,
)
from .measures import density_curve as kde_curve  # bench/tracing.py times it under this name
from .model import (
    SdeProblem,
    moment_decay_factors,
    run_declared_probes,
    zero_state_bounds,
)
from .noise import (
    LEVY_STREAM,
    NoiseSpec,
    PathStreams,
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
# Results and runners

# A result carries what its run writes and prints: ``artifacts()`` gives its
# ``summary.json`` fields and its tables ``(file name, CSV header or None for
# a .dat file, rows)``, and ``lines()`` the lines ``levyem run`` prints.


def _moment_json(report) -> dict:
    return {
        "small_jump_ok": report.small_jump_ok,
        "large_jump_ok": report.large_jump_ok,
        "passed": report.passed,
    }


@dataclass
class ConvergenceResult:
    problem: str
    params: dict
    table: ErrorTable
    fit: OrderFit
    predicted: float
    band: tuple | None
    in_band: bool | None

    def artifacts(self):
        rows = self.table.rows
        return {
            "experiment": "convergence",
            "problem": self.problem,
            "fitted_order": self.fit.slope,
            "order_ci95": list(self.fit.slope_ci),
            "r_squared": self.fit.r_squared,
            "predicted_order": self.predicted,
            "band": _band_to_json(self.band),
            "in_band": self.in_band,
        }, [
            ("strong_errors.csv", ["dt", "n_paths", "mse", "rmse", "stderr_mse"],
             [[r.dt, r.n_paths, r.mse, r.rmse, r.stderr] for r in rows]),
            ("rmse_vs_dt.dat", None, [(r.dt, r.rmse) for r in rows]),
        ]

    def lines(self):
        yield f"problem: {self.problem}"
        for row in self.table.rows:
            yield f"  dt = {row.dt:<12g} rmse = {row.rmse:.6e}  (mse stderr {row.stderr:.2e})"
        lo, hi = self.fit.slope_ci
        yield (f"fitted order: {self.fit.slope:.4f}  (95% CI [{lo:.4f}, {hi:.4f}], "
               f"r^2 = {self.fit.r_squared:.4f})")
        yield f"guaranteed order: {self.predicted:.4f}"
        if self.band is not None:
            yield f"band {format_band(self.band)}: {'inside' if self.in_band else 'OUTSIDE'}"


@dataclass
class MeasureResult:
    problem: str
    params: dict
    report: InvariantReport
    reference: dict
    snapshots: list
    ratio: float | None
    in_band: bool | None

    def artifacts(self):
        rows = self.report.rows
        tables = [
            ("distance_table.csv", ["t", "ks", "p_value", "ks_stderr", "wasserstein", "w_stderr"],
             [[r.t, r.ks, r.p_value, r.ks_stderr, r.wasserstein, r.w_stderr] for r in rows]),
            ("ks_vs_t.dat", None, [(r.t, r.ks) for r in rows]),
            ("wasserstein_vs_t.dat", None, [(r.t, r.wasserstein) for r in rows]),
        ]
        tail_mass = {}
        for snap in self.snapshots:
            label = f"{snap.t:g}"
            centres, dens, tail_mass[label] = kde_curve(snap)
            tables.append((f"density_t{label}.dat", None, zip(centres, dens)))
        return {
            "experiment": "invariant-measure",
            "problem": self.problem,
            "reference": self.reference,
            "ks_decreasing": self.report.ks_decreasing,
            "wasserstein_decreasing": self.report.wasserstein_decreasing,
            "final_p_value": self.report.final_p_value,
            "wasserstein_ratio": self.ratio,
            "in_band": self.in_band,
            "density_tail_mass": tail_mass,
        }, tables

    def lines(self):
        report = self.report
        yield f"problem: {self.problem}  (reference: {self.reference})"
        for row in report.rows:
            yield (f"  t = {row.t:<6g} KS = {row.ks:.4f} (p = {row.p_value:.3g})  "
                   f"W{report.k:g} = {row.wasserstein:.4f}")
        yield (f"KS decreasing: {report.ks_decreasing}; "
               f"W decreasing: {report.wasserstein_decreasing}")
        if self.ratio is not None:
            yield f"Wasserstein ratio: {self.ratio:.4f}"
        if self.in_band is not None:
            yield f"band verdict: {'inside' if self.in_band else 'OUTSIDE'}"


@dataclass
class ProbeResult:
    problem: str
    params: dict
    probes: list
    moment_report: object
    zero_bounds: tuple
    decay: dict
    all_pass: bool
    one_sided_bound: float  # sup of df/dx, derived from the drift
    solvability_limit: float  # inf when every dt is solvable, null in JSON

    def artifacts(self):
        return {
            "experiment": "probe-assumptions",
            "problem": self.problem,
            "all_pass": self.all_pass,
            "one_sided_bound": self.one_sided_bound,
            "solvability_limit": None if self.solvability_limit == math.inf else self.solvability_limit,
            "zero_state_bounds": list(self.zero_bounds),
            "decay_factors": self.decay,
            "moment_conditions": _moment_json(self.moment_report),
        }, [
            ("probes.csv", ["probe", "n_pairs", "radius", "max_ratio", "violations"],
             [[p.probe, p.n_pairs, p.radius, p.max_ratio, p.violations] for p in self.probes]),
        ]

    def lines(self):
        yield f"problem: {self.problem}"
        yield f"one-sided bound: {self.one_sided_bound:+.6f}  (solvable for dt < {self.solvability_limit:g})"
        for probe in self.probes:
            status = "ok" if probe.violations == 0 else f"{probe.violations} violations"
            yield f"  probe {probe.probe:<12s} max_ratio = {probe.max_ratio:+.4f}  {status}"
        yield f"moment conditions: {'ok' if self.moment_report.passed else 'FAILED'}"
        yield f"all probes pass: {self.all_pass}"


@dataclass
class SamplerResult:
    params: dict
    rows: list  # dicts with t, u, |ecf-cf|, stderr, z
    moment_report: object
    max_z: float

    def artifacts(self):
        return {
            "experiment": "sampler-validation",
            "max_z": self.max_z,
            "moment_conditions": _moment_json(self.moment_report),
        }, [
            ("ecf_table.csv", ["t", "u", "ecf_gap", "stderr", "z"],
             [[r["t"], r["u"], r["ecf_gap"], r["stderr"], r["z"]] for r in self.rows]),
            ("ecf_z.dat", None, [(r["u"], r["z"]) for r in self.rows]),
        ]

    def lines(self):
        yield (f"characteristic-function agreement: max |z| = {self.max_z:.2f} "
               f"over {len(self.rows)} (t, u) pairs")


def run_convergence(
    problem: SdeProblem,
    dts,
    reference_dt: float,
    n_paths: int,
    master_seed: int,
    workers: int = 1,
    band=None,
) -> ConvergenceResult:
    """Measure the strong order on coupled grids and fit the loglog slope."""
    # the fit needs three rows with nonzero error: fail before simulating
    distinct = sorted({float(d) for d in dts})
    if len(distinct) < 3:
        raise ConfigurationError(
            f"field 'dts': an order fit needs at least 3 distinct step sizes, got {list(dts)!r}"
        )
    if distinct[0] <= reference_dt:
        raise ConfigurationError(
            f"field 'dts': every dt must exceed reference_dt = {reference_dt}, got {distinct[0]}"
        )
    table = strong_error_table(problem, dts, reference_dt, n_paths, master_seed, workers=workers)
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
        },
        table=table,
        fit=fit,
        predicted=predicted,
        band=None if band is None else tuple(band),
        in_band=in_band,
    )


# The keys each kind of ``reference`` block takes, all of them required.
_REFERENCE_KEYS = {"analytic-stable": {"kind", "alpha", "scale"}, "final-snapshot": {"kind"}}


def _reference_law(spec) -> StationaryReference | None:
    """The checked ``reference`` block's analytic law, or None for the final snapshot."""
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ConfigurationError(f"field 'reference': expected an object, got {spec!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _REFERENCE_KEYS:
        raise ConfigurationError(
            f"field 'reference.kind': got {kind!r}, expected one of {', '.join(_REFERENCE_KEYS)}"
        )
    keys = _REFERENCE_KEYS[kind]
    unknown, missing = sorted(set(spec) - keys), sorted(keys - set(spec))
    if unknown:
        raise ConfigurationError(
            f"field 'reference.{unknown[0]}' is not read by a reference of kind {kind}; "
            f"allowed: {', '.join(sorted(keys))}"
        )
    if missing:
        raise ConfigurationError(
            f"field 'reference.{missing[0]}' is required by a reference of kind {kind}"
        )
    if kind == "final-snapshot":
        return None
    return StationaryReference(
        kind="analytic_stable",
        alpha=_real(spec["alpha"], "reference.alpha"),
        scale=_real(spec["scale"], "reference.scale"),
    )


def _at_time(times, t: float) -> int:
    """Index of the entry of ``times`` that is t up to rounding."""
    for i, s in enumerate(times):
        if abs(s - t) <= 1e-9 * max(1.0, abs(t)):
            return i
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
    ref = _reference_law(reference)
    if ratio_times is not None:
        if len(ratio_times) != 2:
            raise ConfigurationError(f"ratio_times must hold two times, got {list(ratio_times)!r}")
        early, late = (float(t) for t in ratio_times)
        times = [float(c) for c in checkpoints]
        for t in (early, late):
            _at_time(times, t)
    snapshots = evolve_empirical_law(
        problem, dt, n_paths, checkpoints, master_seed, workers=workers
    )
    if ref is None:
        final = max(snapshots, key=lambda m: m.t)
        ref = StationaryReference(kind="empirical_snapshot", snapshot=final)
        ref_desc = {"kind": "final-snapshot", "t": final.t}
    else:
        ref_desc = {"kind": "analytic-stable", "alpha": ref.alpha, "scale": ref.scale}
    report = invariant_convergence_report(snapshots, ref, k)
    ratio = None
    in_band = None
    if ratio_times is not None:
        times = [row.t for row in report.rows]
        w_early = report.rows[_at_time(times, early)].wasserstein
        w_late = report.rows[_at_time(times, late)].wasserstein
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
        one_sided_bound=problem.monotone_bound,
        solvability_limit=solvability_limit(problem),
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
    if n < 2:
        raise ConfigurationError(f"field 'n': need at least 2 draws for a standard error, got {n}")
    for name, values in (("times", times), ("u_grid", u_grid)):
        if len(values) == 0:
            raise ConfigurationError(f"field {name!r}: need at least one value")
    u = np.asarray(u_grid, dtype=float)
    rows = []
    max_z = 0.0
    for j, t in enumerate(times):
        streams = PathStreams(master_seed, [j], LEVY_STREAM)
        draw = sample_levy_increments(noise, float(t), n, streams)[0]
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


class _Kind(NamedTuple):
    """One experiment kind: the top-level keys it reads, and its runner.

    ``run(cfg, problem, common)`` reads the kind's own keys; ``common`` holds
    the checked ``band``, ``n_paths``, ``master_seed`` and ``workers``.  The
    ``run_*`` functions are looked up at call time, so patching them works.
    """

    keys: frozenset
    run: Callable


# ``headline`` is informational and ``output_dir`` is read by the CLI.
_COMMON_KEYS = frozenset({"experiment", "problem", "master_seed", "headline", "output_dir"})

_KINDS = {
    "convergence": _Kind(
        _COMMON_KEYS | {"n_paths", "band", "dts", "reference_dt"},
        lambda cfg, problem, common: run_convergence(
            problem,
            _reals(_need(cfg, "dts"), "dts"),
            _real(_need(cfg, "reference_dt"), "reference_dt"),
            **common,
        ),
    ),
    "invariant-measure": _Kind(
        _COMMON_KEYS | {"n_paths", "band", "dt", "checkpoints", "reference", "k", "ratio_times"},
        lambda cfg, problem, common: run_invariant_measure(
            problem,
            _real(_need(cfg, "dt"), "dt"),
            _reals(_need(cfg, "checkpoints"), "checkpoints"),
            reference=cfg.get("reference"),
            k=_real(cfg.get("k", 1.0), "k"),
            ratio_times=(None if cfg.get("ratio_times") is None
                         else _reals(cfg["ratio_times"], "ratio_times")),
            **common,
        ),
    ),
    "probe-assumptions": _Kind(
        _COMMON_KEYS | {"n_pairs", "radius"},
        lambda cfg, problem, common: run_probe_assumptions(
            problem,
            n_pairs=_integer(cfg.get("n_pairs", 10_000), "n_pairs"),
            radius=_real(cfg.get("radius", 5.0), "radius"),
            seed=common["master_seed"],
        ),
    ),
    "sampler-validation": _Kind(
        _COMMON_KEYS | {"n", "times", "u_grid"},
        lambda cfg, problem, common: run_sampler_validation(
            problem.noise,
            n=_integer(cfg.get("n", 100_000), "n"),
            master_seed=common["master_seed"],
            times=_reals(cfg.get("times", (0.25, 0.5, 1.0, 2.0)), "times"),
            u_grid=_reals(cfg.get("u_grid", (0.25, 0.5, 1.0, 2.0, 4.0)), "u_grid"),
        ),
    ),
}


def execute_config(cfg: dict, n_paths=None, master_seed=None, workers=1):
    """Validate and run one experiment config; overrides trump config values.

    The overrides are checked as config keys: ``n_paths`` for a kind that
    draws no paths is refused like any key the kind does not read.
    """
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root must be an object")
    name = cfg.get("experiment")
    if not isinstance(name, str) or name not in _KINDS:
        raise ConfigurationError(
            f"field 'experiment': got {name!r}, expected one of {', '.join(_KINDS)}"
        )
    kind = _KINDS[name]
    overrides = {"n_paths": n_paths, "master_seed": master_seed}
    cfg = {**cfg, **{key: v for key, v in overrides.items() if v is not None}}
    unknown = sorted(set(cfg) - kind.keys)
    if unknown:
        raise ConfigurationError(
            f"field {unknown[0]!r} is not read by a {name} experiment; "
            f"allowed: {', '.join(sorted(kind.keys))}"
        )
    check_workers(workers)
    band = cfg.get("band")
    common = {
        "band": None if band is None else _band_from_json(band),
        "n_paths": _integer(cfg.get("n_paths", 1000), "n_paths"),
        "master_seed": _integer(cfg.get("master_seed", _DEFAULT_SEED), "master_seed"),
        "workers": workers,
    }
    return kind.run(cfg, _resolve_problem(_need(cfg, "problem")), common)


# ---------------------------------------------------------------------------
# Writers


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_dat(path: Path, pairs):
    lines = [f"{float(x)!r} {float(y)!r}" for x, y in pairs]
    path.write_text("\n".join(lines) + "\n")


def write_run(result, out_dir) -> Path:
    """Persist one result to ``out_dir``; returns the directory path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "created_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "params": result.params,
    }
    fields, tables = result.artifacts()
    summary.update(fields)
    for name, header, rows in tables:
        if header is None:
            _write_dat(out / name, rows)
        else:
            _write_csv(out / name, header, rows)
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return out
