"""The benchmark workloads and the output check that guards them.

Each workload is one catalog protocol driven through the package's public
entry points (``execute_config`` + ``write_run``, or
``two_initial_value_coupling``).  The workload seed reaches the program only
as ``master_seed``.  Why each workload exists:

* ``strong-51a``: paper-5.1a strong order on 256 coupled paths (dts
  2^-5..2^-8, reference 2^-10): 1,504 implicit solves of width 256, so
  the fixed per-call cost of the implicit step dominates; no analysis.
* ``law-53``: paper-5.3 invariant law at t = 2 against the analytic stable
  reference (1e6 draws), 2,500 paths.  The bootstrap KS analysis dominates;
  kernel changes should leave it flat.
* ``law-54``: paper-5.4 invariant law, 1e4 paths over 200 steps on
  ``workers=2``: the only workload that runs the spawn process pool (3 chunks
  over 2 workers); wide batches, cheap analysis.
* ``coupling-54``: paper-5.4 two-start coupling (x0 = +/-10, 300 steps,
  4096 paths, one process), the only caller of ``coupling_curve``: two sweeps
  over one tape and a (paths x steps) first-sweep buffer.

``BENCHMARK.json`` lists only ``strong-51a`` and ``law-54``; ``law-53`` and
``coupling-54`` run on demand and in the self-test.  On a shared 2-core host
whose speed drifts by up to 2x over tens of seconds, medians of runs shorter
than about a minute spread past the bounds, and the run-time budget holds
runs that long for two workloads only.  The two kept still reach every layer:
``strong-51a`` the convergence layer, ``law-54`` the process pool and the
measures layer, and both the tempered (tilted-stable) sampler.

The output check never uses the acceptance bands (criteria 1, 3 and 4 fail
by design).  It asks for finite headlines, bit-identical headlines from two
repetitions with one seed, and, at the default seed, agreement with the
values recorded at the seed commit (``reference.json``) within ``Z_LIMIT``
combined standard errors, so that a declared change of random-number
consumption passes while a wrong kernel fails.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20240817
# |x - x_ref| <= Z_LIMIT * hypot(se, se_ref): two independent estimates of one
# quantity differ by more than 4 combined standard errors with odds ~6e-5.
Z_LIMIT = 4.0
REFERENCE_FILE = Path(__file__).with_name("reference.json")
COUPLING_STEPS_CHECKED = (0, 1, 2, 5, 10, 20, 50, 100, 200, 300)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "convergence" | "invariant-measure" | "coupling"
    catalog: str              # catalog entry the protocol comes from
    workers: int
    overrides: dict           # full scale, applied on top of entry_config
    tiny: dict                # self-test scale
    predicted_dominant: tuple  # layers expected to dominate run_s


# A repetition takes 0.7-5 s on a 2-core x86 box, so that one run holds
# enough repetitions for a steady median; the catalog protocols are cut in
# length (steps, checkpoints, levels), never in batch width, so each
# workload keeps the layer balance it was chosen for.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "strong-51a", "convergence", "paper-5.1a", 1,
            {"n_paths": 256, "dts": [2.0 ** -5, 2.0 ** -6, 2.0 ** -7, 2.0 ** -8],
             "reference_dt": 2.0 ** -10},
            {"n_paths": 100, "dts": [2.0 ** -4, 2.0 ** -5, 2.0 ** -6], "reference_dt": 2.0 ** -8},
            ("implicit",),
        ),
        Workload(
            "law-53", "invariant-measure", "paper-5.3", 1,
            {"n_paths": 2500, "checkpoints": [2.0]},
            {"n_paths": 200, "checkpoints": [0.1]},
            ("measures",),
        ),
        Workload(
            "law-54", "invariant-measure", "paper-5.4", 2,
            {"horizon": 2.0, "checkpoints": [0.04, 0.1, 0.2, 1.0, 2.0]},
            # > 4096 paths so the tiny run still splits into two pool chunks
            {"n_paths": 4200, "checkpoints": [0.04, 0.1, 0.2, 1.0], "horizon": 1.0},
            ("engine",),
        ),
        Workload(
            "coupling-54", "coupling", "paper-5.4", 1,
            {"n_paths": 4096, "n_steps": 300, "dt": 0.01, "x0_pair": [10.0, -10.0]},
            {"n_paths": 200, "n_steps": 100, "dt": 0.01, "x0_pair": [10.0, -10.0]},
            ("implicit", "noise"),
        ),
    )
}


class Prepared:
    """Everything set-up builds for one workload: config, problem, runner."""

    def __init__(self, workload: Workload, seed: int, tiny: bool, out_root: Path):
        import levyem
        from levyem.experiments import entry_config

        self.workload = workload
        self.seed = int(seed)
        self.tiny = tiny
        self.out_root = out_root
        params = dict(workload.tiny if tiny else workload.overrides)
        if workload.kind == "coupling":
            self.params = params
            self.problem = levyem.builtin_problem(workload.catalog)
            self.config = None
        else:
            cfg = entry_config(workload.catalog)
            horizon = params.pop("horizon", None)
            if horizon is not None:
                cfg["problem"]["horizon"] = horizon
            cfg.update(params)
            cfg["master_seed"] = self.seed
            self.config = cfg
            self.params = cfg
            self.problem = levyem.problem_from_config(cfg["problem"])
        self._reps = 0

    def run(self):
        """One experiment, from config to written run directory (or curve)."""
        import levyem.experiments as experiments
        import levyem.measures as measures

        if self.workload.kind == "coupling":
            p = self.params
            return measures.two_initial_value_coupling(
                self.problem, p["dt"], p["x0_pair"][0], p["x0_pair"][1],
                p["n_paths"], p["n_steps"], self.seed, workers=self.workload.workers,
            )
        self._reps += 1
        out_dir = self.out_root / f"rep-{self._reps}"
        result = experiments.execute_config(self.config, workers=self.workload.workers)
        experiments.write_run(result, out_dir)
        result.out_dir = out_dir
        return result

    def discard(self, result) -> None:
        out_dir = getattr(result, "out_dir", None)
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)

    def work_counts(self) -> dict:
        """Deterministic work of one experiment: path-steps solved, increments drawn."""
        noise = self.problem.noise
        streams = int(noise.brownian_dim > 0) + int(noise.has_jumps)
        if self.workload.kind == "convergence":
            n_fine = _steps(self.problem.horizon, self.params["reference_dt"])
            coarse = sum(_steps(self.problem.horizon, d) for d in self.params["dts"])
            paths = self.params["n_paths"]
            return {"path_steps": paths * (n_fine + coarse), "increments": paths * n_fine * streams}
        if self.workload.kind == "coupling":
            paths, steps = self.params["n_paths"], self.params["n_steps"]
            return {"path_steps": 2 * paths * steps, "increments": paths * steps * streams}
        steps = _steps(self.problem.horizon, self.params["dt"])
        paths = self.params["n_paths"]
        return {"path_steps": paths * steps, "increments": paths * steps * streams}


def _steps(horizon: float, dt: float) -> int:
    return int(math.floor(horizon / dt + 1e-9))


# ---------------------------------------------------------------------------
# headlines and the output check


def headline(prepared: Prepared, result) -> dict:
    """The outputs a run is judged by, with each statistic's standard error."""
    kind = prepared.workload.kind
    if kind == "convergence":
        lo, hi = result.fit.slope_ci
        return {
            "order": result.fit.slope,
            "order_se": (hi - lo) / (2.0 * 1.96),
            "order_ci": [lo, hi],
            "dt": [r.dt for r in result.table.rows],
            "mse": [r.mse for r in result.table.rows],
            "mse_se": [r.stderr for r in result.table.rows],
            "rmse": [r.rmse for r in result.table.rows],
        }
    if kind == "coupling":
        xa, xb = prepared.params["x0_pair"]
        return {
            "mean_sq_gap": [float(v) for v in result.mean_sq_gap],
            "stderr": [float(v) for v in result.stderr],
            "sep_sq": float((xa - xb) ** 2),
        }
    rows = result.report.rows
    t = [r.t for r in rows]
    ratio_times = prepared.params.get("ratio_times")
    return {
        "t": t,
        "ks": [r.ks for r in rows],
        "ks_se": [r.ks_stderr for r in rows],
        "p_value": [r.p_value for r in rows],
        "w1": [r.wasserstein for r in rows],
        "w1_se": [r.w_stderr for r in rows],
        "ratio": result.ratio,
        "ratio_rows": None if ratio_times is None else [t.index(float(x)) for x in ratio_times],
    }


def fingerprint(values: dict) -> str:
    """Exact identity of a headline: JSON keeps every float digit."""
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()


def _finite(values) -> bool:
    if isinstance(values, dict):
        return all(_finite(v) for v in values.values())
    if isinstance(values, list):
        return all(_finite(v) for v in values)
    if values is None:
        return True
    return math.isfinite(values)


def _close(x, x_ref, se, se_ref, floor=0.0) -> bool:
    return abs(x - x_ref) <= Z_LIMIT * math.hypot(se, se_ref) + floor


def _ratio_se(h: dict, early: int, late: int) -> float:
    w = h["w1"]
    se = h["w1_se"]
    return h["ratio"] * math.hypot(se[late] / w[late], se[early] / w[early])


def reference_problems(workload: Workload, h: dict, ref: dict) -> list[str]:
    """Disagreements of a default-seed headline with the recorded one."""
    bad = []
    if workload.kind == "convergence":
        if not _close(h["order"], ref["order"], h["order_se"], ref["order_se"]):
            bad.append(f"order {h['order']!r} vs recorded {ref['order']!r}")
        for i, dt in enumerate(ref["dt"]):
            if not _close(h["mse"][i], ref["mse"][i], h["mse_se"][i], ref["mse_se"][i]):
                bad.append(f"mse at dt={dt!r}: {h['mse'][i]!r} vs recorded {ref['mse'][i]!r}")
        return bad
    if workload.kind == "coupling":
        floor = 1e-9 * ref["sep_sq"]
        for i in COUPLING_STEPS_CHECKED:
            if not _close(h["mean_sq_gap"][i], ref["mean_sq_gap"][i], h["stderr"][i], ref["stderr"][i], floor):
                bad.append(f"coupling gap at step {i}: {h['mean_sq_gap'][i]!r} vs recorded {ref['mean_sq_gap'][i]!r}")
        return bad
    for i, t in enumerate(ref["t"]):
        if not _close(h["ks"][i], ref["ks"][i], h["ks_se"][i], ref["ks_se"][i]):
            bad.append(f"KS at t={t!r}: {h['ks'][i]!r} vs recorded {ref['ks'][i]!r}")
        if not _close(h["w1"][i], ref["w1"][i], h["w1_se"][i], ref["w1_se"][i]):
            bad.append(f"W1 at t={t!r}: {h['w1'][i]!r} vs recorded {ref['w1'][i]!r}")
    if ref["ratio"] is not None:
        early, late = ref["ratio_rows"]
        if not _close(h["ratio"], ref["ratio"], _ratio_se(h, early, late), _ratio_se(ref, early, late)):
            bad.append(f"W1 ratio {h['ratio']!r} vs recorded {ref['ratio']!r}")
    return bad


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


class OutputCheck:
    """Checks every repetition of one workload at one seed."""

    def __init__(self, prepared: Prepared):
        self.prepared = prepared
        self.first = None
        self.reference = None
        if prepared.seed == DEFAULT_SEED and not prepared.tiny:
            self.reference = load_reference()[prepared.workload.name]

    def problems(self, result) -> list[str]:
        h = headline(self.prepared, result)
        if not _finite(h):
            return ["non-finite headline output"]
        bad = []
        fp = fingerprint(h)
        if self.first is None:
            self.first = fp
            if self.reference is not None:
                bad.extend(reference_problems(self.prepared.workload, h, self.reference))
        elif fp != self.first:
            bad.append("headline differs from the first repetition with the same seed")
        return bad
