"""Ensemble simulation engine for the drift-implicit scheme.

The update over one step of size dt is

    Y[i+1] = Y[i] + f(t[i+1], Y[i+1]) dt + g(t[i], Y[i]) dB[i+1] + dL[i+1],

i.e. implicit in the drift only; diffusion and jump increments enter
explicitly.  A horizon T is covered by N = floor(T / dt) steps.

Two driving modes are supported:

* direct mode draws the Brownian and jump increments per step at the run's
  own dt (used by the long-time distribution experiments), and
* tape mode pre-draws increments on a fine grid once per path and derives
  every coarser resolution by exact block summation (:class:`IncrementTape`),
  so that runs at different step sizes share one realisation of the driving
  noise.  That coupling is what makes pathwise error measurement against a
  fine-grid reference meaningful.

Every path owns an independent counter-based RNG stream keyed by
(master_seed, path_index, stream), so results do not depend on how paths are
grouped into memory chunks or distributed over worker processes.  Chunk
boundaries are a pure function of the path count and the memory budget, and
per-chunk results are merged in chunk order, which makes ensemble output
byte-stable for any worker count.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .implicit import ImplicitStepConfig, StepDiagnostics, solve_implicit_steps
from .model import SdeProblem
from .noise import SeedPolicy, make_rng, sample_levy_increments

__all__ = [
    "IncrementTape",
    "make_tape",
    "EnsembleResult",
    "MomentCurve",
    "StrongErrorRun",
    "simulate_ensemble",
    "second_moment_curve",
    "coupling_curve",
    "strong_error_run",
    "steps_for_horizon",
    "checkpoint_step",
]

_DEFAULT_CHUNK_BUDGET = 2**27  # bytes of increment storage per chunk
_MAX_CHUNK_PATHS = 4096
_GRID_RTOL = 1e-9


def steps_for_horizon(horizon: float, dt: float) -> int:
    """N = floor(T / dt), robust to dt values that only almost divide T."""
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    return int(np.floor(horizon / dt + _GRID_RTOL))


def checkpoint_step(t: float, dt: float, n_steps: int) -> int:
    """Map a checkpoint time onto its step index, requiring grid alignment."""
    step = int(round(t / dt))
    if abs(step * dt - t) > _GRID_RTOL * max(1.0, abs(t)):
        raise ConfigurationError(f"checkpoint t={t} is not a multiple of dt={dt}")
    if not 0 <= step <= n_steps:
        raise ConfigurationError(f"checkpoint t={t} outside the simulated range [0, {n_steps * dt}]")
    return step


# ---------------------------------------------------------------------------
# increment tapes


@dataclass(frozen=True)
class IncrementTape:
    """Pre-drawn driving increments for a block of paths on one time grid."""

    fine_dt: float
    brownian: np.ndarray | None  # (n_paths, n_steps) Brownian increments, or None
    levy: np.ndarray | None  # (n_paths, n_steps) jump increments, or None

    @property
    def n_paths(self) -> int:
        ref = self.brownian if self.brownian is not None else self.levy
        return 0 if ref is None else ref.shape[0]

    @property
    def n_steps(self) -> int:
        ref = self.brownian if self.brownian is not None else self.levy
        return 0 if ref is None else ref.shape[1]

    def coarsen(self, dt: float) -> "IncrementTape":
        """Aggregate to step size dt (an integer multiple of fine_dt) by block sums."""
        ratio_f = dt / self.fine_dt
        ratio = int(round(ratio_f))
        if ratio < 1 or abs(ratio_f - ratio) > _GRID_RTOL * ratio:
            raise ConfigurationError(
                f"coarse dt={dt} is not an integer multiple of the tape step {self.fine_dt}"
            )
        if ratio == 1:
            return self
        n_fine = (self.brownian if self.brownian is not None else self.levy).shape[1]
        if n_fine % ratio != 0:
            raise ConfigurationError(
                f"cannot aggregate {n_fine} fine steps into blocks of {ratio}"
            )

        def block_sum(arr):
            if arr is None:
                return None
            return arr.reshape(arr.shape[0], n_fine // ratio, ratio).sum(axis=2)

        return IncrementTape(
            fine_dt=self.fine_dt * ratio,
            brownian=block_sum(self.brownian),
            levy=block_sum(self.levy),
        )


def make_tape(
    problem: SdeProblem,
    fine_dt: float,
    n_steps: int,
    path_indices,
    master_seed: int,
) -> IncrementTape:
    """Draw per-path increments for ``path_indices`` on the fine grid."""
    spec = problem.noise
    path_indices = np.asarray(path_indices, dtype=int)
    n_paths = path_indices.size
    brownian = np.empty((n_paths, n_steps)) if spec.brownian_dim else None
    levy = np.empty((n_paths, n_steps)) if spec.has_jumps else None
    sqrt_dt = np.sqrt(fine_dt)
    for row, path in enumerate(path_indices):
        if brownian is not None:
            rng = make_rng(SeedPolicy(master_seed, int(path), "brownian"))
            brownian[row] = rng.standard_normal(n_steps) * sqrt_dt
        if levy is not None:
            levy[row] = sample_levy_increments(
                spec, fine_dt, n_steps, SeedPolicy(master_seed, int(path), "levy")
            )
    return IncrementTape(fine_dt=fine_dt, brownian=brownian, levy=levy)


# ---------------------------------------------------------------------------
# core evolution


def _evolve(
    problem: SdeProblem,
    dt: float,
    n_steps: int,
    y0: np.ndarray,
    brownian: np.ndarray | None,
    levy: np.ndarray | None,
    config: ImplicitStepConfig,
    diag: StepDiagnostics,
    on_step=None,
) -> np.ndarray:
    """March a batch of scalar paths forward, calling on_step(i, y) at each node."""
    y = np.array(y0, dtype=float, copy=True)
    if on_step is not None:
        on_step(0, y)
    for i in range(n_steps):
        c = y
        if brownian is not None:
            c = c + problem.diffusion(i * dt, y) * brownian[:, i]
        if levy is not None:
            c = c + levy[:, i]
        y = solve_implicit_steps(problem, (i + 1) * dt, c, dt, config=config, diagnostics=diag)
        if on_step is not None:
            on_step(i + 1, y)
    return y


def _chunk_ranges(n_paths: int, n_steps: int, streams: int, budget_bytes: int):
    """Split paths into contiguous chunks; a pure function of the sizes only."""
    per_path = max(1, n_steps) * 8 * max(1, streams)
    chunk = int(min(_MAX_CHUNK_PATHS, max(1, budget_bytes // per_path)))
    return [(lo, min(lo + chunk, n_paths)) for lo in range(0, n_paths, chunk)]


def _noise_stream_count(problem: SdeProblem) -> int:
    return int(problem.noise.brownian_dim > 0) + int(problem.noise.has_jumps)


# ---------------------------------------------------------------------------
# chunk worker (top level so a spawn-context process pool can import it)


def _rebuild_problem(payload: dict) -> SdeProblem:
    from .problems import problem_from_config

    return problem_from_config(payload["config"])


def _chunk_worker(payload: dict, problem: SdeProblem | None = None):
    if problem is None:
        problem = _rebuild_problem(payload)
    kind = payload["kind"]
    config = ImplicitStepConfig(**payload.get("step_config", {}))
    diag = StepDiagnostics()
    dt = payload["dt"]
    n_steps = payload["n_steps"]
    lo, hi = payload["path_range"]
    paths = np.arange(lo, hi)
    seed = payload["seed"]

    if kind in ("ensemble", "curve", "coupling"):
        tape = make_tape(problem, dt, n_steps, paths, seed)
        x0 = payload.get("x0", problem.x0)
        if kind == "ensemble":
            record = {}
            record_steps = set(payload["record_steps"])

            def on_step(i, y):
                if i in record_steps:
                    record[i] = y.copy()

            y0 = np.full(paths.size, float(x0))
            terminal = _evolve(
                problem, dt, n_steps, y0, tape.brownian, tape.levy, config, diag, on_step
            )
            return {"terminal": terminal, "record": record, "diag": diag}
        if kind == "curve":
            sum_sq = np.zeros(n_steps + 1)
            sum_quad = np.zeros(n_steps + 1)

            def on_step(i, y):
                sq = y * y
                sum_sq[i] = sq.sum()
                sum_quad[i] = (sq * sq).sum()

            y0 = np.full(paths.size, float(x0))
            _evolve(problem, dt, n_steps, y0, tape.brownian, tape.levy, config, diag, on_step)
            return {"sum_sq": sum_sq, "sum_quad": sum_quad, "count": paths.size, "diag": diag}
        # coupling: two states driven by the identical increments
        xa, xb = payload["x0_pair"]
        sum_sq = np.zeros(n_steps + 1)
        sum_quad = np.zeros(n_steps + 1)
        first_sweep = np.zeros((paths.size, n_steps + 1))

        def record_a(i, y):
            first_sweep[:, i] = y

        _evolve(problem, dt, n_steps, np.full(paths.size, float(xa)), tape.brownian, tape.levy, config, diag, record_a)

        def record_b(i, y):
            sq = (first_sweep[:, i] - y) ** 2
            sum_sq[i] = sq.sum()
            sum_quad[i] = (sq * sq).sum()

        _evolve(problem, dt, n_steps, np.full(paths.size, float(xb)), tape.brownian, tape.levy, config, diag, record_b)
        return {"sum_sq": sum_sq, "sum_quad": sum_quad, "count": paths.size, "diag": diag}

    if kind == "strong":
        ref_dt = payload["reference_dt"]
        n_fine = payload["n_fine"]
        dts = payload["dts"]
        error_mode = payload["error_mode"]
        tape = make_tape(problem, ref_dt, n_fine, paths, seed)
        ratios = {d: int(round(d / ref_dt)) for d in dts}
        smallest = min(ratios.values())
        record_multiple = smallest if error_mode == "max_on_grid" else n_fine
        ref_nodes = {}

        def on_ref(i, y):
            if i % record_multiple == 0 or i == n_fine:
                ref_nodes[i] = y.copy()

        y0 = np.full(paths.size, float(problem.x0))
        _evolve(problem, ref_dt, n_fine, y0, tape.brownian, tape.levy, config, diag, on_ref)
        errors = {}
        for d in dts:
            ratio = ratios[d]
            coarse = tape.coarsen(d)
            n_coarse = n_fine // ratio
            if error_mode == "max_on_grid":
                worst = np.zeros(paths.size)

                def on_coarse(i, y, ratio=ratio, worst=worst):
                    np.maximum(worst, np.abs(y - ref_nodes[i * ratio]), out=worst)

                _evolve(problem, d, n_coarse, y0, coarse.brownian, coarse.levy, config, diag, on_coarse)
                errors[d] = worst
            else:
                terminal = _evolve(
                    problem, d, n_coarse, y0, coarse.brownian, coarse.levy, config, diag
                )
                errors[d] = np.abs(terminal - ref_nodes[n_fine])
        return {"errors": errors, "reference_terminal": ref_nodes[n_fine], "diag": diag}

    raise ConfigurationError(f"unknown chunk kind {kind!r}")


def _require_source(problem: SdeProblem, workers: int) -> None:
    if workers > 1 and problem.source is None:
        raise ConfigurationError(
            "worker processes rebuild the problem from its config; "
            "problems defined with bare callables only run with workers=1"
        )


def _base_payload(problem, kind, dt, n_steps, seed, rng_range, extra):
    payload = {
        "kind": kind,
        "config": problem.source,
        "dt": dt,
        "n_steps": n_steps,
        "seed": seed,
        "path_range": rng_range,
    }
    payload.update(extra)
    return payload


def _run_payloads(problem: SdeProblem, payloads, workers: int):
    """Run chunks inline (reusing the caller's problem object) or on a spawn pool.

    Pool workers rebuild the problem from ``payload["config"]``.
    """
    if workers <= 1 or len(payloads) <= 1:
        return [_chunk_worker(p, problem) for p in payloads]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(_chunk_worker, payloads))


# ---------------------------------------------------------------------------
# public results


@dataclass
class EnsembleResult:
    problem: str
    dt: float
    n_steps: int
    n_paths: int
    master_seed: int
    terminal: np.ndarray
    checkpoints: dict[float, np.ndarray] = field(default_factory=dict)
    diagnostics: StepDiagnostics = field(default_factory=StepDiagnostics)


@dataclass
class MomentCurve:
    """Per-step ensemble mean of a squared quantity, with its standard error."""

    dt: float
    n_paths: int
    mean: np.ndarray  # (n_steps + 1,)
    stderr: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.mean.size - 1


@dataclass
class StrongErrorRun:
    problem: str
    reference_dt: float
    n_paths: int
    master_seed: int
    error_mode: str
    errors: dict[float, np.ndarray]
    reference_terminal: np.ndarray
    diagnostics: StepDiagnostics


def _merge_curve(chunks, dt: float) -> MomentCurve:
    sum_sq = np.zeros_like(chunks[0]["sum_sq"])
    sum_quad = np.zeros_like(chunks[0]["sum_quad"])
    count = 0
    for ch in chunks:
        sum_sq += ch["sum_sq"]
        sum_quad += ch["sum_quad"]
        count += ch["count"]
    mean = sum_sq / count
    if count > 1:
        var = np.maximum(sum_quad / count - mean * mean, 0.0) * (count / (count - 1))
        stderr = np.sqrt(var / count)
    else:
        stderr = np.zeros_like(mean)
    return MomentCurve(dt=dt, n_paths=count, mean=mean, stderr=stderr)


# ---------------------------------------------------------------------------
# public entry points


def simulate_ensemble(
    problem: SdeProblem,
    dt: float,
    n_paths: int,
    master_seed: int,
    checkpoints=(),
    x0: float | None = None,
    workers: int = 1,
    step_config: ImplicitStepConfig | None = None,
    chunk_budget_bytes: int = _DEFAULT_CHUNK_BUDGET,
) -> EnsembleResult:
    """Evolve an ensemble at one step size; record terminals and checkpoints."""
    n_steps = steps_for_horizon(problem.horizon, dt)
    record_steps = sorted({checkpoint_step(t, dt, n_steps) for t in checkpoints})
    _require_source(problem, workers)
    extra = {"record_steps": record_steps}
    if x0 is not None:
        extra["x0"] = float(x0)
    if step_config is not None:
        extra["step_config"] = step_config.__dict__
    payloads = [
        _base_payload(problem, "ensemble", dt, n_steps, master_seed, rng, extra)
        for rng in _chunk_ranges(n_paths, n_steps, _noise_stream_count(problem), chunk_budget_bytes)
    ]
    results = _run_payloads(problem, payloads, workers)
    terminal = np.concatenate([r["terminal"] for r in results])
    diag = StepDiagnostics()
    for r in results:
        diag.merge(r["diag"])
    out = EnsembleResult(
        problem=problem.name,
        dt=dt,
        n_steps=n_steps,
        n_paths=n_paths,
        master_seed=master_seed,
        terminal=terminal,
        diagnostics=diag,
    )
    for t in checkpoints:
        step = checkpoint_step(t, dt, n_steps)
        out.checkpoints[float(t)] = np.concatenate([r["record"][step] for r in results])
    return out


def second_moment_curve(
    problem: SdeProblem,
    dt: float,
    n_steps: int,
    n_paths: int,
    master_seed: int,
    x0: float | None = None,
    workers: int = 1,
    chunk_budget_bytes: int = _DEFAULT_CHUNK_BUDGET,
) -> MomentCurve:
    """E|Y_i|^2 for i = 0..n_steps, estimated over an ensemble."""
    _require_source(problem, workers)
    extra = {} if x0 is None else {"x0": float(x0)}
    payloads = [
        _base_payload(problem, "curve", dt, n_steps, master_seed, rng, extra)
        for rng in _chunk_ranges(n_paths, n_steps, _noise_stream_count(problem), chunk_budget_bytes)
    ]
    return _merge_curve(_run_payloads(problem, payloads, workers), dt)


def coupling_curve(
    problem: SdeProblem,
    x0_pair: tuple[float, float],
    dt: float,
    n_steps: int,
    n_paths: int,
    master_seed: int,
    workers: int = 1,
    chunk_budget_bytes: int = _DEFAULT_CHUNK_BUDGET,
) -> MomentCurve:
    """E|Y_i - Y'_i|^2 for two starts driven by the same noise realisation."""
    _require_source(problem, workers)
    extra = {"x0_pair": (float(x0_pair[0]), float(x0_pair[1]))}
    payloads = [
        _base_payload(problem, "coupling", dt, n_steps, master_seed, rng, extra)
        for rng in _chunk_ranges(n_paths, n_steps, _noise_stream_count(problem), chunk_budget_bytes)
    ]
    return _merge_curve(_run_payloads(problem, payloads, workers), dt)


def strong_error_run(
    problem: SdeProblem,
    dts,
    reference_dt: float,
    n_paths: int,
    master_seed: int,
    error_mode: str = "terminal",
    workers: int = 1,
    chunk_budget_bytes: int = _DEFAULT_CHUNK_BUDGET,
) -> StrongErrorRun:
    """Pathwise errors of coarse runs against a fine-grid reference.

    All resolutions of one path consume the same increment tape, so the
    difference at matching nodes is the discretisation error alone.
    """
    if error_mode not in ("terminal", "max_on_grid"):
        raise ConfigurationError(f"error_mode must be terminal|max_on_grid, got {error_mode!r}")
    dts = sorted(float(d) for d in dts)
    if not dts:
        raise ConfigurationError("need at least one coarse dt")
    n_fine = steps_for_horizon(problem.horizon, reference_dt)
    for d in dts:
        ratio_f = d / reference_dt
        if abs(ratio_f - round(ratio_f)) > _GRID_RTOL * ratio_f or round(ratio_f) < 1:
            raise ConfigurationError(
                f"coarse dt={d} must be an integer multiple of reference_dt={reference_dt}"
            )
        if n_fine % round(ratio_f):
            raise ConfigurationError(f"reference grid ({n_fine} steps) not divisible by ratio {ratio_f}")
    _require_source(problem, workers)
    extra = {"reference_dt": reference_dt, "n_fine": n_fine, "dts": dts, "error_mode": error_mode}
    payloads = [
        _base_payload(problem, "strong", reference_dt, n_fine, master_seed, rng, extra)
        for rng in _chunk_ranges(n_paths, n_fine, _noise_stream_count(problem), chunk_budget_bytes)
    ]
    results = _run_payloads(problem, payloads, workers)
    errors = {d: np.concatenate([r["errors"][d] for r in results]) for d in dts}
    diag = StepDiagnostics()
    for r in results:
        diag.merge(r["diag"])
    return StrongErrorRun(
        problem=problem.name,
        reference_dt=reference_dt,
        n_paths=n_paths,
        master_seed=master_seed,
        error_mode=error_mode,
        errors=errors,
        reference_terminal=np.concatenate([r["reference_terminal"] for r in results]),
        diagnostics=diag,
    )
