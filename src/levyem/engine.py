"""Ensemble simulation engine for the drift-implicit scheme.

The update over one step of size dt is

    Y[i+1] = Y[i] + f(t[i+1], Y[i+1]) dt + g(t[i], Y[i]) dB[i+1] + dL[i+1],

i.e. implicit in the drift only; diffusion and jump increments enter
explicitly.  A horizon T is covered by N = floor(T / dt) steps.

Every run draws its increments on a tape (:class:`IncrementTape`) at its
finest step, one chunk of paths at a time from the per-path streams (row r
is what path r's own streams give, whatever the chunk), and derives coarser
resolutions by exact block sums, so runs at different step sizes share one
realisation of the driving noise, which makes pathwise error against a
fine-grid reference meaningful.

One runner, ``_run_chunks``, runs each chunk of paths through a kernel,
inline or on a spawn process pool, and merges the solver diagnostics:
``_ensemble_kernel`` records checkpoints and terminal values,
``_moment_kernel`` sums q and q^2 per step (q = Y^2, or q = (Y - Y')^2 for
two starts run as one batch on the same tape rows), and ``_strong_kernel``
runs the fine-grid reference, then each coarsened level.

Every path owns an independent counter-based RNG stream keyed by
(master_seed, path_index, stream), so results do not depend on how paths are
grouped into memory chunks or distributed over worker processes.  Chunk
boundaries are a pure function of the path count and the memory budget, and
per-chunk results are merged in chunk order, which makes ensemble output
byte-stable for any worker count.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, StepFailureError
from .implicit import StepDiagnostics, solve_implicit_steps
from .model import SdeProblem
from .noise import (  # make_rng is unused here: bench/tracing.py times it under this name
    BROWNIAN_STREAM,
    LEVY_STREAM,
    PathStreams,
    make_rng,  # noqa: F401
    sample_levy_increments,
)
from .problems import problem_from_config

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


def _grid_ratio(dt: float, base_dt: float, n_base: int) -> int:
    """dt / base_dt, required to be an integer that divides n_base."""
    ratio_f = dt / base_dt
    ratio = int(round(ratio_f))
    if ratio < 1 or abs(ratio_f - ratio) > _GRID_RTOL * ratio:
        raise ConfigurationError(f"dt={dt} is not an integer multiple of the grid step {base_dt}")
    if n_base % ratio:
        raise ConfigurationError(f"cannot aggregate {n_base} steps into blocks of {ratio}")
    return ratio


# ---------------------------------------------------------------------------
# increment tapes


@dataclass(frozen=True)
class IncrementTape:
    """Pre-drawn driving increments for a block of paths on one time grid."""

    fine_dt: float
    n_steps: int  # steps on the grid, also when neither noise is present
    brownian: np.ndarray | None  # (n_paths, n_steps) Brownian increments, or None
    levy: np.ndarray | None  # (n_paths, n_steps) jump increments, or None

    def coarsen(self, dt: float) -> "IncrementTape":
        """Aggregate to step size dt (an integer multiple of fine_dt) by block sums."""
        ratio = _grid_ratio(dt, self.fine_dt, self.n_steps)
        if ratio == 1:
            return self

        def block_sum(arr):
            if arr is None:
                return None
            return arr.reshape(arr.shape[0], self.n_steps // ratio, ratio).sum(axis=2)

        return IncrementTape(
            fine_dt=self.fine_dt * ratio,
            n_steps=self.n_steps // ratio,
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
    """Draw per-path increments for ``path_indices`` on the fine grid.

    Row r holds what path ``path_indices[r]``'s own streams give, so a row
    does not depend on the other paths of the chunk.
    """
    spec = problem.noise
    path_indices = np.asarray(path_indices, dtype=int)
    brownian = levy = None
    if spec.brownian_dim:
        streams = PathStreams(master_seed, path_indices, BROWNIAN_STREAM)
        brownian = np.empty((path_indices.size, n_steps))
        for row in range(path_indices.size):
            streams[row].standard_normal(out=brownian[row])
            streams.release(row)
        brownian *= np.sqrt(fine_dt)
    if spec.has_jumps:
        streams = PathStreams(master_seed, path_indices, LEVY_STREAM)
        levy = sample_levy_increments(spec, fine_dt, n_steps, streams)
    return IncrementTape(fine_dt=fine_dt, n_steps=n_steps, brownian=brownian, levy=levy)


# ---------------------------------------------------------------------------
# core evolution


def _evolve(problem: SdeProblem, dt: float, n_steps: int, y0, brownian, levy, diag, on_step=None):
    """March a batch of scalar paths forward, calling on_step(i, y) at each node.

    ``y0`` is (rows,), or (starts, rows) for starts driven by the same tape
    rows; one implicit solve covers the batch.  A StepFailureError gains the
    step number, and for starts also the start, in its diagnostics.
    """
    y = np.array(y0, dtype=float, copy=True)
    if on_step is not None:
        on_step(0, y)
    for i in range(n_steps):
        c = y
        if brownian is not None:
            c = c + problem.diffusion(i * dt, y) * brownian[:, i]
        if levy is not None:
            c = c + levy[:, i]
        try:
            y = solve_implicit_steps(problem, (i + 1) * dt, c.ravel(), dt, diagnostics=diag)
        except StepFailureError as exc:
            exc.diagnostics["step"] = i + 1
            if c.ndim == 2:
                exc.diagnostics["start"] = exc.diagnostics["index"] // c.shape[1]
            raise
        y = y.reshape(c.shape)
        if on_step is not None:
            on_step(i + 1, y)
    return y


def _chunk_ranges(n_paths: int, n_steps: int, streams: int, budget_bytes: int):
    """Split paths into contiguous chunks; a pure function of the sizes only."""
    per_path = max(1, n_steps) * 8 * max(1, streams)
    chunk = int(min(_MAX_CHUNK_PATHS, max(1, budget_bytes // per_path)))
    return [(lo, min(lo + chunk, n_paths)) for lo in range(0, n_paths, chunk)]


# ---------------------------------------------------------------------------
# kernels: one chunk's tape each (top level, so a spawn pool can import them)


def _ensemble_kernel(problem, tape, n_paths, n_steps, diag, x0, record_steps):
    """Terminal values, and the states at ``record_steps`` keyed by step."""
    record = {}

    def on_step(i, y):
        if i in record_steps:
            record[i] = y.copy()

    y0 = np.full(n_paths, x0)
    terminal = _evolve(problem, tape.fine_dt, n_steps, y0, tape.brownian, tape.levy, diag, on_step)
    return terminal, record


def _moment_kernel(problem, tape, n_paths, n_steps, diag, starts):
    """Per-step sums of q and q^2: q = Y^2 for one start, (Y - Y')^2 for a pair."""
    sums = np.zeros((2, n_steps + 1))

    def on_step(i, y):
        q = y if y.ndim == 1 else y[0] - y[1]
        q = q * q
        sums[0, i] = q.sum()
        sums[1, i] = (q * q).sum()

    y0 = np.multiply.outer(starts, np.ones(n_paths))  # (n,), or (2, n) for a pair
    _evolve(problem, tape.fine_dt, n_steps, y0, tape.brownian, tape.levy, diag, on_step)
    return sums


def _strong_kernel(problem, tape, n_paths, n_fine, diag, dts, ratios, error_mode):
    """Per-path error of each coarse level dts[j] = ratios[j] * tape.fine_dt."""
    # reference nodes the levels read: each multiple of the gcd of their ratios, or the end
    every = math.gcd(*ratios) if error_mode == "max_on_grid" else n_fine
    ref_nodes = {}

    def on_ref(i, y):
        if i % every == 0:
            ref_nodes[i] = y.copy()

    y0 = np.full(n_paths, problem.x0)
    _evolve(problem, tape.fine_dt, n_fine, y0, tape.brownian, tape.levy, diag, on_ref)
    errors = []
    for d, ratio in zip(dts, ratios):
        coarse = tape.coarsen(d)
        if error_mode == "max_on_grid":
            worst = np.zeros(n_paths)

            def on_coarse(i, y, ratio=ratio, worst=worst):
                np.maximum(worst, np.abs(y - ref_nodes[i * ratio]), out=worst)

            _evolve(problem, d, n_fine // ratio, y0, coarse.brownian, coarse.levy, diag, on_coarse)
        else:
            terminal = _evolve(problem, d, n_fine // ratio, y0, coarse.brownian, coarse.levy, diag)
            worst = np.abs(terminal - ref_nodes[n_fine])
        errors.append(worst)
    return errors


# ---------------------------------------------------------------------------
# the runner


def _run_chunk(problem, kernel, args, dt, n_steps, lo, hi, seed):
    """Draw the tape of paths lo..hi-1 and run ``kernel``; failures gain the path."""
    diag = StepDiagnostics()
    tape = make_tape(problem, dt, n_steps, np.arange(lo, hi), seed)
    try:
        return kernel(problem, tape, hi - lo, n_steps, diag, *args), diag
    except StepFailureError as exc:
        exc.diagnostics["path"] = lo + exc.diagnostics["index"] % (hi - lo)
        raise


def _pool_chunk(task):
    source, *chunk = task
    return _run_chunk(problem_from_config(source), *chunk)


def _run_chunks(problem, kernel, args, n_paths, dt, n_steps, seed, workers, budget_bytes):
    """Run ``kernel(problem, tape, width, n_steps, diag, *args)`` on each chunk.

    Tapes have ``n_steps`` steps of ``dt``.  Chunks run inline, or on a spawn
    pool whose workers rebuild the problem from ``problem.source``.  Returns
    the kernel outputs in chunk order and the merged solver diagnostics.
    """
    if n_paths < 1:
        raise ConfigurationError(f"n_paths must be >= 1, got {n_paths}")
    streams = int(problem.noise.brownian_dim > 0) + int(problem.noise.has_jumps)
    ranges = _chunk_ranges(n_paths, n_steps, streams, budget_bytes)
    if workers > 1 and problem.source is None:
        raise ConfigurationError(
            "worker processes rebuild the problem from its config; "
            "problems defined with bare callables only run with workers=1"
        )
    chunks = [(kernel, args, dt, n_steps, lo, hi, seed) for lo, hi in ranges]
    if workers <= 1 or len(ranges) <= 1:
        done = [_run_chunk(problem, *chunk) for chunk in chunks]
    else:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            done = list(pool.map(_pool_chunk, [(problem.source, *chunk) for chunk in chunks]))
    diag = StepDiagnostics()
    for _, chunk_diag in done:
        diag.merge(chunk_diag)
    return [out for out, _ in done], diag


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
    diagnostics: StepDiagnostics


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
    chunk_budget_bytes: int = _DEFAULT_CHUNK_BUDGET,
) -> EnsembleResult:
    """Evolve an ensemble at one step size; record terminals and checkpoints."""
    n_steps = steps_for_horizon(problem.horizon, dt)
    steps = {float(t): checkpoint_step(t, dt, n_steps) for t in checkpoints}
    x0 = float(problem.x0 if x0 is None else x0)
    args = (x0, frozenset(steps.values()))
    outs, diag = _run_chunks(
        problem, _ensemble_kernel, args, n_paths, dt, n_steps, master_seed, workers,
        chunk_budget_bytes,
    )
    return EnsembleResult(
        problem=problem.name,
        dt=dt,
        n_steps=n_steps,
        n_paths=n_paths,
        master_seed=master_seed,
        terminal=np.concatenate([terminal for terminal, _ in outs]),
        checkpoints={t: np.concatenate([rec[s] for _, rec in outs]) for t, s in steps.items()},
        diagnostics=diag,
    )


def _moment_curve(problem, starts, dt, n_steps, n_paths, master_seed, workers, budget_bytes):
    outs, _ = _run_chunks(
        problem, _moment_kernel, (starts,), n_paths, dt, n_steps, master_seed, workers, budget_bytes
    )
    sum_q, sum_q2 = sum(outs)
    mean = sum_q / n_paths
    if n_paths > 1:
        var = np.maximum(sum_q2 / n_paths - mean * mean, 0.0) * (n_paths / (n_paths - 1))
        stderr = np.sqrt(var / n_paths)
    else:
        stderr = np.zeros_like(mean)
    return MomentCurve(dt=dt, n_paths=n_paths, mean=mean, stderr=stderr)


def second_moment_curve(
    problem: SdeProblem,
    dt: float,
    n_steps: int,
    n_paths: int,
    master_seed: int,
    workers: int = 1,
    chunk_budget_bytes: int = _DEFAULT_CHUNK_BUDGET,
) -> MomentCurve:
    """E|Y_i|^2 for i = 0..n_steps, estimated over an ensemble."""
    return _moment_curve(
        problem, float(problem.x0), dt, n_steps, n_paths, master_seed, workers, chunk_budget_bytes
    )


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
    starts = (float(x0_pair[0]), float(x0_pair[1]))
    return _moment_curve(
        problem, starts, dt, n_steps, n_paths, master_seed, workers, chunk_budget_bytes
    )


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
    ratios = [_grid_ratio(d, reference_dt, n_fine) for d in dts]
    args = (dts, ratios, error_mode)
    outs, diag = _run_chunks(
        problem, _strong_kernel, args, n_paths, reference_dt, n_fine, master_seed, workers,
        chunk_budget_bytes,
    )
    return StrongErrorRun(
        problem=problem.name,
        reference_dt=reference_dt,
        n_paths=n_paths,
        master_seed=master_seed,
        error_mode=error_mode,
        errors={d: np.concatenate([errs[j] for errs in outs]) for j, d in enumerate(dts)},
        diagnostics=diag,
    )
