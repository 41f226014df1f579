"""Ensemble simulation engine for the drift-implicit scheme.

The update over one step of size dt is

    Y[i+1] = Y[i] + f(t[i+1], Y[i+1]) dt + g(t[i], Y[i]) dB[i+1] + dL[i+1],

i.e. implicit in the drift only; diffusion and jump increments enter
explicitly.  A horizon T is covered by N = floor(T / dt) steps.

Every run draws its increments on a tape (:class:`IncrementTape`) at its
finest step from the per-path streams; a coarser step's increment is the
exact sum of the fine ones it spans, so runs at different step sizes share
one realisation of the driving noise, which makes pathwise error against a
fine-grid reference meaningful.  A chunk of paths draws its tape in blocks
of ``_TAPE_BLOCK_STEPS`` = 1,024 fine steps, from streams that stay open
from one block to the next (row r is what path r's own streams give,
whatever the chunk), and frees each block before drawing the next, so it
holds one block of noise.  Brownian rows equal one draw of the whole
horizon; the jump samplers' draws depend on the block length, and a run of
at most one block draws exactly ``make_tape``'s tape.  A strong run's block
is the smallest multiple of every level's ratio that holds at least 1,024
steps, so no coarse step straddles two blocks.

One loop, ``_evolve``, advances every run over the fine nodes in lockstep,
as lanes: a lane is a step size (an integer multiple of the tape's step)
and a start, and every lane of a chunk rides that chunk's tape blocks.  An
ensemble and a second-moment curve are one lane from x0; the two-start
coupling is two lanes of the tape's step from its two starts; a strong run
is the fine-grid reference lane plus one lane per coarse level.  At each
fine node, the lanes whose steps end at the same float time share one
solve call with one dt per element, which is one call per fine node.
Which lanes step at a node repeats with the lcm of their ratios, so the
schedule is laid out once per chunk; each group of lanes that shares a
call prepares its implicit step once per chunk
(:class:`~levyem.implicit.PreparedStep`: the step sizes checked and laid
out, the Newton work arrays kept), and the lanes write their explicit
parts straight into its array.  A hook sees every lane's state after each
node: the ensemble's records the checkpoints, the moment runs' sums q and
q^2 per node (q = Y^2 for one lane, q = (Y - Y')^2 for the coupling's
two).  A step failure names the path, the lane, and the lane's own step
and dt.  One runner, ``_run_chunks``, evolves each chunk of paths, inline
or on a fork process pool, and merges the solver diagnostics.

Every run's step sizes are checked against the solvability limit of the
implicit step before any noise is drawn or any worker forks, so an
unsolvable dt fails at once and the error names its value.

Every path owns an independent counter-based RNG stream keyed by
(master_seed, path_index, stream), so results do not depend on how paths are
grouped into memory chunks or distributed over worker processes.  Chunk
boundaries are a pure function of the path count, the block length, the
memory budget and the worker count: the chunk count is the smallest multiple
of ``workers`` at which a chunk's tape block fits the budget (at most one
chunk per path), and the paths are split evenly, so chunk sizes differ by at
most one.  Per-chunk results are merged in chunk order, which makes
ensemble output byte-stable for any worker count.

Pool workers are forked: they inherit the loaded package and the run's
problem, lanes and hook, and each task is one chunk's path range.
Where the platform cannot fork, runs take one worker.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, StepFailureError
from .implicit import PreparedStep, StepDiagnostics, solvability_limit, solve_implicit_steps
from .model import SdeProblem
from .noise import (  # make_rng is unused here: bench/tracing.py times it under this name
    BROWNIAN_STREAM,
    LEVY_STREAM,
    PathStreams,
    make_rng,  # noqa: F401
    sample_levy_increments,
)
from .tilted_stable import row_blocks

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
_TAPE_BLOCK_STEPS = 1024  # fine steps per tape block, fixed for memory
_GRID_RTOL = 1e-9
_CAN_FORK = hasattr(os, "fork")


def default_workers() -> int:
    """Worker processes when none are asked for: the CPU count, or 1 without fork."""
    return max(1, os.cpu_count() or 1) if _CAN_FORK else 1


def check_workers(workers) -> None:
    """Reject a worker count that is not an integer >= 1, or above 1 without fork."""
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise ConfigurationError(f"workers must be an integer >= 1, got {workers!r}")
    if workers > 1 and not _CAN_FORK:
        raise ConfigurationError(
            f"workers={workers} needs the fork start method, which this platform lacks"
        )


def _check_count(name: str, value, least: int) -> None:
    """Reject a count that is not an integer >= ``least``; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ConfigurationError(f"{name} must be >= {least}, got {value}")


def steps_for_horizon(horizon: float, dt: float) -> int:
    """N = floor(T / dt), robust to dt values that only almost divide T."""
    if not 0 < dt < math.inf:  # NaN fails too
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
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


def _check_solvable(problem: SdeProblem, name: str, values) -> None:
    """Reject a step size without a guaranteed implicit step, before any noise is drawn."""
    bound = max(problem.monotone_bound, 0.0)
    for value in values:
        if value * bound >= 1.0:
            raise ConfigurationError(
                f"{name} value {value} violates the solvability condition "
                f"dt * {problem.monotone_bound} < 1; use dt < {solvability_limit(problem):g}"
            )


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
        """Aggregate to step dt (a multiple of fine_dt) by block sums; the lanes' test reference."""
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


def _open_streams(problem: SdeProblem, path_indices, master_seed: int):
    """The ``(brownian, levy)`` PathStreams of ``path_indices`` (None for an absent noise)."""
    spec = problem.noise
    return (
        PathStreams(master_seed, path_indices, BROWNIAN_STREAM) if spec.brownian_dim else None,
        PathStreams(master_seed, path_indices, LEVY_STREAM) if spec.has_jumps else None,
    )


def make_tape(
    problem: SdeProblem,
    fine_dt: float,
    n_steps: int,
    path_indices,
    master_seed: int,
    streams=None,
) -> IncrementTape:
    """Draw ``n_steps`` per-path increments for ``path_indices`` on the fine grid.

    Row r holds what path ``path_indices[r]``'s own streams give, so a row
    does not depend on the other paths of the chunk.  The draw continues
    ``streams``, the ``(brownian, levy)`` PathStreams of these paths (None
    for an absent noise) where an earlier draw left them, or else starts
    the paths' streams afresh: then it is their first ``n_steps`` steps.
    """
    path_indices = np.asarray(path_indices, dtype=int)
    brownian_streams, levy_streams = streams or _open_streams(problem, path_indices, master_seed)
    brownian = levy = None
    if brownian_streams is not None:
        brownian = np.empty((path_indices.size, n_steps))
        for lo, hi in row_blocks(path_indices.size, n_steps):
            for rng, row in zip(brownian_streams.rows(lo, hi), brownian[lo:hi]):
                rng.standard_normal(out=row)
        brownian *= np.sqrt(fine_dt)
    if levy_streams is not None:
        levy = sample_levy_increments(problem.noise, fine_dt, n_steps, levy_streams)
    return IncrementTape(fine_dt=fine_dt, n_steps=n_steps, brownian=brownian, levy=levy)


def _tape_blocks(problem, fine_dt, n_steps, block_steps, path_indices, master_seed):
    """The tape of ``n_steps`` steps in blocks of ``block_steps`` (the last may be shorter).

    The paths' streams are kept open until the last block, so Brownian rows
    equal one draw of the whole horizon; a run of at most ``block_steps``
    steps draws exactly one ``make_tape``.
    """
    streams = _open_streams(problem, path_indices, master_seed)
    for start in range(0, n_steps, block_steps):
        steps = min(block_steps, n_steps - start)
        for noise_streams in streams:
            if noise_streams is not None:
                noise_streams.keep_open = start + steps < n_steps
        yield make_tape(problem, fine_dt, steps, path_indices, master_seed, streams)


# ---------------------------------------------------------------------------
# core evolution: one lockstep loop over lanes


def _evolve(problem: SdeProblem, dt: float, y0, tapes, diag, on_step=None, lane_dts=None):
    """March lanes of paths in lockstep over the tape blocks ``tapes`` of step ``dt``.

    ``y0`` is (rows,) for one lane, or (lanes, rows): a lane is a step size
    and a start per row, and every lane is driven by the same tape rows.
    Lane j steps by ``lane_dts[j]`` (``dt`` for every lane when None), an
    integer multiple of ``dt``, at the fine nodes i that its ratio divides,
    on the sums of the block's fine columns its steps span; each block's
    length must be a multiple of every ratio, and is freed before the next
    block is drawn.  The lanes that step at a node and whose steps end at
    the same float time share one solve call, with one dt per element (a
    float when they have one dt): each group of lanes has one prepared step
    and one array of explicit parts, written in place, so each element does
    the arithmetic of its lane run alone.  Which lanes step repeats with the
    lcm of the ratios, so that is laid out once.

    ``on_step(i, y)`` is called at node 0 and after each fine node i, with
    every lane's latest state shaped like ``y0``; a lane's state is the
    solver's output, so one lane costs no copy.  Returns the final states,
    shaped like ``y0``.  A StepFailureError's diagnostics name the
    element's row as ``index``, its ``lane``, and the lane's own ``step``
    and ``dt``.
    """
    y0 = np.array(y0, dtype=float)
    rows = y0.shape[-1]
    lanes = list(y0.reshape(-1, rows))  # each lane's latest state, the solver's output
    lane_dts = [dt] * len(lanes) if lane_dts is None else list(lane_dts)
    ratios = [int(round(d / dt)) for d in lane_dts]
    period = math.lcm(*ratios)
    stepping = [  # the lanes that step at node i, at index (i - 1) % period
        [j for j, ratio in enumerate(ratios) if i % ratio == 0] for i in range(1, period + 1)
    ]
    calls = {}  # the lanes of a call -> its prepared step and its explicit parts
    summed = np.empty(rows)  # a coarse step's increment: its fine columns, summed as coarsen does

    def increment(x, r, end):  # the increment over the r block columns before column end
        return x[:, end - 1] if r == 1 else x[:, end - r:end].sum(axis=1, out=summed)

    if on_step is not None:
        on_step(0, y0)
    start = 0
    for tape in tapes:
        for i in range(start + 1, start + tape.n_steps + 1):
            groups = {}  # step-end time -> the lanes that step to it
            for j in stepping[(i - 1) % period]:
                groups.setdefault(i // ratios[j] * lane_dts[j], []).append(j)
            for t, group in groups.items():
                group = tuple(group)
                if group not in calls:
                    c = np.empty(len(group) * rows)
                    dts = [lane_dts[j] for j in group]
                    dts = dts[0] if len(set(dts)) == 1 else np.repeat(dts, rows)
                    calls[group] = PreparedStep(problem, dts, c), c
                step, c = calls[group]
                for m, j in enumerate(group):
                    r, k = ratios[j], i // ratios[j]  # the lane's step k ends here
                    part = c[m * rows:(m + 1) * rows]
                    if tape.brownian is not None:
                        g = problem.diffusion((k - 1) * lane_dts[j], lanes[j])
                        np.multiply(g, increment(tape.brownian, r, i - start), out=part)
                        part += lanes[j]  # g dB + y is y + g dB, bit for bit
                    else:
                        part[...] = lanes[j]
                    if tape.levy is not None:
                        part += increment(tape.levy, r, i - start)
                try:
                    out = solve_implicit_steps(problem, t, c, step, diagnostics=diag)
                except StepFailureError as exc:
                    m, row = divmod(exc.diagnostics["index"], rows)
                    j = group[m]
                    exc.diagnostics.update(
                        index=row, lane=j, step=i // ratios[j], dt=float(lane_dts[j])
                    )
                    raise
                for m, j in enumerate(group):
                    lanes[j] = out[m * rows:(m + 1) * rows]
            if on_step is not None:
                on_step(i, lanes[0] if y0.ndim == 1 else np.array(lanes))
        start += tape.n_steps
        del tape  # so that the next block is drawn with this one freed
    return lanes[0] if y0.ndim == 1 else np.array(lanes)


def _chunk_ranges(n_paths: int, block_steps: int, streams: int, budget_bytes: int, workers: int):
    """Split paths into contiguous chunks; a pure function of the sizes only.

    The chunk count is the smallest multiple of ``workers`` at which a
    chunk's tape block (``block_steps`` steps per stream and path), all the
    noise it holds, fits the budget, and at most one chunk per path; paths
    are split evenly, so chunk sizes differ by at most one and every worker
    gets the same work.
    """
    per_path = block_steps * 8 * max(1, streams)
    needed = -(-n_paths // max(1, budget_bytes // per_path))
    count = min(n_paths, -(-needed // workers) * workers)
    bounds = [i * n_paths // count for i in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


# ---------------------------------------------------------------------------
# hooks: what a run keeps of each node


def _checkpoint_hook(record_steps):
    """The ensemble's hook, and the states it records at ``record_steps``, keyed by step."""
    record = {}

    def on_step(i, y):
        if i in record_steps:
            record[i] = y.copy()

    return on_step, record


def _square_sum_hook(n_steps):
    """The moment runs' hook, and its per-node sums of q and q^2.

    q = Y^2 for one lane, and q = (Y - Y')^2 for the two lanes of a coupling.
    """
    sums = np.zeros((2, n_steps + 1))

    def on_step(i, y):
        q = y if y.ndim == 1 else y[0] - y[1]
        q = q * q
        sums[0, i] = q.sum()
        sums[1, i] = (q * q).sum()

    return on_step, sums


# ---------------------------------------------------------------------------
# the runner


def _run_chunk(problem, dt, n_steps, block_steps, seed, starts, lane_dts, hook, lo, hi):
    """Evolve the lanes of paths lo..hi-1 on their tape blocks; failures gain the path."""
    diag = StepDiagnostics()
    on_step, out = (None, None) if hook is None else hook()
    y0 = np.multiply.outer(starts, np.ones(hi - lo))  # (rows,), or (lanes, rows)
    tapes = _tape_blocks(problem, dt, n_steps, block_steps, np.arange(lo, hi), seed)
    try:
        y = _evolve(problem, dt, y0, tapes, diag, on_step, lane_dts)
    except StepFailureError as exc:
        exc.diagnostics["path"] = lo + exc.diagnostics["index"]
        raise
    return (y, out), diag


_job = None  # a forked worker's arguments of _run_chunk before the path range


def _init_worker(*job):
    global _job
    _job = job


def _pool_chunk(lo_hi):
    return _run_chunk(*_job, *lo_hi)


def _run_chunks(
    problem, dt, n_steps, n_paths, seed, workers, budget_bytes, starts, lane_dts=None,
    hook=None, block_steps=_TAPE_BLOCK_STEPS,
):
    """Evolve lanes from ``starts`` over ``n_steps`` steps of ``dt`` on each chunk of paths.

    ``starts`` is the start of the one lane, or one start per lane, and
    ``lane_dts`` the lanes' step sizes (see :func:`_evolve`).  ``hook()``
    gives each chunk its ``(on_step, out)``.  A chunk draws its tape in
    blocks of ``block_steps``.  Chunks run inline, or on a pool of at most
    ``workers`` forked processes that inherit the problem, the lanes and
    the hook, so a task is only a chunk's path range.  Returns each chunk's
    final states and ``out``, in chunk order, and the merged solver
    diagnostics.
    """
    check_workers(workers)
    _check_count("n_paths", n_paths, 1)
    _check_count("n_steps", n_steps, 0)
    streams = int(problem.noise.brownian_dim > 0) + int(problem.noise.has_jumps)
    block_steps = max(1, min(block_steps, n_steps))
    ranges = _chunk_ranges(n_paths, block_steps, streams, budget_bytes, workers)
    job = (problem, dt, n_steps, block_steps, seed, starts, lane_dts, hook)
    if workers == 1 or len(ranges) == 1:
        done = [_run_chunk(*job, lo, hi) for lo, hi in ranges]
    else:
        import multiprocessing  # here, so that inline runs never import the pool's modules
        from concurrent.futures import ProcessPoolExecutor

        # a fork pool starts all of its processes at the first submit
        with ProcessPoolExecutor(
            min(workers, len(ranges)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=job,
        ) as pool:
            done = list(pool.map(_pool_chunk, ranges))
    diag = StepDiagnostics()
    for _, chunk_diag in done:
        diag.merge(chunk_diag)
    return [out for out, _ in done], diag


# ---------------------------------------------------------------------------
# public results


@dataclass
class EnsembleResult:
    n_paths: int
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
    workers: int = 1,
    chunk_budget_bytes: int = _DEFAULT_CHUNK_BUDGET,
) -> EnsembleResult:
    """Evolve an ensemble at one step size; record terminals and checkpoints."""
    n_steps = steps_for_horizon(problem.horizon, dt)
    _check_solvable(problem, "dt", [dt])
    steps = {float(t): checkpoint_step(t, dt, n_steps) for t in checkpoints}
    if len(set(steps.values())) < len(checkpoints):
        raise ConfigurationError(
            f"field 'checkpoints': {list(checkpoints)} puts two times on one step of dt = {dt:g}"
        )
    outs, diag = _run_chunks(
        problem, dt, n_steps, n_paths, master_seed, workers, chunk_budget_bytes, problem.x0,
        hook=functools.partial(_checkpoint_hook, frozenset(steps.values())),
    )
    return EnsembleResult(
        n_paths=n_paths,
        terminal=np.concatenate([terminal for terminal, _ in outs]),
        checkpoints={t: np.concatenate([rec[s] for _, rec in outs]) for t, s in steps.items()},
        diagnostics=diag,
    )


def _moment_curve(problem, starts, dt, n_steps, n_paths, master_seed, workers, budget_bytes):
    _check_solvable(problem, "dt", [dt])
    outs, _ = _run_chunks(
        problem, dt, n_steps, n_paths, master_seed, workers, budget_bytes, starts,
        hook=functools.partial(_square_sum_hook, n_steps),
    )
    sum_q, sum_q2 = sum(sums for _, sums in outs)
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
    workers: int = 1,
    chunk_budget_bytes: int = _DEFAULT_CHUNK_BUDGET,
) -> StrongErrorRun:
    """Pathwise errors of coarse runs against a fine-grid reference.

    All resolutions of one path consume the same increment tape, so the
    difference at T is the discretisation error alone.
    """
    dts = sorted(float(d) for d in dts)
    if not dts:
        raise ConfigurationError("need at least one coarse dt")
    n_fine = steps_for_horizon(problem.horizon, reference_dt)
    ratios = [_grid_ratio(d, reference_dt, n_fine) for d in dts]
    _check_solvable(problem, "dts", dts)  # the reference's dt is no larger
    period = math.lcm(*ratios)  # blocks hold whole steps of every level
    block_steps = period * -(-_TAPE_BLOCK_STEPS // period)
    outs, diag = _run_chunks(  # lane 0 is the reference, lane j the level dts[j - 1]
        problem, reference_dt, n_fine, n_paths, master_seed, workers, chunk_budget_bytes,
        [problem.x0] * (len(dts) + 1), [reference_dt] + dts, block_steps=block_steps,
    )
    return StrongErrorRun(
        errors={
            d: np.concatenate([np.abs(y[j] - y[0]) for y, _ in outs]) for j, d in enumerate(dts, 1)
        },
        diagnostics=diag,
    )
