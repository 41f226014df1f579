"""Ensemble evolution: exact oracles, tape aggregation, determinism."""

import concurrent.futures
import dataclasses
import math
import weakref
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import levyem.engine as engine
from levyem.engine import (
    coupling_curve,
    make_tape,
    second_moment_curve,
    simulate_ensemble,
    steps_for_horizon,
    strong_error_run,
)
from levyem.errors import ConfigurationError, StepFailureError
from levyem.implicit import StepDiagnostics, solvability_limit
from levyem.noise import PathStreams, sample_levy_increments
from levyem.problems import builtin_problem, problem_from_config
from levyem.tilted_stable import BLOCK_ROWS

_CONSTANTS = {"H": 4.0, "sigma": 1.0, "q": 4.0, "M": 1.0, "K1": 1.0, "K2": 1.0,
              "gamma1": 0.5, "gamma2": 0.5, "K4": 0.5}


def _deterministic_problem(rate=2.0, x0=10.0, horizon=4.0):
    """dX = -rate X dt without noise."""
    return problem_from_config({
        "name": "decay",
        "drift": [{"coeff": -rate, "x_power": 1}],
        "x0": x0,
        "horizon": horizon,
        "noise": {"kind": "none", "brownian_dim": 0},
        "constants": {**_CONSTANTS, "K3": -rate},
    })


def test_steps_for_horizon():
    assert steps_for_horizon(1.0, 2.0 ** -9) == 512
    assert steps_for_horizon(10.0, 0.01) == 1000
    assert steps_for_horizon(2.0000000001, 0.01) == 200
    assert steps_for_horizon(0.25, 0.1) == 2


@pytest.mark.parametrize("dt", [0.0, -0.1, math.inf, math.nan])
def test_steps_for_horizon_rejects_a_step_that_is_not_positive_and_finite(dt):
    with pytest.raises(ConfigurationError, match="dt must be positive and finite"):
        steps_for_horizon(1.0, dt)


def test_ou_exact_recursion_oracle():
    # f = -2x, additive jumps: Y_{i+1} = (Y_i + dL_i) / (1 + 2 dt) exactly.
    problem = builtin_problem("paper-5.3")
    dt, n_paths = 0.01, 5
    n_steps = steps_for_horizon(problem.horizon, dt)
    result = simulate_ensemble(problem, dt, n_paths, master_seed=404)
    tape = make_tape(problem, dt, n_steps, np.arange(n_paths), master_seed=404)
    y = np.full(n_paths, 10.0)
    for i in range(n_steps):
        y = (y + tape.levy[:, i]) / (1.0 + 2.0 * dt)
    np.testing.assert_allclose(result.terminal, y, rtol=1e-12)


def test_deterministic_problem_matches_backward_euler():
    problem = _deterministic_problem()
    dt = 0.25
    result = simulate_ensemble(problem, dt, 3, master_seed=1)
    n = steps_for_horizon(problem.horizon, dt)
    expect = 10.0 / (1.0 + 2.0 * dt) ** n
    np.testing.assert_allclose(result.terminal, expect, rtol=1e-13)


def test_strong_error_run_without_noise():
    # a noise-free tape holds no increment arrays to read its step count from
    problem = _deterministic_problem()
    run = strong_error_run(problem, [0.5, 1.0], 0.25, 3, 1)
    ref = 10.0 / 1.5**16  # backward Euler at dt = 0.25 over 16 steps
    for d, errors in run.errors.items():
        coarse = 10.0 / (1.0 + 2.0 * d) ** (16 // int(d / 0.25))
        np.testing.assert_allclose(errors, np.full(3, abs(coarse - ref)), rtol=1e-12)


def test_tape_aggregation_exactness():
    # summing 2**15 fine increments vs one coarse increment: <= 1e-12 relative
    problem = builtin_problem("paper-5.4")
    n_steps = 2 ** 15
    fine_dt = 1.0 / n_steps
    tape = make_tape(problem, fine_dt, n_steps, np.arange(4), master_seed=9)
    coarse = tape.coarsen(1.0)
    assert coarse.brownian.shape == (4, 1)
    for j in range(4):
        for track, coarse_track in ((tape.brownian, coarse.brownian), (tape.levy, coarse.levy)):
            exact = math.fsum(track[j])
            assert abs(coarse_track[j, 0] - exact) <= 1e-12 * max(1.0, abs(exact))


def test_tape_coarsen_validation():
    problem = builtin_problem("paper-5.4")
    tape = make_tape(problem, 0.01, 100, np.arange(2), master_seed=9)
    assert tape.coarsen(0.01) is tape
    with pytest.raises(ConfigurationError):
        tape.coarsen(0.015)  # ratio 1.5 is not an integer
    with pytest.raises(ConfigurationError):
        tape.coarsen(0.03)  # 100 steps not divisible by 3
    coarse = tape.coarsen(0.02)
    assert coarse.levy.shape == (2, 50)
    np.testing.assert_allclose(coarse.levy[:, 0], tape.levy[:, 0] + tape.levy[:, 1])


# Each public entry point on paper-5.4, as a function of (n_paths, seed,
# **run options) returning its output arrays.  Per-path outputs are exact
# under any chunking; the moment curves sum per chunk, so a different
# chunking only reorders floating-point additions.
def _ensemble_arrays(problem, n_paths, seed, **kw):
    r = simulate_ensemble(problem, 0.05, n_paths, master_seed=seed, checkpoints=[1.0], **kw)
    return r.terminal, r.checkpoints[1.0]


def _second_moment_arrays(problem, n_paths, seed, **kw):
    c = second_moment_curve(problem, 0.1, 100, n_paths, master_seed=seed, **kw)
    return c.mean, c.stderr


def _coupling_arrays(problem, n_paths, seed, **kw):
    c = coupling_curve(problem, (10.0, -10.0), 0.1, 100, n_paths, master_seed=seed, **kw)
    return c.mean, c.stderr


def _strong_arrays(problem, n_paths, seed, **kw):
    r = strong_error_run(problem, [0.2, 0.4], 0.1, n_paths, seed, **kw)
    return tuple(r.errors[d] for d in sorted(r.errors))


_ENTRY_POINTS = {
    "simulate_ensemble": (_ensemble_arrays, True),
    "second_moment_curve": (_second_moment_arrays, False),
    "coupling_curve": (_coupling_arrays, False),
    "strong_error_run-terminal": (_strong_arrays, True),
}


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_ensemble_determinism_and_chunk_invariance(entry):
    run, per_path = _ENTRY_POINTS[entry]
    problem = builtin_problem("paper-5.4")
    a = run(problem, 50, 11)
    b = run(problem, 50, 11)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    # a tiny chunk budget forces many chunks; per-path seeding keeps results identical
    c = run(problem, 50, 11, chunk_budget_bytes=1 << 12)
    for x, y in zip(a, c):
        if per_path:
            np.testing.assert_array_equal(x, y)
        else:
            np.testing.assert_allclose(x, y, rtol=1e-12)


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_worker_count_does_not_change_results(entry):
    run, _ = _ENTRY_POINTS[entry]
    problem = builtin_problem("paper-5.4")
    a = run(problem, 24, 3, chunk_budget_bytes=1 << 12)
    b = run(problem, 24, 3, workers=2, chunk_budget_bytes=1 << 12)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("entry", ["simulate_ensemble", "strong_error_run"])
def test_diagnostics_do_not_depend_on_chunks_or_workers(entry):
    # the solver counts Newton iterations and halvings per element, so their
    # sums do not depend on how paths are grouped into batches
    problem = builtin_problem("paper-5.4")
    if entry == "simulate_ensemble":
        run = lambda **kw: simulate_ensemble(problem, 0.05, 60, master_seed=7, **kw).diagnostics
    else:
        run = lambda **kw: strong_error_run(problem, [0.2, 0.4], 0.1, 60, 7, **kw).diagnostics
    one_chunk = run(chunk_budget_bytes=2**27)
    assert one_chunk.newton_iterations > one_chunk.solves  # several iterations per solve
    assert run(chunk_budget_bytes=2**14) == one_chunk
    assert run(chunk_budget_bytes=2**14, workers=2) == one_chunk


def test_checkpoint_alignment():
    problem = builtin_problem("paper-5.3")
    horizon = problem.horizon
    result = simulate_ensemble(problem, 0.01, 4, master_seed=2, checkpoints=[0.1, horizon])
    assert set(result.checkpoints) == {0.1, horizon}
    np.testing.assert_array_equal(result.checkpoints[horizon], result.terminal)
    with pytest.raises(ConfigurationError):
        simulate_ensemble(problem, 0.01, 4, master_seed=2, checkpoints=[0.005])


def test_diagnostics_count_solves():
    problem = builtin_problem("paper-5.4")
    n_steps = steps_for_horizon(problem.horizon, 0.1)
    result = simulate_ensemble(problem, 0.1, 7, master_seed=6)
    assert result.diagnostics.solves == 7 * n_steps
    assert result.diagnostics.worst_residual >= 0.0


def test_second_moment_curve_matches_ensemble():
    # Same step count and seed on both sides: noise tapes are identical, so
    # the step-30 curve value must equal the t=0.3 checkpoint moment exactly.
    problem = builtin_problem("paper-5.3")
    n_steps = steps_for_horizon(problem.horizon, 0.01)
    curve = second_moment_curve(problem, 0.01, n_steps, 64, master_seed=12)
    assert curve.mean.shape == (n_steps + 1,)
    assert curve.mean[0] == pytest.approx(100.0)  # x0 = 10
    result = simulate_ensemble(problem, 0.01, 64, master_seed=12, checkpoints=[0.3])
    np.testing.assert_allclose(curve.mean[30], np.mean(result.checkpoints[0.3] ** 2), rtol=1e-12)


def test_coupling_curve_zero_for_equal_starts():
    problem = builtin_problem("paper-5.4")
    curve = coupling_curve(problem, (10.0, 10.0), 0.05, 40, 16, master_seed=13)
    np.testing.assert_array_equal(curve.mean, np.zeros(41))


def test_coupling_curve_decays():
    problem = builtin_problem("paper-5.4")
    curve = coupling_curve(problem, (10.0, -10.0), 0.01, 400, 64, master_seed=14)
    assert curve.mean[0] == 400.0
    assert curve.mean[-1] < 1e-6


def test_coupling_curve_is_the_mean_squared_gap_of_two_ensembles():
    # Same seed and horizon on all three runs, so both starts see the tapes
    # of simulate_ensemble path for path.
    problem = builtin_problem("paper-5.4")
    dt, xa, xb = 0.05, 10.0, -10.0
    n_steps = steps_for_horizon(problem.horizon, dt)
    curve = coupling_curve(problem, (xa, xb), dt, n_steps, 32, master_seed=21)
    times = [0.05, 0.5, 2.0]
    a = simulate_ensemble(dataclasses.replace(problem, x0=xa), dt, 32, 21, checkpoints=times)
    b = simulate_ensemble(dataclasses.replace(problem, x0=xb), dt, 32, 21, checkpoints=times)
    for t in times:
        gap_sq = (a.checkpoints[t] - b.checkpoints[t]) ** 2
        np.testing.assert_allclose(curve.mean[round(t / dt)], gap_sq.mean(), rtol=1e-12)


def _ou_brownian():
    """dX = -X dt + dB from 0."""
    return problem_from_config({
        "name": "ou-brownian",
        "drift": [{"coeff": -1.0, "x_power": 1}],
        "diffusion": [{"coeff": 1.0}],
        "x0": 0.0,
        "horizon": 1.0,
        "noise": {"kind": "none", "brownian_dim": 1},
        "constants": {**_CONSTANTS, "K3": -1.0},
    })


@pytest.mark.parametrize(
    "starts, workers",
    [(None, 1), ((0.0, 3.0), 1), (None, 2), ((0.0, 3.0), 2)],
    ids=["ensemble", "coupling", "ensemble-pool", "coupling-pool"],
)
def test_step_failure_names_path_step_and_time(starts, workers, monkeypatch):
    # The explicit parts of step k follow from a clean run.  The solver is
    # trapped to fail at step k on the first element of its batch above a
    # threshold that only the largest of them exceeds; forked workers inherit
    # the trap.  The engine must name that element's path, step and lane.
    dt, k, n_paths, seed, budget = 0.05, 5, 24, 5, 1 << 10  # chunks of 6 paths
    problem = _ou_brownian()
    before = simulate_ensemble(problem, dt, n_paths, seed, checkpoints=[(k - 1) * dt])
    tape = make_tape(problem, dt, steps_for_horizon(problem.horizon, dt), np.arange(n_paths), seed)
    c = before.checkpoints[(k - 1) * dt] + tape.brownian[:, k - 1]
    if starts is not None:  # the gap of a pair under linear drift and shared noise
        c = np.concatenate([c, c + (starts[1] - starts[0]) / (1.0 + dt) ** (k - 1)])
    order = np.argsort(c)
    threshold = 0.5 * (c[order[-2]] + c[order[-1]])
    start, path = divmod(int(order[-1]), n_paths)
    assert path >= 6, "the trapped path should lie past the first chunk"

    solve = engine.solve_implicit_steps

    def trapped(problem, t, c, step, diagnostics=None):
        above = np.flatnonzero(c > threshold)
        if abs(t - k * dt) < 1e-9 and above.size:
            raise StepFailureError("trapped", diagnostics={"t": t, "index": int(above[0])})
        return solve(problem, t, c, step, diagnostics)

    monkeypatch.setattr(engine, "solve_implicit_steps", trapped)
    with pytest.raises(StepFailureError) as info:
        if starts is None:
            simulate_ensemble(problem, dt, n_paths, seed, workers=workers, chunk_budget_bytes=budget)
        else:
            coupling_curve(
                problem, starts, dt, 20, n_paths, seed, workers=workers, chunk_budget_bytes=budget
            )
    where = info.value.diagnostics
    assert where["path"] == path
    assert where["step"] == k
    assert where["t"] == pytest.approx(k * dt)
    if starts is None:
        assert where["lane"] == 0  # an ensemble runs one lane
    else:
        assert where["lane"] == start == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_merged_call_failure_names_the_coarse_level(workers, monkeypatch):
    # At fine node 12 of a 2^-5 reference, the levels of dt 2^-4 and 2^-3
    # step too, at the same time 0.375, and share one solve call.  A clean
    # run records the explicit parts of the 2^-3 level's step 3 there; the
    # solver is then trapped on the largest of them, which lies past the
    # first chunk.  The engine must name that path, the level's own dt and
    # its own step, not the reference's.
    ref, dts, t, step, level_dt = 2.0 ** -5, [2.0 ** -4, 2.0 ** -3], 0.375, 3, 2.0 ** -3
    n_paths, seed, budget = 24, 5, 6 * 32 * 8  # chunks of 6 paths
    problem = _ou_brownian()
    solve = engine.solve_implicit_steps
    seen = []

    def recording(problem, t_node, c, dt, diagnostics=None):
        if np.ndim(dt) and t_node == t:
            seen.append(c[dt == level_dt])
        return solve(problem, t_node, c, dt, diagnostics=diagnostics)

    monkeypatch.setattr(engine, "solve_implicit_steps", recording)
    strong_error_run(problem, dts, ref, n_paths, seed, chunk_budget_bytes=budget)
    c = np.concatenate(seen)  # one call per chunk, in chunk order
    assert c.size == n_paths
    order = np.argsort(c)
    threshold = 0.5 * (c[order[-2]] + c[order[-1]])
    path = int(order[-1])
    assert path >= 6, "the trapped path should lie past the first chunk"

    def trapped(problem, t_node, c, dt, diagnostics=None):
        above = np.flatnonzero((np.asarray(dt) == level_dt) & (c > threshold))
        if t_node == t and above.size:
            raise StepFailureError("trapped", diagnostics={"t": t_node, "index": int(above[0])})
        return solve(problem, t_node, c, dt, diagnostics=diagnostics)

    monkeypatch.setattr(engine, "solve_implicit_steps", trapped)
    with pytest.raises(StepFailureError) as info:
        strong_error_run(
            problem, dts, ref, n_paths, seed, workers=workers, chunk_budget_bytes=budget
        )
    where = info.value.diagnostics
    assert where["path"] == path
    assert where["step"] == step
    assert where["dt"] == level_dt and type(where["dt"]) is float
    assert where["t"] == t


def _no_tape(*args, **kwargs):
    raise AssertionError("a tape block was drawn before the step sizes were checked")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "run, match",
    [
        # the dt = 1 level steps first at the last fine node
        (lambda w: strong_error_run(builtin_problem("paper-5.2"), [0.25, 0.5, 1.0], 2.0 ** -12,
                                    4000, 1, workers=w), r"dts value 1\.0 violates"),
        (lambda w: simulate_ensemble(builtin_problem("paper-5.1c"), 1.0, 8, 1, workers=w),
         r"dt value 1\.0 violates"),
        (lambda w: second_moment_curve(builtin_problem("paper-5.1a"), 2.0, 4, 8, 1, workers=w),
         r"dt value 2\.0 violates"),  # the limit is 1 / 0.6648 = 1.504
        (lambda w: coupling_curve(builtin_problem("paper-5.1c"), (0.0, 1.0), 1.0, 4, 8, 1,
                                  workers=w), r"dt value 1\.0 violates"),
    ],
    ids=["strong", "ensemble", "moment", "coupling"],
)
def test_unsolvable_dt_fails_before_any_tape_is_drawn(run, match, workers, monkeypatch):
    # forked workers would inherit the trap, so a tape drawn anywhere fails the test
    monkeypatch.setattr(engine, "_tape_blocks", _no_tape)
    with pytest.raises(ConfigurationError, match=match):
        run(workers)


@pytest.mark.parametrize("n_steps", [1000, 1024])
def test_run_within_one_block_uses_the_whole_horizon_tape(n_steps):
    # at most one block of steps: the run draws exactly make_tape's tape
    problem = builtin_problem("paper-5.1a")  # Brownian and tempered jumps
    dt, paths, seed = 1.0 / n_steps, np.arange(5), 31
    blocks = list(engine._tape_blocks(problem, dt, n_steps, 1024, paths, seed))
    whole = make_tape(problem, dt, n_steps, paths, seed)
    assert len(blocks) == 1
    np.testing.assert_array_equal(blocks[0].brownian, whole.brownian)
    np.testing.assert_array_equal(blocks[0].levy, whole.levy)
    expect = engine._evolve(problem, dt, np.full(5, problem.x0), [whole], StepDiagnostics())
    run = simulate_ensemble(problem, dt, 5, seed)
    np.testing.assert_array_equal(run.terminal, expect)


# more paths than one row block holds, and not a multiple of it
_MANY_PATHS = np.arange(2 * BLOCK_ROWS + 7) * 2 + 1


@pytest.mark.parametrize("n_steps", [1, 1023, 1025, 3000])
def test_brownian_rows_drawn_by_block_equal_one_draw(n_steps):
    # the rows' streams stay open between blocks, so a Brownian row is one
    # continuous draw at any length, also over several row blocks
    problem = _ou_brownian()
    for paths in [0, 5, 9], _MANY_PATHS:
        blocks = list(engine._tape_blocks(problem, 0.001, n_steps, 1024, paths, 8))
        assert [b.n_steps for b in blocks][:-1] == [1024] * (len(blocks) - 1)
        whole = make_tape(problem, 0.001, n_steps, paths, 8)
        drawn = np.concatenate([b.brownian for b in blocks], axis=1)
        np.testing.assert_array_equal(drawn, whole.brownian)


def test_jump_rows_continue_their_streams_from_block_to_block():
    problem = builtin_problem("paper-5.4")  # tempered jumps
    seed, dt = 4, 0.01
    for paths in [2, 7], _MANY_PATHS:
        blocks = list(engine._tape_blocks(problem, dt, 1500, 1024, paths, seed))
        streams = PathStreams(seed, paths, "levy")
        streams.keep_open = True
        for block, n in zip(blocks, (1024, 476)):
            expected = sample_levy_increments(problem.noise, dt, n, streams)
            np.testing.assert_array_equal(block.levy, expected)


def test_strong_run_over_blocks_does_not_depend_on_chunks_or_workers(monkeypatch):
    # a 2^-12 reference spans 4 tape blocks; the errors and the merged
    # diagnostics are the same on 1 and 3 chunks and on 2 workers
    problem = builtin_problem("paper-5.1a")
    ranges = []
    chunk_ranges = engine._chunk_ranges
    def recording(*args):
        ranges.append(chunk_ranges(*args))
        return ranges[-1]

    monkeypatch.setattr(engine, "_chunk_ranges", recording)
    runs = [
        strong_error_run(problem, [2.0 ** -9, 2.0 ** -8], 2.0 ** -12, 12, 3, **kw)
        for kw in ({}, {"chunk_budget_bytes": 4 * 1024 * 16}, {"workers": 2})
    ]
    assert [len(r) for r in ranges] == [1, 3, 2]
    for run in runs[1:]:
        assert run.diagnostics == runs[0].diagnostics
        for d in runs[0].errors:
            np.testing.assert_array_equal(run.errors[d], runs[0].errors[d])


@pytest.mark.parametrize(
    "reference_dt, dts, block_steps",
    [
        (2.0 ** -12, [2.0 ** -9, 2.0 ** -8], [1024] * 4),
        (1.0 / 3072, [1.0 / 1024, 1.0 / 768], [1032, 1032, 1008]),  # multiples of lcm(3, 4)
        # numpy's pairwise sum changes strategy at 8 and at 128 summands
        (2.0 ** -12, [2.0 ** -5, 2.0 ** -4], [1024] * 4),
    ],
    ids=["ratios-8-16", "ratios-3-4", "ratios-128-256"],
)
def test_lockstep_levels_equal_levels_run_alone(reference_dt, dts, block_steps, monkeypatch):
    # Over several tape blocks, each level of the lockstep kernel must do
    # exactly the arithmetic of its own run over the coarsened blocks: the
    # errors and the merged solver diagnostics are bit-identical.
    problem = builtin_problem("paper-5.1a")  # x-dependent diffusion and tempered jumps
    drawn = []
    tape_blocks = engine._tape_blocks

    def recording(*args):
        drawn.append(list(tape_blocks(*args)))
        return iter(drawn[-1])

    monkeypatch.setattr(engine, "_tape_blocks", recording)
    run = strong_error_run(problem, dts, reference_dt, 6, 17)
    [blocks] = drawn
    assert [b.n_steps for b in blocks] == block_steps
    y0 = np.full(6, problem.x0)
    diag = StepDiagnostics()
    reference = engine._evolve(problem, reference_dt, y0, blocks, diag)
    for d in dts:
        alone = engine._evolve(problem, d, y0, [b.coarsen(d) for b in blocks], diag)
        np.testing.assert_array_equal(run.errors[d], np.abs(alone - reference))
    assert run.diagnostics == diag


@pytest.mark.parametrize(
    "run",
    [
        lambda p: strong_error_run(p, [2.0 ** -10, 2.0 ** -9, 2.0 ** -8], 2.0 ** -12, 6, 17),
        lambda p: simulate_ensemble(p, 2.0 ** -12, 6, 17),
    ],
    ids=["strong_error_run", "simulate_ensemble"],
)
def test_a_run_holds_one_tape_block_and_never_coarsens_it(run, monkeypatch):
    # A coarse lane sums its steps' fine columns in the block itself, and
    # block b and its arrays are freed before block b + 1 is drawn.
    def refuse(self, dt):
        raise AssertionError("a lane coarsened its tape block")

    drawn, alive = [], []
    make = engine.make_tape

    def recording(*args):
        alive.append(sum(ref() is not None for refs in drawn for ref in refs))
        tape = make(*args)
        drawn.append([weakref.ref(obj) for obj in (tape, tape.brownian, tape.levy)])
        return tape

    monkeypatch.setattr(engine.IncrementTape, "coarsen", refuse)
    monkeypatch.setattr(engine, "make_tape", recording)
    run(builtin_problem("paper-5.1a"))  # Brownian and tempered jumps, 4 blocks
    assert alive == [0, 0, 0, 0]


def test_two_lanes_equal_two_one_lane_runs():
    # Two lanes of ratio 1 share each node's solve call.  Near the
    # solvability limit of paper-5.1c the solver damps and brackets; each
    # lane must still do exactly the arithmetic of its own run over the same
    # blocks, and the merged counters must be the sum of the two runs'.
    problem = builtin_problem("paper-5.1c")
    dt, rows = 0.9 * solvability_limit(problem), 24
    blocks = list(engine._tape_blocks(problem, dt, 8, 4, np.arange(rows), 5))
    assert len(blocks) == 2
    starts = [np.full(rows, problem.x0), np.full(rows, -2.0)]
    both = StepDiagnostics()
    y = engine._evolve(problem, dt, np.array(starts), blocks, both)
    alone = [StepDiagnostics(), StepDiagnostics()]
    for lane, start, diag in zip(y, starts, alone):
        np.testing.assert_array_equal(lane, engine._evolve(problem, dt, start, blocks, diag))
    assert both == alone[0].merge(alone[1])
    assert both.damping_halvings > 0 and both.bracketed_elements > 0


def test_chunks_are_sized_by_the_block_and_the_workers():
    # 1,000 paths of a 2^-15 reference, 2 streams: the whole horizon would
    # take 512 MiB; a 1,024-step block takes 16 MiB, one chunk
    assert engine._chunk_ranges(1000, 1024, 2, 2**27, 1) == [(0, 1000)]
    assert engine._chunk_ranges(1000, 1024, 2, 2**27, 2) == [(0, 500), (500, 1000)]
    assert len(engine._chunk_ranges(1000, 1024, 2, 2**27, 3)) == 3
    assert engine._chunk_ranges(2, 1024, 2, 2**27, 8) == [(0, 1), (1, 2)]
    # law-54's shape (200 steps, 2 streams) and a smaller run: one even chunk a worker
    assert engine._chunk_ranges(10_000, 200, 2, 2**27, 2) == [(0, 5000), (5000, 10_000)]
    assert engine._chunk_ranges(4200, 1024, 2, 2**27, 2) == [(0, 2100), (2100, 4200)]
    # a budget of 4,096 paths a chunk: 3 chunks would fit, 4 share 2 workers evenly
    assert engine._chunk_ranges(10_000, 1024, 2, 4096 * 16384, 2) == [
        (0, 2500), (2500, 5000), (5000, 7500), (7500, 10_000)
    ]


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_chunks_are_even_and_fit_the_budget(workers):
    rng = np.random.default_rng(workers)
    for n_paths, block_steps, streams in zip(
        rng.integers(1, 50_000, 40), rng.integers(1, 1025, 40), rng.integers(0, 3, 40)
    ):
        budget = int(rng.integers(1, 2**24))
        ranges = engine._chunk_ranges(int(n_paths), int(block_steps), int(streams), budget, workers)
        sizes = [hi - lo for lo, hi in ranges]
        per_path = block_steps * 8 * max(1, streams)
        assert ranges[0][0] == 0 and ranges[-1][1] == n_paths
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1
        assert len(ranges) % workers == 0 or len(ranges) == n_paths
        assert max(sizes) * per_path <= budget or max(sizes) == 1
        # one chunk a worker fewer would not fit the budget
        if len(ranges) > workers and len(ranges) < n_paths:
            assert -(-n_paths // (len(ranges) - workers)) * per_path > budget


def test_inline_config_problem_runs_on_the_pool():
    # forked workers inherit the problem, so one outside the catalog runs there too
    problem = _ou_brownian()
    one = simulate_ensemble(problem, 0.05, 24, 5, checkpoints=[0.5], chunk_budget_bytes=1 << 10)
    two = simulate_ensemble(
        problem, 0.05, 24, 5, checkpoints=[0.5], workers=2, chunk_budget_bytes=1 << 10
    )
    np.testing.assert_array_equal(one.terminal, two.terminal)
    np.testing.assert_array_equal(one.checkpoints[0.5], two.checkpoints[0.5])
    assert one.diagnostics == two.diagnostics


@pytest.mark.parametrize("workers", [0, -2, 1.5, True, "2"])
def test_bad_worker_count_is_rejected(workers):
    with pytest.raises(ConfigurationError, match="workers"):
        simulate_ensemble(builtin_problem("paper-5.4"), 0.1, 4, 1, workers=workers)


def test_pool_has_no_more_processes_than_chunks(monkeypatch):
    sizes = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers, **kw):
            sizes.append(max_workers)
            super().__init__(max_workers, **kw)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    problem = builtin_problem("paper-5.4")
    # a run gets a chunk per worker, but 3 paths make only 3 chunks of one path
    run = simulate_ensemble(problem, 0.05, 3, 3, workers=8)
    assert sizes == [3]
    ref = simulate_ensemble(problem, 0.05, 3, 3)
    np.testing.assert_array_equal(run.terminal, ref.terminal)


def test_without_fork_runs_take_one_worker(monkeypatch):
    monkeypatch.setattr(engine, "_CAN_FORK", False)
    assert engine.default_workers() == 1
    problem = builtin_problem("paper-5.4")
    with pytest.raises(ConfigurationError, match="workers=2"):
        simulate_ensemble(problem, 0.05, 24, 3, workers=2, chunk_budget_bytes=8 * 3200)
    assert simulate_ensemble(problem, 0.05, 24, 3, chunk_budget_bytes=8 * 3200).n_paths == 24


def test_strong_error_run_reference_coupling():
    problem = builtin_problem("paper-5.4")
    run = strong_error_run(problem, [0.02, 0.01], 0.01, 128, master_seed=15)
    assert run.errors[0.01].shape == (128,)
    assert np.all(run.errors[0.01] == 0.0)
    assert np.all(run.errors[0.02] != 0.0)


def test_strong_error_run_rejects_bad_grids():
    problem = builtin_problem("paper-5.4")
    with pytest.raises(ConfigurationError):
        strong_error_run(problem, [0.015], 0.01, 128, master_seed=15)
    with pytest.raises(ConfigurationError):
        strong_error_run(problem, [0.005], 0.01, 128, master_seed=15)


@pytest.mark.parametrize(
    "run",
    [
        lambda p, n: simulate_ensemble(p, 0.01, n, master_seed=1),
        lambda p, n: second_moment_curve(p, 0.01, 10, n, master_seed=1),
        lambda p, n: coupling_curve(p, (1.0, -1.0), 0.01, 10, n, master_seed=1),
        lambda p, n: strong_error_run(p, [0.02], 0.01, n, master_seed=1),
    ],
    ids=["simulate_ensemble", "second_moment_curve", "coupling_curve", "strong_error_run"],
)
@pytest.mark.parametrize("n_paths", [0, -3])
def test_path_count_below_one_is_rejected(run, n_paths):
    with pytest.raises(ConfigurationError, match=f"n_paths must be >= 1, got {n_paths}"):
        run(builtin_problem("paper-5.4"), n_paths)


@pytest.mark.parametrize(
    "run, match",
    [
        (lambda p: simulate_ensemble(p, 0.5, 2.0, 1), "n_paths must be an integer, got 2.0"),
        (lambda p: simulate_ensemble(p, 0.5, True, 1), "n_paths must be an integer, got True"),
        (lambda p: coupling_curve(p, (1.0, -1.0), 0.01, -1, 4, 1), "n_steps must be >= 0, got -1"),
        (lambda p: coupling_curve(p, (1.0, -1.0), 0.01, 2.5, 4, 1),
         "n_steps must be an integer, got 2.5"),
        (lambda p: second_moment_curve(p, 0.01, 10, np.int64(0), 1), "n_paths must be >= 1, got 0"),
    ],
    ids=["float-paths", "bool-paths", "negative-steps", "float-steps", "numpy-zero-paths"],
)
def test_counts_that_are_not_integers_in_range_are_rejected(run, match):
    with pytest.raises(ConfigurationError, match=match):
        run(builtin_problem("paper-5.4"))


def test_x0_override():
    problem = builtin_problem("paper-5.3")
    n_steps = steps_for_horizon(problem.horizon, 0.01)
    result = simulate_ensemble(dataclasses.replace(problem, x0=0.0), 0.01, 4, master_seed=2)
    tape = make_tape(problem, 0.01, n_steps, np.arange(4), master_seed=2)
    y = np.zeros(4)
    for i in range(n_steps):
        y = (y + tape.levy[:, i]) / 1.02
    np.testing.assert_allclose(result.terminal, y, rtol=1e-12)
