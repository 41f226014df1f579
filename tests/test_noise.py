"""Increment samplers and moment-condition validation."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from levyem.engine import make_tape, simulate_ensemble
from levyem.errors import ConfigurationError
from levyem.problems import builtin_problem
from levyem.noise import (
    _LIVE_ROWS,
    NoiseSpec,
    PathStreams,
    _philox_keys,
    increment_characteristic_function,
    make_rng,
    sample_alpha_stable,
    sample_levy_increments,
    sample_tempered_stable,
    validate_moment_conditions,
)
from levyem.tilted_stable import row_blocks

BM_SPEC = NoiseSpec(kind="none", brownian_dim=1)
STREAM_CODES = {"brownian": 0, "levy": 1, "aux": 2}


def _reference_rng(seed, path, stream):
    """Path ``path``'s stream, built from numpy's SeedSequence alone: the seeding contract."""
    key = np.random.SeedSequence(seed, spawn_key=(path, STREAM_CODES[stream])).generate_state(
        2, np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


def _brownian_problem():
    """paper-5.4 without its jumps: a tape of Brownian rows only."""
    return dataclasses.replace(builtin_problem("paper-5.4"), noise=BM_SPEC)


# ---------------------------------------------------------------------------
# Brownian increments (drawn inline by make_tape)


def test_brownian_moments_at_1e6():
    dt = 0.25
    tape = make_tape(_brownian_problem(), dt, 1000, np.arange(1000), master_seed=1)
    assert tape.levy is None
    draw = tape.brownian
    assert draw.shape == (1000, 1000)
    assert abs(draw.mean()) < 4e-3 * np.sqrt(dt)
    assert abs(draw.var() - dt) < 0.01 * dt


def test_brownian_determinism():
    a = make_tape(_brownian_problem(), 0.5, 1000, [3, 4], master_seed=7).brownian
    b = make_tape(_brownian_problem(), 0.5, 1000, [4, 3], master_seed=7).brownian
    np.testing.assert_array_equal(a, b[::-1])
    expected = np.sqrt(0.5) * _reference_rng(7, 3, "brownian").standard_normal(1000)
    np.testing.assert_array_equal(a[0], expected)


def test_streams_are_distinct():
    a = PathStreams(7, [3], "brownian")[0].standard_normal(100)
    b = PathStreams(7, [3], "levy")[0].standard_normal(100)
    c = PathStreams(7, [4], "brownian")[0].standard_normal(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_make_rng_is_one_path_stream():
    np.testing.assert_array_equal(
        make_rng(2**40 + 3, 17, "aux").random(50), _reference_rng(2**40 + 3, 17, "aux").random(50)
    )


def test_path_streams_reject_an_unknown_stream_tag():
    with pytest.raises(ConfigurationError, match="'nope'"):
        PathStreams(1, [0], "nope")


# ---------------------------------------------------------------------------
# Chunk-level tapes: bit-identical to one stream per path


@pytest.mark.parametrize("seed", [0, 7, 20240817, 2**40 + 3, 2**130 + 99])
def test_philox_keys_match_seed_sequence(seed):
    paths = np.arange(3000)
    for stream, code in (("brownian", 0), ("levy", 1), ("aux", 2)):
        expected = np.array(
            [
                np.random.SeedSequence(seed, spawn_key=(int(p), code)).generate_state(2, np.uint64)
                for p in paths
            ]
        )
        np.testing.assert_array_equal(_philox_keys(seed, paths.astype(np.uint64), stream), expected)
        np.testing.assert_array_equal(_philox_keys(seed, 2999, stream), expected[-1])


def test_path_streams_resume_each_row():
    streams = PathStreams(3, [5, 9], "levy")
    a, b = _reference_rng(3, 5, "levy"), _reference_rng(3, 9, "levy")
    for row, rng in (0, a), (1, b), (0, a), (0, a), (1, b):
        np.testing.assert_array_equal(streams[row].random(7), rng.random(7))
    streams.release(0)
    np.testing.assert_array_equal(streams[1].random(3), b.random(3))
    with pytest.raises(ConfigurationError, match="path"):
        PathStreams(3, [-1], "levy")


def test_path_streams_kept_open_continue_released_rows():
    streams = PathStreams(3, [5, 9], "levy")
    streams.keep_open = True
    a, b = _reference_rng(3, 5, "levy"), _reference_rng(3, 9, "levy")
    for _ in range(2):  # the second pass continues each released row
        for row, rng in (0, a), (1, b):
            np.testing.assert_array_equal(streams[row].random(7), rng.random(7))
            streams.release(row)


def test_path_streams_suspend_rows_beyond_the_pool():
    # interleaved draws over more rows than hold a generator at once
    paths = np.arange(2 * _LIVE_ROWS + 7) * 3 + 1
    streams = PathStreams(11, paths, "levy")
    refs = [_reference_rng(11, int(p), "levy") for p in paths]
    rng = np.random.default_rng(0)
    for row in rng.integers(0, paths.size, 2000):
        n = int(rng.integers(1, 5))
        np.testing.assert_array_equal(streams[row].random(n), refs[row].random(n))
        if rng.random() < 0.05:
            streams.release(row)
            refs[row] = _reference_rng(11, int(paths[row]), "levy")  # a released row restarts
    for row in range(paths.size):  # in order: with more rows than the pool, most resume
        np.testing.assert_array_equal(
            streams[row].standard_normal(3), refs[row].standard_normal(3)
        )


def test_path_streams_kept_open_beyond_the_pool():
    paths = np.arange(_LIVE_ROWS + 20)
    streams = PathStreams(3, paths, "brownian")
    streams.keep_open = True
    refs = [_reference_rng(3, int(p), "brownian") for p in paths]
    for _ in range(2):  # the second pass continues each row, most of them suspended
        for row in range(paths.size):
            np.testing.assert_array_equal(
                streams[row].standard_normal(5), refs[row].standard_normal(5)
            )
            streams.release(row)


def test_path_streams_hold_two_rows_at_once():
    streams = PathStreams(3, [5, 9], "levy")
    a, b = _reference_rng(3, 5, "levy"), _reference_rng(3, 9, "levy")
    first, second = streams[0], streams[1]
    assert first is not second
    for _ in range(3):
        np.testing.assert_array_equal(first.random(4), a.random(4))
        np.testing.assert_array_equal(second.standard_exponential(4), b.standard_exponential(4))
    assert streams[0] is first and streams[1] is second


_TAPE_SPECS = {
    "stable-1": NoiseSpec(kind="alpha_stable", alpha=1.0, scale=1.5, brownian_dim=0, gamma0=1.4,
                          gamma_inf=1.2),
    "stable-2": NoiseSpec(kind="alpha_stable", alpha=2.0, scale=0.5, brownian_dim=0, gamma0=1.4,
                          gamma_inf=1.2),
    # tilt 4.5 over dt = 1: three divide-and-conquer pieces per increment
    "tempered-3-pieces": NoiseSpec(kind="tempered_stable", alpha=1.3, tempering=3.0, gamma0=1.3),
    # tilt 595.125 over dt = 1: 64 pieces, the most a draw may take
    "tempered-64-pieces": NoiseSpec(kind="tempered_stable", alpha=1.3, tempering=34.5, gamma0=1.3),
}


def _tape_problem(name):
    if name in _TAPE_SPECS:
        spec = _TAPE_SPECS[name]
        base = builtin_problem("paper-5.3" if spec.brownian_dim == 0 else "paper-5.4")
        return dataclasses.replace(base, noise=spec)
    return builtin_problem(name)


def _reference_stable(alpha, scale, dt, n, rng):
    """Chambers-Mallows-Stuck on one stream, written out: uniforms, then exponentials."""
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, n)
    w = np.clip(rng.standard_exponential(n), 1e-300, None)
    if alpha == 1.0:
        x = np.tan(u)
    else:
        x = (
            np.sin(alpha * u)
            / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
        )
    return scale * dt ** (1.0 / alpha) * x


def _reference_tempered(alpha, tempering, scale, dt, n, rng):
    """Hofert's divide-and-conquer on one stream, written out: the consumption contract."""
    rho, tilt = alpha / 2.0, tempering**2 / 2.0
    pieces = max(1, int(np.ceil(dt * tilt**rho)))
    piece_scale = (dt / pieces) ** (1.0 / rho)
    values, pending = np.empty(n * pieces), np.arange(n * pieces)
    while pending.size:
        u = np.clip(rng.uniform(0.0, np.pi, pending.size), 1e-9, np.pi - 1e-9)
        e = rng.standard_exponential(pending.size)
        # Kanter's (A(u) / e)**((1 - rho) / rho) as (s1 / s0) * (s2 / (e s0))**((1 - rho) / rho),
        # each sine (halved) from its half-angle tangent t: sin(x) / 2 = t / (1 + t**2)
        t0, t1, t2 = (np.tan((0.5 * c) * u) for c in (1.0, rho, 1.0 - rho))
        s0, s1, s2 = t0 / (1.0 + t0 * t0), t1 / (1.0 + t1 * t1), t2 / (1.0 + t2 * t2)
        draw = piece_scale * (s1 / s0 * np.power(s2 / (e * s0), (1.0 - rho) / rho))
        keep = rng.random(pending.size) < np.exp(-tilt * draw)
        values[pending[keep]] = draw[keep]
        pending = pending[~keep]
    subordinator = values.reshape(n, pieces).sum(axis=1)
    return scale * np.sqrt(subordinator) * rng.standard_normal(n)


def _reference_levy(spec, dt, n, rng):
    if spec.kind == "alpha_stable":
        return _reference_stable(spec.alpha, spec.scale, dt, n, rng)
    return _reference_tempered(spec.alpha, spec.tempering, spec.scale, dt, n, rng)


@pytest.mark.parametrize("name", ["paper-5.3", "paper-5.4", "paper-5.2", *_TAPE_SPECS])
def test_tape_rows_equal_one_stream_per_path(name):
    problem = _tape_problem(name)
    dt = 1.0 if name in _TAPE_SPECS else 0.01
    n_steps = 300
    # rows in several sampler blocks, in no particular order
    paths = [0, 41, 7, 2**31 + 5, *range(100, 136)]
    tape = make_tape(problem, dt, n_steps, paths, master_seed=20240817)
    assert (tape.brownian is None) == (problem.noise.brownian_dim == 0)
    for row, path in enumerate(paths):
        if tape.brownian is not None:
            rng = _reference_rng(20240817, path, "brownian")
            np.testing.assert_array_equal(tape.brownian[row], rng.standard_normal(n_steps) * np.sqrt(dt))
        levy = _reference_levy(problem.noise, dt, n_steps, _reference_rng(20240817, path, "levy"))
        np.testing.assert_array_equal(tape.levy[row], levy)


@pytest.mark.parametrize("name, dt", [("paper-5.4", 0.01), ("tempered-3-pieces", 1.0)])
def test_tempered_rows_follow_the_per_stream_draw_order(name, dt):
    spec = _tape_problem(name).noise
    tape = make_tape(_tape_problem(name), dt, 200, [3, 60], master_seed=5)
    for row, path in enumerate([3, 60]):
        rng = _reference_rng(5, path, "levy")
        expected = _reference_tempered(spec.alpha, spec.tempering, spec.scale, dt, 200, rng)
        np.testing.assert_array_equal(tape.levy[row], expected)


def test_sampler_blocks_hold_at_most_the_live_generators():
    # 300 rows of 4 one-piece steps: an 8,192-cell block would hold them all, more
    # rows than PathStreams keeps generators for, and a block holds its rows' generators
    assert max(hi - lo for lo, hi in row_blocks(300, 4)) == _LIVE_ROWS
    problem = builtin_problem("paper-5.4")
    tape = make_tape(problem, 0.01, 4, np.arange(300), master_seed=20240817)
    for path in range(300):
        levy = _reference_levy(problem.noise, 0.01, 4, _reference_rng(20240817, path, "levy"))
        np.testing.assert_array_equal(tape.levy[path], levy)


def test_short_tempered_rows_do_not_depend_on_the_workers():
    # 100 steps: 81 rows would share a block without the row cap
    problem = dataclasses.replace(builtin_problem("paper-5.4"), horizon=1.0)
    runs = [
        simulate_ensemble(problem, 0.01, 4200, 20240817, checkpoints=[0.1, 1.0], workers=w)
        for w in (1, 2)
    ]
    np.testing.assert_array_equal(runs[0].terminal, runs[1].terminal)
    for t in (0.1, 1.0):
        np.testing.assert_array_equal(runs[0].checkpoints[t], runs[1].checkpoints[t])


def test_tape_working_memory_is_bounded():
    # the jump rows are finished block by block: no temporary of the tape's size
    problem = builtin_problem("paper-5.1a")
    make_tape(problem, 2.0**-10, 8, np.arange(4), master_seed=1)  # warm-up imports
    tracemalloc.start()
    try:
        tape = make_tape(problem, 2.0**-10, 1024, np.arange(256), master_seed=20240817)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (tape.brownian.nbytes + tape.levy.nbytes)


# ---------------------------------------------------------------------------
# Alpha-stable


def test_stable_ecf_against_closed_form():
    # alpha = 1.5, scale = 1, dt = 1, n = 1e6; CF is exp(-|u|**1.5)
    draw = sample_alpha_stable(1.5, 1.0, 1.0, 1_000_000, PathStreams(5, [0], "levy"))[0]
    for u in (0.25, 0.5, 1.0, 2.0):
        cos_u = np.cos(u * draw)
        se = cos_u.std(ddof=1) / np.sqrt(cos_u.size)
        gap = abs(cos_u.mean() - np.exp(-np.abs(u) ** 1.5))
        assert gap <= 3.0 * se, f"u={u}: gap {gap:.2e} > 3*stderr {3 * se:.2e}"


def test_stable_alpha2_reduces_to_gaussian():
    # scale 1/sqrt(2) at alpha=2 has variance 2*scale^2 = 1
    streams = PathStreams(6, [0], "levy")
    draw = sample_alpha_stable(2.0, 1.0 / np.sqrt(2.0), 1.0, 100_000, streams)[0]
    gauss = np.random.default_rng(123).standard_normal(100_000)
    assert stats.ks_2samp(draw, gauss).pvalue > 0.01


def test_stable_self_similarity():
    # one dt=1/4 increment vs the sum of four dt=1/16 increments
    n = 100_000
    one = sample_alpha_stable(1.5, 1.0, 0.25, n, PathStreams(8, [0], "levy"))[0]
    fine = sample_alpha_stable(1.5, 1.0, 1.0 / 16.0, 4 * n, PathStreams(9, [0], "levy"))[0]
    summed = fine.reshape(n, 4).sum(axis=1)
    assert stats.ks_2samp(one, summed).pvalue > 0.01


def test_stable_scale_enters_as_dt_power():
    # scale*dt**(1/alpha) scaling: dt=16, alpha=2 doubles the dt=4 spread
    a = sample_alpha_stable(2.0, 1.0, 4.0, 50_000, PathStreams(10, [0], "levy"))[0]
    b = sample_alpha_stable(2.0, 1.0, 16.0, 50_000, PathStreams(10, [0], "levy"))[0]
    np.testing.assert_allclose(b, 2.0 * a)


def test_stable_rejects_bad_alpha():
    with pytest.raises(ConfigurationError):
        sample_alpha_stable(2.5, 1.0, 1.0, 10, PathStreams(1, [0], "levy"))
    with pytest.raises(ConfigurationError):
        sample_alpha_stable(0.0, 1.0, 1.0, 10, PathStreams(1, [0], "levy"))


# ---------------------------------------------------------------------------
# Tempered stable


def test_tempering_lightens_tails():
    heavy = sample_tempered_stable(1.3, 1.0, 1.0, 1.0, 100_000, PathStreams(11, [0], "levy"))[0]
    light = sample_tempered_stable(1.3, 8.0, 1.0, 1.0, 100_000, PathStreams(12, [0], "levy"))[0]
    assert light.var() < heavy.var()


def test_tempering_fourth_moment_monotone():
    lams = [0.5, 1.0, 2.0, 4.0]
    fourths, stderrs = [], []
    for i, lam in enumerate(lams):
        draw = sample_tempered_stable(1.3, lam, 1.0, 1.0, 100_000, PathStreams(13, [i], "levy"))[0]
        x4 = draw ** 4
        fourths.append(x4.mean())
        stderrs.append(x4.std(ddof=1) / np.sqrt(x4.size))
    for j in range(len(lams) - 1):
        slack = 3.0 * float(np.hypot(stderrs[j], stderrs[j + 1]))
        assert fourths[j + 1] < fourths[j] + slack, (
            f"4th moment not decreasing at lambda={lams[j]} -> {lams[j + 1]}: "
            f"{fourths[j]:.3f} -> {fourths[j + 1]:.3f}"
        )


def test_tempered_exponential_moment_oracle(tempered_13_draw_1e6, tempered_13_oracle_1e7):
    for theta in (0.1, 0.2):
        main = np.exp(theta * tempered_13_draw_1e6)
        oracle = np.exp(theta * tempered_13_oracle_1e7)
        assert np.all(np.isfinite(main))
        se = float(
            np.hypot(
                main.std(ddof=1) / np.sqrt(main.size),
                oracle.std(ddof=1) / np.sqrt(oracle.size),
            )
        )
        gap = abs(main.mean() - oracle.mean())
        assert gap <= 3.0 * se, f"theta={theta}: gap {gap:.3e} > {3 * se:.3e}"


def test_tempered_acceptance_ratio_bounded():
    _, acc = sample_tempered_stable(
        1.3, 1.0, 1.0, 1.0, 10_000, PathStreams(14, [0], "levy"), with_stats=True
    )
    assert 0.0 < acc.ratio <= 1.0


def test_tempered_variance_matches_subordination_identity():
    # Var X = scale^2 * dt * rho * theta**(rho-1), rho = alpha/2, theta = lambda^2/2
    alpha, lam, scale, dt = 1.3, 1.0, 2.0, 0.5
    draw = sample_tempered_stable(alpha, lam, scale, dt, 400_000, PathStreams(15, [0], "levy"))[0]
    rho, theta = alpha / 2.0, lam ** 2 / 2.0
    target = scale ** 2 * dt * rho * theta ** (rho - 1.0)
    assert abs(draw.var(ddof=1) - target) / target < 0.05


# ---------------------------------------------------------------------------
# Characteristic-function helper and dispatcher


@pytest.mark.parametrize(
    "spec",
    [
        NoiseSpec(kind="alpha_stable", alpha=1.3, scale=1.5, gamma0=1.4, gamma_inf=1.2, brownian_dim=0),
        NoiseSpec(kind="tempered_stable", alpha=1.3, tempering=1.0, scale=2.0, gamma0=1.3, gamma_inf=4.0),
    ],
    ids=["stable", "tempered"],
)
def test_cf_helper_matches_sampler(spec):
    t, n = 0.5, 300_000
    draw = sample_levy_increments(spec, t, n, PathStreams(19, [0], "levy"))[0]
    u = np.array([0.4, 1.1, 2.3])
    emp = np.exp(1j * u[:, None] * draw[None, :]).mean(axis=1)
    theo = increment_characteristic_function(spec, u, t)
    assert np.all(np.abs(emp - theo) * np.sqrt(n) < 4.5)


def test_cf_at_zero_is_one():
    spec = NoiseSpec(kind="tempered_stable", alpha=1.3, tempering=1.0, gamma0=1.3, gamma_inf=4.0)
    assert increment_characteristic_function(spec, [0.0], 1.0)[0] == pytest.approx(1.0)


def test_dispatcher_none_is_zero():
    out = sample_levy_increments(NoiseSpec(kind="none"), 0.1, 5, PathStreams(1, [0], "levy"))[0]
    np.testing.assert_array_equal(out, np.zeros(5))


# ---------------------------------------------------------------------------
# NoiseSpec validation and moment conditions


def test_spec_validation_errors():
    with pytest.raises(ConfigurationError):
        NoiseSpec(kind="mystery")
    with pytest.raises(ConfigurationError):
        NoiseSpec(kind="alpha_stable", alpha=1.5, gamma0=0.5)
    with pytest.raises(ConfigurationError):
        NoiseSpec(kind="alpha_stable", alpha=1.5, gamma_inf=1.0)
    with pytest.raises(ConfigurationError):
        NoiseSpec(kind="tempered_stable", alpha=1.3, tempering=0.0)


@pytest.mark.parametrize("dim", [-1, 2, 3])
def test_brownian_dim_is_zero_or_one(dim):
    # make_tape draws a single Brownian column, so brownian_dim=3 would run as 1
    with pytest.raises(ConfigurationError, match="brownian_dim"):
        NoiseSpec(kind="none", brownian_dim=dim)


def test_moment_conditions_tempered_pass_pass():
    spec = NoiseSpec(kind="tempered_stable", alpha=1.3, tempering=1.0, gamma0=1.5, gamma_inf=4.0)
    report = validate_moment_conditions(spec)
    assert report.small_jump_ok and report.large_jump_ok and report.passed


def test_moment_conditions_stable_pass_fail():
    spec = NoiseSpec(
        kind="alpha_stable", alpha=1.5, gamma0=1.6, gamma_inf=2.0, brownian_dim=0
    )
    report = validate_moment_conditions(spec)
    assert report.small_jump_ok
    assert not report.large_jump_ok
    assert "infinity" in report.large_jump_reason or "invariant" in report.large_jump_reason


def test_moment_conditions_stable_small_jump_strict():
    spec = NoiseSpec(
        kind="alpha_stable", alpha=1.5, gamma0=1.5, gamma_inf=1.2, brownian_dim=0
    )
    assert not validate_moment_conditions(spec).small_jump_ok


def test_moment_conditions_none_vacuous():
    assert validate_moment_conditions(NoiseSpec(kind="none")).passed


def test_heavy_tail_flag():
    stable = NoiseSpec(kind="alpha_stable", alpha=1.5, gamma0=1.6, gamma_inf=2.0, brownian_dim=0)
    tempered = NoiseSpec(kind="tempered_stable", alpha=1.3, tempering=1.0, gamma0=1.3, gamma_inf=4.0)
    assert stable.heavy_tailed
    assert not tempered.heavy_tailed
