"""Implicit-step root solves against an independent bisection/Brent oracle."""

import itertools
import warnings

import numpy as np
import pytest
from scipy import optimize

from levyem.errors import ConfigurationError, StepFailureError
from levyem.implicit import (
    _ABS_TOL,
    _FLOAT_MAX,
    _JAC_FLOOR,
    _MAX_BISECTIONS,
    _MAX_DAMPINGS,
    _MAX_NEWTON_ITERS,
    PreparedStep,
    StepDiagnostics,
    _block_horner,
    _check_dt,
    _fail_where,
    _Iterate,
    _residual_floor,
    bracket_halfwidth,
    residual_function,
    solvability_limit,
    solve_implicit_steps,
)
from levyem.problems import (
    builtin_problem,
    builtin_problem_names,
    compile_terms,
    problem_from_config,
)

ORACLE_PROBLEMS = ["paper-5.1a", "paper-5.1c", "paper-5.2", "paper-5.4"]


def _solve_one(problem, t, c, dt, diagnostics=None):
    """The root for one explicit part, from a batch of one."""
    return float(solve_implicit_steps(problem, t, np.array([c], dtype=float), dt, diagnostics)[0])


def _residual(problem, t, y, c, dt):
    return residual_function(problem, t, dt)(np.asarray(y, dtype=float), c)


def _oracle_root(problem, t, c, dt):
    """Brent on the residual built directly from the drift (solver-independent)."""
    half = bracket_halfwidth(problem, t, c, dt)
    lo, hi = c - half, c + half
    func = lambda y: y - dt * float(problem.drift(t, np.array([y]))[0]) - c
    return optimize.brentq(func, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=300)


@pytest.mark.parametrize("name", ORACLE_PROBLEMS)
def test_solver_matches_brent_oracle(name):
    problem = builtin_problem(name)
    rng = np.random.default_rng(2024)
    limit = solvability_limit(problem)
    for _ in range(60):
        t = rng.uniform(0.0, problem.horizon)
        c = rng.normal(0.0, 3.0)
        dt = rng.uniform(1e-4, min(0.05, 0.5 * limit))
        y = _solve_one(problem, t, c, dt)
        y_star = _oracle_root(problem, t, c, dt)
        assert abs(y - y_star) <= 1e-10 * max(1.0, abs(y_star)), (
            f"{name}: t={t:.4f} c={c:.4f} dt={dt:.6f}: {y} vs {y_star}"
        )
        r, _ = _residual(problem, t, np.array([y]), np.array([c]), dt)
        assert abs(r[0]) <= 1e-12


@pytest.mark.parametrize(
    "large", [(), (1e30, 1e100, 1e200)], ids=["ordinary", "with-stragglers"]
)
def test_batch_equals_scalar(large):
    # Newton cannot reach the roots of the large explicit parts in its budget,
    # so those elements go to the bracketed stage, which solves them together;
    # each element's result must still not depend on the rest of the batch.
    problem = builtin_problem("paper-5.4")
    rng = np.random.default_rng(5)
    t, dt = 0.37, 0.01
    c = rng.normal(0.0, 5.0, 256)
    c[[17, 128, 255][: len(large)]] = large
    diag = StepDiagnostics()
    with np.errstate(over="ignore", invalid="ignore"):
        batch = solve_implicit_steps(problem, t, c, dt, diagnostics=diag)
        one_by_one = np.array([_solve_one(problem, t, ci, dt) for ci in c])
    np.testing.assert_array_equal(batch, one_by_one)
    assert diag.bracketed_elements == len(large)
    for y, ci in zip(batch[np.isin(c, large)], large):  # the root lies within one ulp of y
        r, _ = _residual(problem, t, np.nextafter([y, y], [-np.inf, np.inf]), ci, dt)
        assert r[0] <= 0.0 <= r[1]


@pytest.mark.parametrize(
    "problem, t, dt, damped",
    [
        # the window term makes full steps fail for c near -0.5 (one halving each)
        (builtin_problem("paper-5.1a"), 0.5, 1.0, np.linspace(-0.54, -0.425, 24)),
    ],
    ids=["grammar"],
)
def test_batch_equals_scalar_through_damping(problem, t, dt, damped):
    rng = np.random.default_rng(8)
    c = np.concatenate([damped, rng.normal(0.0, 2.0, 64)])
    rng.shuffle(c)
    diag = StepDiagnostics()
    batch = solve_implicit_steps(problem, t, c, dt, diagnostics=diag)
    singles = [StepDiagnostics() for _ in c]
    one_by_one = np.array([_solve_one(problem, t, ci, dt, d) for ci, d in zip(c, singles)])
    np.testing.assert_array_equal(batch, one_by_one)
    assert diag.damping_halvings == sum(d.damping_halvings for d in singles) > 0
    assert diag.newton_iterations == sum(d.newton_iterations for d in singles)
    assert diag.bracketed_elements == 0


@pytest.mark.parametrize("name", builtin_problem_names())
def test_array_dt_equals_scalar_solves(name):
    # One batch with a dt per element: every element must do exactly the
    # arithmetic of its own scalar-dt solve, through damping (the window term
    # of the quintic drifts near c = -0.5 at a large dt) and through the
    # bracketed stage (huge explicit parts of a nonlinear drift).
    problem = builtin_problem(name)
    t = 0.5 * problem.horizon
    rng = np.random.default_rng(3)
    dts = np.array([2.0 ** -10, 0.01, min(1.0, 0.7 * solvability_limit(problem))])
    damped, huge = np.linspace(-0.54, -0.425, 24), [1e30, -1e60, 1e100]
    c = np.concatenate([rng.normal(0.0, 2.0, 60), damped, huge])
    dt = dts[rng.integers(0, dts.size, c.size)]
    dt[60:84] = dts[-1]
    diag = StepDiagnostics()
    singles = [StepDiagnostics() for _ in c]
    with np.errstate(over="ignore", invalid="ignore"):
        batch = solve_implicit_steps(problem, t, c, dt, diagnostics=diag)
        one_by_one = np.array(
            [_solve_one(problem, t, ci, float(di), d) for ci, di, d in zip(c, dt, singles)]
        )
    np.testing.assert_array_equal(batch, one_by_one)
    for counter in ("solves", "newton_iterations", "damping_halvings", "bracketed_elements"):
        assert getattr(diag, counter) == sum(getattr(d, counter) for d in singles), counter
    assert diag.worst_residual == max(d.worst_residual for d in singles)
    degree = problem.drift_polynomial.degree  # a linear drift is solved by one Newton step
    assert diag.bracketed_elements == (3 if degree > 1 else 0)
    assert (diag.damping_halvings > 0) == (degree == 5)


def test_array_dt_is_checked_per_element():
    problem = builtin_problem("paper-5.1a")
    c = np.array([0.5, 1.0, 2.0])
    limit = solvability_limit(problem)  # 1 / 0.6648; limit * 0.6648 rounds to 1
    at_limit = np.array([0.01, limit, 0.01])  # the second element's dt * bound reaches 1
    with pytest.raises(ConfigurationError, match=r"dt\[1\]"):
        solve_implicit_steps(problem, 0.5, c, at_limit)
    with pytest.raises(ConfigurationError, match="dt"):
        solve_implicit_steps(problem, 0.5, c, np.array([0.01, -0.01, 0.01]))
    for shape in [(2,), (4,), (3, 1)]:
        with pytest.raises(ConfigurationError, match="shaped like c"):
            solve_implicit_steps(problem, 0.5, c, np.full(shape, 0.01))


def test_failure_names_the_element_dt():
    problem = builtin_problem("paper-5.4")
    c = np.array([1.0, np.nan])
    with pytest.raises(StepFailureError) as info:
        solve_implicit_steps(problem, 0.25, c, np.array([0.01, 0.02]))
    assert info.value.diagnostics["dt"] == 0.02
    assert type(info.value.diagnostics["dt"]) is float


def test_linear_drift_closed_form():
    # f = -2x: y = c / (1 + 2 dt), one Newton step suffices
    problem = builtin_problem("paper-5.3")
    c, dt = 7.0, 0.01
    y = _solve_one(problem, 0.5, c, dt)
    assert y == pytest.approx(c / 1.02, rel=1e-14)


def test_residuals_small_across_batch():
    problem = builtin_problem("paper-5.1c")
    rng = np.random.default_rng(77)
    c = rng.normal(0.0, 4.0, 512)
    diag = StepDiagnostics()
    y = solve_implicit_steps(problem, 0.9, c, 2.0 ** -9, diagnostics=diag)
    r, _ = _residual(problem, 0.9, y, c, 2.0 ** -9)
    assert np.max(np.abs(r)) <= 1e-12
    assert diag.solves == 512
    assert diag.worst_residual <= 1e-12


def test_extreme_state_accepted_at_machine_floor():
    # |r'(y*)| ~ 1e5 here, so residual 1e-12 is not representable; the
    # solver must still accept the double-precision root.
    problem = builtin_problem("paper-5.1a")
    c, dt = 1.0e6, 2.0 ** -9
    y = _solve_one(problem, 0.5, c, dt)
    y_star = _oracle_root(problem, 0.5, c, dt)
    assert abs(y - y_star) <= 1e-10 * max(1.0, abs(y_star))


def test_solvability_gate():
    problem = builtin_problem("paper-5.1a")  # sup df/dx = 0.6648 (at t = 0)
    limit = solvability_limit(problem)
    assert limit == pytest.approx(1.0 / 0.6647973189869258, rel=1e-12)
    with pytest.raises(ConfigurationError):
        _solve_one(problem, 0.5, 1.0, 1.5 * limit)


def test_solvability_unbounded_for_dissipative_drift():
    problem = builtin_problem("paper-5.4")  # sup df/dx = -5
    assert solvability_limit(problem) == np.inf


_NO_ROOT = {
    "name": "no-root",
    "drift": [{"coeff": 1.0, "x_power": 2}],
    "x0": 1000.0,
    "horizon": 1.0,
    "noise": {"kind": "none", "brownian_dim": 0},
    "constants": {"H": 1e9, "sigma": 3.0, "q": 10.0, "M": 1e9, "K1": 1.0, "K2": 1.0,
                  "gamma1": 0.5, "gamma2": 0.5},
}


def test_rootless_drift_is_rejected_at_build():
    # sup of d(x^2)/dx = 2x is +inf, so no dt guarantees a root
    with pytest.raises(ConfigurationError, match="drift"):
        problem_from_config(_NO_ROOT)


def test_rootless_equation_fails_loudly():
    # a problem built from a solvable drift, with x^2 put in its place
    # afterwards: the bound it keeps is wrong, and the solver must still fail
    problem = problem_from_config({**_NO_ROOT, "drift": [{"coeff": -1.0, "x_power": 1}]})
    problem.drift_polynomial = compile_terms(_NO_ROOT["drift"])
    with pytest.raises(StepFailureError):
        _solve_one(problem, 0.0, 1000.0, 0.01)


def test_bracket_contains_root():
    problem = builtin_problem("paper-5.4")
    rng = np.random.default_rng(31)
    for _ in range(50):
        c = rng.normal(0.0, 20.0)
        dt = rng.uniform(1e-4, 0.1)
        half = bracket_halfwidth(problem, 1.0, c, dt)
        func = lambda y: y - dt * float(problem.drift(1.0, np.array([y]))[0]) - c
        assert func(c - half) < 0 < func(c + half)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_explicit_part_raises(bad):
    # |nan| > tol is false, so a tolerance test alone would pass a NaN as a root
    problem = builtin_problem("paper-5.4")
    c = np.array([1.0, 2.0, bad, bad])
    with pytest.raises(StepFailureError, match=r"c\[2\]") as info:
        solve_implicit_steps(problem, 0.25, c, 0.01)
    assert info.value.diagnostics["t"] == 0.25
    assert info.value.diagnostics["index"] == 2


def _assert_root_within_tolerance(problem, t, c, dt, y):
    r, jac = _residual(problem, t, np.array([y]), c, dt)
    accept = max(_ABS_TOL, float(_residual_floor(y, abs(c), jac[0])))
    assert abs(float(r[0])) <= accept < np.inf


@pytest.mark.parametrize("c", [1e30, 1e60, 1e100])
def test_large_finite_explicit_part_is_solved(c):
    # Newton from y = c shrinks a cubic's iterate by only about 2/3 per step,
    # so these reach the bracketed solve, whose bracket [c - A, c + A] spans
    # many orders of magnitude around a root near (c / dt)^(1/3).
    problem = builtin_problem("paper-5.4")
    with np.errstate(over="ignore", invalid="ignore"):
        y = solve_implicit_steps(problem, 1.0, np.array([c]), 0.01)[0]
    assert y == pytest.approx((c / 0.01) ** (1.0 / 3.0), rel=1e-6)
    _assert_root_within_tolerance(problem, 1.0, c, 0.01, y)


def test_overflowing_explicit_part_is_not_accepted():
    # At c = 1e200 the drift and its Jacobian overflow at the starting point,
    # which makes the residual floor inf, and |r| <= inf must not accept y = c.
    # The true root, about 2.15e67, sits some 130 orders of magnitude inside
    # the a-priori bracket; bisecting in asinh(y) reaches it.
    problem = builtin_problem("paper-5.4")
    with np.errstate(over="ignore", invalid="ignore"):
        y = solve_implicit_steps(problem, 0.5, np.array([1.0, 1e200]), 0.01)[1]
    assert y == pytest.approx(2.15443469e67, rel=1e-8)
    _assert_root_within_tolerance(problem, 0.5, 1e200, 0.01, y)


@pytest.mark.parametrize("c", [1.7e308, -1.7e308])
def test_explicit_part_near_float_max_is_solved(c):
    # The root sits near (|c| / dt)^(1/3) = 2.57e103, where the residual
    # y + dt*(y**3 + 5y - 5) - c is finite but |r'(y)| |y| ~ 3 |c| is not:
    # the accepting floor scales |r'(y)| by 32 eps before the product, so it
    # stays finite and the bracketed solve's root passes the residual test.
    problem = builtin_problem("paper-5.4")
    diag = StepDiagnostics()
    with np.errstate(over="ignore", invalid="ignore"):
        y = solve_implicit_steps(problem, 0.5, np.array([1.0, c]), 0.01, diagnostics=diag)[1]
    assert y == pytest.approx(np.sign(c) * np.cbrt(abs(c)) / np.cbrt(0.01), rel=1e-10)
    assert diag.bracketed_elements == 1
    assert diag.worst_residual == pytest.approx(1.9958403e292, rel=1e-6)
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_root_within_tolerance(problem, 0.5, c, 0.01, y)


@pytest.mark.parametrize("name", ["paper-5.3", "paper-5.4", "paper-5.1a"])
@pytest.mark.parametrize("per_element", [False, True], ids=["scalar", "per-element"])
def test_infinite_dt_is_rejected(name, per_element):
    # a dissipative drift has no solvability limit, so only the finiteness
    # check stands between dt = inf and the solve
    problem = builtin_problem(name)
    c = np.array([1.0, 2.0])
    dt = np.array([0.01, np.inf]) if per_element else np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=rf"dt\[{1 if per_element else 0}\]"):
            solve_implicit_steps(problem, 0.5, c, dt)


@pytest.mark.parametrize("per_element", [False, True], ids=["scalar-dt", "three-level-dt"])
def test_a_reused_prepared_step_equals_fresh_solves(per_element):
    # One prepared step serves a damped batch, a batch with bracketed
    # elements, then ordinary batches; every call must give the roots and
    # the counters of a solve that prepares its own step, whatever the
    # previous call left in the work arrays and masks.
    problem = builtin_problem("paper-5.1c")
    rng = np.random.default_rng(20)
    n = 515
    dt = min(1.0, 0.9 * solvability_limit(problem))
    if per_element:
        dt = np.array([2.0 ** -10, 2.0 ** -8, dt])[np.arange(n) % 3]
    largest = slice(2, None, 3) if per_element else slice(None)  # the elements at dt itself
    damped = rng.normal(0.0, 1.0, n)
    damped[largest][:24] = np.linspace(-0.7, -0.3, 24)
    bracketed = rng.normal(0.0, 5.0, n)
    bracketed[[2, 200, 512]] = (1e30, -1e60, 1e100)
    calls = [(0.0, damped), (0.5, bracketed)] + [(t, rng.normal(0.0, 2.0, n)) for t in (0.25, 0.75)]
    prepared = PreparedStep(problem, dt, np.empty(n))
    for k, (t, c) in enumerate(calls):
        reused, fresh = StepDiagnostics(), StepDiagnostics()
        with np.errstate(over="ignore", invalid="ignore"):
            y = solve_implicit_steps(problem, t, c, prepared, diagnostics=reused)
            y_fresh = solve_implicit_steps(problem, t, c, dt, diagnostics=fresh)
        assert y.tobytes() == y_fresh.tobytes(), k
        assert reused == fresh, k
        assert reused.damping_halvings > 0 or k > 0, k
        assert reused.bracketed_elements == (3 if k == 1 else 0), k
    np.testing.assert_array_equal(np.asarray(prepared), dt)


def test_roots_never_alias_the_work_arrays():
    # The passes swap the iterate's and the candidate's blocks, and the
    # engine keeps each call's roots as lane states while the same prepared
    # step serves the next node: a root array must be the caller's own.
    problem = builtin_problem("paper-5.1c")
    rng = np.random.default_rng(21)
    n = 300
    dt = min(1.0, 0.9 * solvability_limit(problem))
    prepared = PreparedStep(problem, dt, np.empty(n))
    held = list(prepared.work) + [it.block for it in prepared.iterates] + list(prepared.rows)
    full, damped = StepDiagnostics(), StepDiagnostics()
    first = solve_implicit_steps(problem, 0.5, rng.normal(0.0, 0.5, n), prepared, full)
    kept = first.copy()
    c = rng.normal(0.0, 1.0, n)
    c[:24] = np.linspace(-0.7, -0.3, 24)  # full steps fail here at t = 0
    second = solve_implicit_steps(problem, 0.0, c, prepared, damped)
    assert full.damping_halvings == 0 < full.newton_iterations
    assert damped.damping_halvings > 0
    assert first.tobytes() == kept.tobytes()
    for root in (first, second):
        assert not any(np.shares_memory(root, array) for array in held)


def test_block_horner_equals_the_plain_rule():
    # every layout of a residual (degree >= 2, with y's own term; a drift of
    # degree 0 or 1 is padded with an absent y**2), for coefficients that
    # vary per element, with zeros of both signs in x
    rng = np.random.default_rng(22)
    x = np.concatenate([rng.normal(0.0, 2.0, 61), [0.0, -0.0, 3e-200]])
    layouts = [(False, True, False), (True, True, False)] + [
        (rest[0], True) + rest[1:] + (True,)
        for degree in range(2, 7) for rest in itertools.product([False, True], repeat=degree - 1)
    ]
    for present in layouts:
        rows, evaluate = _block_horner(present, x.size)
        coeffs = rng.normal(0.0, 3.0, (len(present), x.size))
        coeffs[:, -2:] = 0.0
        for row, values in zip(rows, coeffs):
            row[...] = values
        it = _Iterate(x.size)
        it.y[...] = x
        evaluate(it)
        p, dp = _reference_horner(coeffs, present, x)
        assert it.r.tobytes() == p.tobytes(), present
        assert it.jac.tobytes() == dp.tobytes(), present


# ---------------------------------------------------------------------------
# The masked Newton solver as it was before its passes wrote into per-call
# buffers and before the residual test bounded the floor over the batch,
# kept as the reference the solver must equal bit for bit.

def _reference_horner(coeffs, present, x):
    n = len(coeffs) - 1
    p, dp = coeffs[n], 0.0
    for k in range(n - 1, -1, -1):
        dp = p if k == n - 1 else dp * x + p
        p = p * x + coeffs[k] if present[k] else p * x
    return p, dp


def _reference_residual_function(problem, t, dt):
    poly = problem.drift_polynomial
    g = np.multiply.outer(poly.coefficients(t), -np.asarray(dt, dtype=float))  # -dt * a_k(t)
    present = list(poly.present)
    if poly.degree < 2:  # pad, so that r' comes out as an array like r
        g = np.concatenate([g, np.zeros((2 - poly.degree,) + g.shape[1:])])
        present += [False] * (2 - poly.degree)
    g[1] += 1.0
    present[1] = True

    def residual(y, c, at=None):
        v, dv = _reference_horner(g if at is None else g[:, at], present, y)
        return v - c, dv

    return residual


def _reference_accepted(y, r, abs_c, jac):
    tol = np.maximum(_ABS_TOL, _residual_floor(y, abs_c, jac))
    return (np.abs(r) <= tol) & (tol < np.inf)


def _reference_bracketed_solve(residual, problem, t, c, dt, index):
    half = bracket_halfwidth(problem, t, c, dt)
    lo = np.maximum(c - half, -_FLOAT_MAX)
    hi = np.minimum(c + half, _FLOAT_MAX)
    r_lo, r_hi = residual(lo, c, index)[0], residual(hi, c, index)[0]
    no_sign_change = (r_lo > 0.0) | (r_hi < 0.0)  # impossible when dt * L < 1
    _fail_where(no_sign_change, "could not bracket the implicit step root", t, c, dt, index,
                lo=lo, hi=hi)
    for _ in range(_MAX_BISECTIONS):
        live = np.flatnonzero(np.nextafter(lo, np.inf) < hi)
        if live.size == 0:
            break
        a, b, ra = lo[live], hi[live], r_lo[live]
        mid = np.sinh(0.5 * (np.arcsinh(a) + np.arcsinh(b)))
        mid = np.where((a < mid) & (mid < b), mid, 0.5 * a + 0.5 * b)
        r_mid = residual(mid, c[live], index[live])[0]
        up = (r_mid < 0.0) | (np.isnan(r_mid) & ~np.isfinite(ra))
        lo[live[up]], r_lo[live[up]] = mid[up], r_mid[up]
        hi[live[~up]], r_hi[live[~up]] = mid[~up], r_mid[~up]
    nearer_lo = np.nan_to_num(np.abs(r_lo), nan=np.inf) <= np.nan_to_num(np.abs(r_hi), nan=np.inf)
    y = np.where(nearer_lo, lo, hi)
    r, jac = residual(y, c, index)
    _fail_where(~_reference_accepted(y, r, np.abs(c), jac),
                "implicit step residual above tolerance after bisection",
                t, c, dt, index, y=y, residual=r)
    return y, r


def _reference_damp(residual, y, r, jac, step, c, pending, diag):
    lam = 1.0
    for _ in range(_MAX_DAMPINGS):
        diag.damping_halvings += pending.size
        lam *= 0.5
        cand = y[pending] - lam * step[pending]
        rc, jc = residual(cand, c[pending], pending)
        ok = np.abs(rc) < np.abs(r[pending])
        hit = pending[ok]
        y[hit], r[hit], jac[hit] = cand[ok], rc[ok], jc[ok]
        pending = pending[~ok]
        if pending.size == 0:
            return pending
    diag.damping_halvings += pending.size
    return pending


def _reference_solve(problem, t, c, dt, diagnostics=None):
    c = np.asarray(c, dtype=float)
    dt = np.asarray(dt, dtype=float)
    if dt.ndim == 0:
        dt = np.full(c.shape, dt)
    _check_dt(problem, dt, c)
    diag = StepDiagnostics(solves=c.size)
    y = c.copy()
    if not dt.any():  # also an empty batch
        if diagnostics is not None:
            diagnostics.merge(diag)
        return y
    residual = _reference_residual_function(problem, t, dt)
    abs_c = np.abs(c)
    r, jac = residual(y, c)
    accepted = _reference_accepted(y, r, abs_c, jac)
    live = ~accepted
    for _ in range(_MAX_NEWTON_ITERS):
        n_live = int(np.count_nonzero(live))
        if n_live == 0:
            break
        diag.newton_iterations += n_live
        step = r / np.where(np.abs(jac) >= _JAC_FLOOR, jac, 1.0)  # the Newton step is -step
        cand = y - step
        rc, jc = residual(cand, c)
        ok = live & (np.abs(rc) < np.abs(r))  # a NaN or infinite residual never improves
        np.copyto(y, cand, where=ok)
        np.copyto(r, rc, where=ok)
        np.copyto(jac, jc, where=ok)
        pending = np.nonzero(live ^ ok)[0]
        if pending.size:
            live[_reference_damp(residual, y, r, jac, step, c, pending, diag)] = False
        accepted = _reference_accepted(y, r, abs_c, jac)
        live &= ~accepted
    stragglers = np.flatnonzero(~accepted)
    if stragglers.size:
        y[stragglers], r[stragglers] = _reference_bracketed_solve(
            residual, problem, t, c[stragglers], dt[stragglers], stragglers
        )
        diag.bracketed_elements = stragglers.size
    diag.worst_residual = float(np.abs(r).max())
    if diagnostics is not None:
        diagnostics.merge(diag)
    return y


def _oracle_batches(problem, scale, rng):
    """Each kind of batch as ``(t, c, dt)``, with the dt that puts it to work."""
    t = 0.5 * problem.horizon
    c = rng.normal(0.0, scale, 512)
    batches = {
        "plain": (t, c, 2.0 ** -6),
        "one-huge": (t, np.concatenate([c, [1e8]]), 2.0 ** -6),  # takes the per-element floor
        "bracketed": (t, np.concatenate([c, [1e30, -1e60, 1e100]]), 2.0 ** -6),
        # at t = 0 the window term of the quintic drifts makes full Newton steps
        # fail for c in about [-0.7, -0.3] near the solvability limit
        "damped": (0.0, np.concatenate([c, np.linspace(-0.7, -0.3, 24)]),
                   min(1.0, 0.9 * solvability_limit(problem))),
    }
    if solvability_limit(problem) == np.inf:
        # roots near 0 at a long step of a drift with f(t, 0) != 0: |c| ~ 32 f(t, 0)
        # is what lifts the floor above the absolute tolerance
        f0 = float(problem.drift(t, np.zeros(1))[0])
        batches["floor-set-by-c"] = (t, c - 32.0 * f0, 32.0)
    return batches


@pytest.mark.parametrize("scale", [1.0, 5.0], ids=["N(0,1)", "N(0,25)"])
@pytest.mark.parametrize("per_element", [False, True], ids=["scalar-dt", "three-level-dt"])
@pytest.mark.parametrize("name", builtin_problem_names())
def test_solver_equals_the_masked_reference(name, per_element, scale):
    problem = builtin_problem(name)
    rng = np.random.default_rng(19)
    for kind, (t, c, dt) in _oracle_batches(problem, scale, rng).items():
        if per_element:  # cycle over three step sizes, the batch's own the largest
            dt = np.array([2.0 ** -10, 2.0 ** -8, dt])[np.arange(c.size) % 3]
        ours, reference = StepDiagnostics(), StepDiagnostics()
        with np.errstate(over="ignore", invalid="ignore"):
            y = solve_implicit_steps(problem, t, c, dt, diagnostics=ours)
            y_ref = _reference_solve(problem, t, c, dt, diagnostics=reference)
        assert y.tobytes() == y_ref.tobytes(), kind
        assert ours == reference, kind
