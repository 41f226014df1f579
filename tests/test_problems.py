"""Expression-grammar parsing and the built-in problem table."""

import copy
import itertools

import numpy as np
import pytest

from levyem.errors import ConfigurationError
from levyem.problems import (
    BUILTIN_PROBLEMS,
    builtin_problem,
    builtin_problem_names,
    horner,
    problem_from_config,
    signed_power,
)


def test_signed_power_is_odd():
    u = np.array([-8.0, -1.0, 0.0, 1.0, 8.0])
    out = signed_power(u, 1.0 / 3.0)
    np.testing.assert_allclose(out, np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), atol=1e-12)
    np.testing.assert_allclose(signed_power(-u, 0.5), -signed_power(u, 0.5))


def test_builtin_catalog():
    names = builtin_problem_names()
    assert names == [
        "paper-5.1a",
        "paper-5.1b",
        "paper-5.1c",
        "paper-5.2",
        "paper-5.3",
        "paper-5.4",
    ]
    for name in names:
        problem = builtin_problem(name)
        assert problem.name == name
        assert problem.source is not None


def test_quintic_drift_formula():
    # drift = w(t) * x**2 - 2 * x**5 with w(t) = sign(u)|u|^0.2, u = (t-1)(2-t)
    problem = builtin_problem("paper-5.1a")
    t, x = 0.3, 1.7
    u = (t - 1.0) * (2.0 - t)
    expect = np.sign(u) * abs(u) ** 0.2 * x ** 2 - 2.0 * x ** 5
    assert problem.drift(t, np.array([x]))[0] == pytest.approx(expect, rel=1e-12)
    # the window is negative left of t=1, so the x^2 term flips sign there
    assert problem.drift(0.3, np.array([1.0]))[0] < problem.drift(1.5, np.array([1.0]))[0]


def test_54_drift_formula():
    problem = builtin_problem("paper-5.4")
    x = np.array([-2.0, 0.0, 1.5])
    np.testing.assert_allclose(problem.drift(0.0, x), -x ** 3 - 5.0 * x + 5.0, rtol=1e-12)
    np.testing.assert_allclose(problem.diffusion(0.0, x), -x + 3.0, rtol=1e-12)


def test_jacobian_matches_finite_differences():
    problem = builtin_problem("paper-5.1c")
    t = 1.4
    x = np.linspace(-2.0, 2.0, 9)
    h = 1e-6
    fd = (problem.drift(t, x + h) - problem.drift(t, x - h)) / (2.0 * h)
    np.testing.assert_allclose(problem.drift_jacobian(t, x), fd, rtol=1e-6, atol=1e-6)


def _term_sum(terms, t, x, derivative=False):
    """sum of coeff * sign(u)|u|^p * x^k (or its x-derivative), one term at a time."""
    total = np.zeros(np.broadcast_shapes(np.shape(t), np.shape(x)))
    for term in terms:
        coeff, k = term["coeff"], term.get("x_power", 0)
        w = 1.0
        if "time_factor" in term:
            tf = term["time_factor"]
            u = (t - tf["a"]) * (tf["b"] - t)
            w = np.sign(u) * np.abs(u) ** tf["power"]
        if not derivative:
            total = total + coeff * w * x ** k
        elif k > 0:
            total = total + coeff * w * k * x ** (k - 1)
    return total


@pytest.mark.parametrize("name", builtin_problem_names())
def test_compiled_polynomial_matches_term_sum(name):
    config = BUILTIN_PROBLEMS[name]
    problem = builtin_problem(name)
    x = np.concatenate([-np.logspace(-3.0, 3.0, 31), [0.0], np.logspace(-3.0, 3.0, 31)])
    # every window is [1, 2]: before it, at its ends, inside it and after it
    times = [0.0, 0.37, 1.0, 1.2, 1.5, 1.93, 2.0, 2.6]
    tt, xx = (a.ravel() for a in np.meshgrid(times, x))
    cases = [(t, x) for t in times] + [(tt, xx)]  # scalar t with a batch of x; array t
    views = [
        (problem.drift, config["drift"], False),
        (problem.drift_jacobian, config["drift"], True),
    ]
    if problem.diffusion is not None:
        views.append((problem.diffusion, config["diffusion"], False))
    for view, terms, derivative in views:
        for t, x_ in cases:
            np.testing.assert_allclose(
                view(t, x_), _term_sum(terms, t, x_, derivative), rtol=1e-13, atol=0.0,
                err_msg=f"{name} at t={t}",
            )


@pytest.mark.parametrize("degree", range(6))
@pytest.mark.parametrize("per_element", [False, True], ids=["scalar-rows", "per-element-rows"])
def test_horner_into_arrays_equals_the_allocating_form(degree, per_element):
    # every present pattern the grammar can produce: the leading power always
    # has a term, except in a polynomial without any (degree 0, all absent)
    rng = np.random.default_rng(degree)
    x = rng.normal(0.0, 2.0, 64)
    coeffs = rng.normal(0.0, 3.0, (degree + 1, 64) if per_element else degree + 1)
    patterns = [rest + (True,) for rest in itertools.product([False, True], repeat=degree)]
    for present in patterns + ([(False,)] if degree == 0 else []):
        p, dp = horner(coeffs, present, x)
        out = (np.full(x.shape, np.nan), np.full(x.shape, np.nan))
        got = horner(coeffs, present, x, out)
        assert got[0] is out[0] and got[1] is out[1]
        assert np.broadcast_to(p, x.shape).tobytes() == out[0].tobytes(), present
        assert np.broadcast_to(dp, x.shape).tobytes() == out[1].tobytes(), present


def _plain_horner(coeffs, present, x):
    """Horner's rule one power at a time, each operation spelled out."""
    n = len(coeffs) - 1
    p, dp = coeffs[n], 0.0
    for k in range(n - 1, -1, -1):
        dp = p if k == n - 1 else dp * x + p
        p = p * x + coeffs[k] if present[k] else p * x
    return p, dp


@pytest.mark.parametrize("degree", range(1, 7))
def test_horner_equals_the_plain_rule(degree):
    # without a term of degree n - 1, the first dp is taken as p + p, which
    # must be the plain rule's coeffs[n] * x + p to the bit, zeros' signs too
    rng = np.random.default_rng(40 + degree)
    x = np.concatenate([rng.normal(0.0, 2.0, 60), [0.0, -0.0, 1e200, -1e-200]])
    coeffs = rng.normal(0.0, 3.0, (degree + 1, x.size))
    coeffs[:, -3:] = 0.0
    for rest in itertools.product([False, True], repeat=degree):
        present = rest + (True,)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = horner(coeffs, present, x), _plain_horner(coeffs, present, x)
        for a, b in zip(got, want):
            a, b = np.broadcast_to(a, x.shape), np.broadcast_to(b, x.shape)
            assert a.tobytes() == b.tobytes(), present


def _window_edges(config):
    """Every window's a and b, in both coefficients of a problem's config."""
    terms = config["drift"] + (config.get("diffusion") or [])
    return sorted({e for term in terms if "time_factor" in term
                   for e in (term["time_factor"]["a"], term["time_factor"]["b"])})


@pytest.mark.parametrize("name", builtin_problem_names())
def test_float_time_coefficients_equal_the_array_form(name):
    # a float t is computed in Python floats; it must give the bytes of a
    # 0-d array t (and of an np.float64 t) inside and outside every window,
    # where the window polynomial is negative, at its ends, at 0 and at T
    problem = builtin_problem(name)
    config = BUILTIN_PROBLEMS[name]
    horizon = problem.horizon
    edges = _window_edges(config)
    grid = np.concatenate([
        np.linspace(-1.0, horizon + 1.0, 397), [0.0, horizon], edges,
        np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        np.random.default_rng(9).uniform(0.0, horizon, 200),
    ])
    polys = [problem.drift_polynomial, problem.diffusion_polynomial]
    for poly in [p for p in polys if p is not None]:
        for t in grid.tolist():
            want = poly.coefficients(np.asarray(t)).tobytes()
            assert poly.coefficients(t).tobytes() == want, t
            assert poly.coefficients(np.float64(t)).tobytes() == want, t


def test_config_round_trip():
    for name in builtin_problem_names():
        problem = builtin_problem(name)
        rebuilt = problem_from_config(problem.source)
        t, x = 1.25, np.array([0.7, -1.1])
        np.testing.assert_array_equal(problem.drift(t, x), rebuilt.drift(t, x))
        if problem.diffusion is not None:
            np.testing.assert_array_equal(problem.diffusion(t, x), rebuilt.diffusion(t, x))


def test_rejects_malformed_configs():
    base = dict(builtin_problem("paper-5.3").source)

    missing = {k: v for k, v in base.items() if k != "drift"}
    with pytest.raises(ConfigurationError, match="drift"):
        problem_from_config(missing)

    bad_power = dict(base)
    bad_power["drift"] = [{"coeff": 1.0, "x_power": -1}]
    with pytest.raises(ConfigurationError):
        problem_from_config(bad_power)

    bad_window = dict(base)
    bad_window["drift"] = [
        {"coeff": 1.0, "x_power": 1, "time_factor": {"a": 0.0, "b": 1.0, "power": 1.5}}
    ]
    with pytest.raises(ConfigurationError):
        problem_from_config(bad_window)

    bad_dim = dict(base)
    bad_dim["dim"] = 2
    with pytest.raises(ConfigurationError):
        problem_from_config(bad_dim)

    bad_terms = dict(base)
    bad_terms["drift"] = "not-a-list"
    with pytest.raises(ConfigurationError):
        problem_from_config(bad_terms)

    # misspelt or removed keys, and values that are not numbers, are named by their path
    cases = [
        ("diffusoin", [{"coeff": 1.0}], "diffusoin"),
        ("declared_probes", ["one_sided"], "declared_probes"),
        ("x0", "1.0", "x0"),
        ("horizon", True, "horizon"),
        ("monotone_bound", None, "monotone_bound"),
        ("dim", True, "dim"),
        ("name", 5, "name"),
        ("noise.alpha", True, r"noise\.alpha"),
        ("noise.scale", "2", r"noise\.scale"),
        ("noise.brownian_dim", 0.5, r"noise\.brownian_dim"),
        ("noise.brownian_dim", False, r"noise\.brownian_dim"),
        ("noise.kind", "compound_poisson", "kind.*compound_poisson"),
        ("noise.rate", 2.0, "rate"),
        ("noise.jump_law", {"kind": "point"}, "jump_law"),
        ("noise.lambda", 1.0, r"noise: unknown keys \['lambda'\]"),
        ("constants.H", True, r"constants\.H"),
        ("constants.K3", "-2", r"constants\.K3"),
        ("constants.K5", 1.0, "K5"),
        ("constants.q", 1.0, r"constants: moment order q"),
    ]
    for path, value, match in cases:
        cfg = copy.deepcopy(base)
        *parents, key = path.split(".")
        block = cfg
        for parent in parents:
            block = block[parent]
        block[key] = value
        with pytest.raises(ConfigurationError, match=match):
            problem_from_config(cfg)


def _with_drift(drift):
    cfg = dict(builtin_problem("paper-5.3").source)
    cfg["drift"] = drift
    return cfg


def test_fractional_x_power_rejected():
    # int() would truncate 3.7 to 3
    with pytest.raises(ConfigurationError, match=r"drift\[0\]\.x_power"):
        problem_from_config(_with_drift([{"coeff": -1.0, "x_power": 3.7}]))
    # an integral float is an integer power
    problem = problem_from_config(_with_drift([{"coeff": -1.0, "x_power": 3.0}]))
    assert problem.drift(0.0, np.array([2.0]))[0] == -8.0


def test_misspelled_term_key_rejected():
    # an ignored "xpower" would turn -x**3 into the constant -1
    drift = [{"coeff": -2.0, "x_power": 1}, {"coeff": -1.0, "xpower": 3}]
    with pytest.raises(ConfigurationError, match=r"drift\[1\].*xpower"):
        problem_from_config(_with_drift(drift))


def test_misspelled_time_factor_key_rejected():
    # a dropped "time_factr" would leave the term without its window
    drift = [{"coeff": -2.0, "x_power": 1, "time_factr": {"a": 1.0, "b": 2.0, "power": 0.5}}]
    with pytest.raises(ConfigurationError, match=r"drift\[0\].*time_factr"):
        problem_from_config(_with_drift(drift))
    window = {"a": 1.0, "b": 2.0, "pwr": 0.5}
    with pytest.raises(ConfigurationError, match=r"drift\[0\]\.time_factor.*pwr"):
        problem_from_config(_with_drift([{"coeff": -2.0, "x_power": 1, "time_factor": window}]))


def test_unknown_builtin_name():
    with pytest.raises(ConfigurationError, match="paper-9.9"):
        builtin_problem("paper-9.9")
