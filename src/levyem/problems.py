"""Restricted coefficient grammar and the built-in example problems.

Custom one-dimensional problems are described by JSON-friendly dictionaries.
Each coefficient (drift, diffusion) is a sum of terms

    coeff * w(t) * x**x_power,     w(t) = signed_power((t - a) * (b - t), p),

where ``signed_power(u, p) = sign(u) * |u|**p`` is the real odd-root style
extension (the window polynomial is negative on parts of the time domain, and
fractional powers of it must stay real for every exponent in (0, 1]).  A term
without a ``time_factor`` has ``w(t) = 1``.  This covers polynomial drifts with
Hoelder-in-time prefactors, which is exactly the shape of every built-in model.

:func:`compile_terms` turns a term list into a :class:`CompiledPolynomial`,
``sum_k a_k(t) x**k``: ``coefficients(t)`` evaluates each distinct window
factor once and sums the terms of each power of x, and ``value`` and
``derivative`` evaluate the polynomial by Horner's rule.
:func:`problem_from_config` is the one constructor of an
:class:`~levyem.model.SdeProblem`: it hands the problem its compiled drift and
diffusion.  The problem's ``drift``, ``drift_jacobian`` and ``diffusion`` are
their ``value`` and ``derivative`` views, and the implicit solver evaluates
the drift's polynomial directly.

Built-in problems (keys of :data:`BUILTIN_PROBLEMS`):

=============  ==============================================================
paper-5.1a     quintic drift with rough time prefactor (exponent 1/5),
               multiplicative Brownian noise (exponent 2/5), tempered stable
               jumps with activity index 1.3
paper-5.1b     same model, jump activity index 1.5
paper-5.1c     smoother time prefactors (4/5 and 3/5), jump index 1.3
paper-5.2      quintic drift (time exponent 9/10), no Brownian term, jump
               index 1.3
paper-5.3      Ornstein-Uhlenbeck with additive symmetric 1.5-stable noise
paper-5.4      cubic dissipative drift, affine Brownian noise, additive
               tempered stable jumps; used for long-time experiments
=============  ==============================================================
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigurationError
from .model import AssumptionConstants, SdeProblem
from .noise import NoiseSpec

__all__ = [
    "signed_power",
    "CompiledPolynomial",
    "compile_terms",
    "horner",
    "problem_from_config",
    "builtin_problem",
    "builtin_problem_names",
    "BUILTIN_PROBLEMS",
]


def signed_power(u, p: float):
    """sign(u) * |u|**p, the real-valued odd-root extension of u**p."""
    return np.sign(u) * np.abs(u) ** p


_PROBLEM_KEYS = {
    "name", "dim", "drift", "diffusion", "x0", "horizon", "noise", "constants", "monotone_bound"
}
_TERM_KEYS = {"coeff", "x_power", "time_factor"}
_TIME_FACTOR_KEYS = {"a", "b", "power"}
_NOISE_KEYS = {"kind", "alpha", "tempering", "scale", "brownian_dim", "gamma0", "gamma_inf"}
_CONSTANT_KEYS = {"H", "sigma", "q", "M", "K1", "K2", "gamma1", "gamma2", "K3", "K4"}


def _check_keys(spec, allowed: set, required: set, path: str) -> None:
    if not isinstance(spec, dict):
        raise ConfigurationError(f"{path} must be a mapping, got {spec!r}")
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ConfigurationError(f"{path}: unknown keys {unknown}; allowed: {sorted(allowed)}")
    missing = sorted(required - set(spec))
    if missing:
        raise ConfigurationError(f"{path}: missing keys {missing}")


def _real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{path} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigurationError(f"{path} is too large for a float, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigurationError(f"{path} must be finite, got {number}")
    return number


def _integer(value, path: str) -> int:
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)  # exact: a float would round integers above 2**53
    number = _real(value, path)
    if not number.is_integer():
        raise ConfigurationError(f"{path} must be an integer, got {number:g}")
    return int(number)


def _parse_time_factor(spec, path: str) -> tuple[float, float, float]:
    _check_keys(spec, _TIME_FACTOR_KEYS, _TIME_FACTOR_KEYS, path)
    a, b, p = (_real(spec[key], f"{path}.{key}") for key in ("a", "b", "power"))
    if not 0.0 < p <= 1.0:
        raise ConfigurationError(f"{path}.power must lie in (0, 1], got {p}")
    return a, b, p


def _parse_terms(terms, label: str) -> list[tuple[float, int, tuple | None]]:
    if not isinstance(terms, (list, tuple)):
        raise ConfigurationError(f"{label} must be a list of terms, got {type(terms).__name__}")
    parsed = []
    for k, term in enumerate(terms):
        path = f"{label}[{k}]"
        _check_keys(term, _TERM_KEYS, {"coeff"}, path)
        coeff = _real(term["coeff"], f"{path}.coeff")
        x_power = _integer(term.get("x_power", 0), f"{path}.x_power")
        if x_power < 0:
            raise ConfigurationError(f"{path}.x_power must be a non-negative integer, got {x_power}")
        tf = term.get("time_factor")
        if tf is not None:
            tf = _parse_time_factor(tf, f"{path}.time_factor")
        parsed.append((coeff, x_power, tf))
    return parsed


class CompiledPolynomial:
    """A term list compiled to ``sum_k a_k(t) * x**k``.

    ``coefficients(t)`` gives the coefficient vector ``a_0(t) .. a_n(t)``;
    each distinct window factor is evaluated once per call, whatever the
    number of terms that share it.  ``t`` may be a scalar or an array, the
    result has shape ``(n + 1,) + shape(t)``.  A float ``t`` is computed in
    Python floats, which skips numpy's cost per call on 0-d arrays and gives
    the same bytes; an array keeps numpy's array power, which may differ
    from the scalar one by an ulp.  ``timed`` lists the powers whose
    coefficient varies in t.  ``value`` and ``derivative`` (the problem's
    coefficient callables) evaluate the polynomial in x by Horner's rule and
    broadcast over ``t`` and ``x``.
    """

    def __init__(self, parsed):
        self.degree = max((x_power for _, x_power, _ in parsed), default=0)
        self.constant = np.zeros(self.degree + 1)  # summed coefficients without a time factor
        self.windows: dict[tuple, list[tuple[int, float]]] = {}
        present = [False] * (self.degree + 1)
        for coeff, x_power, tf in parsed:
            present[x_power] = True
            if tf is None:
                self.constant[x_power] += coeff
            else:
                self.windows.setdefault(tf, []).append((x_power, coeff))
        self.present = tuple(present)  # powers without a term have a_k(t) = 0
        # a_k(t) is constant[k] for the powers not listed here
        self.timed = tuple(sorted({k for terms in self.windows.values() for k, _ in terms}))

    def coefficients(self, t):
        if isinstance(t, float):  # np.float64 too
            return self._coefficients_at(float(t))
        t = np.asarray(t, dtype=float)
        out = np.empty((self.degree + 1,) + t.shape)
        out[...] = self.constant.reshape((-1,) + (1,) * t.ndim)
        for (a, b, p), terms in self.windows.items():
            w = signed_power((t - a) * (b - t), p)
            for x_power, coeff in terms:
                out[x_power] += coeff * w
        return out

    def _coefficients_at(self, t: float) -> np.ndarray:
        """``coefficients(t)`` for one float ``t``, computed in Python floats.

        Each operation is the one the array form does on a 0-d array, in the
        same order and with the same rounding (the power is libm's ``pow``,
        as numpy's scalar power is), so the bytes are those of
        ``coefficients(np.asarray(t))``.
        """
        out = self.constant.tolist()
        for (a, b, p), terms in self.windows.items():
            u = (t - a) * (b - t)
            w = float((u > 0.0) - (u < 0.0)) * abs(u) ** p  # signed_power(u, p)
            for x_power, coeff in terms:
                out[x_power] += coeff * w
        return np.array(out)

    def value(self, t, x):
        x = np.asarray(x, dtype=float)
        v = horner(self.coefficients(t), self.present, x)[0]
        return v if self.degree >= 1 else _broadcast(v, t, x)

    def derivative(self, t, x):
        x = np.asarray(x, dtype=float)
        dv = horner(self.coefficients(t), self.present, x)[1]
        return dv if self.degree >= 2 else _broadcast(dv, t, x)


def _broadcast(v, t, x):
    """``v`` (free of x) at the shape of ``t`` and ``x`` together."""
    return v + np.zeros(np.broadcast_shapes(np.shape(t), x.shape))


def horner(coeffs, present, x, out=None):
    """p(x) and p'(x) for p = sum_k coeffs[k] * x**k, in one Horner pass.

    ``present[k]`` False marks a coefficient known to be zero, whose addition
    is skipped.  The coefficients broadcast against ``x``.  ``out`` is None,
    or a pair of arrays of the broadcast shape that receive p and p' and are
    returned: each pass then updates them in place, with the same roundings
    as the allocating form.
    """
    n = len(coeffs) - 1
    if n == 0:
        if out is None:
            return coeffs[0], 0.0
        out[0][...], out[1][...] = coeffs[0], 0.0
        return out
    p_out, dp_out = (None, None) if out is None else out
    p = np.multiply(coeffs[n], x, out=p_out)
    top = n - 2  # the power of the loop's first step
    if n >= 2 and not present[n - 1]:
        # p is coeffs[n] * x, so the first step's dp, coeffs[n] * x + p, is p + p
        dp = np.add(p, p, out=dp_out)
        p *= x
        if present[top]:
            p += coeffs[top]
        top -= 1
    else:
        if present[n - 1]:
            p += coeffs[n - 1]
        if dp_out is None:
            dp = coeffs[n]
        else:
            dp = dp_out
            dp[...] = coeffs[n]
    for k in range(top, -1, -1):
        dp = np.multiply(dp, x, out=dp_out)
        dp += p
        p *= x
        if present[k]:
            p += coeffs[k]
    return p, dp


def compile_terms(terms, label: str = "drift") -> CompiledPolynomial:
    """Compile a term list (checked against the grammar) to its polynomial in x."""
    return CompiledPolynomial(_parse_terms(terms, label))


def _parse_noise(spec) -> NoiseSpec:
    _check_keys(spec, _NOISE_KEYS, set(), "noise")
    spec = dict(spec)
    for key in sorted(spec.keys() - {"kind"}):
        parse = _integer if key == "brownian_dim" else _real
        spec[key] = parse(spec[key], f"noise.{key}")
    try:
        return NoiseSpec(**spec)
    except ConfigurationError as exc:
        raise ConfigurationError(f"noise: {exc}") from None


def _parse_constants(spec) -> AssumptionConstants:
    _check_keys(spec, _CONSTANT_KEYS, _CONSTANT_KEYS - {"K3", "K4"}, "constants")
    values = {key: _real(value, f"constants.{key}") for key, value in spec.items()}
    try:
        return AssumptionConstants(**values)
    except ConfigurationError as exc:
        raise ConfigurationError(f"constants: {exc}") from None


def problem_from_config(config: dict) -> SdeProblem:
    """Build an SdeProblem from its grammar dictionary (see module docstring)."""
    required = _PROBLEM_KEYS - {"name", "dim", "diffusion"}
    _check_keys(config, _PROBLEM_KEYS, required, "problem")
    if _integer(config.get("dim", 1), "dim") != 1:
        raise ConfigurationError(f"dim: the grammar covers scalar problems only (dim 1), got {config['dim']!r}")
    name = config.get("name", "custom")
    if not isinstance(name, str):
        raise ConfigurationError(f"name must be a string, got {name!r}")
    diffusion_terms = config.get("diffusion") or []
    return SdeProblem(
        name=name,
        drift_polynomial=compile_terms(config["drift"], "drift"),
        diffusion_polynomial=compile_terms(diffusion_terms, "diffusion") if diffusion_terms else None,
        x0=_real(config["x0"], "x0"),
        horizon=_real(config["horizon"], "horizon"),
        noise=_parse_noise(config["noise"]),
        constants=_parse_constants(config["constants"]),
        monotone_bound=_real(config["monotone_bound"], "monotone_bound"),
        source=config,
    )


def _window(power: float) -> dict:
    return {"a": 1.0, "b": 2.0, "power": power}


def _quintic_problem(name, drift_power, diff_power, jump_alpha, k1, k2, k4, bound) -> dict:
    config = {
        "name": name,
        "dim": 1,
        "drift": [
            {"coeff": 1.0, "x_power": 2, "time_factor": _window(drift_power)},
            {"coeff": -2.0, "x_power": 5},
        ],
        "x0": 1.0,
        "horizon": 1.0,
        "monotone_bound": bound,
        "constants": {
            "H": 150.0,
            "sigma": 8.0,
            "q": 18.0,
            "M": 600.0,
            "K1": k1,
            "K2": k2,
            "gamma1": drift_power,
            "gamma2": diff_power if diff_power else 0.5,
        },
        "noise": {
            "kind": "tempered_stable",
            "alpha": jump_alpha,
            "tempering": 1.0,
            "scale": 1.0,
            "brownian_dim": 1 if diff_power else 0,
            "gamma0": jump_alpha,
            "gamma_inf": 4.0,
        },
    }
    if diff_power:
        config["diffusion"] = [{"coeff": 2.0, "x_power": 1, "time_factor": _window(diff_power)}]
        config["constants"]["K4"] = k4
    return config


BUILTIN_PROBLEMS: dict[str, dict] = {
    "paper-5.1a": _quintic_problem("paper-5.1a", 0.2, 0.4, 1.3, k1=2.5, k2=5.0, k4=7.0, bound=0.7),
    "paper-5.1b": _quintic_problem("paper-5.1b", 0.2, 0.4, 1.5, k1=2.5, k2=5.0, k4=7.0, bound=0.7),
    "paper-5.1c": _quintic_problem("paper-5.1c", 0.8, 0.6, 1.3, k1=3.0, k2=5.5, k4=9.5, bound=1.2),
    "paper-5.2": _quintic_problem("paper-5.2", 0.9, None, 1.3, k1=3.0, k2=1.0, k4=None, bound=1.3),
    "paper-5.3": {
        "name": "paper-5.3",
        "dim": 1,
        "drift": [{"coeff": -2.0, "x_power": 1}],
        "x0": 10.0,
        "horizon": 5.0,
        "monotone_bound": -2.0,
        "constants": {
            "H": 4.0,
            "sigma": 1.0,
            "q": 4.0,
            "M": 1.0,
            "K1": 1.0,
            "K2": 1.0,
            "gamma1": 0.5,
            "gamma2": 0.5,
            "K3": -2.0,
            "K4": 0.5,
        },
        "noise": {
            "kind": "alpha_stable",
            "alpha": 1.5,
            "scale": 2.0,
            "brownian_dim": 0,
            "gamma0": 1.6,
            "gamma_inf": 2.0,
        },
    },
    "paper-5.4": {
        "name": "paper-5.4",
        "dim": 1,
        "drift": [
            {"coeff": -1.0, "x_power": 3},
            {"coeff": -5.0, "x_power": 1},
            {"coeff": 5.0, "x_power": 0},
        ],
        "diffusion": [
            {"coeff": -1.0, "x_power": 1},
            {"coeff": 3.0, "x_power": 0},
        ],
        "x0": 10.0,
        "horizon": 10.0,
        "monotone_bound": -5.0,
        "constants": {
            "H": 50.0,
            "sigma": 4.0,
            "q": 10.0,
            "M": 60.0,
            "K1": 1.0,
            "K2": 1.0,
            "gamma1": 0.5,
            "gamma2": 0.5,
            "K3": -5.0,
            "K4": 1.0,
        },
        "noise": {
            "kind": "tempered_stable",
            "alpha": 1.3,
            "tempering": 1.0,
            "scale": 2.0,
            "brownian_dim": 1,
            "gamma0": 1.3,
            "gamma_inf": 4.0,
        },
    },
}


def builtin_problem_names() -> list[str]:
    return sorted(BUILTIN_PROBLEMS)


def builtin_problem(name: str) -> SdeProblem:
    try:
        config = BUILTIN_PROBLEMS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown built-in problem {name!r}; available: {builtin_problem_names()}"
        ) from None
    return problem_from_config(config)
