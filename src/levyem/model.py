"""Problem definitions: drift/diffusion callables, declared regularity constants, probes.

A problem bundles the coefficient functions of

    dX(t) = f(t, X(t)) dt + g(t, X(t)) dB(t) + dL(t)

with the constants under which the drift-implicit Euler scheme is analysed:

* polynomial Lipschitz drift:  |f(t,x)-f(t,y)|^2 <= H (1 + |x|^sigma + |y|^sigma) |x-y|^2
* one-sided Lipschitz drift:   <x-y, f(t,x)-f(t,y)>  <= K3 |x-y|^2
* Lipschitz diffusion:         |g(t,x)-g(t,y)|^2 <= K4 |x-y|^2
* Hoelder time regularity:     |f(s,x)-f(t,x)| <= K1 (1+|x|^(sigma+1)) |s-t|^gamma1
                               |g(s,x)-g(t,x)| <= K2 (1+|x|^(sigma+1)) |s-t|^gamma2

The long-time (invariant measure) analysis needs the strict dissipativity gate
K3 < -1/2 and K4 + 2*K3 < -1; finite-horizon strong convergence does not.  The
constants therefore carry the dissipativity pair (K3, K4) as an optional block
that is gate-checked whenever it is supplied, while every problem also carries
a plain finite ``monotone_bound`` (any upper bound for the one-sided ratio,
possibly positive) which is all the implicit step solver needs.

The probe functions draw random (t, x, y) triples and report the worst
empirical ratio against the claimed constant, so a wrong declaration is caught
before any simulation is run.  For linear coefficients the ratios are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConfigurationError
from .noise import AUX_STREAM, NoiseSpec, PathStreams

if TYPE_CHECKING:
    from .problems import CompiledPolynomial

__all__ = [
    "AssumptionConstants",
    "SdeProblem",
    "ProbeReport",
    "probe_one_sided_lipschitz",
    "probe_polynomial_lipschitz",
    "probe_diffusion_lipschitz",
    "probe_time_holder",
    "run_declared_probes",
    "zero_state_bounds",
    "moment_decay_factors",
    "coupling_decay_factor",
    "second_moment_envelope",
    "coupling_envelope",
]

_ZERO_STATE_GRID = 1000  # t-nodes over the horizon


@dataclass(frozen=True)
class AssumptionConstants:
    """Declared regularity constants for one problem.

    K3/K4 form the dissipativity block: either may be omitted (None) for
    problems that are only used in finite-horizon experiments, but supplied
    values must clear the long-time gates (K3 < -1/2; jointly K4 + 2*K3 < -1).
    """

    H: float
    sigma: float
    q: float
    M: float
    K1: float
    K2: float
    gamma1: float
    gamma2: float
    K3: float | None = None
    K4: float | None = None

    def __post_init__(self):
        for name in ("H", "sigma", "q", "M", "K1", "K2"):
            if not getattr(self, name) > 0:
                raise ConfigurationError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("gamma1", "gamma2"):
            g = getattr(self, name)
            if not 0.0 < g < 1.0:
                raise ConfigurationError(f"{name} must lie in (0, 1), got {g}")
        if self.q < 2.0 * self.sigma + 2.0:
            raise ConfigurationError(
                f"moment order q={self.q} too small: need q >= 2*sigma + 2 = {2 * self.sigma + 2}"
            )
        if self.K3 is not None and not self.K3 < -0.5:
            raise ConfigurationError(
                f"dissipativity gate: K3 must be < -1/2, got {self.K3} "
                "(omit K3 for problems without long-time guarantees)"
            )
        if self.K4 is not None and not self.K4 > 0:
            raise ConfigurationError(f"K4 must be > 0, got {self.K4}")
        if self.K3 is not None and self.K4 is not None and not self.K4 + 2.0 * self.K3 < -1.0:
            raise ConfigurationError(
                f"dissipativity gate: K4 + 2*K3 must be < -1, got {self.K4 + 2.0 * self.K3}"
            )

    @property
    def has_dissipativity(self) -> bool:
        return self.K3 is not None and self.K4 is not None


@dataclass
class SdeProblem:
    """One scalar SDE together with its noise description and declared constants.

    The state is scalar and ``x0`` is a plain float.  ``drift``, ``diffusion``
    and ``drift_jacobian`` take ``(t, x)`` and must broadcast over 1-d arrays
    of states and of times, which is what enables whole-ensemble implicit
    stepping.  ``diffusion`` is None when there is no Brownian term;
    ``drift_jacobian`` (the derivative of the drift in x) is optional, and a
    central difference stands in for it when it is None.

    ``drift_polynomial`` is the drift's compiled polynomial in x, set by
    :func:`levyem.problems.problem_from_config` (``drift`` and
    ``drift_jacobian`` are its views there); the implicit solver evaluates it
    directly.  It is None for a problem defined with bare callables.

    ``noise`` drives the jumps with symmetric alpha-stable or tempered stable
    increments, or with none.  :func:`run_declared_probes` checks
    ``constants`` against ``drift`` and ``diffusion`` with all four probes.
    """

    name: str
    drift: Callable
    x0: float
    horizon: float
    noise: NoiseSpec
    constants: AssumptionConstants
    monotone_bound: float
    diffusion: Callable | None = None
    drift_jacobian: Callable | None = None
    drift_polynomial: "CompiledPolynomial | None" = None
    source: dict | None = None  # config the problem was built from, if any

    def __post_init__(self):
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be > 0")
        if not math.isfinite(self.monotone_bound):
            raise ConfigurationError("monotone_bound must be finite")
        if self.diffusion is not None and self.noise.brownian_dim == 0:
            raise ConfigurationError("diffusion given but brownian_dim == 0")
        if self.diffusion is None and self.noise.brownian_dim > 0:
            raise ConfigurationError("brownian_dim > 0 but no diffusion")


# ---------------------------------------------------------------------------
# probes


@dataclass
class ProbeReport:
    probe: str
    problem: str
    claimed: dict
    n_pairs: int
    radius: float
    max_ratio: float
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _probe_draws(problem: SdeProblem, n_pairs: int, radius: float, seed: int):
    rng = PathStreams(seed, [0], AUX_STREAM)[0]
    t = rng.uniform(0.0, problem.horizon, n_pairs)
    x = rng.uniform(-radius, radius, n_pairs)
    y = rng.uniform(-radius, radius, n_pairs)
    # Keep the pair separation away from 0 so difference quotients are stable.
    bad = np.abs(x - y) < 1e-8
    while bad.any():
        y[bad] = rng.uniform(-radius, radius, int(bad.sum()))
        bad = np.abs(x - y) < 1e-8
    return rng, t, x, y


def _eval_pairs(func: Callable, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """func(t_i, x_i) for every pair, as a float array."""
    return np.asarray(func(t, x), dtype=float)


def probe_one_sided_lipschitz(
    problem: SdeProblem, n_pairs: int = 10_000, radius: float = 5.0, seed: int = 0
) -> ProbeReport:
    """Worst ratio <x-y, f(t,x)-f(t,y)> / |x-y|^2 against K3 (or the monotone bound)."""
    claim = problem.constants.K3 if problem.constants.K3 is not None else problem.monotone_bound
    _, t, x, y = _probe_draws(problem, n_pairs, radius, seed)
    df = _eval_pairs(problem.drift, t, x) - _eval_pairs(problem.drift, t, y)
    diff = x - y
    ratio = diff * df / (diff * diff)
    return ProbeReport(
        probe="one_sided",
        problem=problem.name,
        claimed={"bound": claim},
        n_pairs=n_pairs,
        radius=radius,
        max_ratio=float(ratio.max()),
        violations=int((ratio > claim + 1e-9).sum()),
    )


def probe_polynomial_lipschitz(
    problem: SdeProblem, n_pairs: int = 10_000, radius: float = 5.0, seed: int = 0
) -> ProbeReport:
    """Worst ratio |df|^2 / ((1+|x|^sigma+|y|^sigma) |x-y|^2) against H."""
    c = problem.constants
    _, t, x, y = _probe_draws(problem, n_pairs, radius, seed)
    df = _eval_pairs(problem.drift, t, x) - _eval_pairs(problem.drift, t, y)
    num = df * df
    den = (1.0 + np.abs(x) ** c.sigma + np.abs(y) ** c.sigma) * ((x - y) * (x - y))
    ratio = num / den
    return ProbeReport(
        probe="polynomial",
        problem=problem.name,
        claimed={"H": c.H, "sigma": c.sigma},
        n_pairs=n_pairs,
        radius=radius,
        max_ratio=float(ratio.max()),
        violations=int((ratio > c.H + 1e-9).sum()),
    )


def probe_diffusion_lipschitz(
    problem: SdeProblem, n_pairs: int = 10_000, radius: float = 5.0, seed: int = 0
) -> ProbeReport:
    """Worst ratio |dg|^2 / |x-y|^2 against K4; identically 0 without diffusion."""
    c = problem.constants
    claim = c.K4 if c.K4 is not None else 1.0
    if problem.diffusion is None:
        return ProbeReport(
            probe="diffusion",
            problem=problem.name,
            claimed={"K4": claim},
            n_pairs=n_pairs,
            radius=radius,
            max_ratio=0.0,
            violations=0,
        )
    _, t, x, y = _probe_draws(problem, n_pairs, radius, seed)
    dg = _eval_pairs(problem.diffusion, t, x) - _eval_pairs(problem.diffusion, t, y)
    ratio = dg * dg / ((x - y) * (x - y))
    return ProbeReport(
        probe="diffusion",
        problem=problem.name,
        claimed={"K4": claim},
        n_pairs=n_pairs,
        radius=radius,
        max_ratio=float(ratio.max()),
        violations=int((ratio > claim + 1e-9).sum()),
    )


def probe_time_holder(
    problem: SdeProblem, n_pairs: int = 10_000, radius: float = 5.0, seed: int = 0
) -> ProbeReport:
    """Worst Hoelder-in-time ratios of drift (gamma1) and diffusion (gamma2)."""
    c = problem.constants
    rng, t, x, _ = _probe_draws(problem, n_pairs, radius, seed)
    s = rng.uniform(0.0, problem.horizon, n_pairs)
    near = np.abs(t - s) < 1e-12
    while near.any():
        s[near] = rng.uniform(0.0, problem.horizon, int(near.sum()))
        near = np.abs(t - s) < 1e-12
    weight = 1.0 + np.abs(x) ** (c.sigma + 1.0)
    df = _eval_pairs(problem.drift, t, x) - _eval_pairs(problem.drift, s, x)
    ratio_f = np.abs(df) / (weight * np.abs(t - s) ** c.gamma1)
    max_ratio = float(ratio_f.max())
    violations = int((ratio_f > c.K1 + 1e-9).sum())
    if problem.diffusion is not None:
        dg = _eval_pairs(problem.diffusion, t, x) - _eval_pairs(problem.diffusion, s, x)
        ratio_g = np.abs(dg) / (weight * np.abs(t - s) ** c.gamma2)
        max_ratio = max(max_ratio, float(ratio_g.max()))
        violations += int((ratio_g > c.K2 + 1e-9).sum())
    return ProbeReport(
        probe="time_holder",
        problem=problem.name,
        claimed={"K1": c.K1, "K2": c.K2, "gamma1": c.gamma1, "gamma2": c.gamma2},
        n_pairs=n_pairs,
        radius=radius,
        max_ratio=max_ratio,
        violations=violations,
    )


def run_declared_probes(
    problem: SdeProblem, n_pairs: int = 10_000, radius: float = 5.0, seed: int = 0
) -> list[ProbeReport]:
    """All four probes: one-sided, polynomial, diffusion and time-Hoelder, in that order."""
    if n_pairs < 1:
        raise ConfigurationError(f"field 'n_pairs': need at least one pair, got {n_pairs}")
    if not 0.0 < radius < math.inf:
        raise ConfigurationError(f"field 'radius': need a finite radius > 0, got {radius}")
    probes = (
        probe_one_sided_lipschitz,
        probe_polynomial_lipschitz,
        probe_diffusion_lipschitz,
        probe_time_holder,
    )
    return [probe(problem, n_pairs, radius, seed) for probe in probes]


# ---------------------------------------------------------------------------
# derived long-time constants


def zero_state_bounds(problem: SdeProblem) -> tuple[float, float]:
    """(m1, m2) = (sup_t 0.5*|f(t,0)|^2, sup_t |g(t,0)|^2) over a uniform t-grid."""
    ts = np.linspace(0.0, problem.horizon, _ZERO_STATE_GRID)
    zero = np.zeros_like(ts)
    f_sq = np.broadcast_to(_eval_pairs(problem.drift, ts, zero), ts.shape) ** 2
    if problem.diffusion is not None:
        g_sq = np.broadcast_to(_eval_pairs(problem.diffusion, ts, zero), ts.shape) ** 2
    else:
        g_sq = np.zeros_like(ts)
    return 0.5 * float(f_sq.max()), float(g_sq.max())


def _require_dissipativity(problem: SdeProblem) -> AssumptionConstants:
    c = problem.constants
    if not c.has_dissipativity:
        raise ConfigurationError(
            f"problem {problem.name!r} declares no dissipativity block (K3, K4); "
            "long-time moment envelopes are unavailable"
        )
    return c


def moment_decay_factors(problem: SdeProblem, dt: float) -> tuple[float, float]:
    """Per-step second-moment recursion (Q1, Q2):

    E|X_{i+1}|^2 <= Q1 E|X_i|^2 + Q2,
    Q1 = (1 + M2*dt) / (1 - 2*M1*dt) and Q2 = (2*m1 + m2 + 1)*dt / (1 - 2*M1*dt),
    with M1 = 1/2 + K3, M2 = K4.  Requires M2 + 2*M1 < 0, which makes Q1 < 1
    for every dt in (0, 1).
    """
    c = _require_dissipativity(problem)
    if not 0.0 < dt < 1.0:
        raise ConfigurationError(f"dt must lie in (0, 1) for moment envelopes, got {dt}")
    m1_const = 0.5 + c.K3
    m2_const = c.K4
    if not m2_const + 2.0 * m1_const < 0.0:
        raise ConfigurationError(
            f"moment contraction needs K4 + 2*(1/2 + K3) < 0, got {m2_const + 2 * m1_const}"
        )
    q1 = (1.0 + m2_const * dt) / (1.0 - 2.0 * m1_const * dt)
    small1, small2 = zero_state_bounds(problem)
    q2 = (2.0 * small1 + small2 + 1.0) * dt / (1.0 - 2.0 * m1_const * dt)
    if not q1 < 1.0:
        raise ConfigurationError(f"expected contraction factor < 1, got Q1 = {q1}")
    return q1, q2


def coupling_decay_factor(problem: SdeProblem, dt: float) -> float:
    """Per-step contraction Q3 = (1 + K4*dt) / (1 - 2*K3*dt) for coupled pairs."""
    c = _require_dissipativity(problem)
    if dt <= 0:
        raise ConfigurationError(f"dt must be > 0, got {dt}")
    q3 = (1.0 + c.K4 * dt) / (1.0 - 2.0 * c.K3 * dt)
    if not q3 < 1.0:
        raise ConfigurationError(f"expected coupling factor < 1, got Q3 = {q3}")
    return q3


def second_moment_envelope(problem: SdeProblem, dt: float, n_steps: int, x0_sq: float) -> np.ndarray:
    """Envelope e[i] = Q1^i x0_sq + Q2 (1-Q1^i)/(1-Q1) for i = 0..n_steps."""
    q1, q2 = moment_decay_factors(problem, dt)
    i = np.arange(n_steps + 1)
    q1_pow = q1**i
    return q1_pow * x0_sq + q2 * (1.0 - q1_pow) / (1.0 - q1)


def coupling_envelope(problem: SdeProblem, dt: float, n_steps: int, sep_sq: float) -> np.ndarray:
    """Envelope e[i] = Q3^i * sep_sq for i = 0..n_steps."""
    q3 = coupling_decay_factor(problem, dt)
    return q3 ** np.arange(n_steps + 1) * sep_sq
