"""Problem definitions: compiled coefficients, declared regularity constants, probes.

A problem bundles the coefficients of

    dX(t) = f(t, X(t)) dt + g(t, X(t)) dB(t) + dL(t)

with the constants under which the drift-implicit Euler scheme is analysed:

* polynomial Lipschitz drift:  |f(t,x)-f(t,y)|^2 <= H (1 + |x|^sigma + |y|^sigma) |x-y|^2
* one-sided Lipschitz drift:   <x-y, f(t,x)-f(t,y)>  <= K3 |x-y|^2
* Lipschitz diffusion:         |g(t,x)-g(t,y)|^2 <= K4 |x-y|^2
* Hoelder time regularity:     |f(s,x)-f(t,x)| <= K1 (1+|x|^(sigma+1)) |s-t|^gamma1
                               |g(s,x)-g(t,x)| <= K2 (1+|x|^(sigma+1)) |s-t|^gamma2

f and g are polynomials in x with time-dependent coefficients, compiled from
the grammar of :mod:`levyem.problems`, which builds every problem.

The long-time (invariant measure) analysis needs the strict dissipativity gate
K3 < -1/2 and K4 + 2*K3 < -1; finite-horizon strong convergence does not.  The
constants therefore carry the dissipativity pair (K3, K4) as an optional block
that is gate-checked whenever it is supplied.  The one-sided bound the implicit
step solver needs, ``monotone_bound`` = sup of df/dx (possibly positive), is
not declared: each problem derives it from its compiled drift, rejects a drift
whose bound is +inf, and rejects a declared K3 below it.

The probes draw random (t, x, y) triples once and report, per declared
constant, the worst empirical ratio against it, so a wrong declaration is
caught before any simulation is run.  For linear coefficients the ratios are
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConfigurationError
from .noise import AUX_STREAM, NoiseSpec, make_rng

if TYPE_CHECKING:
    from .problems import CompiledPolynomial

__all__ = [
    "AssumptionConstants",
    "SdeProblem",
    "ProbeReport",
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

    Problems are built by :func:`levyem.problems.problem_from_config`.  The
    state is scalar and ``x0`` is a plain float.  ``drift_polynomial`` and
    ``diffusion_polynomial`` are the compiled coefficients; the implicit
    solver evaluates the drift's directly.  ``diffusion_polynomial`` is None
    when there is no Brownian term.

    ``drift``, ``drift_jacobian`` and ``diffusion`` are views of them: plain
    attributes, set here, that take ``(t, x)`` and broadcast over arrays of
    states and of times (``diffusion`` is None without a Brownian term).

    ``noise`` drives the jumps with symmetric alpha-stable or tempered stable
    increments, or with none.  :func:`run_declared_probes` checks
    ``constants`` against ``drift`` and ``diffusion``.  ``monotone_bound`` is
    derived, so ``dataclasses.replace`` derives it again.
    """

    name: str
    drift_polynomial: CompiledPolynomial
    x0: float
    horizon: float
    noise: NoiseSpec
    constants: AssumptionConstants
    diffusion_polynomial: CompiledPolynomial | None
    source: dict  # the config the problem was built from
    monotone_bound: float = field(init=False)  # sup of df/dx, derived from the drift
    drift: Callable = field(init=False, repr=False)
    drift_jacobian: Callable = field(init=False, repr=False)
    diffusion: Callable | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be > 0")
        for name in ("x0", "horizon"):  # the grammar names these too; API-built problems skip it
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        self.monotone_bound = bound = self.drift_polynomial.one_sided_bound(self.horizon)
        if bound == math.inf:
            raise ConfigurationError("drift: df/dx is unbounded above, so no dt has a guaranteed implicit step")
        k3 = self.constants.K3
        if k3 is not None and k3 < bound - 1e-12 * abs(bound):
            raise ConfigurationError(f"K3 = {k3} is below the drift's one-sided bound {bound!r}")
        if self.diffusion_polynomial is not None and self.noise.brownian_dim == 0:
            raise ConfigurationError("diffusion given but brownian_dim == 0")
        if self.diffusion_polynomial is None and self.noise.brownian_dim > 0:
            raise ConfigurationError("brownian_dim > 0 but no diffusion")
        self.drift = self.drift_polynomial.value
        self.drift_jacobian = self.drift_polynomial.derivative
        self.diffusion = None if self.diffusion_polynomial is None else self.diffusion_polynomial.value


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


def run_declared_probes(
    problem: SdeProblem, n_pairs: int = 10_000, radius: float = 5.0, seed: int = 0
) -> list[ProbeReport]:
    """Worst empirical ratios against the declared constants, from one draw.

    One draw of ``n_pairs`` triples (t, x, y), with t uniform on the horizon
    and x, y uniform on [-radius, radius], serves four probes, reported in
    this order:

    * ``one_sided``: <x-y, f(t,x)-f(t,y)> / |x-y|^2 against K3 (or the
      derived ``monotone_bound`` when K3 is not declared);
    * ``polynomial``: |f(t,x)-f(t,y)|^2 / ((1+|x|^sigma+|y|^sigma) |x-y|^2)
      against H;
    * ``diffusion``: |g(t,x)-g(t,y)|^2 / |x-y|^2 against K4 (or 1);
      identically 0 without diffusion;
    * ``time_holder``: the Hoelder-in-time ratios of the drift (against K1,
      exponent gamma1) and the diffusion (K2, gamma2) between t and a second
      time s, drawn after the triples from the same stream.
    """
    if n_pairs < 1:
        raise ConfigurationError(f"field 'n_pairs': need at least one pair, got {n_pairs}")
    if not 0.0 < radius < math.inf:
        raise ConfigurationError(f"field 'radius': need a finite radius > 0, got {radius}")
    c = problem.constants
    rng = make_rng(seed, 0, AUX_STREAM)
    t = rng.uniform(0.0, problem.horizon, n_pairs)
    x = rng.uniform(-radius, radius, n_pairs)
    y = rng.uniform(-radius, radius, n_pairs)
    # Keep the pair separation away from 0 so difference quotients are stable.
    bad = np.abs(x - y) < 1e-8
    while bad.any():
        y[bad] = rng.uniform(-radius, radius, int(bad.sum()))
        bad = np.abs(x - y) < 1e-8
    s = rng.uniform(0.0, problem.horizon, n_pairs)
    near = np.abs(t - s) < 1e-12
    while near.any():
        s[near] = rng.uniform(0.0, problem.horizon, int(near.sum()))
        near = np.abs(t - s) < 1e-12

    def report(probe, claimed, checks):
        """One probe's report over its (ratios, bound) checks."""
        return ProbeReport(
            probe=probe,
            problem=problem.name,
            claimed=claimed,
            n_pairs=n_pairs,
            radius=radius,
            max_ratio=max((float(ratio.max()) for ratio, _ in checks), default=0.0),
            violations=sum(int((ratio > bound + 1e-9).sum()) for ratio, bound in checks),
        )

    diff = x - y
    fx = problem.drift(t, x)
    df = fx - problem.drift(t, y)
    one_sided = problem.monotone_bound if c.K3 is None else c.K3
    k4 = 1.0 if c.K4 is None else c.K4
    weight = 1.0 + np.abs(x) ** (c.sigma + 1.0)
    holder = [(np.abs(fx - problem.drift(s, x)) / (weight * np.abs(t - s) ** c.gamma1), c.K1)]
    lipschitz = []
    if problem.diffusion is not None:
        gx = problem.diffusion(t, x)
        dg = gx - problem.diffusion(t, y)
        lipschitz.append((dg * dg / (diff * diff), k4))
        dg_time = gx - problem.diffusion(s, x)
        holder.append((np.abs(dg_time) / (weight * np.abs(t - s) ** c.gamma2), c.K2))
    growth = (1.0 + np.abs(x) ** c.sigma + np.abs(y) ** c.sigma) * (diff * diff)
    return [
        report("one_sided", {"bound": one_sided}, [(diff * df / (diff * diff), one_sided)]),
        report("polynomial", {"H": c.H, "sigma": c.sigma}, [(df * df / growth, c.H)]),
        report("diffusion", {"K4": k4}, lipschitz),
        report(
            "time_holder",
            {"K1": c.K1, "K2": c.K2, "gamma1": c.gamma1, "gamma2": c.gamma2},
            holder,
        ),
    ]


# ---------------------------------------------------------------------------
# derived long-time constants


def zero_state_bounds(problem: SdeProblem) -> tuple[float, float]:
    """(m1, m2) = (sup_t 0.5*|f(t,0)|^2, sup_t |g(t,0)|^2) over a uniform t-grid."""
    ts = np.linspace(0.0, problem.horizon, _ZERO_STATE_GRID)
    zero = np.zeros_like(ts)
    f_sq = problem.drift(ts, zero) ** 2
    g_sq = zero if problem.diffusion is None else problem.diffusion(ts, zero) ** 2
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
