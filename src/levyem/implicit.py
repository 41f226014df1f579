"""Drift-implicit step solver.

Each step of the scheme requires the root of

    r(Y) = Y - c - dt * f(t, Y) = 0,

where ``c`` collects the explicit part of the update (previous state plus
noise increments).  When ``dt * L < 1`` for the one-sided Lipschitz bound
``L`` of the drift, ``Y -> Y - dt * f(t, Y)`` is strictly monotone, so the
root exists, is unique, and satisfies the a-priori bound

    |Y| <= (|c| + dt * |f(t, 0)|) / (1 - dt * max(L, 0)).

The solver runs damped Newton from ``Y = c`` (halving the step while the
residual fails to decrease) and, for the rare scalar elements where Newton
stalls, falls back to a bracketed root solve on the guaranteed enclosing
interval (Brent's method, followed by a Newton polish so residuals reach
solver tolerance rather than just interval tolerance).  The state is
scalar: the batch entry point vectorises Newton across paths and only drops
to per-element bracketing for stragglers, and ``solve_implicit_step`` is its
one-state wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigurationError, StepFailureError
from .model import SdeProblem

__all__ = [
    "ImplicitStepConfig",
    "StepDiagnostics",
    "implicit_residual",
    "solvability_limit",
    "bracket_halfwidth",
    "solve_implicit_step",
    "solve_implicit_steps",
]

_JAC_FLOOR = 1e-8
_FD_STEP = 1e-7
_RES_SAFETY = 32.0


def _residual_floor(y, c, jac):
    """Smallest residual magnitude resolvable in double precision at y.

    One ulp of movement in the iterate changes the residual by about
    eps * |y| * |r'(y)|, and evaluating the residual itself loses
    eps * (|y| + |c|) to cancellation, so demanding less than this is
    asking for noise.  The step is accepted at max(abs_tol, floor).
    """
    return _RES_SAFETY * np.finfo(float).eps * (
        1.0 + np.abs(y) + np.abs(c) + np.abs(jac) * np.abs(y)
    )


@dataclass(frozen=True)
class ImplicitStepConfig:
    """Tolerances and iteration budgets for the per-step root solve."""

    abs_tol: float = 1e-12
    max_newton_iters: int = 50
    max_dampings: int = 30
    max_bisection_iters: int = 200

    def __post_init__(self):
        if self.abs_tol <= 0:
            raise ConfigurationError(f"abs_tol must be positive, got {self.abs_tol}")
        for field_name in ("max_newton_iters", "max_dampings", "max_bisection_iters"):
            if getattr(self, field_name) < 1:
                raise ConfigurationError(f"{field_name} must be >= 1")


@dataclass
class StepDiagnostics:
    """Aggregated solver effort counters (merged across steps and chunks)."""

    solves: int = 0
    newton_iterations: int = 0
    damping_halvings: int = 0
    bracketed_elements: int = 0
    worst_residual: float = 0.0

    def merge(self, other: "StepDiagnostics") -> "StepDiagnostics":
        self.solves += other.solves
        self.newton_iterations += other.newton_iterations
        self.damping_halvings += other.damping_halvings
        self.bracketed_elements += other.bracketed_elements
        self.worst_residual = max(self.worst_residual, other.worst_residual)
        return self


def _drift_at(problem: SdeProblem, t: float, y: np.ndarray) -> np.ndarray:
    return np.asarray(problem.drift(t, y), dtype=float)


def implicit_residual(problem: SdeProblem, t: float, y, c, dt: float):
    """Residual r(y) = y - c - dt*f(t, y) and its derivative in y."""
    y = np.asarray(y, dtype=float)
    r = y - c - dt * _drift_at(problem, t, y)
    if problem.drift_jacobian is not None:
        jac = 1.0 - dt * np.asarray(problem.drift_jacobian(t, y), dtype=float)
    else:
        h = _FD_STEP * np.maximum(1.0, np.abs(y))
        df = (_drift_at(problem, t, y + h) - _drift_at(problem, t, y - h)) / (2.0 * h)
        jac = 1.0 - dt * df
    return r, jac


def solvability_limit(problem: SdeProblem) -> float:
    """Largest dt with a guaranteed unique implicit step (inf for dissipative drift)."""
    bound = max(problem.monotone_bound, 0.0)
    return np.inf if bound == 0.0 else 1.0 / bound


def _check_dt(problem: SdeProblem, dt: float) -> None:
    if not 0.0 <= dt:
        raise ConfigurationError(f"dt must be >= 0, got {dt}")
    if dt * max(problem.monotone_bound, 0.0) >= 1.0:
        raise ConfigurationError(
            f"dt={dt} violates the solvability condition dt * {problem.monotone_bound} < 1; "
            f"use dt < {solvability_limit(problem):g}"
        )


def bracket_halfwidth(problem: SdeProblem, t: float, c, dt: float):
    """Half-width A with the unique root guaranteed inside [c - A, c + A]."""
    f0 = np.abs(_drift_at(problem, t, np.zeros(1))[0])
    denom = 1.0 - dt * max(problem.monotone_bound, 0.0)
    return 2.0 * (np.abs(c) + dt * f0 + 1.0) / denom


def _bracketed_solve(problem, t, c, dt, config, diag):
    """Per-element Brent solve on the guaranteed bracket, plus Newton polish."""

    def scalar_residual(y):
        return float(y - c - dt * _drift_at(problem, t, np.array([y]))[0])

    half = float(bracket_halfwidth(problem, t, c, dt))
    lo, hi = c - half, c + half
    r_lo, r_hi = scalar_residual(lo), scalar_residual(hi)
    expansions = 0
    while r_lo > 0.0 or r_hi < 0.0:  # numerically impossible in exact arithmetic
        expansions += 1
        if expansions > 60:
            raise StepFailureError(
                "could not bracket the implicit step root",
                diagnostics={"t": t, "c": c, "dt": dt, "halfwidth": half},
            )
        half *= 2.0
        lo, hi = c - half, c + half
        r_lo, r_hi = scalar_residual(lo), scalar_residual(hi)
    # Brent needs finite endpoint values, and it runs out of iterations on a
    # bracket that spans many orders of magnitude: a large explicit part puts
    # the root of a steep drift far inside [c - A, c + A] (for paper-5.4 at
    # dt = 0.01, c = 1e30 has its root near 4.6e10).  So first bisect in
    # asinh(y), which halves the span in orders of magnitude, until both end
    # residuals are finite and the ends lie within a factor of about e.  A
    # steep drift can overflow at the ends while keeping a usable sign.
    shrink = 0
    while not (np.isfinite(r_lo) and np.isfinite(r_hi)) or np.arcsinh(hi) - np.arcsinh(lo) > 1.0:
        shrink += 1
        if shrink > config.max_bisection_iters:
            raise StepFailureError(
                "implicit step residual still not finite at the bracket ends after "
                f"{config.max_bisection_iters} halvings",
                diagnostics={"t": t, "c": c, "dt": dt, "lo": lo, "hi": hi},
            )
        mid = float(np.sinh(0.5 * (np.arcsinh(lo) + np.arcsinh(hi))))
        r_mid = scalar_residual(mid)
        if r_mid < 0.0 or (np.isnan(r_mid) and not np.isfinite(r_lo)):
            lo, r_lo = mid, r_mid
        else:
            hi, r_hi = mid, r_mid
    try:
        y = brentq(
            scalar_residual,
            lo,
            hi,
            xtol=1e-14,
            rtol=4.0 * np.finfo(float).eps,
            maxiter=config.max_bisection_iters,
        )
    except RuntimeError as exc:  # brentq's iteration budget ran out
        raise StepFailureError(
            f"bracketed implicit step solve failed: {exc}",
            diagnostics={"t": t, "c": c, "dt": dt, "lo": lo, "hi": hi},
        ) from exc
    jac_val = 1.0
    for _ in range(5):
        r, jac = implicit_residual(problem, t, np.array([y]), c, dt)
        r, jac_val = float(r[0]), float(jac[0])
        if abs(r) <= config.abs_tol:
            break
        if abs(jac_val) < _JAC_FLOOR:
            break
        y -= r / jac_val
    r = scalar_residual(y)
    diag.bracketed_elements += 1
    accept = max(config.abs_tol, float(_residual_floor(y, c, jac_val)))
    if not abs(r) <= accept < np.inf:
        raise StepFailureError(
            f"implicit step residual {r:.3e} above tolerance {accept:.3e}",
            diagnostics={"t": t, "c": c, "dt": dt, "y": y},
        )
    return y, abs(r)


def solve_implicit_steps(
    problem: SdeProblem,
    t: float,
    c,
    dt: float,
    config: ImplicitStepConfig | None = None,
    diagnostics: StepDiagnostics | None = None,
):
    """Solve Y = c + dt*f(t, Y) for a batch of scalar explicit parts ``c``.

    ``c`` is a 1-d array with one entry per path; the solve is vectorised
    across the batch.  Returns the array of roots.  Raises StepFailureError
    for a non-finite ``c`` and for any element whose residual cannot be
    brought within tolerance; a NaN residual or an overflowed floor never
    counts as converged.
    """
    config = config or ImplicitStepConfig()
    _check_dt(problem, dt)
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise ConfigurationError(f"batch explicit part must be 1-d, got shape {c.shape}")
    if not np.isfinite(c).all():
        bad = int(np.flatnonzero(~np.isfinite(c))[0])
        raise StepFailureError(
            f"non-finite explicit part c[{bad}] = {c[bad]} at t={t}",
            diagnostics={"t": t, "index": bad, "c": float(c[bad]), "dt": dt},
        )
    diag = StepDiagnostics(solves=c.size)
    y = c.copy()
    if dt == 0.0 or c.size == 0:
        if diagnostics is not None:
            diagnostics.merge(diag)
        return y
    r, jac = implicit_residual(problem, t, y, c, dt)

    def unconverged(idx):
        # written so that a NaN residual or an overflowed (inf) floor never
        # counts as converged
        tol = np.maximum(config.abs_tol, _residual_floor(y[idx], c[idx], jac[idx]))
        return idx[~((np.abs(r[idx]) <= tol) & (tol < np.inf))]

    active = unconverged(np.arange(c.size))
    stuck: list[int] = []
    for _ in range(config.max_newton_iters):
        if active.size == 0:
            break
        diag.newton_iterations += 1
        ya, ra, ja = y[active], r[active], jac[active]
        denom = np.where(np.abs(ja) >= _JAC_FLOOR, ja, 1.0)
        step = -ra / denom
        lam = np.ones_like(step)
        pending = np.arange(active.size)
        for _ in range(config.max_dampings + 1):
            cand = ya[pending] + lam[pending] * step[pending]
            rc, jc = implicit_residual(problem, t, cand, c[active[pending]], dt)
            ok = np.isfinite(rc) & (np.abs(rc) < np.abs(ra[pending]))
            hit = pending[ok]
            y[active[hit]] = cand[ok]
            r[active[hit]] = rc[ok]
            jac[active[hit]] = jc[ok]
            pending = pending[~ok]
            if pending.size == 0:
                break
            diag.damping_halvings += 1
            lam[pending] *= 0.5
        else:
            # no damping level improved these elements: Newton has stagnated,
            # so anything still above its resolvable floor goes to bracketing
            stuck.extend(unconverged(active[pending]).tolist())
            keep = np.ones(active.size, dtype=bool)
            keep[pending] = False
            active = active[keep]
        active = unconverged(active)
    stuck.extend(unconverged(active).tolist())
    worst = 0.0
    for i in stuck:
        try:
            y[i], res = _bracketed_solve(problem, t, float(c[i]), dt, config, diag)
        except StepFailureError as exc:
            exc.diagnostics["index"] = i
            raise
        worst = max(worst, res)
    done = np.setdiff1d(np.arange(c.size), np.asarray(stuck, dtype=int), assume_unique=False)
    if done.size:
        worst = max(worst, float(np.abs(r[done]).max()))
    diag.worst_residual = worst
    if diagnostics is not None:
        diagnostics.merge(diag)
    return y


def solve_implicit_step(
    problem: SdeProblem,
    t: float,
    c: float,
    dt: float,
    config: ImplicitStepConfig | None = None,
    diagnostics: StepDiagnostics | None = None,
) -> float:
    """Solve Y = c + dt*f(t, Y) for one scalar explicit part ``c``."""
    c = np.asarray(c, dtype=float).reshape(1)
    return float(solve_implicit_steps(problem, t, c, dt, config, diagnostics)[0])
