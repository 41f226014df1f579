"""Drift-implicit step solver.

Each step of the scheme requires the root of

    r(Y) = Y - c - dt * f(t, Y) = 0,

where ``c`` collects the explicit part of the update (previous state plus
noise increments).  When ``dt * L < 1`` for the one-sided Lipschitz bound
``L`` of the drift, ``Y -> Y - dt * f(t, Y)`` is strictly monotone, so the
root exists, is unique, and satisfies the a-priori bound

    |Y| <= (|c| + dt * |f(t, 0)|) / (1 - dt * max(L, 0)).

``dt`` is a scalar, or a 1-d array with one step size per element of the
batch, so levels of a coupled run that step at the same time share one
solve.  The solver spreads a scalar over the batch and works on per-element
step sizes only; each element's arithmetic is the same whatever the other
elements' dt.  The residual and its derivative come from one factory,
``residual_function(problem, t, dt)``: ``y - dt * f(t, y)`` is a polynomial
in y whose coefficients (one set per element) are computed once per solve
from ``problem.drift_polynomial``, and r and r' are evaluated together by
Horner's rule.

Damped Newton runs from ``Y = c`` over the whole batch with a mask of live
(not yet accepted) elements: each pass takes the full Newton step at full
width, and only the elements whose residual did not decrease are gathered
and retried at halved steps.  The rare elements where Newton stalls are
bisected together, in asinh(y), on their guaranteed enclosing intervals
until each interval is two adjacent doubles; both stages accept a root by
the same residual test.  Newton iterations and halvings are counted per
element, so merged diagnostics do not depend on how paths are batched.  A
failure's diagnostics name the element's batch index, its ``t`` and its own
``dt`` as a float.

Each pass writes into arrays allocated once per call: the residual and
Jacobian at the iterate and at the candidate, the step, the ``|.|`` arrays
and the masks (Horner updates its outputs in place, with the same
roundings).  The residual test bounds every element's floor by one scalar
from the batch maxima of |y|, |c| and |r'|; when that is within the absolute
tolerance, as it is for ordinary states, the test is ``|r| <= 1e-12`` alone,
and only otherwise is the floor computed per element.  The ``|r'|`` of the
test guards the next Newton step's division.  Every root and every counter
is what the per-element arithmetic gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, StepFailureError
from .model import SdeProblem
from .problems import horner

__all__ = [
    "StepDiagnostics",
    "residual_function",
    "solvability_limit",
    "bracket_halfwidth",
    "solve_implicit_steps",
]

_ABS_TOL = 1e-12
_MAX_NEWTON_ITERS = 50
_MAX_DAMPINGS = 30
_MAX_BISECTIONS = 200
_JAC_FLOOR = 1e-8
_RES_SAFETY = 32.0
_FLOAT_MAX = np.finfo(float).max
# a power of two, so scaling by it is exact; a Python float, so that the batch
# bound's inf * 0 is a NaN without a numpy warning
_FLOOR_SCALE = float(_RES_SAFETY * np.finfo(float).eps)


def _residual_floor(y, abs_c, jac):
    """Smallest residual magnitude resolvable in double precision at y.

    One ulp of movement in the iterate changes the residual by about
    eps * |y| * |r'(y)|, and evaluating the residual itself loses
    eps * (|y| + |c|) to cancellation, so demanding less than this is
    asking for noise.  The step is accepted at max(_ABS_TOL, floor).  The
    scale is applied to the Jacobian before the product, so the floor stays
    finite for every finite residual: ``|r'(y)| * |y|`` alone overflows near
    float max.
    """
    abs_y = np.abs(y)
    return _FLOOR_SCALE * (1.0 + abs_y + abs_c) + (_FLOOR_SCALE * np.abs(jac)) * abs_y


def _accepted(y, r, jac, abs_c, c_max, abs_y=None, abs_jac=None, abs_r=None, out=None):
    """Residual test; a NaN residual or an overflowed (inf) floor never passes.

    ``c_max`` is ``abs_c.max()``.  The floor is first bounded over the batch
    from the largest |y|, |c| and |r'|: rounding is monotone, so the bound is
    at least every element's floor, and when it is within ``_ABS_TOL`` (a NaN
    or inf maximum never is) every tolerance is ``_ABS_TOL`` and the test is
    ``|r| <= _ABS_TOL`` exactly.  Otherwise each element's floor is computed.
    ``|y|``, ``|r'|``, ``|r|`` and the result are written into the arrays
    given for them (new arrays when None), so the caller can reuse them.
    """
    abs_y = np.abs(y, out=abs_y)
    abs_jac = np.abs(jac, out=abs_jac)
    abs_r = np.abs(r, out=abs_r)
    y_max, jac_max = float(abs_y.max()), float(abs_jac.max())
    if _FLOOR_SCALE * (1.0 + y_max + c_max) + (_FLOOR_SCALE * jac_max) * y_max <= _ABS_TOL:
        return np.less_equal(abs_r, _ABS_TOL, out=out)
    tol = np.maximum(_ABS_TOL, _residual_floor(abs_y, abs_c, abs_jac))
    return np.logical_and(abs_r <= tol, tol < np.inf, out=out)


@dataclass
class StepDiagnostics:
    """Aggregated solver effort counters (merged across steps and chunks).

    ``newton_iterations`` and ``damping_halvings`` sum, over the elements of
    each batch, the Newton passes and step halvings that element took, so
    merged values do not depend on how paths are batched.
    """

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


def residual_function(problem: SdeProblem, t: float, dt):
    """The residual of one step as ``residual(y, c, at=None) -> (r, r')`` at fixed ``t``.

    ``y - dt * f(t, y)`` is itself a polynomial in y: its coefficients are
    computed once here, and each call evaluates r and r' together in one
    Horner pass.  ``dt`` is a float, or a 1-d array of per-element step
    sizes; ``at`` picks the elements of an array ``dt`` that ``y`` and ``c``
    hold (all of them when None).  ``out``, a pair of arrays shaped like
    ``y``, receives r and r' (see :func:`~levyem.problems.horner`).
    """
    poly = problem.drift_polynomial
    g = np.multiply.outer(poly.coefficients(t), -np.asarray(dt, dtype=float))  # -dt * a_k(t)
    present = list(poly.present)
    if poly.degree < 2:  # pad, so that r' comes out as an array like r
        g = np.concatenate([g, np.zeros((2 - poly.degree,) + g.shape[1:])])
        present += [False] * (2 - poly.degree)
    g[1] += 1.0
    present[1] = True

    def residual(y, c, at=None, out=None):
        v, dv = horner(g if at is None else g[:, at], present, y, out)
        v -= c
        return v, dv

    return residual


def solvability_limit(problem: SdeProblem) -> float:
    """Largest dt with a guaranteed unique implicit step (inf for dissipative drift)."""
    bound = max(problem.monotone_bound, 0.0)
    return np.inf if bound == 0.0 else 1.0 / bound


def _check_dt(problem: SdeProblem, dt: np.ndarray, c: np.ndarray) -> None:
    """Reject a dt not shaped like ``c``, or an element that is negative, infinite or unsolvable."""
    if dt.shape != c.shape:
        raise ConfigurationError(f"dt must be a scalar or shaped like c {c.shape}, got {dt.shape}")
    bound = max(problem.monotone_bound, 0.0)
    if not dt.size:
        return
    top = dt.max()
    if dt.min() >= 0.0 and top < np.inf and top * bound < 1.0:  # NaN fails each
        return
    ok = (dt >= 0.0) & (dt < np.inf)
    ok[ok] = dt[ok] * bound < 1.0  # finite here, so inf * 0 cannot make a NaN
    k = int(np.flatnonzero(~ok)[0])
    value = float(dt[k])
    if not 0.0 <= value:
        raise ConfigurationError(f"dt[{k}] must be >= 0, got {value}")
    if value == np.inf:
        raise ConfigurationError(f"dt[{k}] must be finite, got {value}")
    raise ConfigurationError(
        f"dt[{k}]={value} violates the solvability condition dt * {problem.monotone_bound} < 1; "
        f"use dt < {solvability_limit(problem):g}"
    )


def bracket_halfwidth(problem: SdeProblem, t: float, c, dt):
    """Half-width A with the unique root guaranteed inside [c - A, c + A].

    ``c`` and ``dt`` are scalars or arrays that broadcast together.
    """
    f0 = np.abs(problem.drift_polynomial.coefficients(t)[0])  # |f(t, 0)|
    denom = 1.0 - dt * max(problem.monotone_bound, 0.0)
    return 2.0 * (np.abs(c) + dt * f0 + 1.0) / denom


def _bracketed_solve(residual, problem, t, c, dt, index):
    """Roots and residuals for the stragglers ``c`` (batch indices ``index``, step sizes ``dt``).

    All stragglers are bisected together on their guaranteed brackets in
    asinh(y), which halves the span in orders of magnitude: a large explicit
    part puts the root of a steep drift far inside [c - A, c + A] (for
    paper-5.4 at dt = 0.01, c = 1e30 has its root near 4.6e10), and the drift
    may overflow at the ends while keeping a usable sign.  Where the asinh
    midpoint is not strictly inside a bracket, the plain midpoint is used, so
    brackets shrink to two adjacent doubles.
    """
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
    abs_c = np.abs(c)
    _fail_where(~_accepted(y, r, jac, abs_c, float(abs_c.max())),
                "implicit step residual above tolerance after bisection",
                t, c, dt, index, y=y, residual=r)
    return y, r


def _damp(residual, y, r, jac, step, c, pending, diag):
    """Halve the Newton step of the ``pending`` elements until their residual decreases.

    The full step ``y - step`` has failed them already.  Each halving retries
    the elements still pending at ``y - lam * step``, lam = 1/2, 1/4, ...,
    and writes the ones that improve into ``y``, ``r`` and ``jac``.  Returns
    the elements no halving improved: Newton has stagnated there.
    """
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


def _fail_where(bad, message, t, c, dt, index, **values):
    """Raise for the first straggler marked ``bad``, naming its batch index, time and dt."""
    if not bad.any():
        return
    k = int(np.flatnonzero(bad)[0])
    details = {name: float(v[k]) for name, v in values.items()}
    raise StepFailureError(
        f"{message} at t={t}: " + ", ".join(f"{n}={v:.6g}" for n, v in details.items()),
        diagnostics={"t": t, "index": int(index[k]), "c": float(c[k]), "dt": float(dt[k])}
        | details,
    )


def solve_implicit_steps(
    problem: SdeProblem,
    t: float,
    c,
    dt,
    diagnostics: StepDiagnostics | None = None,
):
    """Solve Y = c + dt*f(t, Y) for a batch of scalar explicit parts ``c``.

    ``c`` is a 1-d array with one entry per path; the solve is vectorised
    across the batch.  ``dt`` is a scalar, or a 1-d array shaped like ``c``
    with each element's own step size.  Returns the array of roots.  Raises
    StepFailureError for a non-finite ``c`` and for any element whose
    residual cannot be brought within tolerance; a NaN residual or an
    overflowed floor never counts as converged.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise ConfigurationError(f"batch explicit part must be 1-d, got shape {c.shape}")
    dt = np.asarray(dt, dtype=float)
    if dt.ndim == 0:
        dt = np.full(c.shape, dt)
    _check_dt(problem, dt, c)
    abs_c = np.abs(c)
    c_max = float(abs_c.max(initial=0.0))
    if not c_max < np.inf:  # NaN fails too
        bad = int(np.flatnonzero(~np.isfinite(c))[0])
        raise StepFailureError(
            f"non-finite explicit part c[{bad}] = {c[bad]} at t={t}",
            diagnostics={"t": t, "index": bad, "c": float(c[bad]), "dt": float(dt[bad])},
        )
    diag = StepDiagnostics(solves=c.size)
    y = c.copy()
    if not dt.any():  # also an empty batch
        if diagnostics is not None:
            diagnostics.merge(diag)
        return y
    residual = residual_function(problem, t, dt)
    n = c.size
    # every pass writes into these: the residual and Jacobian at y, the
    # candidate y - step with its own, and the |.| arrays of the residual test
    # (one array each: one block for all of them passes the C allocator's
    # mmap threshold on wide batches, and freeing it raises the threshold for
    # trimming the heap, so the process keeps more memory)
    r, jac, step, cand, rc, jc, abs_y, abs_jac, abs_r, abs_rc = (np.empty(n) for _ in range(10))
    accepted, live, ok = (np.empty(n, dtype=bool) for _ in range(3))
    test = dict(abs_y=abs_y, abs_jac=abs_jac, abs_r=abs_r, out=accepted)
    residual(y, c, out=(r, jac))
    _accepted(y, r, jac, abs_c, c_max, **test)
    np.logical_not(accepted, out=live)
    for _ in range(_MAX_NEWTON_ITERS):
        n_live = int(np.count_nonzero(live))
        if n_live == 0:
            break
        diag.newton_iterations += n_live
        if abs_jac.min() >= _JAC_FLOOR:  # NaN fails this
            np.divide(r, jac, out=step)  # the Newton step is -step
        else:
            np.divide(r, np.where(abs_jac >= _JAC_FLOOR, jac, 1.0), out=step)
        np.subtract(y, step, out=cand)
        residual(cand, c, out=(rc, jc))
        np.less(np.abs(rc, out=abs_rc), abs_r, out=ok)  # a NaN or infinite residual never improves
        ok &= live
        np.copyto(y, cand, where=ok)
        np.copyto(r, rc, where=ok)
        np.copyto(jac, jc, where=ok)
        if np.count_nonzero(ok) < n_live:
            pending = np.flatnonzero(live ^ ok)
            live[_damp(residual, y, r, jac, step, c, pending, diag)] = False
        _accepted(y, r, jac, abs_c, c_max, **test)
        live &= ~accepted
    stragglers = np.flatnonzero(~accepted)
    if stragglers.size:
        y[stragglers], r[stragglers] = _bracketed_solve(
            residual, problem, t, c[stragglers], dt[stragglers], stragglers
        )
        diag.bracketed_elements = stragglers.size
    diag.worst_residual = float(np.abs(r).max())
    if diagnostics is not None:
        diagnostics.merge(diag)
    return y
