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
solve.  What depends only on the step sizes is prepared once, as a
:class:`PreparedStep`: ``dt`` spread over the batch and checked, its
negation, the padded Horner layout of the residual, the residual's
coefficients that do not vary in time, and the work arrays of the Newton
passes.  The engine prepares each batch layout once per chunk and passes
the prepared step as ``dt``; a scalar or a plain array is prepared on
entry, so every call runs the same body, and each element's arithmetic is
the same whatever the other elements' dt.  ``y - dt * f(t, y)`` is a
polynomial in y, with one set of coefficients per element; those that vary
in time are written once per solve from ``problem.drift_polynomial``, and
r and r' are evaluated together by Horner's rule.  ``residual_function(
problem, t, dt)`` gives the same residual on its own.

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

Each pass works in the prepared step's arrays.  An iterate and its
residual are the rows of one block (:class:`_Iterate`), one for the iterate
and one for the candidate, and Horner's rule runs over the batch in blocks
of rows, two calls a step (:func:`_block_horner`).  A pass zeroes the step
of the elements that are done (accepted, or stalled in damping), and only
when some are, so that their candidate and its r and r' equal the
iterate's bit for bit.  When every live element improves, the candidate
becomes the iterate by a swap of the two blocks, with nothing copied; a
pass with damping writes the improved elements into the iterate through
masks.  The roots are copied out of the work arrays once, at the end, so
the caller may keep them.  The residual test bounds every element's floor
by one scalar from |c| and the batch extremes of y and r', taken in one
reduction; when that is within the absolute tolerance, as it is for
ordinary states, the test is ``|r| <= 1e-12`` alone, and only otherwise is
the floor computed per element.  The smallest r' of the test guards the
next Newton step's division.  Every root and every counter is what the
per-element arithmetic gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, StepFailureError
from .model import SdeProblem
from .problems import horner

try:  # the C function; np.count_nonzero wraps it in Python
    from numpy._core.multiarray import count_nonzero as _count_nonzero
except ImportError:  # numpy < 2
    from numpy.core.multiarray import count_nonzero as _count_nonzero

__all__ = [
    "StepDiagnostics",
    "PreparedStep",
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
_max = np.maximum.reduce


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


def _accepted(y, abs_r, jac, abs_c, bound=np.inf, out=None):
    """Residual test; a NaN residual or an overflowed (inf) floor never passes.

    ``abs_r`` is ``|r|``.  ``bound`` is at least every element's floor (see
    :meth:`_Iterate.test`): when it is within ``_ABS_TOL`` (a NaN or inf
    bound never is), every tolerance is ``_ABS_TOL`` and the test is ``|r| <=
    _ABS_TOL`` exactly.  Otherwise each element's floor is computed.
    """
    if bound <= _ABS_TOL:
        return np.less_equal(abs_r, _ABS_TOL, out=out)
    tol = np.maximum(_ABS_TOL, _residual_floor(y, abs_c, jac))
    return np.logical_and(abs_r <= tol, tol < np.inf, out=out)


class _Iterate:
    """A Newton iterate y over the batch and its residual, as the rows of one block.

    The rows are -y, -r', y, y, r' and r.  Horner reads y from rows 2-3 and
    writes r' and r into rows 4-5 (see :func:`_block_horner`).  The residual
    test negates rows 3-4 into rows 0-1 and takes the extremes of y and r'
    from one reduction over rows 0-4.
    """

    __slots__ = ("block", "negated", "pair", "signed", "y2", "y_copy", "y", "out", "jac", "r")

    def __init__(self, size):
        b = self.block = np.empty((6, size))
        self.negated, self.pair, self.signed = b[0:2], b[3:5], b[0:5]
        self.y2, self.y_copy, self.y = b[2:4], b[2], b[3]
        self.out, self.jac, self.r = b[4:6], b[4], b[5]

    def test(self, abs_r, abs_c, c_max, out):
        """The residual test of y into ``out``; returns the smallest r' (NaN if r' holds one).

        ``abs_r`` is ``|r|``, and ``c_max`` is ``abs_c.max()``.  The test's
        bound on the floor is the floor's formula at the largest |y|, |c|
        and |r'| of the batch: rounding is monotone, so it is at least every
        element's floor.  A NaN in y or r' makes it NaN.
        """
        np.negative(self.pair, out=self.negated)
        neg_y, neg_jac, _, y_top, jac_top = _max(self.signed, axis=1).tolist()
        y_max, jac_max = max(y_top, neg_y), max(jac_top, neg_jac)
        bound = _FLOOR_SCALE * (1.0 + y_max + c_max) + (_FLOOR_SCALE * jac_max) * y_max
        _accepted(self.y, abs_r, self.jac, abs_c, bound, out)
        return -neg_jac


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
    hold (all of them when None).
    """
    poly = problem.drift_polynomial
    neg_dt = -np.asarray(dt, dtype=float)
    present = _horner_layout(poly)
    rows = _residual_rows(poly, neg_dt, [np.empty(neg_dt.shape) for _ in present])
    return _residual(_at_time(poly, rows, t, neg_dt), present)


def _horner_layout(poly) -> tuple:
    """``present`` of the residual's coefficients, padded to degree 2 so that r' is an array."""
    present = list(poly.present) + [False] * (2 - poly.degree)
    present[1] = True
    return tuple(present)


def _residual_rows(poly, neg_dt, rows):
    """Write the residual's coefficients that do not vary in time into ``rows``.

    ``rows[k]`` receives ``-dt * a_k`` for the powers without a time factor
    (a_k is then ``constant[k]``), row 1 also r's 1, and the padding to
    degree 2 zeros; :func:`_at_time` writes the others.
    """
    for k, row in enumerate(rows):
        if k <= poly.degree:
            np.multiply(poly.constant[k], neg_dt, out=row)
        else:
            row[...] = 0.0
    rows[1] += 1.0
    return rows


def _at_time(poly, rows, t, neg_dt):
    """``rows`` with the coefficients of the powers that vary in time written for ``t``."""
    if poly.timed:
        coeffs = poly.coefficients(t)
        for k in poly.timed:
            np.multiply(coeffs[k], neg_dt, out=rows[k])
            if k == 1:
                rows[1] += 1.0
    return rows


def _residual(rows, present):
    def residual(y, c, at=None):
        v, dv = horner(rows if at is None else [row[at] for row in rows], present, y)
        v -= c
        return v, dv

    return residual


def _block_horner(present, size):
    """The residual's coefficient rows, and Horner's rule over the batch in blocks.

    Returns ``(rows, evaluate)``: ``rows[k]`` holds each element's
    coefficient of y**k, and ``evaluate(it)`` writes p'(y) and p(y) into
    ``it.jac`` and ``it.r`` for an :class:`_Iterate` ``it``.  A step of the
    rule, ``dp = dp * y + p; p = p * y + g_k``, is ``[dp, p] * [y, y] + [p,
    g_k]``: one multiply and one add on a block whose rows are dp, p and g_k
    (the add takes the dp row alone when g_k is absent), so each element
    gets the operations of :func:`~levyem.problems.horner`, with its
    roundings, from two calls a step instead of four.  y is copied into a
    second row first, since a multiply that broadcasts y over two rows is
    slower.
    """
    n = len(present) - 1  # at least 2, with present[1]
    doubled = not present[n - 1]  # the first dp, g_n * y + p, is then p + p
    top = n - 3 if doubled else n - 2  # the highest power stepped in blocks
    blocks = [np.empty((3, size)) for _ in range(top + 1)]  # before power k: dp, p, g_k
    head_dp, head_p = blocks[top][0], blocks[top][1]
    rows = [b[2] for b in blocks] + [np.empty(size) for _ in range(top + 1, n)]
    rows.append(np.empty(size) if doubled else head_dp)  # without doubling, dp starts as g_n
    steps = [  # (dp and p, the next dp and p, addend, target): next = in * [y, y]; target += addend
        (z[:2], o, z[1:] if present[k] else z[1], o if present[k] else o[0])
        for k, z, o in ((k, blocks[k], blocks[k - 1][:2]) for k in range(top, 0, -1))
    ]
    last, last_addend = blocks[0][:2], blocks[0][1:] if present[0] else blocks[0][1]

    def evaluate(it):
        y, y2 = it.y, it.y2
        it.y_copy[...] = y
        np.multiply(rows[n], y, out=head_p)
        if doubled:
            np.add(head_p, head_p, out=head_dp)
            np.multiply(head_p, y, out=head_p)
            if present[n - 2]:
                np.add(head_p, rows[n - 2], out=head_p)
        else:
            np.add(head_p, rows[n - 1], out=head_p)
        for z, o, addend, target in steps:
            np.multiply(z, y2, out=o)
            np.add(target, addend, out=target)
        np.multiply(last, y2, out=it.out)
        target = it.out if present[0] else it.jac
        np.add(target, last_addend, out=target)

    return rows, evaluate


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


class PreparedStep(np.ndarray):
    """Step sizes prepared once for the solves of one batch layout.

    ``PreparedStep(problem, dt, c)`` spreads ``dt`` (a scalar, or one step
    size per element of batches shaped like ``c``; only the shape of ``c``
    is read) over the batch and checks it, and keeps what every solve at
    these step sizes reuses: the per-element step sizes and their
    negations, the padded Horner layout of the residual, its coefficient
    rows (those that do not vary in time written here, see
    :func:`_block_horner`), and the work arrays of the Newton passes.  The
    array itself is a read-only copy of ``dt``, so ``np.asarray`` of a
    prepared step gives its step sizes.  Pass it to
    :func:`solve_implicit_steps` as ``dt``; each solve overwrites its work
    arrays, so it serves one call at a time.
    """

    problem = None  # arrays computed from a prepared step are not prepared

    def __new__(cls, problem: SdeProblem, dt, c):
        dt = np.array(dt, dtype=float)
        per_element = np.full(c.shape, dt) if dt.ndim == 0 else dt
        _check_dt(problem, per_element, c)
        for a in (dt, per_element):
            a.flags.writeable = False
        self = dt.view(cls)
        self.problem = problem
        self.per_element = per_element
        self.neg_dt = -per_element
        self.moves = bool(per_element.any())  # False also for an empty batch
        self.present = _horner_layout(problem.drift_polynomial)
        n = per_element.size
        rows, self.horner = _block_horner(self.present, n)
        self.rows = _residual_rows(problem.drift_polynomial, self.neg_dt, rows)
        # several arrays, not one for all: one block that large passes the C
        # allocator's mmap threshold on wide batches, and freeing it raises the
        # threshold for trimming the heap, so the process keeps more memory
        self.work = tuple(np.empty(n) for _ in range(4))
        self.iterates = _Iterate(n), _Iterate(n)  # the iterate and the candidate
        self.masks = tuple(np.empty(n, dtype=bool) for _ in range(3))
        return self


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
    _fail_where(~_accepted(y, np.abs(r), jac, np.abs(c)),
                "implicit step residual above tolerance after bisection",
                t, c, dt, index, y=y, residual=r)
    return y, r


def _damp(residual, y, r, jac, step, c, pending):
    """Halve the Newton step of the ``pending`` elements until their residual decreases.

    The full step ``y - step`` has failed them already.  Each halving retries
    the elements still pending at ``y - lam * step``, lam = 1/2, 1/4, ...,
    and writes the ones that improve into ``y``, ``r`` and ``jac``.  Returns
    the elements no halving improved (Newton has stagnated there) and the
    number of halvings, counted per element.
    """
    lam, halvings = 1.0, 0
    for _ in range(_MAX_DAMPINGS):
        halvings += pending.size
        lam *= 0.5
        cand = y[pending] - lam * step[pending]
        rc, jc = residual(cand, c[pending], pending)
        ok = np.abs(rc) < np.abs(r[pending])
        hit = pending[ok]
        y[hit], r[hit], jac[hit] = cand[ok], rc[ok], jc[ok]
        pending = pending[~ok]
        if pending.size == 0:
            return pending, halvings
    return pending, halvings + pending.size


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
    across the batch.  ``dt`` is a scalar, a 1-d array shaped like ``c``
    with each element's own step size, or a :class:`PreparedStep` of
    ``problem`` for batches shaped like ``c``.  Returns the array of roots.
    Raises StepFailureError for a non-finite ``c`` and for any element whose
    residual cannot be brought within tolerance; a NaN residual or an
    overflowed floor never counts as converged.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise ConfigurationError(f"batch explicit part must be 1-d, got shape {c.shape}")
    if not (isinstance(dt, PreparedStep) and dt.problem is problem
            and dt.per_element.shape == c.shape):
        dt = PreparedStep(problem, dt, c)
    abs_c, step, abs_r, abs_rc = dt.work
    it, trial = dt.iterates
    accepted, done, ok = dt.masks
    c_max = float(_max(np.abs(c, out=abs_c), initial=0.0))
    if not c_max < np.inf:  # NaN fails too
        bad = int(np.flatnonzero(~np.isfinite(c))[0])
        raise StepFailureError(
            f"non-finite explicit part c[{bad}] = {c[bad]} at t={t}",
            diagnostics={"t": t, "index": bad, "c": float(c[bad]),
                         "dt": float(dt.per_element[bad])},
        )
    if not dt.moves:  # also an empty batch
        if diagnostics is not None:
            diagnostics.solves += c.size
        return c.copy()
    residual = _residual(_at_time(problem.drift_polynomial, dt.rows, t, dt.neg_dt), dt.present)
    y, jac, r = it.y, it.jac, it.r
    y[...] = c
    dt.horner(it)
    r -= c
    jac_min = it.test(np.abs(r, out=abs_r), abs_c, c_max, accepted)
    np.copyto(done, accepted)
    newton = halvings = 0
    for _ in range(_MAX_NEWTON_ITERS):
        n_live = c.size - int(_count_nonzero(done))
        if n_live == 0:
            break
        newton += n_live
        if jac_min >= _JAC_FLOOR:  # NaN fails this
            np.divide(r, jac, out=step)  # the Newton step is -step
        else:
            np.divide(r, np.where(np.abs(jac) >= _JAC_FLOOR, jac, 1.0), out=step)
        if n_live < c.size:  # a done element's candidate, r and r' are its own, bit for bit
            np.putmask(step, done, 0.0)
        np.subtract(y, step, out=trial.y)
        dt.horner(trial)
        trial.r -= c
        # a NaN or infinite residual never improves, nor does a done element
        np.less(np.abs(trial.r, out=abs_rc), abs_r, out=ok)
        if _count_nonzero(ok) == n_live:  # the candidate is the next iterate
            it, trial, abs_r, abs_rc = trial, it, abs_rc, abs_r
            y, jac, r = it.y, it.jac, it.r
        else:
            np.putmask(y, ok, trial.y)
            np.putmask(r, ok, trial.r)
            np.putmask(jac, ok, trial.jac)
            pending = np.equal(done, ok, out=ok).nonzero()[0]  # neither done nor improved
            stalled, more = _damp(residual, y, r, jac, step, c, pending)
            halvings += more
            done[stalled] = True
            np.abs(r, out=abs_r)
        jac_min = it.test(abs_r, abs_c, c_max, accepted)
        np.logical_or(done, accepted, out=done)
    roots = y.copy()  # never a work array: the caller keeps the roots
    stragglers = np.logical_not(accepted, out=ok).nonzero()[0]
    if stragglers.size:
        roots[stragglers], r[stragglers] = _bracketed_solve(
            residual, problem, t, c[stragglers], dt.per_element[stragglers], stragglers
        )
        np.abs(r, out=abs_r)
    if diagnostics is not None:
        diagnostics.solves += c.size
        diagnostics.newton_iterations += newton
        diagnostics.damping_halvings += halvings
        diagnostics.bracketed_elements += stragglers.size
        # |r| of the last residual test, or of the bisection
        diagnostics.worst_residual = max(diagnostics.worst_residual, float(_max(abs_r)))
    return roots
