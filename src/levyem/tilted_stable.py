"""Exact sampling of exponentially tilted one-sided stable increments.

The target law is the increment, over a time window ``h``, of the subordinator
with Laplace transform

    E exp(-s T_h) = exp(-h * ((s + tilt)**rho - tilt**rho)),   rho in (0, 1),

i.e. the stable subordinator (normalised so that ``E exp(-s T_h) = exp(-h s**rho)``
when ``tilt == 0``) whose Levy measure is damped by ``exp(-tilt * x)``.

Two exact strategies are used, following Hofert (2011):

* divide-and-conquer rejection: split the window into pieces small enough that
  a plain stable proposal is accepted with probability >= exp(-1); cheap and
  fully vectorised, but the number of pieces grows like ``h * tilt**rho``;
* the double-rejection algorithm of Devroye (2009), whose cost is O(1)
  uniformly in the tilt; used once divide-and-conquer would need too many
  pieces.

References
----------
M. Kanter (1975), "Stable densities under change of scale and total variation
inequalities" (the untilted representation).
L. Devroye (2009), "Random variate generation for exponentially and
polynomially tilted stable distributions".
M. Hofert (2011), "Sampling exponentially tilted stable distributions".
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AcceptanceStats",
    "sample_positive_stable",
    "sample_tilted_stable",
    "tilted_stable_blocks",
]

# Above this many divide-and-conquer pieces per draw, double rejection wins.
_MAX_PARTITION = 64
# Cells drawn at once by the row samplers.  A block holds a few arrays of this
# many float64 values, so it bounds their working memory (at least one row).
BLOCK_CELLS = 2**13


def row_blocks(n_rows: int, cells_per_row: int) -> list[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` row ranges of at most BLOCK_CELLS cells (>= one row)."""
    step = max(1, BLOCK_CELLS // max(1, cells_per_row))
    return [(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


@dataclass
class AcceptanceStats:
    """Bookkeeping for rejection sampling: proposals made and draws kept."""

    proposed: int = 0
    accepted: int = 0

    @property
    def ratio(self) -> float:
        if self.proposed == 0:
            return 1.0
        return self.accepted / self.proposed

    def merge(self, other: "AcceptanceStats") -> None:
        self.proposed += other.proposed
        self.accepted += other.accepted


def _kanter_factor(u: np.ndarray, rho: float) -> np.ndarray:
    """Zolotarev/Kanter function A(u) for u in (0, pi)."""
    return (
        np.sin(rho * u) ** rho
        * np.sin((1.0 - rho) * u) ** (1.0 - rho)
        / np.sin(u)
    ) ** (1.0 / (1.0 - rho))


def _kanter(u: np.ndarray, e: np.ndarray, rho: float) -> np.ndarray:
    """(A(U) / E)**((1 - rho) / rho) from U ~ Uniform(0, pi) and E ~ Exp(1); clips u."""
    # Guard against the measure-zero endpoints where A(u) is 0/0.
    np.clip(u, 1e-9, np.pi - 1e-9, out=u)
    return (_kanter_factor(u, rho) / e) ** ((1.0 - rho) / rho)


def sample_positive_stable(rho: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one-sided stable variates with Laplace transform exp(-s**rho).

    Kanter's representation: S = (A(U) / E)**((1 - rho) / rho) with
    U ~ Uniform(0, pi) and E ~ Exp(1).
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"stability index rho must lie in (0, 1), got {rho}")
    u = rng.uniform(0.0, np.pi, size)
    e = rng.standard_exponential(size)
    return _kanter(u, e, rho)


def sample_tilted_stable(
    rho: float,
    tilt: float,
    horizon: float,
    size: int,
    rng: np.random.Generator,
    method: str | None = None,
    stats: AcceptanceStats | None = None,
) -> np.ndarray:
    """Draw ``size`` independent tilted-subordinator increments over ``horizon``.

    The one-row case of :func:`tilted_stable_blocks`.

    Parameters
    ----------
    rho : stability index in (0, 1).
    tilt : exponential damping rate, >= 0.
    horizon : time-window length, > 0.
    method : force "divide-conquer" or "double-rejection"; default picks by cost.
    stats : optional AcceptanceStats updated in place with rejection bookkeeping.
    """
    ((_, _, values),) = tilted_stable_blocks(rho, tilt, horizon, size, [rng], method, stats)
    return values[0]


def tilted_stable_blocks(
    rho: float,
    tilt: float,
    horizon: float,
    size: int,
    streams,
    method: str | None = None,
    stats: AcceptanceStats | None = None,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """``size`` tilted-subordinator increments from each stream, block by block.

    ``streams[r]`` returns the generator of row r (a list of generators, or a
    :class:`levyem.noise.PathStreams`); each row's draws come from its own
    stream in the order a one-row call would make them.  Returns an iterator
    of ``(lo, hi, values)``, ``values`` being the ``(hi - lo, size)`` draws of
    rows lo..hi-1; a block holds at most BLOCK_CELLS rejection cells (or one
    row) and is drawn when the iterator reaches it, so consuming one block
    at a time bounds the memory.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"stability index rho must lie in (0, 1), got {rho}")
    if tilt < 0.0:
        raise ValueError(f"tilt must be >= 0, got {tilt}")
    if horizon <= 0.0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    pieces = max(1, math.ceil(horizon * tilt**rho))
    if method is None:
        method = "divide-conquer" if pieces <= _MAX_PARTITION else "double-rejection"
    if method not in ("divide-conquer", "double-rejection"):
        raise ValueError(f"unknown method {method!r}")
    if stats is None:
        stats = AcceptanceStats()
    if tilt == 0.0:
        return _untilted_blocks(rho, horizon, size, streams, stats)
    if method == "divide-conquer":
        return _divide_and_conquer(rho, tilt, horizon, pieces, size, streams, stats)
    return _double_rejection_blocks(rho, tilt, horizon, size, streams, stats)


def _untilted_blocks(rho, horizon, size, streams, stats):
    for lo, hi in row_blocks(len(streams), size):
        values = np.empty((hi - lo, size))
        for i in range(hi - lo):
            values[i] = horizon ** (1.0 / rho) * sample_positive_stable(rho, size, streams[lo + i])
        stats.proposed += values.size
        stats.accepted += values.size
        yield lo, hi, values


def _double_rejection_blocks(rho, tilt, horizon, size, streams, stats):
    # Rescale to a unit-window problem: T_h = h**(1/rho) * X with X tilted
    # by tilt * h**(1/rho).
    unit_scale = horizon ** (1.0 / rho)
    unit_tilt = tilt * unit_scale
    for lo, hi in row_blocks(len(streams), size):
        values = np.empty((hi - lo, size))
        for i in range(hi - lo):
            rng = streams[lo + i]
            for j in range(size):
                values[i, j] = _double_rejection(rho, unit_tilt, rng, stats)
        yield lo, hi, unit_scale * values


def _divide_and_conquer(rho, tilt, horizon, pieces, size, streams, stats):
    """Piecewise rejection over row blocks: accept c*S with probability exp(-tilt*c*S).

    Each round draws, for every row with pending cells, the Kanter uniforms
    and exponentials and the acceptance uniforms from that row's stream, then
    transforms and tests all of the round's cells at once.
    """
    piece_scale = (horizon / pieces) ** (1.0 / rho)
    cells = size * pieces
    for lo, hi in row_blocks(len(streams), cells):
        rows = hi - lo
        values = np.empty(rows * cells)
        pending = np.arange(rows * cells)  # flat cell indices, ordered by row
        counts = [cells] * rows
        # Per-cell acceptance probability is exp(-(h/P) * tilt**rho) >= exp(-1),
        # so the pending set shrinks geometrically; 500 rounds is unreachable.
        for _ in range(500):
            u = np.empty(pending.size)
            e = np.empty(pending.size)
            v = np.empty(pending.size)
            at = 0
            for i, k in enumerate(counts):
                if k:
                    rng = streams[lo + i]
                    u[at:at + k] = rng.uniform(0.0, np.pi, k)
                    rng.standard_exponential(out=e[at:at + k])
                    rng.random(out=v[at:at + k])
                    at += k
            draw = piece_scale * _kanter(u, e, rho)
            stats.proposed += pending.size
            keep = v < np.exp(-tilt * draw)
            values[pending[keep]] = draw[keep]
            stats.accepted += int(keep.sum())
            pending = pending[~keep]
            if pending.size == 0:
                break
            counts = np.bincount(pending // cells, minlength=rows).tolist()
        else:  # pragma: no cover - probabilistically unreachable
            raise RuntimeError("divide-and-conquer rejection failed to terminate")
        yield lo, hi, values.reshape(rows, size, pieces).sum(axis=2)


def _safe_exp(x: float) -> float:
    if x > 709.0:
        return math.inf
    return math.exp(x)


def _sinc(x: float) -> float:
    if abs(x) < 1e-8:
        return 1.0
    return math.sin(x) / x


def _zolotarev_function(x: float, alpha: float) -> float:
    return (
        ((1.0 - alpha) * _sinc((1.0 - alpha) * x)) ** (1.0 - alpha)
        * (alpha * _sinc(alpha * x)) ** alpha
        / _sinc(x)
    ) ** (1.0 / (1.0 - alpha))


def _zolotarev_pdf_exponentiated(x: float, alpha: float) -> float:
    return _sinc(x) / (
        _sinc(alpha * x) ** alpha * _sinc((1.0 - alpha) * x) ** (1.0 - alpha)
    )


def _double_rejection(alpha: float, lam: float, rng: np.random.Generator, stats: AcceptanceStats) -> float:
    """One draw of the standard stable (Laplace exponent s**alpha) tilted by lam.

    Direct port of Devroye's double-rejection scheme as organised by Hofert
    (2011), Algorithm 3.2.
    """
    b = (1.0 - alpha) / alpha
    lam_alpha = lam**alpha
    gamma = lam_alpha * alpha * (1.0 - alpha)
    sqrt_gamma = math.sqrt(gamma)
    c1 = math.sqrt(math.pi / 2.0)
    c2 = 2.0 + c1
    c3 = c2 * sqrt_gamma
    xi = (1.0 + math.sqrt(2.0) * c3) / math.pi
    psi = c3 * _safe_exp(-gamma * math.pi * math.pi / 8.0) / math.sqrt(math.pi)

    while True:
        stats.proposed += 1
        U, Z, z = _aux_rv(rng, c1, xi, psi, gamma, sqrt_gamma, alpha, lam_alpha)
        a = _zolotarev_function(U, alpha)
        m = (b / a) ** alpha * lam_alpha
        delta = math.sqrt(m * alpha / a)
        a1 = delta * c1
        a3 = z / a
        s = a1 + delta + a3
        v2 = rng.random()
        n_draw = 0.0
        e_draw = 0.0
        if v2 < a1 / s:
            n_draw = rng.standard_normal()
            X = m - delta * abs(n_draw)
        elif v2 < (a1 + delta) / s:
            X = m + delta * rng.random()
        else:
            e_draw = rng.standard_exponential()
            X = m + delta + e_draw * a3
        if X < 0.0:
            log_accept = -math.inf
        else:
            log_accept = -(
                a * (X - m)
                + _safe_exp((1.0 / alpha) * math.log(lam_alpha) - b * math.log(m))
                * ((m / X) ** b - 1.0)
            )
            if X < m:
                log_accept += n_draw * n_draw / 2.0
            elif X > m + delta:
                log_accept += e_draw
        if log_accept > math.log(Z):
            stats.accepted += 1
            return X ** (-b)


def _aux_rv(rng, c1, xi, psi, gamma, sqrt_gamma, alpha, lam_alpha):
    """First-level auxiliary variable for double rejection (Devroye's U)."""
    while True:
        U = _aux2_rv(rng, c1, xi, psi, gamma, sqrt_gamma)
        if U >= math.pi:
            continue
        zeta = math.sqrt(_zolotarev_pdf_exponentiated(U, alpha))
        z = 1.0 / (1.0 - (1.0 + alpha * zeta / sqrt_gamma) ** (-1.0 / alpha))
        inv_accept = (
            math.pi
            * _safe_exp(-lam_alpha * (1.0 - 1.0 / (zeta * zeta)))
            / ((1.0 + c1) * sqrt_gamma / zeta + z)
        )
        d = 0.0
        if gamma >= 1.0:
            d += xi * _safe_exp(-gamma * U * U / 2.0)
        if 0.0 < U < math.pi:
            d += psi / math.sqrt(math.pi - U)
        if gamma < 1.0:
            d += xi
        inv_accept *= d
        if not inv_accept > 0.0 or math.isinf(inv_accept):
            continue
        Z = rng.random() * inv_accept
        if Z <= 1.0:
            return U, Z, z


def _aux2_rv(rng, c1, xi, psi, gamma, sqrt_gamma):
    """Second-level auxiliary proposal mixing a half-normal, uniform tails."""
    w1 = c1 * xi / sqrt_gamma
    w2 = 2.0 * math.sqrt(math.pi) * psi
    w3 = xi * math.pi
    v = rng.random()
    if gamma >= 1.0:
        if v < w1 / (w1 + w2):
            return abs(rng.standard_normal()) / sqrt_gamma
        w = rng.random()
        return math.pi * (1.0 - w * w)
    w = rng.random()
    if v < w3 / (w2 + w3):
        return math.pi * w
    return math.pi * (1.0 - w * w)
