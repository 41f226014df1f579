"""Exact sampling of exponentially tilted one-sided stable increments.

The target law is the increment, over a time window ``h``, of the subordinator
with Laplace transform

    E exp(-s T_h) = exp(-h * ((s + tilt)**rho - tilt**rho)),   rho in (0, 1), tilt > 0,

i.e. the stable subordinator with ``E exp(-s T_h) = exp(-h s**rho)`` whose Levy
measure is damped by ``exp(-tilt * x)``.

One exact sampler serves every window: the divide-and-conquer rejection of
Hofert (2011).  The window is split into ``P = ceil(h * tilt**rho)`` pieces;
each piece proposes a stable draw by Kanter's representation and keeps it
with probability ``exp(-tilt * draw)``, which accepts on average with
probability ``exp(-(h / P) * tilt**rho) >= exp(-1)``.  The work grows like
``P``, so a draw may take at most ``_MAX_PARTITION`` pieces; a tilt and window
that need more raise :class:`~levyem.errors.ConfigurationError`.

Kanter's draw from U ~ Uniform(0, pi) and E ~ Exp(1) is
``(A(U) / E)**((1 - rho) / rho)`` with
``A(u) = (sin(rho u)**rho sin((1 - rho) u)**(1 - rho) / sin u)**(1 / (1 - rho))``.
It is computed with one power, as ``(s1 / s0) * (s2 / (E s0))**((1 - rho) / rho)``
where ``s0 = sin U``, ``s1 = sin(rho U)`` and ``s2 = sin((1 - rho) U)``.  Each
sine of an angle x in (0, pi) is taken from the tangent of its half angle,
``sin x = 2t / (1 + t**2)`` with ``t = tan(x / 2)``: that form has no
cancellation (t is at most about 2e9 at the clip ``U <= pi - 1e-9``), and
numpy vectorises ``tan`` on float64 where its ``sin`` may run a scalar loop,
several times slower per element.  The draw is within a few ulp of the
sine form's.

``tilted_stable_rows`` draws a block of rows, one generator per row, each
row's variates in the order a one-row call would draw them.  A caller takes
its blocks from ``row_blocks``, at most BLOCK_CELLS rejection cells and
BLOCK_ROWS rows, and holds every row's generator for the whole block.

References
----------
M. Kanter (1975), "Stable densities under change of scale and total variation
inequalities".
M. Hofert (2011), "Sampling exponentially tilted stable distributions".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "AcceptanceStats",
    "row_blocks",
    "tilted_stable_pieces",
    "tilted_stable_rows",
]

# The most divide-and-conquer pieces one draw may take.  Tempering 1 at the
# catalog's time steps needs one piece, and at the sampler-validation times
# up to 2 it needs two.
_MAX_PARTITION = 64
# Cells drawn at once by the row samplers.  A block holds a few arrays of this
# many float64 values, so it bounds their working memory (at least one row).
BLOCK_CELLS = 2**13
# The most rows in one block.  A block fetches its rows' generators once
# (``PathStreams.rows``) and holds them through its rejection rounds, and a
# ``PathStreams`` builds as many generators as its largest block has rows.
BLOCK_ROWS = 64


def row_blocks(n_rows: int, cells_per_row: int) -> list[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` row ranges of at most BLOCK_ROWS rows and BLOCK_CELLS cells.

    A block holds at least one row, however many cells it has.
    """
    step = max(1, min(BLOCK_ROWS, BLOCK_CELLS // max(1, cells_per_row)))
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


def _half_sine(u: np.ndarray, c: float, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """sin(c * u) / 2 into ``out`` for c*u in (0, pi), from t = tan(c*u / 2): t / (1 + t**2)."""
    np.multiply(u, 0.5 * c, out=out)
    np.tan(out, out=out)
    np.multiply(out, out, out=work)
    work += 1.0
    return np.divide(out, work, out=out)


def _kanter(u: np.ndarray, e: np.ndarray, rho: float) -> np.ndarray:
    """(A(U) / E)**((1 - rho) / rho) from U ~ Uniform(0, pi) and E ~ Exp(1), into ``e``.

    With s0 = sin U, s1 = sin(rho U) and s2 = sin((1 - rho) U) this is
    (s1 / s0) * (s2 / (E s0))**((1 - rho) / rho): one power.  Each sine is
    taken from the tangent of its half angle (``_half_sine``; the halves
    cancel in both ratios).  Clips ``u`` and overwrites it.
    """
    # Guard against the measure-zero endpoints where A(u) is 0/0.
    np.clip(u, 1e-9, np.pi - 1e-9, out=u)
    work = np.empty_like(u)
    s0 = _half_sine(u, 1.0, np.empty_like(u), work)
    s1 = _half_sine(u, rho, np.empty_like(u), work)
    s2 = _half_sine(u, 1.0 - rho, u, work)
    e *= s0
    np.divide(s2, e, out=e)
    np.power(e, (1.0 - rho) / rho, out=e)
    np.divide(s1, s0, out=s1)
    e *= s1
    return e


def tilted_stable_pieces(rho: float, tilt: float, horizon: float) -> int:
    """The divide-and-conquer pieces of one draw; checks the arguments and the cap."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"stability index rho must lie in (0, 1), got {rho}")
    if tilt <= 0.0:
        raise ValueError(f"tilt must be > 0, got {tilt}")
    if horizon <= 0.0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    pieces = max(1, math.ceil(horizon * tilt**rho))
    if pieces > _MAX_PARTITION:
        raise ConfigurationError(
            f"tilt {tilt:g} over a window of {horizon:g} needs {pieces} pieces per draw, "
            f"above the cap of {_MAX_PARTITION}; for tempered noise the tilt is tempering**2 / 2 "
            "and the window is dt, so lower the tempering or dt"
        )
    return pieces


def tilted_stable_rows(
    rho: float,
    tilt: float,
    horizon: float,
    pieces: int,
    rngs,
    out: np.ndarray,
    stats: AcceptanceStats,
) -> None:
    """Piecewise rejection into ``out[i]`` from ``rngs[i]``: keep c*S with chance exp(-tilt*c*S).

    ``out`` is ``(len(rngs), size)``, and each increment is the sum of
    ``pieces`` kept draws (``tilted_stable_pieces``).  Each round draws, for
    every row with pending cells, the Kanter uniforms and exponentials and
    the acceptance uniforms from that row's generator, then transforms and
    tests all of the round's cells at once; the first round's cells are
    every row's, in row order.
    """
    rows, size = out.shape
    piece_scale = (horizon / pieces) ** (1.0 / rho)
    cells = size * pieces
    values = np.empty(rows * cells)
    pending = None  # the flat cells still to draw, ordered by row; None: all of them
    counts = [cells] * rows
    # Per-cell acceptance probability is exp(-(h/P) * tilt**rho) >= exp(-1),
    # so the pending set shrinks geometrically; 500 rounds is unreachable.
    for _ in range(500):
        n = rows * cells if pending is None else pending.size
        u = np.empty(n)
        e = np.empty(n)
        v = np.empty(n)
        at = 0
        for rng, k in zip(rngs, counts):
            if k:
                rng.random(out=u[at:at + k])
                rng.standard_exponential(out=e[at:at + k])
                rng.random(out=v[at:at + k])
                at += k
        u *= np.pi  # the floats of rng.uniform(0, pi): 0 + pi * d
        draw = _kanter(u, e, rho)
        draw *= piece_scale
        stats.proposed += n
        np.multiply(draw, -tilt, out=u)
        keep = v < np.exp(u, out=u)
        if pending is None:
            np.copyto(values, draw, where=keep)
            pending = np.flatnonzero(~keep)
        else:
            values[pending[keep]] = draw[keep]
            pending = pending[~keep]
        stats.accepted += n - pending.size
        if pending.size == 0:
            break
        counts = np.bincount(pending // cells, minlength=rows).tolist()
    else:  # pragma: no cover - probabilistically unreachable
        raise RuntimeError("divide-and-conquer rejection failed to terminate")
    values.reshape(rows, size, pieces).sum(axis=2, out=out)
