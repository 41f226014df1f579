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

References
----------
M. Kanter (1975), "Stable densities under change of scale and total variation
inequalities".
M. Hofert (2011), "Sampling exponentially tilted stable distributions".
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "AcceptanceStats",
    "tilted_stable_blocks",
]

# The most divide-and-conquer pieces one draw may take.  Tempering 1 at the
# catalog's time steps needs one piece, and at the sampler-validation times
# up to 2 it needs two.
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


def tilted_stable_blocks(
    rho: float,
    tilt: float,
    horizon: float,
    size: int,
    streams,
    stats: AcceptanceStats | None = None,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """``size`` tilted-subordinator increments from each stream, block by block.

    ``streams`` is a :class:`levyem.noise.PathStreams`; each row's draws
    come from its own stream in the order a one-row call would make them.
    Returns an iterator of ``(lo, hi, values)``, ``values`` being the
    ``(hi - lo, size)`` draws of rows lo..hi-1; a block holds at most
    BLOCK_CELLS rejection cells (or one row) and is drawn when the iterator
    reaches it, so consuming one block at a time bounds the memory.  The arguments are checked, and the pieces
    counted against _MAX_PARTITION, before the iterator is returned.
    """
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
    if stats is None:
        stats = AcceptanceStats()
    return _divide_and_conquer(rho, tilt, horizon, pieces, size, streams, stats)


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
                    rng.random(out=u[at:at + k])
                    rng.standard_exponential(out=e[at:at + k])
                    rng.random(out=v[at:at + k])
                    at += k
            u *= np.pi  # the floats of rng.uniform(0, pi): 0 + pi * d
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
