"""Driving-noise generators: symmetric alpha-stable and tempered stable.

All increments are exact in distribution for the requested window length
``dt``; no path-level series truncation is involved.  Randomness has one
address: :class:`PathStreams` ``(master_seed, paths, stream)`` holds the
counter-based Philox streams of the given paths, one per path, keyed by
``(master_seed, path_index, stream)``, so every path owns a reproducible,
independent substream regardless of chunking or worker scheduling.  It
derives the keys of all its paths in one array pass.  A row being drawn
holds a generator from a small pool, which keeps the row's position, so the
samplers' rejection rounds return to a row without saving or loading a
state; only rows beyond the pool are suspended to a saved Philox state.
The samplers take a ``PathStreams`` and return one row per path, working
through the rows in blocks and drawing each row's variates from its own
stream, so a row does not depend on the other paths of the call:
:func:`levyem.engine.make_tape` draws a chunk's tape this way, block by
block with the streams kept open, and a one-path draw is
``PathStreams(seed, [p], stream)`` and row 0.

Conventions
-----------
* ``sample_alpha_stable(alpha, scale, dt, ...)`` returns increments of a
  symmetric alpha-stable process whose characteristic function is
  ``exp(-|scale * u|**alpha * dt)``; for ``alpha == 2`` this is N(0, 2 * scale**2 * dt).
* ``sample_tempered_stable`` returns increments of a symmetric exponentially
  tempered stable process built by Brownian subordination: ``X = scale * sqrt(T) * Z``
  with ``T`` an exponentially tilted ``alpha/2``-stable subordinator increment
  (tilt ``tempering**2 / 2``) and ``Z`` standard normal.  The small-jump
  activity index is ``alpha`` and the Levy density decays like
  ``exp(-tempering * |z|)`` in the unscaled variable, so every moment
  (polynomial and small exponential) is finite.
"""

from __future__ import annotations

import operator
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .tilted_stable import (
    BLOCK_ROWS,
    AcceptanceStats,
    row_blocks,
    tilted_stable_pieces,
    tilted_stable_rows,
)

__all__ = [
    "BROWNIAN_STREAM",
    "LEVY_STREAM",
    "AUX_STREAM",
    "NoiseSpec",
    "MomentConditionReport",
    "PathStreams",
    "make_rng",
    "sample_alpha_stable",
    "sample_tempered_stable",
    "sample_levy_increments",
    "increment_characteristic_function",
    "validate_moment_conditions",
]

BROWNIAN_STREAM = "brownian"
LEVY_STREAM = "levy"
AUX_STREAM = "aux"
_STREAM_CODES = {BROWNIAN_STREAM: 0, LEVY_STREAM: 1, AUX_STREAM: 2}
_MAX_PATH_INDEX = 2**32 - 1  # one 32-bit spawn-key word per path
# The most rows of one PathStreams that hold a generator at once: a sampler
# block's rows (at most BLOCK_ROWS) all do, so a block holds its rows'
# generators through its rejection rounds without saving a state.
_LIVE_ROWS = BLOCK_ROWS


# numpy's SeedSequence hash constants (NEP 19; numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _hashmix(value, hash_const):
    value = value ^ hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _philox_keys(master_seed: int, paths, stream: str):
    """Philox keys of the streams ``(master_seed, p, stream)`` for p in ``paths``.

    Equals ``SeedSequence(master_seed, spawn_key=(p, code)).generate_state(2,
    np.uint64)``: the entropy words are hashed into a pool of four 32-bit
    words and two 64-bit words are read off the pool.  The path words may be
    a Python int or a uint64 array, so one pass serves a single path and an
    array of paths alike (result ``shape + (2,)``).
    """
    master_seed = operator.index(master_seed)
    if master_seed < 0:
        raise ConfigurationError(f"master_seed must be >= 0, got {master_seed}")
    words = []
    while True:  # little-endian 32-bit words, at least one
        words.append(master_seed & _MASK32)
        master_seed >>= 32
        if not master_seed:
            break
    words += [0] * (_POOL_SIZE - len(words))  # a spawn key pads the run entropy
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL_SIZE:] + [paths, _STREAM_CODES[stream]]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    hash_const = _INIT_B
    state = []
    for word in pool:
        word = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const & _MASK32
        state.append(word ^ (word >> 16))
    keys = np.empty(np.shape(paths) + (2,), dtype=np.uint64)
    keys[..., 0] = state[0] | state[1] << 32
    keys[..., 1] = state[2] | state[3] << 32
    return keys


class PathStreams:
    """The streams ``(master_seed, p, stream)`` of the paths p in ``paths``, on pooled generators.

    ``stream`` is one of BROWNIAN_STREAM, LEVY_STREAM and AUX_STREAM.
    ``streams[r]`` returns row r's generator, which yields exactly what path
    ``paths[r]``'s own stream yields.  A row being drawn is live: it holds a
    generator of a pool of at most ``_LIVE_ROWS``, which carries its
    position, so returning to a live row reads and writes no state.  On
    first use a row takes a pooled generator and loads its key (a fresh
    stream) or its saved position.  Only when every pooled generator is in
    use is the least recently used live row suspended: its position is
    saved and its generator passes to the new row.  A row's generator is
    therefore valid while the row is live, that is until it is released or
    ``_LIVE_ROWS`` other rows have been used after it.  A row that is drawn
    from no more is ``release``d and its generator returns to the pool.
    While ``keep_open`` is set, a release keeps the row's position instead,
    so a later call continues every row where this one left it: a tape is
    drawn in blocks this way.
    """

    def __init__(self, master_seed: int, paths, stream: str):
        if stream not in _STREAM_CODES:
            raise ConfigurationError(
                f"unknown stream tag {stream!r}, expected one of {', '.join(_STREAM_CODES)}"
            )
        paths = np.asarray(paths, dtype=np.int64).ravel()
        if paths.size and not 0 <= paths.min() <= paths.max() <= _MAX_PATH_INDEX:
            raise ConfigurationError("path indices must lie in [0, 2**32)")
        self._keys = _philox_keys(master_seed, paths.astype(np.uint64), stream)
        generator = np.random.Generator(np.random.Philox(key=0))
        self._fresh = generator.bit_generator.state  # counter 0, empty buffer; only the key changes
        # as lists, which the state setter reads faster than arrays
        self._fresh["state"]["counter"] = self._fresh["state"]["counter"].tolist()
        self._fresh["buffer"] = self._fresh["buffer"].tolist()
        self._idle = [generator]
        self._live = OrderedDict()  # row -> generator, least recently used first
        self._saved = {}
        self.keep_open = False

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, row: int) -> np.random.Generator:
        generator = self._live.get(row)
        if generator is None:
            return self._open(row)
        self._live.move_to_end(row)
        return generator

    def _open(self, row: int) -> np.random.Generator:
        """Give row a pooled generator at the row's position."""
        if self._idle:
            generator = self._idle.pop()
        elif len(self._live) < _LIVE_ROWS:
            generator = np.random.Generator(np.random.Philox(key=0))
        else:
            suspended, generator = self._live.popitem(last=False)
            self._saved[suspended] = generator.bit_generator.state
        state = self._saved.pop(row, None)
        if state is None:
            state = self._fresh
            state["state"]["key"] = self._keys[row]
        generator.bit_generator.state = state
        self._live[row] = generator
        return generator

    def release(self, row: int) -> None:
        """Forget row's position: it is drawn from no more (kept while ``keep_open``)."""
        if self.keep_open:
            return
        generator = self._live.pop(row, None)
        if generator is None:
            self._saved.pop(row, None)
        else:
            self._idle.append(generator)


def make_rng(master_seed: int, path_index: int, stream: str) -> np.random.Generator:
    """The generator of one path's stream: row 0 of a one-path :class:`PathStreams`.

    Nothing in the package calls it; ``bench/tracing.py`` times it under this name.
    """
    return PathStreams(master_seed, [path_index], stream)[0]


_KINDS = ("none", "alpha_stable", "tempered_stable")


@dataclass(frozen=True)
class NoiseSpec:
    """Declares the driving noise of one model.

    ``gamma0`` (in [1, 2]) and ``gamma_inf`` (> 1) are the exponents under
    which the jump measure is supposed to have finite small-jump and
    large-jump moments; ``validate_moment_conditions`` checks whether the
    concrete jump family actually delivers them.
    """

    kind: str = "none"  # "none" | "alpha_stable" | "tempered_stable"
    alpha: float | None = None
    tempering: float | None = None
    scale: float = 1.0
    brownian_dim: int = 1  # 0 (no Brownian term) or 1 (one scalar Brownian driver)
    gamma0: float = 1.5
    gamma_inf: float = 4.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if not 1.0 <= self.gamma0 <= 2.0:
            raise ConfigurationError(f"gamma0 must lie in [1, 2], got {self.gamma0}")
        if not self.gamma_inf > 1.0:
            raise ConfigurationError(f"gamma_inf must be > 1, got {self.gamma_inf}")
        if self.brownian_dim not in (0, 1):
            raise ConfigurationError(
                f"brownian_dim must be 0 or 1 (the state is scalar), got {self.brownian_dim!r}"
            )
        if self.scale <= 0:
            raise ConfigurationError("scale must be > 0")
        if self.kind == "alpha_stable":
            if self.alpha is None or not 0.0 < self.alpha <= 2.0:
                raise ConfigurationError("alpha_stable needs alpha in (0, 2]")
        elif self.kind == "tempered_stable":
            if self.alpha is None or not 0.0 < self.alpha < 2.0:
                raise ConfigurationError("tempered_stable needs alpha in (0, 2)")
            if self.tempering is None or self.tempering <= 0.0:
                raise ConfigurationError("tempered_stable needs tempering > 0")

    @property
    def has_jumps(self) -> bool:
        return self.kind != "none"

    @property
    def heavy_tailed(self) -> bool:
        """True when second moments of the jump part do not exist."""
        return self.kind == "alpha_stable" and (self.alpha or 2.0) < 2.0


def _standard_symmetric_stable(alpha: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Chambers-Mallows-Stuck transform, characteristic function exp(-|u|**alpha).

    ``u`` ~ Uniform(-pi/2, pi/2) and ``w`` ~ Exp(1); clips ``w`` in place.
    """
    np.clip(w, 1e-300, None, out=w)
    if alpha == 1.0:
        return np.tan(u)
    return (
        np.sin(alpha * u)
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    )


def _check_window(scale: float, dt: float, n: int) -> None:
    if scale <= 0:
        raise ConfigurationError(f"scale must be > 0, got {scale}")
    if n <= 0:
        raise ConfigurationError(f"need n >= 1 increments, got {n}")
    if dt <= 0:
        raise ConfigurationError(f"need dt > 0, got {dt}")


def sample_alpha_stable(
    alpha: float, scale: float, dt: float, n: int, streams: PathStreams
) -> np.ndarray:
    """n symmetric alpha-stable increments over dt per stream, shape ``(len(streams), n)``.

    The CF of each increment is exp(-|scale*u|**alpha * dt).
    """
    if not 0.0 < alpha <= 2.0:
        raise ConfigurationError(f"alpha must lie in (0, 2], got {alpha}")
    _check_window(scale, dt, n)
    out = np.empty((len(streams), n))
    for lo, hi in row_blocks(len(streams), n):
        u = np.empty((hi - lo, n))
        w = np.empty((hi - lo, n))
        for i in range(hi - lo):
            rng = streams[lo + i]
            u[i] = rng.uniform(-np.pi / 2.0, np.pi / 2.0, n)
            rng.standard_exponential(out=w[i])
            streams.release(lo + i)
        out[lo:hi] = scale * dt ** (1.0 / alpha) * _standard_symmetric_stable(alpha, u, w)
    return out


def sample_tempered_stable(
    alpha: float,
    tempering: float,
    scale: float,
    dt: float,
    n: int,
    streams: PathStreams,
    with_stats: bool = False,
):
    """n symmetric tempered-stable increments over dt per stream (Brownian subordination).

    Each row draws its subordinator, then its Gaussian factors.  Returns the
    ``(len(streams), n)`` array, or ``(array, AcceptanceStats)`` when
    ``with_stats``.
    """
    if not 0.0 < alpha < 2.0:
        raise ConfigurationError(f"alpha must lie in (0, 2), got {alpha}")
    if tempering <= 0:
        raise ConfigurationError(f"tempering must be > 0, got {tempering}")
    _check_window(scale, dt, n)
    stats = AcceptanceStats()
    rho = alpha / 2.0
    tilt = tempering * tempering / 2.0
    pieces = tilted_stable_pieces(rho, tilt, dt)
    out = np.empty((len(streams), n))
    for lo, hi in row_blocks(len(streams), n * pieces):
        # a block has at most _LIVE_ROWS rows, so its generators stay valid throughout
        rngs = [streams[row] for row in range(lo, hi)]
        block = out[lo:hi]
        tilted_stable_rows(rho, tilt, dt, pieces, rngs, block, stats)
        z = np.empty_like(block)
        for rng, z_row in zip(rngs, z):
            rng.standard_normal(out=z_row)
        for row in range(lo, hi):
            streams.release(row)
        np.sqrt(block, out=block)
        block *= scale
        block *= z
    return (out, stats) if with_stats else out


def sample_levy_increments(
    spec: NoiseSpec, dt: float, n: int, streams: PathStreams, with_stats: bool = False
):
    """Dispatch on spec.kind, shape ``(len(streams), n)``; 'none' yields zeros."""
    if spec.kind == "tempered_stable":
        return sample_tempered_stable(
            spec.alpha, spec.tempering, spec.scale, dt, n, streams, with_stats=with_stats
        )
    if spec.kind == "alpha_stable":
        out = sample_alpha_stable(spec.alpha, spec.scale, dt, n, streams)
    else:
        out = np.zeros((len(streams), n))
    return (out, AcceptanceStats()) if with_stats else out


def increment_characteristic_function(spec: NoiseSpec, u, t: float) -> np.ndarray:
    """E exp(i*u*L_t) for the jump part of ``spec`` (complex array over u).

    Matches the increment constructions used by ``sample_levy_increments``:
    the tempered branch is the normal tempered-stable law obtained by Brownian
    subordination (subordinator stability alpha/2, tilt tempering**2/2).
    """
    u = np.asarray(u, dtype=float)
    if spec.kind == "none":
        return np.ones_like(u, dtype=complex)
    if spec.kind == "alpha_stable":
        return np.exp(-t * spec.scale ** spec.alpha * np.abs(u) ** spec.alpha) + 0j
    rho = spec.alpha / 2.0
    theta = spec.tempering ** 2 / 2.0
    s = (spec.scale * u) ** 2 / 2.0
    return np.exp(-t * ((s + theta) ** rho - theta ** rho)) + 0j


@dataclass
class MomentConditionReport:
    """Outcome of checking the declared (gamma0, gamma_inf) moment conditions."""

    kind: str
    gamma0: float
    gamma_inf: float
    small_jump_ok: bool
    small_jump_reason: str
    large_jump_ok: bool
    large_jump_reason: str

    @property
    def passed(self) -> bool:
        return self.small_jump_ok and self.large_jump_ok


def _small_jump_check(g0: float, alpha: float, strict: bool = True) -> tuple[bool, str]:
    if g0 > alpha:
        return True, f"|z|**({g0}) integrable near 0 against |z|**(-1-{alpha})"
    if g0 == alpha and not strict:
        # gamma0 is the infimum of the admissible moment exponents; declaring
        # the activity index itself is the conventional label for that infimum.
        return True, f"gamma0 = alpha = {alpha}: infimum-label convention, exponents above it are finite"
    return False, f"need gamma0 > alpha ({g0} vs {alpha}): small-jump integral diverges"


def validate_moment_conditions(spec: NoiseSpec) -> MomentConditionReport:
    """Check the small-jump gamma0 moment and large-jump gamma_inf moment.

    The small-jump condition asks for a finite integral of |z|**gamma0 near 0
    against the jump measure; the large-jump condition asks for a finite
    integral of |z|**gamma_inf over |z| >= 1.  Heavy-tailed (alpha-stable)
    drivers fail the latter for every gamma_inf >= alpha and are therefore
    only admissible in long-time distribution experiments, never in strong
    convergence runs.
    """
    g0, gi = spec.gamma0, spec.gamma_inf
    if spec.kind == "none":
        small = (True, "no jump component")
        large = (True, "no jump component")
    elif spec.kind == "tempered_stable":
        small = _small_jump_check(g0, spec.alpha, strict=False)
        large = (True, f"exponential tempering at rate {spec.tempering} gives all moments")
    else:  # alpha_stable
        if spec.alpha == 2.0:
            small = (True, "alpha=2 is Gaussian: no jump measure")
            large = (True, "alpha=2 is Gaussian: no jump measure")
        else:
            small = _small_jump_check(g0, spec.alpha)
            if gi < spec.alpha:
                large = (True, f"gamma_inf={gi} < alpha={spec.alpha}")
            else:
                large = (
                    False,
                    f"stable tail index {spec.alpha}: |z|**({gi}) not integrable at infinity "
                    "(driver admissible only for invariant-measure experiments)",
                )
    return MomentConditionReport(
        kind=spec.kind,
        gamma0=g0,
        gamma_inf=gi,
        small_jump_ok=small[0],
        small_jump_reason=small[1],
        large_jump_ok=large[0],
        large_jump_reason=large[1],
    )
