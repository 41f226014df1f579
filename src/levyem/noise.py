"""Driving-noise generators: symmetric alpha-stable and tempered stable.

All increments are exact in distribution for the requested window length
``dt``; no path-level series truncation is involved.  Randomness is drawn from
counter-based Philox streams keyed by ``(master_seed, path_index, stream)`` so
that every path owns reproducible, independent substreams regardless of
chunking or worker scheduling.  Brownian increments are drawn inline by
:func:`levyem.engine.make_tape` from each path's ``"brownian"`` stream.

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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .tilted_stable import AcceptanceStats, sample_tilted_stable

__all__ = [
    "BROWNIAN_STREAM",
    "LEVY_STREAM",
    "AUX_STREAM",
    "SeedPolicy",
    "NoiseSpec",
    "MomentConditionReport",
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


@dataclass(frozen=True)
class SeedPolicy:
    """Addresses one reproducible random substream.

    The triple is mapped to a numpy ``SeedSequence`` spawn key, so distinct
    ``(master_seed, path_index, stream)`` triples give statistically
    independent Philox streams.
    """

    master_seed: int
    path_index: int = 0
    stream: str = LEVY_STREAM

    def __post_init__(self):
        if self.stream not in _STREAM_CODES:
            raise ConfigurationError(f"unknown stream tag {self.stream!r}")
        if self.path_index < 0:
            raise ConfigurationError("path_index must be >= 0")


def make_rng(seed: "SeedPolicy | int") -> np.random.Generator:
    """Build the Philox generator addressed by a SeedPolicy (or bare master seed)."""
    if isinstance(seed, int):
        seed = SeedPolicy(seed)
    ss = np.random.SeedSequence(
        seed.master_seed, spawn_key=(seed.path_index, _STREAM_CODES[seed.stream])
    )
    return np.random.Generator(np.random.Philox(ss))


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


def _standard_symmetric_stable(alpha: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Chambers-Mallows-Stuck draw, characteristic function exp(-|u|**alpha)."""
    u = rng.uniform(-np.pi / 2.0, np.pi / 2.0, n)
    w = rng.standard_exponential(n)
    np.clip(w, 1e-300, None, out=w)
    if alpha == 1.0:
        return np.tan(u)
    return (
        np.sin(alpha * u)
        / np.cos(u) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    )


def sample_alpha_stable(alpha: float, scale: float, dt: float, n: int, seed) -> np.ndarray:
    """n symmetric alpha-stable increments over dt; CF exp(-|scale*u|**alpha * dt)."""
    if not 0.0 < alpha <= 2.0:
        raise ConfigurationError(f"alpha must lie in (0, 2], got {alpha}")
    if scale <= 0:
        raise ConfigurationError(f"scale must be > 0, got {scale}")
    if n <= 0:
        raise ConfigurationError(f"need n >= 1 increments, got {n}")
    if dt <= 0:
        raise ConfigurationError(f"need dt > 0, got {dt}")
    rng = make_rng(seed)
    return scale * dt ** (1.0 / alpha) * _standard_symmetric_stable(alpha, n, rng)


def sample_tempered_stable(
    alpha: float,
    tempering: float,
    scale: float,
    dt: float,
    n: int,
    seed,
    with_stats: bool = False,
):
    """n symmetric tempered-stable increments over dt (Brownian subordination).

    Returns the array, or ``(array, AcceptanceStats)`` when ``with_stats``.
    """
    if not 0.0 < alpha < 2.0:
        raise ConfigurationError(f"alpha must lie in (0, 2), got {alpha}")
    if tempering <= 0:
        raise ConfigurationError(f"tempering must be > 0, got {tempering}")
    if scale <= 0:
        raise ConfigurationError(f"scale must be > 0, got {scale}")
    if n <= 0:
        raise ConfigurationError(f"need n >= 1 increments, got {n}")
    if dt <= 0:
        raise ConfigurationError(f"need dt > 0, got {dt}")
    rng = make_rng(seed)
    stats = AcceptanceStats()
    rho = alpha / 2.0
    tilt = tempering * tempering / 2.0
    subordinator = sample_tilted_stable(rho, tilt, dt, n, rng, stats=stats)
    values = scale * np.sqrt(subordinator) * rng.standard_normal(n)
    if with_stats:
        return values, stats
    return values


def sample_levy_increments(spec: NoiseSpec, dt: float, n: int, seed, with_stats: bool = False):
    """Dispatch on spec.kind; 'none' yields zeros."""
    if spec.kind == "none":
        out = np.zeros(n)
        return (out, AcceptanceStats()) if with_stats else out
    if spec.kind == "alpha_stable":
        out = sample_alpha_stable(spec.alpha, spec.scale, dt, n, seed)
        return (out, AcceptanceStats()) if with_stats else out
    return sample_tempered_stable(
        spec.alpha, spec.tempering, spec.scale, dt, n, seed, with_stats=with_stats
    )


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
