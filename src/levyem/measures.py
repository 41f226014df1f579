"""Empirical-distribution analytics for long-time behaviour.

Snapshots of the ensemble at selected times are compared against a reference
law — either a symmetric stable distribution known in closed form (the
Ornstein-Uhlenbeck example has stationary law S(2*(1/(2*alpha))**(1/alpha), 0, 0))
or a late-time empirical snapshot when no analytic form exists.  Comparisons
use the two-sample Kolmogorov-Smirnov statistic and the k-Wasserstein distance
with concave cost |u - v|**k, k in (0, 1], whose optimal one-dimensional
coupling is the sorted (monotone) pairing.

The stable reference is realised by sampling (10x the snapshot size by
default) rather than by numerical inversion of the characteristic function;
sampler correctness is established independently by the noise-module tests.
An empirical snapshot is its own reference sample, so every comparison is
between two samples of the same size; a size mismatch raises.

Each snapshot's density is a histogram over its central 99% (``density_curve``):
128 bins between the 0.5% and 99.5% order statistics, normalised by the whole
sample, so the bins integrate to one minus the share of paths outside the
range, which is returned with them.  Clipping at order statistics keeps the
bins at the law's own scale however heavy its tails; a kernel estimate on the
full span would spread its grid and bandwidth over the few extreme paths.

The KS test of two samples of one size n <= 10,000, which is every test
against an empirical snapshot, is computed here: the statistic by the
bootstrap folds' scorer and the exact two-sided p-value by Hodges' recursion
(Arkiv för Matematik 3, 1958), as scipy's ``ks_2samp(method="auto")`` computes
both, float for float.  scipy serves only the other size pairs, whose
p-values are asymptotic (``kstwo.sf``): ``stats`` (scipy.stats) is imported on
its first use, for an analytic reference or an exact p-value outside [0, 1],
so that ``import levyem``, pool workers, convergence runs and law runs
against a snapshot load numpy alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .engine import simulate_ensemble
from .errors import ConfigurationError
from .model import SdeProblem, coupling_envelope
from .noise import LEVY_STREAM, PathStreams, sample_alpha_stable

__all__ = [
    "EmpiricalMeasure",
    "StationaryReference",
    "ou_stationary_scale",
    "wasserstein_k",
    "ks_statistic",
    "evolve_empirical_law",
    "invariant_convergence_report",
    "InvariantReport",
    "InvariantRow",
    "two_initial_value_coupling",
    "CouplingDecay",
    "density_curve",
]

_BOOTSTRAP_FOLDS = 20
_REFERENCE_FACTOR = 10
_REFERENCE_MIN = 1_000_000
_REFERENCE_SEED = 977  # the analytic reference's sample stream
# Freedman-Diaconis widths of paper-5.3's 1e4-path snapshots give 126-146 bins
# over the clipped range (Z. Wahrscheinlichkeitstheorie verw. Gebiete 57, 1981)
_DENSITY_BINS = 128
_DENSITY_CLIP = 0.005  # share of the sample left outside the range, on each side
_KS_EXACT_MAX_N = 10_000  # ks_2samp(method="auto") is exact when both sizes are <= this


def __getattr__(name):
    """``stats`` is scipy.stats, imported on first use (PEP 562)."""
    if name == "stats":
        from scipy import stats

        globals()["stats"] = stats
        return stats
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _stats():
    """scipy.stats, read through this module's ``stats`` attribute."""
    return sys.modules[__name__].stats


def _reference_size(ref_kind: str, n: int) -> int:
    """Analytic references use a large sample: >= 10x the snapshot, >= 1e6."""
    if ref_kind == "analytic_stable":
        return max(_REFERENCE_FACTOR * n, _REFERENCE_MIN)
    return n


@dataclass(frozen=True)
class EmpiricalMeasure:
    """A sorted scalar sample with its observation time."""

    values: np.ndarray
    t: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ConfigurationError("an empirical measure needs a 1-d sample with n >= 2")
        if np.any(np.diff(values) < 0):
            values = np.sort(values)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.size


def ou_stationary_scale(alpha: float, noise_scale: float = 2.0) -> float:
    """Stationary stable scale of dX = -2X dt + noise_scale dL, L standard alpha-stable.

    For mean-reversion rate a and driver scale s the stationary law is
    S(s * (1/(a*alpha))**(1/alpha), 0, 0); with a = 2, s = 2 and alpha = 1.5
    this evaluates to 0.96150.
    """
    return noise_scale * (1.0 / (2.0 * alpha)) ** (1.0 / alpha)


@dataclass
class StationaryReference:
    """Analytic stable law (via a large calibrated sample) or an empirical snapshot."""

    kind: str  # "analytic_stable" | "empirical_snapshot"
    alpha: float = 0.0
    scale: float = 0.0
    snapshot: EmpiricalMeasure | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.kind == "analytic_stable":
            if not 0.0 < self.alpha <= 2.0:
                raise ConfigurationError(f"alpha must lie in (0,2], got {self.alpha}")
            if self.scale <= 0.0:
                raise ConfigurationError(f"scale must be positive, got {self.scale}")
        elif self.kind == "empirical_snapshot":
            if self.snapshot is None:
                raise ConfigurationError("empirical_snapshot reference needs a snapshot")
            if float(np.ptp(self.snapshot.values)) == 0.0:
                raise ConfigurationError("degenerate reference: snapshot has zero spread")
        else:
            raise ConfigurationError(f"unknown reference kind {self.kind!r}")

    def sample(self, n: int) -> np.ndarray:
        """A sorted reference sample of size n.

        The analytic law is sampled with a fixed seed and cached per size; an
        empirical snapshot is returned as it is, and only for n equal to its size.
        """
        if self.kind == "empirical_snapshot":
            if self.snapshot.n != n:
                raise ConfigurationError(
                    f"snapshot reference has {self.snapshot.n} points, asked for {n}"
                )
            return self.snapshot.values
        if n not in self._cache:
            streams = PathStreams(_REFERENCE_SEED, [0], LEVY_STREAM)
            draw = sample_alpha_stable(self.alpha, self.scale, 1.0, n, streams)[0]
            self._cache[n] = np.sort(draw)
        return self._cache[n]


def _as_sorted_values(sample) -> np.ndarray:
    values = sample.values if isinstance(sample, EmpiricalMeasure) else np.asarray(sample, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ConfigurationError("wasserstein_k needs non-empty 1-d samples")
    return np.sort(values)


def wasserstein_k(a, b, k: float = 1.0) -> float:
    """W_k(a, b) = mean |a_(i) - b_(i)|**k over order statistics (k in (0,1]).

    Accepts EmpiricalMeasure or raw 1-d samples of the same size.
    """
    xs, ys = _as_sorted_values(a), _as_sorted_values(b)
    if xs.size != ys.size:
        raise ConfigurationError(f"wasserstein_k needs equal sizes, got {xs.size} and {ys.size}")
    return _sorted_wasserstein(xs, ys, k)


def _sorted_wasserstein(xs: np.ndarray, ys: np.ndarray, k: float) -> float:
    """``wasserstein_k`` of two sorted samples of one size, which it does not sort again."""
    if not 0.0 < k <= 1.0:
        raise ConfigurationError(f"k must lie in (0,1], got {k}")
    return float(np.mean(np.abs(xs - ys) ** k))


def _prob_outside_square(n: int, h: int) -> float:
    """Pr(D_{n,n} >= h/n): the exact two-sided p-value of two samples of size n.

    Ported from scipy's ``scipy.stats._stats_py._compute_prob_outside_square``
    (BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc. and 2003 SciPy
    Developers), which follows Hodges (1958).  The alternating sum
    2 * (C(2n, n-h) - C(2n, n-2h) + ...) / C(2n, n) is evaluated term over
    term as 2 * A0 * (1 - A1 * (1 - A2 * ...)), Horner-like, which avoids its
    cancellation.  ``n // h`` is scipy's ``int(np.floor(n / h))``.

    A term leaves its ``j`` loop once it is +-0, which every later factor
    keeps: only the sign of that zero could differ, and it cannot reach the
    result, since ``0 * (1 - prob)`` only passes a +-0 on to the next term's
    ``1 - prob`` and the last term (k = 0) has positive factors alone (h <= n).
    """
    prob = 0.0
    k = n // h
    while k >= 0:
        term = 1.0
        for j in range(h):
            term = (n - k * h - j) * term / (n + k * h + j + 1)
            if term == 0.0:
                break
        prob = term * (1.0 - prob)
        k -= 1
    return 2 * prob


def ks_statistic(a: EmpiricalMeasure, ref: StationaryReference) -> tuple[float, float]:
    """Two-sample KS distance and p-value of the snapshot against the reference.

    Equal sizes up to ``_KS_EXACT_MAX_N`` are scored here, other sizes by
    scipy's ``ks_2samp``; both give scipy's ``method="auto"`` floats.
    """
    ref_sample = ref.sample(_reference_size(ref.kind, a.n))
    return _ks_test(a.values, ref_sample, _ks_fold_scorer(a.values, ref_sample))


def _ks_test(values: np.ndarray, ref_sample: np.ndarray, scorer) -> tuple[float, float]:
    """``ks_statistic`` of two sorted samples, given their ``_ks_fold_scorer``."""
    n = values.size
    if ref_sample.size == n <= _KS_EXACT_MAX_N:
        d = scorer(np.ones(n, dtype=np.int64))
        h = round(d * n)
        p = _prob_outside_square(n, h) if h else 1.0
        if 0.0 <= p <= 1.0:  # outside, scipy's auto mode falls back to kstwo.sf
            return d, p
    result = _stats().ks_2samp(values, ref_sample, method="auto")
    return float(result.statistic), float(result.pvalue)


def evolve_empirical_law(
    problem: SdeProblem,
    dt: float,
    n_paths: int,
    checkpoints,
    seed: int,
    workers: int = 1,
) -> list[EmpiricalMeasure]:
    """Ensemble snapshots at each checkpoint time from a single run."""
    checkpoints = sorted(float(t) for t in checkpoints)
    if not checkpoints:
        raise ConfigurationError("need at least one checkpoint")
    result = simulate_ensemble(
        problem, dt, n_paths, seed, checkpoints=checkpoints, workers=workers
    )
    return [EmpiricalMeasure(values=result.checkpoints[t], t=t) for t in checkpoints]


def _ks_fold_scorer(values: np.ndarray, ref_sample: np.ndarray):
    """``counts -> ks_2samp(np.repeat(values, counts), ref_sample).statistic`` in O(n).

    ``values`` and ``ref_sample`` are sorted, and ``counts[i]`` is how often
    a resample holds ``values[i]``.  Between two resampled points the resample's CDF is flat,
    so the largest gap above the reference's CDF is at a point and the
    largest gap below it is just under one.  The reference is therefore
    searched once, here, at every point of ``values`` and just under it; a
    call needs only the resample's cumulative counts.  The result is
    scipy's float exactly: the same quotients, and in its exact mode the
    same rounding to a multiple of 1/lcm(n1, n2).
    """
    n1, n2 = values.size, ref_sample.size
    tie_start = np.searchsorted(values, values, side="left")
    tie_end = np.searchsorted(values, values, side="right")
    ref_at = np.searchsorted(ref_sample, values, side="right") / n2
    ref_under = np.searchsorted(ref_sample, values, side="left") / n2
    lcm = (n1 // math.gcd(n1, n2)) * n2 if max(n1, n2) <= _KS_EXACT_MAX_N else None

    def score(counts: np.ndarray) -> float:
        cumulative = np.concatenate(([0], np.cumsum(counts)))
        at = cumulative[tie_end] / n1 - ref_at
        under = cumulative[tie_start] / n1 - ref_under
        max_s = max(at.max(), under.max())
        min_s = np.clip(-min(at.min(), under.min()), 0, 1)
        d = min_s if min_s > max_s else max_s
        if lcm is not None:
            d = np.round(d * lcm) / lcm
        return float(d)

    return score


def _bootstrap_stderr(values: np.ndarray, statistic, seed: int) -> float:
    """Path-bootstrap standard error of a statistic of one sorted sample.

    Each fold draws ``values.size`` indices with replacement, as
    ``rng.choice(values, values.size)`` would, and passes ``statistic`` the
    fold's counts: ``counts[i]`` copies of ``values[i]``.
    """
    rng = np.random.default_rng(seed)
    n = values.size
    reps = np.empty(_BOOTSTRAP_FOLDS)
    for j in range(_BOOTSTRAP_FOLDS):
        reps[j] = statistic(np.bincount(rng.integers(0, n, n), minlength=n))
    return float(np.std(reps, ddof=1))


@dataclass
class InvariantRow:
    t: float
    ks: float
    p_value: float
    ks_stderr: float
    wasserstein: float
    w_stderr: float


@dataclass
class InvariantReport:
    rows: list[InvariantRow]
    k: float
    ks_decreasing: bool
    wasserstein_decreasing: bool
    final_p_value: float


def _decreasing_with_slack(values, stderrs) -> bool:
    for j in range(len(values) - 1):
        slack = 3.0 * float(np.hypot(stderrs[j], stderrs[j + 1]))
        if not values[j + 1] < values[j] + slack:
            return False
    return True


def invariant_convergence_report(
    snapshots: list[EmpiricalMeasure],
    ref: StationaryReference,
    k: float = 1.0,
    bootstrap_seed: int = 5150,
) -> InvariantReport:
    """Distance-to-reference table over time, with decreasing-trend flags."""
    if not snapshots:
        raise ConfigurationError("need at least one snapshot")
    snapshots = sorted(snapshots, key=lambda m: m.t)
    rows = []
    for i, snap in enumerate(snapshots):
        # every sample here is sorted: a snapshot, a reference sample and a
        # fold's np.repeat of the snapshot
        ks_ref = ref.sample(_reference_size(ref.kind, snap.n))
        ks_scorer = _ks_fold_scorer(snap.values, ks_ref)
        ks, p = _ks_test(snap.values, ks_ref, ks_scorer)
        w_ref = ref.sample(snap.n)
        w = _sorted_wasserstein(snap.values, w_ref, k)
        ks_se = _bootstrap_stderr(snap.values, ks_scorer, bootstrap_seed + 2 * i)
        w_se = _bootstrap_stderr(
            snap.values,
            lambda counts: _sorted_wasserstein(np.repeat(snap.values, counts), w_ref, k),
            bootstrap_seed + 2 * i + 1,
        )
        rows.append(
            InvariantRow(
                t=snap.t, ks=ks, p_value=p, ks_stderr=ks_se, wasserstein=w, w_stderr=w_se
            )
        )
    return InvariantReport(
        rows=rows,
        k=k,
        ks_decreasing=_decreasing_with_slack([r.ks for r in rows], [r.ks_stderr for r in rows]),
        wasserstein_decreasing=_decreasing_with_slack(
            [r.wasserstein for r in rows], [r.w_stderr for r in rows]
        ),
        final_p_value=rows[-1].p_value,
    )


@dataclass
class CouplingDecay:
    """Coupled two-start decay curve with its analytic envelope."""

    dt: float
    n_paths: int
    mean_sq_gap: np.ndarray  # (n_steps + 1,)
    stderr: np.ndarray
    envelope: np.ndarray

    @property
    def within_envelope(self) -> bool:
        return bool(np.all(self.mean_sq_gap <= self.envelope + 3.0 * self.stderr))


def two_initial_value_coupling(
    problem: SdeProblem,
    dt: float,
    x0_a: float,
    x0_b: float,
    n_paths: int,
    n_steps: int,
    seed: int,
    workers: int = 1,
) -> CouplingDecay:
    """E|X_i^a - X_i^b|^2 under shared noise, with the Q3^i envelope."""
    from .engine import coupling_curve

    curve = coupling_curve(problem, (x0_a, x0_b), dt, n_steps, n_paths, seed, workers=workers)
    sep_sq = (x0_a - x0_b) ** 2
    envelope = coupling_envelope(problem, dt, n_steps, sep_sq)
    return CouplingDecay(
        dt=dt,
        n_paths=curve.n_paths,
        mean_sq_gap=curve.mean,
        stderr=curve.stderr,
        envelope=envelope,
    )


def density_curve(measure: EmpiricalMeasure):
    """Histogram density between the snapshot's 0.5% and 99.5% order statistics.

    Returns (centres, density, tail_mass): the bin centres, the density of each
    bin as its share of all n paths over its width, and the share of paths
    outside the range, so that ``sum(density * width) + tail_mass == 1``.  A
    sample with no spread there gets a unit-wide range around its value.
    """
    values, n = measure.values, measure.n
    k = int(_DENSITY_CLIP * n)
    lo, hi = float(values[k]), float(values[n - 1 - k])
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(values, bins=_DENSITY_BINS, range=(lo, hi))
    centres = 0.5 * (edges[:-1] + edges[1:])
    return centres, counts / (n * np.diff(edges)), (n - int(counts.sum())) / n
