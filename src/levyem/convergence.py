"""Strong-error tables and empirical convergence orders.

The error of a coarse run is measured against the finest-grid run on the same
increment tape, so the table estimates E|Y_ref(T) - Y_dt(T)|^2 — an error
relative to the fine reference, not to the (unavailable) exact solution.
The fitted order is the least-squares slope of log2(rmse) against log2(dt).

The theory predicts the order is at least min(gamma1, gamma2, 1/2) with a
Brownian component and min(gamma1, 1/gamma0) without one
(:func:`predicted_order`); measured slopes may exceed these guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import strong_error_run
from .errors import ConfigurationError
from .model import AssumptionConstants, SdeProblem
from .noise import NoiseSpec

__all__ = [
    "ErrorRow",
    "ErrorTable",
    "OrderFit",
    "strong_error_table",
    "fit_order",
    "predicted_order",
]

_MIN_PATHS = 100


@dataclass(frozen=True)
class ErrorRow:
    dt: float
    mse: float
    stderr: float
    n_paths: int

    def __post_init__(self):
        if self.dt <= 0 or self.n_paths <= 0:
            raise ConfigurationError("dt and n_paths must be positive")
        if self.mse < 0 or self.stderr < 0:
            raise ConfigurationError("mse and stderr must be nonnegative")

    @property
    def rmse(self) -> float:
        return math.sqrt(self.mse)


@dataclass
class ErrorTable:
    rows: list[ErrorRow]
    reference_dt: float

    def __post_init__(self):
        dts = [r.dt for r in self.rows]
        if any(b >= a for a, b in zip(dts, dts[1:])):
            raise ConfigurationError("rows must have strictly decreasing dt")
        for d in dts:
            ratio = d / self.reference_dt
            if abs(ratio - round(ratio)) > 1e-9 * ratio:
                raise ConfigurationError(
                    f"dt={d} is not an integer multiple of reference_dt={self.reference_dt}"
                )


@dataclass(frozen=True)
class OrderFit:
    slope: float
    intercept: float
    r_squared: float
    slope_ci: tuple[float, float]

    def __post_init__(self):
        if not 0.0 <= self.r_squared <= 1.0:
            raise ConfigurationError(f"r_squared must lie in [0,1], got {self.r_squared}")


def strong_error_table(
    problem: SdeProblem,
    dt_list,
    reference_dt: float,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> ErrorTable:
    """Coupled mean-square errors at t = T for each dt against the reference."""
    if n_paths < _MIN_PATHS:
        raise ConfigurationError(f"need at least {_MIN_PATHS} paths, got {n_paths}")
    if problem.noise.heavy_tailed:
        raise ConfigurationError(
            "driver lacks the large-jump moment required by the strong convergence theory; "
            "alpha-stable noise is admissible only in invariant-measure experiments"
        )
    run = strong_error_run(problem, dt_list, reference_dt, n_paths, seed, workers=workers)
    rows = []
    for d in sorted(run.errors, reverse=True):
        sq = run.errors[d] ** 2
        mse = float(np.mean(sq))
        stderr = float(np.std(sq, ddof=1) / np.sqrt(sq.size)) if sq.size > 1 else 0.0
        rows.append(ErrorRow(dt=float(d), mse=mse, stderr=stderr, n_paths=int(sq.size)))
    return ErrorTable(rows=rows, reference_dt=reference_dt)


def fit_order(table: ErrorTable) -> OrderFit:
    """OLS slope of log2(rmse) on log2(dt), with a propagated 95% CI."""
    if len(table.rows) < 3:
        raise ConfigurationError("order fit needs at least 3 rows")
    if any(r.mse <= 0 for r in table.rows):
        raise ConfigurationError("order fit needs strictly positive mse in every row")
    x = np.array([math.log2(r.dt) for r in table.rows])
    y = np.array([0.5 * math.log2(r.mse) for r in table.rows])
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    # delta method: sd of log2(rmse) = stderr(mse) / (2 * mse * ln 2)
    sigma = np.array([r.stderr / (2.0 * r.mse * math.log(2.0)) for r in table.rows])
    weights = (x - xbar) / sxx
    slope_sd = float(np.sqrt(np.sum((weights * sigma) ** 2)))
    ci = (slope - 1.96 * slope_sd, slope + 1.96 * slope_sd)
    return OrderFit(slope=slope, intercept=intercept, r_squared=r_squared, slope_ci=ci)


def predicted_order(constants: AssumptionConstants, noise: NoiseSpec, has_diffusion: bool) -> float:
    """Guaranteed order: min(g1, g2, 1/2) with diffusion, min(g1, 1/g0) without."""
    if has_diffusion:
        return min(constants.gamma1, constants.gamma2, 0.5)
    return min(constants.gamma1, 1.0 / noise.gamma0)
