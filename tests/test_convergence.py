"""Error tables, order fitting, and the admissibility gates."""

import numpy as np
import pytest

from levyem.convergence import (
    ErrorRow,
    ErrorTable,
    fit_order,
    predicted_order,
    strong_error_table,
)
from levyem.errors import ConfigurationError
from levyem.problems import builtin_problem


def _table(dts, rmses, stderr=1e-12, reference_dt=None):
    rows = [
        ErrorRow(dt=dt, mse=r ** 2, stderr=stderr, n_paths=1000)
        for dt, r in zip(dts, rmses)
    ]
    return ErrorTable(rows=rows, reference_dt=reference_dt or min(dts) / 8.0)


def test_fit_recovers_exact_power_law():
    dts = [2.0 ** -k for k in range(4, 9)]
    fit = fit_order(_table(dts, [0.7 * dt ** 0.42 for dt in dts]))
    assert fit.slope == pytest.approx(0.42, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    lo, hi = fit.slope_ci
    assert lo <= fit.slope <= hi


def test_fit_ci_widens_with_noise():
    dts = [2.0 ** -k for k in range(4, 9)]
    rmses = [0.7 * dt ** 0.42 for dt in dts]
    tight = fit_order(_table(dts, rmses, stderr=1e-12))
    rows = [
        ErrorRow(dt=dt, mse=r ** 2, stderr=0.2 * r ** 2, n_paths=1000)
        for dt, r in zip(dts, rmses)
    ]
    loose = fit_order(ErrorTable(rows=rows, reference_dt=min(dts) / 8.0))
    assert (loose.slope_ci[1] - loose.slope_ci[0]) > (tight.slope_ci[1] - tight.slope_ci[0])


def test_fit_requires_three_rows():
    dts = [0.1, 0.05]
    with pytest.raises(ConfigurationError):
        fit_order(_table(dts, [0.1, 0.05]))


def test_zero_mse_rejected_by_fit():
    rows = [
        ErrorRow(dt=0.1, mse=0.01, stderr=0.0, n_paths=500),
        ErrorRow(dt=0.05, mse=0.0, stderr=0.0, n_paths=500),
        ErrorRow(dt=0.025, mse=0.001, stderr=0.0, n_paths=500),
    ]
    table = ErrorTable(rows=rows, reference_dt=0.0125)
    with pytest.raises(ConfigurationError):
        fit_order(table)


def test_table_requires_decreasing_multiple_dts():
    with pytest.raises(ConfigurationError):
        _table([0.05, 0.1], [0.1, 0.2])  # increasing
    with pytest.raises(ConfigurationError):
        ErrorTable(
            rows=[
                ErrorRow(dt=0.1, mse=1.0, stderr=0.0, n_paths=500),
                ErrorRow(dt=0.05, mse=1.0, stderr=0.0, n_paths=500),
            ],
            reference_dt=0.03,  # 0.1 is not an integer multiple
        )


def test_row_validation():
    with pytest.raises(ConfigurationError):
        ErrorRow(dt=-0.1, mse=1.0, stderr=0.0, n_paths=100)
    with pytest.raises(ConfigurationError):
        ErrorRow(dt=0.1, mse=-1.0, stderr=0.0, n_paths=100)
    row = ErrorRow(dt=0.1, mse=4.0, stderr=0.1, n_paths=100)
    assert row.rmse == 2.0


@pytest.mark.parametrize(
    "name,expected",
    [
        ("paper-5.1a", 0.2),            # min(gamma1, gamma2, 1/2)
        ("paper-5.1b", 0.2),
        ("paper-5.1c", 0.5),
        ("paper-5.2", 1.0 / 1.3),       # no diffusion: min(gamma1, 1/gamma0)
        ("paper-5.4", 0.5),
    ],
)
def test_predicted_orders(name, expected):
    problem = builtin_problem(name)
    got = predicted_order(problem.constants, problem.noise, problem.diffusion is not None)
    assert got == pytest.approx(expected)


def test_strong_error_table_reference_coupling_sanity():
    problem = builtin_problem("paper-5.4")
    table = strong_error_table(problem, [0.02, 0.01], 0.01, 128, 999)
    by_dt = {row.dt: row for row in table.rows}
    assert by_dt[0.01].mse == 0.0
    assert by_dt[0.02].mse > 0.0


def test_strong_error_table_gates():
    with pytest.raises(ConfigurationError, match="invariant-measure"):
        strong_error_table(builtin_problem("paper-5.3"), [0.01], 0.005, 200, 1)
    with pytest.raises(ConfigurationError):
        strong_error_table(builtin_problem("paper-5.4"), [0.01], 0.005, 50, 1)  # < 100 paths
