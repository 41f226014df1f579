"""Oracle tests for the tilted one-sided stable sampler.

The Laplace transform of the target increment law is known in closed form,
so every statistical check here compares a seeded Monte Carlo mean against
an analytic value with an explicit stderr budget.
"""

import math

import numpy as np
import pytest

from levyem.errors import ConfigurationError
from levyem.noise import PathStreams, sample_tempered_stable
from levyem.tilted_stable import (
    AcceptanceStats,
    _kanter,
    tilted_stable_pieces,
    tilted_stable_rows,
)


def _draw(rho, tilt, horizon, size, seed, stats=None):
    """``size`` increments from the one-path stream ``(seed, 0, "levy")``."""
    pieces = tilted_stable_pieces(rho, tilt, horizon)
    values = np.empty((1, size))
    rng = PathStreams(seed, [0], "levy")[0]
    tilted_stable_rows(rho, tilt, horizon, pieces, [rng], values, stats or AcceptanceStats())
    return values[0]


def _kanter_sine_form(u, e, rho):
    """Kanter's (A(u) / e)**((1 - rho) / rho) in scalar float64, with libm sines and four powers."""
    a = (math.sin(rho * u) ** rho * math.sin((1.0 - rho) * u) ** (1.0 - rho) / math.sin(u)) ** (
        1.0 / (1.0 - rho)
    )
    return (a / e) ** ((1.0 - rho) / rho)


@pytest.mark.parametrize("rho", [0.05, 0.3, 0.5, 0.65, 0.95])
def test_tangent_transform_matches_the_sine_form(rho):
    # Each side carries a few roundings from its sines and ratios, and the last
    # power, of exponent p = (1 - rho) / rho, multiplies its base's relative
    # error by p; so the two agree within (16 + 12 p) eps.
    bound = (16.0 + 12.0 * (1.0 - rho) / rho) * np.finfo(float).eps
    lo, hi = 1e-9, np.pi - 1e-9  # the clip edges
    near_edges = np.logspace(-8.9, -1.0, 60)
    u = np.concatenate(
        [[0.0, lo, 2e-9], near_edges, np.linspace(lo, hi, 1001), np.pi - near_edges, [hi, np.pi]]
    )
    for e in (0.01, 0.7, 1.0, 3.0, 25.0):
        got = _kanter(u.copy(), np.full(u.size, e), rho)
        expected = np.array([_kanter_sine_form(min(max(x, lo), hi), e, rho) for x in u])
        assert np.all(np.isfinite(got)) and np.all(expected > 0.0)
        worst = float(np.max(np.abs(got - expected) / expected))
        assert worst <= bound, f"rho={rho}, e={e}: relative error {worst:.3g} > {bound:.3g}"


def _laplace_gap_z(draw, s, target):
    """z-score of the empirical Laplace transform against ``target`` at s."""
    values = np.exp(-s * draw)
    se = values.std(ddof=1) / np.sqrt(values.size)
    return abs(values.mean() - target) / se


@pytest.mark.parametrize(
    "rho,tilt,horizon",
    [
        (0.65, 0.5, 1.0),
        (0.65, 2.0, 0.25),
        (0.65, 1.0, 3.0),
        # at a small tilt nearly every Kanter proposal is kept: the untilted transform
        (0.4, 1e-3, 1.0),
        (0.9, 1e-3, 1.0),
    ],
    ids=["0.5-1.0", "2.0-0.25", "1.0-3.0", "rho-0.4", "rho-0.9"],
)
def test_tilted_laplace_transform(rho, tilt, horizon):
    draw = _draw(rho, tilt, horizon, 150_000, 7)
    assert np.all(draw > 0)
    for s in (0.5, 1.0, 2.0):
        target = np.exp(-horizon * ((s + tilt) ** rho - tilt ** rho))
        z = _laplace_gap_z(draw, s, target)
        assert z < 4.0, f"rho={rho}, s={s}: z={z:.2f}"


def test_tilted_mean_and_variance_oracle():
    # E T = h*rho*theta**(rho-1), Var T = h*rho*(1-rho)*theta**(rho-2)
    rho, tilt, horizon = 0.65, 2.0, 1.5
    draw = _draw(rho, tilt, horizon, 400_000, 11)
    mean_target = horizon * rho * tilt ** (rho - 1.0)
    var_target = horizon * rho * (1.0 - rho) * tilt ** (rho - 2.0)
    se_mean = draw.std(ddof=1) / np.sqrt(draw.size)
    assert abs(draw.mean() - mean_target) < 4.0 * se_mean
    assert abs(draw.var(ddof=1) - var_target) / var_target < 0.05


def test_acceptance_stats_recorded():
    stats = AcceptanceStats()
    _draw(0.65, 1.0, 1.0, 5_000, 1, stats=stats)
    assert stats.proposed >= stats.accepted == 5_000
    assert 0.0 < stats.ratio <= 1.0

    other = AcceptanceStats(proposed=10, accepted=5)
    stats.merge(other)
    assert stats.proposed >= 10 and stats.accepted >= 5


def test_determinism():
    a = _draw(0.65, 1.0, 1.0, 1_000, 99)
    b = _draw(0.65, 1.0, 1.0, 1_000, 99)
    np.testing.assert_array_equal(a, b)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        _draw(0.0, 1.0, 1.0, 10, 0)
    with pytest.raises(ValueError):
        _draw(0.5, -1.0, 1.0, 10, 0)
    with pytest.raises(ValueError):
        _draw(0.5, 0.0, 1.0, 10, 0)
    with pytest.raises(ValueError):
        _draw(0.5, 1.0, 0.0, 10, 0)
    assert _draw(0.5, 1.0, 1.0, 0, 0).size == 0


def test_draws_past_the_piece_cap_are_rejected():
    # rho 0.5: tilt 64**2 over a unit window is exactly 64 pieces, 65**2 is 65
    assert _draw(0.5, 64.0**2, 1.0, 10, 2).size == 10
    with pytest.raises(ConfigurationError, match="65 pieces") as raised:
        _draw(0.5, 65.0**2, 1.0, 10, 2)
    assert "tempering" in str(raised.value) and "dt" in str(raised.value)
    # tempering 1000 at dt = 1 and alpha 1.3 would need 5,063 pieces
    with pytest.raises(ConfigurationError, match="5063 pieces") as raised:
        sample_tempered_stable(1.3, 1000.0, 1.0, 1.0, 10, PathStreams(12, [0], "levy"))
    assert "tempering" in str(raised.value) and "dt" in str(raised.value)
