"""Distances, references, and long-time distribution reports."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

import levyem
from levyem.errors import ConfigurationError
from levyem.measures import (
    _BOOTSTRAP_FOLDS,
    _KS_EXACT_MAX_N,
    EmpiricalMeasure,
    StationaryReference,
    evolve_empirical_law,
    invariant_convergence_report,
    density_curve,
    ks_statistic,
    _ks_fold_scorer,
    _prob_outside_square,
    _reference_size,
    _sorted_wasserstein,
    ou_stationary_scale,
    two_initial_value_coupling,
    wasserstein_k,
)
from levyem.noise import NoiseSpec, PathStreams, sample_alpha_stable
from levyem.problems import builtin_problem


# ---------------------------------------------------------------------------
# Wasserstein with concave cost


def test_known_values():
    assert wasserstein_k([0.0], [2.0], 1.0) == 2.0
    expect = (1.0 + np.sqrt(2.0)) / 2.0
    assert wasserstein_k([0.0, 1.0], [1.0, 3.0], 0.5) == pytest.approx(expect, abs=1e-12)
    assert wasserstein_k([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_symmetry():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=40), rng.normal(size=40)
    for k in (0.3, 0.7, 1.0):
        assert wasserstein_k(a, b, k) == wasserstein_k(b, a, k)


def test_sorted_coupling_is_optimal_brute_force():
    # exhaustive search over all couplings (permutations) for n <= 6; the
    # monotone coupling minimizes the convex cost |u-v|, so at k = 1 the
    # sorted value must match the brute-force optimum exactly
    rng = np.random.default_rng(42)
    for n in range(2, 7):
        for _ in range(10):
            a = np.sort(rng.normal(size=n) * 3.0)
            b = np.sort(rng.normal(size=n) * 3.0)
            best = min(
                np.mean(np.abs(a - b[list(perm)]))
                for perm in itertools.permutations(range(n))
            )
            got = wasserstein_k(a, b, 1.0)
            assert abs(got - best) <= 1e-12, f"n={n}"


def test_concave_cost_uses_quantile_coupling_by_contract():
    # For k < 1 the cost is strictly concave and the monotone coupling is
    # not the assignment optimum: with a = {0,1}, b = {1,3}, k = 0.5 the
    # crossed matching costs (sqrt(3)+0)/2 ~ 0.866, beating the sorted
    # matching (1+sqrt(2))/2 ~ 1.207.  The statistic is defined as the
    # quantile (sorted) coupling, which stays a metric by subadditivity of
    # t^k, so we pin the sorted value and record the cheaper crossing.
    a = np.array([0.0, 1.0])
    b = np.array([1.0, 3.0])
    sorted_value = (1.0 + np.sqrt(2.0)) / 2.0
    crossed_value = np.sqrt(3.0) / 2.0
    assert wasserstein_k(a, b, 0.5) == pytest.approx(sorted_value, abs=1e-12)
    brute = min(
        np.mean(np.abs(a - b[list(perm)]) ** 0.5)
        for perm in itertools.permutations(range(2))
    )
    assert brute == pytest.approx(crossed_value, abs=1e-12)
    assert brute < sorted_value


def test_triangle_inequality_on_random_triples():
    rng = np.random.default_rng(7)
    for k in (0.5, 1.0):
        for _ in range(500):
            n = rng.integers(2, 12)
            a = rng.normal(size=n) * rng.uniform(0.5, 3.0)
            b = rng.normal(size=n) * rng.uniform(0.5, 3.0)
            c = rng.normal(size=n) * rng.uniform(0.5, 3.0)
            dab = wasserstein_k(a, b, k)
            dbc = wasserstein_k(b, c, k)
            dac = wasserstein_k(a, c, k)
            assert dac <= dab + dbc + 1e-12


def test_unequal_sizes_raise():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=500), rng.normal(size=200)
    with pytest.raises(ConfigurationError, match="500 and 200"):
        wasserstein_k(a, b)


def test_k_out_of_range():
    with pytest.raises(ConfigurationError):
        wasserstein_k([0.0, 1.0], [1.0, 2.0], k=1.5)
    with pytest.raises(ConfigurationError):
        wasserstein_k([0.0, 1.0], [1.0, 2.0], k=0.0)
    with pytest.raises(ConfigurationError):
        wasserstein_k([], [1.0, 2.0])


# ---------------------------------------------------------------------------
# References and KS


def test_ou_stationary_scale_value():
    assert ou_stationary_scale(1.5) == pytest.approx(0.96150, abs=5e-6)


def test_ks_against_own_reference_small():
    # sample drawn from the reference law itself: D below the n=1e4 critical
    # envelope 0.0272 quoted for level 0.05
    scale = ou_stationary_scale(1.5)
    ref = StationaryReference(kind="analytic_stable", alpha=1.5, scale=scale)
    draw = sample_alpha_stable(1.5, scale, 1.0, 10_000, PathStreams(21, [0], "levy"))[0]
    d, p = ks_statistic(EmpiricalMeasure(values=draw, t=1.0), ref)
    assert d < 0.0272
    assert p > 0.05


def test_ks_detects_shift():
    scale = ou_stationary_scale(1.5)
    ref = StationaryReference(kind="analytic_stable", alpha=1.5, scale=scale)
    draw = sample_alpha_stable(1.5, scale, 1.0, 10_000, PathStreams(21, [0], "levy"))[0] + 1.0
    d, p = ks_statistic(EmpiricalMeasure(values=draw, t=1.0), ref)
    assert d > 0.2
    assert p < 1e-10


def test_ks_self_comparison_is_zero():
    values = np.random.default_rng(5).normal(size=512)
    snap = EmpiricalMeasure(values=values, t=1.0)
    ref = StationaryReference(kind="empirical_snapshot", snapshot=snap)
    d, p = ks_statistic(snap, ref)
    assert d == 0.0 and p == pytest.approx(1.0)


def test_ks_rank_invariance():
    # strictly increasing transforms leave the two-sample statistic unchanged
    rng = np.random.default_rng(11)
    a = rng.normal(size=400)
    b = rng.normal(size=400) + 0.3
    ref_b = StationaryReference(
        kind="empirical_snapshot", snapshot=EmpiricalMeasure(values=b, t=1.0)
    )
    d0, _ = ks_statistic(EmpiricalMeasure(values=a, t=1.0), ref_b)
    for transform in (np.exp, lambda v: v ** 3):
        ref_t = StationaryReference(
            kind="empirical_snapshot",
            snapshot=EmpiricalMeasure(values=transform(b), t=1.0),
        )
        d_t, _ = ks_statistic(EmpiricalMeasure(values=transform(a), t=1.0), ref_t)
        assert d_t == pytest.approx(d0, abs=1e-15)


def _equal_size_pair(case, n):
    rng = np.random.default_rng(n)
    a = rng.standard_cauchy(n)
    if case == "shifted":
        return a, rng.standard_cauchy(n) + 0.5
    if case == "ties":
        return np.round(a, 0), np.round(rng.standard_cauchy(n) * 1.1 + 0.2, 0)
    if case == "identical":  # D = 0, h = 0
        return a, a.copy()
    if case == "interleaved":  # D = 1/n, h = 1: scipy's recursion can exceed 1 here
        return np.arange(n, dtype=float), np.arange(n) + 0.5
    assert case == "disjoint"  # D = 1; the p-value underflows to 0 for large n
    return a, a + np.ptp(a) + 1.0


@pytest.mark.parametrize("case", ["shifted", "ties", "identical", "interleaved", "disjoint"])
@pytest.mark.parametrize("n", [2, 3, 7, 100, 2500, 10_000, 10_001])
def test_ks_statistic_equals_scipy_auto(case, n, monkeypatch):
    # Equal sizes up to 10,000 are computed in the package, other sizes and an
    # exact p-value outside [0, 1] by scipy: the floats are scipy's either way.
    a, b = _equal_size_pair(case, n)
    snap = EmpiricalMeasure(values=a, t=1.0)
    ref = StationaryReference(kind="empirical_snapshot", snapshot=EmpiricalMeasure(values=b, t=2.0))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return stats.ks_2samp(*args, **kwargs)

    monkeypatch.setattr(levyem.measures, "stats", SimpleNamespace(ks_2samp=counting))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        expect = stats.ks_2samp(a, b, method="auto")
        got = ks_statistic(snap, ref)
    fell_back = any("Exact calculation unsuccessful" in str(w.message) for w in caught)
    assert got == (float(expect.statistic), float(expect.pvalue))
    assert len(calls) == (1 if n > _KS_EXACT_MAX_N or fell_back else 0)
    if case == "identical":
        assert got == (0.0, 1.0)
    if case == "disjoint":
        assert got[0] == 1.0
        if n >= 2500:
            assert got[1] == 0.0


def test_exact_p_value_recursion_against_closed_forms():
    # Pr(D_{n,n} >= 1) = 2 / C(2n, n); h = 1 is certain
    for n in (2, 3, 7, 30):
        assert _prob_outside_square(n, n) == pytest.approx(2.0 / math.comb(2 * n, n), rel=1e-12)
        assert _prob_outside_square(n, 1) == pytest.approx(1.0, rel=1e-12)


def _prob_outside_square_full_loop(n, h):
    """``_prob_outside_square`` without its early exit: every factor of every term."""
    prob = 0.0
    for k in range(n // h, -1, -1):
        term = 1.0
        for j in range(h):
            term = (n - k * h - j) * term / (n + k * h + j + 1)
        prob = term * (1.0 - prob)
    return 2 * prob


def test_exact_p_value_early_exit_equals_the_full_loop():
    # h = round(d n) <= n.  Every pair has an exact zero factor (j = n mod h
    # at k = n // h); the large sizes also have terms that underflow to 0
    # before it.
    pairs = [(n, h) for n in range(1, 81) for h in range(1, n + 1)]
    pairs += [(n, h) for n in (100, 997, 2500, 10_000)
              for h in (1, 2, 3, 5, 10, 37, 99, n // 2, n - 1, n)]
    assert len(pairs) >= 3000
    for n, h in pairs:
        got, full = _prob_outside_square(n, h), _prob_outside_square_full_loop(n, h)
        assert repr(got) == repr(full), (n, h)


# ---------------------------------------------------------------------------
# Bootstrap folds


@pytest.mark.parametrize(
    "n1, n2, ties",
    [
        (400, 400, False),      # equal sizes: exact mode, 1/lcm lattice
        (1000, 10_000, False),  # unequal sizes, exact mode
        (300, 700, False),
        (500, 20_000, False),   # a size above 10,000: asymptotic mode
        (12_000, 12_000, False),
        (500, 500, True),       # tied values, within and across the samples
        (800, 20_000, True),
    ],
)
def test_ks_fold_scorer_equals_scipy(n1, n2, ties):
    rng = np.random.default_rng(n1 + n2)
    a, b = rng.standard_cauchy(n1), rng.standard_cauchy(n2) * 1.2 + 0.1
    if ties:
        a, b = np.round(a, 1), np.round(b, 1)
    values = np.sort(a)
    score = _ks_fold_scorer(values, np.sort(b))
    folds = [np.ones(n1, dtype=int)]
    folds += [np.bincount(rng.integers(0, n1, n1), minlength=n1) for _ in range(5)]
    for counts in folds:
        expect = stats.ks_2samp(np.repeat(values, counts), b).statistic
        assert score(counts) == expect


def _scipy_bootstrap_stderr(values, statistic, seed):
    """The bootstrap over sorted ``rng.choice`` resamples, one statistic each."""
    rng = np.random.default_rng(seed)
    reps = [
        statistic(np.sort(rng.choice(values, size=values.size, replace=True)))
        for _ in range(_BOOTSTRAP_FOLDS)
    ]
    return float(np.std(reps, ddof=1))


@pytest.mark.parametrize("kind", ["analytic_stable", "empirical_snapshot"])
def test_report_stderrs_equal_resampled_scipy_folds(kind):
    scale = ou_stationary_scale(1.5)
    snaps = [
        EmpiricalMeasure(
            values=sample_alpha_stable(1.5, scale * f, 1.0, 2000, PathStreams(8, [j], "levy"))[0],
            t=t,
        )
        for j, (f, t) in enumerate([(1.4, 1.0), (1.1, 2.0), (1.0, 3.0)])
    ]
    if kind == "analytic_stable":
        ref = StationaryReference(kind=kind, alpha=1.5, scale=scale)
    else:
        ref = StationaryReference(kind=kind, snapshot=snaps[-1])
    report = invariant_convergence_report(snaps, ref, k=0.5, bootstrap_seed=77)
    for i, (snap, row) in enumerate(zip(snaps, report.rows)):
        ref_sample = ref.sample(_reference_size(kind, snap.n))
        ks_se = _scipy_bootstrap_stderr(
            snap.values, lambda v: stats.ks_2samp(v, ref_sample).statistic, 77 + 2 * i
        )
        w_se = _scipy_bootstrap_stderr(
            snap.values, lambda v: wasserstein_k(v, ref.sample(snap.n), 0.5), 77 + 2 * i + 1
        )
        assert row.ks_stderr == ks_se
        assert row.w_stderr == w_se


def test_sorted_wasserstein_equals_wasserstein_k_on_resamples():
    rng = np.random.default_rng(4)
    values = np.sort(rng.standard_cauchy(3000))
    ref = np.sort(rng.standard_normal(3000) * 2.0)
    for k in (1.0, 0.5, 0.25):
        for _ in range(10):
            resample = np.repeat(values, np.bincount(rng.integers(0, 3000, 3000), minlength=3000))
            got = _sorted_wasserstein(resample, ref, k)
            assert repr(got) == repr(wasserstein_k(rng.permutation(resample), ref[::-1], k))


def test_report_scores_each_snapshot_once(monkeypatch):
    snaps = [EmpiricalMeasure(values=np.random.default_rng(j).standard_normal(500), t=float(j))
             for j in (1, 2, 3)]
    ref = StationaryReference(kind="empirical_snapshot", snapshot=snaps[-1])
    built = []

    def counting(values, ref_sample):
        built.append(values.size)
        return _ks_fold_scorer(values, ref_sample)

    monkeypatch.setattr(levyem.measures, "_ks_fold_scorer", counting)
    report = invariant_convergence_report(snaps, ref)
    assert built == [500, 500, 500]
    assert [(r.ks, r.p_value) for r in report.rows] == [ks_statistic(s, ref) for s in snaps]


def test_reference_validation():
    with pytest.raises(ConfigurationError):
        StationaryReference(kind="analytic_stable", alpha=0.0, scale=1.0)
    with pytest.raises(ConfigurationError):
        StationaryReference(kind="analytic_stable", alpha=1.5, scale=0.0)
    with pytest.raises(ConfigurationError):
        StationaryReference(kind="empirical_snapshot")
    flat = EmpiricalMeasure(values=np.zeros(16), t=1.0)
    with pytest.raises(ConfigurationError, match="degenerate"):
        StationaryReference(kind="empirical_snapshot", snapshot=flat)
    with pytest.raises(ConfigurationError):
        StationaryReference(kind="unknown")


def test_snapshot_reference_only_at_its_own_size():
    snap = EmpiricalMeasure(values=np.random.default_rng(4).normal(size=64), t=1.0)
    ref = StationaryReference(kind="empirical_snapshot", snapshot=snap)
    assert ref.sample(64) is snap.values
    for n in (32, 65):
        with pytest.raises(ConfigurationError, match=f"64 points, asked for {n}"):
            ref.sample(n)


def test_reference_sample_cached_and_sorted():
    ref = StationaryReference(kind="analytic_stable", alpha=1.5, scale=1.0)
    a = ref.sample(1000)
    b = ref.sample(1000)
    assert a is b
    assert np.all(np.diff(a) >= 0)


def test_empirical_measure_validation():
    with pytest.raises(ConfigurationError):
        EmpiricalMeasure(values=np.array([1.0]), t=0.0)
    m = EmpiricalMeasure(values=np.array([3.0, 1.0, 2.0]), t=0.0)
    np.testing.assert_array_equal(m.values, [1.0, 2.0, 3.0])
    assert m.n == 3


# ---------------------------------------------------------------------------
# Snapshots and reports


def _zero_noise_decay():
    """paper-5.3 without its jumps, dX = -2X dt from 10, up to t = 8."""
    problem = builtin_problem("paper-5.3")
    return dataclasses.replace(problem, horizon=8.0, noise=NoiseSpec(kind="none", brownian_dim=0))


def test_zero_noise_snapshots_are_point_masses():
    snaps = evolve_empirical_law(_zero_noise_decay(), 0.1, 16, [1.0, 2.0, 6.0, 8.0], 3)
    for snap in snaps:
        assert np.ptp(snap.values) == 0.0
    w_early = wasserstein_k(snaps[0], snaps[1])
    w_late = wasserstein_k(snaps[2], snaps[3])
    assert w_late < w_early
    assert w_late < 1e-3


def test_checkpoints_must_sit_on_grid():
    with pytest.raises(ConfigurationError):
        evolve_empirical_law(_zero_noise_decay(), 0.1, 8, [0.25], 3)


def test_report_zero_distance_for_matching_snapshots():
    values = np.random.default_rng(9).normal(size=256)
    ref_snap = EmpiricalMeasure(values=values, t=2.0)
    ref = StationaryReference(kind="empirical_snapshot", snapshot=ref_snap)
    snaps = [
        EmpiricalMeasure(values=values, t=1.0),
        EmpiricalMeasure(values=values, t=2.0),
    ]
    report = invariant_convergence_report(snaps, ref)
    for row in report.rows:
        assert row.ks == 0.0
        assert row.wasserstein == 0.0
    assert report.ks_decreasing and report.wasserstein_decreasing


def test_report_flags_decreasing_distances():
    problem = builtin_problem("paper-5.3")
    ref = StationaryReference(
        kind="analytic_stable", alpha=1.5, scale=ou_stationary_scale(1.5)
    )
    snaps = evolve_empirical_law(problem, 0.01, 500, [0.1, 0.5, 2.0], 31)
    report = invariant_convergence_report(snaps, ref)
    assert report.ks_decreasing
    assert report.wasserstein_decreasing
    assert report.rows[-1].ks < report.rows[0].ks / 5.0


def test_coupling_decay_and_envelope():
    problem = builtin_problem("paper-5.4")
    decay = two_initial_value_coupling(problem, 0.01, 10.0, -10.0, 256, 300, 5)
    assert decay.mean_sq_gap[0] == 400.0
    assert decay.envelope[0] == pytest.approx(400.0)
    assert decay.within_envelope
    assert decay.mean_sq_gap[-1] < 1e-3


def test_density_mass_and_tail_mass_sum_to_one_on_heavy_tails():
    values = np.random.default_rng(1).standard_cauchy(10_001)
    centres, dens, tail_mass = density_curve(EmpiricalMeasure(values=values, t=0.0))
    assert centres.shape == dens.shape == (128,)
    assert 0.0 < tail_mass <= 0.01
    assert np.sum(dens) * (centres[1] - centres[0]) + tail_mass == pytest.approx(1.0, abs=1e-12)
    # the bins stay at the law's scale, not the span of the extreme draws
    assert centres[-1] - centres[0] < 200.0 < np.ptp(values)


def test_density_matches_the_normal_pdf_bin_by_bin():
    n = 100_000
    values = np.random.default_rng(2).normal(size=n)
    centres, dens, _ = density_curve(EmpiricalMeasure(values=values, t=0.0))
    width = centres[1] - centres[0]
    edges = np.append(centres - width / 2, centres[-1] + width / 2)
    p = np.diff(stats.norm.cdf(edges))
    stderr = np.sqrt(p * (1.0 - p) / n) / width
    assert np.all(np.abs(dens - p / width) <= 5.0 * stderr)


# ---------------------------------------------------------------------------
# scipy stays off the simulation path


def test_simulation_path_does_not_import_scipy(tmp_path):
    # A scipy that refuses to import comes first on the path, so an import
    # anywhere on the simulation path, or in the analysis of a law run
    # against its final snapshot, fails the run.  Forked pool workers inherit
    # the parent's modules, so this guards the parent's path.  A law run
    # against the analytic reference then loads the real scipy.stats as
    # measures.stats, for its asymptotic KS p-values.
    blocker = tmp_path / "blocker"
    (blocker / "scipy").mkdir(parents=True)
    (blocker / "scipy" / "__init__.py").write_text(
        "raise ImportError('scipy imported on the simulation path')\n"
    )
    script = textwrap.dedent(
        f"""
        import json
        import sys
        from pathlib import Path

        import levyem
        from levyem import builtin_problem, simulate_ensemble, strong_error_run
        from levyem.cli import main
        from levyem.experiments import entry_config, execute_config, write_run

        def loaded():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        problem = builtin_problem("paper-5.4")
        strong_error_run(problem, [2.0 ** -3, 2.0 ** -4], 2.0 ** -5, 8, 3)
        # an inline run never loads the process pool's modules
        pool_modules = {{"concurrent.futures", "multiprocessing"}} & set(sys.modules)
        assert not pool_modules, pool_modules
        # 200 steps x 2 streams x 8 B a path: chunks of 4 paths
        run = simulate_ensemble(problem, 0.05, 8, 3, workers=2, chunk_budget_bytes=4 * 3200)
        assert run.terminal.shape == (8,)
        assert not loaded(), loaded()

        tmp = Path({str(tmp_path)!r})
        law = entry_config("paper-5.4")
        law.update(n_paths=400, checkpoints=[0.04, 0.2, 1.0, 2.0], ratio_times=[0.2, 1.0])
        result = execute_config(law, workers=2)
        write_run(result, tmp / "law-54")
        assert result.reference["kind"] == "final-snapshot"
        assert not loaded(), loaded()

        config = tmp / "law-54.json"
        config.write_text(json.dumps(law))
        assert main(["run", str(config), "--workers", "2", "--out", str(tmp / "cli")]) == 0
        assert not loaded(), loaded()

        sys.path.remove({str(blocker)!r})
        analytic = entry_config("paper-5.3")
        analytic.update(n_paths=200, checkpoints=[0.1, 0.5])
        assert execute_config(analytic).reference["kind"] == "analytic-stable"
        assert "scipy.stats" in sys.modules and "stats" in vars(levyem.measures), loaded()
        import scipy.stats

        assert levyem.measures.stats is scipy.stats
        """
    )
    src = Path(levyem.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(blocker), str(src)]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300, env=env
    )
    assert proc.returncode == 0, proc.stderr
