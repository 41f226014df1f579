"""Constants validation, assumption probes, and moment-envelope algebra."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from levyem.engine import simulate_ensemble
from levyem.errors import ConfigurationError
from levyem.model import (
    AssumptionConstants,
    coupling_decay_factor,
    coupling_envelope,
    moment_decay_factors,
    run_declared_probes,
    second_moment_envelope,
    zero_state_bounds,
)
from levyem.problems import builtin_problem, builtin_problem_names, problem_from_config

GOOD = dict(H=4.0, sigma=1.0, q=4.0, M=1.0, K1=1.0, K2=1.0, gamma1=0.5, gamma2=0.5)


class TestAssumptionConstants:
    def test_accepts_good_block(self):
        c = AssumptionConstants(**GOOD, K3=-2.0, K4=0.5)
        assert c.has_dissipativity

    def test_dissipativity_tier_optional(self):
        c = AssumptionConstants(**GOOD)
        assert not c.has_dissipativity

    def test_q_gate(self):
        with pytest.raises(ConfigurationError, match="q"):
            AssumptionConstants(**{**GOOD, "sigma": 2.0, "q": 5.0})

    def test_k3_gate(self):
        with pytest.raises(ConfigurationError, match="K3"):
            AssumptionConstants(**GOOD, K3=-0.5, K4=0.5)

    def test_joint_gate(self):
        # K4 + 2*K3 must be < -1
        with pytest.raises(ConfigurationError, match="K4"):
            AssumptionConstants(**GOOD, K3=-0.75, K4=0.6)

    def test_gamma_range(self):
        with pytest.raises(ConfigurationError, match="gamma1"):
            AssumptionConstants(**{**GOOD, "gamma1": 1.0})
        with pytest.raises(ConfigurationError, match="gamma2"):
            AssumptionConstants(**{**GOOD, "gamma2": 0.0})

    def test_positivity(self):
        with pytest.raises(ConfigurationError, match="H"):
            AssumptionConstants(**{**GOOD, "H": 0.0})


class TestProbes:
    @pytest.mark.parametrize("name", builtin_problem_names())
    def test_builtin_problems_pass_their_probes(self, name):
        problem = builtin_problem(name)
        reports = run_declared_probes(problem, n_pairs=2000, seed=3)
        for report in reports:
            assert report.violations == 0, (
                f"{name}/{report.probe}: {report.violations} violations, "
                f"max_ratio={report.max_ratio:.4f}"
            )

    def test_probe_catches_false_growth_claim(self):
        cfg = dict(builtin_problem("paper-5.4").source)
        cfg = {**cfg, "name": "liar", "constants": {**cfg["constants"], "H": 1e-3}}
        problem = problem_from_config(cfg)
        reports = {r.probe: r for r in run_declared_probes(problem, n_pairs=2000, seed=3)}
        assert reports["polynomial"].violations > 0

    def test_probe_catches_false_dissipativity_claim(self):
        # the build rejects a K3 below the drift's bound (-5), so the false
        # claim is put in after it
        problem = builtin_problem("paper-5.4")
        problem.constants = dataclasses.replace(problem.constants, K3=-50.0)
        reports = {r.probe: r for r in run_declared_probes(problem, n_pairs=2000, seed=3)}
        assert reports["one_sided"].violations > 0


class TestDerivedFactors:
    """Q1/Q2/Q3 against hand-computed rational oracles."""

    def test_54_zero_state_bounds(self):
        problem = builtin_problem("paper-5.4")
        m1, m2 = zero_state_bounds(problem)
        # f(t,0) = 5 -> m1 = 25/2; g(t,0) = 3 -> m2 = 9
        assert m1 == pytest.approx(12.5, abs=1e-12)
        assert m2 == pytest.approx(9.0, abs=1e-12)

    def test_54_decay_factors(self):
        problem = builtin_problem("paper-5.4")
        q1, q2 = moment_decay_factors(problem, 0.01)
        q3 = coupling_decay_factor(problem, 0.01)
        # M1 = 1/2 + K3 = -4.5, M2 = K4 = 1:
        #   Q1 = (1 + 0.01) / (1 + 0.09) = 101/109
        #   Q2 = (2*12.5 + 9 + 1)*0.01 / 1.09 = 35/109
        #   Q3 = (1 + 0.01) / (1 + 0.10) = 101/110
        assert q1 == pytest.approx(float(Fraction(101, 109)), abs=1e-12)
        assert q2 == pytest.approx(float(Fraction(35, 109)), abs=1e-12)
        assert q3 == pytest.approx(float(Fraction(101, 110)), abs=1e-12)

    def test_53_decay_factors(self):
        problem = builtin_problem("paper-5.3")
        q1, _ = moment_decay_factors(problem, 0.01)
        q3 = coupling_decay_factor(problem, 0.01)
        # M1 = 1/2 - 2 = -1.5, M2 = K4 = 0.5:
        #   Q1 = (1 + 0.005) / (1 + 0.03) = 1005/1030
        #   Q3 = (1 + 0.005) / (1 + 0.04) = 1005/1040
        assert q1 == pytest.approx(float(Fraction(1005, 1030)), abs=1e-12)
        assert q3 == pytest.approx(float(Fraction(1005, 1040)), abs=1e-12)

    def test_factors_below_one(self):
        for name in ("paper-5.3", "paper-5.4"):
            problem = builtin_problem(name)
            q1, _ = moment_decay_factors(problem, 0.01)
            assert q1 < 1.0
            assert coupling_decay_factor(problem, 0.01) < 1.0

    def test_envelope_closed_forms(self):
        problem = builtin_problem("paper-5.4")
        dt, n, x0sq = 0.01, 50, 100.0
        q1, q2 = moment_decay_factors(problem, dt)
        env = second_moment_envelope(problem, dt, n, x0sq)
        i = np.arange(n + 1)
        expect = q1 ** i * x0sq + q2 * (1.0 - q1 ** i) / (1.0 - q1)
        np.testing.assert_allclose(env, expect, rtol=1e-12)

        q3 = coupling_decay_factor(problem, dt)
        cenv = coupling_envelope(problem, dt, n, 400.0)
        np.testing.assert_allclose(cenv, q3 ** i * 400.0, rtol=1e-12)

    def test_dissipativity_required(self):
        problem = builtin_problem("paper-5.1a")  # finite-horizon tier only
        with pytest.raises(ConfigurationError):
            moment_decay_factors(problem, 0.01)


class TestProblemShape:
    def test_diffusion_brownian_consistency(self):
        cfg = dict(builtin_problem("paper-5.3").source)
        cfg["noise"] = {**cfg["noise"], "brownian_dim": 1}  # and still no diffusion
        with pytest.raises(ConfigurationError, match="no diffusion"):
            problem_from_config(cfg)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("horizon", math.nan),
            ("horizon", math.inf),
            ("horizon", 0.0),
            ("horizon", -1.0),
            ("x0", math.nan),
            ("x0", math.inf),
            ("x0", -math.inf),
        ],
    )
    def test_problem_built_in_code_rejects_a_bad_horizon_or_start(self, field, value):
        # the config grammar names these fields; a problem built with
        # dataclasses.replace skips it and must still fail before any step
        problem = builtin_problem("paper-5.4")
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            simulate_ensemble(dataclasses.replace(problem, **{field: value}), 0.1, 4, 1)
