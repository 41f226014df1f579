"""Shared fixtures.

The expensive Monte Carlo artifacts (full-protocol experiment runs, 1e6/1e7
sampler draws) are session-scoped so the acceptance tests and the unit tests
can share one computation.  Everything is seeded; nothing touches the network.
"""

import numpy as np
import pytest

from levyem.engine import second_moment_curve
from levyem.experiments import entry_config, execute_config
from levyem.measures import two_initial_value_coupling
from levyem.noise import PathStreams, sample_tempered_stable
from levyem.problems import builtin_problem

CRITERION_SEED = 20240817

# One human-readable verdict line per acceptance criterion, echoed in the
# terminal summary so the scoreboard survives pytest's output capture.
_ACCEPTANCE_LINES: list[str] = []


def record_verdict(number: int, ok: bool, detail: str) -> str:
    line = f"CRITERION {number:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    _ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def problem_51a():
    return builtin_problem("paper-5.1a")


@pytest.fixture(scope="session")
def problem_53():
    return builtin_problem("paper-5.3")


@pytest.fixture(scope="session")
def problem_54():
    return builtin_problem("paper-5.4")


@pytest.fixture(scope="session")
def convergence_51a():
    return execute_config(entry_config("paper-5.1a"))


@pytest.fixture(scope="session")
def convergence_51c():
    return execute_config(entry_config("paper-5.1c"))


@pytest.fixture(scope="session")
def convergence_52():
    return execute_config(entry_config("paper-5.2"))


@pytest.fixture(scope="session")
def measure_53():
    return execute_config(entry_config("paper-5.3"))


@pytest.fixture(scope="session")
def measure_54():
    return execute_config(entry_config("paper-5.4"))


@pytest.fixture(scope="session")
def envelope_curve_54(problem_54):
    # Criterion-scale run: dt = 0.01, 1e4 paths, 1e3 steps.
    return second_moment_curve(problem_54, 0.01, 1000, 10_000, CRITERION_SEED)


@pytest.fixture(scope="session")
def coupling_decay_54(problem_54):
    return two_initial_value_coupling(
        problem_54, 0.01, 10.0, -10.0, 10_000, 1000, CRITERION_SEED
    )


@pytest.fixture(scope="session")
def tempered_13_draw_1e6():
    """Tempered stable alpha=1.3, lambda=1, scale=1, dt=1 at n=1e6."""
    return sample_tempered_stable(
        1.3, 1.0, 1.0, 1.0, 1_000_000, PathStreams(CRITERION_SEED, [0], "levy")
    )[0]


@pytest.fixture(scope="session")
def tempered_13_oracle_1e7():
    """Independent 1e7-sample oracle run of the same law (different seed)."""
    return sample_tempered_stable(
        1.3, 1.0, 1.0, 1.0, 10_000_000, PathStreams(987654321, [0], "levy")
    )[0]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)
