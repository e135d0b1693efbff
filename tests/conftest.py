"""What pytest loads for the suite: the hypothesis profile, the `rng` fixture and the
acceptance summary. The oracles and the test-data makers are in `oracles.py`."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# before any test module imports it, so the oracles' asserts keep pytest's messages
pytest.register_assert_rewrite("oracles")

# Property tests replay the same examples on every run (no example database),
# and their example counts keep the whole fuzz module to a few seconds.
settings.register_profile(
    "pcrboost",
    derandomize=True,
    database=None,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("pcrboost")


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" in nodeid and "::" in nodeid:
                name = nodeid.split("::", 1)[1]
                verdict = "PASS" if outcome == "passed" else "FAIL"
                lines.append((name, verdict))
    if lines:
        terminalreporter.section("acceptance criteria")
        for name, verdict in sorted(lines):
            terminalreporter.write_line(f"{verdict}  {name}")
