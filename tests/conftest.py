import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

ACCEPTANCE_LINES = []

# edeg G(2,4), the exact value of the k = 2 radial quadrature
EDEG24 = 1.7262312489219025


@pytest.fixture(scope="session")
def profile2():
    """The shared D(2) radial profile (built once, reused everywhere)."""
    from grassdeg import zonoid

    return zonoid.default_profile()


@pytest.fixture(scope="session")
def criterion_log():
    """Collector for the acceptance-criteria verdict lines."""
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
