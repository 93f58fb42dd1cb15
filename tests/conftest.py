"""Shared fixtures: paths to committed data and a cached copula dataset."""

from pathlib import Path

import pytest

from quantcord import read_csv

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def copula_data():
    """The committed n=5000, rho=0.5 Gaussian-copula fixture."""
    data, dropped = read_csv(FIXTURES / "copula_n5000.csv")
    assert dropped == ()
    assert data.n == 5000
    return data


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-gate verdicts after the capture is released."""
    lines = getattr(terminalreporter.config, "acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
