"""Shared fixtures: paths to committed data, a cached copula dataset and
a pinned count of usable CPUs."""

import importlib
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


@pytest.fixture()
def pin_cpus(monkeypatch):
    """Let bootstrap() see ``count`` usable CPUs, whatever the host has, so
    that a pooled run forks on a one-CPU host too."""
    module = importlib.import_module("quantcord.bootstrap")
    return lambda count: monkeypatch.setattr(module, "_usable_cpus", lambda: count)


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-gate verdicts after the capture is released."""
    lines = getattr(terminalreporter.config, "acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
