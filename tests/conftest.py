"""Shared pytest plumbing: acceptance reporting, markers and test profiles."""

import numpy as np

from nediff.nearfield import CouplingProfile

ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def record_criterion(number: int, description: str, passed: bool, detail: str = ""):
    ACCEPTANCE_RESULTS.append((number, description, passed, detail))


def uniform_profile(coupling_rad, y_min, y_max, laser, v0, y) -> CouplingProfile:
    """The one-dimensional PINEM limit: a constant cosine coupling over
    y_min <= y <= y_max, none elsewhere, and no near-field model behind it."""
    c = np.where((y >= y_min) & (y <= y_max), coupling_rad, 0.0)
    return CouplingProfile(y=y, coupling_cos=c, coupling_sin=np.zeros_like(c),
                           delta_k=laser.omega / v0, model=None, laser=laser, v0=v0)


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: acceptance-gate criteria")
    config.addinivalue_line("markers", "slow: long-running end-to-end runs")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] criterion {number:2d}: {description}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
