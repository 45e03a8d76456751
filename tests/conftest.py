"""Shared test configuration: hypothesis profiles + acceptance reporting."""

import os

from hypothesis import HealthCheck, settings

import seqskip

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.register_profile(
    "thorough",
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# One line per acceptance criterion, echoed in the terminal summary so the
# verdicts are visible even when per-test stdout is captured.
ACCEPTANCE_LINES: list[tuple[int, str]] = []


def record_criterion(index: int, passed: bool, detail: str) -> None:
    line = f"criterion {index:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append((index, line))
    print(line)


# pyproject's ``pythonpath = ["src"]`` puts this checkout's src first, ahead of
# PYTHONPATH: this line names the tree whose code the run tests, relative to the
# directory pytest runs in, and the BLAS thread settings, which move criteria 5,
# 6 and 8 in the fourth decimal. It heads the report and ends the summary, which
# ``-q`` keeps.
BLAS_THREADS = " ".join(
    f"{name}={os.environ.get(name, 'unset')}"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
)
TESTED_TREE = f"seqskip: {os.path.relpath(seqskip.__file__)}; {BLAS_THREADS}"


def pytest_report_header(config):
    return TESTED_TREE


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    terminalreporter.write_line(TESTED_TREE)
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
