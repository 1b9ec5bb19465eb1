import pytest

from qequil import batteries


@pytest.fixture(autouse=True)
def at_most_two_workers(monkeypatch):
    """Process pools started in a test take at most two workers, whatever
    the machine's CPU count."""
    usable = batteries._usable_cpus
    monkeypatch.setattr(batteries, "_usable_cpus", lambda: min(usable(), 2))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def acceptance(request):
    """Recorder for one pass/fail line per acceptance criterion."""

    def record(number, description, ok):
        lines = request.config.__dict__.setdefault("_acceptance_lines", [])
        verdict = "PASS" if ok else "FAIL"
        lines.append(f"[{verdict}] criterion {number:2d}: {description}")
        return ok

    return record
