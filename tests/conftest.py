import sys
from pathlib import Path

import pytest

# make the shared oracle helpers importable from every test module
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def fork_every_share(monkeypatch):
    # a test that asks ensemble for more than one worker gets them, however
    # small its ensemble; TestForkGrain overrides this to test the grain
    from sburgers import integrator
    monkeypatch.setattr(integrator, "FORK_ROW_STEPS", 1)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # echo the one-line acceptance results collected during the run
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance results")
        for line in lines:
            terminalreporter.write_line(line)
