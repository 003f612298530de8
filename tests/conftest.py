import os
import sys

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# one profile for every property test: example times vary with the host load
settings.register_profile("modvar", deadline=None)
settings.load_profile("modvar")

_ACCEPTANCE = []


def record_acceptance(name, ok, seconds, detail=""):
    _ACCEPTANCE.append((name, bool(ok), float(seconds), str(detail)))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    tr = terminalreporter
    tr.ensure_newline()
    tr.section("acceptance checks")
    for name, ok, secs, detail in _ACCEPTANCE:
        line = "%-36s %s %7.2fs" % (name, "PASS" if ok else "FAIL", secs)
        if detail:
            line += "  " + detail
        tr.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
