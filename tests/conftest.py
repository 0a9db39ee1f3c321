import faulthandler
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# the same examples on every run, so a defect that only a property test
# catches is caught every time, not by chance of the draw
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

TEST_TIME_LIMIT_S = 120  # the slowest test takes about 7 s
STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # output capture is suspended while plugins configure, so this copies the
    # terminal's stderr: during a test fd 2 is captured, and a dump written
    # there would be lost when the process exits
    config.stash[STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[STDERR])


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail the run when one test outlasts TEST_TIME_LIMIT_S: faulthandler's
    watchdog thread dumps every thread's stack and exits non-zero, so a
    search that never ends fails instead of hanging the suite. It sends no
    signal, so code under test may own SIGALRM."""
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True, file=request.config.stash[STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
