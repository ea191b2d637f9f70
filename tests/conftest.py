"""Test-session set-up: one BLAS thread, fixed before NumPy loads, and a
watchdog on every test.

OpenBLAS reduces the spectral solver's blocks to tridiagonal form on a
different code path with one thread than with several, so the last bits of
the eigenvalues (from grid 512 up), and the golden digest pinned on them,
depend on the thread count.  The
benchmark runs with one BLAS thread; pinning the same here makes tier-1
independent of the machine's core count and of the caller's environment.
The variables are read once, when NumPy first loads its BLAS, which is
why this runs at conftest import, before any test module imports NumPy.
"""

import faulthandler
import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

TEST_TIMEOUT_S = 300


@pytest.fixture(autouse=True)
def _watchdog():
    """A test that runs past ``TEST_TIMEOUT_S`` dumps every thread's stack and
    ends the session, so a piece that waits forever shows where it waits
    instead of running into the CI job's timeout."""
    faulthandler.dump_traceback_later(TEST_TIMEOUT_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()
