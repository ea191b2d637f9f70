"""Test-session set-up: one BLAS thread, fixed before NumPy loads.

OpenBLAS factors the spectral solver's matrix on a different code path
with one thread than with several, so the last bits of the eigenvalues,
and the golden digest pinned on them, depend on the thread count.  The
benchmark runs with one BLAS thread; pinning the same here makes tier-1
independent of the machine's core count and of the caller's environment.
The variables are read once, when NumPy first loads its BLAS, which is
why this runs at conftest import, before any test module imports NumPy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
