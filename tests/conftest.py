"""Pin BLAS and OpenMP to one thread before numpy is first imported.

One banded Cholesky factorization at h = 2^-5 is too small to share: on a
2-core machine it takes 0.29-0.45 ms on one thread and 1.4 ms on two, which
is OpenBLAS's default there. A setting already in the environment is kept.
BLAS stays at one thread per call; the frozen eval set's passes still run
one lane per CPU (see sadmm.problems.FrozenEvalSet), and no result depends
on the lane count.
"""

import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py"
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
