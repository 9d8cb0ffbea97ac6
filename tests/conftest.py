"""Pin BLAS and OpenMP to one thread before numpy is first imported.

One banded Cholesky factorization at h = 2^-5 is too small to share: on a
2-core machine dpbtrf takes 0.50 ms on one thread and 2.0 ms on two, which
is OpenBLAS's default there. A setting already in the environment is kept.
"""

import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py"
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
