"""Test-session setup.

Single-threaded BLAS, unless the environment says otherwise: every matrix the
tests multiply is small (2x2 up to a few hundred rows), so extra BLAS threads
only add wake-up latency, and after the machine has idled that latency alone
pushes the timed acceptance criteria over their budgets.  Set before numpy is
first imported, which is when OpenBLAS reads it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
