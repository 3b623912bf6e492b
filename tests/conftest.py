"""Test-session set-up: BLAS and OpenMP run one thread each, set before
numpy is first imported, so that tier-1 does not oversubscribe the CPUs it
shares with other work.  A value already in the environment is kept."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
