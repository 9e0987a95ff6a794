"""Test setup: numpy's BLAS threads are pinned to one before numpy
loads, as `bench/run.py` pins them.  The tests run small dense eigenvalue
problems from one thread, where BLAS threads only contend with each other
and with any other process on the machine."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
