"""Pin BLAS and OpenMP pools to one thread for the test run.

pytest loads this file before it imports any test module, and so before
numpy loads its BLAS, which reads these variables once.  On a 2-vCPU
machine the small products and multi-right-hand-side solves of the block
fits run many times slower on two threads than on one.  An explicit
setting in the environment still wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
