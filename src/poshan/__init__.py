"""Cardinal-POS-pattern guided hierarchical attention for headline incongruence."""

import os

# read at numpy's first import: one BLAS thread, unless set, so trained bytes ignore the CPU count
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

__version__ = "0.1.0"
