"""Pin BLAS/OpenMP threads to one before numpy is imported.

On small machines a second OpenBLAS thread slows the short vector
operations of the cell CG; the benchmark runs with the same setting.
Variables already set in the environment are left as they are.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
