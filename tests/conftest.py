"""Pin OpenBLAS to one thread before numpy loads.

Seeded outputs depend on the BLAS thread count in their last bits, and the
benchmark (``bench/run.py``) pins one thread, so the tests do too: both
then see the same bits.
"""
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
