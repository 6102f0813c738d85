"""The entry point of ``python -m dpmix`` and of the ``dpmix`` console script.

A float64 product can round differently on another number of BLAS
threads, and so would a model's bytes.  BLAS reads its thread count when
numpy loads, so ``main`` sets the variables below to 1 before it imports
``dpmix.cli`` (``import dpmix`` loads no submodule), unless the user has
set any of them.
"""
import os
import sys

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    from .cli import main as run

    return run()


if __name__ == "__main__":
    sys.exit(main())
