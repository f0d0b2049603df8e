"""Locate the checkout, pin thread and process counts, and import cascadeg2 from source.

Import this module, and call :func:`prepare`, before anything imports numpy:
BLAS reads its thread count once, when numpy loads.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
PACKAGE = SOURCE / "cascadeg2"

# One BLAS thread per process: the matrices are at most 26x26, and a pool
# worker per core times a BLAS thread per core would oversubscribe the cores.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKERS_VAR = "CASCADEG2_WORKERS"


class CheckoutError(RuntimeError):
    """The directory holds no importable cascadeg2 source tree."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def prepare():
    """Pin thread/process counts to at most nproc and import cascadeg2 from ``src``.

    Raises CheckoutError unless the package is imported from this checkout,
    so a benchmark directory without the source never measures an installed
    copy instead.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # The figure pool defaults to os.cpu_count(), which can exceed the cores
    # this process may run on.
    os.environ[WORKERS_VAR] = str(nproc())
    if not (PACKAGE / "__init__.py").is_file():
        raise CheckoutError(f"no cascadeg2 source under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import cascadeg2

    if Path(cascadeg2.__file__).resolve().parent != PACKAGE:
        raise CheckoutError(f"cascadeg2 imported from {cascadeg2.__file__}, "
                            f"not from {PACKAGE}")
    return cascadeg2
