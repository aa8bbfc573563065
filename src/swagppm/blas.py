"""The thread count of numpy's bundled OpenBLAS (scipy-openblas), read and
set through ctypes.

The library and its two symbols are looked up once, on first use, so
importing the package costs nothing. When they are not found, threads()
reads 1 and one_thread() does nothing: the posterior fold then runs on one
lane, the calling thread, with a whole gemv at the process's thread count.
"""

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np


@functools.cache
def _controls():
    """(get, set) of the thread count, or () when the library or its
    symbols are not found; looked up once, on first use."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs,
                                              "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return ()


def threads():
    """OpenBLAS's thread count, or 1 when its controls were not found."""
    controls = _controls()
    return controls[0]() if controls else 1


@contextlib.contextmanager
def one_thread():
    """Run the block at one OpenBLAS thread, and restore the count the
    process had on every exit. The count is process-wide: BLAS calls that
    other threads make meanwhile run at one thread too."""
    controls = _controls()
    if not controls:
        yield
        return
    get, set_ = controls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
