"""The thread count of numpy's bundled OpenBLAS (scipy-openblas), read and
set through ctypes.

The library and its two symbols are looked up once, on first use, so
importing the package costs nothing. When they are not found, threads()
reads 1 and one_thread() does nothing: ppm.posterior_sensitivity then runs
on one lane, the calling thread, at the process's thread count, and a draw
keeps its bits, which no thread count changes (swag.DrawMaker).
"""

import contextlib
import ctypes
import functools
import glob
import os
import threading

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


# The one_thread windows open on any thread: how many, and the count the
# first one found, which the last one to close restores.
_windows = threading.Lock()
_open = 0
_before = 1


@contextlib.contextmanager
def one_thread():
    """Run the block at one OpenBLAS thread, and restore the count the
    process had on every exit. The count is process-wide: BLAS calls that
    other threads make meanwhile run at one thread too, and windows that
    overlap on several threads hold it at one until the last one closes."""
    global _open, _before
    controls = _controls()
    if not controls:
        yield
        return
    get, set_ = controls
    with _windows:
        if not _open:
            _before = get()
            set_(1)
        _open += 1
    try:
        yield
    finally:
        with _windows:
            _open -= 1
            if not _open:
                set_(_before)
