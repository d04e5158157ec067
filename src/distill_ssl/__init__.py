"""Desk-scale distilled momentum-contrastive self-supervised learning."""

import ctypes

__version__ = "0.1.0"

# glibc's allocator thresholds, fixed once when the package is imported, so
# every process that runs it (the CLI, a library caller, a forked worker)
# has the same policy before anything loads: left alone, glibc raises its
# mmap threshold when a large mapping is freed, so step speed would hang on
# what the process freed before.  8 MiB is above every hot-loop temporary at
# the defaults (the largest, a sweep feature batch's conv2 columns, is
# 2.4 MB) and below both datasets (9.8 and 19.7 MB), so each dataset gets a
# mapping of its own that goes back to the OS when freed.  Trimming at
# 16 MiB (twice that, as in glibc's dynamic rule) keeps the heap top mapped
# between steps; 32/64 MiB grew the sweep's peak RSS by 6 %.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers
_MMAP_THRESHOLD = 8 << 20
_TRIM_THRESHOLD = 16 << 20


def _fix_allocator() -> None:
    """Apply the allocator policy above; a libc without ``mallopt`` keeps its own."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_fix_allocator()
