"""LWE-based Secure Remote Password: registration, key exchange with
signal/extractor reconciliation, key confirmation, wire codec, and a
Monte-Carlo validation harness."""

import ctypes
import os

# OpenBLAS otherwise starts one spinning thread per core, which contends with
# the protocol's own threads; it reads this once, when numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# glibc's <malloc.h> parameter numbers, and how much freed memory to keep.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_KEEP = 32 << 20
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


def _keep_freed_heap(libc) -> bool:
    """Have glibc's malloc keep freed memory in the process; True if applied.

    A handshake allocates and frees n x n matrices (512 KB at n=256).
    By default glibc maps blocks that large with mmap or trims the freed
    heap, and the next handshake faults the pages in again.  With both
    thresholds at 32 MiB these blocks come from the heap, and each arena
    keeps up to 32 MiB free at its top.  An explicit malloc setting in the
    environment wins, and a C library that is not glibc is left alone.
    """
    mallopt = getattr(libc, "mallopt", None)
    if (mallopt is None or not hasattr(libc, "gnu_get_libc_version")
            or any(name in os.environ for name in _MALLOC_ENV)):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return all(mallopt(param, _HEAP_KEEP) == 1 for param in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD))


try:
    _LIBC = ctypes.CDLL(None)
except (OSError, TypeError):  # no C library to load by this name (e.g. Windows)
    _LIBC = None
KEEPS_FREED_HEAP = _keep_freed_heap(_LIBC)

from .params import ProtocolParams, default_params, validate
from .modq import ModQMatrix
from .reconcile import BitMatrix, KeyBits, SignalMatrix, extract, signal
from .srp_core import ClientSession, ServerSession, VerifierRecord, register
from .credstore import CredentialStore
from .harness import HarnessReport, simulate

__all__ = [
    "ProtocolParams", "default_params", "validate",
    "ModQMatrix",
    "BitMatrix", "KeyBits", "SignalMatrix", "extract", "signal",
    "ClientSession", "ServerSession", "VerifierRecord", "register",
    "CredentialStore",
    "HarnessReport", "simulate",
]
