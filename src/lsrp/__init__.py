"""LWE-based Secure Remote Password: registration, key exchange with
signal/extractor reconciliation, key confirmation, wire codec, and a
Monte-Carlo validation harness."""

import os

# OpenBLAS otherwise starts one spinning thread per core, which contends with
# the protocol's own threads; it reads this once, when numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
