"""Output checks that rest on computations made apart from the program.

Every check recomputes a protocol value from the paper's formulas with
arithmetic written here, never through `lsrp.modq` or `lsrp.reconcile`,
and raises CheckFailed when the program's output disagrees:

    V   = S_I * A + 2 * E_I  (mod q)                 registration
    M_C - M_S  even, |M_C - M_S|_inf <= floor(q/4) - 2   reconciliation precondition
    k   = parity(centered((M_S + sigma * (q-1)/2) mod q)) extractor
    sk  = SHAKE-256("LSRP-kdf" || packbits(k) || lambda_seed)[:32]
"""
from __future__ import annotations

import hashlib

import numpy as np

KDF_TAG = b"LSRP-kdf"
SESSION_KEY_LEN = 32
_LIMB = 16


class CheckFailed(Exception):
    """A program output disagrees with its independent recomputation."""


def centered(x: np.ndarray, q: int) -> np.ndarray:
    """Representatives in (-q/2, q/2) of residues in [0, q)."""
    x = np.asarray(x, dtype=np.int64)
    return np.where(x > (q - 1) // 2, x - q, x)


def exact_product_mod(small: np.ndarray, big: np.ndarray, q: int) -> np.ndarray:
    """(small @ big) mod q with exact int64 arithmetic.

    `small` is signed with |entries| < 2^15 (a Gaussian matrix), `big`
    holds residues in [0, q) with q < 2^32.  `big` is split into two
    16-bit limbs, so each partial sum is below n * 2^31 and cannot wrap
    for any n < 2^32.
    """
    small = np.asarray(small, dtype=np.int64)
    big = np.asarray(big, dtype=np.int64)
    if q >= 1 << (2 * _LIMB):
        raise ValueError("limb product needs q < 2^32")
    if small.size and int(np.abs(small).max()) >= 1 << 15:
        raise ValueError("small operand exceeds 2^15")
    lo = small @ (big & ((1 << _LIMB) - 1))
    hi = small @ (big >> _LIMB)
    return ((hi % q) * ((1 << _LIMB) % q) + lo) % q


def check_verifier(verifier: np.ndarray, s_i: np.ndarray, e_i: np.ndarray,
                   a: np.ndarray, q: int) -> None:
    """V must equal S_I A + 2 E_I mod q, entry for entry."""
    expected = (exact_product_mod(centered(s_i, q), a, q) + 2 * centered(e_i, q)) % q
    bad = np.argwhere(expected != np.asarray(verifier, dtype=np.int64))
    if bad.size:
        raise CheckFailed(f"verifier differs from S_I A + 2 E_I at {len(bad)} entries, "
                          f"first {tuple(int(i) for i in bad[0])}")


def check_noise(m_c: np.ndarray, m_s: np.ndarray, q: int) -> int:
    """M_C - M_S must be even with centered inf-norm at most floor(q/4) - 2; returns the norm."""
    d = centered((np.asarray(m_c, dtype=np.int64) - np.asarray(m_s, dtype=np.int64)) % q, q)
    if (d % 2).any():
        raise CheckFailed("key-material difference has odd entries")
    norm = int(np.abs(d).max())
    if norm > q // 4 - 2:
        raise CheckFailed(f"key-material gap {norm} exceeds floor(q/4) - 2 = {q // 4 - 2}")
    return norm


def derive_session_key(m_s: np.ndarray, sigma: np.ndarray, q: int, lambda_seed: bytes) -> bytes:
    """Session key from the server's key material and signal, by the paper's extractor and KDF."""
    shifted = (np.asarray(m_s, dtype=np.int64) + np.asarray(sigma, dtype=np.int64) * ((q - 1) // 2)) % q
    bits = (centered(shifted, q) % 2).astype(np.uint8)
    packed = np.packbits(bits.reshape(-1)).tobytes()
    return hashlib.shake_256(KDF_TAG + packed + lambda_seed).digest(SESSION_KEY_LEN)


def check_session_key(session_key: bytes | None, m_s: np.ndarray, sigma: np.ndarray,
                      q: int, lambda_seed: bytes) -> None:
    if session_key != derive_session_key(m_s, sigma, q, lambda_seed):
        raise CheckFailed("session key differs from the extractor and KDF recomputed from M_S and sigma")


def check_agreement(client_key: bytes | None, server_key: bytes | None, confirmed: bool) -> None:
    """A right-password handshake: both tags verified and both sides hold the same key."""
    if not confirmed:
        raise CheckFailed("confirmation tags did not verify")
    if client_key is None or client_key != server_key:
        raise CheckFailed("client and server session keys differ")


def check_rejected(exit_code: int, expected_code: int) -> None:
    """A wrong-password or unknown-id login must end in the authentication-failed exit code."""
    if exit_code != expected_code:
        raise CheckFailed(f"login that must be rejected ended with exit code {exit_code}")
