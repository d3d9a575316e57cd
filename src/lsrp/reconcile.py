"""Signal and extractor functions collapsing close key material to equal bits.

The hint functions tell the peer which half of Z_q a value lies in; the
extractor then maps value + hint to one shared bit.  Two values whose
centered difference is even and at most floor(q/4) - 2 in absolute value
extract to the same bit when the hint is computed on either of them.

The hint intervals and the extractor parity are defined on centered
representatives in (-q/2, q/2); the array functions get the same bits from
canonical residues in [0, q), q odd.  The centered interval [-b+v, b+v]
(b = floor(q/4), v the variant) is [0, b+v] and [q-b+v, q) canonically, so
the hint is 1 iff b+v < x < q-b+v.  Centering s = x + sigma*(q-1)/2
subtracts q when s > (q-1)/2, flipping the parity: the bit is parity(s) XOR
(s > (q-1)/2).  Only the centered parity makes the agreement guarantee hold
across the wrap of the canonical range.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonIntegerEntries
from .modq import ModQMatrix, centered


class BitMatrix:
    """Immutable n x n matrix of bits."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits) -> None:
        arr = np.asarray(bits)
        if arr.dtype.kind not in "biu":
            raise NonIntegerEntries(f"bits must be integers, got dtype {arr.dtype}")
        if arr.shape != (n, n):
            raise DimensionMismatch(f"expected shape ({n}, {n}), got {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() > 1):  # checked before a cast could wrap
            raise ValueError("entries must be bits")
        arr = arr.astype(np.uint8, copy=False)
        self.n = n
        self.bits = arr
        arr.setflags(write=False)

    @classmethod
    def zeros(cls, n: int) -> "BitMatrix":
        return cls(n, np.zeros((n, n), dtype=np.uint8))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.bits, other.bits))

    def __hash__(self):
        return hash((self.n, self.bits.tobytes()))

    def packed(self) -> bytes:
        """Row-major bits packed 8 per byte, MSB first, zero padded."""
        return np.packbits(self.bits.reshape(-1)).tobytes()


SignalMatrix = BitMatrix
KeyBits = BitMatrix


def hint0(x: int, q: int) -> int:
    """0 iff the centered value lies in [-floor(q/4), floor(q/4)]."""
    b = q // 4
    return 0 if -b <= centered(x, q) <= b else 1


def hint1(x: int, q: int) -> int:
    """0 iff the centered value lies in [-floor(q/4)+1, floor(q/4)+1]."""
    b = q // 4
    return 0 if -b + 1 <= centered(x, q) <= b + 1 else 1


def hint_bits(x: np.ndarray, variant, q: int) -> np.ndarray:
    """Entrywise hint of residues x; variant (per entry, or one bit) 0 is hint0, 1 is hint1."""
    b = q // 4
    y = x - variant  # the hint is 1 iff b + v < x < q - b + v
    return ((y > b) & (y < q - b)).astype(np.uint8)


def extract_bits(x: np.ndarray, sigma, q: int) -> np.ndarray:
    """Entrywise extractor on canonical residues x and hint bits sigma:
    parity(s) XOR (s > (q-1)/2) for s = x + sigma*(q-1)/2, as the module notes."""
    half = (q - 1) // 2
    s = np.multiply(sigma, half, dtype=np.int64)
    s += x
    bits = s.astype(np.uint8)  # the low byte keeps the parity
    bits &= 1
    bits ^= s > half
    return bits


def signal(m: ModQMatrix, variants: np.ndarray) -> SignalMatrix:
    """Entrywise randomized signal: one variant bit per entry, row-major.

    variants holds n*n bits.  The protocol reads them from the server's
    seeded stream, so the signal is deterministic in the session seed.
    """
    variants = np.asarray(variants, dtype=np.uint8).reshape(m.n, m.n)
    return SignalMatrix(m.n, hint_bits(m.entries, variants, m.q))


def extract_bit(x: int, sigma: int, q: int) -> int:
    """Shared bit: parity of the CENTERED value of (x + sigma*(q-1)/2) mod q.

    Parity of a residue depends on the representative when q is odd; the
    agreement guarantee only holds on the centered one (a small negative
    offset that wraps the canonical range shifts the representative by q
    and would flip canonical parity).
    """
    return centered((x + sigma * ((q - 1) // 2)) % q, q) % 2


def extract(m: ModQMatrix, s: SignalMatrix) -> KeyBits:
    """Entrywise extractor; deterministic in (m, s)."""
    if m.n != s.n:
        raise DimensionMismatch(f"{m.n} vs {s.n}")
    return KeyBits(m.n, extract_bits(m.entries, s.bits, m.q))
