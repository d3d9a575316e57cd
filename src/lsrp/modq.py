"""Arithmetic over Z_q and over square matrices of Z_q elements.

Entries are stored canonically in [0, q), q < 2^32 (`Q_LIMIT`).  A sum,
difference or doubling is one NumPy add or subtract into a new array,
folded into [0, q) in place by one compare-min on its uint64 view: with
canonical operands the raw result lies in (-q, 2q), and exactly one of
u and u -/+ q (mod 2^64) is below q, the smaller one.  The public
constructor checks its input's dtype, shape and range; results of Z_q
arithmetic are canonical by construction and skip those scans.

A product multiplies float64 forms of both operands with BLAS and reduces
the integer-valued result in int64.  It is exact while n*max|x|*max|y| <
2^53: every partial sum is then an integer below 2^53 in any summation
order.  When n*(q-1)^2 < 2^53 that holds for any canonical operands (at
n=128, q=65537 the sums stay below 2^39), so the float form is the
canonical residues and nothing is scanned.  Otherwise a matrix whose
centered entries are known to be small (`small`: a Gaussian draw carries
its table's bound, and a sum of two such matrices the sum of their
bounds) is centered into (-q/2, q/2] without a scan, and its partner in a
protocol product, uniform in Z_q, is cast as it is: n*small*(q-1) < 2^53
holds at every protocol size (at n=256, q=2^25-39, tau=3 the sums stay
below 2^39).  Other operands are centered and their largest absolute
entries scanned; if the bound still fails, the canonical right operand
is cut into k-bit limbs with n*max|x|*2^k < 2^53, recombined from the top
limb in int64, where q*2^k < 2^63 rules out wrap.  A matrix used in many
products (the basis A) computes its float form and bound once and keeps
them (`keep_float_form`); no other matrix holds one past its product.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, ModulusMismatch, NonIntegerEntries

Q_LIMIT = 1 << 32  # moduli lie below this; the wire writes entries as 4-byte words
_FLOAT_EXACT_BITS = 53


def centered(x: int, q: int) -> int:
    """Map a canonical residue in [0, q) to its representative in (-q/2, q/2]."""
    x = int(x)
    return x if x <= (q - 1) // 2 else x - q


def centered_array(entries: np.ndarray, q: int) -> np.ndarray:
    """Canonical residues in [0, q) as centered representatives in (-q/2, q/2]."""
    return entries - q * (entries > (q - 1) // 2)


def reduce_array(a: np.ndarray, q: int) -> np.ndarray:
    """a % q in [0, q), as one new array; NumPy's int64 `//` by a scalar beats `%` several times."""
    out = a // q
    out *= q
    return np.subtract(a, out, out=out)


def fold_sum(a: np.ndarray, q: int) -> np.ndarray:
    """Map int64 entries in [0, 2q) to their residues in [0, q), in place."""
    u = a.view(np.uint64)
    np.minimum(u, u - np.uint64(q), out=u)
    return a


def fold_signed(a: np.ndarray, q: int) -> np.ndarray:
    """Map int64 entries in (-q, q) to their residues in [0, q), in place."""
    u = a.view(np.uint64)
    np.minimum(u, u + np.uint64(q), out=u)
    return a


def _centered_float(entries: np.ndarray, q: int) -> np.ndarray:
    """Canonical residues as centered float64 representatives, exact since q < 2^32."""
    x = np.multiply(entries > (q - 1) // 2, float(-q))
    x += entries
    return x


class ModQMatrix:
    """Immutable n x n matrix over Z_q."""

    __slots__ = ("n", "q", "entries", "_float", "small")

    def __init__(self, n: int, q: int, entries) -> None:
        arr = np.asarray(entries)
        if arr.dtype.kind not in "iu":
            raise NonIntegerEntries(f"entries must be integers, got dtype {arr.dtype}")
        arr = arr.astype(np.int64, copy=False)
        if arr.shape != (n, n):
            raise DimensionMismatch(f"expected shape ({n}, {n}), got {arr.shape}")
        if q >= Q_LIMIT:
            raise ValueError(f"modulus {q} not below 2^32")
        if arr.size and arr.view(np.uint64).max() >= q:  # a negative entry is above 2^63
            raise ValueError(f"entries must lie in [0, {q})")
        self._set(n, q, arr)

    def _set(self, n: int, q: int, arr: np.ndarray, small: int | None = None) -> None:
        self.n = n
        self.q = q
        self.entries = arr
        self._float = None
        self.small = small  # a bound on the centered entries' absolute values, if known
        arr.setflags(write=False)

    @classmethod
    def _canonical(cls, n: int, q: int, arr: np.ndarray, small: int | None = None) -> "ModQMatrix":
        """Wrap an int64 (n, n) array of residues in [0, q) without rescanning it,
        for results that are canonical by construction; small, if given, bounds
        the absolute values of its centered entries."""
        m = cls.__new__(cls)
        m._set(n, q, arr, small)
        return m

    @classmethod
    def zeros(cls, n: int, q: int) -> "ModQMatrix":
        return cls(n, q, np.zeros((n, n), dtype=np.int64))

    @classmethod
    def from_signed(cls, n: int, q: int, entries) -> "ModQMatrix":
        """Reduce arbitrary signed integer entries into [0, q)."""
        arr = reduce_array(np.asarray(entries, dtype=np.int64), q)
        return cls(n, q, arr)

    def _check(self, other: "ModQMatrix") -> None:
        if self.n != other.n:
            raise DimensionMismatch(f"{self.n} vs {other.n}")
        if self.q != other.q:
            raise ModulusMismatch(f"{self.q} vs {other.q}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModQMatrix):
            return NotImplemented
        return (self.n == other.n and self.q == other.q
                and bool(np.array_equal(self.entries, other.entries)))

    def __hash__(self):
        return hash((self.n, self.q, self.entries.tobytes()))

    def __repr__(self) -> str:
        return f"ModQMatrix(n={self.n}, q={self.q})"

    def __add__(self, other: "ModQMatrix") -> "ModQMatrix":
        self._check(other)
        small = None
        if self.small is not None and other.small is not None:
            small = self.small + other.small
            if small > (self.q - 1) // 2:  # the sum may wrap
                small = None
        return ModQMatrix._canonical(self.n, self.q, fold_sum(np.add(self.entries, other.entries), self.q),
                                     small)

    def __sub__(self, other: "ModQMatrix") -> "ModQMatrix":
        self._check(other)
        diff = np.subtract(self.entries, other.entries)
        return ModQMatrix._canonical(self.n, self.q, fold_signed(diff, self.q))

    def _float_form(self, partner_small: int | None = None) -> tuple[np.ndarray, int]:
        """The float64 form products multiply, and a bound on its absolute entries.

        The canonical residues do when every product with them stays exact:
        at n*(q-1)^2 < 2^53, or when this matrix's centered entries are not
        known to be small but its partner's (partner_small) are.
        """
        if self._float is not None:
            return self._float
        n, q = self.n, self.q
        if n * (q - 1) ** 2 < 1 << _FLOAT_EXACT_BITS or (
                self.small is None and partner_small is not None
                and n * partner_small * (q - 1) < 1 << _FLOAT_EXACT_BITS):
            return self.entries.astype(np.float64), q - 1
        x = _centered_float(self.entries, q)
        if self.small is not None:
            return x, self.small
        return x, int(max(x.max(initial=0), -x.min(initial=0)))

    def keep_float_form(self) -> "ModQMatrix":
        """Compute this matrix's float form and bound once and keep them for
        every later product; for an operand of many products.  Returns self."""
        x, bound = self._float_form()
        x.setflags(write=False)
        self._float = (x, bound)
        return self

    def __matmul__(self, other: "ModQMatrix") -> "ModQMatrix":
        """Exact product mod q; see the module docstring for the exactness bound."""
        self._check(other)
        n, q = self.n, self.q
        x, x_bound = self._float_form(other.small)
        y, y_bound = other._float_form(self.small)
        row_bound = n * x_bound
        if row_bound * y_bound < 1 << _FLOAT_EXACT_BITS:
            k, limbs = 0, [y]
        else:
            k = min(_FLOAT_EXACT_BITS - row_bound.bit_length(), 63 - q.bit_length())
            y = other.entries
            count = -(-int(y.max()).bit_length() // k)
            limbs = [(y >> (k * i)) & ((1 << k) - 1) for i in reversed(range(count))]
        out = None
        for limb in limbs:
            part = reduce_array((x @ limb.astype(np.float64, copy=False)).astype(np.int64), q)
            out = part if out is None else reduce_array((out << k) + part, q)
        return ModQMatrix._canonical(n, q, out)

    def scale2(self) -> "ModQMatrix":
        """Entrywise doubling mod q (the protocol's noise factor 2)."""
        return ModQMatrix._canonical(self.n, self.q, fold_sum(np.add(self.entries, self.entries), self.q))

    def centered(self) -> np.ndarray:
        """Entries as centered representatives in (-q/2, q/2)."""
        return centered_array(self.entries, self.q)

    def inf_norm(self) -> int:
        """Max absolute centered entry."""
        return int(np.abs(self.centered()).max())

