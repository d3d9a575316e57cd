"""Seeded sampling of uniform and discrete-Gaussian matrices, and fresh salts.

Seeded randomness flows through two kinds of stream.  A `StreamExpander`
is SHAKE-256(tag, seed), so any (tag, seed) pair yields the same bytes on
every platform; every draw that another party or a golden vector must
reproduce comes from one (the registration secrets, the basis A, decoys).
A `SessionStream` is a ChaCha20 keystream (RFC 8439) under a key hashed
from (tag, seed) with SHAKE-256; a party's private ephemerals come from
one, since no peer ever reproduces them, and ChaCha20 expands a seed
over ten times faster than the SHAKE-256 XOF.  Both squeeze a prefix of
the stream and squeeze again from byte 0 when a read runs past it; a
caller that knows its draw budget passes it as `reserve`, and the stream
is squeezed once, at that length.  Both outputs are prefix-consistent,
so a wrong budget costs time, never different bytes.

Both squeezes run in OpenSSL (the SHAKE-256 XOF and the ChaCha20 cipher),
called through ctypes in the libcrypto that hashlib is linked against.
ctypes releases the GIL for the squeeze, so concurrent handshakes (the
threads of `lsrp serve`, or several in-process callers) squeeze their
streams in parallel; hashlib's XOF digest holds the GIL for the whole
squeeze.  The short digests elsewhere (KDF, tags, seeds) stay on hashlib.

Gaussian sampling is inverse-CDT on a 64-bit fixed-point cumulative table:
the table is plain integer data, so seeded draws are bit-exact, unlike
rejection samplers whose float rounding varies across platforms.  It is
built once per (tau, q) with the standard library's `decimal` module at
92 digits: one exp gives g = exp(-pi/tau^2), and the weights g^(x^2) follow
by the recurrence w(x+1) = w(x) g^(2x+1).  The
lookup is indexed by a draw's top 12 bits: a bucket that holds no table
entry maps every draw in it to the same value, so a 4096-entry table of
the value per prefix answers a whole matrix of draws with one gather.  The
value is what the caller wants: the residue mod q for a protocol matrix
(so no draw is wrapped afterwards), or the signed integer.  A sentinel
marks the few buckets that hold an entry (about 0.24% of draws at tau=3);
only their draws need a binary search.
"""
from __future__ import annotations

import ctypes
import hashlib
import math
import secrets
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from itertools import accumulate
from types import SimpleNamespace

import numpy as np

from .errors import EmptyField
from .modq import ModQMatrix
from .params import SALT_LEN, TAIL_CUTOFF, ProtocolParams

_U64_MAX = 2 ** 64 - 1
_PREFIX_BITS = 12
_PREFIX_SHIFT = 64 - _PREFIX_BITS
_MIXED = np.iinfo(np.int64).min  # lookup sentinel: a table entry lies inside this bucket
# pi to 110 decimals (the next digit is 3), for the Gaussian table's exp(-pi/tau^2)
_PI = Decimal("3.14159265358979323846264338327950288419716939937510"
              "582097494459230781640628620899862803482534211706798214808651")


def _bind_libcrypto() -> SimpleNamespace:
    """The SHAKE-256 and ChaCha20 calls of hashlib's libcrypto, with their signatures declared.

    Only the squeezes, EVP_DigestFinalXOF and EVP_EncryptUpdate, are bound
    through CDLL, which releases the GIL.  The other calls allocate or free,
    and PyDLL keeps them under the GIL: allocating from several threads at
    once made glibc's malloc add ~5 MB (7%) to the peak RSS of two n=256
    callers on a 2-core host.
    """
    c_int, c_size_t, c_void_p = ctypes.c_int, ctypes.c_size_t, ctypes.c_void_p
    try:
        import _hashlib

        keep_gil, drop_gil = ctypes.PyDLL(_hashlib.__file__), ctypes.CDLL(_hashlib.__file__)
        calls = SimpleNamespace()
        for lib, name, restype, argtypes in [
            (keep_gil, "EVP_MD_CTX_new", c_void_p, []),
            (keep_gil, "EVP_MD_CTX_free", None, [c_void_p]),
            (keep_gil, "EVP_shake256", c_void_p, []),
            (keep_gil, "EVP_DigestInit_ex", c_int, [c_void_p, c_void_p, c_void_p]),
            (keep_gil, "EVP_DigestUpdate", c_int, [c_void_p, ctypes.c_char_p, c_size_t]),
            (drop_gil, "EVP_DigestFinalXOF", c_int, [c_void_p, c_void_p, c_size_t]),
            (keep_gil, "EVP_CIPHER_CTX_new", c_void_p, []),
            (keep_gil, "EVP_CIPHER_CTX_free", None, [c_void_p]),
            (keep_gil, "EVP_chacha20", c_void_p, []),
            (keep_gil, "EVP_EncryptInit_ex", c_int,
             [c_void_p, c_void_p, c_void_p, ctypes.c_char_p, ctypes.c_char_p]),
            (drop_gil, "EVP_EncryptUpdate", c_int,
             [c_void_p, c_void_p, ctypes.POINTER(c_int), c_void_p, c_int]),
        ]:
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
            setattr(calls, name, fn)
    except (ImportError, OSError, AttributeError) as exc:
        raise ImportError("lsrp squeezes its seeded streams with OpenSSL's SHAKE-256 XOF and ChaCha20 "
                          f"and could not bind them in the libcrypto that hashlib uses: {exc}") from exc
    return calls


_LIBCRYPTO = _bind_libcrypto()


def _check(status: int, call: str) -> None:
    if status != 1:
        raise RuntimeError(f"OpenSSL {call} failed")


def _shake256(prefix: bytes, length: int) -> np.ndarray:
    """The first `length` bytes of SHAKE-256(prefix), squeezed without the GIL."""
    out = np.empty(length, dtype=np.uint8)
    ctx = _LIBCRYPTO.EVP_MD_CTX_new()
    if not ctx:
        raise MemoryError("OpenSSL EVP_MD_CTX_new failed")
    try:
        _check(_LIBCRYPTO.EVP_DigestInit_ex(ctx, _LIBCRYPTO.EVP_shake256(), None), "EVP_DigestInit_ex")
        _check(_LIBCRYPTO.EVP_DigestUpdate(ctx, prefix, len(prefix)), "EVP_DigestUpdate")
        _check(_LIBCRYPTO.EVP_DigestFinalXOF(ctx, out.ctypes.data, length), "EVP_DigestFinalXOF")
    finally:
        _LIBCRYPTO.EVP_MD_CTX_free(ctx)
    return out


_CHACHA20_CHUNK = 1 << 30  # EVP_EncryptUpdate takes an int length


def _chacha20(key: bytes, length: int) -> np.ndarray:
    """The first `length` bytes of the ChaCha20 keystream (RFC 8439) under `key`,
    nonce zero, block counter 0, made without the GIL."""
    out = np.zeros(length, dtype=np.uint8)
    ctx = _LIBCRYPTO.EVP_CIPHER_CTX_new()
    if not ctx:
        raise MemoryError("OpenSSL EVP_CIPHER_CTX_new failed")
    try:
        # OpenSSL's 16-byte IV is the 4-byte block counter, then the 12-byte nonce
        _check(_LIBCRYPTO.EVP_EncryptInit_ex(ctx, _LIBCRYPTO.EVP_chacha20(), None, key, bytes(16)),
               "EVP_EncryptInit_ex")
        written = ctypes.c_int()
        for start in range(0, length, _CHACHA20_CHUNK):
            chunk = min(_CHACHA20_CHUNK, length - start)
            at = out.ctypes.data + start
            # encrypting zeros in place leaves the keystream
            _check(_LIBCRYPTO.EVP_EncryptUpdate(ctx, at, ctypes.byref(written), at, chunk),
                   "EVP_EncryptUpdate")
            if written.value != chunk:
                raise RuntimeError("OpenSSL EVP_EncryptUpdate wrote a short block")
    finally:
        _LIBCRYPTO.EVP_CIPHER_CTX_free(ctx)
    return out


class StreamExpander:
    """Unbounded deterministic byte stream from SHAKE-256(tag, seed).

    Single-owner: reading advances internal position.  Distinct tags give
    independent streams for the same seed.  `reserve` is the length of
    the first squeeze; reads past it squeeze again at double the length.
    """

    def __init__(self, tag: bytes, seed: bytes, reserve: int = 4096) -> None:
        self._prefix = len(tag).to_bytes(4, "big") + tag + seed
        self._buf = np.empty(0, dtype=np.uint8)
        self._off = 0
        self._reserve = reserve

    def _squeeze(self, length: int) -> np.ndarray:
        return _shake256(self._prefix, length)

    def read(self, k: int) -> memoryview:
        """The next k bytes, as a read-only view of the squeezed buffer (no copy);
        a caller that keeps them past the stream wraps them in bytes()."""
        need = self._off + k
        if need > len(self._buf):
            # the output is prefix-consistent, so squeezing again extends the stream
            self._buf = self._squeeze(max(need, 2 * len(self._buf), self._reserve))
        out = memoryview(self._buf[self._off:need]).toreadonly()
        self._off = need
        return out

    def read_u64(self, count: int) -> np.ndarray:
        """The next count big-endian 64-bit words, as a read-only array over the stream."""
        return np.frombuffer(self.read(8 * count), dtype=">u8")

    def read_bits(self, count: int) -> np.ndarray:
        raw = np.frombuffer(self.read((count + 7) // 8), dtype=np.uint8)
        return np.unpackbits(raw)[:count]


class SessionStream(StreamExpander):
    """Unbounded byte stream for one party's private draws: the ChaCha20
    keystream under the key SHAKE-256(tag, seed)[:32].

    Deterministic in (tag, seed) like its base, with the same tag
    separation, but not SHAKE-256's bytes: only for draws that no peer and
    no golden vector reproduces.  The stream keeps the key, not the seed.
    """

    def __init__(self, tag: bytes, seed: bytes, reserve: int = 4096) -> None:
        super().__init__(tag, seed, reserve)
        self._key = hashlib.shake_256(self._prefix).digest(32)
        del self._prefix

    def _squeeze(self, length: int) -> np.ndarray:
        return _chacha20(self._key, length)


@dataclass(frozen=True)
class GaussianTable:
    """Cumulative 64-bit table for the integer Gaussian with weight exp(-pi x^2 / tau^2).

    Support is the integers in [-TAIL_CUTOFF*tau, TAIL_CUTOFF*tau]; the final
    cumulative weight is pinned to 2^64 - 1 and the sequence is strictly
    increasing (tail increments are clamped up to 1 so lookups stay
    well-defined; the distortion is far below 2^-64 per point).  A table
    built with a modulus q samples residues mod q, else signed integers.

    Truncation error: the discarded mass is bounded by the geometric-decay
    tail estimate sum_{|x| > c} exp(-pi x^2 / tau^2) < 2 exp(-pi c^2 / tau^2)
    / (1 - exp(-pi (2c+1) / tau^2)) with c = TAIL_CUTOFF * tau = 10 tau;
    the exponent is -100 pi, so the statistical distance to the ideal
    integer Gaussian is below 2^-453, far under the 2^-100 target; no
    runtime test is needed.
    """

    tau: float
    support: np.ndarray
    cdf: np.ndarray
    values: np.ndarray  # what a draw of support[i] samples to: support[i], or its residue mod q
    lookup: np.ndarray  # per 12-bit prefix: the value of every draw in its bucket, or _MIXED

    @classmethod
    def build(cls, tau: float, q: int | None = None) -> "GaussianTable":
        c = int(math.floor(TAIL_CUTOFF * tau))
        support = np.arange(-c, c + 1, dtype=np.int64)
        values = support if q is None else support % q
        cdf = np.array(_scaled_cumulative_weights(tau, c), dtype=np.uint64)
        per_bucket = np.bincount((cdf >> _PREFIX_SHIFT).astype(np.intp),
                                 minlength=1 << _PREFIX_BITS)
        # every draw in a bucket holding no entry samples the first entry above
        # the bucket; one exists, since the last entry, 2^64 - 1, is in the top bucket
        below = np.cumsum(per_bucket) - per_bucket
        lookup = np.where(per_bucket > 0, _MIXED, values[below])
        return cls(tau=tau, support=support, cdf=cdf, values=values, lookup=lookup)

    def sample(self, draws: np.ndarray) -> np.ndarray:
        """Map uniform 64-bit draws to the value of the smallest i with cdf[i] >= u.

        A draw's bucket gives its value unless a table entry lies inside the
        bucket; only those draws are searched.
        """
        out = self.lookup.take(np.right_shift(draws, _PREFIX_SHIFT, dtype=np.uint64).view(np.int64))
        hit = np.flatnonzero(out == _MIXED)
        out[hit] = self.values[np.searchsorted(self.cdf, draws[hit], side="left")]
        return out


def _scaled_cumulative_weights(tau: float, c: int) -> list[int]:
    """Integer cumulative weights rounded from 92-digit (~305-bit) decimals.

    w(x) = g^(x^2), g = exp(-pi/tau^2): one exp, then w(x+1) = w(x) g^(2x+1).
    Rounding to the 64-bit scale is exact barring ties within ~2^-230 of a
    boundary; the weights err under 1e-86 (the exponent's ~1e-91 error times
    x^2 pi/tau^2 <= 100 pi, plus a few times c roundings of 5e-92, c <= 10^4).
    A 700-bit recomputation in the tests cross-checks every table entry.
    """
    with localcontext(Context(prec=92)):
        g = (-_PI / Decimal(tau) ** 2).exp()
        g2, step, half = g * g, g, [Decimal(1)]  # half[x] = w(x) for x = 0..c
        for _ in range(c):
            half.append(half[-1] * step)
            step *= g2
        weights = half[:0:-1] + half
        scale = _U64_MAX / sum(weights)
        cum = [int((acc * scale).to_integral_value(ROUND_HALF_EVEN)) for acc in accumulate(weights)]
    # pin the anchor, then force strict monotonicity from both ends (the
    # far tails round to flat runs of 0 or 2^64-1)
    for i in range(1, len(cum)):
        cum[i] = max(cum[i], cum[i - 1] + 1)
    cum[-1] = _U64_MAX
    for i in range(len(cum) - 2, -1, -1):
        cum[i] = min(cum[i], cum[i + 1] - 1)
    if cum[0] < 0:
        raise ValueError("support too wide for 64-bit cumulative weights")
    return cum


def _table_for(p: ProtocolParams) -> GaussianTable:
    key = (p.tau, p.q)
    tbl = _TABLE_CACHE.get(key)
    if tbl is None:
        tbl = _TABLE_CACHE[key] = GaussianTable.build(p.tau, p.q)
    return tbl


_TABLE_CACHE: dict = {}


def uniform_ints(expander: StreamExpander, count: int, q: int) -> np.ndarray:
    """count i.i.d. uniform values on [0, q) by rejection on byte-width draws."""
    nbytes = (max(q - 1, 1).bit_length() + 7) // 8
    width = 1 << (8 * nbytes)
    limit = (width // q) * q  # accept region; acceptance probability > 1/2
    out = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        want = count - filled
        # oversample slightly to cover rejections in one pass most of the time
        batch = want + 8 + want // 8
        raw = np.frombuffer(expander.read(nbytes * batch), dtype=np.uint8)
        raw = raw.reshape(batch, nbytes).astype(np.uint64)
        vals = np.zeros(batch, dtype=np.uint64)
        for b in range(nbytes):
            vals = (vals << np.uint64(8)) | raw[:, b]
        accepted = vals[vals < limit]
        take = min(want, accepted.size)
        out[filled:filled + take] = (accepted[:take] % q).astype(np.int64)
        filled += take
    return out


def gaussian_ints(expander: StreamExpander, count: int, table: GaussianTable) -> np.ndarray:
    """count values of the truncated discrete Gaussian (as the table samples them), one u64 per draw."""
    return table.sample(expander.read_u64(count))


def uniform_matrix(p: ProtocolParams, tag: bytes, seed: bytes) -> ModQMatrix:
    """Deterministic n x n uniform matrix over Z_q from (tag, seed), row-major fill."""
    if not seed:
        raise EmptyField("seed must be nonempty")
    exp = StreamExpander(tag, seed)
    vals = uniform_ints(exp, p.n * p.n, p.q)
    return ModQMatrix(p.n, p.q, vals.reshape(p.n, p.n))


def gaussian_matrix_bytes(p: ProtocolParams) -> int:
    """Stream bytes one gaussian_matrix_from call reads: one u64 per entry."""
    return 8 * p.n * p.n


def gaussian_matrix_from(p: ProtocolParams, expander: StreamExpander) -> ModQMatrix:
    """Next n x n matrix with entries from the integer Gaussian D_{Z,tau},
    drawn from an already-open stream.

    Several matrices can be drawn in a fixed order from one stream
    (registration draws the secret then the noise from the same seed).
    The table for (tau, q) samples residues directly; the matrix carries
    the table's largest |x| as its bound for products.
    """
    table = _table_for(p)
    residues = gaussian_ints(expander, p.n * p.n, table)
    return ModQMatrix._canonical(p.n, p.q, residues.reshape(p.n, p.n), small=int(table.support[-1]))


GEN_TAG = b"LSRP-gen"


def derive_registration_seed(client_id: bytes, salt: bytes, password: bytes) -> bytes:
    """32-byte registration seed from (id, salt, password).

    Fields are length-prefixed (4-byte big-endian) so the encoding is
    injective: ("ab","c") and ("a","bc") can never collide.
    """
    if not client_id:
        raise EmptyField("id must be nonempty")
    if not salt:
        raise EmptyField("salt must be nonempty")
    shake = hashlib.shake_256()
    shake.update(GEN_TAG)
    for field in (client_id, salt, password):
        shake.update(len(field).to_bytes(4, "big") + field)
    return shake.digest(32)


def fresh_salt() -> bytes:
    """SALT_LEN bytes from the OS CSPRNG."""
    return secrets.token_bytes(SALT_LEN)
