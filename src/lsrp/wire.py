"""Bit-exact framing and serialization for protocol messages.

Frame layout: magic "LSRP", version byte 0x02, kind byte, 4-byte
big-endian body length, body.  Version 2 changed the confirmation tags
(see srp_core); a version-1 frame is refused with UnsupportedVersion.
All integers are big-endian; bit matrices
pack row-major, MSB first.  Matrix entries are fixed 4-byte words
regardless of q: wasteful for small q but one canonical encoding keeps
cross-implementation vectors trivial.  A frame declaring q >= 2^32 is
rejected, since its entries could not fit.

Session keys and confirmation secrets never appear as fields; only
32-byte tags cross the wire.
Every socket read and write takes a deadline that bounds the whole
frame, and every read a body cap; there is no unbounded mode.
"""
from __future__ import annotations

import enum
import struct
import time
from dataclasses import dataclass

import numpy as np

from .errors import LsrpError
from .modq import Q_LIMIT, ModQMatrix
from .params import MAX_N, SALT_LEN
from .reconcile import SignalMatrix

MAGIC = b"LSRP"
VERSION = 2
HEADER_LEN = 10
TAG_LEN = 32
MAX_BODY = 1 << 26  # generous cap; n=1024 matrices fit with room to spare
MAX_ID_LEN = 1024  # allowance for the client id in max_hello_body
MAX_ERROR_TEXT = 256  # longest error text a server sends
MAX_ERROR_BODY = 1 + 4 + MAX_ERROR_TEXT  # code, text length field, text


class WireError(LsrpError, ValueError):
    pass


class BadMagic(WireError):
    pass


class UnsupportedVersion(WireError):
    pass


class UnknownKind(WireError):
    pass


class TruncatedFrame(WireError):
    pass


class TrailingBytes(WireError):
    pass


class FieldOutOfRange(WireError):
    pass


class Kind(enum.IntEnum):
    REGISTER = 1
    HELLO = 2
    CHALLENGE = 3
    CONFIRM_C = 4
    CONFIRM_S = 5
    ERROR = 6


class ErrorCode(enum.IntEnum):
    BAD_REQUEST = 1
    AUTH_FAILED = 2
    INTERNAL = 3


@dataclass(frozen=True)
class Register:
    client_id: bytes
    salt: bytes
    verifier: ModQMatrix


@dataclass(frozen=True)
class Hello:
    client_id: bytes
    b_c: ModQMatrix


@dataclass(frozen=True)
class Challenge:
    salt: bytes
    b_s: ModQMatrix
    sigma: SignalMatrix


@dataclass(frozen=True)
class ConfirmClient:
    tag: bytes


@dataclass(frozen=True)
class ConfirmServer:
    tag: bytes


@dataclass(frozen=True)
class ErrorMessage:
    code: int
    text: bytes


WireMessage = Register | Hello | Challenge | ConfirmClient | ConfirmServer | ErrorMessage


def matrix_fields(m: ModQMatrix) -> tuple[bytes, np.ndarray]:
    """The encoding of m in two buffers, joined by encode_matrix: the
    4-byte n and 8-byte q, then the n*n entries as big-endian 4-byte words."""
    return struct.pack(">IQ", m.n, m.q), m.entries.astype(">u4")


def encode_matrix(m: ModQMatrix) -> bytes:
    """4-byte n, 8-byte q, then n*n entries as 4-byte words, row-major."""
    head, entries = matrix_fields(m)
    return head + entries.tobytes()


def encode_signal(s: SignalMatrix) -> bytes:
    """4-byte n, then ceil(n^2/8) bytes of packed bits."""
    return struct.pack(">I", s.n) + s.packed()


class _Cursor:
    """Sequential reader over a body with typed out-of-data errors."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.off = 0

    def take(self, k: int) -> bytes:
        if k < 0 or self.off + k > len(self.data):
            raise TruncatedFrame(f"need {k} bytes at offset {self.off}, have {len(self.data) - self.off}")
        out = self.data[self.off:self.off + k]
        self.off += k
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def lp_bytes(self) -> bytes:
        return self.take(self.u32())

    def done(self) -> None:
        if self.off != len(self.data):
            raise TrailingBytes(f"{len(self.data) - self.off} unconsumed body bytes")


def _read_matrix(cur: _Cursor) -> ModQMatrix:
    n = cur.u32()
    q = cur.u64()
    if n < 1 or n > MAX_N:
        raise FieldOutOfRange(f"matrix dimension {n} out of range")
    if q < 2 or q >= Q_LIMIT:
        raise FieldOutOfRange(f"modulus {q} out of range")
    raw = cur.take(4 * n * n)
    entries = np.frombuffer(raw, dtype=">u4").astype(np.int64).reshape(n, n)
    if entries.max() >= q:
        raise FieldOutOfRange("matrix entry not reduced mod q")
    return ModQMatrix._canonical(n, q, entries)  # scanned once, just above


def _read_signal(cur: _Cursor) -> SignalMatrix:
    n = cur.u32()
    if n < 1 or n > MAX_N:
        raise FieldOutOfRange(f"signal dimension {n} out of range")
    nbytes = (n * n + 7) // 8
    raw = np.frombuffer(cur.take(nbytes), dtype=np.uint8)
    bits = np.unpackbits(raw)
    if bits[n * n:].any():
        raise FieldOutOfRange("nonzero padding bits in signal")
    return SignalMatrix(n, bits[:n * n].reshape(n, n))


def _lp(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def _encode_body(w: WireMessage) -> tuple[Kind, bytes]:
    if isinstance(w, Register):
        return Kind.REGISTER, _lp(w.client_id) + _lp(w.salt) + encode_matrix(w.verifier)
    if isinstance(w, Hello):
        return Kind.HELLO, _lp(w.client_id) + encode_matrix(w.b_c)
    if isinstance(w, Challenge):
        return Kind.CHALLENGE, _lp(w.salt) + encode_matrix(w.b_s) + encode_signal(w.sigma)
    if isinstance(w, ConfirmClient):
        return Kind.CONFIRM_C, w.tag
    if isinstance(w, ConfirmServer):
        return Kind.CONFIRM_S, w.tag
    if isinstance(w, ErrorMessage):
        return Kind.ERROR, struct.pack(">B", w.code) + _lp(w.text)
    raise UnknownKind(f"cannot encode {type(w).__name__}")


def encode_message(w: WireMessage) -> bytes:
    kind, body = _encode_body(w)
    if isinstance(w, (ConfirmClient, ConfirmServer)) and len(w.tag) != TAG_LEN:
        raise FieldOutOfRange(f"confirmation tag must be {TAG_LEN} bytes")
    if len(body) > MAX_BODY:
        raise FieldOutOfRange("body too large")
    return MAGIC + bytes([VERSION, int(kind)]) + struct.pack(">I", len(body)) + body


def _decode_body(kind: Kind, body: bytes) -> WireMessage:
    cur = _Cursor(body)
    if kind is Kind.REGISTER:
        msg: WireMessage = Register(cur.lp_bytes(), cur.lp_bytes(), _read_matrix(cur))
    elif kind is Kind.HELLO:
        msg = Hello(cur.lp_bytes(), _read_matrix(cur))
    elif kind is Kind.CHALLENGE:
        msg = Challenge(cur.lp_bytes(), _read_matrix(cur), _read_signal(cur))
    elif kind is Kind.CONFIRM_C:
        msg = ConfirmClient(cur.take(TAG_LEN))
    elif kind is Kind.CONFIRM_S:
        msg = ConfirmServer(cur.take(TAG_LEN))
    elif kind is Kind.ERROR:
        code = cur.u8()
        if code < 1:
            raise FieldOutOfRange("error code must be positive")
        msg = ErrorMessage(code, cur.lp_bytes())
    else:  # pragma: no cover - Kind is closed
        raise UnknownKind(str(kind))
    cur.done()
    return msg


def parse_header(head: bytes) -> tuple[Kind, int]:
    """Validate a 10-byte frame header; returns (kind, body length)."""
    if len(head) < HEADER_LEN:
        raise TruncatedFrame(f"header needs {HEADER_LEN} bytes, got {len(head)}")
    if head[:4] != MAGIC:
        raise BadMagic(repr(head[:4]))
    if head[4] != VERSION:
        raise UnsupportedVersion(f"protocol version {head[4]}, expected {VERSION}")
    try:
        kind = Kind(head[5])
    except ValueError as exc:
        raise UnknownKind(str(head[5])) from exc
    body_len = struct.unpack(">I", head[6:10])[0]
    if body_len > MAX_BODY:
        raise FieldOutOfRange(f"declared body length {body_len} exceeds cap")
    return kind, body_len


def decode_message(b: bytes) -> WireMessage:
    kind, body_len = parse_header(b[:HEADER_LEN])
    if len(b) < HEADER_LEN + body_len:
        raise TruncatedFrame(f"frame declares {body_len} body bytes, buffer has {len(b) - HEADER_LEN}")
    if len(b) > HEADER_LEN + body_len:
        raise TrailingBytes(f"{len(b) - HEADER_LEN - body_len} bytes past frame end")
    return _decode_body(kind, b[HEADER_LEN:])


def max_hello_body(n: int) -> int:
    """Longest Hello body at dimension n: the id's length field and up to
    MAX_ID_LEN id bytes, then the matrix's n and q fields and its n*n words."""
    return 4 + MAX_ID_LEN + 12 + 4 * n * n


def max_challenge_body(n: int) -> int:
    """Longest body a client accepts in answer to its Hello: the Challenge at
    dimension n (SALT_LEN salt with its length field, matrix, n and packed
    signal bits), or an ErrorMessage carrying up to MAX_ERROR_TEXT bytes."""
    challenge = 4 + SALT_LEN + 12 + 4 * n * n + 4 + (n * n + 7) // 8
    return max(challenge, MAX_ERROR_BODY)


def read_frame(sock, deadline: float, max_body: int) -> WireMessage:
    """Read exactly one frame from a connected socket.

    `deadline`, a time.monotonic() value, bounds the whole frame rather
    than each recv.  A header declaring more than `max_body` body bytes is
    refused before any body byte is read.
    """
    head = _recv_exact(sock, HEADER_LEN, deadline)
    kind, body_len = parse_header(head)
    if body_len > max_body:
        raise FieldOutOfRange(f"declared body length {body_len} exceeds {max_body}")
    body = _recv_exact(sock, body_len, deadline)
    return _decode_body(kind, body)


def write_frame(sock, w: WireMessage, deadline: float) -> None:
    """Send one frame; `deadline` bounds the whole send, as in read_frame."""
    _apply_deadline(sock, deadline)
    sock.sendall(encode_message(w))


def _apply_deadline(sock, deadline: float) -> None:
    """Set the socket timeout to the time left before `deadline`."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("connection deadline passed")
    sock.settimeout(left)


def _recv_exact(sock, k: int, deadline: float) -> bytes:
    chunks = []
    got = 0
    while got < k:
        _apply_deadline(sock, deadline)
        chunk = sock.recv(k - got)
        if not chunk:
            raise TruncatedFrame(f"connection closed with {k - got} bytes outstanding")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)
