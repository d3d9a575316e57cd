import struct
import time

import numpy as np
import pytest

from lsrp import wire
from lsrp.modq import ModQMatrix
from lsrp.params import MAX_N, SALT_LEN
from lsrp.reconcile import SignalMatrix

M1 = ModQMatrix(1, 41, [[7]])
SIG = SignalMatrix(2, [[1, 0], [0, 1]])


# --- layout ----------------------------------------------------------------

def test_matrix_layout_example():
    # 4-byte n, 8-byte q, 4-byte entries, all big-endian
    assert wire.encode_matrix(M1) == \
        b"\x00\x00\x00\x01" + b"\x00\x00\x00\x00\x00\x00\x00\x29" + b"\x00\x00\x00\x07"


def test_signal_layout_example():
    assert wire.encode_signal(SIG) == b"\x00\x00\x00\x02" + b"\x90"


def test_frame_header_layout():
    frame = wire.encode_message(wire.Hello(b"a", M1))
    assert frame[:4] == b"LSRP"
    assert frame[4] == wire.VERSION == 2
    assert frame[5] == int(wire.Kind.HELLO)
    assert struct.unpack(">I", frame[6:10])[0] == len(frame) - wire.HEADER_LEN


def test_kind_codes_are_fixed():
    assert [int(k) for k in wire.Kind] == [1, 2, 3, 4, 5, 6]


# --- round trips -----------------------------------------------------------

def messages():
    m3 = ModQMatrix(3, 65537, np.arange(9).reshape(3, 3) * 7001 % 65537)
    s3 = SignalMatrix(3, np.eye(3, dtype=np.uint8))
    return [
        wire.Register(b"alice", b"\x00" * 16, m3),
        wire.Hello(b"alice", m3),
        wire.Challenge(b"\xff" * 16, m3, s3),
        wire.ConfirmClient(bytes(range(32))),
        wire.ConfirmServer(bytes(range(32, 64))),
        wire.ErrorMessage(2, b"auth failed"),
    ]


@pytest.mark.parametrize("msg", messages(), ids=lambda m: type(m).__name__)
def test_round_trip_and_canonical(msg):
    frame = wire.encode_message(msg)
    back = wire.decode_message(frame)
    assert back == msg
    assert wire.encode_message(back) == frame


def test_round_trip_empty_id_and_text():
    assert wire.decode_message(wire.encode_message(wire.Hello(b"", M1))).client_id == b""
    assert wire.decode_message(wire.encode_message(wire.ErrorMessage(1, b""))).text == b""


# --- typed decode errors ---------------------------------------------------

def frame_with(kind: int, body: bytes, magic: bytes = b"LSRP", version: int = wire.VERSION) -> bytes:
    return magic + bytes([version, kind]) + struct.pack(">I", len(body)) + body


def test_bad_magic():
    with pytest.raises(wire.BadMagic):
        wire.decode_message(frame_with(2, b"", magic=b"NOPE"))


def test_unsupported_version():
    with pytest.raises(wire.UnsupportedVersion):
        wire.decode_message(frame_with(2, b"", version=9))


def test_version_1_frame_refused():
    # version 1 computed the confirmation tags over the full matrices
    v1 = wire.encode_message(wire.ConfirmClient(bytes(32)))
    v1 = v1[:4] + b"\x01" + v1[5:]
    with pytest.raises(wire.UnsupportedVersion, match="version 1"):
        wire.decode_message(v1)


def test_unknown_kind():
    with pytest.raises(wire.UnknownKind):
        wire.decode_message(frame_with(0, b""))
    with pytest.raises(wire.UnknownKind):
        wire.decode_message(frame_with(7, b""))


def test_truncated_header_and_body():
    good = wire.encode_message(wire.Hello(b"a", M1))
    with pytest.raises(wire.TruncatedFrame):
        wire.decode_message(good[:5])
    with pytest.raises(wire.TruncatedFrame):
        wire.decode_message(good[:-1])


def test_trailing_bytes_after_frame_and_inside_body():
    good = wire.encode_message(wire.Hello(b"a", M1))
    with pytest.raises(wire.TrailingBytes):
        wire.decode_message(good + b"\x00")
    # inflate the declared body length so the body has unconsumed bytes
    inflated = frame_with(int(wire.Kind.HELLO), good[wire.HEADER_LEN:] + b"\x00")
    with pytest.raises(wire.TrailingBytes):
        wire.decode_message(inflated)


def test_unreduced_matrix_entry_rejected():
    body = struct.pack(">I", 0) + struct.pack(">IQ", 1, 41) + struct.pack(">I", 41)
    with pytest.raises(wire.FieldOutOfRange):
        wire.decode_message(frame_with(int(wire.Kind.HELLO), body))


@pytest.mark.parametrize("q", [1 << 32, (1 << 33) + 1])
def test_modulus_at_or_above_2_32_rejected(q):
    # entry 5 would decode as a valid residue; 4-byte words cannot carry such a q
    body = struct.pack(">I", 1) + b"a" + struct.pack(">IQ", 1, q) + struct.pack(">I", 5)
    with pytest.raises(wire.FieldOutOfRange):
        wire.decode_message(frame_with(int(wire.Kind.HELLO), body))


def test_largest_admitted_modulus_round_trips():
    q = 4294967291
    msg = wire.Hello(b"a", ModQMatrix(2, q, [[0, 1], [q - 2, q - 1]]))
    assert wire.decode_message(wire.encode_message(msg)) == msg


def test_zero_dimension_matrix_rejected():
    body = struct.pack(">I", 0) + struct.pack(">IQ", 0, 41)
    with pytest.raises(wire.FieldOutOfRange):
        wire.decode_message(frame_with(int(wire.Kind.HELLO), body))


def test_signal_padding_must_be_zero():
    good = wire.encode_message(wire.Challenge(b"s", M1, SignalMatrix(1, [[1]])))
    bad = bytearray(good)
    bad[-1] |= 0x40  # second bit is padding for a 1x1 signal
    with pytest.raises(wire.FieldOutOfRange):
        wire.decode_message(bytes(bad))


def test_confirm_tag_must_be_32_bytes():
    with pytest.raises(wire.FieldOutOfRange):
        wire.encode_message(wire.ConfirmClient(b"short"))
    with pytest.raises(wire.TruncatedFrame):
        wire.decode_message(frame_with(int(wire.Kind.CONFIRM_C), b"\x00" * 31))


def test_declared_body_length_cap():
    head = wire.MAGIC + bytes([wire.VERSION]) + b"\x02" + struct.pack(">I", wire.MAX_BODY + 1)
    with pytest.raises(wire.FieldOutOfRange):
        wire.parse_header(head)


def test_error_code_zero_rejected():
    with pytest.raises(wire.FieldOutOfRange):
        wire.decode_message(frame_with(int(wire.Kind.ERROR), b"\x00" + struct.pack(">I", 0)))


# --- fuzzing ---------------------------------------------------------------

def test_fuzz_decode_raises_only_wire_errors():
    rng = np.random.default_rng(1234)
    good = wire.encode_message(wire.Challenge(b"s" * 16, M1, SignalMatrix(1, [[1]])))
    for i in range(2000):
        if i % 2:
            blob = rng.integers(0, 256, size=int(rng.integers(0, 200))).astype(np.uint8).tobytes()
        else:
            blob = bytearray(good)
            for _ in range(int(rng.integers(1, 4))):
                blob[int(rng.integers(0, len(blob)))] = int(rng.integers(0, 256))
            blob = bytes(blob)
        try:
            wire.decode_message(blob)
        except wire.WireError:
            pass


# --- socket framing --------------------------------------------------------

class FakeSocket:
    """Feeds bytes in deliberately small chunks."""

    def __init__(self, data: bytes, chunk: int = 3) -> None:
        self.data = data
        self.chunk = chunk

    def settimeout(self, t: float) -> None:
        pass

    def recv(self, k: int) -> bytes:
        out = self.data[:min(k, self.chunk)]
        self.data = self.data[len(out):]
        return out


def test_read_frame_reassembles_fragments():
    msg = wire.Challenge(b"\x01" * 16, M1, SignalMatrix(1, [[0]]))
    assert wire.read_frame(FakeSocket(wire.encode_message(msg)), time.monotonic() + 5,
                           wire.MAX_BODY) == msg


def test_read_frame_detects_early_close():
    data = wire.encode_message(wire.Hello(b"alice", M1))[:-2]
    with pytest.raises(wire.TruncatedFrame):
        wire.read_frame(FakeSocket(data), time.monotonic() + 5, wire.MAX_BODY)


class SlowSocket(FakeSocket):
    """Each recv waits `delay` seconds first; records the timeouts it is given."""

    def __init__(self, data: bytes, delay: float) -> None:
        super().__init__(data, chunk=1)
        self.delay = delay
        self.timeouts: list[float] = []

    def settimeout(self, t: float) -> None:
        self.timeouts.append(t)

    def recv(self, k: int) -> bytes:
        time.sleep(self.delay)
        return super().recv(k)


def test_read_frame_deadline_bounds_the_frame_not_each_recv():
    data = wire.encode_message(wire.Hello(b"alice", M1))
    sock = SlowSocket(data, delay=0.02)
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        wire.read_frame(sock, start + 0.2, wire.MAX_BODY)
    assert time.monotonic() - start < 0.5
    # the timeout of each recv is the time left, so it shrinks
    assert len(sock.timeouts) >= 3 and sock.timeouts == sorted(sock.timeouts, reverse=True)
    assert sock.timeouts[0] <= 0.2
    assert wire.read_frame(SlowSocket(data, delay=0), time.monotonic() + 5, wire.MAX_BODY) \
        == wire.Hello(b"alice", M1)


def test_read_frame_refuses_a_body_over_max_body_before_reading_it():
    head = wire.MAGIC + bytes([wire.VERSION, int(wire.Kind.HELLO)]) + (1 << 20).to_bytes(4, "big")
    sock = FakeSocket(head + b"\x00" * 64)
    with pytest.raises(wire.FieldOutOfRange):
        wire.read_frame(sock, time.monotonic() + 5, wire.max_hello_body(8))
    assert len(sock.data) == 64  # no body byte was read


def test_max_hello_body_fits_the_longest_id():
    for n in (1, 8, 128):
        m = ModQMatrix(n, 1153, np.zeros((n, n), dtype=np.int64))
        frame = wire.encode_message(wire.Hello(b"x" * wire.MAX_ID_LEN, m))
        assert len(frame) - wire.HEADER_LEN == wire.max_hello_body(n)


def test_max_challenge_body_fits_a_challenge_or_the_longest_error():
    error = len(wire.encode_message(wire.ErrorMessage(1, b"e" * wire.MAX_ERROR_TEXT)))
    for n in (1, 8, 128):
        m = ModQMatrix(n, 1153, np.zeros((n, n), dtype=np.int64))
        sig = SignalMatrix(n, np.ones((n, n), dtype=np.uint8))
        frame = wire.encode_message(wire.Challenge(b"s" * SALT_LEN, m, sig))
        assert wire.max_challenge_body(n) == max(len(frame), error) - wire.HEADER_LEN


def test_max_n_is_the_largest_dimension_whose_flows_fit_max_body():
    assert wire.max_challenge_body(MAX_N) <= wire.MAX_BODY < wire.max_challenge_body(MAX_N + 1)
    assert wire.max_hello_body(MAX_N) <= wire.MAX_BODY


def test_matrix_and_signal_above_max_n_rejected():
    hello = struct.pack(">I", 0) + struct.pack(">IQ", MAX_N + 1, 41)
    with pytest.raises(wire.FieldOutOfRange, match="dimension"):
        wire.decode_message(frame_with(int(wire.Kind.HELLO), hello))
    challenge = struct.pack(">I", 1) + b"s" + wire.encode_matrix(M1) + struct.pack(">I", MAX_N + 1)
    with pytest.raises(wire.FieldOutOfRange, match="dimension"):
        wire.decode_message(frame_with(int(wire.Kind.CHALLENGE), challenge))


def test_write_frame_refuses_a_passed_deadline():
    sent = []

    class Sink:
        def settimeout(self, t):
            sent.append(("timeout", t))

        def sendall(self, data):
            sent.append(("data", data))

    msg = wire.ConfirmClient(b"\x00" * wire.TAG_LEN)
    wire.write_frame(Sink(), msg, deadline=time.monotonic() + 5)
    assert sent[0][0] == "timeout" and 0 < sent[0][1] <= 5
    assert sent[1] == ("data", wire.encode_message(msg))
    with pytest.raises(TimeoutError):
        wire.write_frame(Sink(), msg, deadline=time.monotonic() - 1)
    assert len(sent) == 2
