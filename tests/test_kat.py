"""Known-answer vectors for one seeded handshake at wire version 2.

`tests/vectors/handshake_kat_v2.txt` prints every intermediate of one
registration and one handshake at the toy set (n=8, q=1153, tau=1.0), and
the hex of every frame, so that a change to V, a stream or the wire shows
in a diff which values moved, and a second implementation can check itself
value by value.  The test regenerates the file and compares it line by
line.  Each wire version gets its own file; to write one, run:

    PYTHONPATH=src python tests/test_kat.py
"""
from __future__ import annotations

import pathlib

import numpy as np

from lsrp import wire
from lsrp.params import ProtocolParams, validate
from lsrp.reconcile import extract
from lsrp.sampler import SessionStream, StreamExpander, derive_registration_seed, gaussian_matrix_from
from lsrp.srp_core import ClientSession, ServerSession, register, shared_basis

KAT_PATH = pathlib.Path(__file__).parent / "vectors" / "handshake_kat_v2.txt"

PARAMS = validate(ProtocolParams(n=8, q=1153, tau=1.0, lambda_seed=b"\x01" * 32))
CLIENT_ID = b"alice"
SALT = b"\x00" * 16
PASSWORD = b"correct horse"
CLIENT_SEED = bytes(range(0x20, 0x40))
SERVER_SEED = bytes(range(0x40, 0x60))

HEADER = """\
# lsrp handshake known-answer vector, wire version 2
#
# Parameter set "toy": n = 8, q = 1153, tau = 1.0, Gaussian support |x| <= 10.
# One registration of (id, salt, password) and one handshake with the right
# password, from the two session seeds below.
#
# Streams.  lp(x) is a 4-byte big-endian length, then x.
#   StreamExpander(tag, seed): SHAKE-256(lp(tag) | seed).
#   SessionStream(tag, seed): the ChaCha20 keystream (RFC 8439; nonce zero,
#     block counter 0) under the key SHAKE-256(lp(tag) | seed)[:32].
#   gamma = SHAKE-256("LSRP-gen" | lp(id) | lp(salt) | lp(password))[:32].
#   Uniform entry: big-endian draws of b = ceil(bitlen(q - 1) / 8) bytes; a draw
#     at or above the largest multiple of q up to 2^(8b) is skipped, else mod q.
#   Gaussian entry: one big-endian 64-bit draw u, mapped to the smallest
#     support value x with cdf(x) >= u (64-bit cumulative table).
#   Variant bits: bytes unpacked MSB first, one bit per entry, row-major.
#
# Draw order, matrices filled row-major:
#   A                : StreamExpander("A", lambda_seed)
#   S_I, E_I         : StreamExpander("LSRP-reg", gamma)
#   S_C, E_C, E_C'   : SessionStream("LSRP-client", client_seed)
#   S_S, E_S, E_S', variants : SessionStream("LSRP-server", server_seed)
#
# Equations (mod q):
#   V   = S_I A + 2 E_I          B_C = S_C A + 2 E_C
#   B_S = V + A S_S + 2 E_S      M_S = (V + B_C) S_S + 2 E_S'
#   M_C = (S_I + S_C)(B_S - V) + 2 E_C'
#   sigma = signal of M_S under the variants; key bits = extract(M_S, sigma)
#   sk = SHAKE-256("LSRP-kdf" | key bits packed MSB first | lambda_seed)[:32]
#   T  = SHAKE-256("LSRP-transcript" | lp(id) | lp(salt) | enc(B_C) | enc(B_S))[:32]
#   M1 = SHAKE-256("LSRP-m1" | T | sk)[:32]
#   M2 = SHAKE-256("LSRP-m2" | T | M1 | sk)[:32]
#
# Format: one "name = value" per line.  Byte strings are hex.  Matrices are
# row-major and comma-separated: Gaussian draws as centered integers, all
# other matrices as residues in [0, q).  Bit matrices are row-major strings
# of 0 and 1.  Frames are whole wire frames, header included.
"""


def _gaussians(stream: StreamExpander, count: int) -> list:
    return [gaussian_matrix_from(PARAMS, stream) for _ in range(count)]


def kat_lines() -> list[str]:
    """The file's lines, from the library at its current state."""
    p = PARAMS
    gamma = derive_registration_seed(CLIENT_ID, SALT, PASSWORD)
    s_i, e_i = _gaussians(StreamExpander(b"LSRP-reg", gamma), 2)
    s_c, e_c, e_c2 = _gaussians(SessionStream(b"LSRP-client", CLIENT_SEED), 3)
    server_stream = SessionStream(b"LSRP-server", SERVER_SEED)
    s_s, e_s, e_s2 = _gaussians(server_stream, 3)
    variants = server_stream.read_bits(p.n * p.n)

    rec = register(p, CLIENT_ID, PASSWORD, salt=SALT)
    server = ServerSession(p, seed=SERVER_SEED, keep_material=True)
    client = ClientSession(p, CLIENT_ID, PASSWORD, seed=CLIENT_SEED, keep_material=True)
    hello = wire.encode_message(wire.Hello(*client.hello()))
    challenge = wire.encode_message(wire.Challenge(*server.respond(rec, wire.decode_message(hello).b_c)))
    server.hash_transcript()
    msg = wire.decode_message(challenge)
    sk = client.finish(msg.salt, msg.b_s, msg.sigma)
    m1 = client.confirmation()
    m2 = server.verify_client(m1)
    assert client.verify_server(m2) and sk == server.session_key

    def residues(m) -> str:
        return ",".join(map(str, m.entries.reshape(-1).tolist()))

    def signed(m) -> str:
        return ",".join(map(str, m.centered().reshape(-1).tolist()))

    def bits(b) -> str:
        return "".join(map(str, np.asarray(b).reshape(-1).tolist()))

    fields = [
        ("n", str(p.n)), ("q", str(p.q)), ("tau", str(p.tau)),
        ("lambda_seed", p.lambda_seed.hex()),
        ("A", residues(shared_basis(p))),
        ("id", CLIENT_ID.hex()), ("salt", SALT.hex()), ("password", PASSWORD.hex()),
        ("gamma", gamma.hex()),
        ("S_I", signed(s_i)), ("E_I", signed(e_i)), ("V", residues(rec.verifier)),
        ("client_seed", CLIENT_SEED.hex()), ("server_seed", SERVER_SEED.hex()),
        ("S_C", signed(s_c)), ("E_C", signed(e_c)), ("E_C'", signed(e_c2)),
        ("B_C", residues(client.b_c)),
        ("S_S", signed(s_s)), ("E_S", signed(e_s)), ("E_S'", signed(e_s2)),
        ("variants", bits(variants)),
        ("B_S", residues(server.b_s)),
        ("M_C", residues(client.key_material)), ("M_S", residues(server.key_material)),
        ("sigma", bits(server.sigma.bits)),
        ("key_bits", bits(extract(server.key_material, server.sigma).bits)),
        ("sk", sk.hex()), ("T", server.transcript.hex()), ("M1", m1.hex()), ("M2", m2.hex()),
        ("Register", wire.encode_message(wire.Register(rec.client_id, rec.salt, rec.verifier)).hex()),
        ("Hello", hello.hex()), ("Challenge", challenge.hex()),
        ("ConfirmClient", wire.encode_message(wire.ConfirmClient(m1)).hex()),
        ("ConfirmServer", wire.encode_message(wire.ConfirmServer(m2)).hex()),
    ]
    return HEADER.splitlines() + [f"{name} = {value}" for name, value in fields]


def read_kat() -> dict[str, str]:
    """The file's "name = value" lines as a dict."""
    return dict(line.split(" = ", 1) for line in KAT_PATH.read_text().splitlines()
                if line and not line.startswith("#"))


def test_kat_file_regenerates_line_by_line():
    want = KAT_PATH.read_text().splitlines()
    got = kat_lines()
    for i, (w, g) in enumerate(zip(want, got), 1):
        assert g == w, f"{KAT_PATH.name}:{i}"
    assert len(got) == len(want)


if __name__ == "__main__":
    KAT_PATH.write_text("\n".join(kat_lines()) + "\n")
    print(f"wrote {KAT_PATH}")
