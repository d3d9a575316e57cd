"""The LWE-based SRP protocol: registration, handshake state machines,
key derivation and key confirmation.

Secret placement is asymmetric and easy to transpose by accident, so it
is spelled out once here and used everywhere:

    V   = S_I * A  + 2*E_I          (client secrets multiply A from the LEFT)
    B_C = S_C * A  + 2*E_C
    B_S = V + A * S_S + 2*E_S       (server ephemeral multiplies from the RIGHT)
    M_S = (V + B_C) * S_S + 2*E_S'
    M_C = (S_I + S_C) * (B_S - V) + 2*E_C'

With all noise zero both sides reduce to (S_I + S_C) * A * S_S; the noisy
difference M_C - M_S is even and small, which is exactly what the
signal/extractor reconciliation needs.

Each party draws its ephemerals from one `SessionStream` (a ChaCha20
keystream under a key hashed from the party's tag and session seed) in a
fixed order, and drops the stream (its key and squeezed bytes, 1.5 MB at
n=256) after the last draw, before any product: the client draws S_C, E_C
and E_C' in hello and keeps E_C' for finish; the server draws S_S, E_S,
E_S' and one signal variant bit per entry at the start of respond.  No
peer reproduces these draws, so the wire does not depend on how they are
expanded.  What a peer does reproduce, S_I and E_I from the registration
seed, comes from a SHAKE-256 `StreamExpander`, as does the basis A.

Key confirmation (client tag then server tag) is an extension over the
bare key exchange: without it the server never learns whether the
authentication succeeded.  As SRP's M1/M2 (RFC 2945) and TLS 1.3's
Finished, the tags are computed over a transcript hash, which each party
computes once per handshake:

    T  = SHAKE-256("LSRP-transcript" | lp(id) | lp(salt) | enc(B_C) | enc(B_S))[:32]
    M1 = SHAKE-256("LSRP-m1" | T | sk)[:32]          (client tag)
    M2 = SHAKE-256("LSRP-m2" | T | M1 | sk)[:32]     (server tag)

lp() prefixes a 4-byte big-endian length and enc() is wire.encode_matrix.
These tags came with wire.VERSION 2: a version-1 peer is refused at the
frame header, and credential stores written by version 1 must be
re-registered.
"""
from __future__ import annotations

import enum
import hashlib
import hmac
import secrets
from dataclasses import dataclass

from .errors import DimensionMismatch, EmptyField, InvalidState, LsrpError, VerificationFailed
from .modq import ModQMatrix
from .params import SALT_LEN, ParamError, ProtocolParams
from .reconcile import KeyBits, SignalMatrix, extract, signal
from .sampler import (SessionStream, StreamExpander, derive_registration_seed, fresh_salt,
                      gaussian_matrix_bytes, gaussian_matrix_from, uniform_matrix)
from .wire import TAG_LEN, matrix_fields

SESSION_KEY_LEN = 32
TRANSCRIPT_LEN = 32


class UnknownId(LsrpError, KeyError):
    """No credential record for the presented id."""


@dataclass(frozen=True)
class VerifierRecord:
    client_id: bytes
    salt: bytes
    verifier: ModQMatrix


_BASIS_CACHE: dict = {}


def shared_basis(p: ProtocolParams) -> ModQMatrix:
    """The public basis A, derived from the public seed; cached per parameter set
    with the float form that three of a handshake's five products multiply."""
    key = (p.n, p.q, p.lambda_seed)
    a = _BASIS_CACHE.get(key)
    if a is None:
        a = uniform_matrix(p, b"A", p.lambda_seed).keep_float_form()
        _BASIS_CACHE[key] = a
    return a


def registration_matrices(p: ProtocolParams, gamma: bytes) -> tuple[ModQMatrix, ModQMatrix]:
    """Secret and noise matrices from the registration seed.

    Drawn in a fixed order (secret first, then noise) from one stream so
    the client can reproduce the verifier exactly during the handshake.
    """
    exp = StreamExpander(b"LSRP-reg", gamma, reserve=2 * gaussian_matrix_bytes(p))
    s_i = gaussian_matrix_from(p, exp)
    e_i = gaussian_matrix_from(p, exp)
    return s_i, e_i


def compute_verifier(a: ModQMatrix, s_i: ModQMatrix, e_i: ModQMatrix) -> ModQMatrix:
    return s_i @ a + e_i.scale2()


def client_key_material(s_i: ModQMatrix, s_c: ModQMatrix, b_s: ModQMatrix,
                        v: ModQMatrix, e_c_prime: ModQMatrix) -> ModQMatrix:
    return (s_i + s_c) @ (b_s - v) + e_c_prime.scale2()


def server_key_material(v: ModQMatrix, b_c: ModQMatrix, s_s: ModQMatrix,
                        e_s_prime: ModQMatrix) -> ModQMatrix:
    return (v + b_c) @ s_s + e_s_prime.scale2()


def register(p: ProtocolParams, client_id: bytes, password: bytes,
             salt: bytes | None = None) -> VerifierRecord:
    """Produce the server-side credential record (id, salt, V).

    The registration seed and the derived secret matrices are dropped
    before returning; only the record leaves this function.  An explicit
    salt of SALT_LEN bytes may be injected for deterministic tests.
    """
    if not client_id:
        raise EmptyField("id must be nonempty")
    if not password:
        raise EmptyField("password must be nonempty")
    if salt is None:
        salt = fresh_salt()
    elif len(salt) != SALT_LEN:
        raise ParamError(f"salt must be {SALT_LEN} bytes, got {len(salt)}")
    gamma = derive_registration_seed(client_id, salt, password)
    s_i, e_i = registration_matrices(p, gamma)
    v = compute_verifier(shared_basis(p), s_i, e_i)
    del gamma, s_i, e_i
    return VerifierRecord(client_id=client_id, salt=salt, verifier=v)


def decoy_verifier(p: ProtocolParams, server_secret: bytes) -> ModQMatrix:
    """The verifier every decoy record carries, derived once per server secret.

    V never leaves the server: B_S hides it behind a fresh LWE sample, so
    one V shared by all unknown ids reveals nothing, and an unknown id
    costs the server no more work than a real one.
    """
    return uniform_matrix(p, b"decoy-V", server_secret)


def decoy_record(p: ProtocolParams, client_id: bytes, server_secret: bytes,
                 verifier: ModQMatrix) -> VerifierRecord:
    """Indistinguishable stand-in record for unregistered ids (anti-enumeration).

    The salt is deterministic in (id, server_secret) so repeated probes see
    the same salt, like a real account would; `verifier` is
    decoy_verifier(p, server_secret).
    """
    shake = hashlib.shake_256()
    shake.update(b"LSRP-decoy" + len(client_id).to_bytes(4, "big") + client_id + server_secret)
    return VerifierRecord(client_id=client_id, salt=shake.digest(SALT_LEN), verifier=verifier)


def kdf(k: KeyBits, lambda_seed: bytes) -> bytes:
    """32-byte session key from the extracted bit matrix and the public seed."""
    shake = hashlib.shake_256()
    shake.update(b"LSRP-kdf" + k.packed() + lambda_seed)
    return shake.digest(SESSION_KEY_LEN)


def transcript_digest(client_id: bytes, salt: bytes, b_c: ModQMatrix, b_s: ModQMatrix) -> bytes:
    """32-byte hash of the exchanged values that the confirmation tags bind.

    The matrices are hashed from the buffers wire.encode_matrix joins,
    without joining them; the digest equals hashing the encoded bytes.
    """
    shake = hashlib.shake_256(b"LSRP-transcript")
    for field in (client_id, salt):
        shake.update(len(field).to_bytes(4, "big"))
        shake.update(field)
    for m in (b_c, b_s):
        for part in matrix_fields(m):
            shake.update(part)
    return shake.digest(TRANSCRIPT_LEN)


def client_confirmation_tag(transcript: bytes, sk: bytes) -> bytes:
    shake = hashlib.shake_256()
    shake.update(b"LSRP-m1" + transcript + sk)
    return shake.digest(TAG_LEN)


def server_confirmation_tag(transcript: bytes, m1: bytes, sk: bytes) -> bytes:
    shake = hashlib.shake_256()
    shake.update(b"LSRP-m2" + transcript + m1 + sk)
    return shake.digest(TAG_LEN)


class ClientState(enum.Enum):
    INIT = "init"
    HELLO_SENT = "hello_sent"
    COMPLETE = "complete"
    FAILED = "failed"


class ServerState(enum.Enum):
    INIT = "init"
    RESPONDED = "responded"
    COMPLETE = "complete"
    FAILED = "failed"


class ClientSession:
    """Single-handshake client state machine.

    A seed makes the whole session deterministic (test/simulation use);
    without one every ephemeral draw comes from OS entropy.
    keep_material retains the raw key-material matrix for instrumentation.
    """

    def __init__(self, p: ProtocolParams, client_id: bytes, password: bytes,
                 seed: bytes | None = None, keep_material: bool = False) -> None:
        if not client_id:
            raise EmptyField("id must be nonempty")
        if not password:
            raise EmptyField("password must be nonempty")
        self.params = p
        self.client_id = client_id
        self.password: bytes | None = password
        self.state = ClientState.INIT
        self.keep_material = keep_material
        # draw budget: S_C, E_C and E_C', all three in hello
        self._exp = SessionStream(b"LSRP-client", seed if seed is not None else secrets.token_bytes(32),
                                  reserve=3 * gaussian_matrix_bytes(p))
        self.s_c: ModQMatrix | None = None
        self._e_c_prime: ModQMatrix | None = None
        self.b_c: ModQMatrix | None = None
        self.b_s: ModQMatrix | None = None
        self.transcript: bytes | None = None
        self.session_key: bytes | None = None
        self.key_material: ModQMatrix | None = None

    def hello(self) -> tuple[bytes, ModQMatrix]:
        """First flow: (id, B_C)."""
        if self.state is not ClientState.INIT:
            raise InvalidState(f"hello in state {self.state}")
        p = self.params
        self.s_c = gaussian_matrix_from(p, self._exp)
        e_c = gaussian_matrix_from(p, self._exp)
        self._e_c_prime = gaussian_matrix_from(p, self._exp)
        self._exp = None  # its last draw is done: free its squeezed bytes before the product
        self.b_c = self.s_c @ shared_basis(p) + e_c.scale2()
        self.state = ClientState.HELLO_SENT
        return self.client_id, self.b_c

    def finish(self, salt: bytes, b_s: ModQMatrix, sigma: SignalMatrix) -> bytes:
        """Consume the server challenge; derive and return the session key."""
        if self.state is not ClientState.HELLO_SENT:
            raise InvalidState(f"finish in state {self.state}")
        p = self.params
        if b_s.n != p.n or b_s.q != p.q or sigma.n != p.n:
            self._fail()
            raise DimensionMismatch("challenge matrices do not match parameters")
        gamma = derive_registration_seed(self.client_id, salt, self.password)
        s_i, e_i = registration_matrices(p, gamma)
        v = compute_verifier(shared_basis(p), s_i, e_i)
        m_c = client_key_material(s_i, self.s_c, b_s, v, self._e_c_prime)
        self.session_key = kdf(extract(m_c, sigma), p.lambda_seed)
        if self.keep_material:
            self.key_material = m_c
        self.b_s = b_s
        self._clear_secrets()
        self.transcript = transcript_digest(self.client_id, salt, self.b_c, b_s)
        self.state = ClientState.COMPLETE
        return self.session_key

    def confirmation(self) -> bytes:
        """Client tag proving key possession, sent to the server."""
        if self.state is not ClientState.COMPLETE:
            raise InvalidState(f"confirmation in state {self.state}")
        return client_confirmation_tag(self.transcript, self.session_key)

    def verify_server(self, m2: bytes) -> bool:
        """Check the server's tag against the client's own transcript."""
        if self.state is not ClientState.COMPLETE:
            raise InvalidState(f"verify_server in state {self.state}")
        expected = server_confirmation_tag(self.transcript, self.confirmation(), self.session_key)
        ok = hmac.compare_digest(expected, m2)
        if not ok:
            self.state = ClientState.FAILED
        return ok

    def _clear_secrets(self) -> None:
        self._exp = None  # its key and squeezed bytes determine S_C, E_C and E_C'
        self.s_c = None
        self._e_c_prime = None
        self.password = None

    def _fail(self) -> None:
        self._clear_secrets()
        self.session_key = None
        self.state = ClientState.FAILED


class ServerSession:
    """Single-handshake server state machine bound to one credential record."""

    def __init__(self, p: ProtocolParams, record: VerifierRecord,
                 seed: bytes | None = None, keep_material: bool = False) -> None:
        self.params = p
        self.record = record
        self.state = ServerState.INIT
        self.keep_material = keep_material
        # draw budget: S_S, E_S, E_S' and one signal variant bit per entry
        self._exp = SessionStream(b"LSRP-server", seed if seed is not None else secrets.token_bytes(32),
                                  reserve=3 * gaussian_matrix_bytes(p) + (p.n * p.n + 7) // 8)
        self.b_c: ModQMatrix | None = None
        self.b_s: ModQMatrix | None = None
        self.sigma: SignalMatrix | None = None
        self.session_key: bytes | None = None
        self.key_material: ModQMatrix | None = None

    def respond(self, client_id: bytes, b_c: ModQMatrix) -> tuple[bytes, ModQMatrix, SignalMatrix]:
        """Second flow: (salt, B_S, signal); derives the server's key."""
        if self.state is not ServerState.INIT:
            raise InvalidState(f"respond in state {self.state}")
        if client_id != self.record.client_id:
            raise UnknownId("session record does not match presented id")
        p = self.params
        if b_c.n != p.n or b_c.q != p.q:
            self._fail()
            raise DimensionMismatch("hello matrix does not match parameters")
        v = self.record.verifier
        s_s = gaussian_matrix_from(p, self._exp)
        e_s = gaussian_matrix_from(p, self._exp)
        e_s_prime = gaussian_matrix_from(p, self._exp)
        variants = self._exp.read_bits(p.n * p.n)
        self._exp = None  # its key and squeezed bytes determine S_S, E_S, E_S' and the variants
        self.b_c = b_c
        self.b_s = v + shared_basis(p) @ s_s + e_s.scale2()
        m_s = server_key_material(v, b_c, s_s, e_s_prime)
        self.sigma = signal(m_s, variants)
        self.session_key = kdf(extract(m_s, self.sigma), p.lambda_seed)
        if self.keep_material:
            self.key_material = m_s
        self.state = ServerState.RESPONDED
        return self.record.salt, self.b_s, self.sigma

    def verify_client(self, m1: bytes) -> bytes:
        """Check the client tag; on success return the server tag.

        Raises VerificationFailed (and fails the session) on mismatch.
        """
        if self.state is not ServerState.RESPONDED:
            raise InvalidState(f"verify_client in state {self.state}")
        # hashed here rather than in respond, which holds the handshake's largest working set
        transcript = transcript_digest(self.record.client_id, self.record.salt, self.b_c, self.b_s)
        expected = client_confirmation_tag(transcript, self.session_key)
        if not hmac.compare_digest(expected, m1):
            self._fail()
            raise VerificationFailed("client confirmation tag mismatch")
        self.state = ServerState.COMPLETE
        return server_confirmation_tag(transcript, m1, self.session_key)

    def _fail(self) -> None:
        self._exp = None
        self.session_key = None
        self.state = ServerState.FAILED
