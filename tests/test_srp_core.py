import dataclasses
import hashlib
import hmac
import sys
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsrp import srp_core, wire
from lsrp.errors import DimensionMismatch, EmptyField, InvalidState, VerificationFailed
from lsrp.harness import run_handshake
from lsrp.modq import ModQMatrix
from lsrp.params import ParamError, ProtocolParams, validate
from lsrp.reconcile import BitMatrix, extract_bit, hint0, hint1
from lsrp.sampler import GaussianTable, SessionStream, StreamExpander, gaussian_matrix_from
from lsrp.srp_core import (ClientSession, ClientState, ServerSession, ServerState,
                           client_confirmation_tag, client_key_material, compute_verifier,
                           decoy_record, decoy_verifier, kdf, register, registration_matrices,
                           server_confirmation_tag, server_key_material, shared_basis,
                           transcript_digest)
from test_kat import read_kat

LAMBDA = b"\x01" * 32
SALT = b"\x00" * 16


# --- registration ----------------------------------------------------------

def test_register_deterministic_given_salt(params):
    a = register(params, b"alice", b"pw", salt=SALT)
    b = register(params, b"alice", b"pw", salt=SALT)
    assert a.verifier == b.verifier and a.salt == SALT


def test_register_golden_digest(params):
    from lsrp.cli import matrix_digest

    rec = register(params, b"alice", b"pw", salt=SALT)
    assert matrix_digest(rec.verifier) == "c1ef0ab617867774ab14a8005dc08246"


def test_register_golden_digest_wide_modulus(params):
    """n=256, q=2^25-39: pins the profile whose products use the full 25-bit range."""
    from lsrp.cli import matrix_digest

    wide = validate(dataclasses.replace(params, n=256, q=(1 << 25) - 39))
    rec = register(wide, b"alice", b"pw", salt=SALT)
    assert matrix_digest(rec.verifier) == "ed613bebba86dae921f7e3ecc0969087"


def test_register_rejects_a_salt_of_another_length(params):
    for salt in (b"x" * 32, b"x" * 15):
        with pytest.raises(ParamError, match="salt"):
            register(params, b"alice", b"pw", salt=salt)


def test_register_zero_noise_verifier(params):
    z = ModQMatrix.zeros(params.n, params.q)
    assert compute_verifier(shared_basis(params), z, z) == z


def test_register_empty_fields(params):
    with pytest.raises(EmptyField):
        register(params, b"", b"pw")
    with pytest.raises(EmptyField):
        register(params, b"alice", b"")


def test_registration_matrices_reproducible(params):
    gamma = b"\x07" * 32
    s1, e1 = registration_matrices(params, gamma)
    s2, e2 = registration_matrices(params, gamma)
    assert s1 == s2 and e1 == e2 and s1 != e1


# --- algebra of the key material ------------------------------------------

@pytest.mark.parametrize("n", [2, 8])
def test_zero_noise_identity(n, toy):
    """No noise: both key materials equal (S_I + S_C) A S_S exactly."""
    import dataclasses

    p = dataclasses.replace(toy, n=n)
    a = shared_basis(p)
    z = ModQMatrix.zeros(n, p.q)
    for i in range(20):
        exp = StreamExpander(b"zn", bytes([i, n]))
        from lsrp.sampler import gaussian_matrix_from
        s_i = gaussian_matrix_from(p, exp)
        s_c = gaussian_matrix_from(p, exp)
        s_s = gaussian_matrix_from(p, exp)
        v = compute_verifier(a, s_i, z)
        b_s = v + a @ s_s
        b_c = s_c @ a
        m_c = client_key_material(s_i, s_c, b_s, v, z)
        m_s = server_key_material(v, b_c, s_s, z)
        expected = (s_i + s_c) @ a @ s_s
        assert m_c == expected
        assert m_s == expected


# --- full handshake --------------------------------------------------------

def test_handshake_agreement(toy):
    rec = register(toy, b"alice", b"pw", salt=SALT)
    for i in range(50):
        c, s, ok = run_handshake(toy, rec, b"alice", b"pw",
                                 client_seed=bytes([i]) * 32, server_seed=bytes([i + 1]) * 32)
        assert ok
        assert c.session_key == s.session_key
        assert c.state is ClientState.COMPLETE and s.state is ServerState.COMPLETE


def test_handshake_wrong_password(toy):
    rec = register(toy, b"alice", b"pw", salt=SALT)
    mismatches = 0
    for i in range(50):
        c, s, ok = run_handshake(toy, rec, b"alice", b"qw",
                                 client_seed=bytes([i]) * 32, server_seed=bytes([i + 1]) * 32)
        assert not ok
        assert s.state is ServerState.FAILED
        if c.session_key != s.session_key:
            mismatches += 1
    assert mismatches == 50


def test_fresh_sessions_give_distinct_hellos(toy):
    seen = set()
    for i in range(100):
        c = ClientSession(toy, b"alice", b"pw", seed=bytes([i]) * 32)
        _, b_c = c.hello()
        seen.add(b_c.entries.tobytes())
    assert len(seen) == 100


def test_session_keys_independent_across_handshakes(toy):
    rec = register(toy, b"alice", b"pw", salt=SALT)
    keys = set()
    for i in range(40):
        c, s, ok = run_handshake(toy, rec, b"alice", b"pw",
                                 client_seed=bytes([i, 1]) * 16, server_seed=bytes([i, 2]) * 16)
        assert ok
        keys.add(c.session_key)
    assert len(keys) == 40


@pytest.mark.parametrize("profile", ["toy", "params"])
def test_draw_budgets_are_exact(profile, request, monkeypatch):
    """Every protocol stream reads exactly its reserve, so it is squeezed once.

    A later extra draw would silently re-digest its stream from byte 0;
    it fails here instead.
    """
    from lsrp import srp_core

    p = request.getfixturevalue(profile)
    opened = []

    def recording(stream):
        class Recording(stream):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append((args[0], self))
        return Recording

    monkeypatch.setattr(srp_core, "StreamExpander", recording(StreamExpander))
    monkeypatch.setattr(srp_core, "SessionStream", recording(SessionStream))
    rec = register(p, b"alice", b"pw", salt=SALT)
    _, _, ok = run_handshake(p, rec, b"alice", b"pw",
                             client_seed=b"\x01" * 32, server_seed=b"\x02" * 32)
    assert ok
    assert sorted(tag for tag, _ in opened) == [b"LSRP-client", b"LSRP-reg", b"LSRP-reg",
                                                b"LSRP-server"]
    for tag, exp in opened:
        # the first digest is at least the reserve and any later one twice that,
        # so a buffer of exactly the reserve was digested once
        assert exp._off == exp._reserve == len(exp._buf), tag


def _int_mul(x, y, q):
    return [[sum(a * b for a, b in zip(row, col)) % q for col in zip(*y)] for row in x]


def _int_add(x, y, q, k=1):
    """x + k*y entrywise, mod q."""
    return [[(a + k * b) % q for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


KAT = read_kat()


@settings(max_examples=30, deadline=None)
@given(client_seed=st.binary(min_size=1, max_size=32), server_seed=st.binary(min_size=1, max_size=32),
       password=st.binary(min_size=1, max_size=16), wrong_password=st.booleans())
# the known-answer file's handshake, whose id and salt are also alice and SALT
@example(client_seed=bytes.fromhex(KAT["client_seed"]), server_seed=bytes.fromhex(KAT["server_seed"]),
         password=bytes.fromhex(KAT["password"]), wrong_password=False)
def test_handshake_matches_an_integer_reference_model(toy, client_seed, server_seed, password,
                                                      wrong_password):
    """The protocol's equations, recomputed from each party's recorded draws.

    V, B_C, B_S, M_C, M_S, the signal and the key bits are rebuilt with
    Python integers and the scalar hint0/hint1/extract_bit, independent of
    the NumPy products and the array reconciliation.
    """
    p, q, n = toy, toy.q, toy.n
    draws, variants = [], []

    def recording_gaussian(params, stream):
        m = gaussian_matrix_from(params, stream)
        draws.append(m.entries.tolist())
        return m

    class RecordingStream(SessionStream):
        def read_bits(self, count):
            bits = super().read_bits(count)
            variants.extend(bits.tolist())
            return bits

    client_password = password + b"!" if wrong_password else password
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(srp_core, "gaussian_matrix_from", recording_gaussian)
        mp.setattr(srp_core, "SessionStream", RecordingStream)
        rec = register(p, b"alice", password, salt=SALT)
        server = ServerSession(p, seed=server_seed, keep_material=True)
        client = ClientSession(p, b"alice", client_password, seed=client_seed, keep_material=True)
        salt, b_s, sigma = server.respond(rec, client.hello()[1])
        client.finish(salt, b_s, sigma)
    # registration, the server session, client hello, then the client's own S_I and E_I in finish
    s_i, e_i, s_s, e_s, e_s2, s_c, e_c, e_c2, s_i_c, e_i_c = draws
    assert len(variants) == n * n

    a = shared_basis(p).entries.tolist()
    v = _int_add(_int_mul(s_i, a, q), e_i, q, 2)
    b_c = _int_add(_int_mul(s_c, a, q), e_c, q, 2)
    want_b_s = _int_add(_int_add(v, _int_mul(a, s_s, q), q), e_s, q, 2)
    m_s = _int_add(_int_mul(_int_add(v, b_c, q), s_s, q), e_s2, q, 2)
    v_c = _int_add(_int_mul(s_i_c, a, q), e_i_c, q, 2)  # V as the client derives it
    m_c = _int_add(_int_mul(_int_add(s_i_c, s_c, q), _int_add(want_b_s, v_c, q, -1), q), e_c2, q, 2)
    sig = [[(hint1 if variants[i * n + j] else hint0)(m_s[i][j], q) for j in range(n)]
           for i in range(n)]
    k_s = [[extract_bit(m_s[i][j], sig[i][j], q) for j in range(n)] for i in range(n)]
    k_c = [[extract_bit(m_c[i][j], sig[i][j], q) for j in range(n)] for i in range(n)]

    assert rec.verifier.entries.tolist() == v
    assert client.b_c.entries.tolist() == b_c
    assert b_s.entries.tolist() == want_b_s
    assert server.key_material.entries.tolist() == m_s
    assert client.key_material.entries.tolist() == m_c
    assert sigma.bits.tolist() == sig
    assert server.session_key == kdf(BitMatrix(n, k_s), p.lambda_seed)
    assert client.session_key == kdf(BitMatrix(n, k_c), p.lambda_seed)
    if not wrong_password:
        assert (s_i_c, e_i_c) == (s_i, e_i)
        assert k_c == k_s


# --- state machine and hygiene --------------------------------------------

def test_client_state_machine(toy):
    c = ClientSession(toy, b"alice", b"pw", seed=b"\x01" * 32)
    with pytest.raises(InvalidState):
        c.finish(SALT, ModQMatrix.zeros(toy.n, toy.q), BitMatrix.zeros(toy.n))
    with pytest.raises(InvalidState):
        c.confirmation()
    c.hello()
    with pytest.raises(InvalidState):
        c.hello()


def test_server_state_machine(toy):
    rec = register(toy, b"alice", b"pw", salt=SALT)
    s = ServerSession(toy, seed=b"\x02" * 32)
    with pytest.raises(InvalidState):
        s.verify_client(b"\x00" * 32)
    with pytest.raises(InvalidState):
        s.hash_transcript()
    c = ClientSession(toy, b"alice", b"pw", seed=b"\x03" * 32)
    _, b_c = c.hello()
    s.respond(rec, b_c)
    with pytest.raises(InvalidState):
        s.respond(rec, b_c)


def test_secret_hygiene_after_completion(toy):
    rec = register(toy, b"alice", b"pw", salt=SALT)
    c, s, ok = run_handshake(toy, rec, b"alice", b"pw",
                             client_seed=b"\x04" * 32, server_seed=b"\x05" * 32)
    assert ok
    assert c.s_c is None and c.password is None
    # E_C and E_S are locals of hello and of the server's construction, never attributes
    assert not hasattr(c, "e_c")
    assert not any(hasattr(s, name) for name in ("s_s", "e_s", "e_s_prime", "_e_s"))
    # the seeded streams the ephemerals came from; the server's is a local of its construction
    assert c._exp is None and not hasattr(s, "_exp")
    assert c._e_c_prime is None
    # S_S, E_S', the variant bits and A S_S + 2E_S are held from construction to respond
    assert s._s_s is None and s._e_s_prime is None and s._variants is None and s._masked is None


def test_each_seeded_stream_is_dropped_after_its_last_draw(toy, monkeypatch):
    rec = register(toy, b"alice", b"pw", salt=SALT)
    streams, alive_at_product = [], []

    class Recording(SessionStream):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            streams.append(weakref.ref(self))

    matmul = ModQMatrix.__matmul__

    def recording_matmul(x, y):
        alive_at_product.append(streams[-1]() is not None)
        return matmul(x, y)

    monkeypatch.setattr(srp_core, "SessionStream", Recording)
    monkeypatch.setattr(ModQMatrix, "__matmul__", recording_matmul)
    s = ServerSession(toy, seed=b"\x05" * 32)
    # the server's stream is gone before its one product at construction
    assert alive_at_product == [False] and not hasattr(s, "_exp")
    assert s._s_s is not None and s._e_s_prime is not None  # S_S and E_S' wait for respond
    c = ClientSession(toy, b"alice", b"pw", seed=b"\x04" * 32)
    _, b_c = c.hello()
    assert c._exp is None and c._e_c_prime is not None  # E_C' waits for finish
    assert alive_at_product == [False, False]
    s.respond(rec, b_c)
    assert s._s_s is None and s._e_s_prime is None


@pytest.mark.parametrize("shake_side", ["client", "server"])
def test_shake_ephemerals_interoperate_with_session_streams(toy, shake_side, monkeypatch):
    """A party whose ephemerals come from SHAKE-256 (the draws before ChaCha20
    session streams) completes and confirms against one that uses them: no
    peer reproduces the other's ephemeral draws, so the wire is unchanged."""
    rec = register(toy, b"alice", b"pw", salt=SALT)
    opened = {}

    def recording(stream):
        class Recording(stream):
            def __init__(self, tag, *args, **kwargs):
                super().__init__(tag, *args, **kwargs)
                opened[tag] = stream
        return Recording

    with monkeypatch.context() as m:
        m.setattr(srp_core, "SessionStream", recording(StreamExpander))
        if shake_side == "client":
            c = ClientSession(toy, b"alice", b"pw", seed=b"\x06" * 32)
        else:
            s = ServerSession(toy, seed=b"\x07" * 32)
    with monkeypatch.context() as m:
        m.setattr(srp_core, "SessionStream", recording(SessionStream))
        if shake_side == "client":
            s = ServerSession(toy, seed=b"\x07" * 32)
        else:
            c = ClientSession(toy, b"alice", b"pw", seed=b"\x06" * 32)
    assert opened == {b"LSRP-" + shake_side.encode(): StreamExpander,
                      b"LSRP-" + {"client": b"server", "server": b"client"}[shake_side]: SessionStream}
    _, b_c = c.hello()
    salt, b_s, sigma = s.respond(rec, b_c)
    key = c.finish(salt, b_s, sigma)
    m2 = s.verify_client(c.confirmation())
    assert c.verify_server(m2)
    assert key == s.session_key and s.state is ServerState.COMPLETE


def test_challenge_at_another_modulus_fails_the_client_session(toy):
    c = ClientSession(toy, b"alice", b"pw", seed=b"\x0c" * 32)
    c.hello()
    other_q = ModQMatrix.zeros(toy.n, 1151)
    with pytest.raises(DimensionMismatch):
        c.finish(SALT, other_q, BitMatrix.zeros(toy.n))
    assert c.state is ClientState.FAILED
    assert c.password is None and c.s_c is None and c._exp is None and c.session_key is None
    assert c._e_c_prime is None
    with pytest.raises(InvalidState):
        c.finish(SALT, ModQMatrix.zeros(toy.n, toy.q), BitMatrix.zeros(toy.n))


def test_failed_server_session_drops_key(toy):
    rec = register(toy, b"alice", b"pw", salt=SALT)
    c = ClientSession(toy, b"alice", b"pw", seed=b"\x06" * 32)
    s = ServerSession(toy, seed=b"\x07" * 32)
    _, b_c = c.hello()
    s.respond(rec, b_c)
    with pytest.raises(VerificationFailed):
        s.verify_client(b"\x00" * 32)
    assert s.session_key is None and s.state is ServerState.FAILED


# --- kdf and confirmation --------------------------------------------------

def test_kdf_properties():
    k = BitMatrix(2, [[1, 0], [0, 1]])
    assert kdf(k, LAMBDA) == kdf(k, LAMBDA)
    assert len(kdf(k, LAMBDA)) == 32
    flipped = BitMatrix(2, [[0, 0], [0, 1]])
    assert kdf(flipped, LAMBDA) != kdf(k, LAMBDA)
    z = BitMatrix.zeros(2)
    assert kdf(z, LAMBDA) != kdf(z, b"\x02" * 32)


def test_confirmation_round_trip(toy):
    rec = register(toy, b"alice", b"pw", salt=SALT)
    c, s, ok = run_handshake(toy, rec, b"alice", b"pw",
                             client_seed=b"\x08" * 32, server_seed=b"\x09" * 32)
    assert ok
    assert c.transcript == transcript_digest(b"alice", SALT, c.b_c, c.b_s)
    m1 = c.confirmation()
    assert hmac.compare_digest(client_confirmation_tag(c.transcript, s.session_key), m1)


def test_confirmation_detects_transcript_tamper(toy):
    rec = register(toy, b"alice", b"pw", salt=SALT)
    c, s, ok = run_handshake(toy, rec, b"alice", b"pw",
                             client_seed=b"\x0a" * 32, server_seed=b"\x0b" * 32)
    tampered = ModQMatrix(toy.n, toy.q, (c.b_s.entries + 1) % toy.q)
    forged = transcript_digest(b"alice", SALT, c.b_c, tampered)
    assert client_confirmation_tag(forged, c.session_key) != c.confirmation()
    m2 = server_confirmation_tag(c.transcript, c.confirmation(), s.session_key)
    assert c.verify_server(m2)
    assert not c.verify_server(bytes([m2[0] ^ 1]) + m2[1:])
    assert c.state is ClientState.FAILED


def test_transcript_digest_hashes_the_encoded_fields(toy):
    rec = register(toy, b"alice", b"pw", salt=SALT)
    c, _, _ = run_handshake(toy, rec, b"alice", b"pw",
                            client_seed=b"\x10" * 32, server_seed=b"\x11" * 32)
    joined = (b"LSRP-transcript" + b"\x00\x00\x00\x05alice" + b"\x00\x00\x00\x10" + SALT
              + wire.encode_matrix(c.b_c) + wire.encode_matrix(c.b_s))
    assert c.transcript == hashlib.shake_256(joined).digest(32)


def test_transcript_binds_id_salt_and_both_matrices(toy):
    rec = register(toy, b"alice", b"pw", salt=SALT)
    c, _, ok = run_handshake(toy, rec, b"alice", b"pw",
                             client_seed=b"\x12" * 32, server_seed=b"\x13" * 32)
    assert ok

    def bumped(m):
        return ModQMatrix(m.n, m.q, (m.entries + 1) % m.q)

    fields = (b"alice", SALT, c.b_c, c.b_s)
    altered = [(b"alicf", SALT, c.b_c, c.b_s),
               (b"alice", b"\x01" + SALT[1:], c.b_c, c.b_s),
               (b"alice", SALT, bumped(c.b_c), c.b_s),
               (b"alice", SALT, c.b_c, bumped(c.b_s)),
               # the length prefixes keep the id/salt boundary fixed
               (b"alice" + SALT[:1], SALT[1:], c.b_c, c.b_s)]
    assert transcript_digest(*fields) == c.transcript
    m1 = client_confirmation_tag(c.transcript, c.session_key)
    for args in altered:
        t = transcript_digest(*args)
        assert t != c.transcript
        assert client_confirmation_tag(t, c.session_key) != m1


def test_handshake_hashes_its_transcript_once_per_party(toy, monkeypatch):
    rec = register(toy, b"alice", b"pw", salt=SALT)
    digest_callers = []
    tag_callers = []

    def counted(fn, callers):
        def wrapper(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(srp_core, "transcript_digest", counted(transcript_digest, digest_callers))
    for fn in (client_confirmation_tag, server_confirmation_tag):
        monkeypatch.setattr(srp_core, fn.__name__, counted(fn, tag_callers))
    _, _, ok = run_handshake(toy, rec, b"alice", b"pw",
                             client_seed=b"\x14" * 32, server_seed=b"\x15" * 32)
    assert ok
    # ServerSession.hash_transcript, once the Challenge is out, then ClientSession.finish
    assert digest_callers == ["hash_transcript", "finish"]
    # verify_server computes the client's tag again through confirmation()
    assert sorted(tag_callers) == ["confirmation"] * 2 + ["verify_client"] * 2 + ["verify_server"]


def test_handshake_draws_8_gaussian_matrices_and_takes_5_products(toy, monkeypatch):
    """The work one handshake does, counted where the benchmark's tracer counts it:
    each Gaussian draw is one GaussianTable.sample lookup."""
    rec = register(toy, b"alice", b"pw", salt=SALT)
    calls = []

    def counted(fn, name):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(srp_core, "gaussian_matrix_from",
                        counted(srp_core.gaussian_matrix_from, "gaussian_matrix_from"))
    monkeypatch.setattr(GaussianTable, "sample", counted(GaussianTable.sample, "sample"))
    monkeypatch.setattr(ModQMatrix, "__matmul__", counted(ModQMatrix.__matmul__, "matmul"))
    _, _, ok = run_handshake(toy, rec, b"alice", b"pw",
                             client_seed=b"\x16" * 32, server_seed=b"\x17" * 32)
    assert ok
    assert calls.count("gaussian_matrix_from") == 8
    assert calls.count("sample") == 8
    assert calls.count("matmul") == 5


def test_wide_modulus_handshake_centers_only_its_gaussian_operands(params, monkeypatch):
    """At n=256, q=2^25-39 the products need centered operands, but only the
    Gaussian ones: S_C, S_I, S_I + S_C and S_S twice.  B_S - V and V + B_C
    are cast as they are."""
    from lsrp import modq

    p = validate(dataclasses.replace(params, n=256, q=(1 << 25) - 39))
    rec = register(p, b"alice", b"pw", salt=SALT)
    calls = []
    centered_float = modq._centered_float
    monkeypatch.setattr(modq, "_centered_float", lambda e, q: calls.append(1) or centered_float(e, q))
    _, _, ok = run_handshake(p, rec, b"alice", b"pw",
                             client_seed=b"\x18" * 32, server_seed=b"\x19" * 32)
    assert ok and len(calls) == 5


def test_tags_from_independent_sessions_differ(toy):
    rec = register(toy, b"alice", b"pw", salt=SALT)
    c1, _, _ = run_handshake(toy, rec, b"alice", b"pw",
                             client_seed=b"\x0c" * 32, server_seed=b"\x0d" * 32)
    c2, _, _ = run_handshake(toy, rec, b"alice", b"pw",
                             client_seed=b"\x0e" * 32, server_seed=b"\x0f" * 32)
    assert c1.confirmation() != c2.confirmation()


def test_decoy_record_deterministic(params):
    secret = b"\xaa" * 32
    v = decoy_verifier(params, secret)
    assert v == decoy_verifier(params, secret) and v != decoy_verifier(params, b"\xab" * 32)
    a = decoy_record(b"ghost", secret, v)
    b = decoy_record(b"ghost", secret, v)
    assert a.salt == b.salt and a.verifier == b.verifier == v
    assert decoy_record(b"ghost2", secret, v).salt != a.salt
    assert decoy_record(b"ghost", b"\xab" * 32, v).salt != a.salt


def test_the_credential_record_is_the_register_frame(toy):
    assert srp_core.VerifierRecord is wire.Register
    rec = register(toy, b"alice", b"pw", salt=SALT)
    assert wire.decode_message(wire.encode_message(rec)) == rec


def test_an_id_longer_than_a_hello_carries_is_refused_before_any_work(toy, monkeypatch):
    longest = b"i" * wire.MAX_ID_LEN
    rec = register(toy, longest, b"pw", salt=SALT)
    assert run_handshake(toy, rec, longest, b"pw", b"\x01" * 32, b"\x02" * 32)[2]
    monkeypatch.setattr(srp_core, "derive_registration_seed", None)  # any work fails differently
    monkeypatch.setattr(srp_core, "SessionStream", None)
    for refused in (lambda cid: register(toy, cid, b"pw", salt=SALT),
                    lambda cid: ClientSession(toy, cid, b"pw")):
        with pytest.raises(wire.FieldOutOfRange, match=f"{wire.MAX_ID_LEN + 1} bytes exceeds the {wire.MAX_ID_LEN}"):
            refused(longest + b"i")


# --- seeded handshakes, pinned end to end -----------------------------------

# recorded before the handshake's hot path was rewritten; any change to the
# Gaussian lookup, the products or the wire codec that moves B_C, B_S, the
# signal, a session key or a tag changes these digests
HANDSHAKE_GOLDEN = {
    "toy": (8, 1153, 1.0,
        "59efdcdf5ff0e38f1fd21cf03f93a84dd9bbfa8079ee73b28f4164f5a754ea96"),
    "n128": (128, 65537, 3.0,
        "063ec0149d1e427f35685b4df1de5138f4a104c090493e57570f6b1bde4b61b4"),
    "n256-wideq": (256, (1 << 25) - 39, 3.0,
        "fec5ed34ed18c447a43203e36ab74b703e27ae108bf5390dfd3b30dd4c8c553b"),
}


def seeded_handshake_digest(p, seeds=3) -> str:
    """SHA-256 over the Hello and Challenge frames, both session keys and both
    tags of `seeds` seeded handshakes against one registered record."""
    rec = register(p, b"alice", b"pw", salt=SALT)
    h = hashlib.sha256()
    for i in range(seeds):
        c = ClientSession(p, b"alice", b"pw", seed=bytes([i, 1]) * 16)
        s = ServerSession(p, seed=bytes([i, 2]) * 16)
        hello = wire.encode_message(wire.Hello(*c.hello()))
        h.update(hello)
        msg = wire.decode_message(hello)
        challenge = wire.encode_message(wire.Challenge(*s.respond(rec, msg.b_c)))
        h.update(challenge)
        msg = wire.decode_message(challenge)
        h.update(c.finish(msg.salt, msg.b_s, msg.sigma))
        h.update(s.session_key)
        m1 = c.confirmation()
        m2 = s.verify_client(m1)
        assert c.verify_server(m2)
        h.update(m1 + m2)
    return h.hexdigest()


@pytest.mark.parametrize("profile", sorted(HANDSHAKE_GOLDEN))
def test_seeded_handshake_golden_digest(profile):
    n, q, tau, want = HANDSHAKE_GOLDEN[profile]
    p = validate(ProtocolParams(n=n, q=q, tau=tau, lambda_seed=LAMBDA))
    assert seeded_handshake_digest(p) == want
