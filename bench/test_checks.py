"""The benchmark's own tests: every output check passes on the program's
output and trips on a corrupted value (negative controls).

    python3 -m pytest -q bench/test_checks.py
"""
from __future__ import annotations

import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
from lsrp import cli, harness, sampler, srp_core  # noqa: E402
from lsrp.params import ProtocolParams, validate  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

LAMBDA = bytes(range(32))


@pytest.fixture(scope="module", params=[(8, 1153, 1.0), (128, 65537, 3.0), (256, 2 ** 25 - 39, 3.0)],
                ids=["toy", "n128", "n256-wideq"])
def hs(request):
    n, q, tau = request.param
    p = validate(ProtocolParams(n=n, q=q, tau=tau, lambda_seed=LAMBDA))
    cid, pw, salt = b"alice", b"correct horse", b"s" * p.salt_len
    record = srp_core.register(p, cid, pw, salt=salt)
    client, server, confirmed = harness.run_handshake(
        p, record, cid, pw, b"c" * 32, b"s" * 32, keep_material=True)
    s_i, e_i = srp_core.registration_matrices(p, sampler.derive_registration_seed(cid, salt, pw))
    return SimpleNamespace(p=p, q=q, v=record.verifier.entries, s_i=s_i.entries, e_i=e_i.entries,
                           a=srp_core.shared_basis(p).entries, client=client, server=server,
                           confirmed=confirmed, m_c=client.key_material.entries,
                           m_s=server.key_material.entries, sigma=server.sigma.bits)


def flip_bit(key: bytes) -> bytes:
    return bytes([key[0] ^ 1]) + key[1:]


def test_checks_pass_on_program_output(hs):
    checks.check_agreement(hs.client.session_key, hs.server.session_key, hs.confirmed)
    checks.check_verifier(hs.v, hs.s_i, hs.e_i, hs.a, hs.q)
    checks.check_noise(hs.m_c, hs.m_s, hs.q)
    for key in (hs.client.session_key, hs.server.session_key):
        checks.check_session_key(key, hs.m_s, hs.sigma, hs.q, LAMBDA)


def test_agreement_trips_on_flipped_key_bit(hs):
    with pytest.raises(checks.CheckFailed):
        checks.check_agreement(hs.client.session_key, flip_bit(hs.server.session_key), True)


def test_agreement_trips_on_unverified_tag(hs):
    with pytest.raises(checks.CheckFailed):
        checks.check_agreement(hs.client.session_key, hs.server.session_key, False)


def test_verifier_trips_on_perturbed_product_entry(hs):
    v = hs.v.copy()
    v[1, 2] = (v[1, 2] + 1) % hs.q
    with pytest.raises(checks.CheckFailed):
        checks.check_verifier(v, hs.s_i, hs.e_i, hs.a, hs.q)


def test_noise_trips_on_odd_difference(hs):
    m_c = hs.m_c.copy()
    m_c[0, 0] = (m_c[0, 0] + 1) % hs.q
    with pytest.raises(checks.CheckFailed, match="odd"):
        checks.check_noise(m_c, hs.m_s, hs.q)


def test_noise_trips_on_gap_past_tolerance(hs):
    gap = 2 * ((hs.q // 4) // 2 + 1)  # even and above floor(q/4) - 2
    m_c = hs.m_c.copy()
    m_c[3, 1] = (hs.m_s[3, 1] + gap) % hs.q
    with pytest.raises(checks.CheckFailed, match="exceeds"):
        checks.check_noise(m_c, hs.m_s, hs.q)


def test_session_key_trips_on_perturbed_key_material(hs):
    m_s = (hs.m_s.copy() + np.eye(hs.p.n, dtype=np.int64)) % hs.q
    with pytest.raises(checks.CheckFailed):
        checks.check_session_key(hs.server.session_key, m_s, hs.sigma, hs.q, LAMBDA)


def test_session_key_trips_on_flipped_key_bit(hs):
    with pytest.raises(checks.CheckFailed):
        checks.check_session_key(flip_bit(hs.server.session_key), hs.m_s, hs.sigma, hs.q, LAMBDA)


def test_rejection_trips_on_accepted_login():
    checks.check_rejected(cli.EXIT_AUTH_FAILED, cli.EXIT_AUTH_FAILED)
    with pytest.raises(checks.CheckFailed):
        checks.check_rejected(cli.EXIT_OK, cli.EXIT_AUTH_FAILED)


@pytest.mark.parametrize("q", [1153, 65537, 2 ** 25 - 39, 2 ** 32 - 5])
def test_exact_product_matches_python_integers(q):
    rng = np.random.default_rng(q)
    small = rng.integers(-30, 31, size=(6, 6))
    big = rng.integers(0, q, size=(6, 6))
    want = [[sum(int(small[i, k]) * int(big[k, j]) for k in range(6)) % q for j in range(6)]
            for i in range(6)]
    assert checks.exact_product_mod(small, big, q).tolist() == want


def test_tracer_counts_handshake_layers_and_uninstalls():
    p = validate(ProtocolParams(n=8, q=1153, tau=1.0, lambda_seed=LAMBDA))
    record = srp_core.register(p, b"bob", b"pw", salt=b"t" * 16)
    original = srp_core.ClientSession.hello
    tracer = Tracer()
    tracer.install()
    try:
        for i in range(3):
            tracer.run_op(i, harness.run_handshake, p, record, b"bob", b"pw",
                          bytes([i]) * 32, bytes([i + 1]) * 32)
        harness.run_handshake(p, record, b"bob", b"pw", b"x" * 32, b"y" * 32)  # untraced
    finally:
        tracer.uninstall()
    assert srp_core.ClientSession.hello is original
    m = layer_metrics(tracer.spans, 3)
    assert m["sampler.gaussian_matrix.calls_per_op"] == 8
    assert m["modq.matmul.calls_per_op"] == 5
    assert m["srp_core.confirmation_tag.calls_per_op"] == 5
    assert m["wire.bytes_per_op"] > 0
    assert {s[2] for s in tracer.spans} == {0, 1, 2}
