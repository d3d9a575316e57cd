"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line with the measured quantity.

These run the protocol at full default parameters and are therefore the
slow part of the suite; run them alone with
`pytest tests/test_acceptance.py -v -s`.
"""
import threading
import time

import numpy as np

from lsrp import cli, wire
from lsrp.credstore import CredentialStore
from lsrp.harness import lemma_violations, run_handshake, simulate, stolen_verifier_attempt
from lsrp.modq import ModQMatrix
from lsrp.params import default_params
from lsrp.reconcile import SignalMatrix
from lsrp.regev import default_regev_params, round_trip_accuracy
from lsrp.sampler import StreamExpander, gaussian_matrix_from, uniform_ints
from lsrp.srp_core import (client_key_material, compute_verifier, register, server_key_material,
                           shared_basis)

LAMBDA = b"\x01" * 32
SALT = b"\x00" * 16
PARAMS = default_params(LAMBDA)
MASTER = b"\xa7" * 32


def report(idx: int, ok: bool, detail: str) -> None:
    print(f"criterion {idx:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_criterion_01_reconciliation_agreement_oracle():
    start = time.monotonic()
    bad = {q: lemma_violations(q) for q in (13, 41, 101)}
    elapsed = time.monotonic() - start
    total = sum(len(v) for v in bad.values())
    report(1, total == 0 and elapsed < 5.0,
           f"violations={total} over q=13,41,101 in {elapsed:.2f}s (limit 5s)")


def test_criterion_02_handshake_agreement_10000():
    start = time.monotonic()
    rep = simulate(PARAMS, 10000, master_seed=MASTER)
    elapsed = time.monotonic() - start
    report(2, rep.agreements == 10000 and elapsed < 600.0,
           f"agreements={rep.agreements}/10000 in {elapsed:.1f}s (limit 600s)")


def test_criterion_03_noise_bound_1000_instrumented():
    rep = simulate(PARAMS, 1000, instrument=True, master_seed=MASTER)
    limit = min(rep.tolerance_bound, int(rep.analytic_bound))
    report(3, rep.agreements == 1000 and rep.max_noise_inf_norm <= limit,
           f"max|M_C-M_S|={rep.max_noise_inf_norm} <= {limit} "
           f"(tolerance {rep.tolerance_bound}, analytic {int(rep.analytic_bound)}), "
           f"all centered differences even")


def test_criterion_04_zero_noise_identity():
    import dataclasses

    failures = 0
    for n in (2, 8):
        p = dataclasses.replace(PARAMS, n=n)
        a = shared_basis(p)
        z = ModQMatrix.zeros(n, p.q)
        exp = StreamExpander(b"acc-zero-noise", bytes([n]) + MASTER)
        for _ in range(100):
            s_i = gaussian_matrix_from(p, exp)
            s_c = gaussian_matrix_from(p, exp)
            s_s = gaussian_matrix_from(p, exp)
            v = compute_verifier(a, s_i, z)
            m_c = client_key_material(s_i, s_c, v + a @ s_s, v, z)
            m_s = server_key_material(v, s_c @ a, s_s, z)
            if not (m_c == m_s == (s_i + s_c) @ a @ s_s):
                failures += 1
    report(4, failures == 0,
           f"exact-identity failures={failures}/200 across n in (2, 8)")


def test_criterion_05_wrong_password_1000():
    rep = simulate(PARAMS, 1000, wrong_password=True, master_seed=MASTER)
    report(5, rep.agreements == 0 and rep.wrong_password_mismatches == 1000,
           f"mismatch+confirmation-failure={rep.wrong_password_mismatches}/1000, "
           f"agreements={rep.agreements}")


def test_criterion_06_stolen_verifier_1000():
    record = register(PARAMS, b"victim", b"correct horse", salt=SALT)
    accepted = 0
    for strategy in ("random", "zero"):
        for i in range(500):
            seed = StreamExpander(b"acc-adv-" + strategy.encode(), MASTER + bytes([i % 256, i // 256])).read(32)
            accepted += stolen_verifier_attempt(PARAMS, record, strategy, seed)
    report(6, accepted == 0,
           f"impersonations accepted={accepted}/1000 (random and zero strategies)")


def test_criterion_07_session_key_independence():
    record = register(PARAMS, b"alice", b"pw", salt=SALT)
    distinct_pairs = 0
    keys = set()
    for i in range(100):
        pair = []
        for side in (0, 1):
            c, s, ok = run_handshake(
                PARAMS, record, b"alice", b"pw",
                client_seed=StreamExpander(b"acc-c", MASTER + bytes([i, side])).read(32),
                server_seed=StreamExpander(b"acc-s", MASTER + bytes([i, side])).read(32))
            assert ok
            pair.append(c.session_key)
            keys.add(c.session_key)
        distinct_pairs += pair[0] != pair[1]
    report(7, distinct_pairs == 100 and len(keys) == 200,
           f"distinct-key pairs={distinct_pairs}/100, unique keys={len(keys)}/200")


def test_criterion_08_registration_golden_vector():
    rec = register(PARAMS, b"alice", b"pw", salt=SALT)
    digest = cli.matrix_digest(rec.verifier)
    expected = "c1ef0ab617867774ab14a8005dc08246"
    report(8, digest == expected, f"verifier digest {digest} (expected {expected})")


def test_criterion_09_regev_round_trip_10000():
    rp = default_regev_params()
    start = time.monotonic()
    acc = round_trip_accuracy(rp, 10000, seed=MASTER)
    elapsed = time.monotonic() - start
    report(9, (rp.n, rp.m, rp.p) == (64, 320, 4099) and acc >= 0.99 and elapsed < 30.0,
           f"n={rp.n} m={rp.m} p={rp.p} accuracy={acc:.4f} in {elapsed:.1f}s (limit 30s)")


def _random_message(rng) -> wire.WireMessage:
    n = int(rng.integers(1, 6))
    q = int(rng.choice([13, 41, 1153, 65537]))
    m = ModQMatrix(n, q, rng.integers(0, q, size=(n, n)))
    sig = SignalMatrix(n, rng.integers(0, 2, size=(n, n)))
    blob = rng.integers(0, 256, size=int(rng.integers(0, 24))).astype(np.uint8).tobytes()
    kind = int(rng.integers(0, 6))
    if kind == 0:
        return wire.Register(blob, blob[::-1], m)
    if kind == 1:
        return wire.Hello(blob, m)
    if kind == 2:
        return wire.Challenge(blob, m, sig)
    if kind == 3:
        return wire.ConfirmClient(rng.integers(0, 256, size=32).astype(np.uint8).tobytes())
    if kind == 4:
        return wire.ConfirmServer(rng.integers(0, 256, size=32).astype(np.uint8).tobytes())
    return wire.ErrorMessage(int(rng.integers(1, 255)), blob)


def test_criterion_10_wire_robustness():
    rng = np.random.default_rng(20240824)
    bad_round_trips = 0
    for _ in range(10000):
        msg = _random_message(rng)
        if wire.decode_message(wire.encode_message(msg)) != msg:
            bad_round_trips += 1
    crashes = 0
    for i in range(10000):
        size = int(rng.integers(0, 64 * 1024)) if i % 100 == 0 else int(rng.integers(0, 128))
        blob = rng.integers(0, 256, size=size).astype(np.uint8).tobytes()
        if i % 3 == 0:
            blob = wire.MAGIC + bytes([wire.VERSION]) + blob  # force past the magic/version checks
        try:
            wire.decode_message(blob)
        except wire.WireError:
            pass
        except Exception:
            crashes += 1
    report(10, bad_round_trips == 0 and crashes == 0,
           f"round-trip failures={bad_round_trips}/10000, untyped crashes={crashes}/10000")


def test_criterion_11_end_to_end_loopback(tmp_path):
    start = time.monotonic()
    store_path = str(tmp_path / "creds.db")
    pw = tmp_path / "pw.txt"
    pw.write_bytes(b"correct horse battery\n")
    flags = ["--lambda-seed", LAMBDA.hex()]

    assert cli.main(["register", *flags, "--store", store_path,
                     "--id", "alice", "--password-file", str(pw)]) == cli.EXIT_OK

    store = CredentialStore.open(store_path, PARAMS)
    server = cli.LsrpServer(("127.0.0.1", 0), PARAMS, store)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        code, digest = cli.run_login(PARAMS, b"alice", b"correct horse battery", (host, port))
        wrong, _ = cli.run_login(PARAMS, b"alice", b"wrong", (host, port))
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    elapsed = time.monotonic() - start
    report(11, code == cli.EXIT_OK and digest is not None and wrong != cli.EXIT_OK
           and elapsed < 5.0,
           f"login exit={code} key-digest={digest} wrong-password exit={wrong} "
           f"in {elapsed:.2f}s (limit 5s)")


def test_criterion_12_uniformity_chi_square():
    from scipy.stats import chi2

    q, count = 41, 10 ** 5
    draws = uniform_ints(StreamExpander(b"acc-chi", MASTER), count, q)
    observed = np.bincount(draws, minlength=q)
    expected = count / q
    stat = float(((observed - expected) ** 2 / expected).sum())
    crit = float(chi2.ppf(1 - 1e-6, df=q - 1))
    report(12, stat < crit, f"chi-square={stat:.1f} < critical={crit:.1f} at alpha=1e-6")
