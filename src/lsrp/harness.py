"""In-process validation harness: seeded Monte-Carlo handshakes,
noise-gap instrumentation, adversarial drivers, and the exhaustive
small-modulus reconciliation oracle.

Simulated handshakes bypass TCP but every message still round-trips
through the wire codec, so serialization is exercised in every run.  A
single master seed expands into all per-trial entropy, making reports
reproducible byte for byte (runtime aside).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidTrialCount, VerificationFailed
from .modq import ModQMatrix, centered_array, reduce_array
from .params import SALT_LEN, EvenModulus, ModulusTooSmall, ProtocolParams
from .reconcile import extract, extract_bits, hint_bits
from .sampler import StreamExpander, gaussian_matrix_from
from .srp_core import (ClientSession, ServerSession, VerifierRecord, client_confirmation_tag,
                       kdf, register, shared_basis, transcript_digest)
from . import wire

DEFAULT_MASTER_SEED = b"\x00" * 32
SIM_CLIENT_ID = b"sim-user"
SIM_PASSWORD = b"sim-password"
MAX_VIOLATIONS = 20  # violations lemma_violations reports before it stops


@dataclass
class HarnessReport:
    trials: int
    agreements: int
    max_noise_inf_norm: int | None
    analytic_bound: int
    tolerance_bound: int
    wrong_password_mismatches: int | None
    runtime: float

    def render(self) -> str:
        rows = [
            ("trials", str(self.trials)),
            ("agreements", str(self.agreements)),
            ("max_noise_inf_norm",
             "-" if self.max_noise_inf_norm is None else str(self.max_noise_inf_norm)),
            ("analytic_bound", str(self.analytic_bound)),
            ("tolerance_bound", str(self.tolerance_bound)),
            ("wrong_password_mismatches",
             "-" if self.wrong_password_mismatches is None else str(self.wrong_password_mismatches)),
            ("runtime_s", f"{self.runtime:.3f}"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def _trial_seed(master_seed: bytes, label: bytes, index: int) -> bytes:
    exp = StreamExpander(b"LSRP-sim-" + label + index.to_bytes(8, "big"), master_seed)
    return bytes(exp.read(32))


def _perturb(password: bytes, index: int) -> bytes:
    pos = index % len(password)
    flip = (index % 255) + 1
    return password[:pos] + bytes([password[pos] ^ flip]) + password[pos + 1:]


def run_handshake(p: ProtocolParams, record: VerifierRecord, client_id: bytes,
                  password: bytes, client_seed: bytes, server_seed: bytes,
                  keep_material: bool = False):
    """One full handshake with every flow passed through the wire codec.

    The server's steps come in the order `lsrp serve` takes them: its
    session before the Hello, its transcript hash before the client's finish.
    Returns (client session, server session, confirmed: bool).
    """
    server = ServerSession(p, seed=server_seed, keep_material=keep_material)
    client = ClientSession(p, client_id, password, seed=client_seed,
                           keep_material=keep_material)

    cid, b_c = client.hello()
    hello = wire.decode_message(wire.encode_message(wire.Hello(cid, b_c)))
    salt, b_s, sigma = server.respond(record, hello.b_c)
    chall = wire.decode_message(wire.encode_message(wire.Challenge(salt, b_s, sigma)))
    server.hash_transcript()
    client.finish(chall.salt, chall.b_s, chall.sigma)
    m1_msg = wire.decode_message(wire.encode_message(wire.ConfirmClient(client.confirmation())))
    try:
        m2 = server.verify_client(m1_msg.tag)
    except VerificationFailed:
        return client, server, False
    m2_msg = wire.decode_message(wire.encode_message(wire.ConfirmServer(m2)))
    return client, server, client.verify_server(m2_msg.tag)


def simulate(p: ProtocolParams, trials: int, instrument: bool = False,
             wrong_password: bool = False, master_seed: bytes | None = None) -> HarnessReport:
    """Seeded in-process handshake campaign for SIM_CLIENT_ID and SIM_PASSWORD."""
    if trials < 1:
        raise InvalidTrialCount(f"trials must be >= 1, got {trials}")
    if master_seed is None:
        master_seed = DEFAULT_MASTER_SEED
    start = time.monotonic()

    salt = bytes(StreamExpander(b"LSRP-sim-salt", master_seed).read(SALT_LEN))
    record = register(p, SIM_CLIENT_ID, SIM_PASSWORD, salt=salt)

    agreements = 0
    mismatches = 0
    max_norm = 0
    for i in range(trials):
        pw = _perturb(SIM_PASSWORD, i) if wrong_password else SIM_PASSWORD
        client, server, confirmed = run_handshake(
            p, record, SIM_CLIENT_ID, pw,
            client_seed=_trial_seed(master_seed, b"client", i),
            server_seed=_trial_seed(master_seed, b"server", i),
            keep_material=instrument)
        agree = client.session_key == server.session_key
        if agree:
            agreements += 1
        if wrong_password and not agree and not confirmed:
            mismatches += 1
        if instrument:
            diff = client.key_material - server.key_material
            max_norm = max(max_norm, diff.inf_norm())
            if (diff.centered() % 2).any():
                raise AssertionError(f"trial {i}: key-material difference has odd entries")

    return HarnessReport(
        trials=trials,
        agreements=agreements,
        max_noise_inf_norm=max_norm if instrument else None,
        analytic_bound=int(p.noise_bound),
        tolerance_bound=p.tolerance,
        wrong_password_mismatches=mismatches if wrong_password else None,
        runtime=time.monotonic() - start,
    )


def stolen_verifier_attempt(p: ProtocolParams, record: VerifierRecord,
                            strategy: str, seed: bytes) -> bool:
    """Impersonation attempt by an adversary holding (salt, V) but no password.

    The adversary plays the client with its own ephemeral secret but
    cannot supply the verifier secret term of the key material.  Returns
    True iff the server accepted the confirmation tag.
    """
    exp = StreamExpander(b"LSRP-adv", seed)
    a = shared_basis(p)
    if strategy == "random":
        s_c = gaussian_matrix_from(p, exp)
        e_c = gaussian_matrix_from(p, exp)
        b_c = s_c @ a + e_c.scale2()
    elif strategy == "zero":
        s_c = ModQMatrix.zeros(p.n, p.q)
        b_c = ModQMatrix.zeros(p.n, p.q)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    server = ServerSession(p, seed=bytes(exp.read(32)))
    salt, b_s, sigma = server.respond(record, b_c)

    # best available guess: drop the unknown verifier-secret contribution
    e_guess = gaussian_matrix_from(p, exp)
    m_guess = s_c @ (b_s - record.verifier) + e_guess.scale2()
    sk_guess = kdf(extract(m_guess, sigma), p.lambda_seed)
    m1 = client_confirmation_tag(transcript_digest(record.client_id, salt, b_c, b_s), sk_guess)
    try:
        server.verify_client(m1)
    except VerificationFailed:
        return False
    return True


def lemma_violations(q: int, tolerance: int | None = None) -> list[tuple[int, int, int, int]]:
    """Exhaustively test extract-agreement at modulus q.

    For every y in [0, q), both hint variants b, and every even offset d
    with |d| <= tolerance (default floor(q/4) - 2), checks that y and
    y + d extract to the same bit under the hint computed on y.  Returns
    up to MAX_VIOLATIONS violations as (y, b, d, tolerance_used).
    """
    if q % 2 == 0:
        raise EvenModulus(f"modulus must be odd, got {q}")
    if q <= 8:
        raise ModulusTooSmall(f"modulus must exceed 8, got {q}")
    tol = q // 4 - 2 if tolerance is None else tolerance
    y = np.arange(q, dtype=np.int64)
    offsets = np.arange(-tol, tol + 1, dtype=np.int64)
    offsets = offsets[offsets % 2 == 0]

    violations: list[tuple[int, int, int, int]] = []
    for b in (0, 1):
        sigma = hint_bits(y, b, q)
        base = extract_bits(y, sigma, q)
        for d in offsets:
            bad = np.nonzero(extract_bits(reduce_array(y + d, q), sigma, q) != base)[0]
            for idx in bad[:MAX_VIOLATIONS - len(violations)]:
                violations.append((int(idx), b, int(d), tol))
            if len(violations) >= MAX_VIOLATIONS:
                return violations
    return violations


def signal_range_max(q: int) -> int:
    """Max |centered((y + hint_b(y)*(q-1)/2) mod q)| over all y and both variants."""
    y = np.arange(q, dtype=np.int64)
    shifted = (reduce_array(y + np.multiply(hint_bits(y, b, q), (q - 1) // 2, dtype=np.int64), q)
               for b in (0, 1))
    return max(int(np.abs(centered_array(s, q)).max()) for s in shifted)
