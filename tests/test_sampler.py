import hashlib
import math
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from lsrp.errors import EmptyField
from lsrp.modq import ModQMatrix
from lsrp.params import SALT_LEN, TAIL_CUTOFF, ProtocolParams
from lsrp import sampler
from lsrp.sampler import (GaussianTable, SessionStream, StreamExpander, derive_registration_seed,
                          fresh_salt, gaussian_ints, gaussian_matrix_from, uniform_ints,
                          uniform_matrix)

LAMBDA = b"\x01" * 32
STREAMS = (StreamExpander, SessionStream)


# --- stream expander -------------------------------------------------------

def test_expander_deterministic_and_prefix_consistent():
    for stream in STREAMS:
        a = stream(b"t", b"s")
        b = stream(b"t", b"s")
        chunks = bytes(a.read(5)) + bytes(a.read(7)) + bytes(a.read(100))
        assert chunks == b.read(112), stream


def test_expander_tag_and_seed_separate_streams():
    for stream in STREAMS:
        base = stream(b"t", b"s").read(64)
        assert stream(b"u", b"s").read(64) != base
        assert stream(b"t", b"x").read(64) != base
        # length prefixing: ("ab", "c...") vs ("a", "bc...") must differ
        assert stream(b"ab", b"c" + b"s").read(64) != stream(b"a", b"bc" + b"s").read(64)
    assert SessionStream(b"t", b"s").read(64) != StreamExpander(b"t", b"s").read(64)


@pytest.mark.parametrize("reserve", [1, 100, 4096, 10_000])
def test_expander_reserve_gives_the_same_bytes(reserve):
    for stream in STREAMS:
        for splits in [(5, 7, 100), (reserve,), (reserve - 1, 1, 1), (reserve, 3 * reserve + 17)]:
            exp = stream(b"t", b"s", reserve=reserve)
            got = b"".join(exp.read(k) for k in splits)
            assert got == stream(b"t", b"s").read(sum(splits)), (stream, splits)


def _prefix(tag: bytes, seed: bytes) -> bytes:
    return len(tag).to_bytes(4, "big") + tag + seed


@pytest.mark.parametrize("length", [0, 1, 135, 136, 137, 4096, 3 * 8 * 128 ** 2])
def test_expander_squeeze_equals_hashlib(length):
    # 136 bytes is SHAKE-256's rate: one short of, exactly and one past a block
    want = hashlib.shake_256(_prefix(b"t", b"s")).digest(length)
    assert StreamExpander(b"t", b"s", reserve=length).read(length) == want
    assert StreamExpander(b"t", b"s", reserve=1).read(length) == want


@pytest.mark.parametrize("reserve", [136, 4096])
def test_expander_splits_across_and_past_reserve_equal_hashlib(reserve):
    shake = hashlib.shake_256(_prefix(b"tag", b"seed"))
    # a session stream is ChaCha20 under the first 32 bytes of the same SHAKE-256 stream
    chacha = sampler._chacha20(shake.digest(32), 5 * reserve).tobytes()
    for stream, want in ((StreamExpander, shake.digest(5 * reserve)), (SessionStream, chacha)):
        for splits in [(reserve - 3, 6), (reserve, 1), (1, reserve, 2 * reserve), (2, 5 * reserve - 2)]:
            exp = stream(b"tag", b"seed", reserve=reserve)
            got = [exp.read(k) for k in splits]
            # views of the squeezed buffer, not copies, and not writable through
            assert all(isinstance(chunk, memoryview) and chunk.readonly for chunk in got)
            assert b"".join(got) == want[:sum(splits)], (stream, splits)


def test_chacha20_keystream_matches_rfc8439_vectors():
    """RFC 8439 A.1 test vectors #1 and #2: zero key, zero nonce, block counters 0 and 1."""
    stream = sampler._chacha20(bytes(32), 128).tobytes()
    assert stream[:64].hex() == (
        "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
        "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586")
    assert stream[64:].hex() == (
        "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed"
        "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f")


@pytest.mark.parametrize("chunk", [64, 100])
def test_chacha20_chunked_updates_give_one_keystream(chunk, monkeypatch):
    key = bytes(range(32))
    whole = sampler._chacha20(key, 1000)
    monkeypatch.setattr(sampler, "_CHACHA20_CHUNK", chunk)
    assert np.array_equal(sampler._chacha20(key, 1000), whole)


def test_session_stream_keeps_the_key_not_the_seed():
    seed = bytes(range(1, 33))
    stream = SessionStream(b"LSRP-client", seed)
    stream.read(10)
    assert not hasattr(stream, "_prefix")
    assert not any(isinstance(v, bytes) and seed in v for v in vars(stream).values())
    assert len(stream._key) == 32


def test_expander_squeeze_releases_the_gil():
    """A 32 MiB squeeze leaves the interpreter to other threads while it runs."""
    for stream in STREAMS:
        started = threading.Event()
        span: list[float] = []

        def squeeze() -> None:
            span.append(time.perf_counter())
            started.set()
            stream(b"gil", b"s", reserve=32 << 20).read(1)
            span.append(time.perf_counter())

        worker = threading.Thread(target=squeeze)
        worker.start()
        assert started.wait(timeout=30)
        longest = 0.0
        last = span[0]  # a squeeze holding the GIL shows as the wait before the first iteration
        alive = True
        while alive:  # at least one iteration, even if the worker has already finished
            alive = worker.is_alive()
            now = time.perf_counter()
            longest = max(longest, now - last)
            last = now
        worker.join(timeout=30)
        assert not worker.is_alive() and len(span) == 2
        duration = span[1] - span[0]
        assert longest < duration / 2, (stream, longest, duration)


def test_unresolved_libcrypto_fails_with_a_clear_import_error(monkeypatch):
    from lsrp import sampler

    class NoSymbols:
        def __init__(self, path):
            pass

    monkeypatch.setattr(sampler.ctypes, "CDLL", NoSymbols)
    monkeypatch.setattr(sampler.ctypes, "PyDLL", NoSymbols)
    with pytest.raises(ImportError, match="SHAKE-256"):
        sampler._bind_libcrypto()


def test_expander_bits():
    bits = StreamExpander(b"t", b"s").read_bits(13)
    assert bits.shape == (13,) and set(np.unique(bits)) <= {0, 1}


# --- uniform sampling ------------------------------------------------------

def test_uniform_matrix_deterministic(params):
    a = uniform_matrix(params, b"A", LAMBDA)
    b = uniform_matrix(params, b"A", LAMBDA)
    assert a == b


def test_uniform_matrix_tag_separation(params):
    a = uniform_matrix(params, b"A", LAMBDA)
    b = uniform_matrix(params, b"B", LAMBDA)
    assert a != b


def test_uniform_matrix_rejects_empty_seed(params):
    with pytest.raises(EmptyField):
        uniform_matrix(params, b"A", b"")


def test_uniform_golden_vectors(params):
    # frozen from the reference pipeline; regression across refactors
    assert list(uniform_matrix(params, b"A", b"\x01" * 32).entries.reshape(-1)[:8]) == \
        [47086, 32447, 63884, 53619, 26181, 53399, 53510, 12954]
    assert list(uniform_matrix(params, b"A", b"\x02" * 32).entries.reshape(-1)[:8]) == \
        [8995, 54907, 62880, 22745, 65286, 5663, 1715, 54103]
    assert list(uniform_matrix(params, b"B", b"\x01" * 32).entries.reshape(-1)[:8]) == \
        [24705, 10400, 49196, 60575, 17831, 11127, 56047, 26832]


def test_uniform_chi_square_q41():
    from scipy.stats import chi2

    q, count = 41, 10 ** 5
    draws = uniform_ints(StreamExpander(b"chi", LAMBDA), count, q)
    observed = np.bincount(draws, minlength=q)
    expected = count / q
    stat = float(((observed - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(1 - 1e-6, df=q - 1)


def gaussian_from_seed(p, tag, seed):
    return gaussian_matrix_from(p, StreamExpander(tag, seed))


def test_committed_golden_vector_file(params):
    """Every `tag seed_hex first8entries_csv` line in the committed vector
    file regenerates; gaussian lines carry centered entries."""
    import pathlib

    path = pathlib.Path(__file__).parent / "vectors" / "sampler_golden.txt"
    checked = 0
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        tag, seed_hex, csv = line.split()
        seed = bytes.fromhex(seed_hex)
        expected = [int(x) for x in csv.split(",")]
        if tag == "G":
            got = gaussian_from_seed(params, b"G", seed).centered().reshape(-1)[:8]
        else:
            got = uniform_matrix(params, tag.encode(), seed).entries.reshape(-1)[:8]
        assert list(got) == expected, line
        checked += 1
    assert checked >= 6


# --- gaussian sampling -----------------------------------------------------

def test_gaussian_golden_vectors(params):
    assert list(gaussian_from_seed(params, b"G", b"\x01" * 32).centered().reshape(-1)[:8]) == \
        [1, 0, 1, 2, 1, -1, 0, -1]
    assert list(gaussian_from_seed(params, b"G", b"\x02" * 32).centered().reshape(-1)[:8]) == \
        [-1, 1, 1, -1, 0, 0, 0, 0]


def test_gaussian_truncation(params):
    m = gaussian_from_seed(params, b"G", b"\x03" * 32)
    assert np.abs(m.centered()).max() <= math.ceil(TAIL_CUTOFF * params.tau)


def test_gaussian_degenerate_table_is_zero():
    # support collapses to {0} when TAIL_CUTOFF*tau < 1
    t = GaussianTable.build(0.05)
    assert list(t.support) == [0]
    draws = StreamExpander(b"z", b"s").read_u64(100)
    assert (t.sample(draws) == 0).all()


def test_gaussian_table_invariants():
    t = GaussianTable.build(3.0)
    assert len(t.cdf) == 61
    diffs = np.diff(t.cdf.astype(object))
    assert (np.array(diffs) > 0).all()
    assert int(t.cdf[-1]) == 2 ** 64 - 1
    # symmetry of the underlying weights: increments mirror around 0
    inc = np.diff(np.concatenate([[0], t.cdf.astype(object)]))
    mid = len(inc) // 2
    for k in range(1, mid + 1):
        assert abs(int(inc[mid - k]) - int(inc[mid + k])) <= 2  # clamping slack


@pytest.mark.parametrize("tau", [0.05, 1.0, 3.0, 20.0])
def test_prefix_lookup_matches_binary_search(tau):
    """sample's bucket index agrees with a plain binary search over the whole table."""
    t = GaussianTable.build(tau)
    if tau == 20.0:
        assert len(t.support) > 255  # indices past a uint8
    u64 = 2 ** 64 - 1
    edges = {0, u64}
    for c in t.cdf.tolist():
        edges |= {c - 1, c, c + 1}
    for k in range(1, 4096):
        edges |= {(k << 52) - 1, k << 52}
    draws = np.concatenate([
        np.array(sorted(e for e in edges if 0 <= e <= u64), dtype=np.uint64),
        StreamExpander(b"prefix", str(tau).encode()).read_u64(10 ** 5),
    ])
    expected = t.support[np.searchsorted(t.cdf, draws, side="left")]
    assert np.array_equal(t.sample(draws), expected)


@pytest.mark.parametrize("tau", [1.0, 3.0, 20.0])
def test_gaussian_matrix_residues_equal_from_signed_for_every_support_value(tau):
    """gaussian_matrix_from wraps each signed draw to the residue from_signed gives."""
    table = GaussianTable.build(tau)
    n = math.isqrt(len(table.support) - 1) + 1
    pad = n * n - len(table.cdf)
    draws = np.concatenate([table.cdf, table.cdf[:pad]])  # cdf[i] draws support[i]
    signed = np.concatenate([table.support, table.support[:pad]]).reshape(n, n)

    class FixedDraws:
        def read_u64(self, count):
            assert count == n * n
            return draws.copy()

    q = 65537
    p = ProtocolParams(n=n, q=q, tau=tau, lambda_seed=b"\x01" * 32)
    got = gaussian_matrix_from(p, FixedDraws())
    assert got == ModQMatrix.from_signed(n, q, signed)
    assert got.entries.tolist() == (signed.astype(object) % q).tolist()


def oracle_cdf(tau: float, cutoff: int) -> list[int]:
    """Independent recomputation: floored 640-bit integer weights, exact
    rational rounding (half to even), same monotonicity repair."""
    import mpmath

    c = int(math.floor(cutoff * tau))
    u64 = 2 ** 64 - 1
    with mpmath.workprec(700):
        scale = mpmath.mpf(2) ** 640
        t2 = mpmath.mpf(tau) ** 2
        ws = [int(mpmath.floor(mpmath.exp(-mpmath.pi * (x * x) / t2) * scale))
              for x in range(-c, c + 1)]
    total = sum(ws)
    cum, acc = [], 0
    for w in ws:
        acc += w
        val = Fraction(acc * u64, total)
        fl = val.numerator // val.denominator
        frac = val - fl
        if frac > Fraction(1, 2) or (frac == Fraction(1, 2) and fl % 2 == 1):
            fl += 1
        cum.append(fl)
    for i in range(1, len(cum)):
        cum[i] = max(cum[i], cum[i - 1] + 1)
    cum[-1] = u64
    for i in range(len(cum) - 2, -1, -1):
        cum[i] = min(cum[i], cum[i + 1] - 1)
    return cum


@pytest.mark.parametrize("tau", [0.05, 1.0, 3.0, 20.0])
def test_gaussian_table_matches_high_precision_oracle(tau):
    # tau=0.05 is the one-entry table, tau=20 a table of 401 entries
    t = GaussianTable.build(tau)
    assert [int(x) for x in t.cdf] == oracle_cdf(tau, TAIL_CUTOFF)


def test_pi_literal_is_pi_to_its_last_digit():
    import mpmath

    decimals = -sampler._PI.as_tuple().exponent
    with mpmath.workprec(700):
        assert abs(mpmath.mpf(str(sampler._PI)) - mpmath.pi) < mpmath.mpf(10) ** -decimals / 2


def test_runs_without_mpmath():
    """The library needs no mpmath at run time: a blocked import must not matter."""
    import os
    import subprocess
    import sys

    import lsrp

    probe = """
import sys
sys.modules["mpmath"] = None  # any import of mpmath now raises ModuleNotFoundError
from lsrp import cli, harness, regev  # every module that a command imports
from lsrp.params import default_params
from lsrp.srp_core import register
p = default_params(bytes(32))
rec = register(p, b"alice", b"pw")
_, _, ok = harness.run_handshake(p, rec, b"alice", b"pw", client_seed=b"c", server_seed=b"s")
print(ok)
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lsrp.__file__)))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True"]


def test_gaussian_moments_match_density():
    # brute-force moments of the truncated density over {-30..30}
    tau, c = 3.0, 30
    xs = np.arange(-c, c + 1)
    w = np.exp(-math.pi * xs.astype(float) ** 2 / tau ** 2)
    true_var = float((xs ** 2 * w).sum() / w.sum())

    table = GaussianTable.build(tau)
    for stream in STREAMS:
        samples = gaussian_ints(stream(b"stats", LAMBDA), 10 ** 6, table).astype(float)
        assert -0.02 <= samples.mean() <= 0.02, stream
        assert abs(samples.var() - true_var) / true_var < 0.03, stream


# --- seed derivation and salts --------------------------------------------

def test_registration_seed_deterministic():
    a = derive_registration_seed(b"alice", b"salt", b"pw")
    b = derive_registration_seed(b"alice", b"salt", b"pw")
    assert a == b and len(a) == 32


def test_registration_seed_injective_encoding():
    assert derive_registration_seed(b"id", b"salt", b"ab") != \
        derive_registration_seed(b"ids", b"alt", b"ab")
    # field-boundary shift in the password vs salt
    assert derive_registration_seed(b"id", b"saltx", b"pw") != \
        derive_registration_seed(b"id", b"salt", b"xpw")


def test_registration_seed_salt_bit_flip():
    base = derive_registration_seed(b"alice", b"\x00" * 16, b"pw")
    flipped = derive_registration_seed(b"alice", b"\x01" + b"\x00" * 15, b"pw")
    assert base != flipped


def test_registration_seed_empty_fields():
    with pytest.raises(EmptyField):
        derive_registration_seed(b"", b"salt", b"pw")
    with pytest.raises(EmptyField):
        derive_registration_seed(b"id", b"", b"pw")


def test_fresh_salt():
    a, b = fresh_salt(), fresh_salt()
    assert len(a) == SALT_LEN == 16
    assert a != b
