import numpy as np
import pytest

from lsrp.errors import DimensionMismatch, NonIntegerEntries
from lsrp.modq import ModQMatrix, centered
from lsrp.reconcile import BitMatrix, extract, extract_bit, hint0, hint1, hint_bits, signal
from lsrp.sampler import StreamExpander


def test_hint0_examples_q13():
    # floor(13/4) = 3, inner region [-3, 3]
    assert hint0(0, 13) == 0
    assert hint0(3, 13) == 0
    assert hint0(4, 13) == 1
    assert hint0(10, 13) == 0  # centered(10) = -3


def test_hint1_examples_q13():
    # inner region [-2, 4]
    assert hint1(4, 13) == 0
    assert hint1(10, 13) == 1  # centered -3 outside [-2, 4]
    assert hint1(0, 13) == 0


def test_extract_bit_examples():
    assert extract_bit(4, 0, 13) == 0
    # 4 + 6 = 10, centered(10) = -3: parity on the centered value is 1
    assert extract_bit(4, 1, 13) == 1
    assert extract_bit(0, 0, 13) == 0


def test_extract_matches_scalar_reference():
    rng = np.random.default_rng(7)
    cases = []
    for q in (13, 41):
        cases.append((q, rng.integers(0, q, size=(4, 4)), rng.integers(0, 2, size=(4, 4))))
    for q in (1153, 65537, 2 ** 25 - 39, 2 ** 32 - 5):
        # 0, q-1, (q-1)/2 and its neighbours, each under both hint bits
        half = (q - 1) // 2
        edges = [0, 1, half - 1, half, half + 1, half + 2, q - 2, q - 1]
        cases.append((q, np.array(edges + edges).reshape(4, 4), np.repeat([0, 1], 8).reshape(4, 4)))
        # the hint intervals' ends, b = floor(q/4): hint_bits against hint0 and hint1
        b = q // 4
        hint_edges = np.array([*range(b - 1, b + 3), *range(q - b - 1, q - b + 3), 0, half, q - 1])
        for variant, hint in ((0, hint0), (1, hint1)):
            want = [hint(int(x), q) for x in hint_edges]
            assert hint_bits(hint_edges, variant, q).tolist() == want, (q, variant)
    for q, entries, bits in cases:
        m = ModQMatrix(4, q, entries)
        s = BitMatrix(4, bits)
        got = extract(m, s)
        for i in range(4):
            for j in range(4):
                assert got.bits[i, j] == extract_bit(int(m.entries[i, j]), int(s.bits[i, j]), q), q


def test_extract_zero_matrix():
    z = ModQMatrix.zeros(3, 13)
    assert extract(z, BitMatrix.zeros(3)) == BitMatrix.zeros(3)


def test_extract_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        extract(ModQMatrix.zeros(2, 13), BitMatrix.zeros(3))


def test_signal_zero_matrix_is_zero_for_either_variant():
    z = ModQMatrix.zeros(3, 13)
    assert signal(z, np.zeros(9, dtype=np.uint8)) == BitMatrix.zeros(3)
    assert signal(z, np.ones(9, dtype=np.uint8)) == BitMatrix.zeros(3)


def test_signal_variant_dependence_at_boundary():
    # q=13, value 4: hint0 -> 1, hint1 -> 0
    m = ModQMatrix(1, 13, [[4]])
    assert signal(m, np.zeros(1, dtype=np.uint8)).bits[0, 0] == 1
    assert signal(m, np.ones(1, dtype=np.uint8)).bits[0, 0] == 0


def test_signal_deterministic_with_fixed_stream():
    rng = np.random.default_rng(3)
    m = ModQMatrix(5, 41, rng.integers(0, 41, size=(5, 5)))
    a = signal(m, StreamExpander(b"sig", b"x").read_bits(25))
    b = signal(m, StreamExpander(b"sig", b"x").read_bits(25))
    assert a == b


def test_lemma_agreement_exhaustive_small_q():
    """Independent double-loop oracle over every (y, b, even offset)."""
    for q in (13, 41):
        tol = q // 4 - 2
        for y in range(q):
            for b, hint in ((0, hint0), (1, hint1)):
                sigma = hint(y, q)
                base = extract_bit(y, sigma, q)
                for d in range(-tol, tol + 1):
                    if d % 2:
                        continue
                    assert extract_bit((y + d) % q, sigma, q) == base, (q, y, b, d)


def test_lemma_range_guarantee_exhaustive():
    # |centered(y + hint_b(y)*(q-1)/2 mod q)| <= q/4 + 1 for all y, b
    for q in (13, 41):
        half = (q - 1) // 2
        for y in range(q):
            for hint in (hint0, hint1):
                shifted = centered((y + hint(y, q) * half) % q, q)
                assert abs(shifted) <= q // 4 + 1


def test_entrywise_permutation_equivariance():
    rng = np.random.default_rng(11)
    m = ModQMatrix(6, 41, rng.integers(0, 41, size=(6, 6)))
    s = BitMatrix(6, rng.integers(0, 2, size=(6, 6)))
    perm = rng.permutation(6)
    mp = ModQMatrix(6, 41, m.entries[perm][:, perm])
    sp = BitMatrix(6, s.bits[perm][:, perm])
    assert np.array_equal(extract(mp, sp).bits, extract(m, s).bits[perm][:, perm])


def test_bitmatrix_validation_and_packing():
    for bad in ([[0, 2], [0, 0]], [[0, -1], [0, 0]], np.array([[256, 0], [0, 0]])):
        with pytest.raises(ValueError):
            BitMatrix(2, bad)
    with pytest.raises(DimensionMismatch):
        BitMatrix(2, [[0, 1, 0]])
    assert BitMatrix(2, [[1, 0], [0, 1]]).packed() == b"\x90"


def test_bitmatrix_non_integer_bits_are_refused_not_truncated():
    for bits in ([[0.9]], [[1.9]], np.array([[1.0]])):
        with pytest.raises(NonIntegerEntries):
            BitMatrix(1, bits)
    assert BitMatrix(1, np.array([[True]])).bits.tolist() == [[1]]
