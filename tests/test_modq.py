import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsrp.errors import DimensionMismatch, ModulusMismatch, NonIntegerEntries
from lsrp.modq import ModQMatrix, centered


def m(q, rows):
    n = len(rows)
    return ModQMatrix(n, q, rows)


def rand_matrix(rng, n, q):
    return ModQMatrix(n, q, rng.integers(0, q, size=(n, n)))


def test_add_identity_and_wrap():
    a = m(13, [[7]])
    z = ModQMatrix.zeros(1, 13)
    assert a + z == a
    assert (m(13, [[7]]) + m(13, [[8]])).entries[0, 0] == 2  # 15 mod 13
    assert a + (z - a) == z


def test_sub_examples():
    a = m(13, [[2]])
    b = m(13, [[8]])
    assert (a - b).entries[0, 0] == 7  # -6 mod 13
    assert (a - a) == ModQMatrix.zeros(1, 13)
    rng = np.random.default_rng(0)
    x, y = rand_matrix(rng, 3, 41), rand_matrix(rng, 3, 41)
    assert (x + y) - y == x


def test_mul_hand_checked_product():
    a = m(41, [[1, 2], [3, 4]])
    b = m(41, [[5, 6], [7, 8]])
    # integer product [[19,22],[43,50]]; 43 mod 41 = 2, 50 mod 41 = 9
    assert (a @ b).entries.tolist() == [[19, 22], [2, 9]]


def test_mul_identity_and_zero():
    rng = np.random.default_rng(1)
    a = rand_matrix(rng, 4, 41)
    i = ModQMatrix(4, 41, np.eye(4, dtype=np.int64))
    z = ModQMatrix.zeros(4, 41)
    assert i @ a == a
    assert a @ i == a
    assert z @ a == z


def test_scale2():
    assert ModQMatrix.zeros(2, 13).scale2() == ModQMatrix.zeros(2, 13)
    assert m(13, [[7]]).scale2().entries[0, 0] == 1  # 14 mod 13
    rng = np.random.default_rng(2)
    a = rand_matrix(rng, 3, 41)
    assert a.scale2() == a + a


def test_centered_examples_and_bijection():
    assert centered(7, 13) == -6
    assert centered(6, 13) == 6
    assert centered(0, 13) == 0
    for q in (13, 41):
        values = [centered(x, q) for x in range(q)]
        assert sorted(values) == list(range(-(q - 1) // 2, (q - 1) // 2 + 1))
        for x in range(q):
            assert centered(x, q) % q == x


def test_inf_norm_examples():
    assert ModQMatrix.zeros(2, 13).inf_norm() == 0
    assert m(13, [[7]]).inf_norm() == 6
    assert m(41, [[1, 40], [20, 0]]).inf_norm() == 20


def test_inf_norm_subadditive_without_wrap():
    a = m(41, [[3, 2], [1, 0]])
    b = m(41, [[5, 4], [0, 7]])
    assert (a + b).inf_norm() <= a.inf_norm() + b.inf_norm()


def test_mismatch_errors():
    with pytest.raises(DimensionMismatch):
        m(13, [[1]]) + ModQMatrix.zeros(2, 13)
    with pytest.raises(ModulusMismatch):
        m(13, [[1]]) + m(17, [[1]])
    for entry in (-1, -(1 << 63), 13, (1 << 63) - 1):
        with pytest.raises(ValueError):
            ModQMatrix(2, 13, [[0, 1], [entry, 2]])


small = st.integers(min_value=0, max_value=40)


def mat_strategy(n=3, q=41):
    return st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n) \
        .map(lambda rows: ModQMatrix(n, q, rows))


@settings(max_examples=60, deadline=None)
@given(mat_strategy(), mat_strategy(), mat_strategy())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ (b + c) == a @ b + a @ c
    assert (a + b) @ c == a @ c + b @ c
    zero = ModQMatrix.zeros(3, 41)
    assert a + (zero - a) == zero


def naive_mul(a: ModQMatrix, b: ModQMatrix) -> ModQMatrix:
    """Independent big-integer triple loop."""
    n, q = a.n, a.q
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = 0
            for k in range(n):
                acc += int(a.entries[i, k]) * int(b.entries[k, j])
            out[i][j] = acc % q
    return ModQMatrix(n, q, out)


@pytest.mark.parametrize("q", [
    41,                 # one float64 pass
    (1 << 28) + 1,      # one pass at n=1, two limbs above
    4294967291,         # largest prime below 2^32: two limbs
])
def test_mul_matches_bigint_oracle(q):
    rng = np.random.default_rng(q % 2 ** 31)
    for n in (1, 2, 5, 8):
        a = ModQMatrix(n, q, rng.integers(0, q, size=(n, n)))
        b = ModQMatrix(n, q, rng.integers(0, q, size=(n, n)))
        assert a @ b == naive_mul(a, b)


@pytest.mark.parametrize("left,right,n", [
    ("gaussian", "uniform", 64),    # no bound known: canonical residues, three 15-bit limbs
    ("uniform", "gaussian", 64),    # likewise
    ("uniform", "uniform", 128),    # three 13-bit limbs
])
def test_mul_short_and_wide_operands_match_object_oracle(left, right, n):
    q = 4294967291
    rng = np.random.default_rng(64)

    def draw(kind):
        if kind == "gaussian":
            return ModQMatrix.from_signed(n, q, np.clip(np.rint(rng.normal(0, 3.0, (n, n))), -30, 30))
        return ModQMatrix(n, q, rng.integers(0, q, size=(n, n)))

    a, b = draw(left), draw(right)
    oracle = (a.entries.astype(object) @ b.entries.astype(object)) % q
    assert (a @ b).entries.tolist() == oracle.tolist()


def test_modulus_at_or_above_2_32_rejected():
    ModQMatrix(1, (1 << 32) - 1, [[5]])
    with pytest.raises(ValueError):
        ModQMatrix(1, 1 << 32, [[5]])
    with pytest.raises(ValueError):
        ModQMatrix(1, (1 << 33) + 1, [[5]])


@pytest.mark.parametrize("q", [1153, 65537, (1 << 25) - 39, (1 << 32) - 5])
def test_fold_kernels_match_the_remainder_oracle_at_edge_values(q):
    # every ordered pair of these: sums near 2q - 2, differences near -(q - 1), both sides of q/2
    vals = [0, 1, 2, (q - 1) // 2, (q + 1) // 2, q - 3, q - 2, q - 1]
    a, b = (ModQMatrix(8, q, grid) for grid in np.meshgrid(vals, vals))
    x, y = a.entries.astype(object), b.entries.astype(object)
    assert (a + b).entries.tolist() == ((x + y) % q).tolist()
    assert (a - b).entries.tolist() == ((x - y) % q).tolist()
    assert (b - a).entries.tolist() == ((y - x) % q).tolist()
    assert a.scale2().entries.tolist() == ((2 * x) % q).tolist()
    assert (ModQMatrix.zeros(8, q) - a).entries.tolist() == ((-x) % q).tolist()


def test_matrices_are_immutable():
    a = m(13, [[1]])
    with pytest.raises(ValueError):
        a.entries[0, 0] = 5


def test_non_integer_entries_are_refused_not_truncated():
    for entries in ([[1.9]], np.array([[1.0]]), [["1"]]):
        with pytest.raises(NonIntegerEntries):
            ModQMatrix(1, 7, entries)
    assert ModQMatrix(1, 7, np.array([[5]], dtype=np.uint8)).entries.tolist() == [[5]]


@pytest.mark.parametrize("q", [
    1 << 25,            # 8*(q-1)^2 < 2^53: canonical residues, no scan
    (1 << 25) + 1,      # at the bound: canonical residues times limbs
])
def test_mul_exact_with_largest_entries_at_the_canonical_bound(q):
    n = 8
    top = ModQMatrix(n, q, np.full((n, n), q - 1))
    mid = ModQMatrix(n, q, np.full((n, n), q // 2))
    for a, b in ((top, top), (top, mid), (mid, top)):
        want = (n * int(a.entries[0, 0]) * int(b.entries[0, 0])) % q
        assert (a @ b).entries.tolist() == [[want] * n] * n


@pytest.mark.parametrize("n,q", [(8, 41), (16, (1 << 25) - 39), (8, 4294967291)])
def test_kept_float_form_gives_the_same_products(n, q):
    rng = np.random.default_rng(n)
    a = rand_matrix(rng, n, q)
    kept = ModQMatrix(n, q, a.entries).keep_float_form()
    with pytest.raises(ValueError):
        kept._float[0][0, 0] = 1.0
    small = ModQMatrix.from_signed(n, q, rng.integers(-30, 31, size=(n, n)))
    for other in (small, rand_matrix(rng, n, q)):
        assert kept @ other == a @ other
        assert other @ kept == other @ a


def check_small_times_uniform(q, bound, monkeypatch):
    """A matrix that carries a bound on its centered entries (a Gaussian draw)
    is centered without a scan, and its uniform partner is not centered at all."""
    from lsrp import modq

    n = 64
    rng = np.random.default_rng(q % 2 ** 31)
    signed = rng.integers(-bound, bound + 1, size=(n, n))
    signed[0, :2] = (-bound, bound)
    g = ModQMatrix._canonical(n, q, np.asarray(signed % q, dtype=np.int64), small=bound)
    u = ModQMatrix(n, q, rng.integers(0, q, size=(n, n)))
    u_top = ModQMatrix(n, q, np.full((n, n), q - 1))
    centered_calls = []
    centered_float = modq._centered_float
    monkeypatch.setattr(modq, "_centered_float",
                        lambda e, q: centered_calls.append(e is g.entries) or centered_float(e, q))
    for a, b in ((g, u), (u, g), (g, u_top), (u_top, g)):
        oracle = (a.entries.astype(object) @ b.entries.astype(object)) % q
        assert (a @ b).entries.tolist() == oracle.tolist()
    assert centered_calls == [True] * 4


@pytest.mark.parametrize("q", [(1 << 25) - 39, 4294967291])
def test_known_small_operand_multiplies_the_other_uncentered(q, monkeypatch):
    check_small_times_uniform(q, 30, monkeypatch)


def test_known_small_operand_whose_bound_forces_limbs_matches_object_oracle(monkeypatch):
    """At n*small*(q-1) >= 2^53 the uniform partner's canonical residues are cut into limbs."""
    check_small_times_uniform(4294967291, 1 << 20, monkeypatch)


def test_wide_modulus_without_a_known_bound_multiplies_canonical_residues(monkeypatch):
    """At n*(q-1)^2 >= 2^53 a matrix whose centered entries are not known to be
    small, the basis A's kept form included, is cast as it is: never centered."""
    from lsrp import modq, srp_core
    from lsrp.params import ProtocolParams, validate

    n, q = 16, (1 << 25) - 39
    assert n * (q - 1) ** 2 >= 1 << 53
    monkeypatch.setattr(modq, "_centered_float", lambda e, q: pytest.fail("centered"))
    rng = np.random.default_rng(16)
    u = rand_matrix(rng, n, q)
    x, bound = u._float_form()
    assert bound == q - 1 and x.tolist() == u.entries.tolist()
    a = srp_core.shared_basis(validate(ProtocolParams(n=n, q=q, tau=3.0, lambda_seed=b"\x05" * 32)))
    assert a._float[1] == q - 1 and a._float[0].tolist() == a.entries.tolist()
    assert a @ u == naive_mul(a, u)


def test_sums_of_small_matrices_carry_the_sum_of_their_bounds():
    q = 1153
    a = ModQMatrix._canonical(2, q, np.array([[1, q - 3], [0, 2]]), small=3)
    b = ModQMatrix._canonical(2, q, np.array([[q - 1, q - 4], [5, 0]]), small=5)
    assert (a + b).small == 8 and (a + b).centered().tolist() == [[0, -7], [5, 2]]
    assert (a + ModQMatrix(2, q, [[1, 1], [1, 1]])).small is None
    assert (a - b).small is None and a.scale2().small is None
    wide = ModQMatrix._canonical(2, q, np.zeros((2, 2), dtype=np.int64), small=q // 2 - 2)
    assert (wide + b).small is None  # the sum could wrap past q/2
