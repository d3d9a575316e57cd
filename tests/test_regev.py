import dataclasses

import numpy as np
import pytest

from lsrp.regev import (InvalidRegevParams, RegevCiphertext, RegevParams, default_regev_params,
                        regev_decrypt, regev_encrypt, regev_keygen, round_trip_accuracy,
                        validate_regev)

SEED = b"\x05" * 32


@pytest.fixture(scope="module")
def rp():
    return default_regev_params()


@pytest.fixture(scope="module")
def keys(rp):
    return regev_keygen(rp, seed=SEED)


def test_default_params_concrete_values(rp):
    assert (rp.n, rp.m, rp.p) == (64, 320, 4099)
    assert rp.n ** 2 < rp.p < 2 * rp.n ** 2
    assert rp.tau == pytest.approx(rp.alpha * rp.p)


@pytest.mark.parametrize("bad", [
    dict(n=0),
    dict(m=321),
    dict(p=4097),        # not prime
    dict(p=4093),        # prime but below n^2
    dict(p=8209),        # prime but above 2n^2
    dict(alpha=0.0),
])
def test_validate_rejects_each_violation(rp, bad):
    with pytest.raises(InvalidRegevParams):
        validate_regev(dataclasses.replace(rp, **bad))


def test_keygen_relation_holds(keys):
    rp = keys.params
    assert keys.secret.shape == (rp.n,) and keys.pub_a.shape == (rp.m, rp.n)
    # b = A s + e mod p with the retained noise vector
    assert np.array_equal(keys.pub_b, (keys.pub_a @ keys.secret + keys.noise) % rp.p)
    assert np.abs(((keys.noise + rp.p // 2) % rp.p) - rp.p // 2).max() <= rp.tail_cutoff * rp.tau


def test_keygen_deterministic(rp):
    a = regev_keygen(rp, seed=SEED)
    b = regev_keygen(rp, seed=SEED)
    assert np.array_equal(a.secret, b.secret) and np.array_equal(a.pub_b, b.pub_b)
    c = regev_keygen(rp, seed=b"\x06" * 32)
    assert not np.array_equal(a.secret, c.secret)


def test_encrypt_zero_subset_is_transparent(keys):
    rp = keys.params
    empty = np.zeros(rp.m, dtype=np.uint8)
    c0 = regev_encrypt(keys, 0, subset=empty)
    c1 = regev_encrypt(keys, 1, subset=empty)
    assert c0.b == 0 and c1.b == rp.p // 2
    assert regev_decrypt(keys.secret, c0, rp.p) == 0
    assert regev_decrypt(keys.secret, c1, rp.p) == 1


def test_encrypt_single_row_subset(keys):
    rp = keys.params
    one = np.zeros(rp.m, dtype=np.uint8)
    one[3] = 1
    ct = regev_encrypt(keys, 0, subset=one)
    assert np.array_equal(ct.a, keys.pub_a[3] % rp.p)
    assert ct.b == int(keys.pub_b[3])


def test_encrypt_rejects_bad_bit(keys):
    with pytest.raises(ValueError):
        regev_encrypt(keys, 2, subset=np.zeros(keys.params.m, dtype=np.uint8))


def test_decrypt_threshold_boundaries():
    # secret 0: d = b exactly, so the centered distance drives the decision
    p = 4099
    s = np.zeros(4, dtype=np.int64)
    near = RegevCiphertext(a=np.zeros(4, dtype=np.int64), b=p // 4 - 1)
    far = RegevCiphertext(a=np.zeros(4, dtype=np.int64), b=p // 2)
    assert regev_decrypt(s, near, p) == 0
    assert regev_decrypt(s, far, p) == 1


def test_round_trip_exhaustive_both_bits(keys):
    rp = keys.params
    rng = np.random.default_rng(9)
    for bit in (0, 1):
        for _ in range(50):
            subset = rng.integers(0, 2, size=rp.m).astype(np.uint8)
            ct = regev_encrypt(keys, bit, subset=subset)
            assert regev_decrypt(keys.secret, ct, rp.p) == bit


def test_round_trip_accuracy_seeded(rp):
    acc = round_trip_accuracy(rp, 500, seed=SEED)
    assert acc >= 0.99
    assert acc == round_trip_accuracy(rp, 500, seed=SEED)


def test_round_trip_accuracy_rejects_bad_trials(rp):
    with pytest.raises(ValueError):
        round_trip_accuracy(rp, 0)
