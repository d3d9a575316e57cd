"""Single-bit LWE public-key encryption, used to exercise the sampling
and decoding machinery end to end.

Keygen publishes m noisy inner products (a_i, b_i = <a_i, s> + e_i mod p);
encryption sums a random subset and adds floor(p/2) for a 1 bit;
decryption checks whether b - <a, s> is closer to 0 than to floor(p/2).
Noise is drawn from the same truncated integer Gaussian used by the
protocol (parameter alpha*p) rather than a rounded continuous
distribution; at validation scale the two are interchangeable.
"""
from __future__ import annotations

import math
import secrets
from dataclasses import dataclass, field

import numpy as np

from .errors import LsrpError
from .modq import centered
from .sampler import GaussianTable, StreamExpander, gaussian_ints, uniform_ints


class InvalidRegevParams(LsrpError, ValueError):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class RegevParams:
    n: int
    m: int
    p: int
    alpha: float

    @property
    def tau(self) -> float:
        return self.alpha * self.p


def validate_regev(rp: RegevParams) -> RegevParams:
    if rp.n < 1:
        raise InvalidRegevParams(f"dimension must be positive, got {rp.n}")
    if rp.m != 5 * rp.n:
        raise InvalidRegevParams(f"m must equal 5n, got m={rp.m}, n={rp.n}")
    if not _is_prime(rp.p):
        raise InvalidRegevParams(f"p={rp.p} is not prime")
    if not (rp.n ** 2 < rp.p < 2 * rp.n ** 2):
        raise InvalidRegevParams(f"p={rp.p} outside (n^2, 2n^2) = ({rp.n ** 2}, {2 * rp.n ** 2})")
    if rp.alpha <= 0 or rp.tau <= 0:
        raise InvalidRegevParams(f"alpha must be positive, got {rp.alpha}")
    return rp


def default_regev_params(n: int = 64) -> RegevParams:
    """Test-scale parameters; alpha = 1/(sqrt(n) * (log2 n)^2) as a concrete
    stand-in for the asymptotic smallness condition."""
    p = n * n + 1
    while not _is_prime(p):
        p += 2 if p % 2 else 1
    alpha = 1.0 / (math.sqrt(n) * math.log2(n) ** 2)
    return validate_regev(RegevParams(n=n, m=5 * n, p=p, alpha=alpha))


@dataclass
class RegevKeys:
    params: RegevParams
    secret: np.ndarray           # length n over Z_p
    pub_a: np.ndarray            # m x n over Z_p
    pub_b: np.ndarray            # length m over Z_p
    noise: np.ndarray = field(repr=False, default=None)  # retained for per-trial certification


@dataclass(frozen=True)
class RegevCiphertext:
    a: np.ndarray  # length n over Z_p
    b: int


def _expander(seed: bytes | None, tag: bytes) -> StreamExpander:
    return StreamExpander(tag, seed if seed is not None else secrets.token_bytes(32))


def regev_keygen(rp: RegevParams, seed: bytes | None = None) -> RegevKeys:
    validate_regev(rp)
    exp = _expander(seed, b"LSRP-regev-keygen")
    table = GaussianTable.build(rp.tau)
    secret = uniform_ints(exp, rp.n, rp.p)
    pub_a = uniform_ints(exp, rp.m * rp.n, rp.p).reshape(rp.m, rp.n)
    noise = gaussian_ints(exp, rp.m, table)
    pub_b = (pub_a @ secret + noise) % rp.p
    return RegevKeys(params=rp, secret=secret, pub_a=pub_a, pub_b=pub_b, noise=noise)


def regev_encrypt(keys: RegevKeys, bit: int, subset: np.ndarray) -> RegevCiphertext:
    """Encrypt one bit over the rows that the 0/1 indicator vector `subset` selects."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    rp = keys.params
    mask = np.asarray(subset, dtype=bool)
    a = keys.pub_a[mask].sum(axis=0) % rp.p
    b = (int(keys.pub_b[mask].sum()) + bit * (rp.p // 2)) % rp.p
    return RegevCiphertext(a=a.astype(np.int64), b=b)


def regev_decrypt(secret: np.ndarray, c: RegevCiphertext, p: int) -> int:
    """0 iff b - <a, s> is within p/4 of zero mod p."""
    d = (c.b - int(c.a @ secret)) % p
    return 0 if abs(centered(d, p)) < p / 4 else 1


def round_trip_accuracy(rp: RegevParams, trials: int, seed: bytes | None = None) -> float:
    """Fraction of random bits surviving encrypt/decrypt with one key pair."""
    if trials < 1:
        raise ValueError("trials must be positive")
    exp = _expander(seed, b"LSRP-regev-trials")
    keys = regev_keygen(rp, seed=exp.read(32))
    bits = exp.read_bits(trials)
    ok = 0
    for bit in bits:
        ct = regev_encrypt(keys, int(bit), subset=exp.read_bits(rp.m))
        ok += regev_decrypt(keys.secret, ct, rp.p) == int(bit)
    return ok / trials
