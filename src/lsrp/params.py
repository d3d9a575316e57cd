"""Protocol parameter set governing every other module.

A parameter set fixes the matrix dimension n (at most MAX_N, so that a
Challenge fits `wire.MAX_BODY`), the odd modulus q, the discrete Gaussian
parameter tau and the public 32-byte basis seed.  The Gaussian tail cutoff
and the salt length are constants, not parameters: the client must rebuild
V from tau and the salt bit for bit, and a decoy's salt must look like a
real one.  The correctness condition
12*(tau*sqrt(n))**2 <= q/4 - 2 ties tau and n to q, and `validate` admits
no set that violates it (a tiny oracle modulus needs a `ProtocolParams`
built directly).  q lies below 2^32 (`modq.Q_LIMIT`).  Every
`lsrp` command runs `default_params`; with no seed given, it uses the
nothing-up-my-sleeve `DEFAULT_LAMBDA_SEED`.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .errors import LsrpError
from .modq import Q_LIMIT

LAMBDA_LEN = 32
TAIL_CUTOFF = 10  # Gaussian support is |x| <= TAIL_CUTOFF * tau
SALT_LEN = 16
MAX_N = 4033  # largest n whose Challenge, 4n^2 + ceil(n^2/8) + 36 bytes, fits wire.MAX_BODY
DEFAULT_LAMBDA_SEED = hashlib.shake_256(b"LSRP default public basis").digest(LAMBDA_LEN)


class ParamError(LsrpError, ValueError):
    pass


class EvenModulus(ParamError):
    pass


class ModulusTooSmall(ParamError):
    pass


class ModulusTooLarge(ParamError):
    pass


class ToleranceViolated(ParamError):
    pass


@dataclass(frozen=True)
class ProtocolParams:
    n: int
    q: int
    tau: float
    lambda_seed: bytes

    @property
    def salt_len(self) -> int:
        """SALT_LEN; kept only for the benchmark scripts, which read `p.salt_len`."""
        return SALT_LEN

    @property
    def tolerance(self) -> int:
        """Reconciliation error tolerance floor(q/4) - 2."""
        return self.q // 4 - 2

    @property
    def noise_bound(self) -> float:
        """Analytic bound 12*(tau*sqrt(n))**2 on the key-material gap."""
        return 12.0 * self.tau * self.tau * self.n


def validate(p: ProtocolParams) -> ProtocolParams:
    """Check every parameter invariant; returns p unchanged on success.

    The correctness condition also keeps the Gaussian support inside
    (-q/2, q/2): 12*tau^2*n <= q/4 gives (TAIL_CUTOFF*tau)^2 < 100*q/48,
    which is below (q/2)^2 for every q > 8.
    """
    if not 1 <= p.n <= MAX_N:
        raise ParamError(f"dimension must lie in [1, {MAX_N}], got {p.n}")
    if not math.isfinite(p.tau) or p.tau <= 0:
        raise ParamError(f"tau must be positive and finite, got {p.tau}")
    if len(p.lambda_seed) != LAMBDA_LEN:
        raise ParamError(f"lambda_seed must be {LAMBDA_LEN} bytes, got {len(p.lambda_seed)}")
    if p.q % 2 == 0:
        raise EvenModulus(f"modulus must be odd, got {p.q}")
    if p.q <= 8 or p.tolerance <= 0:
        raise ModulusTooSmall(f"modulus too small: q={p.q}")
    if p.q >= Q_LIMIT:
        raise ModulusTooLarge(f"modulus {p.q} not below 2^32")
    if p.noise_bound > p.tolerance:
        raise ToleranceViolated(
            f"12*tau^2*n = {p.noise_bound:g} exceeds floor(q/4)-2 = {p.tolerance}"
        )
    return p


def default_params(lambda_seed: bytes = DEFAULT_LAMBDA_SEED) -> ProtocolParams:
    """Demonstration parameters; not a claim of any production security level.

    n=128, q=65537, tau=3.0 keep the correctness condition satisfied with
    margin (13824 <= 16382) while an n^3 multiply stays in the millisecond
    range.
    """
    return validate(ProtocolParams(n=128, q=65537, tau=3.0, lambda_seed=lambda_seed))
