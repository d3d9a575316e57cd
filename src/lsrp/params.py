"""Protocol parameter set governing every other module.

A parameter set fixes the matrix dimension n, the odd modulus q, the
discrete Gaussian parameter tau, the public 32-byte basis seed, the
Gaussian tail cutoff and the salt length.  The correctness condition
12*(tau*sqrt(n))**2 <= q/4 - 2 ties tau and n to q; parameter sets that
violate it are admitted only through an explicit unsafe flag (needed for
exhaustive small-q oracle tests).  q lies below 2^32 (`modq.Q_LIMIT`).  With no
seed given, every command uses the nothing-up-my-sleeve `DEFAULT_LAMBDA_SEED`.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

from .errors import LsrpError
from .modq import Q_LIMIT

LAMBDA_LEN = 32
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


class CutoffTooLarge(ParamError):
    pass


@dataclass(frozen=True)
class ProtocolParams:
    n: int
    q: int
    tau: float
    lambda_seed: bytes
    tail_cutoff: int = 10
    salt_len: int = 16

    @property
    def tolerance(self) -> int:
        """Reconciliation error tolerance floor(q/4) - 2."""
        return self.q // 4 - 2

    @property
    def noise_bound(self) -> float:
        """Analytic bound 12*(tau*sqrt(n))**2 on the key-material gap."""
        return 12.0 * self.tau * self.tau * self.n


def validate(p: ProtocolParams, allow_unsafe: bool = False) -> ProtocolParams:
    """Check every parameter invariant; returns p unchanged on success.

    With allow_unsafe=True the correctness condition on tau may be
    violated (agreement is then not guaranteed); everything structural is
    still enforced.
    """
    if p.n < 1:
        raise ParamError(f"dimension must be positive, got {p.n}")
    if not math.isfinite(p.tau) or p.tau <= 0:
        raise ParamError(f"tau must be positive and finite, got {p.tau}")
    if p.tail_cutoff < 1:
        raise ParamError(f"tail_cutoff must be positive, got {p.tail_cutoff}")
    if p.salt_len < 1:
        raise ParamError(f"salt_len must be positive, got {p.salt_len}")
    if len(p.lambda_seed) != LAMBDA_LEN:
        raise ParamError(f"lambda_seed must be {LAMBDA_LEN} bytes, got {len(p.lambda_seed)}")
    if p.q % 2 == 0:
        raise EvenModulus(f"modulus must be odd, got {p.q}")
    if p.q <= 8 or p.tolerance <= 0:
        raise ModulusTooSmall(f"modulus too small: q={p.q}")
    if p.q >= Q_LIMIT:
        raise ModulusTooLarge(f"modulus {p.q} not below 2^32")
    if not allow_unsafe and p.noise_bound > p.tolerance:
        raise ToleranceViolated(
            f"12*tau^2*n = {p.noise_bound:g} exceeds floor(q/4)-2 = {p.tolerance}"
        )
    if p.tail_cutoff * p.tau >= p.q / 2:
        raise CutoffTooLarge(
            f"tail_cutoff*tau = {p.tail_cutoff * p.tau:g} not below q/2 = {p.q / 2:g}"
        )
    return p


def default_params(lambda_seed: bytes = DEFAULT_LAMBDA_SEED) -> ProtocolParams:
    """Demonstration parameters; not a claim of any production security level.

    n=128, q=65537, tau=3.0 keep the correctness condition satisfied with
    margin (13824 <= 16382) while an n^3 multiply stays in the millisecond
    range.
    """
    return validate(ProtocolParams(n=128, q=65537, tau=3.0, lambda_seed=lambda_seed))


_CONFIG_KEYS = {"n", "q", "tau", "tail_cutoff", "salt_len", "lambda_seed"}


def parse_config(text: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment; unknown keys rejected."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParamError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ParamError(f"config line {lineno}: unknown key {key!r}")
        convert = {"lambda_seed": bytes.fromhex, "tau": float}.get(key, int)
        try:
            out[key] = convert(value)
        except ValueError as exc:
            raise ParamError(f"config line {lineno}: bad value {value!r} for {key}") from exc
    return out


def params_from_config(text: str, overrides: dict | None = None,
                       allow_unsafe: bool = False) -> ProtocolParams:
    """Build ProtocolParams from a config file body plus CLI overrides."""
    fields = parse_config(text)
    if overrides:
        fields.update({k: v for k, v in overrides.items() if v is not None})
    return validate(replace(default_params(), **fields), allow_unsafe=allow_unsafe)
