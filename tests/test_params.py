import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsrp.params import (DEFAULT_LAMBDA_SEED, MAX_N, SALT_LEN, TAIL_CUTOFF, EvenModulus,
                         ModulusTooLarge, ModulusTooSmall, ParamError, ProtocolParams,
                         ToleranceViolated, default_params, validate)

LAMBDA = b"\x01" * 32


def mk(**kw):
    base = dict(n=128, q=65537, tau=3.0, lambda_seed=LAMBDA)
    base.update(kw)
    return ProtocolParams(**base)


def test_default_profile_validates():
    p = mk()
    assert validate(p) is p
    # 12 * 9 * 128 = 13824 <= 65537//4 - 2 = 16382
    assert p.noise_bound == 13824
    assert p.tolerance == 16382
    assert p.salt_len == SALT_LEN == 16


def test_even_modulus_rejected():
    with pytest.raises(EvenModulus):
        validate(mk(q=65536))


def test_tolerance_violation_rejected():
    # 13824 > 12289//4 - 2 = 3070
    with pytest.raises(ToleranceViolated):
        validate(mk(q=12289))


def test_small_modulus_rejected():
    with pytest.raises(ModulusTooSmall):
        validate(mk(q=7, tau=0.1))


def test_modulus_at_or_above_2_32_rejected():
    validate(mk(q=4294967291))
    with pytest.raises(ModulusTooLarge):
        validate(mk(q=(1 << 33) + 1))
    with pytest.raises(ModulusTooLarge):
        validate(mk(q=(1 << 32) + 1))


def test_default_seed_is_fixed_public_constant():
    assert default_params().lambda_seed == DEFAULT_LAMBDA_SEED


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, MAX_N), q=st.integers(4, (1 << 31) - 1).map(lambda k: 2 * k + 1),
       tau=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), at_bound=st.booleans())
@example(n=1, q=13, tau=1.0, at_bound=True)
@example(n=2, q=41, tau=2.5, at_bound=False)
def test_every_admitted_set_keeps_the_gaussian_support_below_half_q(n, q, tau, at_bound):
    """The agreement bound alone keeps TAIL_CUTOFF * tau below q/2 (q odd, 9 <= q < 2^32)."""
    if at_bound:  # the largest tau the bound admits, give or take a rounding
        tau = math.sqrt((q // 4 - 2) / (12 * n))
    try:
        p = validate(mk(n=n, q=q, tau=tau))
    except ParamError:  # not admitted (at q < 13 no tau is)
        return
    assert TAIL_CUTOFF * p.tau < p.q / 2


def test_dimension_above_max_n_rejected():
    # q = 2^31 - 1, tau = 1 meet every other invariant at both sizes
    validate(mk(n=MAX_N, q=(1 << 31) - 1, tau=1.0))
    with pytest.raises(ParamError, match="dimension"):
        validate(mk(n=MAX_N + 1, q=(1 << 31) - 1, tau=1.0))


@pytest.mark.parametrize("field,value,exc", [
    ("n", 0, ParamError),
    ("tau", -1.0, ParamError),
    ("tau", float("nan"), ParamError),
    ("tau", float("inf"), ParamError),
    ("lambda_seed", b"\x01" * 31, ParamError),
])
def test_each_invariant_rejected_independently(field, value, exc):
    with pytest.raises(exc):
        validate(mk(**{field: value}))


def test_toy_profile_needs_unsafe_flag():
    toy = mk(n=2, q=41, tau=1.0)
    # 12 * 1 * 2 = 24 > 41//4 - 2 = 8: bound not guaranteed
    with pytest.raises(ToleranceViolated):
        validate(toy)


def test_toy_profile_with_larger_modulus_is_safe():
    # 24 <= 1153//4 - 2 = 286
    validate(mk(n=2, q=1153, tau=1.0))


def test_default_params_idempotent_modulo_lambda():
    a = default_params(LAMBDA)
    b = default_params(LAMBDA)
    assert a == b
    c = default_params()
    assert dataclasses.replace(c, lambda_seed=LAMBDA) == a

