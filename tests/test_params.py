import dataclasses

import pytest

from lsrp.params import (DEFAULT_LAMBDA_SEED, MAX_N, SALT_LEN, CutoffTooLarge, EvenModulus,
                         ModulusTooLarge, ModulusTooSmall, ParamError, ProtocolParams,
                         ToleranceViolated, default_params, params_from_config, parse_config,
                         validate)

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
    assert params_from_config("").lambda_seed == DEFAULT_LAMBDA_SEED
    assert params_from_config("n = 16\nq = 12289\ntau = 1.0\n").lambda_seed == DEFAULT_LAMBDA_SEED


def test_cutoff_too_large_rejected():
    # TAIL_CUTOFF * tau = 25 >= 41/2
    with pytest.raises(CutoffTooLarge):
        validate(mk(n=2, q=41, tau=2.5), allow_unsafe=True)


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
    assert validate(toy, allow_unsafe=True) is toy


def test_toy_profile_with_larger_modulus_is_safe():
    # 24 <= 1153//4 - 2 = 286
    validate(mk(n=2, q=1153, tau=1.0))


def test_default_params_idempotent_modulo_lambda():
    a = default_params(LAMBDA)
    b = default_params(LAMBDA)
    assert a == b
    c = default_params()
    assert dataclasses.replace(c, lambda_seed=LAMBDA) == a


def test_config_round_trip():
    text = """
    # demo profile
    n = 16
    q = 12289
    tau = 1.0
    lambda_seed = {}
    """.format(LAMBDA.hex())
    p = params_from_config(text)
    assert (p.n, p.q, p.tau) == (16, 12289, 1.0)
    assert p.lambda_seed == LAMBDA


def test_config_cli_overrides_win():
    p = params_from_config("n = 16\nq = 12289\ntau = 1.0",
                           overrides={"n": 32, "tau": None, "lambda_seed": LAMBDA})
    assert p.n == 32 and p.tau == 1.0


def test_config_rejects_unknown_key_and_bad_hex():
    with pytest.raises(ParamError):
        parse_config("bogus = 1")
    with pytest.raises(ParamError):
        parse_config("lambda_seed = zz")
    with pytest.raises(ParamError):
        parse_config("n 12")
    with pytest.raises(ParamError, match="line 2"):
        parse_config("q = 1153\nn = abc")
    with pytest.raises(ParamError, match="tau"):
        parse_config("tau = x")

    # the tail cutoff and the salt length are constants, not keys
    for line in ("tail_cutoff = 10", "salt_len = 16"):
        with pytest.raises(ParamError, match="unknown key"):
            parse_config(line)
