import dataclasses

import pytest

from lsrp.errors import InvalidTrialCount
from lsrp.harness import (MAX_VIOLATIONS, lemma_violations, signal_range_max, simulate,
                          stolen_verifier_attempt)
from lsrp.params import EvenModulus, ModulusTooSmall
from lsrp.srp_core import register

SEED = b"\x0c" * 32
SALT = b"\x00" * 16


def test_simulate_all_agree(toy):
    report = simulate(toy, 25, master_seed=SEED)
    assert report.agreements == report.trials == 25
    assert report.max_noise_inf_norm is None
    assert report.wrong_password_mismatches is None


def test_simulate_reproducible_modulo_runtime(toy):
    a = simulate(toy, 10, instrument=True, master_seed=SEED)
    b = simulate(toy, 10, instrument=True, master_seed=SEED)
    assert dataclasses.replace(a, runtime=0.0) == dataclasses.replace(b, runtime=0.0)
    c = simulate(toy, 10, instrument=True, master_seed=b"\x0d" * 32)
    assert c.agreements == 10  # different entropy, same verdict


def test_simulate_instrumented_bounds(toy):
    report = simulate(toy, 25, instrument=True, master_seed=SEED)
    assert report.max_noise_inf_norm is not None
    assert report.max_noise_inf_norm <= report.tolerance_bound
    assert report.analytic_bound == int(toy.noise_bound)
    assert report.tolerance_bound == toy.tolerance


def test_simulate_wrong_password_all_mismatch(toy):
    report = simulate(toy, 25, wrong_password=True, master_seed=SEED)
    assert report.agreements == 0
    assert report.wrong_password_mismatches == 25


def test_simulate_rejects_bad_trial_count(toy):
    with pytest.raises(InvalidTrialCount):
        simulate(toy, 0)


def test_stolen_verifier_attempts_fail(toy):
    record = register(toy, b"alice", b"pw", salt=SALT)
    for strategy in ("random", "zero"):
        for i in range(25):
            assert not stolen_verifier_attempt(toy, record, strategy, bytes([i]) * 32)


def test_stolen_verifier_unknown_strategy(toy):
    record = register(toy, b"alice", b"pw", salt=SALT)
    with pytest.raises(ValueError):
        stolen_verifier_attempt(toy, record, "replay", SEED)


def test_lemma_violations_clean_at_stated_tolerance():
    for q in (13, 41, 101):
        assert lemma_violations(q) == []


def test_lemma_violations_negative_control():
    # pushing the offset bound past floor(q/4) - 1 must produce failures
    bad = lemma_violations(41, tolerance=41 // 4 + 2)
    assert bad
    y, b, d, tol = bad[0]
    assert 0 <= y < 41 and b in (0, 1) and d % 2 == 0 and tol == 41 // 4 + 2


def test_lemma_violations_input_checks():
    with pytest.raises(EvenModulus):
        lemma_violations(40)
    with pytest.raises(ModulusTooSmall):
        lemma_violations(7)


def test_lemma_violations_report_cap():
    assert MAX_VIOLATIONS == 20
    assert len(lemma_violations(41, tolerance=20)) == MAX_VIOLATIONS


def test_signal_range_max_bound():
    for q in (13, 41, 101, 1153):
        assert signal_range_max(q) <= q // 4 + 1
