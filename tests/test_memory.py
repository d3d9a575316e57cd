"""The malloc policy `import lsrp` applies: keep freed heap memory in the process."""
import os
import subprocess
import sys

import pytest

import lsrp

GLIBC = hasattr(lsrp._LIBC, "gnu_get_libc_version")

# Allocate three 1 MiB arrays and free them, 50 times, and print the minor page
# faults of the last 50 rounds.  glibc's default trims the 3 MiB freed at the
# heap top (its trim threshold follows the 1 MiB blocks to 2 MiB), and an
# explicit MALLOC_TRIM_THRESHOLD_ also pins the mmap threshold at 128 KiB, so
# without the policy every round faults its pages in again.
PROBE = """
import resource, lsrp, numpy as np
def churn():
    for _ in range(50):
        a, b, c = np.ones(1 << 17), np.ones(1 << 17), np.ones(1 << 17)
        del a, b, c
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
churn()
print(lsrp.KEEPS_FREED_HEAP, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def run_probe(**env_extra):
    env = {k: v for k, v in os.environ.items() if k not in lsrp._MALLOC_ENV}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(lsrp.__file__))
    env.update(env_extra)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout.split()
    return out[0] == "True", int(out[1])


@pytest.mark.skipif(not GLIBC, reason="the policy applies to glibc only")
def test_import_keeps_freed_heap_unless_the_environment_sets_malloc():
    applied, faults = run_probe()
    assert applied and faults < 100
    applied, faults = run_probe(MALLOC_TRIM_THRESHOLD_="131072")
    assert not applied and faults > 50 * 256  # at least one 1 MiB array's pages per round


def test_policy_sets_both_thresholds_on_glibc(monkeypatch):
    for name in lsrp._MALLOC_ENV:
        monkeypatch.delenv(name, raising=False)
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    libc = type("FakeGlibc", (), {"mallopt": staticmethod(mallopt),
                                  "gnu_get_libc_version": staticmethod(lambda: b"2.99")})()
    assert lsrp._keep_freed_heap(libc)
    assert calls == [(-3, 32 << 20), (-1, 32 << 20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    calls.clear()
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=0")
    assert not lsrp._keep_freed_heap(libc) and calls == []


def test_policy_tolerates_a_libc_without_mallopt_or_a_refusal(monkeypatch):
    for name in lsrp._MALLOC_ENV:
        monkeypatch.delenv(name, raising=False)
    assert not lsrp._keep_freed_heap(None)
    assert not lsrp._keep_freed_heap(type("NoMallopt", (), {})())
    refusing = type("Refusing", (), {"mallopt": staticmethod(lambda param, value: 0),
                                     "gnu_get_libc_version": staticmethod(lambda: b"2.99")})()
    assert not lsrp._keep_freed_heap(refusing)
