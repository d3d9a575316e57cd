"""The benchmark's three closed-loop workloads, each with two callers.

handshake-n128        the callers loop over harness.run_handshake at the
                      default profile (n=128, q=65537, tau=3.0)
handshake-n256-wideq  the same loop at n=256, q=2^25-39, where every
                      product takes modq's int64 path
login-mix             the callers run cli.run_login over loopback against
                      `lsrp serve` in its own process: per round of ten,
                      8 right passwords, 1 wrong password, 1 unknown id

The workload seed drives every input (passwords, salts, per-trial seeds,
the login mix); the public lambda_seed is pinned.  cli.run_login draws
its ephemerals from OS entropy, which changes values but not work.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import logging
import os
import random
import re
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

import numpy as np

from lsrp import cli, harness, sampler, srp_core
from lsrp.credstore import CredentialStore
from lsrp.errors import LsrpError
from lsrp.params import ProtocolParams, validate

import checks
from tracing import Tracer, layer_metrics

LAMBDA_SEED = hashlib.shake_256(b"lsrp benchmark public basis").digest(32)
PROFILES = {
    "handshake-n128": (128, 65537, 3.0),
    "handshake-n256-wideq": (256, 2 ** 25 - 39, 3.0),
    "login-mix": (128, 65537, 3.0),
}
# In-process set-up takes milliseconds, so one burst of samples sees a single
# host speed state; samples before and after the timed part see two.
SETUP_SAMPLES = (6, 5)
LOGIN_SETUP_SAMPLES = 3
WARMUP_ROUNDS = 2
LOGIN_USERS = 16
CALLERS = 2  # callers in one process, each a closed loop; nproc is 2
LOGIN_ROUND = ("right",) * 8 + ("wrong", "unknown")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
SRC_DIR = os.path.abspath("src")


def seeded(seed: int, label: str, index: int = 0, length: int = 32) -> bytes:
    return hashlib.shake_256(f"lsrp-bench/{seed}/{label}/{index}".encode()).digest(length)


def profile_params(workload: str) -> ProtocolParams:
    n, q, tau = PROFILES[workload]
    return validate(ProtocolParams(n=n, q=q, tau=tau, lambda_seed=LAMBDA_SEED))


def cold_register(p: ProtocolParams, users) -> list:
    """Register users with empty table and basis caches, as a fresh process would."""
    sampler._TABLE_CACHE.clear()
    srp_core._BASIS_CACHE.clear()
    return [srp_core.register(p, cid, pw, salt=salt) for cid, pw, salt in users]


class Outcome:
    """Operation latencies and results gathered by one or more callers."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.traced: list[bool] = []
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[tuple[str, str]] = []
        self.lock = threading.Lock()

    def add(self, latency: float, traced: bool) -> None:
        with self.lock:
            self.latencies.append(latency)
            self.traced.append(traced)

    def fail(self) -> None:
        with self.lock:
            self.failed += 1

    def problem(self, text: str) -> None:
        with self.lock:
            self.problems.append(text)

    def digest(self, client_id: bytes, key_digest: str) -> None:
        with self.lock:
            self.digests.append((client_id.hex(), key_digest))


def closed_loop(callers: int, run_round, tracer: Tracer | None = None,
                seconds: float = float("inf"), rounds: int | None = None):
    """Each caller runs whole rounds until `seconds` have passed or it has run `rounds`.

    run_round(caller, round_index, op, outcome) runs one round, where
    op(fn, *args) times one operation and returns fn's result.  In a traced
    run every other round is traced, so the untraced rounds give the
    tracing overhead.  Returns the outcome and the wall time.
    """
    outcome = Outcome()
    op_ids = itertools.count()
    gate = threading.Barrier(callers)
    start = [0.0]
    errors: list[BaseException] = []

    def caller(c: int) -> None:
        try:
            if gate.wait() == 0:
                start[0] = time.perf_counter()
            gate.wait()
            r = 0
            while (r < rounds if rounds is not None
                   else time.perf_counter() - start[0] < seconds):
                traced = tracer is not None and r % 2 == 0

                def op(fn, *args, traced=traced):
                    t0 = time.perf_counter()
                    out = tracer.run_op(next(op_ids), fn, *args) if traced else fn(*args)
                    outcome.add(time.perf_counter() - t0, traced)
                    return out
                run_round(c, r, op, outcome)
                r += 1
        except BaseException as exc:  # re-raised in the calling thread below
            errors.append(exc)
            gate.abort()

    threads = [threading.Thread(target=caller, args=(c,)) for c in range(callers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return outcome, time.perf_counter() - start[0]


def summarize(outcome: Outcome, wall: float, cpu_s: float, setup_s: list[float],
              peak_rss_mb: float) -> dict:
    lat_ms = np.array(outcome.latencies) * 1e3
    n = len(lat_ms)
    return {
        "latency_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "latency_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
        "throughput_per_s": (n / wall, "1/s"),
        "cpu_ms_per_op": (cpu_s * 1e3 / n, "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def trace_summary(outcome: Outcome, tracer: Tracer, name: str) -> dict:
    lat = np.array(outcome.latencies)
    traced = np.array(outcome.traced)
    n_traced = int(traced.sum())
    metrics = {k: (v, _layer_unit(k)) for k, v in layer_metrics(tracer.spans, n_traced).items()}
    overhead = float(lat[traced].mean() / lat[~traced].mean() - 1) * 100
    metrics["trace.overhead_pct"] = (overhead, "%")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(RESULTS_DIR, f"{name}-spans.csv"))
    return metrics


def _layer_unit(name: str) -> str:
    if name.endswith("bytes_per_op"):
        return "B"
    if name.endswith("calls_per_op"):
        return "count"
    return "ms"


def run_checks(outcome: Outcome, p: ProtocolParams, user, record, seed: int) -> None:
    """Per-run checks against computations made apart from the program."""
    try:
        _run_checks(p, user, record, seed)
    except checks.CheckFailed as exc:
        outcome.problem(str(exc))


def _run_checks(p: ProtocolParams, user, record, seed: int) -> None:
    cid, pw, salt = user
    s_i, e_i = srp_core.registration_matrices(p, sampler.derive_registration_seed(cid, salt, pw))
    checks.check_verifier(record.verifier.entries, s_i.entries, e_i.entries,
                          srp_core.shared_basis(p).entries, p.q)
    client, server, confirmed = harness.run_handshake(
        p, record, cid, pw, seeded(seed, "checked-client"), seeded(seed, "checked-server"),
        keep_material=True)
    checks.check_agreement(client.session_key, server.session_key, confirmed)
    checks.check_noise(client.key_material.entries, server.key_material.entries, p.q)
    for key in (client.session_key, server.session_key):
        checks.check_session_key(key, server.key_material.entries, server.sigma.bits,
                                 p.q, p.lambda_seed)


# -- in-process handshakes -------------------------------------------------

def handshake_workload(workload: str, seed: int, seconds: float, tracer: Tracer | None):
    p = profile_params(workload)
    user = (b"bench-user", seeded(seed, "password", 0, 12).hex().encode(),
            seeded(seed, "salt", 0, p.salt_len))
    cid, pw, _ = user

    setup_s: list[float] = []

    def set_up(samples: int):
        for _ in range(samples):
            t0 = time.perf_counter()
            [rec] = cold_register(p, [user])
            setup_s.append(time.perf_counter() - t0)
        return rec

    if tracer:
        [record] = tracer.run_setup(cold_register, p, [user])
    else:
        record = set_up(SETUP_SAMPLES[0])

    def run_round(c, r, op, outcome, label="trial"):
        client, server, confirmed = op(harness.run_handshake, p, record, cid, pw,
                                       seeded(seed, f"{label}-client-{c}", r),
                                       seeded(seed, f"{label}-server-{c}", r))
        try:
            checks.check_agreement(client.session_key, server.session_key, confirmed)
        except checks.CheckFailed:
            outcome.fail()

    closed_loop(CALLERS, functools.partial(run_round, label="warmup"), rounds=WARMUP_ROUNDS)
    cpu0 = time.process_time()
    outcome, wall = closed_loop(CALLERS, run_round, tracer, seconds)
    cpu_s = time.process_time() - cpu0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run_checks(outcome, p, user, record, seed)
    if tracer:
        return outcome, trace_summary(outcome, tracer, f"{workload}-seed{seed}")
    set_up(SETUP_SAMPLES[1])
    return outcome, summarize(outcome, wall, cpu_s, setup_s, peak_mb)


# -- loopback logins -------------------------------------------------------

LISTENING = re.compile(r"listening on [\d.]+:(\d+)")
AUTH_OK = re.compile(r"auth ok id=(\w+) key-digest=(\w+)")


class ServeProcess:
    """`lsrp serve` in its own process, its log drained by a reader thread."""

    def __init__(self, store_path: str, lambda_seed: bytes) -> None:
        cmd = [sys.executable, "-m", "lsrp.cli", "serve", "--store", store_path,
               "--listen", "127.0.0.1:0", "--lambda-seed", lambda_seed.hex()]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True,
                                     env=dict(os.environ, PYTHONPATH=SRC_DIR))
        self.lines: list[str] = []
        self.port: int | None = None
        self._listening = threading.Event()
        self._reader = threading.Thread(target=self._drain)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self.lines.append(line)
            m = LISTENING.search(line)
            if m:
                self.port = int(m.group(1))
                self._listening.set()
        self._listening.set()

    def wait_accepting(self, timeout: float = 60) -> tuple[str, int]:
        if not self._listening.wait(timeout) or self.port is None:
            raise RuntimeError("lsrp serve did not start:\n" + "".join(self.lines[-20:]))
        addr = ("127.0.0.1", self.port)
        socket.create_connection(addr, timeout=timeout).close()
        return addr

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in server status")

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join()
        self.proc.stderr.close()


class ThreadServer:
    """cli.LsrpServer in a thread of this process, so the tracer sees its calls."""

    def __init__(self, p: ProtocolParams, store: CredentialStore, lines: list[str]) -> None:
        self.lines = lines
        self.server = cli.LsrpServer(("127.0.0.1", 0), p, store)
        self._thread = threading.Thread(target=self.server.serve_forever)
        self._thread.start()

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join()


class _LogLines(logging.Handler):
    def __init__(self, lines: list[str]) -> None:
        super().__init__(logging.INFO)
        self.lines = lines

    def emit(self, record: logging.LogRecord) -> None:
        self.lines.append(record.getMessage())


def check_server_keys(server, outcomes: list[Outcome], timeout: float = 5) -> None:
    """Every login the client accepted must match a server `auth ok` line with the same key digest."""
    client = Counter(d for o in outcomes for d in o.digests)
    deadline = time.monotonic() + timeout
    while True:
        logged = Counter(m for line in list(server.lines) for m in AUTH_OK.findall(line))
        if logged == client or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if logged != client:
        raise checks.CheckFailed(f"server accepted {sum(logged.values())} logins, client "
                                 f"{sum(client.values())}, or their key digests differ")


def login_workload(seed: int, seconds: float, tracer: Tracer | None):
    p = profile_params("login-mix")
    users = [(f"user-{k:02d}".encode(), seeded(seed, "password", k, 12).hex().encode(),
              seeded(seed, "salt", k, p.salt_len)) for k in range(LOGIN_USERS)]
    store_dir = os.path.join(RESULTS_DIR, "stores")
    shutil.rmtree(store_dir, ignore_errors=True)
    os.makedirs(store_dir)
    log = logging.getLogger("lsrp")
    servers = []
    try:
        setup_s = []
        if tracer:
            lines: list[str] = []
            log.setLevel(logging.INFO)
            log.addHandler(_LogLines(lines))
            path = os.path.join(store_dir, "store.db")
            store = CredentialStore.open(path, p)
            for record in tracer.run_setup(cold_register, p, users):
                tracer.run_setup(store.put, record)
            servers.append(ThreadServer(p, tracer.run_setup(CredentialStore.open, path, p), lines))
            addr = servers[-1].server.server_address[:2]
        else:
            log.addHandler(logging.NullHandler())
            for k in range(LOGIN_SETUP_SAMPLES):
                if servers:
                    servers.pop().stop()
                t0 = time.perf_counter()
                path = os.path.join(store_dir, f"store-{k}.db")
                store = CredentialStore.open(path, p)
                for record in cold_register(p, users):
                    store.put(record)
                servers.append(ServeProcess(path, p.lambda_seed))
                addr = servers[-1].wait_accepting()
                setup_s.append(time.perf_counter() - t0)
        server = servers[-1]

        def login(cid, pw):
            try:
                return cli.run_login(p, cid, pw, addr)
            except (LsrpError, OSError):
                return -1, None

        mixes = [random.Random(seeded(seed, "mix", c)) for c in range(CALLERS)]

        def run_round(c, r, op, outcome):
            rng = mixes[c]
            kinds = list(LOGIN_ROUND)
            rng.shuffle(kinds)
            for kind in kinds:
                cid, pw, _ = users[rng.randrange(LOGIN_USERS)]
                if kind == "unknown":
                    cid = f"nobody-{c}-{r}-{rng.randrange(10 ** 6)}".encode()
                elif kind == "wrong":
                    pw = pw + b"!"
                code, digest = op(login, cid, pw)
                if kind != "right":
                    try:
                        checks.check_rejected(code, cli.EXIT_AUTH_FAILED)
                    except checks.CheckFailed as exc:
                        outcome.problem(f"{kind} login: {exc}")
                elif code == cli.EXIT_OK:
                    outcome.digest(cid, digest)
                else:
                    outcome.fail()

        warm, _ = closed_loop(CALLERS, run_round, rounds=1)
        cpu0 = time.process_time() + (0 if tracer else server.cpu_s())
        outcome, wall = closed_loop(CALLERS, run_round, tracer, seconds)
        cpu_s = time.process_time() + (0 if tracer else server.cpu_s()) - cpu0
        peak_mb = 0.0 if tracer else server.peak_rss_mb()
        outcome.problems += warm.problems
        try:
            check_server_keys(server, [warm, outcome])
        except checks.CheckFailed as exc:
            outcome.problem(str(exc))
    finally:
        for s in servers:
            s.stop()
        shutil.rmtree(store_dir, ignore_errors=True)
    run_checks(outcome, p, users[0], store.get(users[0][0]), seed)
    if tracer:
        return outcome, trace_summary(outcome, tracer, f"login-mix-seed{seed}")
    return outcome, summarize(outcome, wall, cpu_s, setup_s, peak_mb)
