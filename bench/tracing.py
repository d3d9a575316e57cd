"""Span tracing of lsrp's public calls, wrapped from outside the package.

`Tracer.install` replaces each listed function or method with a wrapper
that records a span (id, parent, operation id, name, start, end, bytes
returned) whenever the calling thread is inside a traced operation, and
otherwise calls straight through.  Spans stay in memory until
`write_spans` at the end of the run.  Nothing under `src/lsrp` changes.

A connection's server-side handler learns its operation id from the
client's local port, which the wrapped `socket.create_connection`
records, so a login's client and server spans share one id.
"""
from __future__ import annotations

import functools
import itertools
import select
import socket
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

SETUP_OP = -1
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._op_by_port: dict[int, int] = {}
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------

    def _record(self, name, fn, args, kwargs, count_bytes=False, start=None):
        local = self._local
        stack = local.stack
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        nbytes = 0
        if start is None:
            start = time.perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
            if count_bytes:
                nbytes = len(out)
            return out
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, local.op, name, start, end, nbytes))

    def _wrap(self, name, fn, count_bytes=False):
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if getattr(local, "op", None) is None:
                return fn(*args, **kwargs)
            return self._record(name, fn, args, kwargs, count_bytes)
        return traced

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as operation op_id, under a root span."""
        local = self._local
        local.op, local.stack = op_id, []
        try:
            return self._record(OP_SPAN, fn, args, {})
        finally:
            local.op = None

    def run_setup(self, fn, *args):
        """Call fn(*args) with its spans attributed to set-up."""
        local = self._local
        local.op, local.stack = SETUP_OP, []
        try:
            return fn(*args)
        finally:
            local.op = None

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_method(self, cls, attr, name, count_bytes=False) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
        else:
            self._patch(cls, attr, self._wrap(name, raw, count_bytes))

    def _patch_function(self, fn, name, count_bytes=False) -> None:
        """Replace fn wherever an lsrp module holds it, including names imported elsewhere."""
        wrapped = self._wrap(name, fn, count_bytes)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "lsrp" or mod_name.startswith("lsrp."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapped)

    def install(self) -> None:
        from lsrp import cli, credstore, harness, modq, reconcile, sampler, srp_core, wire

        for cls, attr, name, count_bytes in [
            (sampler.StreamExpander, "read", "sampler.expander_read", True),
            (sampler.GaussianTable, "sample", "sampler.cdt_lookup", False),
            (modq.ModQMatrix, "__matmul__", "modq.matmul", False),
            (modq.ModQMatrix, "__add__", "modq.elementwise", False),
            (modq.ModQMatrix, "__sub__", "modq.elementwise", False),
            (modq.ModQMatrix, "scale2", "modq.elementwise", False),
            (modq.ModQMatrix, "from_signed", "modq.elementwise", False),
            (srp_core.ClientSession, "hello", "srp_core.hello", False),
            (srp_core.ClientSession, "finish", "srp_core.finish", False),
            (srp_core.ServerSession, "respond", "srp_core.respond", False),
            (credstore.CredentialStore, "put", "credstore.put", False),
            (credstore.CredentialStore, "open", "credstore.open", False),
        ]:
            self._patch_method(cls, attr, name, count_bytes)
        for fn, name, count_bytes in [
            (sampler.gaussian_matrix_from, "sampler.gaussian_matrix", False),
            (sampler.uniform_matrix, "sampler.uniform_matrix", False),
            (reconcile.signal, "reconcile.signal", False),
            (reconcile.extract, "reconcile.extract", False),
            (srp_core.kdf, "srp_core.kdf", False),
            (srp_core.client_confirmation_tag, "srp_core.confirmation_tag", False),
            (srp_core.server_confirmation_tag, "srp_core.confirmation_tag", False),
            (srp_core.register, "srp_core.register", False),
            (wire.encode_message, "wire.encode", True),
            (wire.decode_message, "wire.decode", False),
            (wire.read_frame, "wire.read_frame", False),
            # the socket receive inside read_frame, so that read_frame's self
            # time is decoding and its total is the wait for the peer
            (wire._recv_exact, "wire.recv", False),
            (harness.run_handshake, "harness.run_handshake", False),
        ]:
            self._patch_function(fn, name, count_bytes)
        self._patch(socket, "create_connection", self._traced_connect(socket.create_connection))
        self._patch(cli._Handler, "handle", self._traced_handle(cli._Handler.handle))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _traced_connect(self, connect):
        local = self._local

        @functools.wraps(connect)
        def traced(*args, **kwargs):
            op = getattr(local, "op", None)
            if op is None:
                return connect(*args, **kwargs)
            sock = self._record("cli.connect", connect, args, kwargs)
            self._op_by_port[sock.getsockname()[1]] = op
            return sock
        return traced

    def _traced_handle(self, handle):
        local = self._local

        @functools.wraps(handle)
        def traced(handler):
            start = time.perf_counter_ns()
            # the client sends Hello only after its connect has returned and
            # recorded the port, so the lookup below cannot race it
            select.select([handler.request], [], [], 30)
            op = self._op_by_port.pop(handler.client_address[1], None)
            if op is None:
                return handle(handler)
            local.op, local.stack = op, []
            try:
                return self._record("cli.handler", handle, (handler,), {}, start=start)
            finally:
                local.op = None
        return traced

    # -- output --------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("span_id,parent_id,op_id,name,start_ns,end_ns,bytes\n")
            for span in self.spans:
                fh.write(",".join(str(v) for v in span) + "\n")


def layer_metrics(spans: list[tuple], n_ops: int) -> dict[str, float]:
    """Per-layer figures from the spans of n_ops traced operations and of set-up.

    "Per op" divides a sum over the operations' spans by n_ops; "self"
    subtracts the time covered by a span's direct children.
    """
    names = {s[0]: s[3] for s in spans}
    child_ns: Counter = Counter()
    for sid, parent, _op, _name, start, end, _b in spans:
        child_ns[parent] += end - start
    total_ms: Counter = Counter()
    self_ms: Counter = Counter()
    calls: Counter = Counter()
    nbytes: Counter = Counter()
    matmul_ms: list[float] = []
    setup_ms = defaultdict(list)
    client_reads = defaultdict(list)
    for sid, parent, op, name, start, end, b in spans:
        dur = (end - start) / 1e6
        if op == SETUP_OP:
            setup_ms[name].append(dur)
            continue
        total_ms[name] += dur
        self_ms[name] += dur - child_ns[sid] / 1e6
        calls[name] += 1
        nbytes[name] += b
        if name == "modq.matmul":
            matmul_ms.append(dur)
        elif name == "wire.read_frame" and names.get(parent) == OP_SPAN:
            client_reads[op].append((start, dur))
    waits = [sorted(r) for r in client_reads.values()]

    def per_op(x: float) -> float:
        return x / n_ops

    def mean(xs) -> float:
        return float(np.mean(xs)) if xs else 0.0

    return {
        "sampler.expander_read.ms_per_op": per_op(self_ms["sampler.expander_read"]),
        "sampler.expander_read.bytes_per_op": per_op(nbytes["sampler.expander_read"]),
        "sampler.cdt_lookup.ms_per_op": per_op(total_ms["sampler.cdt_lookup"]),
        "sampler.gaussian_matrix.calls_per_op": per_op(calls["sampler.gaussian_matrix"]),
        "sampler.uniform_matrix.ms_per_op": per_op(total_ms["sampler.uniform_matrix"]),
        "modq.matmul.ms_per_op": per_op(total_ms["modq.matmul"]),
        "modq.matmul.calls_per_op": per_op(calls["modq.matmul"]),
        "modq.matmul.p90_ms": float(np.percentile(matmul_ms, 90)) if matmul_ms else 0.0,
        "modq.elementwise.ms_per_op": per_op(total_ms["modq.elementwise"]),
        "reconcile.signal.ms_per_op": per_op(total_ms["reconcile.signal"]),
        "reconcile.extract.ms_per_op": per_op(total_ms["reconcile.extract"]),
        "srp_core.hello.self_ms": per_op(self_ms["srp_core.hello"]),
        "srp_core.finish.self_ms": per_op(self_ms["srp_core.finish"]),
        "srp_core.respond.self_ms": per_op(self_ms["srp_core.respond"]),
        "srp_core.kdf.ms_per_op": per_op(total_ms["srp_core.kdf"]),
        "srp_core.confirmation_tag.ms_per_op": per_op(total_ms["srp_core.confirmation_tag"]),
        "srp_core.confirmation_tag.calls_per_op": per_op(calls["srp_core.confirmation_tag"]),
        "srp_core.register.ms_per_record": mean(setup_ms["srp_core.register"]),
        "wire.encode.ms_per_op": per_op(total_ms["wire.encode"]),
        "wire.decode.ms_per_op": per_op(total_ms["wire.decode"] + self_ms["wire.read_frame"]),
        "wire.bytes_per_op": per_op(nbytes["wire.encode"]),
        "credstore.put.ms_per_record": mean(setup_ms["credstore.put"]),
        "credstore.open.ms": mean(setup_ms["credstore.open"]),
        "cli.connect_ms": per_op(total_ms["cli.connect"]),
        "cli.wait_challenge_ms": per_op(sum(w[0][1] for w in waits if len(w) > 0)),
        "cli.wait_confirm_ms": per_op(sum(w[1][1] for w in waits if len(w) > 1)),
        "cli.handler_ms": total_ms["cli.handler"] / max(calls["cli.handler"], 1),
        "harness.run_handshake.self_ms": per_op(self_ms["harness.run_handshake"]),
    }
