"""Command-line surface: register, serve, login, simulate, regev, lemma-oracle."""
from __future__ import annotations

import argparse
import getpass
import hashlib
import logging
import os
import secrets
import socket
import socketserver
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from .credstore import CredentialStore
from .errors import LsrpError, VerificationFailed
from .harness import lemma_violations, simulate
from .params import DEFAULT_LAMBDA_SEED, ParamError, ProtocolParams, default_params
from .regev import default_regev_params, round_trip_accuracy
from .srp_core import ClientSession, ServerSession, decoy_record, decoy_verifier, register
from . import wire

log = logging.getLogger("lsrp")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_AUTH_FAILED = 2
EXIT_UNREACHABLE = 3

# threads serving connections; the server's memory and CPU grow with this
# many handshakes at once, not with the number of clients
MAX_WORKERS = 32


def matrix_digest(m) -> str:
    return hashlib.shake_256(wire.encode_matrix(m)).hexdigest(16)


def key_digest(sk: bytes) -> str:
    return hashlib.shake_256(b"LSRP-key-digest" + sk).hexdigest(16)


def load_params(args) -> ProtocolParams:
    """The one parameter set every command runs: `default_params` at --lambda-seed."""
    return default_params(parse_hex(args.lambda_seed, "--lambda-seed") or DEFAULT_LAMBDA_SEED)


def read_file(path: str, flag: str) -> bytes:
    """The whole file a flag names; a file that cannot be opened is a typed error."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise LsrpError(f"{flag}: cannot read {path}: {exc.strerror or exc}") from exc


def parse_hex(text: str | None, flag: str) -> bytes | None:
    """The bytes a hex flag value spells, or None if the flag was not given."""
    if not text:
        return None
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise ParamError(f"{flag}: bad hex {text!r}") from exc


def read_password(args) -> bytes:
    if args.password_file:
        return read_file(args.password_file, "--password-file").rstrip(b"\r\n")
    return getpass.getpass("password: ").encode()


def store_path(args) -> str:
    path = args.store or os.environ.get("LSRP_STORE")
    if not path:
        raise LsrpError("no store path: pass --store or set LSRP_STORE")
    return path


def parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not port.isdigit() or int(port) > 65535:
        raise LsrpError(f"bad address {text!r}: expected [host:]port, port at most 65535")
    return host or "127.0.0.1", int(port)


class _Handler(socketserver.BaseRequestHandler):
    # deadline for the whole connection; run_login gives each login the same
    TIMEOUT = 30.0

    def handle(self) -> None:
        self._deadline = time.monotonic() + self.TIMEOUT
        try:
            self._exchange()
        except OSError as exc:  # TimeoutError included: a stalled or vanished client
            log.warning("connection from %s dropped: %s", self.client_address, exc)

    def _exchange(self) -> None:
        srv = self.server
        # the server's ephemeral needs no client: draw it while the client computes its Hello
        session = ServerSession(srv.params)
        try:
            msg = wire.read_frame(self.request, self._deadline, wire.max_hello_body(srv.params.n))
        except wire.WireError as exc:
            log.warning("bad frame from %s: %s", self.client_address, exc)
            self._send_error(wire.ErrorCode.BAD_REQUEST, str(exc))
            return
        if not isinstance(msg, wire.Hello):
            self._send_error(wire.ErrorCode.BAD_REQUEST, "expected hello")
            return
        record = srv.store.get(msg.client_id)
        if record is None:
            # anti-enumeration: answer with a deterministic decoy credential
            record = decoy_record(msg.client_id, srv.server_secret, srv.decoy_verifier)
        try:
            salt, b_s, sigma = session.respond(record, msg.b_c)
        except LsrpError as exc:
            self._send_error(wire.ErrorCode.BAD_REQUEST, str(exc))
            return
        wire.write_frame(self.request, wire.Challenge(salt, b_s, sigma), self._deadline)
        session.hash_transcript()  # while the client derives its key
        try:
            confirm = wire.read_frame(self.request, self._deadline, wire.TAG_LEN)
        except wire.WireError as exc:
            log.warning("bad confirm frame from %s: %s", self.client_address, exc)
            return
        if not isinstance(confirm, wire.ConfirmClient):
            self._send_error(wire.ErrorCode.BAD_REQUEST, "expected client confirmation")
            return
        try:
            m2 = session.verify_client(confirm.tag)
        except VerificationFailed:
            log.info("auth failed id=%s", msg.client_id.hex())
            self._send_error(wire.ErrorCode.AUTH_FAILED, "confirmation mismatch")
            return
        wire.write_frame(self.request, wire.ConfirmServer(m2), self._deadline)
        log.info("auth ok id=%s key-digest=%s", msg.client_id.hex(),
                 key_digest(session.session_key))

    def _send_error(self, code: wire.ErrorCode, text: str) -> None:
        try:
            msg = wire.ErrorMessage(int(code), text.encode()[:wire.MAX_ERROR_TEXT])
            wire.write_frame(self.request, msg, self._deadline)
        except OSError:
            pass


class LsrpServer(socketserver.TCPServer):
    """The authentication server: connections are served by at most
    MAX_WORKERS reused threads.

    The accept loop takes a free worker before it accepts, so while every
    worker is busy new connections wait in the listen backlog, and the
    loop (and shutdown) waits at most one handler deadline for a worker.
    server_close cuts the connections in hand and waits for their workers,
    so that a stalled client does not hold the process open.
    """
    allow_reuse_address = True
    request_queue_size = MAX_WORKERS

    def __init__(self, addr, params: ProtocolParams, store: CredentialStore) -> None:
        # before binding: a failed bind calls server_close, which shuts the pool down
        self._workers = ThreadPoolExecutor(MAX_WORKERS, thread_name_prefix="lsrp-worker")
        self._free_workers = threading.BoundedSemaphore(MAX_WORKERS)
        self._in_hand: set[socket.socket] = set()
        self._in_hand_lock = threading.Lock()
        super().__init__(addr, _Handler)
        self.params = params
        self.store = store
        self.server_secret = secrets.token_bytes(32)
        self.decoy_verifier = decoy_verifier(params, self.server_secret)

    def get_request(self):
        self._free_workers.acquire()
        try:
            return super().get_request()
        except BaseException:
            self._free_workers.release()
            raise

    def process_request(self, request, client_address) -> None:
        with self._in_hand_lock:
            self._in_hand.add(request)
        self._workers.submit(self._serve, request, client_address)

    def _serve(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            with self._in_hand_lock:
                self._in_hand.discard(request)
            self.shutdown_request(request)
            self._free_workers.release()

    def server_close(self) -> None:
        super().server_close()
        with self._in_hand_lock:
            for request in self._in_hand:
                try:
                    request.shutdown(socket.SHUT_RDWR)  # its handler's next read or write fails
                except OSError:
                    pass
        self._workers.shutdown()


def run_login(p: ProtocolParams, client_id: bytes, password: bytes,
              addr: tuple[str, int]) -> tuple[int, str | None]:
    """One login attempt; returns (exit code, session-key digest or None).

    The whole login, connect included, has one deadline, _Handler.TIMEOUT
    from the start; a server that misses it counts as unreachable.  A
    reply declaring a longer body than its kind can have at p is refused
    with FieldOutOfRange before its body is read.
    """
    deadline = time.monotonic() + _Handler.TIMEOUT
    try:
        sock = socket.create_connection(addr, timeout=_Handler.TIMEOUT)
    except OSError as exc:
        log.error("cannot reach %s:%d: %s", addr[0], addr[1], exc)
        return EXIT_UNREACHABLE, None
    with sock:
        try:
            return _login_exchange(sock, p, client_id, password, deadline)
        except OSError as exc:  # TimeoutError included: a stalled or vanished server
            log.error("connection to %s:%d dropped: %s", addr[0], addr[1], exc)
            return EXIT_UNREACHABLE, None


def _login_exchange(sock, p: ProtocolParams, client_id: bytes, password: bytes,
                    deadline: float) -> tuple[int, str | None]:
    session = ClientSession(p, client_id, password)
    cid, b_c = session.hello()
    wire.write_frame(sock, wire.Hello(cid, b_c), deadline)
    reply = wire.read_frame(sock, deadline, wire.max_challenge_body(p.n))
    if isinstance(reply, wire.ErrorMessage):
        log.error("server error %d: %s", reply.code, reply.text.decode(errors="replace"))
        return EXIT_AUTH_FAILED, None
    if not isinstance(reply, wire.Challenge):
        log.error("unexpected reply %s", type(reply).__name__)
        return EXIT_ERROR, None
    session.finish(reply.salt, reply.b_s, reply.sigma)
    wire.write_frame(sock, wire.ConfirmClient(session.confirmation()), deadline)
    final = wire.read_frame(sock, deadline, max(wire.TAG_LEN, wire.MAX_ERROR_BODY))
    if isinstance(final, wire.ErrorMessage):
        log.error("authentication rejected: %s", final.text.decode(errors="replace"))
        return EXIT_AUTH_FAILED, None
    if not isinstance(final, wire.ConfirmServer) or not session.verify_server(final.tag):
        log.error("server confirmation failed")
        return EXIT_AUTH_FAILED, None
    return EXIT_OK, key_digest(session.session_key)


def cmd_register(args) -> int:
    p = load_params(args)
    password = read_password(args)
    record = register(p, args.id.encode(), password)
    store = CredentialStore.open(store_path(args), p)
    store.put(record)
    print(f"registered id={args.id} salt={record.salt.hex()} "
          f"verifier-digest={matrix_digest(record.verifier)}")
    return EXIT_OK


def cmd_serve(args) -> int:
    p = load_params(args)
    store = CredentialStore.open(store_path(args), p)
    addr = parse_addr(args.listen)
    try:
        server = LsrpServer(addr, p, store)
    except OSError as exc:
        raise LsrpError(f"cannot listen on {addr[0]}:{addr[1]}: {exc.strerror or exc}") from exc
    host, port = server.server_address[:2]
    log.info("listening on %s:%d (%d records)", host, port, len(store))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return EXIT_OK


def cmd_login(args) -> int:
    p = load_params(args)
    password = read_password(args)
    code, digest = run_login(p, args.id.encode(), password, parse_addr(args.server))
    if code == EXIT_OK:
        print(f"login ok key-digest={digest}")
    return code


def cmd_simulate(args) -> int:
    p = load_params(args)
    seed = parse_hex(args.seed, "--seed")
    report = simulate(p, args.trials, instrument=args.instrument,
                      wrong_password=args.wrong_password, master_seed=seed)
    print(report.render())
    expected_mismatch = args.trials if args.wrong_password else 0
    ok = (report.agreements == (0 if args.wrong_password else args.trials)
          and (report.wrong_password_mismatches or 0) == expected_mismatch)
    return EXIT_OK if ok else EXIT_ERROR


def cmd_regev(args) -> int:
    rp = default_regev_params()
    seed = parse_hex(args.seed, "--seed")
    acc = round_trip_accuracy(rp, args.trials, seed=seed)
    print(f"n={rp.n} m={rp.m} p={rp.p} trials={args.trials} accuracy={acc:.4f}")
    return EXIT_OK if acc >= 0.99 else EXIT_ERROR


def cmd_lemma_oracle(args) -> int:
    status = EXIT_OK
    for q in args.q:
        if q > 10 ** 4:
            print(f"q={q}: refusing moduli above 10^4")
            return EXIT_ERROR
        bad = lemma_violations(q, tolerance=args.tolerance)
        if bad:
            status = EXIT_ERROR
            print(f"q={q}: {len(bad)}+ violations, first: {bad[0]}")
        else:
            print(f"q={q}: ok (tolerance {args.tolerance if args.tolerance is not None else q // 4 - 2})")
    return status


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's own exit code, 2, would read as EXIT_AUTH_FAILED
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="lsrp", description=__doc__)
    top.add_argument("-v", "--verbose", action="store_true")
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--lambda-seed", dest="lambda_seed", help="32-byte hex seed")

    sp = sub.add_parser("register", help="create and store a credential record")
    common(sp)
    sp.add_argument("--store")
    sp.add_argument("--id", required=True)
    sp.add_argument("--password-file", dest="password_file")
    sp.set_defaults(func=cmd_register)

    sp = sub.add_parser("serve", help="run the authentication server")
    common(sp)
    sp.add_argument("--store")
    sp.add_argument("--listen", default="127.0.0.1:7464")
    sp.set_defaults(func=cmd_serve)

    sp = sub.add_parser("login", help="authenticate against a server")
    common(sp)
    sp.add_argument("--server", default="127.0.0.1:7464")
    sp.add_argument("--id", required=True)
    sp.add_argument("--password-file", dest="password_file")
    sp.set_defaults(func=cmd_login)

    sp = sub.add_parser("simulate", help="seeded in-process handshake campaign")
    common(sp)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", help="master seed, hex")
    sp.add_argument("--instrument", action="store_true")
    sp.add_argument("--wrong-password", action="store_true", dest="wrong_password")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("regev", help="bit-encryption round-trip validation")
    sp.add_argument("--trials", type=int, default=10000)
    sp.add_argument("--seed", help="hex seed")
    sp.set_defaults(func=cmd_regev)

    sp = sub.add_parser("lemma-oracle", help="exhaustive extract-agreement check")
    sp.add_argument("q", type=int, nargs="+")
    sp.add_argument("--tolerance", type=int, help="override the offset bound (negative control)")
    sp.set_defaults(func=cmd_lemma_oracle)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(asctime)s %(levelname)s %(message)s")
    try:
        return args.func(args)
    except LsrpError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
