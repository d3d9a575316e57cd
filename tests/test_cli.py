import argparse
import pathlib
import re
import threading
import time

import pytest

from lsrp import cli
from lsrp.credstore import CredentialStore
from lsrp.srp_core import register

LAMBDA_HEX = ("01" * 32)
SALT = b"\x00" * 16

SEED_FLAGS = ["--lambda-seed", LAMBDA_HEX]


@pytest.fixture
def server(tmp_path, toy):
    store = CredentialStore.open(str(tmp_path / "creds.db"), toy)
    store.put(register(toy, b"alice", b"pw", salt=SALT))
    srv = cli.LsrpServer(("127.0.0.1", 0), toy, store)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def addr(srv):
    return srv.server_address[:2]


def test_login_round_trip(server, toy, caplog):
    import logging

    with caplog.at_level(logging.INFO, logger="lsrp"):
        code, digest = cli.run_login(toy, b"alice", b"pw", addr(server))
        # the server handler thread logs its digest after replying; wait for it
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            if any("auth ok" in rec.getMessage() for rec in caplog.records):
                break
            time.sleep(0.01)
    assert code == cli.EXIT_OK
    assert digest is not None and len(digest) == 32
    # both endpoints derived the same session-key digest
    assert any(digest in rec.getMessage() for rec in caplog.records
               if "auth ok" in rec.getMessage())


def test_login_wrong_password(server, toy):
    code, digest = cli.run_login(toy, b"alice", b"xx", addr(server))
    assert code == cli.EXIT_AUTH_FAILED and digest is None


def test_login_unknown_id_rejected_via_decoy(server, toy, monkeypatch):
    from lsrp import srp_core

    # the decoy verifier is derived when the server starts, not per unknown id
    calls = []
    uniform_matrix = srp_core.uniform_matrix
    monkeypatch.setattr(srp_core, "uniform_matrix", lambda *a: calls.append(a) or uniform_matrix(*a))
    for client_id in (b"nobody", b"nobody-else"):
        code, digest = cli.run_login(toy, client_id, b"pw", addr(server))
        assert code == cli.EXIT_AUTH_FAILED and digest is None
    assert calls == []


def test_login_fresh_keys_per_session(server, toy):
    digests = {cli.run_login(toy, b"alice", b"pw", addr(server))[1] for _ in range(3)}
    assert len(digests) == 3


def test_login_unreachable(toy):
    code, digest = cli.run_login(toy, b"alice", b"pw", ("127.0.0.1", 1))
    assert code == cli.EXIT_UNREACHABLE and digest is None


def test_stalled_client_is_dropped_at_the_deadline(server, toy, monkeypatch, caplog, capsys):
    import logging
    import socket

    from lsrp import wire
    from lsrp.srp_core import ClientSession

    monkeypatch.setattr(cli._Handler, "TIMEOUT", 0.5)
    cid, b_c = ClientSession(toy, b"alice", b"pw").hello()
    with caplog.at_level(logging.WARNING, logger="lsrp"):
        with socket.create_connection(addr(server), timeout=5) as sock:
            sock.sendall(wire.encode_message(wire.Hello(cid, b_c))[:5])
            start = time.monotonic()
            assert sock.recv(1) == b""  # the server closed the connection
            elapsed = time.monotonic() - start
    assert elapsed < 2
    dropped = [rec for rec in caplog.records if "dropped" in rec.getMessage()]
    assert len(dropped) == 1 and dropped[0].levelno == logging.WARNING
    assert "Traceback" not in capsys.readouterr().err
    assert cli.run_login(toy, b"alice", b"pw", addr(server))[0] == cli.EXIT_OK


def test_trickling_client_is_dropped_at_the_connection_deadline(server, toy, monkeypatch, caplog):
    import logging
    import socket

    from lsrp import wire
    from lsrp.srp_core import ClientSession

    # each byte arrives well inside TIMEOUT, so only a whole-connection deadline ends this
    monkeypatch.setattr(cli._Handler, "TIMEOUT", 0.5)
    cid, b_c = ClientSession(toy, b"alice", b"pw").hello()
    frame = wire.encode_message(wire.Hello(cid, b_c))
    with caplog.at_level(logging.WARNING, logger="lsrp"):
        with socket.create_connection(addr(server), timeout=5) as sock:
            sock.settimeout(0.1)
            start = time.monotonic()
            closed = False
            for byte in frame[:-1]:
                try:
                    sock.sendall(bytes([byte]))
                    closed = sock.recv(1) == b""
                except socket.timeout:
                    continue
                except OSError:  # reset: the server closed with our bytes unread
                    closed = True
                if closed:
                    break
            elapsed = time.monotonic() - start
    assert closed and elapsed < 0.5 + 1
    dropped = [rec for rec in caplog.records if "dropped" in rec.getMessage()]
    assert len(dropped) == 1 and dropped[0].levelno == logging.WARNING
    assert cli.run_login(toy, b"alice", b"pw", addr(server))[0] == cli.EXIT_OK


def test_oversized_hello_is_refused_before_its_body(server, toy):
    import socket

    from lsrp import wire

    head = wire.MAGIC + bytes([wire.VERSION, int(wire.Kind.HELLO)]) + (1 << 20).to_bytes(4, "big")
    with socket.create_connection(addr(server), timeout=5) as sock:
        sock.sendall(head)  # and no body byte
        reply = wire.read_frame(sock, time.monotonic() + 5, wire.MAX_BODY)
    assert isinstance(reply, wire.ErrorMessage) and reply.code == wire.ErrorCode.BAD_REQUEST
    assert str(wire.max_hello_body(toy.n)).encode() in reply.text
    assert cli.run_login(toy, b"alice", b"pw", addr(server))[0] == cli.EXIT_OK


def scratch_server(reply):
    """A one-connection server that reads the client's Hello, then calls reply(conn)."""
    import socket

    from lsrp import wire

    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        with listener:
            conn, _ = listener.accept()
            with conn:
                wire.read_frame(conn, time.monotonic() + 5, wire.MAX_BODY)
                reply(conn)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname()[:2], thread


def test_trickling_server_is_dropped_at_the_login_deadline(toy, monkeypatch, caplog):
    import logging

    from lsrp import wire

    def trickle(conn):
        body_len = wire.max_challenge_body(toy.n)
        conn.sendall(wire.MAGIC + bytes([wire.VERSION, int(wire.Kind.CHALLENGE)])
                     + body_len.to_bytes(4, "big"))
        try:
            for _ in range(body_len):  # one byte per 0.1 s, until the client hangs up
                conn.sendall(b"\x00")
                time.sleep(0.1)
        except OSError:
            pass

    # each byte arrives well inside TIMEOUT, so only a whole-login deadline ends this
    monkeypatch.setattr(cli._Handler, "TIMEOUT", 0.5)
    address, thread = scratch_server(trickle)
    start = time.monotonic()
    with caplog.at_level(logging.ERROR, logger="lsrp"):
        code, digest = cli.run_login(toy, b"alice", b"pw", address)
    elapsed = time.monotonic() - start
    assert code == cli.EXIT_UNREACHABLE and digest is None
    assert elapsed < 0.5 + 1
    assert any("dropped" in rec.getMessage() for rec in caplog.records)
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_oversized_challenge_is_refused_before_its_body(toy):
    from lsrp import wire

    def oversized(conn):
        conn.sendall(wire.MAGIC + bytes([wire.VERSION, int(wire.Kind.CHALLENGE)])
                     + (1 << 20).to_bytes(4, "big"))  # and no body byte
        conn.recv(1)  # until the client closes

    address, thread = scratch_server(oversized)
    limit = wire.max_challenge_body(toy.n)
    # reading the body would wait out the 30 s deadline and return EXIT_UNREACHABLE
    with pytest.raises(wire.FieldOutOfRange, match=str(limit)):
        cli.run_login(toy, b"alice", b"pw", address)
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_import_pins_openblas_threads_unless_set():
    import os
    import subprocess
    import sys

    import lsrp

    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(lsrp.__file__))
    show = "import lsrp, os; print(os.environ['OPENBLAS_NUM_THREADS'])"
    for preset, expected in [(None, "1"), ("2", "2")]:
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        out = subprocess.run([sys.executable, "-c", show], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout
        assert out.strip() == expected


def test_default_flags_register_serve_login(tmp_path, capsys):
    """The README flow with no parameter flags: every command derives the same basis."""
    pw = tmp_path / "pw.txt"
    pw.write_bytes(b"s3cret\n")
    store = str(tmp_path / "default.db")
    assert cli.main(["register", "--store", store, "--id", "alice",
                     "--password-file", str(pw)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "registered id=alice" in out and "verifier-digest=" in out

    p = cli.load_params(cli.build_parser().parse_args(["serve", "--store", store]))
    srv = cli.LsrpServer(("127.0.0.1", 0), p, CredentialStore.open(store, p))
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = addr(srv)
        assert cli.main(["login", "--server", f"{host}:{port}", "--id", "alice",
                         "--password-file", str(pw)]) == cli.EXIT_OK
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert "login ok key-digest=" in capsys.readouterr().out


def test_main_register_requires_store_path(tmp_path, monkeypatch):
    monkeypatch.delenv("LSRP_STORE", raising=False)
    pw = tmp_path / "pw.txt"
    pw.write_bytes(b"x")
    code = cli.main(["register", *SEED_FLAGS, "--id", "bob",
                     "--password-file", str(pw)])
    assert code == cli.EXIT_ERROR


def test_main_store_path_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LSRP_STORE", str(tmp_path / "env.db"))
    pw = tmp_path / "pw.txt"
    pw.write_bytes(b"x")
    assert cli.main(["register", *SEED_FLAGS, "--id", "bob",
                     "--password-file", str(pw)]) == cli.EXIT_OK
    capsys.readouterr()


def test_main_simulate(capsys):
    code = cli.main(["simulate", *SEED_FLAGS, "--trials", "5", "--seed", "ab" * 32])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "agreements" in out and "trials" in out


def test_main_lemma_oracle(capsys):
    assert cli.main(["lemma-oracle", "13", "41"]) == cli.EXIT_OK
    assert cli.main(["lemma-oracle", "41", "--tolerance", "15"]) == cli.EXIT_ERROR
    assert cli.main(["lemma-oracle", "100001"]) == cli.EXIT_ERROR
    capsys.readouterr()


def test_main_regev(capsys):
    assert cli.main(["regev", "--trials", "200", "--seed", "cd" * 32]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "p=4099" in out and "accuracy=" in out


def test_parse_addr_forms():
    assert cli.parse_addr("127.0.0.1:7464") == ("127.0.0.1", 7464)
    assert cli.parse_addr(":9000") == ("127.0.0.1", 9000)


def test_main_bad_hex_or_number_is_a_typed_error(tmp_path, caplog):
    import logging

    pw = tmp_path / "pw.txt"
    pw.write_bytes(b"x")
    missing = str(tmp_path / "missing")
    cases = [(["simulate", "--lambda-seed", "zz"], "--lambda-seed"),
             (["simulate", *SEED_FLAGS, "--trials", "1", "--seed", "zz"], "--seed"),
             (["regev", "--trials", "1", "--seed", "zz"], "--seed"),
             (["regev", "--trials", "0"], "trials must be >= 1"),
             (["simulate", "--lambda-seed", "01" * 31], "lambda_seed must be 32 bytes"),
             (["register", *SEED_FLAGS, "--store", str(tmp_path / "s.db"), "--id", "a",
               "--password-file", missing], f"--password-file: cannot read {missing}"),
             (["login", *SEED_FLAGS, "--id", "bob", "--password-file", str(pw),
               "--server", "localhost"], "bad address")]
    for argv, named in cases:
        caplog.clear()
        with caplog.at_level(logging.ERROR, logger="lsrp"):
            assert cli.main(argv) == cli.EXIT_ERROR
        assert [named in rec.getMessage() for rec in caplog.records] == [True]


@pytest.mark.parametrize("flag", ["--bogus", "--salt-len", "--n", "--q", "--tau", "--config",
                                  "--unsafe-params"])
def test_usage_error_exits_1_not_the_auth_failed_code(flag, capsys):
    # --lambda-seed is the one parameter flag these commands take
    for argv in (["register", "--id", "alice"], ["serve"], ["login", "--id", "alice"],
                 ["simulate"]):
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, flag, "32"])
        assert info.value.code == cli.EXIT_ERROR
        assert flag in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        cli.main(["login", "--help"])
    assert info.value.code == cli.EXIT_OK


def test_every_flag_in_the_readme_cli_section_is_accepted():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    top = cli.build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {opt for parser in (top, *sub.choices.values())
                for action in parser._actions for opt in action.option_strings}
    assert "--lambda-seed" in named
    assert named <= accepted, sorted(named - accepted)
