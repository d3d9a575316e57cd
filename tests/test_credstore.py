import dataclasses

import pytest

from lsrp import wire
from lsrp.credstore import CorruptRecord, CredentialStore
from lsrp.srp_core import register

SALT = b"\x00" * 16


@pytest.fixture
def store(tmp_path, toy):
    return CredentialStore.open(str(tmp_path / "creds.db"), toy)


def test_open_missing_file_gives_empty_store(store):
    assert len(store) == 0 and store.get(b"alice") is None


def test_put_get_and_reopen(store, toy):
    rec = register(toy, b"alice", b"pw", salt=SALT)
    store.put(rec)
    assert store.get(b"alice") == rec
    again = CredentialStore.open(store.path, toy)
    assert len(again) == 1 and again.get(b"alice") == rec


def test_latest_registration_wins(store, toy):
    old = register(toy, b"alice", b"pw", salt=SALT)
    new = register(toy, b"alice", b"pw2", salt=b"\x01" * 16)
    store.put(old)
    store.put(new)
    assert store.get(b"alice") == new
    # the log keeps both frames; reload still resolves to the newest
    assert CredentialStore.open(store.path, toy).get(b"alice") == new


def test_multiple_ids(store, toy):
    for name in (b"bob", b"alice", b"carol"):
        store.put(register(toy, name, b"pw", salt=SALT))
    assert store.ids() == [b"alice", b"bob", b"carol"]
    assert len(store) == 3


def test_truncated_tail_detected_with_prefix_preserved(store, toy):
    store.put(register(toy, b"alice", b"pw", salt=SALT))
    store.put(register(toy, b"bob", b"pw", salt=SALT))
    with open(store.path, "r+b") as fh:
        fh.truncate(fh.seek(0, 2) - 5)
    with pytest.raises(CorruptRecord) as info:
        CredentialStore.open(store.path, toy)
    assert info.value.store.ids() == [b"alice"]


def test_garbage_tail_detected(store, toy):
    store.put(register(toy, b"alice", b"pw", salt=SALT))
    with open(store.path, "ab") as fh:
        fh.write(b"\xde\xad\xbe\xef")
    with pytest.raises(CorruptRecord) as info:
        CredentialStore.open(store.path, toy)
    assert info.value.store.ids() == [b"alice"]


def test_non_register_frame_rejected(store, toy):
    store.put(register(toy, b"alice", b"pw", salt=SALT))
    with open(store.path, "ab") as fh:
        fh.write(wire.encode_message(wire.ErrorMessage(1, b"x")))
    with pytest.raises(CorruptRecord, match="non-register") as info:
        CredentialStore.open(store.path, toy)
    assert info.value.store.ids() == [b"alice"]


def test_parameter_mismatch_rejected(store, toy):
    store.put(register(toy, b"alice", b"pw", salt=SALT))
    other = dataclasses.replace(toy, n=4)
    with pytest.raises(CorruptRecord, match="parameters") as info:
        CredentialStore.open(store.path, other)
    assert len(info.value.store) == 0
    # a record at other parameters after valid ones: the valid prefix is kept
    store.put(register(other, b"bob", b"pw", salt=SALT))
    with pytest.raises(CorruptRecord, match="offset [1-9]") as info:
        CredentialStore.open(store.path, toy)
    assert info.value.store.ids() == [b"alice"]


def test_version_1_store_refused(store, toy):
    store.put(register(toy, b"alice", b"pw", salt=SALT))
    with open(store.path, "r+b") as fh:
        fh.seek(4)
        fh.write(b"\x01")  # the version byte of the first frame
    with pytest.raises(CorruptRecord, match="version 1"):
        CredentialStore.open(store.path, toy)


def test_password_never_written_to_disk(store, toy):
    password = b"hunter2-very-secret"
    store.put(register(toy, b"alice", password, salt=SALT))
    with open(store.path, "rb") as fh:
        data = fh.read()
    assert password not in data
    assert b"alice" in data and SALT in data
