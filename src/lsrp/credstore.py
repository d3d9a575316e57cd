"""Persistent credential storage: an append-only log of Register frames.

Reusing the wire codec for the on-disk format makes a crash cheap to
survive: a valid prefix of the file is always loadable, and a torn final
write is detected as a corrupt tail.  Re-registration appends; the
in-memory index keeps the latest record per id.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import LsrpError
from .params import ProtocolParams
from .srp_core import VerifierRecord
from . import wire


class IoFailure(LsrpError, OSError):
    pass


class CorruptRecord(LsrpError, ValueError):
    """Raised on load when the log has a malformed tail.

    The `store` attribute carries the records of the valid prefix.
    """

    def __init__(self, message: str, store: "CredentialStore") -> None:
        super().__init__(message)
        self.store = store


@dataclass
class CredentialStore:
    path: str
    params: ProtocolParams
    _index: dict

    @classmethod
    def open(cls, path: str, params: ProtocolParams) -> "CredentialStore":
        """Load the store, creating an empty one if the file does not exist.

        A corrupt tail raises CorruptRecord, whose `store` holds the
        records of the valid prefix.
        """
        store = cls(path=path, params=params, _index={})
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return store
        except OSError as exc:
            raise IoFailure(f"cannot read {path}: {exc}") from exc

        off = 0
        while off < len(data):
            try:
                _, body_len = wire.parse_header(data[off:off + wire.HEADER_LEN])
                end = off + wire.HEADER_LEN + body_len
                msg = wire.decode_message(data[off:end])
            except wire.WireError as exc:
                raise CorruptRecord(f"corrupt record at offset {off}: {exc}", store) from exc
            if not isinstance(msg, wire.Register):
                raise CorruptRecord(f"non-register frame at offset {off}", store)
            if msg.verifier.n != params.n or msg.verifier.q != params.q:
                raise CorruptRecord(f"record at offset {off} does not match store parameters", store)
            store._index[msg.client_id] = VerifierRecord(msg.client_id, msg.salt, msg.verifier)
            off = end
        return store

    def put(self, record: VerifierRecord) -> None:
        """Durably append a record; latest registration for an id wins."""
        frame = wire.encode_message(
            wire.Register(record.client_id, record.salt, record.verifier))
        try:
            with open(self.path, "ab") as fh:
                fh.write(frame)
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise IoFailure(f"cannot append to {self.path}: {exc}") from exc
        self._index[record.client_id] = record

    def get(self, client_id: bytes) -> VerifierRecord | None:
        return self._index.get(client_id)

    def __len__(self) -> int:
        return len(self._index)

    def ids(self) -> list[bytes]:
        return sorted(self._index)
