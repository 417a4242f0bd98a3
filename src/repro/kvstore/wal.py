"""Write-ahead log for the LSM store.

Writes are appended to an in-memory log segment and persisted to OSS when
the segment rotates (at memtable flush).  Replay restores any writes that
were logged but not yet flushed into an SSTable — exercised by the crash
recovery tests.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator

from repro.errors import KVStoreError
from repro.oss.object_store import ObjectStorageService

_RECORD_HEADER = struct.Struct(">BII")  # op, key length, value length
_OP_PUT = 1
_OP_DELETE = 2


def encode_record(op: int, key: bytes, value: bytes) -> bytes:
    """Binary encoding of one WAL record."""
    return _RECORD_HEADER.pack(op, len(key), len(value)) + key + value


def decode_records(payload: bytes) -> Iterator[tuple[int, bytes, bytes]]:
    """Decode a WAL segment back into (op, key, value) records."""
    offset = 0
    while offset < len(payload):
        if offset + _RECORD_HEADER.size > len(payload):
            raise KVStoreError("truncated WAL record header")
        op, key_len, value_len = _RECORD_HEADER.unpack_from(payload, offset)
        offset += _RECORD_HEADER.size
        end = offset + key_len + value_len
        if end > len(payload):
            raise KVStoreError("truncated WAL record body")
        key = payload[offset : offset + key_len]
        value = payload[offset + key_len : end]
        offset = end
        yield op, key, value


class WriteAheadLog:
    """Per-store WAL with durable records.

    Rotated segments become numbered OSS objects; the *active* segment is
    mirrored to an ``active.wal`` object on every append, modelling the
    node-local WAL file RocksDB keeps (the mirror write is charged as a
    piggybacked, latency-free append).  A fresh instance therefore replays
    every record a crashed predecessor logged.
    """

    ACTIVE_KEY = "active.wal"

    def __init__(self, oss: ObjectStorageService, bucket: str, name: str) -> None:
        self._oss = oss
        self._bucket = bucket
        self._prefix = f"wal/{name}/"
        self._segment = bytearray()
        self._sequence = 0
        oss.create_bucket(bucket)

    def log_put(self, key: bytes, value: bytes) -> None:
        """Append a put record to the active segment (durably)."""
        self._segment += encode_record(_OP_PUT, key, value)
        self._mirror_active()

    def log_delete(self, key: bytes) -> None:
        """Append a delete record to the active segment (durably)."""
        self._segment += encode_record(_OP_DELETE, key, b"")
        self._mirror_active()

    def _mirror_active(self) -> None:
        self._oss.put_object(
            self._bucket,
            self._prefix + self.ACTIVE_KEY,
            bytes(self._segment),
            piggyback=True,
        )

    def persist_segment(self) -> str | None:
        """Rotate the active segment to a numbered OSS object."""
        if not self._segment:
            return None
        key = f"{self._prefix}{self._sequence:012d}.wal"
        self._oss.put_object(self._bucket, key, bytes(self._segment))
        self._segment.clear()
        self._oss.delete_object(self._bucket, self._prefix + self.ACTIVE_KEY)
        self._sequence += 1
        return key

    def discard_persisted(self) -> int:
        """Delete all rotated segments (their writes reached SSTables)."""
        removed = 0
        for key in self._oss.list_objects(self._bucket, self._prefix):
            if key.endswith(self.ACTIVE_KEY):
                continue
            if self._oss.delete_object(self._bucket, key):
                removed += 1
        return removed

    def replay(self) -> Iterator[tuple[int, bytes, bytes]]:
        """Yield every durable record: rotated segments, then the active
        segment.  A fresh instance adopts the active mirror it replays as
        its own segment, so its next append rewrites the mirror with those
        records still in it."""
        active_key = self._prefix + self.ACTIVE_KEY
        for key in self._oss.list_objects(self._bucket, self._prefix):
            if key == active_key:
                continue
            yield from decode_records(self._oss.get_object(self._bucket, key))
        if not self._segment and (
            self._oss.peek_size(self._bucket, active_key) is not None
        ):
            self._segment = bytearray(self._oss.get_object(self._bucket, active_key))
        yield from decode_records(bytes(self._segment))

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered in the not-yet-persisted active segment."""
        return len(self._segment)


#: Re-exported opcodes for replay consumers.
OP_PUT = _OP_PUT
OP_DELETE = _OP_DELETE
