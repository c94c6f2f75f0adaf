"""Canonical binary encoding for synthetic identity documents.

Every structured object in this package serializes to a compact canonical
form: fields in a fixed order, each one length-prefixed with a 4-byte
big-endian count. The encoding is bijective, so "the grammar is correct"
reduces to "the decoder consumes the whole buffer without error", and any
byte-level tamper either breaks decoding or lands inside a field where a
signature or hash check will catch it.
"""

from __future__ import annotations

import json
import struct

from .errors import DecodeError

# The one length prefix: a 4-byte big-endian count. Packing a length that
# does not fit, or unpacking past the end of a buffer, raises struct.error.
_LEN = struct.Struct(">I")


def frame_parts(*parts: bytes) -> bytes:
    """Concatenate several byte strings, each length-prefixed.

    This is the unambiguous stand-in for the bare concatenation written as
    ``a || b || c`` in protocol descriptions: no split of the output can be
    produced by a different tuple of inputs.
    """
    try:
        return b"".join([_LEN.pack(len(p)) + p for p in parts])
    except struct.error:
        raise ValueError("field too long to frame") from None


class Encoder:
    """Accumulates fields in declaration order and frames them all in done()."""

    def __init__(self, tag: str):
        self._parts: list[bytes] = [tag.encode("utf-8")]

    def put_bytes(self, value: bytes) -> "Encoder":
        self._parts.append(bytes(value))
        return self

    def put_text(self, value: str) -> "Encoder":
        return self.put_bytes(value.encode("utf-8"))

    def put_u64(self, value: int) -> "Encoder":
        if not 0 <= value < 2**64:
            raise ValueError(f"u64 out of range: {value}")
        return self.put_bytes(value.to_bytes(8, "big"))

    def put_bool(self, value: bool) -> "Encoder":
        return self.put_bytes(b"\x01" if value else b"\x00")

    def put_opt_bytes(self, value: bytes | None) -> "Encoder":
        if value is None:
            return self.put_bool(False)
        self.put_bool(True)
        return self.put_bytes(value)

    def put_opt_text(self, value: str | None) -> "Encoder":
        return self.put_opt_bytes(None if value is None else value.encode("utf-8"))

    def done(self) -> bytes:
        return frame_parts(*self._parts)


class Decoder:
    """Strict reader for the Encoder format; raises DecodeError on any defect."""

    def __init__(self, blob: bytes, expect_tag: str):
        self._blob = bytes(blob)
        self._end = len(self._blob)
        self._pos = 0
        tag = self.take_bytes()
        if tag != expect_tag.encode("utf-8"):
            raise DecodeError(f"unexpected structure tag {tag!r}")

    def take_bytes(self) -> bytes:
        pos = self._pos
        try:
            (n,) = _LEN.unpack_from(self._blob, pos)
        except struct.error:
            raise DecodeError("truncated length prefix") from None
        start = pos + _LEN.size
        end = start + n
        if end > self._end:
            raise DecodeError("field overruns buffer")
        self._pos = end
        return self._blob[start:end]

    def take_text(self) -> str:
        raw = self.take_bytes()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError("field is not valid utf-8") from exc

    def take_u64(self) -> int:
        raw = self.take_bytes()
        if len(raw) != 8:
            raise DecodeError("u64 field has wrong width")
        return int.from_bytes(raw, "big")

    def take_bool(self) -> bool:
        raw = self.take_bytes()
        if raw == b"\x01":
            return True
        if raw == b"\x00":
            return False
        raise DecodeError("malformed boolean")

    def take_opt_bytes(self) -> bytes | None:
        return self.take_bytes() if self.take_bool() else None

    def take_opt_text(self) -> str | None:
        return self.take_text() if self.take_bool() else None

    def finish(self) -> None:
        if self._pos != self._end:
            raise DecodeError("trailing bytes after structure")


def canonical_json(obj) -> str:
    """Deterministic JSON rendering: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
