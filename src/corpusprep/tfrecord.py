"""TFRecord framing and tf.train.Example wire encoding, bit-exact.

Each record is framed as: u64 little-endian payload length, u32 LE masked
CRC32C of those 8 length bytes, the payload, u32 LE masked CRC32C of the
payload.  CRC32C uses the Castagnoli polynomial; the mask is
((c >> 15) | (c << 17)) + 0xa282ead8 mod 2^32.

Payloads are hand-rolled protocol-buffer messages: Example (field 1 =
Features), Features (field 1 = repeated map entry of name string to
Feature), Feature (field 2 = FloatList, field 3 = Int64List, both packed on
write).  The reader accepts packed and unpacked list encodings.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Union

from .errors import CorruptRecord, IoError

_MASK_DELTA = 0xA282EAD8
_U32 = 0xFFFFFFFF

# Castagnoli polynomial, reflected form.
_CRC_TABLE: List[int] = []
for _byte in range(256):
    _crc = _byte
    for _ in range(8):
        _crc = (_crc >> 1) ^ 0x82F63B78 if _crc & 1 else _crc >> 1
    _CRC_TABLE.append(_crc)


def crc32c(data: bytes) -> int:
    crc = _U32
    for byte in data:
        crc = _CRC_TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ _U32


def masked_crc32c(data: bytes) -> int:
    crc = crc32c(data)
    return (((crc >> 15) | (crc << 17)) + _MASK_DELTA) & _U32


FeatureValue = Union[Sequence[int], Sequence[float]]
# name -> ("int64" | "float", values)
FeatureDict = Dict[str, Tuple[str, FeatureValue]]


def _varint(value: int) -> bytes:
    out = bytearray()
    while True:
        bits = value & 0x7F
        value >>= 7
        if value:
            out.append(bits | 0x80)
        else:
            out.append(bits)
            return bytes(out)


def _length_delimited(field_number: int, payload: bytes) -> bytes:
    return _varint((field_number << 3) | 2) + _varint(len(payload)) + payload


def _encode_feature(kind: str, values: FeatureValue) -> bytes:
    if kind == "int64":
        packed = b"".join(_varint(v) for v in values)
        return _length_delimited(3, _length_delimited(1, packed))
    if kind == "float":
        packed = struct.pack(f"<{len(values)}f", *values)
        return _length_delimited(2, _length_delimited(1, packed))
    raise ValueError(f"unsupported feature kind {kind!r}")


def encode_example(features: FeatureDict, order: Sequence[str]) -> bytes:
    """Serialize name -> typed list as a tf.train.Example, fields in `order`."""
    entries = []
    for name in order:
        kind, values = features[name]
        entry = _length_delimited(1, name.encode("utf-8")) + _length_delimited(
            2, _encode_feature(kind, values)
        )
        entries.append(_length_delimited(1, entry))
    return _length_delimited(1, b"".join(entries))


class _Cursor:
    """Minimal protobuf reader over one message's bytes."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def done(self) -> bool:
        return self.pos >= len(self.data)

    def varint(self) -> int:
        result = 0
        shift = 0
        while True:
            if self.pos >= len(self.data):
                raise ValueError("truncated varint")
            byte = self.data[self.pos]
            self.pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 63:
                raise ValueError("varint too long")

    def tag(self) -> Tuple[int, int]:
        key = self.varint()
        return key >> 3, key & 0x7

    def bytes_field(self) -> bytes:
        length = self.varint()
        if self.pos + length > len(self.data):
            raise ValueError("truncated length-delimited field")
        chunk = self.data[self.pos : self.pos + length]
        self.pos += length
        return chunk

    def skip(self, wire_type: int) -> None:
        if wire_type == 0:
            self.varint()
        elif wire_type == 1:
            self.pos += 8
        elif wire_type == 2:
            self.bytes_field()
        elif wire_type == 5:
            self.pos += 4
        else:
            raise ValueError(f"unsupported wire type {wire_type}")


def _parse_int64_list(data: bytes) -> List[int]:
    cursor = _Cursor(data)
    values: List[int] = []
    while not cursor.done():
        field, wire = cursor.tag()
        if field == 1 and wire == 2:  # packed
            inner = _Cursor(cursor.bytes_field())
            while not inner.done():
                values.append(inner.varint())
        elif field == 1 and wire == 0:  # unpacked
            values.append(cursor.varint())
        else:
            cursor.skip(wire)
    return values


def _parse_float_list(data: bytes) -> List[float]:
    cursor = _Cursor(data)
    values: List[float] = []
    while not cursor.done():
        field, wire = cursor.tag()
        if field == 1 and wire == 2:
            chunk = cursor.bytes_field()
            if len(chunk) % 4:
                raise ValueError("packed float block not a multiple of 4 bytes")
            values.extend(struct.unpack(f"<{len(chunk) // 4}f", chunk))
        elif field == 1 and wire == 5:
            if cursor.pos + 4 > len(cursor.data):
                raise ValueError("truncated float")
            values.append(struct.unpack_from("<f", cursor.data, cursor.pos)[0])
            cursor.pos += 4
        else:
            cursor.skip(wire)
    return values


def _parse_feature(data: bytes) -> Tuple[str, FeatureValue]:
    cursor = _Cursor(data)
    while not cursor.done():
        field, wire = cursor.tag()
        if field == 3 and wire == 2:
            return "int64", _parse_int64_list(cursor.bytes_field())
        if field == 2 and wire == 2:
            return "float", _parse_float_list(cursor.bytes_field())
        cursor.skip(wire)
    return "int64", []


def parse_example(payload: bytes) -> FeatureDict:
    """Decode an Example payload to name -> (kind, values)."""
    features: FeatureDict = {}
    outer = _Cursor(payload)
    while not outer.done():
        field, wire = outer.tag()
        if field != 1 or wire != 2:
            outer.skip(wire)
            continue
        feats = _Cursor(outer.bytes_field())
        while not feats.done():
            entry_field, entry_wire = feats.tag()
            if entry_field != 1 or entry_wire != 2:
                feats.skip(entry_wire)
                continue
            entry = _Cursor(feats.bytes_field())
            name = None
            value: Tuple[str, FeatureValue] = ("int64", [])
            while not entry.done():
                part_field, part_wire = entry.tag()
                if part_field == 1 and part_wire == 2:
                    name = entry.bytes_field().decode("utf-8")
                elif part_field == 2 and part_wire == 2:
                    value = _parse_feature(entry.bytes_field())
                else:
                    entry.skip(part_wire)
            if name is not None:
                features[name] = value
    return features


FRAME_OVERHEAD = 16  # bytes around each payload: length, length CRC, payload CRC


def frame_record(payload: bytes) -> bytes:
    """One TFRecord: length, masked length CRC, payload, masked payload CRC."""
    header = struct.pack("<Q", len(payload))
    return (
        header
        + struct.pack("<I", masked_crc32c(header))
        + payload
        + struct.pack("<I", masked_crc32c(payload))
    )


def write_framed(payloads: Iterable[bytes], path: str) -> int:
    """Write TFRecord-framed payloads; returns the record count."""
    count = 0
    try:
        with open(path, "wb") as out:
            for payload in payloads:
                out.write(frame_record(payload))
                count += 1
    except OSError as exc:
        raise IoError(str(exc)) from exc
    return count


def read_framed(path: str) -> Iterator[bytes]:
    """Yield payloads, validating both CRCs of every record."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise IoError(str(exc)) from exc

    pos = 0
    total = len(data)
    while pos < total:
        offset = pos
        if pos + 12 > total:
            raise CorruptRecord(offset, "length", "truncated record header")
        header = data[pos : pos + 8]
        (length,) = struct.unpack("<Q", header)
        (stored_len_crc,) = struct.unpack("<I", data[pos + 8 : pos + 12])
        if stored_len_crc != masked_crc32c(header):
            raise CorruptRecord(offset, "length", "length CRC mismatch")
        pos += 12
        if pos + length + 4 > total:
            raise CorruptRecord(offset, "data", "truncated record payload")
        payload = data[pos : pos + length]
        (stored_data_crc,) = struct.unpack("<I", data[pos + length : pos + length + 4])
        if stored_data_crc != masked_crc32c(payload):
            raise CorruptRecord(offset, "data", "payload CRC mismatch")
        pos += length + 4
        yield payload
