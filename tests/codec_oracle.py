"""Slow reference record codec: byte-at-a-time CRC32C, varints and framing.

CRC32C runs one table lookup per byte, every int64 value is encoded by its
own varint loop, and a packed int64 block is decoded one byte at a time.
This is the codec ``corpusprep.tfrecord`` shipped before its fast paths,
kept only as the oracle that ``crc32c``, the encoders ``example_writer``
returns, ``parse_example`` and ``frame_record`` must match byte for byte and
value for value.  Its ``encode_example`` takes a name -> (kind, values) dict,
the shape the writer no longer builds; tests that only need a payload build
it here, and ``record_oracle`` builds whole shard records on it.  It shares no
code with ``corpusprep.tfrecord``.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

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
    return (((crc >> 15) | (crc << 17)) + 0xA282EAD8) & _U32


def frame_record(payload: bytes) -> bytes:
    header = struct.pack("<Q", len(payload))
    return (
        header
        + struct.pack("<I", masked_crc32c(header))
        + payload
        + struct.pack("<I", masked_crc32c(payload))
    )


def varint(value: int) -> bytes:
    out = bytearray()
    while True:
        bits = value & 0x7F
        value >>= 7
        if value:
            out.append(bits | 0x80)
        else:
            out.append(bits)
            return bytes(out)


def packed_varints(data: bytes) -> List[int]:
    """Decode a packed int64 block one byte at a time."""
    values = []
    result = shift = 0
    for byte in data:
        result |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            values.append(result)
            result = shift = 0
    if shift:
        raise ValueError("truncated varint")
    return values


def length_delimited(field_number: int, payload: bytes) -> bytes:
    return varint((field_number << 3) | 2) + varint(len(payload)) + payload


def encode_example(features: dict, order: Sequence[str], packed: bool = True) -> bytes:
    """A tf.train.Example of name -> (kind, values); int64 lists packed or not."""
    entries = []
    for name in order:
        kind, values = features[name]
        if kind == "int64" and packed:
            items = length_delimited(1, b"".join(varint(v) for v in values))
        elif kind == "int64":
            items = b"".join(varint(1 << 3) + varint(v) for v in values)
        else:
            items = length_delimited(1, struct.pack(f"<{len(values)}f", *values))
        feature = length_delimited(3 if kind == "int64" else 2, items)
        entry = length_delimited(1, name.encode("utf-8")) + length_delimited(2, feature)
        entries.append(length_delimited(1, entry))
    return length_delimited(1, b"".join(entries))
