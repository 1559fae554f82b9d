"""TFRecord framing and tf.train.Example wire encoding, bit-exact.

Each record is framed as: u64 little-endian payload length, u32 LE masked
CRC32C of those 8 length bytes, the payload, u32 LE masked CRC32C of the
payload.  CRC32C uses the Castagnoli polynomial; the mask is
((c >> 15) | (c << 17)) + 0xa282ead8 mod 2^32.

Payloads are hand-rolled protocol-buffer messages: Example (field 1 =
Features), Features (field 1 = repeated map entry of name string to
Feature), Feature (field 2 = FloatList, field 3 = Int64List, both packed on
write).  A payload's structural bytes (tags, name fields, nested lengths)
depend only on the sizes of its value blocks.  example_writer and
example_reader take the schema (feature names and kinds, in wire order)
once.  The writer joins each record's packed blocks with the heads memoized
for their sizes; int64 values are plain varints, so a negative value or one
above 2^63 - 1 raises ValueError.  The reader reads the block sizes once per
payload length and checks each payload of that length against their heads.
A payload of any other layout is left to parse_example, whose field
iterator, _fields, every message level loops over, keeping the fields it
knows and passing over the rest; it rejects a varint, length-delimited,
fixed64 or fixed32 field that runs past the end of its message, and a
varint of more than 64 bits.  It accepts packed and unpacked list encodings.

The codec's hot loops have fast paths that give the same bytes and values:
CRC32C is one GF(2)-linear map per block of up to 1,024 bytes (32
AND-and-popcounts per block; its rows are built on first use) and a
record's 12 header bytes are memoized by payload length; an int64 list of
values below 0x80 is packed as its bytes, and a packed block of ASCII bytes
is parsed as its bytes.  tests/codec_oracle.py keeps the
byte-at-a-time codec they are checked against.
"""

from __future__ import annotations

import functools
import os
import struct
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import CorruptRecord, IoError

_MASK_DELTA = 0xA282EAD8
_U32 = 0xFFFFFFFF


def _crc_byte(crc: int) -> int:
    for _ in range(8):
        crc = (crc >> 1) ^ 0x82F63B78 if crc & 1 else crc >> 1
    return crc


_CRC_TABLE = [_crc_byte(byte) for byte in range(256)]  # Castagnoli polynomial, reflected form
_CRC_BLOCK = 1024  # bytes per step of the linear map


@functools.cache
def _crc_rows() -> Tuple[int, ...]:
    """The 32 rows of the GF(2) matrix taking a block, from register 0, to the register after it.

    Bit 8q + b of a block read as a big-endian integer is bit b of the byte
    followed by q more; row k holds there bit k of the register after byte
    1 << b and q zero bytes.  Leading zero bytes leave register 0 at 0, so the
    rows serve every block of up to _CRC_BLOCK bytes.  Columns are made and
    transposed 1,024 at a time to keep the build's peak memory small.
    """
    last = [_CRC_TABLE[1 << b] for b in range(8)]  # the columns of q = 0
    rows = [0] * 32
    for start in range(0, 8 * _CRC_BLOCK, 1024):
        columns = []
        for _ in range(128):
            columns += last
            last = [(crc >> 8) ^ _CRC_TABLE[crc & 0xFF] for crc in last]
        # bit k of column j sits at string index 32 * (1023 - j) + 31 - k
        bits = format(int.from_bytes(struct.pack("<1024I", *columns), "little"), "032768b")
        for k in range(32):
            rows[k] |= int(bits[31 - k :: 32], 2) << start
    return tuple(rows)


def crc32c(data: bytes) -> int:
    rows = _crc_rows()
    crc = _U32
    for start in range(0, len(data), _CRC_BLOCK):
        block = data[start : start + _CRC_BLOCK]
        if len(block) < 4:  # too short to fold the register into
            for byte in block:
                crc = _CRC_TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
            continue
        # fold the register into the block's first four bytes; the block then runs from 0
        swapped = int.from_bytes(crc.to_bytes(4, "little"), "big")
        m = int.from_bytes(block, "big") ^ swapped << (8 * len(block) - 32)
        crc = sum(((row & m).bit_count() & 1) << k for k, row in enumerate(rows))
    return crc ^ _U32


def masked_crc32c(data: bytes) -> int:
    crc = crc32c(data)
    return (((crc >> 15) | (crc << 17)) + _MASK_DELTA) & _U32


FeatureValue = Union[Sequence[int], Sequence[float]]
# name -> ("int64" | "float", values)
FeatureDict = Dict[str, Tuple[str, FeatureValue]]


def _varint(value: int) -> bytes:
    if value < 0x80:
        return bytes((value,))
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _length_delimited(field_number: int, payload: bytes) -> bytes:
    return _varint((field_number << 3) | 2) + _varint(len(payload)) + payload


_LIST_FIELDS = {"int64": 3, "float": 2}  # list kind -> its Feature field number
_LAYOUTS = 256  # layouts memoized per writer or reader, by block sizes and by payload length


def _block(kind: str, values: FeatureValue) -> bytes:
    """One feature's packed list: varints for int64, little-endian float32s for float."""
    if kind == "float":
        return struct.pack(f"<{len(values)}f", *values)
    try:
        block = bytes(values)
    except ValueError:  # a value outside 0-255
        block = b"\x80"
    if block.isascii():  # every value is below 0x80, so a one-byte varint: the byte itself
        return block
    if min(values, default=0) < 0:
        raise ValueError("int64 values must be non-negative")
    if max(values, default=0) >= 1 << 63:
        raise ValueError("int64 values must not exceed 2**63 - 1")
    return b"".join(map(_varint, values))


def _layouts(schema: Sequence[Tuple[str, str]]) -> Tuple[List[Tuple[bytes, ...]], Callable]:
    """Each feature's field prefixes, and the memoized layout of the Example of given block sizes.

    A feature's four nested fields run up to their lengths, outermost first:
    the map entry's tag, its key field and the Feature's tag, the list's tag,
    the block's tag.  layout(sizes) is (heads, offsets, block spans); a head,
    at its offset, is the structural bytes before its block.
    """
    for _name, kind in schema:
        if kind not in _LIST_FIELDS:
            raise ValueError(f"unsupported feature kind {kind!r}")
    if not schema:
        raise ValueError("an Example schema needs at least one feature")
    prefixes = [(b"\x0a", _length_delimited(1, name.encode("utf-8")) + b"\x12",
                 bytes((_LIST_FIELDS[kind] << 3 | 2,)), b"\x0a") for name, kind in schema]

    @functools.lru_cache(maxsize=_LAYOUTS)
    def layout(sizes: Tuple[int, ...]) -> tuple:
        heads = []
        for fields, size in zip(prefixes, sizes):
            head = b""
            for prefix in reversed(fields):  # innermost first: a length covers all after it
                head = prefix + _varint(len(head) + size) + head
            heads.append(head)
        heads[0] = b"\x0a" + _varint(sum(map(len, heads)) + sum(sizes)) + heads[0]
        offsets, spans, pos = [], [], 0
        for head, size in zip(heads, sizes):
            offsets.append(pos)
            pos += len(head) + size
            spans.append((pos - size, pos))
        return tuple(heads), tuple(offsets), tuple(spans)

    return prefixes, layout


def example_writer(schema: Sequence[Tuple[str, str]]) -> Callable[..., bytes]:
    """The tf.train.Example encoder of these (feature name, kind) pairs, in wire order.

    The encoder takes one value list per feature, in schema order, and returns
    the Example payload: each list's packed block behind its head, from the
    layout memoized for the blocks' sizes.
    """
    _prefixes, layout = _layouts(schema)
    kinds = [kind for _name, kind in schema]

    def encode(*lists: FeatureValue) -> bytes:
        blocks = [_block(kind, values) for kind, values in zip(kinds, lists, strict=True)]
        heads = layout(tuple(map(len, blocks)))[0]
        return b"".join([part for pair in zip(heads, blocks) for part in pair])

    return encode


def _varint_at(data: bytes, pos: int) -> Tuple[int, int]:
    """The varint starting at data[pos] and the position just after it.

    A varint holds at most 64 bits: ten bytes, the tenth no more than 0x01.
    """
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint")
        byte = data[pos]
        pos += 1
        if shift == 63 and byte > 0x01:
            raise ValueError("varint exceeds 64 bits")
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7


_FIXED_SIZE = {1: 8, 5: 4}  # wire type -> bytes of a fixed64 / fixed32 field


def _fields(data: bytes) -> Iterator[Tuple[int, int, Union[int, bytes]]]:
    """Yield (field number, wire type, value) for each field of one message.

    A varint field's value is its int; a length-delimited, fixed64 or
    fixed32 field's value is its bytes.  A field that runs past the end of
    the message raises ValueError.
    """
    pos = 0
    while pos < len(data):
        key, pos = _varint_at(data, pos)
        wire = key & 0x7
        if wire == 0:
            value, pos = _varint_at(data, pos)
        else:
            if wire == 2:
                size, pos = _varint_at(data, pos)
            elif wire in _FIXED_SIZE:
                size = _FIXED_SIZE[wire]
            else:
                raise ValueError(f"unsupported wire type {wire}")
            if pos + size > len(data):
                raise ValueError(f"truncated field {key >> 3} (wire type {wire})")
            value = data[pos : pos + size]
            pos += size
        yield key >> 3, wire, value


def _packed_varints(data: bytes) -> Tuple[int, ...]:
    if data.isascii():  # every byte is a whole varint: its own value
        return tuple(data)
    values = []
    pos = 0
    while pos < len(data):
        value, pos = _varint_at(data, pos)
        values.append(value)
    return tuple(values)


def _floats(block: bytes) -> Tuple[float, ...]:
    if len(block) % 4:
        raise ValueError("packed float block not a multiple of 4 bytes")
    return struct.unpack(f"<{len(block) // 4}f", block)


_LIST_KINDS = {3: "int64", 2: "float"}  # Feature field number -> list kind
_BLOCK_READERS = {"int64": _packed_varints, "float": _floats}


def _parse_feature(data: bytes) -> Tuple[str, FeatureValue]:
    """A Feature's (kind, values); its list's field 1 may be packed or not."""
    kind, values = "int64", []
    for field, wire, body in _fields(data):
        if wire != 2 or field not in _LIST_KINDS:
            continue
        kind, values = _LIST_KINDS[field], []
        for item_field, item_wire, item in _fields(body):
            if item_field != 1:
                continue
            if kind == "int64" and item_wire == 0:
                values.append(item)
            elif (kind, item_wire) in (("int64", 2), ("float", 2), ("float", 5)):
                values.extend(_BLOCK_READERS[kind](item))
    return kind, values


def parse_example(payload: bytes) -> FeatureDict:
    """Decode an Example payload to name -> (kind, values)."""
    features: FeatureDict = {}
    for field, wire, feats in _fields(payload):
        if (field, wire) != (1, 2):
            continue
        for entry_field, entry_wire, entry in _fields(feats):
            if (entry_field, entry_wire) != (1, 2):
                continue
            name = None
            value: Tuple[str, FeatureValue] = ("int64", [])
            for part_field, part_wire, part in _fields(entry):
                if part_wire == 2 and part_field == 1:
                    name = part.decode("utf-8")
                elif part_wire == 2 and part_field == 2:
                    value = _parse_feature(part)
            if name is not None:
                features[name] = value
    return features


def example_reader(schema: Sequence[Tuple[str, str]]) -> Callable[[bytes], Optional[list]]:
    """The decoder of payloads that example_writer lays out for these (name, kind) pairs.

    It returns one tuple of values per feature, in schema order.  Block sizes
    are read once per payload length, and each payload of that length is
    checked against their layout's heads.  Any other layout, and any block that
    does not decode, gives None: parse_example then decodes it or names its fault.
    """
    prefixes, layout = _layouts(schema)
    readers = [_BLOCK_READERS[kind] for _name, kind in schema]
    memo: Dict[int, tuple] = {}  # payload length -> the layout last found at that length

    def decode(payload: bytes) -> Optional[list]:
        try:
            found = memo.get(len(payload))
            if found is None or not all(map(payload.startswith, *found[:2])):
                sizes, (_, pos) = [], _varint_at(payload, 1)
                for fields in prefixes:
                    for prefix in fields:
                        size, pos = _varint_at(payload, pos + len(prefix))
                    sizes.append(size)
                    pos += size
                found = layout(tuple(sizes))
                if pos != len(payload) or not all(map(payload.startswith, *found[:2])):
                    return None
                if len(payload) not in memo and len(memo) == _LAYOUTS:
                    del memo[next(iter(memo))]  # the oldest length
                memo[len(payload)] = found
            return [read(payload[start:end]) for read, (start, end) in zip(readers, found[2])]
        except ValueError:  # a varint that does not end or exceeds 64 bits
            return None

    decode.memo = memo  # the layouts held
    return decode


FRAME_OVERHEAD = 16  # bytes around each payload: length, length CRC, payload CRC


@functools.lru_cache(maxsize=256)
def _header(length: int) -> bytes:
    """The 12 header bytes of a record of this payload length: length, masked length CRC."""
    packed = struct.pack("<Q", length)
    return packed + struct.pack("<I", masked_crc32c(packed))


def frame_record(payload: bytes) -> bytes:
    """One TFRecord: length, masked length CRC, payload, masked payload CRC."""
    return _header(len(payload)) + payload + struct.pack("<I", masked_crc32c(payload))


def read_framed(path: str) -> Iterator[Tuple[int, bytes]]:
    """Yield (offset, payload) one record at a time, validating both CRCs of every record."""
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise IoError(f"cannot open {path}: {exc}") from exc
    with handle:
        total = os.fstat(handle.fileno()).st_size
        offset = 0
        while offset < total:
            header = handle.read(12)
            if len(header) < 12:
                raise CorruptRecord(path, offset, "length", "truncated record header")
            (length,) = struct.unpack_from("<Q", header)
            if header != _header(length):
                raise CorruptRecord(path, offset, "length", "length CRC mismatch")
            if offset + 12 + length + 4 > total:
                raise CorruptRecord(path, offset, "data", "truncated record payload")
            payload = handle.read(length)
            (stored_data_crc,) = struct.unpack("<I", handle.read(4))
            if stored_data_crc != masked_crc32c(payload):
                raise CorruptRecord(path, offset, "data", "payload CRC mismatch")
            yield offset, payload
            offset += FRAME_OVERHEAD + length
