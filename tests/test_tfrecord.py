"""Record framing, CRC32C, and Example wire-format round trips."""

from __future__ import annotations

import random
import signal
import struct
import subprocess
import sys
import tracemalloc

import codec_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusprep import tfrecord
from corpusprep.errors import CorruptRecord, IoError
from corpusprep.tfrecord import (
    crc32c,
    example_writer,
    frame_record,
    masked_crc32c,
    parse_example,
    read_framed,
)


class TestCrc32c:
    def test_known_answer_check_string(self):
        # canonical CRC-32C test vector
        assert crc32c(b"123456789") == 0xE3069283

    def test_empty_input(self):
        assert crc32c(b"") == 0

    def test_mask_of_zero(self):
        # crc 0: rotation contributes nothing, only the delta remains
        data = b""
        assert masked_crc32c(data) == 0xA282EAD8

    def test_mask_is_rotate_then_add(self):
        for data in (b"123456789", b"abc", bytes(range(32))):
            c = crc32c(data)
            expected = (((c >> 15) | (c << 17)) + 0xA282EAD8) & 0xFFFFFFFF
            assert masked_crc32c(data) == expected

    def test_single_bit_sensitivity(self):
        assert crc32c(b"\x00" * 8) != crc32c(b"\x00" * 7 + b"\x01")

    def test_import_leaves_the_rows_unbuilt(self):
        # the rows are built by the first CRC, so a run's setup never pays for them
        code = "import corpusprep; print(corpusprep.tfrecord._crc_rows.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "0\n")


class TestFraming:
    def test_frame_layout(self):
        payload = b"payload-bytes"
        rec = frame_record(payload)
        assert len(rec) == 8 + 4 + len(payload) + 4
        (length,) = struct.unpack("<Q", rec[:8])
        assert length == len(payload)
        assert rec[12:-4] == payload

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "r.tfrecord"
        payloads = [b"", b"a", b"teine", bytes(range(256))]
        path.write_bytes(b"".join(frame_record(p) for p in payloads))
        assert [payload for _, payload in read_framed(str(path))] == payloads

    def test_empty_file_yields_nothing(self, tmp_path):
        p = tmp_path / "empty.tfrecord"
        p.write_bytes(b"")
        assert list(read_framed(str(p))) == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            list(read_framed(str(tmp_path / "absent")))

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "t.tfrecord"
        p.write_bytes(b"\x01\x02\x03")
        with pytest.raises(CorruptRecord) as exc:
            list(read_framed(str(p)))
        assert exc.value.which_crc == "length"

    def test_truncated_payload(self, tmp_path):
        rec = frame_record(b"andmed siin")
        p = tmp_path / "t.tfrecord"
        p.write_bytes(rec[:-6])
        with pytest.raises(CorruptRecord) as exc:
            list(read_framed(str(p)))
        assert exc.value.which_crc == "data"

    def test_corrupt_offset_points_at_record_start(self, tmp_path):
        first = frame_record(b"esimene")
        second = bytearray(frame_record(b"teine"))
        second[14] ^= 0xFF  # somewhere in the second payload
        p = tmp_path / "t.tfrecord"
        p.write_bytes(first + bytes(second))
        with pytest.raises(CorruptRecord) as exc:
            list(read_framed(str(p)))
        assert exc.value.offset == len(first)

    def test_reads_one_record_at_a_time(self, tmp_path):
        payloads = [bytes([k]) * 4096 for k in range(256)]
        path = tmp_path / "big.tfrecord"
        path.write_bytes(b"".join(frame_record(p) for p in payloads) * 8)
        assert path.stat().st_size >= 8 * 2**20
        tracemalloc.start()
        try:
            count = sum(1 for _ in read_framed(str(path)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 8 * 256
        assert peak < 2**20

    def test_every_single_byte_flip_detected(self, tmp_path):
        payloads = [b"esimene kirje", b"x", bytes(range(40))]
        clean = b"".join(frame_record(p) for p in payloads)
        p = tmp_path / "flip.tfrecord"
        for i in range(len(clean)):
            corrupted = bytearray(clean)
            corrupted[i] ^= 0x01
            p.write_bytes(bytes(corrupted))
            with pytest.raises(CorruptRecord):
                list(read_framed(str(p)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.binary(min_size=0, max_size=64), min_size=0, max_size=8))
def test_framed_round_trip_property(tmp_path_factory, payloads):
    path = tmp_path_factory.mktemp("fr") / "r.tfrecord"
    path.write_bytes(b"".join(frame_record(p) for p in payloads))
    assert [payload for _, payload in read_framed(str(path))] == payloads


def test_read_framed_yields_each_record_offset(tmp_path):
    payloads = [b"", b"a", b"teine", bytes(range(256)), b"x" * 300]
    path = tmp_path / "r.tfrecord"
    path.write_bytes(b"".join(frame_record(p) for p in payloads))
    starts = [sum(16 + len(p) for p in payloads[:k]) for k in range(len(payloads))]
    assert list(read_framed(str(path))) == list(zip(starts, payloads))


def test_varint_matches_reference_loop():
    values = [*range(2**16 + 1), 2**21, 2**35, 2**63 - 1]
    for value in values:
        assert tfrecord._varint(value) == codec_oracle.varint(value), value


def write_features(features, order):
    """features (name -> (kind, values)) through a writer prepared for their names and kinds."""
    write = example_writer([(name, features[name][0]) for name in order])
    return write(*(features[name][1] for name in order))


class TestExampleEncoding:
    def test_round_trip_mixed_features(self):
        features = {
            "ids": ("int64", [1, 2, 3, 300, 70000]),
            "weights": ("float", [1.0, 0.0, 0.5]),
            "label": ("int64", [1]),
        }
        payload = write_features(features, ["ids", "weights", "label"])
        parsed = parse_example(payload)
        assert parsed["ids"] == ("int64", [1, 2, 3, 300, 70000])
        assert parsed["label"] == ("int64", [1])
        kind, weights = parsed["weights"]
        assert kind == "float"
        assert weights == pytest.approx([1.0, 0.0, 0.5])

    def test_empty_lists_round_trip(self):
        payload = write_features({"ids": ("int64", [])}, ["ids"])
        assert parse_example(payload)["ids"] == ("int64", [])

    def test_feature_order_changes_bytes_not_content(self):
        features = {"a": ("int64", [1]), "b": ("int64", [2])}
        p1 = write_features(features, ["a", "b"])
        p2 = write_features(features, ["b", "a"])
        assert p1 != p2
        assert parse_example(p1) == parse_example(p2)

    def test_unsupported_kind_rejected(self):
        with pytest.raises(ValueError):
            write_features({"x": ("bytes", [b"no"])}, ["x"])

    def test_one_writer_encodes_many_records(self):
        write = example_writer([("ids", "int64"), ("w", "float")])
        for ids, weights in [([1, 300], [0.5]), ([], []), ([2**14], [1.0, 0.0])]:
            payload = write(ids, weights)
            assert payload == codec_oracle.encode_example(
                {"ids": ("int64", ids), "w": ("float", weights)}, ["ids", "w"]
            )
            assert parse_example(payload) == {"ids": ("int64", ids), "w": ("float", weights)}

    @pytest.mark.parametrize("lists", [([1],), ([1], [0.5], [2])])
    def test_value_lists_must_match_the_schema(self, lists):
        with pytest.raises(ValueError):
            example_writer([("ids", "int64"), ("w", "float")])(*lists)

    def test_negative_int64_rejected(self):
        # a plain varint of a negative value never ends (-1 >> 7 == -1), so an
        # interval timer turns a hang into a failure within two seconds
        def hang(signum, frame):
            raise TimeoutError("the writer did not return")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            with pytest.raises(ValueError):
                write_features({"ids": ("int64", [3, -1])}, ["ids"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def test_int64_max_round_trips_and_past_it_rejected(self):
        top = 2**63 - 1
        payload = write_features({"ids": ("int64", [0, top])}, ["ids"])
        assert parse_example(payload) == {"ids": ("int64", [0, top])}
        for too_big in (2**63, 2**64, 2**70):
            with pytest.raises(ValueError):
                write_features({"ids": ("int64", [1, too_big])}, ["ids"])

    def test_unpacked_int64_accepted(self):
        # wire-compatible unpacked encoding: repeated field 1, varint each
        def varint(v):
            out = bytearray()
            while True:
                bits = v & 0x7F
                v >>= 7
                if v:
                    out.append(bits | 0x80)
                else:
                    out.append(bits)
                    return bytes(out)

        def ld(field, payload):
            return varint((field << 3) | 2) + varint(len(payload)) + payload

        int64_list = b"".join(varint(1 << 3 | 0) + varint(v) for v in [7, 8, 9])
        feature = ld(3, int64_list)
        entry = ld(1, b"ids") + ld(2, feature)
        payload = ld(1, ld(1, entry))
        assert parse_example(payload)["ids"] == ("int64", [7, 8, 9])

    def test_unpacked_float_accepted(self):
        def varint(v):
            return bytes([v]) if v < 128 else b""

        def ld(field, payload):
            return varint((field << 3) | 2) + varint(len(payload)) + payload

        one_float = bytes([1 << 3 | 5]) + struct.pack("<f", 2.5)
        feature = ld(2, one_float + one_float)
        entry = ld(1, b"w") + ld(2, feature)
        payload = ld(1, ld(1, entry))
        kind, values = parse_example(payload)["w"]
        assert kind == "float"
        assert values == pytest.approx([2.5, 2.5])

    def test_unknown_fields_of_every_wire_type_ignored(self):
        payload = codec_oracle.encode_example({"ids": ("int64", [5, 300])}, ["ids"])
        # field 2 as a varint, fixed64, length-delimited and fixed32 field
        extra = b"\x10\x96\x01" + b"\x11" + bytes(8) + b"\x12\x02ab" + b"\x15" + bytes(4)
        assert parse_example(payload + extra) == parse_example(payload)

    @pytest.mark.parametrize(
        "tail",
        [b"\x11" + bytes(7), b"\x15" + bytes(3), b"\x12\x05abcd", b"\x10\x96", b"\x10"],
        ids=["fixed64", "fixed32", "length-delimited", "varint", "varint-missing"],
    )
    def test_truncated_trailing_field_rejected(self, tail):
        payload = codec_oracle.encode_example({"ids": ("int64", [5])}, ["ids"])
        with pytest.raises(ValueError):
            parse_example(payload + tail)


_rng_features = st.dictionaries(
    st.text(alphabet="abcdefgh_", min_size=1, max_size=12),
    st.one_of(
        st.tuples(st.just("int64"), st.lists(st.integers(min_value=0, max_value=2**40), max_size=20)),
        st.tuples(st.just("float"), st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False), max_size=20)),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(_rng_features)
def test_example_round_trip_property(features):
    order = sorted(features)
    parsed = parse_example(write_features(features, order))
    assert set(parsed) == set(features)
    for name, (kind, values) in features.items():
        got_kind, got_values = parsed[name]
        assert got_kind == kind
        if kind == "int64":
            assert got_values == list(values)
        else:
            assert got_values == pytest.approx(list(values))


def test_thousand_random_examples_round_trip(tmp_path):
    rng = random.Random(2718)
    payloads = []
    for _ in range(1000):
        n = rng.randint(0, 30)
        features = {
            "ids": ("int64", [rng.randint(0, 50000) for _ in range(n)]),
            "w": ("float", [rng.random() for _ in range(rng.randint(0, 8))]),
        }
        payloads.append(codec_oracle.encode_example(features, ["ids", "w"]))
    path = tmp_path / "big.tfrecord"
    path.write_bytes(b"".join(frame_record(p) for p in payloads))
    assert [payload for _, payload in read_framed(str(path))] == payloads


# --- fast paths against the byte-at-a-time oracle -------------------------------

# the varint length edges (1, 2 and 3 bytes) and the largest int64 (9 bytes)
_EDGE_INT64 = [0, 127, 128, 2**14 - 1, 2**14, 2**63 - 1]
_int64_lists = st.lists(
    st.one_of(st.sampled_from(_EDGE_INT64), st.integers(0, 255), st.integers(0, 2**63 - 1)),
    max_size=24,
)


def _one_block_example(name, block):
    """An Example whose one int64 feature holds `block` as its packed list."""
    ld = codec_oracle.length_delimited
    return ld(1, ld(1, ld(1, name.encode("utf-8")) + ld(2, ld(3, ld(1, block)))))


class TestCodecOracle:
    @pytest.mark.parametrize("length", range(18))  # the byte-table tails (0-3) and short blocks
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_crc32c_every_short_length(self, length, data):
        blob = data.draw(st.binary(min_size=length, max_size=length))
        assert crc32c(blob) == codec_oracle.crc32c(blob)
        assert masked_crc32c(blob) == codec_oracle.masked_crc32c(blob)

    @pytest.mark.parametrize("length", [k * 1024 + d for k in (1, 2, 3) for d in range(-5, 6)])
    def test_crc32c_block_boundaries(self, length):
        # around each 1,024-byte block edge: the register carried in, a tail under 4 bytes
        blob = random.Random(length).randbytes(length)
        assert crc32c(blob) == codec_oracle.crc32c(blob)
        assert masked_crc32c(blob) == codec_oracle.masked_crc32c(blob)

    def test_crc32c_random_lengths(self):
        rng = random.Random(20_000)
        for _ in range(200):
            blob = rng.randbytes(rng.randrange(20_001))
            assert crc32c(blob) == codec_oracle.crc32c(blob), len(blob)
            assert masked_crc32c(blob) == codec_oracle.masked_crc32c(blob), len(blob)

    @settings(max_examples=100, deadline=None)
    @given(st.binary(min_size=18, max_size=3000))
    def test_crc32c_long_data(self, blob):
        assert crc32c(blob) == codec_oracle.crc32c(blob)

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=600))
    def test_frame_record(self, payload):
        assert frame_record(payload) == codec_oracle.frame_record(payload)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.sampled_from(["ids", "mask", "x"]), _int64_lists, min_size=1))
    def test_encode_and_parse_int64_lists(self, lists):
        features = {name: ("int64", values) for name, values in lists.items()}
        order = sorted(features)
        assert write_features(features, order) == codec_oracle.encode_example(features, order)
        for packed in (True, False):
            payload = codec_oracle.encode_example(features, order, packed=packed)
            assert parse_example(payload) == features

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.binary(max_size=9), st.integers(0, 0x7F)), max_size=16))
    def test_packed_block_mixing_varint_widths(self, varints):
        # up to nine continuation bytes, then a last byte (0x01 at most after nine)
        block = b"\x05\x96\x01" + b"".join(
            bytes(x | 0x80 for x in more) + bytes([last if len(more) < 9 else last & 1])
            for more, last in varints
        )
        expected = codec_oracle.packed_varints(block)
        assert expected[:2] == [5, 150]
        assert parse_example(_one_block_example("ids", block)) == {"ids": ("int64", expected)}


class TestVarintBound:
    def test_ten_byte_varint_up_to_64_bits_accepted(self):
        block = bytes([0xFF] * 9 + [0x01])
        assert parse_example(_one_block_example("ids", block)) == {"ids": ("int64", [2**64 - 1])}

    @pytest.mark.parametrize("last", [0x02, 0x7F, 0x80, 0xFF])
    def test_varint_past_64_bits_rejected(self, last):
        block = bytes([0xFF] * 9 + [last, 0x00])
        with pytest.raises(ValueError, match="varint exceeds 64 bits"):
            parse_example(_one_block_example("ids", block))

    def test_overlong_field_key_rejected(self):
        with pytest.raises(ValueError, match="varint exceeds 64 bits"):
            parse_example(bytes([0x88] + [0xFF] * 8 + [0x7F]))


class TestLengthCrc:
    @pytest.mark.parametrize("bit", [0, 13, 31])
    def test_flipped_length_crc_bit(self, tmp_path, bit):
        payload = bytes(range(7)) * 1000
        first = codec_oracle.frame_record(b"kirje")
        second = bytearray(codec_oracle.frame_record(payload))
        second[8 + bit // 8] ^= 1 << (bit % 8)
        path = tmp_path / "h.tfrecord"
        path.write_bytes(first + bytes(second))
        records = read_framed(str(path))
        assert next(records) == (0, b"kirje")
        with pytest.raises(CorruptRecord, match="length CRC mismatch") as exc:
            next(records)
        assert (exc.value.offset, exc.value.which_crc) == (len(first), "length")

    def test_flipped_length_crc_bit_after_a_record_of_that_length(self, tmp_path):
        # the first record's header is memoized by its length; the second must not match it
        first = codec_oracle.frame_record(b"kirje")
        second = bytearray(codec_oracle.frame_record(b"teine"))
        second[8] ^= 1
        path = tmp_path / "h.tfrecord"
        path.write_bytes(first + bytes(second))
        records = read_framed(str(path))
        assert next(records) == (0, b"kirje")
        with pytest.raises(CorruptRecord, match="length CRC mismatch") as exc:
            next(records)
        assert (exc.value.offset, exc.value.which_crc) == (len(first), "length")
