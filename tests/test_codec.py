"""Canonical framing: unambiguous concatenation and strict decoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zkpoi.codec import Decoder, Encoder, canonical_json, frame_parts
from zkpoi.errors import DecodeError


@given(st.lists(st.binary(max_size=64), max_size=8))
def test_frame_parts_is_injective_on_part_lists(parts):
    # Distinct splits of the same concatenation must frame differently.
    framed = frame_parts(*parts)
    if parts:
        merged = [b"".join(parts)]
        if merged != parts:
            assert frame_parts(*merged) != framed


def test_frame_parts_separates_boundary_shifts():
    assert frame_parts(b"ab", b"c") != frame_parts(b"a", b"bc")
    assert frame_parts(b"", b"x") != frame_parts(b"x", b"")
    assert frame_parts(b"x") != frame_parts(b"x", b"")


@given(st.binary(max_size=200))
def test_frame_round_trip(blob):
    framed = frame_parts(blob)
    assert framed[4:] == blob
    assert int.from_bytes(framed[:4], "big") == len(blob)


def test_encoder_decoder_round_trip():
    blob = (Encoder("t:v1").put_bytes(b"raw").put_text("text")
            .put_u64(2**40).put_bool(True).put_opt_bytes(None)
            .put_opt_text("here").done())
    d = Decoder(blob, "t:v1")
    assert d.take_bytes() == b"raw"
    assert d.take_text() == "text"
    assert d.take_u64() == 2**40
    assert d.take_bool() is True
    assert d.take_opt_bytes() is None
    assert d.take_opt_text() == "here"
    d.finish()


def test_decoder_rejects_wrong_tag():
    blob = Encoder("t:v1").put_u64(1).done()
    with pytest.raises(DecodeError):
        Decoder(blob, "t:v2")


def test_decoder_rejects_trailing_bytes():
    blob = Encoder("t:v1").put_u64(1).done() + b"x"
    d = Decoder(blob, "t:v1")
    d.take_u64()
    with pytest.raises(DecodeError):
        d.finish()


def test_decoder_rejects_truncation():
    blob = Encoder("t:v1").put_bytes(b"abcdef").done()
    with pytest.raises(DecodeError):
        d = Decoder(blob[:-3], "t:v1")
        d.take_bytes()
        d.finish()


@given(st.binary(max_size=40), st.integers(0, 39))
def test_every_truncation_fails_loudly(payload, cut):
    blob = Encoder("t:v1").put_bytes(payload).put_u64(7).done()
    clipped = blob[: len(blob) - 1 - cut % len(blob)]
    with pytest.raises(DecodeError):
        d = Decoder(clipped, "t:v1")
        d.take_bytes()
        d.take_u64()
        d.finish()


def test_canonical_json_is_key_order_independent():
    assert canonical_json({"b": 1, "a": [2, {"z": 0, "y": 1}]}) == \
        canonical_json({"a": [2, {"y": 1, "z": 0}], "b": 1})


def test_invalid_utf8_optional_text_is_a_decode_error():
    blob = Encoder("T").put_opt_bytes(b"\xffbad").done()
    d = Decoder(blob, "T")
    with pytest.raises(DecodeError, match="utf-8"):
        d.take_opt_text()


class _FourGiB(bytes):
    """Claims 2**32 bytes without holding them."""

    def __len__(self):
        return 2**32


@pytest.mark.parametrize("encode", [frame_parts, lambda p: frame_parts(b"ok", p)],
                         ids=["frame", "frame_parts"])
def test_field_too_long_to_frame_is_a_value_error(encode):
    with pytest.raises(ValueError, match="too long to frame"):
        encode(_FourGiB())


def test_length_prefix_bounds():
    assert frame_parts(b"") == b"\x00\x00\x00\x00"
    assert frame_parts(b"a", b"") == b"\x00\x00\x00\x01a\x00\x00\x00\x00"


@pytest.mark.parametrize("blob", [b"\x00\x00", b"\x00\x00\x00\x01", b"\x00\x00\x00\x01T\x00"])
def test_short_prefix_or_overrun_is_a_decode_error(blob):
    with pytest.raises(DecodeError):
        d = Decoder(blob, "T")
        d.take_bytes()
