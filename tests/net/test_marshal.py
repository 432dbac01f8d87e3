"""Tests for payload size estimation and the JSON codec."""

from collections import OrderedDict
from enum import IntEnum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import JsonCodec, SizedPayload, estimate_size
from repro.security.capabilities import CapabilityRegistry


def test_scalar_sizes():
    assert estimate_size(None) == 1
    assert estimate_size(True) == 1
    assert estimate_size(42) == 8
    assert estimate_size(3.14) == 8
    assert estimate_size(b"abc") == 3
    assert estimate_size("héllo") == len("héllo".encode())


def test_container_sizes_grow_with_content():
    small = estimate_size({"k": "v"})
    big = estimate_size({"k": "v" * 1000})
    assert big > small + 900


def test_sized_payload_reports_declared_size():
    payload = SizedPayload(1024 * 1024, meta={"kind": "image"})
    assert estimate_size(payload) == 1024 * 1024


def test_sized_payload_validation_and_equality():
    with pytest.raises(ValueError):
        SizedPayload(-1)
    assert SizedPayload(10, meta="x") == SizedPayload(10, meta="x")
    assert SizedPayload(10) != SizedPayload(11)


def test_unknown_type_rejected():
    class Opaque:
        pass

    with pytest.raises(TypeError):
        estimate_size(Opaque())


def test_codec_round_trip():
    codec = JsonCodec()
    obj = {"a": [1, 2, 3], "b": {"nested": True}, "c": None}
    assert codec.decode(codec.encode(obj)) == obj


def test_codec_deterministic():
    codec = JsonCodec()
    assert codec.encode({"b": 1, "a": 2}) == codec.encode({"a": 2, "b": 1})


@given(st.recursive(
    st.none() | st.booleans() | st.integers(-2**31, 2**31)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20))
def test_estimate_size_total_and_nonnegative(obj):
    assert estimate_size(obj) >= 0


# -- subclasses of the built-in types and opaque references --------------
class _Level(IntEnum):
    LOW = 1
    HIGH = 70000


class _Tag(str):
    """A str subclass whose wire form differs from its utf-8 bytes."""

    def encode(self, *args, **kwargs):
        return b"<" + super().encode(*args, **kwargs) + b">"


_CAPS = CapabilityRegistry()


def test_subclass_and_capability_sizes():
    assert estimate_size(_Tag("ab")) == 4
    assert estimate_size(_Level.HIGH) == 8
    assert estimate_size(OrderedDict(a=True)) == 8 + 1 + 1 + 4
    assert estimate_size(_CAPS.mint("x")) == 64


# -- the size of every payload kind, pinned ------------------------------
class _Real(float):
    pass


class _Declared:
    """Describes its own size, like SizedPayload."""

    nbytes = 77


@pytest.mark.parametrize("obj, size", [
    (None, 1),
    (True, 1),
    (False, 1),
    (0, 8),
    (-5, 8),
    (2 ** 70, 8),
    (_Level.HIGH, 8),
    (3.5, 8),
    (_Real(1.5), 8),
    (b"", 0),
    (b"abc", 3),
    (bytearray(b"abcd"), 4),
    ("", 0),
    ("abc", 3),
    ("héllo", 6),
    ("日本", 6),
    ("\U0001F600", 4),
    (_Tag("ab"), 4),
    ([], 8),
    ([1, "a"], 8 + (8 + 2) + (1 + 2)),
    ((None,), 8 + 1 + 2),
    ({1, 2}, 8 + 2 * (8 + 2)),
    (frozenset({"xy"}), 8 + 2 + 2),
    ({}, 8),
    ({"k": "v"}, 8 + 1 + 1 + 4),
    ({"é": "日本"}, 8 + 2 + 6 + 4),
    ({"a": {"b": [1.0, None]}},
     8 + 1 + (8 + 1 + (8 + (8 + 2) + (1 + 2)) + 4) + 4),
    ([{"n": 1}, ("t", b"xy")], 8 + (8 + 1 + 8 + 4 + 2)
     + (8 + (1 + 2) + (2 + 2) + 2)),
    (OrderedDict(a=True), 8 + 1 + 1 + 4),
    (SizedPayload(1024), 1024),
    (_Declared(), 77),
    (_CAPS.mint("y"), 64),
], ids=repr)
def test_estimate_size_table(obj, size):
    assert estimate_size(obj) == size


def test_non_int_declared_size_is_rejected():
    class Vague:
        nbytes = 1.5

    with pytest.raises(TypeError):
        estimate_size(Vague())
    with pytest.raises(TypeError):
        estimate_size({"k": [object()]})
