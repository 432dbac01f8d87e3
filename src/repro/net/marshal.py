"""Payload size estimation and wire encoding.

The simulator charges marshaling time as a function of payload size
(Table 1: >50 us per 1 KB object). :func:`estimate_size` gives a
deterministic, codec-independent size for arbitrary Python payloads;
:class:`JsonCodec` provides a real encode/decode for cases where bytes
actually travel (e.g. storage contents).
"""

from __future__ import annotations

import json
from typing import Any

#: Fixed per-message envelope: headers, method, URL, status line...
REST_ENVELOPE_BYTES = 512
#: Compact binary framing used by stateful session protocols.
SESSION_FRAME_BYTES = 32


def estimate_size(obj: Any) -> int:
    """Deterministic wire-size estimate (bytes) for a payload.

    Containers pay a small per-element overhead; scalars pay typical
    binary sizes. ``bytes`` payloads are exact.
    """
    # Exact-type checks first: strings, numbers and dicts are what
    # every invoke carries. Every other type (None, bool, subclasses,
    # bytes, sequences, sized payloads, capability references) takes
    # the isinstance ladder in _estimate_other.
    kind = type(obj)
    if kind is str:
        return len(obj) if obj.isascii() else len(obj.encode("utf-8"))
    if kind is int or kind is float:
        return 8
    if kind is not dict and not isinstance(obj, dict):
        return _estimate_other(obj)
    size = 8
    for key, value in obj.items():
        size += estimate_size(key) + estimate_size(value) + 4
    return size


def _estimate_other(obj: Any) -> int:
    """:func:`estimate_size` of anything but a str, int, float or dict
    of exactly that type (dict subclasses excepted: the caller sizes
    them)."""
    if obj is None:
        return 1
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, (list, tuple, set, frozenset)):
        size = 8
        for item in obj:
            size += estimate_size(item) + 2
        return size
    # Capability references travel as fixed-size opaque tokens.
    if hasattr(obj, "cap_id") and hasattr(obj, "rights"):
        return 64
    # Objects that describe their own payload size (e.g. SizedPayload).
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    raise TypeError(f"cannot estimate wire size of {type(obj).__name__}")


class SizedPayload:
    """A payload that *represents* ``nbytes`` of data without storing it.

    Workloads move gigabytes through the simulator; materializing the
    bytes would be wasteful. A :class:`SizedPayload` carries the size
    (and an optional small ``meta`` dict) instead.
    """

    __slots__ = ("nbytes", "meta")

    def __init__(self, nbytes: int, meta: Any = None):
        if nbytes < 0:
            raise ValueError("negative payload size")
        self.nbytes = nbytes
        self.meta = meta

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SizedPayload)
                and other.nbytes == self.nbytes and other.meta == self.meta)

    def __repr__(self) -> str:
        return f"<SizedPayload {self.nbytes}B meta={self.meta!r}>"


class JsonCodec:
    """A real codec for payloads that must round-trip exactly."""

    def encode(self, obj: Any) -> bytes:
        """Serialize ``obj`` (JSON-compatible) to bytes."""
        return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode()

    def decode(self, data: bytes) -> Any:
        """Inverse of :meth:`encode`."""
        return json.loads(data.decode())
