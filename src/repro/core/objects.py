"""The PCSI object model: "everything is a file" (§3.2).

Objects come in the paper's five basic kinds — directories, regular
files, FIFOs, sockets, and device interfaces to system services. Like
POSIX, different kinds implement the common interface differently;
unlike POSIX, every object carries two extra pieces of metadata that
shape how the system may implement it:

* a **mutability level** (Figure 1), and
* a **consistency level** (§3.3's two-entry menu).

The kernel's *object table* stores these records; regular-file
*content* lives in the data layer (:mod:`repro.core.consistency`),
keyed by object id. FIFO and socket queues are transient kernel state
pinned to a host node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional

from ..security.capabilities import Right
from .errors import ObjectTypeError
from .mutability import Mutability


class ObjectKind(Enum):
    """The basic object types of §3.2."""

    REGULAR = "regular"
    DIRECTORY = "directory"
    FIFO = "fifo"
    SOCKET = "socket"
    DEVICE = "device"


class Consistency(Enum):
    """§3.3's deliberately small menu: one strong level, one weak."""

    LINEARIZABLE = "linearizable"
    EVENTUAL = "eventual"


@dataclass
class DirEntry:
    """A named edge from a directory to an object.

    The entry records the rights a resolver may obtain through this
    name — resolution attenuates, it never amplifies.
    """

    object_id: str
    rights: Right
    whiteout: bool = False  # union-fs deletion marker


@dataclass
class PCSIObject:
    """One row of the kernel object table."""

    object_id: str
    kind: ObjectKind
    mutability: Mutability = Mutability.MUTABLE
    consistency: Consistency = Consistency.LINEARIZABLE
    size: int = 0
    created_at: float = 0.0
    meta: Any = None
    #: FIFO/socket/device state is pinned to a node for latency modeling.
    host_node: Optional[str] = None
    #: Ephemeral objects hold intermediate data "intended only for the
    #: next task" (§4.1): content lives in memory on the writer's node
    #: instead of the replicated data layer, so a co-located consumer
    #: pays a device copy rather than a quorum round trip.
    ephemeral: bool = False
    #: Directory entries (DIRECTORY kind only).
    entries: Dict[str, DirEntry] = field(default_factory=dict)
    #: Union lower layers (DIRECTORY kind only): list of object_ids,
    #: top-most first; the object's own entries are the writable layer.
    lower_layers: Any = None

    def require_kind(self, kind: ObjectKind) -> "PCSIObject":
        """Assert the object is of ``kind``; returns self for chaining."""
        if self.kind != kind:
            raise ObjectTypeError(
                f"object {self.object_id} is {self.kind.value}, "
                f"expected {kind.value}")
        return self

    @property
    def is_directory(self) -> bool:
        return self.kind == ObjectKind.DIRECTORY

    @property
    def is_union(self) -> bool:
        """True for directories with lower layers mounted."""
        return self.is_directory and bool(self.lower_layers)


class ObjectTable:
    """The kernel's metadata table: object_id -> PCSIObject.

    A real implementation replicates this control plane; here lookups
    are charged a flat control-plane latency by the kernel facade.
    """

    def __init__(self):
        self._objects: Dict[str, PCSIObject] = {}
        self._ids = itertools.count(1)

    def new_id(self) -> str:
        """Allocate a fresh object id."""
        return f"o{next(self._ids)}"

    def insert(self, obj: PCSIObject) -> PCSIObject:
        """Register a new object."""
        if obj.object_id in self._objects:
            raise ValueError(f"duplicate object id {obj.object_id}")
        self._objects[obj.object_id] = obj
        return obj

    def get(self, object_id: str) -> Optional[PCSIObject]:
        """Fetch a row, or None."""
        return self._objects.get(object_id)

    def remove(self, object_id: str) -> Optional[PCSIObject]:
        """Delete a row (GC sweep)."""
        return self._objects.pop(object_id, None)

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def all_ids(self):
        """Snapshot of every live object id."""
        return list(self._objects.keys())
