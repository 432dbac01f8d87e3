"""Datacenter topology: racks of nodes and distance queries.

The network model needs to know only three proximity classes — same
node (local), same rack, cross rack — which is what the placement
policies of §4.1 exploit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..sim.engine import Simulator
from .node import DEVICE_SPECS, DeviceSpec, Node
from .resources import ResourceVector, server_node


class Topology:
    """A set of nodes organized into racks."""

    def __init__(self):
        self._nodes: Dict[str, Node] = {}
        self._racks: Dict[str, List[str]] = {}

    def add_node(self, node: Node) -> Node:
        """Register a node; IDs must be unique."""
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node
        self._racks.setdefault(node.rack, []).append(node.node_id)
        return node

    def node(self, node_id: str) -> Node:
        """Look a node up by ID."""
        return self._nodes[node_id]

    @property
    def nodes(self) -> List[Node]:
        """All nodes, in insertion order."""
        return list(self._nodes.values())

    @property
    def racks(self) -> List[str]:
        """All rack names."""
        return list(self._racks)

    def rack_nodes(self, rack: str) -> List[Node]:
        """Nodes in one rack."""
        return [self._nodes[nid] for nid in self._racks[rack]]

    def live_nodes(self) -> List[Node]:
        """Nodes currently alive."""
        return [n for n in self._nodes.values() if n.alive]

    def same_rack(self, a: str, b: str) -> bool:
        """True when the two (distinct) nodes share a rack."""
        return self._nodes[a].rack == self._nodes[b].rack

    def nodes_with_device(self, kind: str) -> List[Node]:
        """Live nodes carrying at least one ``kind`` accelerator."""
        return [n for n in self.live_nodes() if n.has_device(kind)]


def build_cluster(sim: Simulator,
                  racks: int = 4,
                  nodes_per_rack: int = 8,
                  node_capacity: Optional[ResourceVector] = None,
                  gpu_nodes_per_rack: int = 2,
                  gpu_node_capacity: Optional[ResourceVector] = None,
                  device_specs: Optional[Dict[str, DeviceSpec]] = None,
                  ) -> Topology:
    """Build a uniform cluster: each rack holds ``nodes_per_rack`` CPU
    nodes, the first ``gpu_nodes_per_rack`` of which also carry GPUs.

    This mirrors a typical warehouse-scale pod: plentiful general
    compute with a minority of accelerator-equipped machines — the
    setting in which §4.1's co-location decision matters.
    """
    if racks < 1 or nodes_per_rack < 1:
        raise ValueError("cluster must have at least one rack and node")
    if gpu_nodes_per_rack > nodes_per_rack:
        raise ValueError("more GPU nodes than nodes per rack")
    cpu_cap = node_capacity or server_node()
    gpu_cap = gpu_node_capacity or server_node(gpu=4)
    topo = Topology()
    for r in range(racks):
        rack = f"rack{r}"
        for i in range(nodes_per_rack):
            capacity = gpu_cap if i < gpu_nodes_per_rack else cpu_cap
            topo.add_node(Node(sim, node_id=f"{rack}-n{i}", rack=rack,
                               capacity=capacity,
                               device_specs=device_specs or DEVICE_SPECS))
    return topo
