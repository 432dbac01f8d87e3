"""Placement policies: where sandboxes land (§4.1–§4.2).

The paper's central performance claim is that *logical* disaggregation
need not mean *physical* disaggregation: because PCSI sees the task
graph and all state access is explicit, the system can co-locate
composed functions (turning a network hop into a device copy) — or
deliberately scatter them into scavenged capacity to raise cluster
utilization at "good enough" latency. Both are policies behind the same
interface; the experiments ablate them.

Each policy provides the ``placer(resources, platform, preferred_node)``
callable that :class:`~repro.faas.autoscale.WarmPool` consumes.

Policies optionally carry a :class:`~repro.bench.attribution.
LatencyAttributor`: :class:`ObservedPlacement` steers sandboxes toward
the node class with the best *observed* warm latency (falling back to
co-location until enough traces have been folded), closing the
trace → attribution → placement loop.
"""

from __future__ import annotations

from typing import List, Optional

from ..bench.attribution import NO_ATTRIBUTION
from ..cluster.health import NO_HEALTH
from ..cluster.node import Node
from ..cluster.resources import ResourceVector
from ..cluster.topology import Topology
from ..faas.platforms import PlatformSpec
from ..sim.rng import RandomStream


class PlacementPolicy:
    """Base class: fit-filtering plus a policy-specific choice."""

    name = "base"

    def __init__(self, topology: Topology, attributor=NO_ATTRIBUTION):
        self.topology = topology
        #: The :class:`~repro.bench.attribution.LatencyAttributor` feed
        #: (``NO_ATTRIBUTION`` if off). The base policies ignore it;
        #: observation-aware subclasses consult it in :meth:`choose`.
        self.attributor = attributor
        #: The kernel's health plane, wired after construction. Nodes
        #: it says to avoid (quarantined gray outliers, suspect or
        #: confirmed-dead nodes) are filtered out of the candidate set
        #: — unless that would leave nothing, in which case degraded
        #: capacity beats no capacity.
        self.health = NO_HEALTH

    def candidates(self, resources: ResourceVector,
                   platform: PlatformSpec) -> List[Node]:
        """Live nodes with the device and free capacity."""
        nodes = [n for n in self.topology.live_nodes()
                 if n.has_device(platform.device_kind)
                 and n.can_fit(resources)]
        preferred = [n for n in nodes if not self.health.avoid(n.node_id)]
        return preferred or nodes

    def placer(self):
        """The callable handed to warm pools."""
        def place(resources: ResourceVector, platform: PlatformSpec,
                  preferred_node: Optional[str] = None) -> Optional[Node]:
            nodes = self.candidates(resources, platform)
            if not nodes:
                return None
            return self.choose(nodes, resources, platform, preferred_node)
        return place

    def choose(self, nodes: List[Node], resources: ResourceVector,
               platform: PlatformSpec,
               preferred_node: Optional[str]) -> Node:
        raise NotImplementedError


class NaivePlacement(PlacementPolicy):
    """Uniform-random placement that ignores all hints.

    This is the strawman of §4.1: intermediate data always crosses the
    network because producers and consumers land wherever.
    """

    name = "naive"

    def __init__(self, topology: Topology, rng: Optional[RandomStream] = None,
                 attributor=NO_ATTRIBUTION):
        super().__init__(topology, attributor=attributor)
        self.rng = rng if rng is not None else RandomStream(0, "naive-place")

    def choose(self, nodes, resources, platform, preferred_node):
        return self.rng.choice(nodes)


class ColocatePlacement(PlacementPolicy):
    """Graph-aware placement: honor the co-location hint when possible.

    Preference order: the hinted node itself, then a node in the hinted
    node's rack, then the least-loaded fit (to keep latency low when no
    hint applies).
    """

    name = "colocate"

    def choose(self, nodes, resources, platform, preferred_node):
        if preferred_node is not None:
            for node in nodes:
                if node.node_id == preferred_node:
                    return node
            same_rack = [n for n in nodes
                         if self.topology.same_rack(n.node_id,
                                                    preferred_node)]
            if same_rack:
                return min(same_rack,
                           key=lambda n: n.allocated.dominant_share(
                               n.capacity))
        return min(nodes,
                   key=lambda n: n.allocated.dominant_share(n.capacity))


class ScavengePlacement(PlacementPolicy):
    """Utilization-first placement: pack into the fullest node that fits.

    §4.2: "the provider is free to scavenge underutilized resources from
    around the cluster for each function independently", trading some
    latency for much better packing. Choosing the *most* utilized
    feasible node (best-fit-decreasing flavor) minimizes the number of
    machines kept busy, which is what lets whole servers be reclaimed.
    """

    name = "scavenge"

    def choose(self, nodes, resources, platform, preferred_node):
        return max(nodes,
                   key=lambda n: (n.allocated.dominant_share(n.capacity),
                                  n.node_id))


class SpreadPlacement(PlacementPolicy):
    """Load-balancing placement: always the least utilized node.

    The dedicated-capacity strawman for the efficiency experiment: great
    tail latency, poor packing.
    """

    name = "spread"

    def choose(self, nodes, resources, platform, preferred_node):
        return min(nodes,
                   key=lambda n: (n.allocated.dominant_share(n.capacity),
                                  n.node_id))


class ObservedPlacement(ColocatePlacement):
    """Observation-fed placement: follow the measured best node class.

    When the attached attributor has folded at least its
    ``min_samples`` traces for a node class, candidate nodes are first
    narrowed to the class with the lowest observed warm latency; the
    co-location heuristics then break ties *inside* that class. Before
    any class clears the guard, or when every candidate sits in one
    class (as under ``NO_ATTRIBUTION``), this is exactly
    :class:`ColocatePlacement` — so the policy can be enabled from t=0
    and only starts steering once evidence exists.
    """

    name = "observed"

    def choose(self, nodes, resources, platform, preferred_node):
        narrowed = self._narrow_to_best_class(nodes)
        return super().choose(narrowed, resources, platform,
                              preferred_node)

    def _narrow_to_best_class(self, nodes: List[Node]) -> List[Node]:
        """Candidates in the best observed class, or all of them."""
        att = self.attributor
        by_class: dict = {}
        for node in nodes:
            by_class.setdefault(att.node_class_fn(node.node_id),
                                []).append(node)
        if len(by_class) < 2:
            return nodes
        best_class = None
        best_latency = None
        for node_class in sorted(by_class):
            if att.samples(node_class=node_class) < att.min_samples:
                continue
            latency = att.node_class_latency(node_class)
            if latency is None:
                continue
            if best_latency is None or latency < best_latency:
                best_class, best_latency = node_class, latency
        if best_class is None:
            return nodes
        return by_class[best_class]


POLICIES = {cls.name: cls for cls in (NaivePlacement, ColocatePlacement,
                                      ScavengePlacement, SpreadPlacement,
                                      ObservedPlacement)}


def make_policy(name: str, topology: Topology,
                rng: Optional[RandomStream] = None,
                attributor=NO_ATTRIBUTION) -> PlacementPolicy:
    """Instantiate a policy by name."""
    if name not in POLICIES:
        raise KeyError(f"unknown placement policy {name!r}; "
                       f"choose from {sorted(POLICIES)}")
    cls = POLICIES[name]
    if cls is NaivePlacement:
        return cls(topology, rng, attributor=attributor)
    return cls(topology, attributor=attributor)
