"""Cluster model: ranks, servers, NICs, racks, and rank-to-rank paths.

The model mirrors the testbed of the paper's Table 2:

* ``gpus_per_node`` GPUs per server, fully connected intra-server through
  NVSwitch — each GPU owns one NVLink egress port and one ingress port;
* ``nics_per_node`` NICs per server, with consecutive GPUs sharing a NIC
  ("every two GPUs on the host share the same NIC");
* servers grouped into racks under ToR switches; the Clos aggregation tier
  is non-blocking, so crossing racks costs extra latency but no extra
  bandwidth bottleneck.

A rank-to-rank :class:`Path` lists the *contention edges* a transfer
occupies.  Edges are the resources the fluid-flow runtime arbitrates:

* ``nv:out:<rank>`` / ``nv:in:<rank>`` — the GPU's NVLink egress/ingress
  port, contended when one GPU talks to several local peers at once;
* ``nic:out:<node>:<k>`` / ``nic:in:<node>:<k>`` — a NIC direction,
  contended by every inter-server transfer of the GPUs sharing NIC ``k``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

from .hardware import GpuProfile, a100_profile


#: Fabric tiers that own contention edges: NVSwitch ports and NIC
#: directions.  The aggregation tier is non-blocking, so it has none.
TIERS = ("nvlink", "nic")


def tier_of(name: str) -> str:
    """Fabric tier of a contention edge (``nv:*``/``nic:*``) or a
    logical link (``nvlink:*``/``nic:*``)."""
    return "nic" if name.startswith("nic") else "nvlink"


@dataclass(frozen=True)
class Path:
    """The resources and latency of one rank-to-rank transfer route.

    Attributes:
        edges: contention-edge identifiers occupied for the whole transfer.
        latency_us: one-way startup latency (alpha) of the route.
        bottleneck_bandwidth: capacity in bytes/us of the slowest edge.
    """

    edges: Tuple[str, ...]
    latency_us: float
    bottleneck_bandwidth: float

    def transfer_time(self, nbytes: float) -> float:
        """Uncontended alpha + c*beta time for ``nbytes`` on this path."""
        return self.latency_us + nbytes / self.bottleneck_bandwidth


class Cluster:
    """A multi-server GPU cluster with an NVSwitch + Clos RoCE fabric.

    Args:
        nodes: number of servers.
        gpus_per_node: GPUs per server.
        nics_per_node: NICs per server; must divide ``gpus_per_node``.
        profile: hardware constants (defaults to the paper's A100 testbed).
        nodes_per_rack: servers attached to one ToR switch.
    """

    def __init__(
        self,
        nodes: int,
        gpus_per_node: int,
        nics_per_node: int = 0,
        profile: GpuProfile = None,
        nodes_per_rack: int = 2,
    ) -> None:
        if nodes < 1:
            raise ValueError(f"need at least one node, got {nodes}")
        if gpus_per_node < 1:
            raise ValueError(f"need at least one GPU per node, got {gpus_per_node}")
        if nics_per_node == 0:
            # Default to the paper's two-GPUs-per-NIC sharing; fall back to
            # the largest divisor when the GPU count is odd.
            target = max(1, gpus_per_node // 2)
            nics_per_node = next(
                n for n in range(target, 0, -1) if gpus_per_node % n == 0
            )
        if gpus_per_node % nics_per_node != 0:
            raise ValueError(
                f"nics_per_node={nics_per_node} must divide "
                f"gpus_per_node={gpus_per_node}"
            )
        if nodes_per_rack < 1:
            raise ValueError(f"nodes_per_rack must be positive, got {nodes_per_rack}")

        self.nodes = nodes
        self.gpus_per_node = gpus_per_node
        self.nics_per_node = nics_per_node
        self.profile = profile if profile is not None else a100_profile()
        self.nodes_per_rack = nodes_per_rack
        self._edge_capacity: Dict[str, float] = {}
        self._path_cache: Dict[Tuple[int, int], Path] = {}
        self._link_name_cache: Dict[Tuple[int, int], str] = {}
        self._fingerprint: str = ""
        self._build_edges()

    # ------------------------------------------------------------------
    # Basic rank arithmetic
    # ------------------------------------------------------------------

    @property
    def world_size(self) -> int:
        """Total number of ranks (GPUs) in the cluster."""
        return self.nodes * self.gpus_per_node

    @property
    def gpus_per_nic(self) -> int:
        """How many GPUs share each NIC."""
        return self.gpus_per_node // self.nics_per_node

    def ranks(self) -> Iterator[int]:
        """Iterate over all rank ids."""
        return iter(range(self.world_size))

    def node_of(self, rank: int) -> int:
        """Server index hosting ``rank``."""
        self._check_rank(rank)
        return rank // self.gpus_per_node

    def local_index(self, rank: int) -> int:
        """Rank's GPU index within its server."""
        self._check_rank(rank)
        return rank % self.gpus_per_node

    def nic_of(self, rank: int) -> int:
        """NIC index (within the server) that ``rank`` sends/receives on."""
        return self.local_index(rank) // self.gpus_per_nic

    def rack_of(self, rank: int) -> int:
        """Rack (ToR switch) index hosting ``rank``'s server."""
        return self.node_of(rank) // self.nodes_per_rack

    def same_node(self, src: int, dst: int) -> bool:
        """True when both ranks live in the same server."""
        return self.node_of(src) == self.node_of(dst)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range [0, {self.world_size})")

    # ------------------------------------------------------------------
    # Contention edges and routing
    # ------------------------------------------------------------------

    def _build_edges(self) -> None:
        nv_bw = self.profile.nvlink.bandwidth
        nic_bw = self.profile.nic.bandwidth
        for rank in range(self.world_size):
            self._edge_capacity[f"nv:out:{rank}"] = nv_bw
            self._edge_capacity[f"nv:in:{rank}"] = nv_bw
        for node in range(self.nodes):
            for nic in range(self.nics_per_node):
                self._edge_capacity[f"nic:out:{node}:{nic}"] = nic_bw
                self._edge_capacity[f"nic:in:{node}:{nic}"] = nic_bw

    def fingerprint(self) -> str:
        """Stable content hash of everything routing/rates depend on.

        Covers the cluster shape, every hardware-profile constant, and
        the per-edge capacity table — so a :meth:`degraded` clone (whose
        edge capacities differ) hashes differently even though its shape
        is identical.  This is the topology component of the
        compiled-plan cache key (:mod:`repro.core.plancache`) and of the
        tuning-table cell key, both of which sit on the request hot
        path, so the hash is computed once per cluster: edge capacities
        only ever change inside :meth:`degraded`, before the clone
        escapes, never on a cluster a caller already holds.
        """
        if self._fingerprint:
            return self._fingerprint
        payload = {
            "nodes": self.nodes,
            "gpus_per_node": self.gpus_per_node,
            "nics_per_node": self.nics_per_node,
            "nodes_per_rack": self.nodes_per_rack,
            "profile": dataclasses.asdict(self.profile),
            "edges": sorted(self._edge_capacity.items()),
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        )
        self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def edge_capacity(self, edge: str) -> float:
        """Capacity in bytes/us of a contention edge."""
        try:
            return self._edge_capacity[edge]
        except KeyError:
            raise KeyError(f"unknown contention edge {edge!r}") from None

    @property
    def edges(self) -> List[str]:
        """All contention-edge identifiers in the cluster."""
        return list(self._edge_capacity)

    def degraded(self, edges: Iterable[str], factor: float) -> "Cluster":
        """Clone this cluster with ``edges`` derated to ``factor`` capacity.

        Models planning around a failed link: the dead edge is replaced
        by its slow failover path (rerouted hop / host fallback) rather
        than removed, so every route stays valid while recovery policies
        re-plan conservatively.  ``factor`` must be positive — a zero
        capacity would just move the deadlock into the fallback plan.
        """
        if factor <= 0.0:
            raise ValueError(f"degraded factor must be positive, got {factor}")
        clone = Cluster(
            nodes=self.nodes,
            gpus_per_node=self.gpus_per_node,
            nics_per_node=self.nics_per_node,
            profile=self.profile,
            nodes_per_rack=self.nodes_per_rack,
        )
        for edge in edges:
            if edge not in clone._edge_capacity:
                raise KeyError(f"unknown contention edge {edge!r}")
            clone._edge_capacity[edge] *= factor
        return clone

    def path(self, src: int, dst: int) -> Path:
        """Route a transfer from ``src`` to ``dst``.

        Intra-server transfers ride NVSwitch and occupy the source egress
        and destination ingress NVLink ports.  Inter-server transfers
        occupy the source-side NIC egress and destination-side NIC
        ingress; crossing racks adds aggregation-tier latency.
        """
        if src == dst:
            raise ValueError(f"self-transfer on rank {src} has no path")
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached

        if self.same_node(src, dst):
            edges = (f"nv:out:{src}", f"nv:in:{dst}")
            latency = self.profile.nvlink.latency_us
            bottleneck = self.profile.nvlink.bandwidth
        else:
            src_node, dst_node = self.node_of(src), self.node_of(dst)
            edges = (
                f"nic:out:{src_node}:{self.nic_of(src)}",
                f"nic:in:{dst_node}:{self.nic_of(dst)}",
            )
            latency = self.profile.nic.latency_us
            if self.rack_of(src) != self.rack_of(dst):
                latency += self.profile.cross_rack_extra_latency_us
            bottleneck = self.profile.nic.bandwidth

        result = Path(edges=edges, latency_us=latency, bottleneck_bandwidth=bottleneck)
        self._path_cache[key] = result
        return result

    def link_name(self, src: int, dst: int) -> str:
        """A stable identifier for the (directed) src->dst logical link.

        Two tasks share a *communication dependency* (section 3) when their
        transfers resolve to the same bottleneck resource.  For intra-node
        transfers that is the ordered GPU pair; for inter-node transfers it
        is the source NIC direction, because every flow out of that NIC
        shares its line rate.
        """
        cached = self._link_name_cache.get((src, dst))
        if cached is not None:
            return cached
        if self.same_node(src, dst):
            name = f"nvlink:{src}->{dst}"
        else:
            name = (
                f"nic:{self.node_of(src)}:{self.nic_of(src)}->"
                f"{self.node_of(dst)}:{self.nic_of(dst)}"
            )
        self._link_name_cache[(src, dst)] = name
        return name

    # ------------------------------------------------------------------
    # Export for synthesizers
    # ------------------------------------------------------------------

    def to_graph(self) -> "nx.DiGraph":
        """Directed rank-level graph annotated with alpha/beta, for solvers.

        Every ordered rank pair gets an edge whose ``latency`` and
        ``bandwidth`` attributes reflect the route the cluster would use.
        TACCL/TECCL-style synthesizers consume this view.
        """
        import networkx as nx  # deferred: only solver exports need it

        graph = nx.DiGraph()
        graph.add_nodes_from(range(self.world_size))
        for src in range(self.world_size):
            for dst in range(self.world_size):
                if src == dst:
                    continue
                route = self.path(src, dst)
                graph.add_edge(
                    src,
                    dst,
                    latency=route.latency_us,
                    bandwidth=route.bottleneck_bandwidth,
                    intra=self.same_node(src, dst),
                )
        return graph

    def __repr__(self) -> str:
        return (
            f"Cluster(nodes={self.nodes}, gpus_per_node={self.gpus_per_node}, "
            f"nics_per_node={self.nics_per_node}, profile={self.profile.name})"
        )


def single_node(gpus: int = 8, profile: GpuProfile = None) -> Cluster:
    """One server with ``gpus`` GPUs — the paper's 1-server topology."""
    return Cluster(nodes=1, gpus_per_node=gpus, profile=profile)


def multi_node(
    nodes: int, gpus_per_node: int = 8, profile: GpuProfile = None
) -> Cluster:
    """``nodes`` servers of ``gpus_per_node`` GPUs on the Clos fabric."""
    return Cluster(nodes=nodes, gpus_per_node=gpus_per_node, profile=profile)
