"""Fluid-flow link model with contention-aware incremental rate allocation.

A transfer invocation becomes a *flow* over the contention edges of its
route (NVLink ports intra-node, NIC directions inter-node).  Rates follow
the paper's Equation 1 cost model:

* each flow is capped by the issuing thread block's copy capability
  (``warps * warp_copy_bandwidth`` — Figure 4 shows a 4-warp TB moving
  about a quarter of NIC line rate);
* an edge carrying ``k`` flows shares its capacity fairly, and beyond one
  flow pays the contention penalty ``gamma * L(z)``: effective capacity is
  ``C / (1 + gamma * (k - 1))``, so aggregate throughput *decreases* as
  over-subscription grows — reproducing the Figure 4 roll-off beyond four
  TBs.

The allocation is per-edge fair share with a per-flow cap: a flow's rate
is ``min(tb_cap, min over edges of share(e))``.  Spare share from capped
flows is redistributed among the uncapped flows of each edge (one
water-filling round per edge), which keeps rate updates local to the
edges a starting/finishing flow touches.

The network keeps one monotone clock: every call passes the caller's
current time, and a call at an earlier time than the latest one raises
``ValueError``.  A flow joins at the instant its first byte moves, so no
flow ever holds a share ahead of the clock.

Incremental solver
------------------

Joining, finishing or aborting a flow is a pure membership change, and
a fault derating a pure capacity change: each marks the edges it
touches *dirty* (:attr:`FlowNetwork.dirty_edges`) and moves no rate.
:meth:`FlowNetwork.rerate_edges` is the one solver pass.  The simulator
runs it once per event instant, after every join and finish of that
instant (no simulated time passes between them, so the intermediate
rates are observable by nothing) — the per-epoch progressive filling of
the multi-commodity-flow formulation.  An edge's share is a pure
function of its member set (membership + caps), its raw capacity, and
its fault derating factor, so the network keeps

* an **authoritative per-edge flow index** (`_edge_flows`, an
  insertion-ordered id set) — the only membership structure; nothing
  ever scans the global flow table to find the flows of an edge — and
* a **per-edge share cache** (`_share`) invalidated exactly when an
  edge's membership or derating factor changes.

A pass then recomputes shares for the dirty edges only and re-rates
only the flows crossing them; every other edge's share is served from
the cache bit-for-bit.

Each pass re-rates its affected flows with one plain loop over the
cached shares: an edge carries a handful of flows, so array machinery
would cost more than it saves.  ``tests/oracles/rates.py`` holds the
checks: after every pass each live flow's rate equals the from-scratch
water-filled share of its edges, and networks that compute every share
from scratch, or also recompute every occupied edge and re-rate every
live flow on every pass, reproduce the golden digests (see
``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Absolute rate-change floor below which a re-rated flow keeps its old
#: rate (and no completion event is re-posted).  Matches the seed
#: implementation's threshold, so the default solver is bit-exact.
ABS_RATE_EPS = 1e-12


@dataclass
class Flow:
    """One in-flight chunk transfer.

    Attributes:
        flow_id: unique id.
        edges: contention edges the flow occupies for its whole lifetime.
        nbytes: payload size.
        cap: per-flow rate ceiling from the sending TB (bytes/us).
        start_time: when the flow joined the network: the instant its
            first byte moved, one route latency after the send posted.
        remaining: bytes still to move (updated lazily).
        rate: current allocated rate (bytes/us).
        last_update: sim time at which ``remaining`` was last reconciled.
    """

    flow_id: int
    edges: Tuple[str, ...]
    nbytes: float
    cap: float
    start_time: float
    remaining: float = field(init=False)
    rate: float = 0.0
    last_update: float = field(init=False)

    def __post_init__(self) -> None:
        self.remaining = float(self.nbytes)
        self.last_update = self.start_time

    def advance_to(self, now: float) -> None:
        """Reconcile remaining bytes up to ``now`` at the current rate."""
        if now > self.last_update:
            self.remaining = max(0.0, self.remaining - self.rate * (now - self.last_update))
            self.last_update = now

    def eta(self) -> float:
        """Projected completion time at the current rate."""
        if self.remaining <= 1e-9:
            return self.last_update
        if self.rate <= 0.0:
            return float("inf")
        return self.last_update + self.remaining / self.rate


class FlowNetwork:
    """Tracks active flows and allocates contended edge bandwidth.

    Args:
        edge_capacity: raw capacity (bytes/us) per contention edge.
        gamma: Equation 1 contention penalty coefficient.
        rate_rel_epsilon: optional *relative* rate-change threshold below
            which a re-rated flow keeps its previous rate.  The default
            ``0.0`` keeps only the absolute :data:`ABS_RATE_EPS` floor
            and is bit-exact; a non-zero value trades exactness for
            fewer completion-event reposts on large fabrics.
    """

    def __init__(
        self,
        edge_capacity: Dict[str, float],
        gamma: float = 0.03,
        rate_rel_epsilon: float = 0.0,
    ) -> None:
        if gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {gamma}")
        if rate_rel_epsilon < 0:
            raise ValueError(
                f"rate_rel_epsilon must be non-negative, got {rate_rel_epsilon}"
            )
        self._capacity = dict(edge_capacity)
        self._gamma = gamma
        self._flows: Dict[int, Flow] = {}
        # Authoritative per-edge membership: edge -> ordered flow-id set
        # (a dict used as an insertion-ordered set, so iteration — and
        # therefore every downstream event sequence — is deterministic).
        self._edge_flows: Dict[str, Dict[int, None]] = {}
        # Per-edge share cache; an entry is invalidated exactly when the
        # edge's membership or derating factor changes, so every occupied
        # edge has a fresh entry once a pass has settled the dirty edges.
        self._share: Dict[str, float] = {}
        self._next_id = 0
        # Latest time the network was called with (see _tick).
        self._clock = -float("inf")
        self._rate_rel_epsilon = rate_rel_epsilon
        #: Edges whose membership or capacity changed since the last
        #: solver pass (an insertion-ordered set); the next
        #: :meth:`rerate_edges` re-rates them all in one pass.
        self.dirty_edges: Dict[str, None] = {}
        # Fault-injection capacity scaling; empty when no faults are armed,
        # so the healthy-fabric math is untouched.
        self._factor: Dict[str, float] = {}
        # Cheap solver counters, folded into SimReport.counters (the
        # simulator publishes them to any armed registry once per run).
        self.reallocations = 0
        self.shares_computed = 0
        self.rate_updates = 0
        self.flows_admitted = 0

    @property
    def gamma(self) -> float:
        return self._gamma

    def active_count(self) -> int:
        return len(self._flows)

    def edge_load(self, edge: str) -> int:
        """Number of flows currently crossing an edge."""
        return len(self._edge_flows.get(edge, ()))

    def capacity_factor(self, edge: str) -> float:
        """Current fault-injection derating of an edge (1.0 = healthy)."""
        return self._factor.get(edge, 1.0)

    def effective_capacity(self, edge: str) -> float:
        """Capacity after derating and the Equation 1 contention penalty."""
        k = self.edge_load(edge)
        base = self._capacity[edge]
        if self._factor:
            base *= self._factor.get(edge, 1.0)
        if k <= 1:
            return base
        return base / (1.0 + self._gamma * (k - 1))

    def set_capacity_factor(
        self, edge: str, factor: float, now: float
    ) -> List[Flow]:
        """Derate (or restore) an edge's capacity; used by fault injection.

        ``factor`` scales the raw capacity: 0 means the link is down,
        1 restores full health.  Runs the solver pass at once (over this
        edge and any other dirty one) and returns every flow whose rate
        changed, so the caller can reschedule completion events.
        """
        if edge not in self._capacity:
            raise KeyError(f"unknown contention edge {edge!r}")
        self._tick(now)
        if factor >= 1.0:
            self._factor.pop(edge, None)
        else:
            self._factor[edge] = max(0.0, factor)
        self.dirty_edges[edge] = None
        return self._reallocate(now)

    # ------------------------------------------------------------------

    def start_flow(
        self,
        edges: Tuple[str, ...],
        nbytes: float,
        cap: float,
        now: float,
    ) -> Flow:
        """Join a flow to its edges at ``now``.

        A pure membership change: the flow holds rate 0 and its edges
        are dirty until the next :meth:`rerate_edges` pass.
        """
        for edge in edges:
            if edge not in self._capacity:
                raise KeyError(f"unknown contention edge {edge!r}")
        self._tick(now)
        flow = Flow(
            flow_id=self._next_id,
            edges=tuple(edges),
            nbytes=nbytes,
            cap=cap,
            start_time=now,
        )
        self._next_id += 1
        self._flows[flow.flow_id] = flow
        dirty = self.dirty_edges
        for edge in flow.edges:
            self._edge_flows.setdefault(edge, {})[flow.flow_id] = None
            dirty[edge] = None
        self.flows_admitted += 1
        return flow

    def finish_flow(self, flow: Flow, now: float) -> None:
        """Remove a flow at ``now``, reconciled up to it.

        A pure membership change: the flow's edges are dirty until the
        next :meth:`rerate_edges` pass.
        """
        self._tick(now)
        flow.advance_to(now)
        del self._flows[flow.flow_id]
        dirty = self.dirty_edges
        for edge in flow.edges:
            dirty[edge] = None
            peers = self._edge_flows.get(edge)
            if peers is not None:
                peers.pop(flow.flow_id, None)
                if not peers:
                    del self._edge_flows[edge]
                    self._share.pop(edge, None)

    def rerate_edges(self, now: float) -> List[Flow]:
        """The solver pass: re-rate every dirty edge at ``now``.

        Recomputes the share of each edge in :attr:`dirty_edges` and
        re-rates the flows crossing one, so every membership change since
        the last pass — joins and removals alike — settles in one
        water-filling pass.  Returns every flow whose rate changed,
        sorted by flow id: the caller posts completion events from it,
        and the post sequence must not depend on the solver's internal
        iteration order.  With nothing dirty there is no pass.
        """
        self._tick(now)
        if not self.dirty_edges:
            return []
        return self._reallocate(now)

    def abort_flow(self, flow: Flow, now: float) -> None:
        """Tear down an in-flight flow mid-transfer (fault recovery).

        Identical plumbing to :meth:`finish_flow`; the distinct name keeps
        caller intent explicit — the payload has NOT fully arrived, and
        ``flow.remaining`` tells the recovery layer how much to retransmit.
        """
        self.finish_flow(flow, now)

    def flows_on_edge(self, edge: str) -> List[Flow]:
        """Live flows currently crossing an edge (via the per-edge index)."""
        return [self._flows[fid] for fid in self._edge_flows.get(edge, ())]

    def edge_census(self) -> Dict[str, Tuple[int, int, float]]:
        """Per-occupied-edge ``(flows, zero_rate_flows, effective_capacity)``.

        The watchdog embeds this census in its stall diagnostics so a
        stuck run shows *where* bytes stopped moving.  Served entirely
        from the per-edge index — no global flow scan.
        """
        census: Dict[str, Tuple[int, int, float]] = {}
        for edge, flow_ids in self._edge_flows.items():
            zero = sum(1 for fid in flow_ids if self._flows[fid].rate <= 0.0)
            census[edge] = (len(flow_ids), zero, self.effective_capacity(edge))
        return census

    # ------------------------------------------------------------------

    def _tick(self, now: float) -> None:
        """Advance the network clock to ``now``; it never runs backwards.

        A re-rated flow is reconciled up to the time of the call, so a
        call at an earlier time than the latest one would re-rate flows
        from a point they may already have passed.
        """
        if now < self._clock:
            raise ValueError(
                f"flow network called at t={now!r}us after "
                f"t={self._clock!r}us: its clock is monotone"
            )
        self._clock = now

    def _edge_share(self, edge: str) -> float:
        """Per-flow share on one edge after one water-filling round.

        Flows capped below the equal share donate their spare capacity to
        the remaining flows of the edge.  An edge carries a handful of
        flows, so this is a plain loop in membership order; it is also
        the from-scratch expression of ``tests/oracles/rates.py``,
        donated caps summed left to right.
        """
        self.shares_computed += 1
        # effective_capacity(), inlined: the same float operations.
        capacity = self._capacity[edge]
        if self._factor:
            capacity *= self._factor.get(edge, 1.0)
        members = self._edge_flows.get(edge)
        if members is None:
            return capacity
        k = len(members)
        if k > 1:
            capacity = capacity / (1.0 + self._gamma * (k - 1))
        equal = capacity / k
        flows = self._flows
        donated = 0.0
        ncapped = 0
        for fid in members:
            cap = flows[fid].cap
            if cap < equal:
                donated += cap
                ncapped += 1
        uncapped = k - ncapped
        if ncapped == 0 or uncapped == 0:
            return equal
        return (capacity - donated) / uncapped

    def _reallocate(self, now: float) -> List[Flow]:
        """One pass over (and clearing) :attr:`dirty_edges`.

        Recomputes the share of each dirty edge and re-rates only the
        flows crossing one; clean edges are served from the share cache.
        """
        self.reallocations += 1
        dirty = self.dirty_edges
        self.dirty_edges = {}
        # Union of the dirty edges' member sets, in first-seen order.
        # ``dict.update`` merges the per-edge id dicts at C speed — the
        # same order a Python seen-set loop would produce.
        affected_ids: Dict[int, None] = {}
        for edge in dirty:
            members = self._edge_flows.get(edge)
            if members is None:
                self._share.pop(edge, None)
                continue
            self._share[edge] = self._edge_share(edge)
            affected_ids.update(members)
        flows = self._flows
        return self._rerate([flows[fid] for fid in affected_ids], now)

    def _rerate(self, affected: List[Flow], now: float) -> List[Flow]:
        """Re-rate ``affected`` from the share cache.

        Returns the flows whose rate changed, sorted by flow id (see
        :meth:`rerate_edges`).
        """
        shares = self._share
        rel = self._rate_rel_epsilon
        changed: List[Flow] = []
        for flow in affected:
            # min(cap, min over the edges' shares), as a plain loop.
            new_rate = flow.cap
            for edge in flow.edges:
                share = shares[edge]
                if share < new_rate:
                    new_rate = share
            threshold = ABS_RATE_EPS
            if rel > 0.0:
                threshold = max(threshold, rel * abs(flow.rate))
            if abs(new_rate - flow.rate) > threshold:
                flow.advance_to(now)
                flow.rate = new_rate
                changed.append(flow)
        changed.sort(key=lambda f: f.flow_id)
        self.rate_updates += len(changed)
        return changed


__all__ = ["ABS_RATE_EPS", "Flow", "FlowNetwork"]
