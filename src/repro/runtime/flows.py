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

Each pass re-rates its affected flows either with a scalar loop or, from
:data:`VECTORIZE_MIN_FLOWS` affected flows up, with numpy over
persistent per-flow and per-edge arrays; the two produce bit-identical
rates, so the choice is a pure size rule.  ``tests/oracles/rates.py``
holds the checks: after every pass each live flow's rate equals the
from-scratch water-filled share of its edges, and scalar-only and
brute-force networks (recompute every occupied edge, re-rate every live
flow) reproduce the golden digests (see ``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

#: Absolute rate-change floor below which a re-rated flow keeps its old
#: rate (and no completion event is re-posted).  Matches the seed
#: implementation's threshold, so the default solver is bit-exact.
ABS_RATE_EPS = 1e-12

#: Minimum affected-flow count at which a reallocation pass switches to
#: the vectorized re-rater.  Below it, plain Python loops have lower
#: constant factors.
VECTORIZE_MIN_FLOWS = 24


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
        # edge's membership or derating factor changes.
        self._share: Dict[str, float] = {}
        self._next_id = 0
        # Latest time the network was called with (see _tick).
        self._clock = -float("inf")
        self._rate_rel_epsilon = rate_rel_epsilon
        # Dense edge ids (insertion order of the capacity map, which is
        # deterministic) and per-flow cached edge-index arrays: the
        # CSR-style incidence the vectorized re-rater gathers.
        self._edge_ids = {e: i for i, e in enumerate(self._capacity)}
        self._flow_edge_idx: Dict[int, np.ndarray] = {}
        # Persistent numpy mirrors, so a vectorized pass is pure C
        # gathers with no per-pass Python marshalling:
        # * `_share_arr[edge_id]` mirrors every `_share` dict write (an
        #   occupied edge always has a fresh entry by the time a re-rate
        #   runs — membership changes dirty the edge);
        # * `_cap_arr[slot]` / `_rate_arr[slot]` mirror each live flow's
        #   cap and rate, slot-indexed with free-list reuse.
        self._flow_slot: Dict[int, int] = {}
        self._free_slots: List[int] = []
        self._nslots = 0
        self._share_arr = np.zeros(len(self._capacity))
        self._cap_arr = np.zeros(256)
        self._rate_arr = np.zeros(256)
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
        self.vectorized_passes = 0
        self.scalar_passes = 0

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
        ids = self._edge_ids
        self._flow_edge_idx[flow.flow_id] = np.fromiter(
            (ids[e] for e in flow.edges),
            dtype=np.intp,
            count=len(flow.edges),
        )
        free = self._free_slots
        if free:
            slot = free.pop()
        else:
            slot = self._nslots
            self._nslots = slot + 1
            if slot >= self._cap_arr.shape[0]:
                grow = np.zeros(self._cap_arr.shape[0])
                self._cap_arr = np.concatenate([self._cap_arr, grow])
                self._rate_arr = np.concatenate([self._rate_arr, grow])
        self._flow_slot[flow.flow_id] = slot
        self._cap_arr[slot] = flow.cap
        self._rate_arr[slot] = 0.0
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
        del self._flow_edge_idx[flow.flow_id]
        slot = self._flow_slot.pop(flow.flow_id)
        self._free_slots.append(slot)
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
        flows, so a plain loop in membership order is cheaper than a
        numpy gather; it is also the from-scratch expression of
        ``tests/oracles/rates.py``, donated caps summed left to right.
        """
        self.shares_computed += 1
        capacity = self.effective_capacity(edge)
        members = self._edge_flows.get(edge)
        if members is None:
            return capacity
        k = len(members)
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

    def _share_of(self, edge: str) -> float:
        """Cached share of a (clean) edge; computed on first demand."""
        share = self._share.get(edge)
        if share is None:
            share = self._share[edge] = self._edge_share(edge)
            self._share_arr[self._edge_ids[edge]] = share
        return share

    def _reallocate(self, now: float) -> List[Flow]:
        """One pass over (and clearing) :attr:`dirty_edges`.

        Recomputes the share of each dirty edge and re-rates only the
        flows crossing one; clean edges are served from the share cache.
        The changed list is sorted by flow id, so the simulator's
        event-post sequence does not depend on which re-rater ran.
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
            fresh = self._share[edge] = self._edge_share(edge)
            self._share_arr[self._edge_ids[edge]] = fresh
            affected_ids.update(members)
        if len(affected_ids) >= VECTORIZE_MIN_FLOWS:
            self.vectorized_passes += 1
            changed = self._rerate_vectorized(list(affected_ids), now)
        else:
            self.scalar_passes += 1
            flows = self._flows
            changed = self._rerate_scalar(
                [flows[fid] for fid in affected_ids], now
            )
        changed.sort(key=lambda f: f.flow_id)
        self.rate_updates += len(changed)
        return changed

    def _rerate_scalar(self, affected: List[Flow], now: float) -> List[Flow]:
        """Per-flow re-rate loop over cached edge shares."""
        share = self._share_of
        rel = self._rate_rel_epsilon
        changed: List[Flow] = []
        for flow in affected:
            new_rate = min(flow.cap, min(share(e) for e in flow.edges))
            threshold = ABS_RATE_EPS
            if rel > 0.0:
                threshold = max(threshold, rel * abs(flow.rate))
            if abs(new_rate - flow.rate) > threshold:
                flow.advance_to(now)
                flow.rate = new_rate
                self._rate_arr[self._flow_slot[flow.flow_id]] = new_rate
                changed.append(flow)
        return changed

    def _rerate_vectorized(self, ids: List[int], now: float) -> List[Flow]:
        """Numpy re-rate of the flows in ``ids``; bit-identical to the
        scalar loop.

        Gathers each flow's cached edge-index array into one CSR-style
        concatenation, reads the (already-recomputed) per-edge shares
        straight out of the persistent ``_share_arr`` mirror, and takes
        per-flow segment minima with ``np.minimum.reduceat``.  Caps and
        previous rates come from the slot-indexed ``_cap_arr`` /
        ``_rate_arr`` mirrors, so the whole pass is C-side gathers and
        only the flows that actually changed are ever touched as Python
        objects.  ``min`` is exact and order-insensitive over float64 and
        the threshold compare uses the same float64 expression as the
        scalar path, so the changed set and every new rate are bitwise
        equal to the scalar loop's.
        """
        if not ids:
            return []
        idx_map = self._flow_edge_idx
        slot_map = self._flow_slot
        arrs = [idx_map[fid] for fid in ids]
        slots_list = [slot_map[fid] for fid in ids]
        n = len(arrs)
        cat = np.concatenate(arrs)
        counts = np.array([a.shape[0] for a in arrs], dtype=np.intp)
        offsets = np.zeros(n, dtype=np.intp)
        np.cumsum(counts[:-1], out=offsets[1:])
        slots = np.array(slots_list, dtype=np.intp)
        seg_min = np.minimum.reduceat(self._share_arr[cat], offsets)
        caps = self._cap_arr[slots]
        old = self._rate_arr[slots]
        new = np.minimum(caps, seg_min)
        rel = self._rate_rel_epsilon
        if rel > 0.0:
            threshold = np.maximum(ABS_RATE_EPS, rel * np.abs(old))
        else:
            threshold = ABS_RATE_EPS
        changed: List[Flow] = []
        rate_arr = self._rate_arr
        flows = self._flows
        idx = np.nonzero(np.abs(new - old) > threshold)[0]
        # One C-side conversion per pass; ``tolist`` yields plain Python
        # floats (same float64 bits), keeping numpy scalars out of the
        # flow state and out of every downstream report field.
        for i, rate in zip(idx.tolist(), new[idx].tolist()):
            flow = flows[ids[i]]
            # Inlined Flow.advance_to (same float expression, no call).
            if now > flow.last_update:
                flow.remaining = max(
                    0.0, flow.remaining - flow.rate * (now - flow.last_update)
                )
                flow.last_update = now
            flow.rate = rate
            rate_arr[slots_list[i]] = rate
            changed.append(flow)
        return changed


__all__ = ["ABS_RATE_EPS", "VECTORIZE_MIN_FLOWS", "Flow", "FlowNetwork"]
