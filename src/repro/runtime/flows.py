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

Incremental solver
------------------

A flow admission/completion (or a fault derating) changes the share of
exactly the edges whose membership or capacity changed — an edge's share
is a pure function of its member set (membership + caps), its raw
capacity, and its fault derating factor.  The network therefore keeps

* an **authoritative per-edge flow index** (`_edge_flows`, an
  insertion-ordered id set) — the only membership structure; nothing
  ever scans the global flow table to find the flows of an edge — and
* a **per-edge share cache** (`_share`) invalidated exactly when an
  edge's membership or derating factor changes.

A reallocation pass then recomputes shares for the *dirty* edges only
and re-rates only the flows crossing them; every other edge's share is
served from the cache bit-for-bit.  Setting ``incremental=False``
selects the brute-force reference allocator (recompute every occupied
edge, re-rate every live flow) that the golden determinism tests and the
``benchmarks/test_perf_scaling.py`` baseline compare against: both modes
produce identical rates, and hence bit-identical simulations (see
``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

try:  # numpy powers the vectorized re-rating path; optional at runtime.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

#: Absolute rate-change floor below which a re-rated flow keeps its old
#: rate (and no completion event is re-posted).  Matches the seed
#: implementation's threshold, so the default solver is bit-exact.
ABS_RATE_EPS = 1e-12

#: Default minimum affected-flow count at which a reallocation pass
#: switches to the vectorized re-rater.  Below it, plain Python loops
#: have lower constant factors.
VECTORIZE_MIN_FLOWS = 24


@dataclass
class Flow:
    """One in-flight chunk transfer.

    Attributes:
        flow_id: unique id.
        edges: contention edges the flow occupies for its whole lifetime.
        nbytes: payload size.
        cap: per-flow rate ceiling from the sending TB (bytes/us).
        start_time: when the flow was admitted (after path latency).
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
        incremental: use the dirty-edge incremental solver (default).
            ``False`` selects the brute-force reference allocator, which
            produces identical rates at ``O(edges + flows)`` per pass.
        rate_rel_epsilon: optional *relative* rate-change threshold below
            which a re-rated flow keeps its previous rate.  The default
            ``0.0`` keeps only the absolute :data:`ABS_RATE_EPS` floor
            and is bit-exact; a non-zero value trades exactness for
            fewer completion-event reposts on large fabrics.
        vectorize: allow the numpy re-rating path (used only when numpy
            is importable and the solver is incremental).  The scalar
            loop remains the reference; both produce bit-identical
            rates, so a pass may pick either freely.
        vectorize_min_flows: affected-flow count at which a pass engages
            the vectorized re-rater (:data:`VECTORIZE_MIN_FLOWS`).
    """

    def __init__(
        self,
        edge_capacity: Dict[str, float],
        gamma: float = 0.03,
        incremental: bool = True,
        rate_rel_epsilon: float = 0.0,
        vectorize: bool = True,
        vectorize_min_flows: int = VECTORIZE_MIN_FLOWS,
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
        self._incremental = incremental
        self._rate_rel_epsilon = rate_rel_epsilon
        self._vectorize = bool(vectorize and _np is not None and incremental)
        self._vectorize_min_flows = max(0, vectorize_min_flows)
        if self._vectorize:
            # Dense edge ids (insertion order of the capacity map, which
            # is deterministic) and per-flow cached edge-index arrays:
            # the CSR-style incidence the vectorized re-rater gathers.
            self._edge_ids = {e: i for i, e in enumerate(self._capacity)}
            self._flow_edge_idx: Dict[int, "_np.ndarray"] = {}
            # Persistent numpy mirrors, so a vectorized pass is pure C
            # gathers with no per-pass Python marshalling:
            # * `_share_arr[edge_id]` mirrors every `_share` dict write
            #   (an occupied edge always has a fresh entry by the time a
            #   re-rate runs — membership changes dirty the edge);
            # * `_cap_arr[slot]` / `_rate_arr[slot]` mirror each live
            #   flow's cap and rate, slot-indexed with free-list reuse.
            self._flow_slot: Dict[int, int] = {}
            self._free_slots: List[int] = []
            self._nslots = 0
            self._share_arr = _np.zeros(len(self._capacity))
            self._cap_arr = _np.zeros(256)
            self._rate_arr = _np.zeros(256)
            # Admission fast path state: per-edge member *slot* lists
            # (kept in sync with `_edge_flows`), a slot -> Flow table,
            # and a scratch vector for the combined-minimum scatter.
            self._edge_slots: Dict[str, List[int]] = {}
            self._slot_flow: List[Flow] = []
            self._scratch = _np.zeros(256)
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

    @property
    def incremental(self) -> bool:
        return self._incremental

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
        1 restores full health.  Returns every flow whose rate changed so
        the caller can reschedule completion events.
        """
        if edge not in self._capacity:
            raise KeyError(f"unknown contention edge {edge!r}")
        if factor >= 1.0:
            self._factor.pop(edge, None)
        else:
            self._factor[edge] = max(0.0, factor)
        return self._reallocate((edge,), now)

    # ------------------------------------------------------------------

    def start_flow(
        self,
        edges: Tuple[str, ...],
        nbytes: float,
        cap: float,
        now: float,
        ordered: bool = True,
    ) -> Tuple[Flow, List[Flow]]:
        """Admit a flow; returns it plus every flow whose rate changed.

        ``ordered=False`` skips the deterministic flow-id sort of the
        changed list — for callers that do not consume the list's order
        (the simulator's earliest-wins event discipline never reposts on
        an admission, since peer rates only ever drop).
        """
        for edge in edges:
            if edge not in self._capacity:
                raise KeyError(f"unknown contention edge {edge!r}")
        flow = Flow(
            flow_id=self._next_id,
            edges=tuple(edges),
            nbytes=nbytes,
            cap=cap,
            start_time=now,
        )
        self._next_id += 1
        self._flows[flow.flow_id] = flow
        for edge in flow.edges:
            self._edge_flows.setdefault(edge, {})[flow.flow_id] = None
        if self._vectorize:
            ids = self._edge_ids
            self._flow_edge_idx[flow.flow_id] = _np.fromiter(
                (ids[e] for e in flow.edges),
                dtype=_np.intp,
                count=len(flow.edges),
            )
            free = self._free_slots
            if free:
                slot = free.pop()
                self._slot_flow[slot] = flow
            else:
                slot = self._nslots
                self._nslots = slot + 1
                if slot >= self._cap_arr.shape[0]:
                    grow = _np.zeros(self._cap_arr.shape[0])
                    self._cap_arr = _np.concatenate([self._cap_arr, grow])
                    self._rate_arr = _np.concatenate([self._rate_arr, grow])
                    self._scratch = _np.concatenate([self._scratch, grow])
                self._slot_flow.append(flow)
            self._flow_slot[flow.flow_id] = slot
            self._cap_arr[slot] = flow.cap
            self._rate_arr[slot] = 0.0
            edge_slots = self._edge_slots
            for edge in flow.edges:
                lst = edge_slots.get(edge)
                if lst is None:
                    edge_slots[edge] = [slot]
                else:
                    lst.append(slot)
        self.flows_admitted += 1
        if not ordered and self._vectorize and self._incremental:
            changed = self._rerate_admission(flow, now)
        else:
            changed = self._reallocate(flow.edges, now, ordered=ordered)
        return flow, changed

    def finish_flow(
        self, flow: Flow, now: float, rerate: bool = True
    ) -> List[Flow]:
        """Remove a completed flow; returns flows whose rate changed.

        ``rerate=False`` removes the flow but defers the reallocation —
        the caller takes responsibility for invoking
        :meth:`rerate_edges` over the flow's edges before any rate is
        read.  The simulator uses this to batch the re-rates of
        simultaneous completions into a single pass (exact: no time
        passes between them, so the intermediate rates are observable
        by nothing).
        """
        flow.advance_to(now)
        del self._flows[flow.flow_id]
        if self._vectorize:
            self._flow_edge_idx.pop(flow.flow_id, None)
            slot = self._flow_slot.pop(flow.flow_id, None)
            if slot is not None:
                self._free_slots.append(slot)
                self._slot_flow[slot] = None  # type: ignore[call-overload]
                edge_slots = self._edge_slots
                for edge in flow.edges:
                    lst = edge_slots.get(edge)
                    if lst is not None:
                        lst.remove(slot)
                        if not lst:
                            del edge_slots[edge]
        for edge in flow.edges:
            peers = self._edge_flows.get(edge)
            if peers is not None:
                peers.pop(flow.flow_id, None)
                if not peers:
                    del self._edge_flows[edge]
                    self._share.pop(edge, None)
        if not rerate:
            return []
        return self._reallocate(flow.edges, now)

    def rerate_edges(self, edges: Iterable[str], now: float) -> List[Flow]:
        """Recompute shares and rates after deferred membership changes.

        Companion to ``finish_flow(..., rerate=False)``: one pass over
        the union of the deferred flows' edges.  The changed list is
        flow-id sorted (``ordered=True``) because the caller posts
        completion events from it, and the post sequence must not depend
        on the solver variant's internal iteration order.
        """
        return self._reallocate(edges, now)

    def abort_flow(self, flow: Flow, now: float) -> List[Flow]:
        """Tear down an in-flight flow mid-transfer (fault recovery).

        Identical plumbing to :meth:`finish_flow`; the distinct name keeps
        caller intent explicit — the payload has NOT fully arrived, and
        ``flow.remaining`` tells the recovery layer how much to retransmit.
        """
        return self.finish_flow(flow, now)

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

    def _edge_share(self, edge: str) -> float:
        """Per-flow share on one edge after one water-filling round.

        Flows capped below the equal share donate their spare capacity to
        the remaining flows of the edge.
        """
        if self._vectorize:
            lst = self._edge_slots.get(edge)
            if lst is None:
                self.shares_computed += 1
                return self.effective_capacity(edge)
            return self._edge_share_arr(
                edge, _np.array(lst, dtype=_np.intp)
            )
        self.shares_computed += 1
        flow_ids = self._edge_flows.get(edge, ())
        k = len(flow_ids)
        if k == 0:
            return self.effective_capacity(edge)
        capacity = self.effective_capacity(edge)
        equal = capacity / k
        capped = [
            self._flows[fid].cap
            for fid in flow_ids
            if self._flows[fid].cap < equal
        ]
        uncapped = k - len(capped)
        if uncapped == 0:
            return equal
        return (capacity - sum(capped)) / uncapped

    def _edge_share_arr(self, edge: str, slots_arr) -> float:
        """Vectorized :meth:`_edge_share` over an edge's member slots.

        Bit-identical to the scalar expression: the slot list preserves
        membership order (append on admit, remove-first on finish, like
        the id dict), the cap compare is the same float64 compare, and
        the donated-capacity sum uses ``np.cumsum`` — a strictly
        sequential left-to-right scan, unlike ``np.sum``'s pairwise
        reduction — so it reproduces Python ``sum``'s rounding exactly.
        """
        self.shares_computed += 1
        k = slots_arr.shape[0]
        capacity = self.effective_capacity(edge)
        equal = capacity / k
        caps = self._cap_arr[slots_arr]
        mask = caps < equal
        ncapped = int(_np.count_nonzero(mask))
        uncapped = k - ncapped
        if uncapped == 0:
            return equal
        if ncapped == 0:
            return capacity / uncapped
        total = float(_np.cumsum(caps[mask])[-1])
        return (capacity - total) / uncapped

    def _share_of(self, edge: str) -> float:
        """Cached share of a (clean) edge; computed on first demand."""
        share = self._share.get(edge)
        if share is None:
            share = self._share[edge] = self._edge_share(edge)
            if self._vectorize:
                self._share_arr[self._edge_ids[edge]] = share
        return share

    def _reallocate(
        self, dirty_edges: Iterable[str], now: float, ordered: bool = True
    ) -> List[Flow]:
        """Recompute rates after ``dirty_edges`` changed; returns changes.

        Incremental mode recomputes the share of each dirty edge and
        re-rates only the flows crossing one; clean edges are served from
        the share cache.  Reference mode recomputes every occupied edge
        and re-rates every live flow — same rates, no cache.  The changed
        list is sorted by flow id (unless the caller opts out with
        ``ordered=False``) so both modes hand the simulator the exact
        same event-post sequence.
        """
        self.reallocations += 1
        vectorize = self._vectorize
        if self._incremental:
            # Union of the dirty edges' member sets, in first-seen order.
            # ``dict.update`` merges the per-edge id dicts at C speed —
            # the same order a Python seen-set loop would produce.
            affected_ids: Dict[int, None] = {}
            for edge in dirty_edges:
                members = self._edge_flows.get(edge)
                if members is None:
                    self._share.pop(edge, None)
                    continue
                fresh = self._share[edge] = self._edge_share(edge)
                if vectorize:
                    self._share_arr[self._edge_ids[edge]] = fresh
                affected_ids.update(members)
            if vectorize and len(affected_ids) >= self._vectorize_min_flows:
                self.vectorized_passes += 1
                changed = self._rerate_vectorized(list(affected_ids), now)
            else:
                self.scalar_passes += 1
                flows = self._flows
                changed = self._rerate_scalar(
                    [flows[fid] for fid in affected_ids],
                    self._share_of,
                    now,
                )
        else:
            shares = {e: self._edge_share(e) for e in self._edge_flows}
            self.scalar_passes += 1
            changed = self._rerate_scalar(
                list(self._flows.values()), shares.__getitem__, now
            )
        if ordered:
            changed.sort(key=lambda f: f.flow_id)
        self.rate_updates += len(changed)
        return changed

    def _rerate_admission(self, flow: Flow, now: float) -> List[Flow]:
        """Decrease-only re-rate specialized for a flow admission.

        Admitting a flow can never *raise* an edge share: the fair share
        is a mediant that only drops as members join, and the Equation 1
        contention penalty only lowers effective capacity.  Every peer's
        rate is therefore exactly ``min(old_rate, fresh share of each
        dirty edge it crosses)`` — no minimum over its clean edges is
        needed, because those shares did not move and the stored rate
        already reflects them.  That turns the admission pass into pure
        numpy over the per-edge slot lists: gather old rates, combine
        the dirty-share candidates per slot (``np.minimum.at`` handles
        flows crossing several dirty edges, so the threshold compares
        the *combined* minimum against the old rate exactly like the
        generic loop), and touch only the flows that actually changed.

        Bit-identity with the generic path holds even though kept rates
        may carry sub-threshold drift: ``min`` is 1-Lipschitz, so the
        fast path's update decision and stored value always match the
        generic recompute's (see the golden determinism suite).

        The just-admitted flow itself (rate 0 → first allocation) takes
        the scalar expression over its own fresh shares.
        """
        edges = flow.edges
        edge_slots = self._edge_slots
        total = 0
        for edge in edges:
            total += len(edge_slots[edge])
        if total < self._vectorize_min_flows:
            return self._reallocate(edges, now, ordered=False)
        self.reallocations += 1
        self.vectorized_passes += 1
        share_arr = self._share_arr
        edge_ids = self._edge_ids
        share_map = self._share
        parts: List["_np.ndarray"] = []
        cands: List["_np.ndarray"] = []
        fresh_shares: List[float] = []
        for edge in edges:
            part = _np.array(edge_slots[edge], dtype=_np.intp)
            fresh = share_map[edge] = self._edge_share_arr(edge, part)
            share_arr[edge_ids[edge]] = fresh
            fresh_shares.append(fresh)
            parts.append(part)
            cands.append(_np.full(part.shape[0], fresh))
        if len(parts) == 1:
            slots_cat, cand_cat = parts[0], cands[0]
        else:
            slots_cat = _np.concatenate(parts)
            cand_cat = _np.concatenate(cands)
        rate_arr = self._rate_arr
        old = rate_arr[slots_cat]
        scratch = self._scratch
        scratch[slots_cat] = old
        _np.minimum.at(scratch, slots_cat, cand_cat)
        new = scratch[slots_cat]
        rel = self._rate_rel_epsilon
        if rel > 0.0:
            threshold = _np.maximum(ABS_RATE_EPS, rel * _np.abs(old))
        else:
            threshold = ABS_RATE_EPS
        rows = _np.nonzero(old - new > threshold)[0]
        changed: List[Flow] = []
        slot_flow = self._slot_flow
        seen = set()
        # The new flow's own rows (old == new == 0) never pass the
        # threshold; it is handled by the scalar expression below.
        for slot, rate in zip(slots_cat[rows].tolist(), new[rows].tolist()):
            if slot in seen:
                continue  # flow crosses several dirty edges
            seen.add(slot)
            peer = slot_flow[slot]
            if now > peer.last_update:
                peer.remaining = max(
                    0.0, peer.remaining - peer.rate * (now - peer.last_update)
                )
                peer.last_update = now
            peer.rate = rate
            rate_arr[slot] = rate
            changed.append(peer)
        new_rate = min(flow.cap, min(fresh_shares))
        threshold0 = ABS_RATE_EPS
        if rel > 0.0:
            threshold0 = max(threshold0, rel * abs(flow.rate))
        if abs(new_rate - flow.rate) > threshold0:
            flow.rate = new_rate  # last_update == now: just admitted
            rate_arr[self._flow_slot[flow.flow_id]] = new_rate
            changed.append(flow)
        self.rate_updates += len(changed)
        return changed

    def _rerate_scalar(self, affected, share, now: float) -> List[Flow]:
        """Reference per-flow re-rate loop (`share` maps edge -> share)."""
        vectorize = self._vectorize
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
                if vectorize:
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
        cat = _np.concatenate(arrs)
        counts = _np.array([a.shape[0] for a in arrs], dtype=_np.intp)
        offsets = _np.zeros(n, dtype=_np.intp)
        _np.cumsum(counts[:-1], out=offsets[1:])
        slots = _np.array(slots_list, dtype=_np.intp)
        seg_min = _np.minimum.reduceat(self._share_arr[cat], offsets)
        caps = self._cap_arr[slots]
        old = self._rate_arr[slots]
        new = _np.minimum(caps, seg_min)
        rel = self._rate_rel_epsilon
        if rel > 0.0:
            threshold = _np.maximum(ABS_RATE_EPS, rel * _np.abs(old))
        else:
            threshold = ABS_RATE_EPS
        changed: List[Flow] = []
        rate_arr = self._rate_arr
        flows = self._flows
        idx = _np.nonzero(_np.abs(new - old) > threshold)[0]
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
