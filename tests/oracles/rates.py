"""Reference rate solvers and the per-pass water-filling invariant.

The production :class:`~repro.runtime.flows.FlowNetwork` is incremental:
it recomputes only dirty edges and serves the rest from a share cache.
This module holds what it is checked against:

* :func:`water_filled_share` — one edge's share computed from scratch,
  the expression ``FlowNetwork._edge_share`` must reproduce bit for
  bit;
* :class:`RateOracleNetwork` — after every solver pass, asserts that
  every live flow's rate equals ``min(cap, min over its edges of the
  from-scratch share)`` within :data:`~repro.runtime.flows.ABS_RATE_EPS`:
  the per-epoch progressive filling of the multi-commodity-flow
  formulation;
* :class:`ScalarFlowNetwork` — computes every edge share with
  :func:`water_filled_share`;
* :class:`BruteForceFlowNetwork` — also recomputes every occupied edge
  and re-rates every live flow on every pass (no share cache);
* :class:`PerInstanceSimulator` (and the two functions it installs) —
  recomputes each micro-batch instance's schedule metadata instead of
  sharing the representative's;
* :class:`PerAdmissionSimulator` — settles every admission in a solver
  pass of its own instead of one pass per event instant: the same
  physics in more passes, the pinned reference of
  ``benchmarks/test_perf_scaling.py``.

Each network and :class:`PerInstanceSimulator` reproduces the golden
digests (``tests/test_golden_oracles.py``).
"""

from __future__ import annotations

from typing import List

from repro.runtime.flows import ABS_RATE_EPS, Flow, FlowNetwork
from repro.runtime.simulator import Simulator


def water_filled_share(network: FlowNetwork, edge: str) -> float:
    """Per-flow share of one edge after one water-filling round.

    Flows capped below the equal share donate their spare capacity to
    the remaining flows of the edge.
    """
    flows = network._flows
    flow_ids = network._edge_flows.get(edge, ())
    k = len(flow_ids)
    capacity = network.effective_capacity(edge)
    if k == 0:
        return capacity
    equal = capacity / k
    capped = [flows[fid].cap for fid in flow_ids if flows[fid].cap < equal]
    uncapped = k - len(capped)
    if uncapped == 0:
        return equal
    return (capacity - sum(capped)) / uncapped


class ScalarFlowNetwork(FlowNetwork):
    """Every edge share computed from scratch by :func:`water_filled_share`."""

    def _edge_share(self, edge: str) -> float:
        self.shares_computed += 1
        return water_filled_share(self, edge)


class BruteForceFlowNetwork(ScalarFlowNetwork):
    """Recompute every occupied edge, re-rate every live flow, per pass."""

    def _reallocate(self, now: float) -> List[Flow]:
        self.reallocations += 1
        self.dirty_edges = {}
        self._share = {e: self._edge_share(e) for e in self._edge_flows}
        return self._rerate(list(self._flows.values()), now)


class RateOracleNetwork(FlowNetwork):
    """The production network, checked against the invariant per pass.

    A join or finish leaves rates stale until the next pass settles its
    dirty edges, so :meth:`check` skips while any edge is dirty; every
    pass settles them all, so no pass is skipped.  Only exact mode
    (``rate_rel_epsilon == 0``) is checked.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.passes_checked = 0
        self.max_error = 0.0

    def _reallocate(self, now: float) -> List[Flow]:
        changed = super()._reallocate(now)
        self.check(now)
        return changed

    def check(self, now: float) -> None:
        """Assert the invariant for every live flow."""
        if self.dirty_edges or self._rate_rel_epsilon > 0.0:
            return
        shares = {e: water_filled_share(self, e) for e in self._edge_flows}
        for flow in self._flows.values():
            expected = min(flow.cap, min(shares[e] for e in flow.edges))
            error = abs(flow.rate - expected)
            if error > self.max_error:
                self.max_error = error
            assert error <= ABS_RATE_EPS, (
                f"t={now}: flow {flow.flow_id} on {flow.edges} runs at "
                f"{flow.rate!r}, water-filling gives {expected!r}"
            )
        self.passes_checked += 1


_shared_send_meta = Simulator._send_meta
_shared_recv_duration = Simulator._recv_duration


def send_meta_per_instance(self, tb, task_id, task):
    """``Simulator._send_meta`` without sharing across siblings."""
    meta = _shared_send_meta(self, tb, task_id, task)
    del self._task_send_meta[task_id]
    return meta


def recv_duration_per_instance(self, tb, task_id):
    """``Simulator._recv_duration`` without sharing across siblings."""
    duration = _shared_recv_duration(self, tb, task_id)
    del self._task_recv_duration[task_id]
    return duration


class PerInstanceSimulator(Simulator):
    """Recomputes route, send cap and copy time for every instance."""

    _send_meta = send_meta_per_instance
    _recv_duration = recv_duration_per_instance


class PerAdmissionSimulator(Simulator):
    """Solves once per admission: the instant's pending finishes settle
    before the join, and the join settles in a pass of its own."""

    def _admit(self, send) -> None:
        self._flush_rerate()
        super()._admit(send)
        self._flush_rerate()
