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
* :class:`FromScratchStepSimulator` — recomputes every step's route,
  send cap, route latency and copy time from the cluster and the
  step's own TB instead of reading the production step table;
* :class:`PerAdmissionSimulator` — settles every admission in a solver
  pass of its own instead of one pass per event instant: the same
  physics in more passes, the pinned reference of
  ``benchmarks/test_perf_scaling.py``.

Each network and :class:`FromScratchStepSimulator` reproduces the golden
digests (``tests/test_golden_oracles.py``).
"""

from __future__ import annotations

from typing import List

from repro.ir.task import CommType
from repro.runtime.flows import ABS_RATE_EPS, Flow, FlowNetwork
from repro.runtime.plan import Side
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


_production_lower = Simulator._lower


class _Recomputed:
    """A per-task table that recomputes its entry on every read."""

    def __init__(self, compute) -> None:
        self._compute = compute

    def __getitem__(self, task_id: int):
        return self._compute(task_id)


class FromScratchStepSimulator(Simulator):
    """Lowers every step from scratch, reusing nothing across tasks or TBs.

    Each step's send cap or copy time is recomputed from the cluster
    profile and the step's own TB, and every read of a task's route or
    protocol-adjusted route latency recomputes it with
    ``cluster.path`` — the production step table derives each once.
    """

    def _lower(self) -> None:
        # Called explicitly, not via super(), so the golden-oracle suite
        # can install this method on Simulator itself.
        _production_lower(self)
        cluster = self.cluster
        profile = cluster.profile
        protocol = self.config.protocol
        chunk_bytes = self.plan.chunk_bytes

        def path(task_id):
            task = self.dag.task(task_id)
            return cluster.path(task.src, task.dst)

        self._task_edges = _Recomputed(lambda t: path(t).edges)
        self._task_alpha = _Recomputed(
            lambda t: path(t).latency_us * protocol.latency_factor
        )
        n_mb = self.plan.n_microbatches
        for tb in self.tbs:
            steps = []
            for inv, lowered in zip(tb.program.invocations, tb.steps):
                is_send = inv.side is Side.SEND
                copy_bw = profile.tb_copy_bandwidth(tb.program.nwarps)
                if is_send:
                    value = copy_bw * protocol.bandwidth_efficiency
                else:
                    value = chunk_bytes / copy_bw
                    if self.dag.task(inv.task_id).op is CommType.RRC:
                        value += chunk_bytes * profile.reduce_cost_per_byte_us
                # The credit slot is a state index, not physics.
                steps.append((
                    is_send, inv.task_id, inv.mb,
                    inv.task_id * n_mb + inv.mb, lowered[4], value,
                ))
            tb.steps = steps


class PerAdmissionSimulator(Simulator):
    """Solves once per admission: the instant's pending finishes settle
    before the join, and the join settles in a pass of its own."""

    def _admit(self, send) -> None:
        self._flush_rerate()
        super()._admit(send)
        self._flush_rerate()
