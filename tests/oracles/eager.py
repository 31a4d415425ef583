"""The eager event discipline, the reference for the earliest-wins one.

The production :class:`~repro.runtime.simulator.Simulator` posts a
flow's completion event only when its ETA moves earlier, cancels the
superseded entry in place, lets an early wakeup repost itself, and
settles the joins and finishes of one instant in one solver pass.
:class:`EagerSimulator` does none of that:

* every rate change — peers of an admission included — bumps the
  flow's version and posts a fresh event at the new ETA;
* superseded events stay in the queue, are dispatched, and are
  recognised by their stale version;
* every admission and every finish runs its own solver pass at once.

Both disciplines run on the same monotone network clock (a flow joins
at its first byte), so they must reach the same completion times
(``tests/test_eager_discipline.py``).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.runtime.simulator import _EPS, _INF, Simulator


class EagerSimulator(Simulator):
    """Reposts on every rate change; stale events die by version."""

    def __init__(self, *args, **kwargs) -> None:
        self._flow_version: Dict[int, int] = {}
        super().__init__(*args, **kwargs)

    def _admit(self, send) -> None:
        """Solve once per admission, explicitly, and repost every peer
        the join slowed down."""
        task_id, mb, sender_index, edges, nbytes, cap = send
        flow = self.network.start_flow(edges, nbytes, cap, self.now)
        self._flows[flow.flow_id] = (flow, task_id, mb, sender_index)
        changed = self.network.rerate_edges(self.now)
        self._post_flow_eta(flow)
        for other in changed:
            if other is not flow:
                self._post_flow_eta(other)

    def _post_flow_eta(self, flow) -> None:
        flow_id = flow.flow_id
        version = self._flow_version.get(flow_id, 0) + 1
        self._flow_version[flow_id] = version
        eta = flow.eta()
        if eta != _INF:
            if eta < self.now:
                eta = self.now
            self.counters.events_posted += 1
            self._queue.post(eta, next(self._seq), "flow", (flow_id, version))

    def _maybe_finish_flow(self, payload: Tuple[int, int]) -> None:
        flow_id, version = payload
        if self._flow_version.get(flow_id) != version:
            self.counters.stale_events_skipped += 1
            return
        entry = self._flows.get(flow_id)
        if entry is None:
            self.counters.stale_events_skipped += 1
            return
        flow = entry[0]
        flow.advance_to(self.now)
        if flow.remaining > _EPS:
            self._post_flow_eta(flow)
            return
        del self._flows[flow_id]
        del self._flow_version[flow_id]
        self.network.finish_flow(flow, self.now)
        for other in self.network.rerate_edges(self.now):
            self._post_flow_eta(other)
        self._send_done(*entry)
