"""The event queue: ascending ``(time, seq)`` pops, lazy cancellation, peek.

These tests pin the contract the simulator's determinism rests on — any
event stream pops in ascending ``(time, seq)`` order, cancelled entries
are skipped (and counted) without dispatch, and ``peek`` returns exactly
the entry the next ``pop`` would deliver.
"""

import random

from repro.runtime.events import EventQueue


def _drain(queue):
    out = []
    while True:
        entry = queue.pop()
        if entry is None:
            return out
        out.append((entry[0], entry[1], entry[2]))


def _random_stream(seed, n=500, horizon=1000.0):
    rng = random.Random(seed)
    return [
        (rng.uniform(0.0, horizon), seq, f"k{seq % 7}") for seq in range(n)
    ]


class TestOrder:
    def test_pops_in_time_then_seq_order(self):
        queue = EventQueue()
        stream = _random_stream(0)
        for time, seq, kind in stream:
            queue.post(time, seq, kind, None)
        assert _drain(queue) == sorted(stream)

    def test_interleaved_post_and_pop(self):
        """Posts made between pops still come out globally ordered."""
        queue = EventQueue()
        stream = _random_stream(3, n=200, horizon=100.0)
        for time, seq, kind in stream[:100]:
            queue.post(time, seq, kind, None)
        seq = 1000
        last = (-1.0, -1)
        for _ in range(100):
            entry = queue.pop()
            assert (entry[0], entry[1]) > last
            last = (entry[0], entry[1])
            queue.post(entry[0] + 0.5, seq, "follow", None)
            seq += 1
        rest = _drain(queue)
        assert rest == sorted(rest)
        assert (rest[0][0], rest[0][1]) > last

    def test_same_time_orders_by_seq(self):
        queue = EventQueue()
        for seq in (5, 1, 3):
            queue.post(7.0, seq, "tie", None)
        assert [e[1] for e in _drain(queue)] == [1, 3, 5]


class TestCancellation:
    def test_cancelled_entries_are_skipped_and_counted(self):
        queue = EventQueue()
        entries = [queue.post(float(i), i, "e", None) for i in range(10)]
        for entry in entries[::2]:
            queue.cancel(entry)
        assert [e[1] for e in _drain(queue)] == [1, 3, 5, 7, 9]
        assert queue.cancelled_skipped == 5

    def test_depth_tracks_pending_entries(self):
        queue = EventQueue()
        for i in range(8):
            queue.post(float(i), i, "e", None)
        assert len(queue) == 8
        assert queue.depth_max == 8
        queue.pop()
        assert len(queue) == 7


class TestPeek:
    def test_peek_matches_next_pop(self):
        queue = EventQueue()
        for time, seq, kind in _random_stream(4, n=64):
            queue.post(time, seq, kind, None)
        while True:
            peeked = queue.peek()
            popped = queue.pop()
            assert peeked is popped
            if popped is None:
                return

    def test_peek_discards_dead_prefix(self):
        queue = EventQueue()
        dead = queue.post(1.0, 0, "dead", None)
        live = queue.post(2.0, 1, "live", None)
        queue.cancel(dead)
        assert queue.peek() is live
        assert queue.cancelled_skipped == 1
        assert queue.pop() is live

    def test_peek_empty(self):
        queue = EventQueue()
        assert queue.peek() is None
        assert queue.pop() is None
