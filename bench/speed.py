"""Machine-speed trace that scales host times to a reference machine.

The shared machines this benchmark runs on change speed in steps: each
CPU is, independently of the other, either fast or up to 1.8x slower,
and switches every second or so (a fixed loop took 5.5 ms, then 10 ms,
on one CPU while the other read steady).  Raw timings of one commit
therefore differ by a quarter between runs.  A calibration taken before
or after an operation misses switches during it, so :class:`SpeedTrace`
measures all the time instead: one shadow process per CPU, pinned to it,
runs a fixed round of interpreter work — the dict, heap, tuple and sort
operations the program's hot paths are made of — every
:data:`INTERVAL_S` and records how long the round took.  A host time
measured on some CPUs over some interval is then scaled by the mean of
``REFERENCE_S / round`` over the rounds there and then, and reads as
host time on a machine whose round takes :data:`REFERENCE_S`.  Scaled,
the geomean item time of the batch workloads moved by about 2% between
runs where the raw one moved by 15%.

The shadows cost each CPU about 5% of its time.  Run as a script, this
module is one shadow: ``python3 bench/speed.py <cpu> <file> <parent pid>``.
"""

from __future__ import annotations

import bisect
import heapq
import os
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

#: Round time of the reference machine (a 2-core VM in its fast step).
REFERENCE_S = 0.001

#: Pause between two rounds of a shadow.
INTERVAL_S = 0.02

#: One record: round start, round end (``perf_counter``), round CPU seconds.
_RECORD = struct.Struct("ddd")


def calibration_round() -> None:
    """One fixed round of interpreter work (about 1 ms)."""
    table = {}
    heap = []
    for i in range(1500):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0.0) + i * 0.5
        heapq.heappush(heap, (table[key], i))
        if len(heap) > 64:
            heapq.heappop(heap)
    records = [(str(j), j) for j in range(400)]
    records.sort()


def shadow(cpu: int, path: str, parent: int) -> None:
    """Run rounds on ``cpu`` until process ``parent`` is gone, appending
    a record per round to ``path``.  The round is timed in thread CPU
    time, so work that preempts the shadow on its CPU does not count as
    slowness."""
    os.sched_setaffinity(0, {cpu})
    with open(path, "ab", buffering=0) as out:
        while os.getppid() == parent:
            time.sleep(INTERVAL_S)
            start, cpu_start = time.perf_counter(), time.thread_time()
            calibration_round()
            out.write(_RECORD.pack(start, time.perf_counter(), time.thread_time() - cpu_start))


class SpeedTrace:
    """Shadow processes on every CPU this process may use, and the speed
    record they leave.

    Use as a context manager; on exit the shadows are stopped and waited
    for, their files removed, and the calling thread may again run on
    every CPU it could at entry.
    """

    def __init__(self, directory: Path) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.directory = directory
        self.paths: Dict[int, Path] = {}
        self.procs: List[subprocess.Popen] = []

    def __enter__(self) -> "SpeedTrace":
        self.directory.mkdir(parents=True, exist_ok=True)
        try:
            for cpu in self.cpus:
                path = self.directory / f"speed-{os.getpid()}-{cpu}.bin"
                path.write_bytes(b"")
                self.paths[cpu] = path
                self.procs.append(subprocess.Popen([
                    sys.executable, str(Path(__file__).resolve()),
                    str(cpu), str(path), str(os.getpid()),
                ]))
            deadline = time.monotonic() + 30.0
            while not all(path.stat().st_size >= _RECORD.size for path in self.paths.values()):
                if time.monotonic() > deadline:
                    raise RuntimeError("speed shadows recorded nothing for 30 s")
                time.sleep(INTERVAL_S)
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def close(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.wait(timeout=30)
        self.procs = []
        for path in self.paths.values():
            path.unlink(missing_ok=True)
        self.unpin()

    def unpin(self) -> None:
        """Let the calling thread run on every CPU again."""
        os.sched_setaffinity(0, set(self.cpus))

    def records(self) -> Dict[int, List[Tuple[float, float, float]]]:
        """Every record so far, per CPU, in start order."""
        out = {}
        for cpu, path in self.paths.items():
            data = path.read_bytes()
            usable = len(data) - len(data) % _RECORD.size
            out[cpu] = list(_RECORD.iter_unpack(data[:usable]))
        return out

    def latest(self, cpu: int) -> float:
        """Seconds the last round on ``cpu`` took."""
        with open(self.paths[cpu], "rb") as f:
            size = f.seek(0, os.SEEK_END)
            f.seek(size - size % _RECORD.size - _RECORD.size)
            return _RECORD.unpack(f.read(_RECORD.size))[2]

    def fastest(self) -> int:
        """The CPU whose last round was fastest."""
        return min(self.cpus, key=self.latest)

    def pin_fastest(self) -> int:
        """Pin the calling thread to the :meth:`fastest` CPU; return it."""
        cpu = self.fastest()
        os.sched_setaffinity(0, {cpu})
        return cpu

    def scaler(self) -> "Scaler":
        """A frozen view of the records so far, for scaling.  It waits
        one interval first, so rounds that began during the operations
        just timed have landed."""
        time.sleep(INTERVAL_S + 2 * REFERENCE_S)
        return Scaler(self.records())


class Scaler:
    """Scales host times with the rounds recorded while they ran."""

    def __init__(self, records: Dict[int, List[Tuple[float, float, float]]]) -> None:
        self.records = records
        self.starts = {cpu: [r[0] for r in rows] for cpu, rows in records.items()}

    def rounds(self, cpus: Iterable[int], start: float, end: float) -> List[float]:
        """Seconds of the rounds on ``cpus`` that began in ``[start,
        end]``; for a CPU with none, of the round that began closest to
        the interval's middle."""
        rounds = []
        for cpu in cpus:
            rows, starts = self.records[cpu], self.starts[cpu]
            lo, hi = bisect.bisect_left(starts, start), bisect.bisect_right(starts, end)
            if hi > lo:
                rounds += [r[2] for r in rows[lo:hi]]
            elif rows:
                middle = (start + end) / 2
                near = min(rows[max(lo - 1, 0):lo + 1], key=lambda r: abs(r[0] - middle))
                rounds.append(near[2])
        return rounds

    def factor(self, cpus: Iterable[int], start: float, end: float) -> float:
        """Multiplier from host time on ``cpus`` during ``[start, end]``
        to reference-machine time: the mean speed there and then,
        relative to the reference.  Speed is work per second, the
        inverse of a round's time; work done over an interval is its
        mean speed times its length, on one CPU whose speed changes as
        on several CPUs working at once."""
        return statistics.mean(REFERENCE_S / r for r in self.rounds(cpus, start, end))

    def scale(self, cpus: Iterable[int], start: float, end: float) -> float:
        """Reference-machine seconds of the host interval ``[start, end]``."""
        return (end - start) * self.factor(cpus, start, end)


if __name__ == "__main__":
    shadow(int(sys.argv[1]), sys.argv[2], int(sys.argv[3]))
