"""Content-addressed cache of compiled execution pipelines (GC3).

Every sweep point, chaos-corpus cell, and replan retry re-enters
:meth:`~repro.core.compiler.ResCCLCompiler.compile` — usually with the
*same* algorithm on the *same* fabric.  This module memoizes the
compiler behind a content hash so compilation is amortized across
executions:

* **Key** — SHA-256 over the ResCCLang source text (built programs are
  serialized through :meth:`AlgoProgram.to_source`, which round-trips
  through the parser), the cluster's :meth:`~repro.topology.Cluster.
  fingerprint` (shape + hardware constants + per-edge capacities, so a
  degraded fabric never aliases a healthy one), the scheduler name, the
  validation flag, and :data:`CACHE_FORMAT_VERSION`.
* **In-process tier** — an LRU of :class:`CompileResult` objects, each
  holding a parsed program, its DAG and its scheduled pipeline.  Results
  are treated as immutable by every caller; TB allocation and kernel
  generation run at plan time, once per micro-batch count, in the
  lowered tier (:meth:`PlanCache.lowered`).
* **Lowered tier** — any content key plus plan-shaping knobs → a built
  value.  ResCCL keeps its TB programs here under the compile key; the
  NCCL and MSCCL baselines keep their compiled form here too: a
  structure (program, DAG, per-rank TB task groups) under a key of the
  call's shape, and its TB programs under that key plus the micro-batch
  count and warp count (and MSCCL's instances).  Every plan of one
  shape shares those objects, which no caller alters.
* **On-disk tier** — opt-in (``--cache-dir``, the ``RESCCL_CACHE_DIR``
  environment variable, or :func:`configure`): one pickle per key under
  the cache directory, written atomically.  A version bump or an unknown
  key changes the digest (and so the filename), so stale entries are
  simply never read again.  A *corrupt* entry — truncated, unpicklable,
  or failing the embedded version/key self-check — is quarantined to
  ``<key>.corrupt`` on first read so it is not re-parsed on every miss
  (multi-process daemons share this tier as their L2), counted in
  ``compile_cache_corrupt_total``, and the compile proceeds as a miss.
* **Front-end tier** — ``(source, topology, validate)`` →
  ``(program, DAG)``, so recompiling the same algorithm under a
  different scheduler (the Figure 10(b) HPDS-vs-RR sweeps) reuses
  parsing and analysis.  The replan path bypasses the cache: it
  schedules an already-built residual DAG, so it never re-parses.
* **Report tier** — :attr:`ExecutionPlan.cache_key` (stamped by every
  backend through :func:`plan_key`) → a compact
  :class:`~repro.runtime.metrics.ReportSnapshot` of the plan's
  simulation, so a training loop that issues the same collective call
  every iteration simulates it once (section 4.5: compile once, then
  only re-run).  :func:`~repro.runtime.simulate` consults it only for
  a keyed plan with no fault injector, recovery policy, background
  traffic or trace; every hit rebuilds a fresh report.  The tier also
  remembers which keys passed :meth:`ExecutionPlan.validate`, so a
  keyed plan is validated once per process.

Hits and misses are published to the ambient metrics registry
(``compile_cache_{hits,misses}_total``, ``sim_report_cache_hits_total``)
and tracked on :class:`CacheStats` for the benchmarks and ``resccl
profile``.  Every tier shares the LRU capacity and :meth:`PlanCache.clear`.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

try:  # pragma: no cover - present on every supported platform
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from ..obs.metrics import current_registry

#: Bump whenever CompileResult (or anything reachable from it) changes
#: shape — stale on-disk entries are then invisible, not corrupt.
#: v2: CompileResult grew ``cache_key`` (the lowered-tier memo anchor).
#: v3: CompileResult lost ``assignments`` (compile stops at the pipeline).
CACHE_FORMAT_VERSION = 3

#: Default in-process LRU capacity (compiled pipelines are small
#: relative to a simulation's working set).
DEFAULT_CAPACITY = 128


def plan_key(backend: str, *parts: object) -> str:
    """Provenance key of one built plan (:attr:`ExecutionPlan.cache_key`).

    ``parts`` must cover every input the backend's plan construction
    reads.  Each is rendered with ``str``, which is exact for numbers;
    callers pass the ``repr`` of anything richer (a backend, a config).
    """
    return PlanCache._digest(
        f"v{CACHE_FORMAT_VERSION}", "plan", backend, *map(str, parts)
    )


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/resccl`` (or ``~/.cache/resccl``)."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "resccl"


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    frontend_hits: int = 0
    disk_hits: int = 0
    disk_writes: int = 0
    disk_corrupt: int = 0
    lowered_hits: int = 0
    report_hits: int = 0
    report_misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of :meth:`PlanCache.compile` calls served cached."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def summary(self) -> str:
        text = (
            f"plan cache: {self.hits}/{self.lookups} hit(s) "
            f"({self.hit_rate:.1%}; {self.disk_hits} from disk, "
            f"{self.frontend_hits} front-end reuse(s), "
            f"{self.disk_writes} disk write(s)); "
            f"report tier: {self.report_hits} hit(s), "
            f"{self.report_misses} miss(es)"
        )
        if self.disk_corrupt:
            text += f" [{self.disk_corrupt} corrupt entr(ies) quarantined]"
        return text


class PlanCache:
    """LRU + optional on-disk cache of :class:`CompileResult` objects.

    Args:
        capacity: in-process LRU entry bound (0 disables memoization,
            leaving only the disk tier if one is configured).
        cache_dir: directory for the on-disk tier; ``None`` keeps the
            cache purely in-process.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        cache_dir: Union[str, Path, None] = None,
    ) -> None:
        self.capacity = capacity
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._memo: "OrderedDict[str, object]" = OrderedDict()
        self._frontend: "OrderedDict[str, Tuple[object, object]]" = OrderedDict()
        self._lowered: "OrderedDict[Tuple, object]" = OrderedDict()
        self._reports: "OrderedDict[str, object]" = OrderedDict()
        self._validated: "OrderedDict[str, None]" = OrderedDict()
        self.stats = CacheStats()

    # -- keying ---------------------------------------------------------

    @staticmethod
    def _source_of(algorithm) -> str:
        if isinstance(algorithm, str):
            return algorithm
        return algorithm.to_source()

    @staticmethod
    def _digest(*parts: str) -> str:
        payload = "\x00".join(parts).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def compile_key(
        self, source: str, cluster, scheduler: str, validate: bool
    ) -> str:
        """Content-hash key for a full compile."""
        return self._digest(
            f"v{CACHE_FORMAT_VERSION}",
            "compile",
            source,
            cluster.fingerprint(),
            scheduler,
            f"validate={bool(validate)}",
        )

    def frontend_key(self, source: str, cluster, validate: bool) -> str:
        """Key for the parse+analysis (phases 1-2) portion."""
        return self._digest(
            f"v{CACHE_FORMAT_VERSION}",
            "frontend",
            source,
            cluster.fingerprint(),
            f"validate={bool(validate)}",
        )

    # -- the cached compile entry point --------------------------------

    def compile(self, compiler, algorithm, cluster):
        """``compiler.compile(algorithm, cluster)``, memoized by content.

        ``compiler`` is a :class:`~repro.core.compiler.ResCCLCompiler`;
        its ``scheduler`` and ``validate`` attributes are part of the
        key.  On a full miss the front-end tier may still supply the
        parsed program + DAG so only scheduling runs.
        """
        source = self._source_of(algorithm)
        key = self.compile_key(
            source, cluster, compiler.scheduler, compiler.validate
        )
        result = self._memo_get(key)
        if result is not None:
            self._count_hit()
            return result
        result = self._disk_get(key)
        if result is not None:
            result.cache_key = key
            self._memo_put(key, result)
            self.stats.disk_hits += 1
            self._count_hit()
            return result

        fe_key = self.frontend_key(source, cluster, compiler.validate)
        frontend = self._frontend.get(fe_key)
        if frontend is not None:
            self._frontend.move_to_end(fe_key)
            self.stats.frontend_hits += 1
        result = compiler.compile(algorithm, cluster, frontend=frontend)
        result.cache_key = key
        self._count_miss()
        self._memo_put(key, result)
        if frontend is None:
            self._frontend[fe_key] = (result.program, result.dag)
            while len(self._frontend) > max(self.capacity, 1):
                self._frontend.popitem(last=False)
        self._disk_put(key, result)
        return result

    def lowered(self, cache_key: str, *knobs, build):
        """``build()``, memoized under ``(cache_key, *knobs)``.

        A compile stops at the pipeline, so every plan call would
        otherwise allocate TBs and lower them even when the compile
        itself is a cache hit — for large winners that lowering
        dominates the request-time cost.  ``cache_key`` is any content
        key: a :class:`CompileResult`'s hash, whose ``knobs`` are the
        plan-shaping inputs (micro-batch count, pipelining allowance,
        warp count; the service's compile op keys its fingerprint under
        ``"fingerprint"``), or a baseline's structure key
        (:func:`plan_key` over the call's shape), alone for the
        structure and with the micro-batch count, warp count and MSCCL
        instances for its TB programs.  Results built outside the cache
        carry an empty ``cache_key`` and bypass the tier rather than
        alias each other; a disabled cache (``capacity <= 0``) calls
        ``build()`` every time.
        """
        if not cache_key or self.capacity <= 0:
            return build()
        key = (cache_key, *knobs)
        hit = self._lowered.get(key)
        if hit is not None:
            self._lowered.move_to_end(key)
            self.stats.lowered_hits += 1
            return hit
        value = build()
        self._lowered[key] = value
        while len(self._lowered) > self.capacity:
            self._lowered.popitem(last=False)
        return value

    def report_snapshot(self, key: str):
        """The stored simulation snapshot of plan ``key`` (a hit), or
        ``None`` (a miss)."""
        snapshot = self._reports.get(key)
        if snapshot is None:
            self.stats.report_misses += 1
            return None
        self._reports.move_to_end(key)
        self.stats.report_hits += 1
        registry = current_registry()
        if registry is not None:
            registry.inc("sim_report_cache_hits_total")
        return snapshot

    def store_report(self, key: str, snapshot) -> None:
        """Keep the simulation snapshot of plan ``key`` (LRU-bounded)."""
        self._put(self._reports, key, snapshot)

    def validate(self, plan) -> None:
        """``plan.validate()``, once per keyed plan.

        A plan whose :attr:`~repro.runtime.plan.ExecutionPlan.cache_key`
        already validated is not re-checked; an unkeyed plan is checked
        on every call.
        """
        key = plan.cache_key
        if key and key in self._validated:
            self._validated.move_to_end(key)
            return
        plan.validate()
        if key:
            self._put(self._validated, key, None)

    def _put(self, tier: OrderedDict, key, value) -> None:
        if self.capacity <= 0:
            return
        tier[key] = value
        tier.move_to_end(key)
        while len(tier) > self.capacity:
            tier.popitem(last=False)

    def clear(self) -> None:
        """Drop the in-process tiers and reset the statistics."""
        self._memo.clear()
        self._frontend.clear()
        self._lowered.clear()
        self._reports.clear()
        self._validated.clear()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._memo)

    # -- in-process tier ------------------------------------------------

    def _memo_get(self, key: str):
        result = self._memo.get(key)
        if result is not None:
            self._memo.move_to_end(key)
        return result

    def _memo_put(self, key: str, result) -> None:
        if self.capacity <= 0:
            return
        self._memo[key] = result
        self._memo.move_to_end(key)
        while len(self._memo) > self.capacity:
            self._memo.popitem(last=False)

    # -- on-disk tier ---------------------------------------------------

    def _entry_path(self, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.pkl"

    @contextlib.contextmanager
    def _entry_lock(self, path: Path):
        """Per-key ``fcntl`` advisory lock for disk-tier mutations.

        The atomic-rename protocol already makes concurrent *processes*
        safe against torn reads (their tmp names embed distinct pids and
        ``os.replace`` is atomic), but two mutations of the same key can
        still interleave: threads sharing one pid collide on the tmp
        name, and a quarantine rename can race a concurrent writer's
        fresh ``os.replace`` and sweep the *good* replacement entry into
        ``<key>.corrupt``.  Daemons sharing a cache dir as their L2
        (``RESCCL_CACHE_DIR``) hit both.  The lock file is tiny,
        per-key, and never deleted (deleting an flock'd file reopens the
        unlink race the lock exists to close).  Best-effort: if the lock
        cannot be taken (exotic filesystem, no ``fcntl``), mutation
        proceeds under the old atomic-rename-only guarantees.
        """
        if fcntl is None or self.cache_dir is None:
            yield
            return
        lock_path = path.with_suffix(".lock")
        try:
            fh = open(lock_path, "a")
        except OSError:
            yield
            return
        try:
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            except OSError:
                pass
            yield
        finally:
            fh.close()

    def _disk_get(self, key: str):
        path = self._entry_path(key)
        if path is None:
            return None
        try:
            with path.open("rb") as fh:
                entry = pickle.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            # Truncated or written by an incompatible build: quarantine
            # so the broken bytes are not re-parsed on every future miss
            # (concurrent writers may have already replaced the file —
            # the rename is best-effort), then compile as a plain miss.
            self._quarantine(path)
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("version") != CACHE_FORMAT_VERSION
            or entry.get("key") != key
        ):
            # The payload unpickled but fails the self-check (e.g. a
            # hash-colliding or hand-edited file): equally corrupt.
            self._quarantine(path)
            return None
        return entry.get("result")

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside as ``<key>.corrupt`` and count it."""
        try:
            with self._entry_lock(path):
                os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            pass
        self.stats.disk_corrupt += 1
        registry = current_registry()
        if registry is not None:
            registry.inc("compile_cache_corrupt_total")

    def _disk_put(self, key: str, result) -> None:
        path = self._entry_path(key)
        if path is None:
            return
        entry = {"version": CACHE_FORMAT_VERSION, "key": key, "result": result}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with self._entry_lock(path):
                if path.exists():
                    # Content-addressed: a concurrent writer already
                    # persisted this exact result — rewriting identical
                    # bytes is churn (and, unlocked, the tmp-name race).
                    return
                tmp = path.with_suffix(f".tmp.{os.getpid()}")
                with tmp.open("wb") as fh:
                    pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            self.stats.disk_writes += 1
        except OSError:
            # A read-only or full cache directory must never fail a
            # compile; the result is simply not persisted.
            pass

    # -- accounting -----------------------------------------------------

    def _count_hit(self) -> None:
        self.stats.hits += 1
        registry = current_registry()
        if registry is not None:
            registry.inc("compile_cache_hits_total")

    def _count_miss(self) -> None:
        self.stats.misses += 1
        registry = current_registry()
        if registry is not None:
            registry.inc("compile_cache_misses_total")


# ----------------------------------------------------------------------
# Process-wide default cache (what ResCCLBackend and the CLI use)
# ----------------------------------------------------------------------

_default_cache: Optional[PlanCache] = None


def get_cache() -> PlanCache:
    """The process-wide plan cache (created on first use).

    The disk tier is enabled automatically when ``RESCCL_CACHE_DIR`` is
    set; otherwise the default cache is purely in-process until
    :func:`configure` is called (e.g. by the CLI's ``--cache-dir``).
    """
    global _default_cache
    if _default_cache is None:
        env_dir = os.environ.get("RESCCL_CACHE_DIR")
        _default_cache = PlanCache(cache_dir=env_dir or None)
    return _default_cache


def configure(
    cache_dir: Union[str, Path, None] = None,
    capacity: Optional[int] = None,
    enabled: bool = True,
) -> PlanCache:
    """Replace the process-wide cache (CLI ``--cache-dir``/``--no-cache``).

    Args:
        cache_dir: on-disk tier directory; the string ``"auto"`` selects
            :func:`default_cache_dir`; ``None`` keeps in-process only.
        capacity: in-process LRU bound override.
        enabled: ``False`` installs a disabled cache (every compile runs).
    """
    global _default_cache
    if cache_dir == "auto":
        cache_dir = default_cache_dir()
    if not enabled:
        _default_cache = PlanCache(capacity=0, cache_dir=None)
    else:
        _default_cache = PlanCache(
            capacity=DEFAULT_CAPACITY if capacity is None else capacity,
            cache_dir=cache_dir,
        )
    return _default_cache


__all__ = [
    "CACHE_FORMAT_VERSION",
    "CacheStats",
    "PlanCache",
    "configure",
    "default_cache_dir",
    "get_cache",
    "plan_key",
]
