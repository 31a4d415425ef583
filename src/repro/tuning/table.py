"""Persistent, content-addressed tuning tables.

A tuning table maps ``(collective, buffer size, topology fingerprint)``
*cells* to the winning plan-shaping configuration the autotuner found
for that cell (:mod:`repro.tuning.tuner`).  Serving consults the table
at request time — :meth:`repro.core.backend.ResCCLBackend.plan` resolves
a tuned cell to the winning plan with no search on the hot path.

The table follows the same persistence discipline as the compiled-plan
cache (:mod:`repro.core.plancache`):

* **Keys** are SHA-256 content hashes over the cell identity plus
  :data:`TUNING_FORMAT_VERSION`, so a format bump makes every old cell
  invisible rather than corrupt.
* **Writes** are atomic (tmp file + ``os.replace``) and deterministic:
  the JSON serialization is sorted, carries no wall clocks, and is
  therefore byte-identical for the same corpus + seed.
* **Damage** is quarantined as a silent miss: an unreadable,
  unparseable, or version-mismatched table file is moved aside to
  ``<path>.corrupt`` and an empty table is served; an individual entry
  failing its embedded key self-check is dropped.  Both are counted in
  ``tuning_table_corrupt_total``.

Lookups publish ``tuning_table_{hits,misses}_total`` to the ambient
metrics registry.  The module-level :func:`get_table` /
:func:`configure_tuning` pair mirrors ``plancache.get_cache()`` — the
``RESCCL_TUNING_TABLE`` environment variable arms the table in worker
processes that never parse CLI flags.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..algorithms import available_algorithms
from ..ir.task import parse_collective
from ..obs.metrics import current_registry
from ..request import RequestError, build_cluster, resolve_spec, split_spec
from ..topology import Cluster

#: Bump whenever the entry schema (or anything its meaning depends on)
#: changes shape — old tables are then quarantined as silent misses.
TUNING_FORMAT_VERSION = 1


class TuningTableError(RuntimeError):
    """A tuning table unusable for serving (missing/mismatched)."""


@dataclass(frozen=True)
class TunedConfig:
    """The winning plan-shaping knobs for one cell.

    ``algorithm`` selects the plan *source* — a built-in registry name
    (the paper's HPDS-scheduled algorithms) or a ``taccl:``/``teccl:``
    synthesizer spec.  All sources compile under the ``scheduler``
    compile scheduler (``hpds`` unless the ablation ``rr`` ever wins).
    """

    algorithm: str
    scheduler: str = "hpds"
    max_microbatches: int = 16
    chunk_kb: int = 1024
    #: Pipelining allowance cap handed to TB allocation; ``None`` keeps
    #: the default (the plan's own micro-batch count).
    tb_allowance: Optional[int] = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "TunedConfig":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in fields})


def cell_key(collective: str, buffer_bytes: int, topology: str) -> str:
    """Content-hash identity of one tuning cell.

    The collective is case-folded so ``Collective.ALLGATHER.value``
    (``"Allgather"``) and the CLI spelling (``"allgather"``) address the
    same cell.
    """
    payload = "\x00".join(
        (
            f"v{TUNING_FORMAT_VERSION}",
            "cell",
            collective.lower(),
            str(int(buffer_bytes)),
            topology,
        )
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def make_entry(
    collective: str,
    buffer_bytes: int,
    cluster: Cluster,
    config: TunedConfig,
    tuned_us: float,
    default_us: float,
    default_algorithm: str,
) -> dict:
    """One self-checking table entry (JSON-safe, wall-clock free)."""
    topology = cluster.fingerprint()
    return {
        "key": cell_key(collective, buffer_bytes, topology),
        "collective": collective,
        "buffer_bytes": int(buffer_bytes),
        "topology": topology,
        "cluster": {
            "nodes": cluster.nodes,
            "gpus_per_node": cluster.gpus_per_node,
            "profile": cluster.profile.name,
        },
        "config": config.to_dict(),
        "tuned_us": tuned_us,
        "default_us": default_us,
        "default_algorithm": default_algorithm,
    }


@dataclass
class TableStats:
    """Lookup/damage accounting for one :class:`TuningTable`."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    dropped_entries: int = 0

    def summary(self) -> str:
        text = f"tuning table: {self.hits} hit(s), {self.misses} miss(es)"
        if self.corrupt or self.dropped_entries:
            text += (
                f" [{self.corrupt} quarantined file(s), "
                f"{self.dropped_entries} dropped entr(ies)]"
            )
        return text


class TuningTable:
    """In-memory view of one persistent tuning table file."""

    def __init__(self, path: Union[str, Path, None] = None) -> None:
        self.path = Path(path) if path is not None else None
        self.entries: Dict[str, dict] = {}
        self.stats = TableStats()
        #: Resolved AlgoPrograms per (spec, topology) so a table hit on
        #: the serving hot path does not rebuild the program each call.
        self._programs: Dict[Tuple[str, str], object] = {}

    def __len__(self) -> int:
        return len(self.entries)

    # -- lookup ---------------------------------------------------------

    def lookup(
        self, collective: str, buffer_bytes: float, cluster: Cluster
    ) -> Optional[TunedConfig]:
        """The winning config for a cell, or ``None`` (silent miss)."""
        entry = self.entries.get(
            cell_key(collective, int(round(buffer_bytes)), cluster.fingerprint())
        )
        registry = current_registry()
        if entry is None:
            self.stats.misses += 1
            if registry is not None:
                registry.inc("tuning_table_misses_total")
            return None
        self.stats.hits += 1
        if registry is not None:
            registry.inc("tuning_table_hits_total")
        return TunedConfig.from_dict(entry["config"])

    def lookup_key(
        self, collective: str, buffer_bytes: float, cluster: Cluster
    ) -> Optional[str]:
        """The cell key when tuned, without touching hit/miss counters.

        This is the coalescing identity the service daemon folds into
        :func:`~repro.service.protocol.request_fingerprint`: requests
        that resolve to the same tuned cell share one compile.
        """
        key = cell_key(
            collective, int(round(buffer_bytes)), cluster.fingerprint()
        )
        return key if key in self.entries else None

    def resolve_program(self, config: TunedConfig, cluster: Cluster):
        """The winning :class:`AlgoProgram`, memoized per topology."""
        cache_key = (config.algorithm, cluster.fingerprint())
        program = self._programs.get(cache_key)
        if program is None:
            program = resolve_spec(config.algorithm, cluster)
            self._programs[cache_key] = program
        return program

    # -- mutation + persistence ----------------------------------------

    def put(self, entry: dict) -> None:
        self.entries[entry["key"]] = entry

    def save(self, path: Union[str, Path, None] = None) -> Path:
        """Atomically persist the table (sorted keys, no wall clocks)."""
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("tuning table has no path to save to")
        payload = {
            "version": TUNING_FORMAT_VERSION,
            "entries": {
                key: self.entries[key] for key in sorted(self.entries)
            },
        }
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, target)
        self.path = target
        return target

    def _quarantine(self, path: Path) -> None:
        """Move a damaged table aside as ``<path>.corrupt`` and count."""
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            pass
        self.stats.corrupt += 1
        registry = current_registry()
        if registry is not None:
            registry.inc("tuning_table_corrupt_total")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TuningTable":
        """Load a table; damage degrades to an empty table (silent miss).

        Mirrors the plan cache's disk-tier discipline: an unreadable or
        unparseable file, a version mismatch, or a payload that is not
        the expected shape quarantines the whole file to
        ``<path>.corrupt``; an individual entry whose embedded key does
        not match its content is dropped.  Either way lookups simply
        miss — a broken table never breaks serving.
        """
        table = cls(path)
        source = Path(path)
        try:
            raw = source.read_text(encoding="utf-8")
        except FileNotFoundError:
            return table
        except OSError:
            table._quarantine(source)
            return table
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            table._quarantine(source)
            return table
        if (
            not isinstance(payload, dict)
            or payload.get("version") != TUNING_FORMAT_VERSION
            or not isinstance(payload.get("entries"), dict)
        ):
            table._quarantine(source)
            return table
        registry = current_registry()
        for key, entry in payload["entries"].items():
            if not _entry_ok(key, entry):
                table.stats.dropped_entries += 1
                if registry is not None:
                    registry.inc("tuning_table_corrupt_total")
                continue
            table.entries[key] = entry
        return table

    def prewarm_entries(self) -> list:
        """Manifest-shaped prewarm jobs, one per tuned cell.

        Each is ``{"key": cell key, "payload": compile-op payload}`` —
        the exact shape the daemon's boot prewarm replays — compiling
        the *winning* plan source under the winning scheduler, so a
        restarted daemon serves every tuned cell warm from the first
        request.  Ordered by key for a deterministic boot sequence.
        """
        jobs = []
        for key in sorted(self.entries):
            entry = self.entries[key]
            config = entry["config"]
            jobs.append({
                "key": key,
                "payload": {
                    "op": "compile",
                    "algorithm": config["algorithm"],
                    "source": None,
                    "nodes": entry["cluster"]["nodes"],
                    "gpus": entry["cluster"]["gpus_per_node"],
                    "profile": entry["cluster"]["profile"],
                    "scheduler": config["scheduler"],
                    "buffer_mb": entry["buffer_bytes"] / float(1 << 20),
                    "mbs": config["max_microbatches"],
                    "degraded": False,
                },
            })
        return jobs

    # -- serving validation --------------------------------------------

    def mismatched_entries(self) -> list:
        """Entries whose recorded topology no longer matches reality.

        Each entry embeds the cluster shape it was tuned on *and* the
        full topology fingerprint.  Rebuilding the cluster from the
        shape and comparing fingerprints catches a table produced under
        different hardware constants (profile change, capacity edit) —
        serving such a table would silently hand out stale winners.
        """
        bad = []
        for entry in self.entries.values():
            shape = entry["cluster"]
            try:
                cluster = build_cluster(
                    shape["nodes"], shape["gpus_per_node"], shape["profile"]
                )
            except (KeyError, TypeError, ValueError):
                bad.append(entry)
                continue
            if cluster.fingerprint() != entry["topology"]:
                bad.append(entry)
        return bad


def _entry_ok(key: str, entry: object) -> bool:
    """Entry self-check: shape + embedded content-addressed key."""
    if not isinstance(entry, dict):
        return False
    required = ("key", "collective", "buffer_bytes", "topology", "config",
                "cluster")
    if any(field not in entry for field in required):
        return False
    if not isinstance(entry["config"], dict):
        return False
    if entry["key"] != key:
        return False
    try:
        expected = cell_key(
            entry["collective"], entry["buffer_bytes"], entry["topology"]
        )
    except (TypeError, ValueError):
        return False
    return expected == key


# ----------------------------------------------------------------------
# Spec collectives
# ----------------------------------------------------------------------


def spec_collective(spec: str) -> Optional[str]:
    """The collective a spec implements, from its name alone.

    Registry names end in their collective (``hm-allreduce``), synth
    specs carry it after the colon.  Returns ``None`` for anything
    unrecognizable (inline sources, file paths) — those simply never
    participate in tuning.
    """
    try:
        parts = split_spec(spec)
    except RequestError:
        return None
    if parts is not None:
        return parts[1].value.lower()
    if spec not in available_algorithms():
        return None
    try:
        return parse_collective(spec.rsplit("-", 1)[-1]).value.lower()
    except ValueError:
        return None


# ----------------------------------------------------------------------
# Process-wide installed table (what ResCCLBackend and workers consult)
# ----------------------------------------------------------------------

_installed: Optional[TuningTable] = None
_resolved_env = False


def get_table() -> Optional[TuningTable]:
    """The installed tuning table, or ``None`` (tuning disabled).

    ``RESCCL_TUNING_TABLE`` arms the table on first use — the path by
    which service worker processes (which never parse CLI flags)
    inherit the daemon's ``--tuning-table``.
    """
    global _installed, _resolved_env
    if _installed is None and not _resolved_env:
        _resolved_env = True
        env_path = os.environ.get("RESCCL_TUNING_TABLE")
        if env_path:
            _installed = TuningTable.load(env_path)
    return _installed


def configure_tuning(
    table: Union[str, Path, TuningTable, None],
) -> Optional[TuningTable]:
    """Install (or clear, with ``None``) the process-wide tuning table."""
    global _installed, _resolved_env
    _resolved_env = True
    if table is None:
        _installed = None
    elif isinstance(table, TuningTable):
        _installed = table
    else:
        _installed = TuningTable.load(table)
    return _installed


__all__ = [
    "TUNING_FORMAT_VERSION",
    "TunedConfig",
    "TuningTable",
    "TuningTableError",
    "TableStats",
    "cell_key",
    "configure_tuning",
    "get_table",
    "make_entry",
    "resolve_spec",
    "spec_collective",
]
