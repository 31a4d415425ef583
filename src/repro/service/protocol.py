"""Wire protocol of the compile/simulate service: requests + executor.

One request vocabulary is shared by the daemon (parsing/validation and
coalescing keys), the worker processes (execution), and the client
(construction), so the three layers cannot drift apart:

* :class:`ServiceRequest` — a validated compile/simulate/profile job.
  Requests name an algorithm the same way the CLI does (a registry
  name, a ``taccl:``/``teccl:`` synthesizer spec) or carry inline
  ResCCLang ``source`` text.  File paths are deliberately rejected: a
  network-facing daemon must not read arbitrary local files.
* :func:`parse_request` — payload dict -> :class:`ServiceRequest`,
  raising :class:`RequestError` (HTTP 400) on anything malformed.
* :func:`execute` — runs one request against the same
  :class:`~repro.core.backend.ResCCLBackend` / plan-cache APIs the CLI
  uses and returns a JSON-safe result dict.  This is the function the
  supervised workers run; it is importable and process-free so unit
  tests exercise it directly.
* :func:`request_fingerprint` — coalescing identity built on
  :meth:`~repro.core.plancache.PlanCache.compile_key`, so two requests
  coalesce exactly when they would share a plan-cache entry (plus the
  op-specific knobs that shape the response).

Degraded mode (:attr:`ServiceRequest.degraded`) swaps the requested
algorithm for the conservative built-in ring of the same collective —
the cheap, almost-always-cached plan the circuit breaker serves while
cold compiles are timing out.  Responses carry ``degraded: true`` so
clients can tell.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass
from typing import Optional

from ..algorithms import available_algorithms, build_algorithm
from ..algorithms.ring import ring_allgather, ring_allreduce, ring_reducescatter
from ..core import ResCCLBackend
from ..core.compiler import compile_fingerprint
from ..core.plancache import get_cache
from ..core.tballoc import allocate_tbs
from ..ir.task import Collective, parse_collective
from ..lang import parse_program
from ..runtime import MB, simulate
from ..topology import Cluster, profile_by_name

#: Operations the service accepts (the ``/v1/<op>`` endpoints).
OPS = ("compile", "simulate", "profile")

#: Admission cap on ``nodes * gpus``.  Building a :class:`Cluster` (and
#: its per-edge capacity table) is O(world size) and happens on the
#: daemon's event loop for fingerprinting, so an unbounded world size
#: would let a single request stall every connection — including
#: ``/healthz`` — or OOM the daemon outright.
MAX_WORLD_SIZE = 4096

#: Collective -> cheap reference-ring builder for degraded mode.
RING_FALLBACKS = {
    Collective.ALLREDUCE: ring_allreduce,
    Collective.ALLGATHER: ring_allgather,
    Collective.REDUCESCATTER: ring_reducescatter,
}


class RequestError(ValueError):
    """A malformed or unserviceable request (maps to HTTP 400)."""


@dataclass
class ServiceRequest:
    """One validated compile/simulate/profile job."""

    op: str
    algorithm: Optional[str] = None  # registry name or taccl:/teccl: spec
    source: Optional[str] = None  # inline ResCCLang text
    nodes: int = 2
    gpus: int = 8
    profile: str = "A100"
    scheduler: str = "hpds"
    buffer_mb: float = 64.0
    mbs: int = 8
    deadline_ms: Optional[float] = None
    request_id: Optional[str] = None
    degraded: bool = False
    #: Simulation fidelity preset (``simulate``/``profile`` ops only):
    #: ``exact`` (default) is bit-reproducible, ``fast`` trades a
    #: bounded completion-time error for wall clock — the same contract
    #: as the CLI's ``--sim-fidelity`` (docs/performance.md).
    sim_fidelity: str = "exact"

    def spec(self) -> str:
        """The algorithm identity string (name, synth spec, or source)."""
        return self.source if self.source is not None else (self.algorithm or "")

    def to_payload(self) -> dict:
        """JSON-safe dict form (what travels to the workers)."""
        return dataclasses.asdict(self)


def _want(payload: dict, key: str, kind, default, *, positive: bool = False):
    value = payload.get(key, default)
    if value is None:
        return None
    # A JSON number, typed strictly: ``bool`` is an ``int`` subclass and
    # ``int(2.9)`` truncates, so neither may slip through a conversion.
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (kind is int and isinstance(value, float) and not value.is_integer())
    ):
        raise RequestError(f"field {key!r} must be {kind.__name__}")
    try:
        value = kind(value)
    except OverflowError:
        raise RequestError(f"field {key!r} must be finite") from None
    if positive:
        # NaN passes every <=/< comparison and Infinity survives the
        # min() deadline clamp, so both would defeat the limits built
        # on these fields; reject them outright.
        if isinstance(value, float) and not math.isfinite(value):
            raise RequestError(f"field {key!r} must be finite")
        if value <= 0:
            raise RequestError(f"field {key!r} must be positive")
    return value


def parse_request(op: str, payload: object) -> ServiceRequest:
    """Validate one JSON request body into a :class:`ServiceRequest`."""
    if op not in OPS:
        raise RequestError(f"unknown op {op!r}; valid: {', '.join(OPS)}")
    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object")
    algorithm = payload.get("algorithm")
    source = payload.get("source")
    if (algorithm is None) == (source is None):
        raise RequestError(
            "give exactly one of 'algorithm' (built-in name or "
            "taccl:/teccl:<collective> spec) or 'source' (ResCCLang text)"
        )
    if algorithm is not None:
        if not isinstance(algorithm, str) or not algorithm:
            raise RequestError("field 'algorithm' must be a non-empty string")
        if "/" in algorithm or "\\" in algorithm or algorithm.endswith(".xml"):
            raise RequestError(
                "file paths are not served; inline the program as 'source'"
            )
        if ":" in algorithm:
            synth, _, coll = algorithm.partition(":")
            if synth.lower() not in ("taccl", "teccl"):
                raise RequestError(f"unknown synthesizer {synth!r}")
            try:
                parse_collective(coll)
            except ValueError as exc:
                raise RequestError(str(exc)) from None
        elif algorithm not in available_algorithms():
            raise RequestError(
                f"unknown algorithm {algorithm!r}; built-ins: "
                f"{', '.join(available_algorithms())}"
            )
    if source is not None and (not isinstance(source, str) or not source.strip()):
        raise RequestError("field 'source' must be non-empty ResCCLang text")
    scheduler = payload.get("scheduler", "hpds")
    if scheduler not in ("hpds", "rr"):
        raise RequestError("field 'scheduler' must be 'hpds' or 'rr'")
    profile = payload.get("profile", "A100")
    try:
        profile_by_name(str(profile))
    except (KeyError, ValueError) as exc:
        raise RequestError(f"unknown GPU profile {profile!r}: {exc}") from None
    request_id = payload.get("request_id")
    if request_id is not None:
        request_id = str(request_id)
    sim_fidelity = payload.get("sim_fidelity", "exact")
    if sim_fidelity not in ("exact", "fast"):
        raise RequestError(
            "field 'sim_fidelity' must be 'exact' or 'fast'"
        )
    degraded = payload.get("degraded", False)
    if not isinstance(degraded, bool):
        raise RequestError("field 'degraded' must be true or false")
    nodes = _want(payload, "nodes", int, 2, positive=True)
    gpus = _want(payload, "gpus", int, 8, positive=True)
    if nodes * gpus > MAX_WORLD_SIZE:
        raise RequestError(
            f"cluster too large: nodes*gpus = {nodes * gpus} exceeds the "
            f"service cap of {MAX_WORLD_SIZE} ranks"
        )
    return ServiceRequest(
        op=op,
        algorithm=algorithm,
        source=source,
        nodes=nodes,
        gpus=gpus,
        profile=str(profile),
        scheduler=scheduler,
        buffer_mb=_want(payload, "buffer_mb", float, 64.0, positive=True),
        mbs=_want(payload, "mbs", int, 8, positive=True),
        deadline_ms=_want(payload, "deadline_ms", float, None, positive=True),
        request_id=request_id,
        degraded=degraded,
        sim_fidelity=sim_fidelity,
    )


def request_from_payload(payload: dict) -> ServiceRequest:
    """Rehydrate the worker-side request from :meth:`to_payload`."""
    fields = {f.name for f in dataclasses.fields(ServiceRequest)}
    return ServiceRequest(**{k: v for k, v in payload.items() if k in fields})


def prewarm_payload(request: ServiceRequest) -> dict:
    """The scrubbed payload the cache-prewarm manifest stores per key.

    Prewarm replays only need to *warm the plan cache*, so the payload
    is always the ``compile`` op over the compile-identity fields:
    per-request ephemera (deadline, request id, trace correlation) are
    dropped, and a ``simulate`` and a ``profile`` of the same plan warm
    the same cache entry as its ``compile``.
    """
    return {
        "op": "compile",
        "algorithm": request.algorithm,
        "source": request.source,
        "nodes": request.nodes,
        "gpus": request.gpus,
        "profile": request.profile,
        "scheduler": request.scheduler,
        "buffer_mb": request.buffer_mb,
        "mbs": request.mbs,
        "degraded": request.degraded,
    }


# ----------------------------------------------------------------------
# Coalescing identity
# ----------------------------------------------------------------------


def request_fingerprint(
    request: ServiceRequest,
    cluster: Cluster,
    tuning_table=None,
) -> str:
    """Content key under which identical requests coalesce.

    Built on :meth:`PlanCache.compile_key` so the coalescing domain is
    exactly the plan-cache sharing domain: inline ``source`` requests
    key on the source text itself (the true plan-cache key), while
    registry names and synthesizer specs key on the spec string — the
    worker's own content-addressed cache dedups those after resolution.
    The op and its response-shaping knobs (buffer, micro-batch cap,
    degraded marker) are folded on top, since two ops over one compiled
    plan produce different responses.

    When the daemon serves a tuning table, requests that resolve to a
    tuned cell coalesce under the *cell key* instead: the table
    overrides their plan source, scheduler, and micro-batch cap anyway,
    so two requests for the same ``(collective, size, topology)`` cell
    share one compile even when their requested knobs differ.
    """
    tuned_key = None
    if (
        tuning_table is not None
        and not request.degraded
        and request.source is None
    ):
        from ..tuning.table import spec_collective

        collective = spec_collective(request.algorithm or "")
        if collective is not None:
            tuned_key = tuning_table.lookup_key(
                collective, request.buffer_mb * MB, cluster
            )
    if tuned_key is not None:
        # Knobs the table overrides (scheduler, mbs) are deliberately
        # absent; the op and fidelity still shape the response.
        base = f"tuned:{tuned_key}"
        extra = f"{request.op}|{request.sim_fidelity}"
    else:
        base = get_cache().compile_key(
            request.spec(), cluster, request.scheduler, validate=True
        )
        extra = (
            f"{request.op}|{request.buffer_mb!r}|{request.mbs}|"
            f"{int(request.degraded)}|{request.sim_fidelity}"
        )
    return hashlib.sha256(f"{base}|{extra}".encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Execution (runs inside the supervised workers)
# ----------------------------------------------------------------------


def _resolve_program(request: ServiceRequest, cluster: Cluster):
    """Algorithm spec -> elaborated program (no file-system access)."""
    if request.source is not None:
        try:
            return parse_program(request.source)
        except Exception as exc:  # parser errors are client errors
            raise RequestError(f"bad ResCCLang source: {exc}") from None
    spec = request.algorithm or ""
    if ":" in spec:
        from ..synth import TACCLSynthesizer, TECCLSynthesizer

        synth_name, _, coll_name = spec.partition(":")
        synthesizers = {"taccl": TACCLSynthesizer, "teccl": TECCLSynthesizer}
        collective = parse_collective(coll_name)
        return synthesizers[synth_name.lower()]().synthesize(cluster, collective)
    try:
        return build_algorithm(spec, cluster)
    except (KeyError, ValueError) as exc:
        raise RequestError(str(exc)) from None


def _degraded_collective(request: ServiceRequest, cluster: Cluster) -> Collective:
    """The collective a degraded request must still implement."""
    spec = request.algorithm or ""
    if ":" in spec:  # synthesizer specs name their collective directly,
        return parse_collective(spec.partition(":")[2])  # skip the search
    return _resolve_program(request, cluster).collective


def degraded_program(request: ServiceRequest, cluster: Cluster):
    """The cheap reference ring the breaker serves instead of ``spec``."""
    collective = _degraded_collective(request, cluster)
    builder = RING_FALLBACKS.get(collective)
    if builder is None:
        raise RequestError(
            f"no reference ring for collective {collective.value!r}; "
            "degraded service cannot cover this request"
        )
    return builder(
        cluster.world_size, name=f"{request.spec()}-degraded-ring"
        if request.algorithm else "inline-degraded-ring"
    )


#: Result fields that vary run-to-run (wall clocks, cache luck) and are
#: therefore excluded from the stable response digest.
VOLATILE_RESULT_FIELDS = frozenset({"wall_ms", "cache_hit", "phase_times_us"})


def result_digest(result: dict) -> str:
    """Stable content digest of one response's result payload.

    Two executions of the same request produce the same digest (the
    simulator and compiler are deterministic); volatile wall-clock
    fields are excluded.  The load benchmark uses this to prove
    exactly-once, duplicate-free service under chaos.
    """
    stable = {
        k: v for k, v in result.items() if k not in VOLATILE_RESULT_FIELDS
    }
    payload = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def execute(payload: dict) -> dict:
    """Run one request payload; returns a JSON-safe ``result`` dict.

    Raises :class:`RequestError` for client mistakes; anything else is
    a server-side failure the worker loop formats into an error reply.
    """
    request = request_from_payload(payload)
    cluster = Cluster(
        nodes=request.nodes,
        gpus_per_node=request.gpus,
        profile=profile_by_name(request.profile),
    )
    if request.degraded:
        program = degraded_program(request, cluster)
    else:
        program = _resolve_program(request, cluster)
    if program.nranks != cluster.world_size:
        raise RequestError(
            f"program {program.name!r} wants {program.nranks} ranks but the "
            f"requested cluster has {cluster.world_size}"
        )
    # Degraded mode must stay the conservative, almost-always-cached
    # ring — a tuned override there would defeat the circuit breaker.
    backend = ResCCLBackend(
        scheduler=request.scheduler,
        max_microbatches=request.mbs,
        use_tuning=not request.degraded,
    )
    cache = get_cache()
    hits_before = cache.stats.hits

    wall_start = time.perf_counter()
    if request.op == "compile":
        tuned = False
        if not request.degraded:
            from ..tuning.table import get_table

            table = get_table()
            if table is not None:
                config = table.lookup(
                    program.collective.value, request.buffer_mb * MB, cluster
                )
                if config is not None:
                    # Warm the plan the tuned cell actually serves.
                    program = table.resolve_program(config, cluster)
                    tuned = True
                    if config.scheduler != request.scheduler:
                        backend = ResCCLBackend(
                            scheduler=config.scheduler,
                            max_microbatches=request.mbs,
                            use_tuning=False,
                        )
        compiled = backend.compile(program, cluster)

        def fingerprint():
            assignments = allocate_tbs(compiled.dag, compiled.pipeline)
            fp = compile_fingerprint(compiled, assignments=assignments)
            return result_digest(fp), len(assignments)

        # Memoized beside the lowered plans: a warm request allocates no TBs.
        digest, tb_count = cache.lowered(compiled.cache_key, "fingerprint", build=fingerprint)
        result = {
            "algorithm": program.name,
            "tuned": tuned,
            "fingerprint": digest,
            "tasks": compiled.pipeline.task_count,
            "sub_pipelines": compiled.pipeline.depth,
            "tb_count": tb_count,
            "phase_times_us": dict(compiled.phase_times_us),
        }
    else:
        tuned = False
        if not request.degraded:
            from ..tuning.table import get_table

            table = get_table()
            if table is not None:
                tuned = (
                    table.lookup_key(
                        program.collective.value,
                        request.buffer_mb * MB,
                        cluster,
                    )
                    is not None
                )
        plan = backend.plan(cluster, program, request.buffer_mb * MB)
        if request.sim_fidelity != "exact":
            plan = dataclasses.replace(
                plan, config=plan.config.with_fidelity(request.sim_fidelity)
            )
        report = simulate(plan)
        result = {
            "algorithm": program.name,
            "tuned": tuned,
            "plan": plan.name,
            "sim_fidelity": request.sim_fidelity,
            "completion_time_us": report.completion_time_us,
            "algo_bandwidth_gbps": report.algo_bandwidth_gbps,
            "n_microbatches": plan.n_microbatches,
            "tb_count": report.tb_count(),
            "max_tbs_per_rank": report.max_tbs_per_rank(),
        }
        if request.op == "profile":
            result["avg_idle_fraction"] = report.avg_idle_fraction()
            result["counters"] = dataclasses.asdict(report.counters)
    result["cache_hit"] = cache.stats.hits > hits_before
    result["wall_ms"] = (time.perf_counter() - wall_start) * 1e3
    return result


__all__ = [
    "MAX_WORLD_SIZE",
    "OPS",
    "RING_FALLBACKS",
    "RequestError",
    "ServiceRequest",
    "degraded_program",
    "execute",
    "parse_request",
    "prewarm_payload",
    "request_fingerprint",
    "request_from_payload",
    "result_digest",
]
