"""The plan request, declared once for the CLI and the service.

:data:`FIELDS` declares each knob of one compile/simulate call (type,
bound, choices, default, help); :func:`split_spec` is the one parser of
``taccl:``/``teccl:`` synthesizer specs; :func:`build_cluster` is the one
cluster builder, capped at :data:`MAX_WORLD_SIZE` ranks.  The ``resccl``
flags and :func:`repro.service.protocol.parse_request` both read this
module, so they reject the same values with the same reason.  It must
not import :mod:`repro.service`, whose package import pulls in the daemon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .algorithms import available_algorithms, build_algorithm
from .ir.task import Collective, parse_collective
from .lang import AlgoProgram
from .synth import TACCLSynthesizer, TECCLSynthesizer
from .topology import PROFILE_NAMES, Cluster, profile_by_name

#: Cap on ``nodes * gpus``.  Building a :class:`Cluster` (and its
#: per-edge capacity table) is O(world size), and the service does it on
#: its event loop, so an unbounded world size would let one request
#: stall every connection or exhaust memory.
MAX_WORLD_SIZE = 4096

SYNTHESIZERS = {"taccl": TACCLSynthesizer, "teccl": TECCLSynthesizer}

#: How synthesizer specs are written, for help and error texts.
SPEC_FORM = "/".join(f"{name}:" for name in SYNTHESIZERS) + "<collective>"


class RequestError(ValueError):
    """A malformed plan request: HTTP 400 in the service, exit 2 in the CLI."""


@dataclass(frozen=True)
class Field:
    """One plan-request knob; ``default=None`` makes it optional."""

    name: str
    kind: type  # int, float or str
    default: object
    help: str
    positive: bool = False  # numbers: finite and above zero
    unit: bool = False  # numbers: in [0, 1]
    choices: Tuple[str, ...] = ()  # strings: the accepted values
    #: Strings: checks the value in place of ``choices``; the text of
    #: the ``ValueError`` it raises is the reason.
    lookup: Optional[Callable[[str], object]] = None

    @property
    def bound(self) -> str:
        """The accepted values, as ``--help`` and the docs state them."""
        if self.positive:
            return f"positive {self.kind.__name__}"
        if self.unit:
            return f"{self.kind.__name__} in [0, 1]"
        return " or ".join(self.choices)

    def check(self, value):
        """A decoded JSON value, typed and bounded.

        Strict: a bool is not a number, a non-integral float is not an
        int, and NaN/Infinity are not finite.  Raises
        :class:`RequestError` whose text is the reason.
        """
        if value is None and self.default is None:
            return None
        kind = self.kind
        if kind is str:
            if not isinstance(value, str):
                raise RequestError("must be a string")
            if self.lookup is not None:
                try:
                    self.lookup(value)
                except ValueError as exc:
                    raise RequestError(str(exc)) from None
            elif value not in self.choices:
                raise RequestError(f"must be {self.bound}, got {value!r}")
            return value
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or (kind is int and isinstance(value, float) and not value.is_integer())
        ):
            raise RequestError(f"must be {kind.__name__}")
        try:
            value = kind(value)
        except OverflowError:  # an integer too large for a float
            raise RequestError("must be finite") from None
        # NaN passes every comparison and Infinity survives min() clamps,
        # so either would defeat the limits built on these fields.
        if self.positive and kind is float and not math.isfinite(value):
            raise RequestError(f"must be finite, got {value!r}")
        if self.positive and value <= 0:
            raise RequestError(f"must be positive, got {value!r}")
        # Written so that NaN fails it too.
        if self.unit and not 0.0 <= value <= 1.0:
            raise RequestError(f"must be in [0, 1], got {value!r}")
        return value

    def from_text(self, text: str):
        """A command-line value, converted, then :meth:`check`-ed."""
        if self.kind is str:
            return self.check(text)
        try:
            value = self.kind(text)
        except ValueError:
            raise RequestError(f"must be {self.kind.__name__}, got {text!r}") from None
        return self.check(value)


FIELDS: Dict[str, Field] = {
    field.name: field
    for field in (
        Field("nodes", int, 2, "server count", positive=True),
        Field("gpus", int, 8, "GPUs per server", positive=True),
        Field("profile", str, "A100", "GPU profile", choices=PROFILE_NAMES,
              lookup=profile_by_name),
        Field("scheduler", str, "hpds", "compile scheduler, rr being the "
              "round-robin ablation", choices=("hpds", "rr")),
        Field("buffer_mb", float, 64.0, "buffer size in MB", positive=True),
        Field("mbs", int, 8, "micro-batch cap of the plan", positive=True),
        Field("sim_fidelity", str, "exact", "simulation fidelity preset "
              "(docs/performance.md): 'exact' is bit-reproducible; 'fast' "
              "trades a bounded completion-time error for wall-clock speed",
              choices=("exact", "fast")),
        Field("deadline_ms", float, None, "deadline budget in ms",
              positive=True),
    )
}


def check_world_size(nodes: int, gpus: int) -> None:
    if nodes * gpus > MAX_WORLD_SIZE:
        raise RequestError(
            f"cluster too large: nodes*gpus = {nodes * gpus} exceeds the "
            f"cap of {MAX_WORLD_SIZE} ranks"
        )


def build_cluster(nodes: int, gpus: int, profile: str) -> Cluster:
    check_world_size(nodes, gpus)
    return Cluster(
        nodes=nodes, gpus_per_node=gpus, profile=profile_by_name(profile)
    )


def split_spec(spec: str) -> Optional[Tuple[str, Collective]]:
    """``(synthesizer, collective)`` of a ``taccl:``/``teccl:`` spec.

    ``None`` when ``spec`` has no synthesizer part; a
    :class:`RequestError` for an unknown synthesizer or collective.
    """
    if ":" not in spec:
        return None
    synth, _, coll = spec.partition(":")
    if synth.lower() not in SYNTHESIZERS:
        raise RequestError(f"unknown synthesizer {synth!r}")
    try:
        return synth.lower(), parse_collective(coll)
    except ValueError as exc:
        raise RequestError(str(exc)) from None


def check_spec(spec: str) -> None:
    """Admit a registry name or a synthesizer spec, without building it."""
    if split_spec(spec) is None and spec not in available_algorithms():
        raise RequestError(
            f"unknown algorithm {spec!r}; built-ins: "
            f"{', '.join(available_algorithms())}"
        )


def resolve_spec(spec: str, cluster: Cluster) -> AlgoProgram:
    """Registry name or synthesizer spec -> elaborated program."""
    parts = split_spec(spec)
    if parts is None:
        return build_algorithm(spec, cluster)
    synth, collective = parts
    return SYNTHESIZERS[synth]().synthesize(cluster, collective)
