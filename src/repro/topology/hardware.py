"""Hardware profiles for the simulated GPU clusters.

The paper's testbeds (Table 2 and section 5.2) are:

* an A100 cluster — 8 NVIDIA A100 80GB GPUs per server, 300 GB/s of NVLink
  bandwidth per GPU through 6 NVSwitches, four 200 Gbps NICs per server
  (every two GPUs share a NIC), two-tier Clos fabric;
* a V100 cluster interconnected with 100 Gbps RoCE, used for the
  heterogeneous-hardware experiments (Figure 11).

We capture each of those as a :class:`GpuProfile` with per-link latency and
bandwidth numbers.  Bandwidth is stored in **bytes per microsecond**
(1 GB/s == 1000 B/us) so the discrete-event runtime can work in a single
consistent unit system: *bytes* for sizes and *microseconds* for time.

Latencies follow the paper's measurement in section 4.3 that inter-machine
latency is at least 2.5x intra-machine latency, even at equal bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Multiplicative factor converting GB/s into bytes/us.
BYTES_PER_US_PER_GBPS = 1000.0

#: The paper reports lambda_inter >= 2.5 * lambda_intra (section 4.3).
INTER_INTRA_LATENCY_RATIO = 2.5


def gbps_to_bytes_per_us(gigabytes_per_second: float) -> float:
    """Convert a GB/s figure into the runtime's bytes/us unit."""
    return gigabytes_per_second * BYTES_PER_US_PER_GBPS


def gbits_to_bytes_per_us(gigabits_per_second: float) -> float:
    """Convert a Gbit/s NIC rating into bytes/us (divide by 8 for bytes)."""
    return gigabits_per_second / 8.0 * BYTES_PER_US_PER_GBPS


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point link class: propagation latency plus capacity.

    Attributes:
        latency_us: one-way startup latency (the alpha term of the
            alpha-beta cost model in Equation 1).
        bandwidth: capacity in bytes per microsecond (the inverse of the
            beta term).
    """

    latency_us: float
    bandwidth: float

    def transfer_time(self, nbytes: float) -> float:
        """Uncontended time to move ``nbytes`` over this link."""
        return self.latency_us + nbytes / self.bandwidth


@dataclass(frozen=True)
class GpuProfile:
    """Per-GPU-generation hardware constants used to build clusters.

    Attributes:
        name: human-readable profile name.
        nvlink: intra-server GPU<->GPU link class (through NVSwitch).
        nic: inter-server link class (RDMA NIC, per NIC port).
        cross_rack_extra_latency_us: additional latency paid when the
            source and destination servers hang off different ToR switches
            and traffic crosses the aggregation tier.
        reduce_cost_per_byte_us: extra per-byte cost of performing the
            reduction arithmetic in ``recvReduceCopy`` style primitives.
        warp_copy_bandwidth: per-warp data-movement capability in
            bytes/us.  Figure 4 of the paper shows one NIC saturating at
            four default-sized (4-warp) TBs, i.e. 16 warps match NIC line
            rate; a TB with ``w`` warps moves ``w * warp_copy_bandwidth``.
    """

    name: str
    nvlink: LinkSpec
    nic: LinkSpec
    cross_rack_extra_latency_us: float
    reduce_cost_per_byte_us: float
    warp_copy_bandwidth: float

    def tb_copy_bandwidth(self, nwarps: int) -> float:
        """Copy capability of a thread block with ``nwarps`` warps."""
        if nwarps < 1:
            raise ValueError(f"a TB needs at least one warp, got {nwarps}")
        return nwarps * self.warp_copy_bandwidth


def a100_profile() -> GpuProfile:
    """The paper's primary testbed: A100 + NVSwitch + 200 Gbps RoCE."""
    nic_bandwidth = gbits_to_bytes_per_us(200.0)
    return GpuProfile(
        name="A100",
        nvlink=LinkSpec(latency_us=3.0, bandwidth=gbps_to_bytes_per_us(300.0)),
        nic=LinkSpec(
            latency_us=3.0 * INTER_INTRA_LATENCY_RATIO,
            bandwidth=nic_bandwidth,
        ),
        cross_rack_extra_latency_us=3.0,
        reduce_cost_per_byte_us=1.0 / gbps_to_bytes_per_us(600.0),
        warp_copy_bandwidth=nic_bandwidth / 16.0,
    )


def v100_profile() -> GpuProfile:
    """The heterogeneous testbed of Figure 11: V100 + 100 Gbps RoCE."""
    nic_bandwidth = gbits_to_bytes_per_us(100.0)
    return GpuProfile(
        name="V100",
        nvlink=LinkSpec(latency_us=4.0, bandwidth=gbps_to_bytes_per_us(130.0)),
        nic=LinkSpec(
            latency_us=4.0 * INTER_INTRA_LATENCY_RATIO,
            bandwidth=nic_bandwidth,
        ),
        cross_rack_extra_latency_us=4.0,
        reduce_cost_per_byte_us=1.0 / gbps_to_bytes_per_us(300.0),
        warp_copy_bandwidth=nic_bandwidth / 16.0,
    )


_PROFILES = {
    "A100": a100_profile,
    "V100": v100_profile,
}

#: Names :func:`profile_by_name` accepts (in any case).
PROFILE_NAMES = tuple(sorted(_PROFILES))


def profile_by_name(name: str) -> GpuProfile:
    """Look up a built-in profile by name (case-insensitive)."""
    try:
        return _PROFILES[name.upper()]()
    except KeyError:
        known = ", ".join(PROFILE_NAMES)
        raise ValueError(f"unknown GPU profile {name!r}; known: {known}") from None
