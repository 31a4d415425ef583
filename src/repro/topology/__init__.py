"""Cluster topology substrate: hardware profiles, routing, contention edges."""

from .cluster import TIERS, Cluster, Path, multi_node, single_node, tier_of
from .hardware import (
    GpuProfile,
    PROFILE_NAMES,
    LinkSpec,
    a100_profile,
    gbits_to_bytes_per_us,
    gbps_to_bytes_per_us,
    profile_by_name,
    v100_profile,
)

__all__ = [
    "Cluster",
    "Path",
    "TIERS",
    "tier_of",
    "GpuProfile",
    "LinkSpec",
    "a100_profile",
    "v100_profile",
    "PROFILE_NAMES",
    "profile_by_name",
    "gbps_to_bytes_per_us",
    "gbits_to_bytes_per_us",
    "single_node",
    "multi_node",
]
