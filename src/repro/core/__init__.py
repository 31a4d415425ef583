"""ResCCL core: HPDS scheduling, flexible TB allocation, kernel generation."""

from .backend import ResCCLBackend
from .compiler import (
    CompileResult,
    ResCCLCompiler,
    SCHEDULERS,
)
from .hpds import hpds_schedule
from .kernelgen import lower_to_programs, render_kernel_source
from .pipeline import GlobalPipeline, SubPipeline
from .plancache import (
    CacheStats,
    PlanCache,
    configure as configure_plan_cache,
    get_cache as get_plan_cache,
)
from .rr import rr_schedule
from .tballoc import (
    EndpointGroup,
    TBAssignment,
    allocate_tbs,
    build_endpoint_groups,
    connection_endpoint_count,
    timeline_slots,
)

__all__ = [
    "ResCCLBackend",
    "ResCCLCompiler",
    "CompileResult",
    "SCHEDULERS",
    "CacheStats",
    "PlanCache",
    "configure_plan_cache",
    "get_plan_cache",
    "hpds_schedule",
    "rr_schedule",
    "GlobalPipeline",
    "SubPipeline",
    "EndpointGroup",
    "TBAssignment",
    "allocate_tbs",
    "build_endpoint_groups",
    "connection_endpoint_count",
    "timeline_slots",
    "lower_to_programs",
    "render_kernel_source",
]
