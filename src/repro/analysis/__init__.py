"""Result analysis: table rows, per-TB breakdowns, comparison helpers,
and the physics lower bound of a plan."""

from .attribution import (
    BUCKETS,
    AttributionReport,
    Bubble,
    PathSegment,
    attribute,
    critical_path,
)
from .bounds import LowerBound, lower_bound
from .timeline import (
    ascii_gantt,
    partition_trace,
    request_trace_to_chrome,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from .tables import (
    TBBreakdownEntry,
    TBUtilizationRow,
    compare_bandwidth,
    format_table,
    tb_breakdown,
    worst_idle_tb,
)
from .verify_delivery import (
    DeliveryError,
    DeliveryReport,
    ResumeTaskMeta,
    verify_delivery,
    verify_stitched,
)

__all__ = [
    "BUCKETS",
    "AttributionReport",
    "Bubble",
    "PathSegment",
    "attribute",
    "critical_path",
    "LowerBound",
    "lower_bound",
    "ascii_gantt",
    "partition_trace",
    "request_trace_to_chrome",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "TBUtilizationRow",
    "TBBreakdownEntry",
    "tb_breakdown",
    "worst_idle_tb",
    "compare_bandwidth",
    "format_table",
    "DeliveryError",
    "DeliveryReport",
    "ResumeTaskMeta",
    "verify_delivery",
    "verify_stitched",
]
