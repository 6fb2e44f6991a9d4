"""Set partitions in standard form, two equidistributed statistics, the
involution that swaps them, and the v-triangle of nonoverlapping-partition
counts, all backed by exhaustive brute-force verification.
"""

from .errors import BoundError, ParseError, PartinvError, ValidationError
from .involution import sigma
from .partitions import (
    DEFAULT_MAX_N,
    SetPartition,
    enumerate_all,
    enumerate_nonoverlapping,
    format_partition,
    is_nonoverlapping,
    normalize,
    parse,
)
from .patterns import avoider_last_entry_distribution, is_avoider
from .recurrence import bessel, v_compute, v_table
from .stats import aux_r, aux_s, stat_x, stat_y
from .verify import (
    ALL_CHECKS,
    CheckReport,
    Counterexample,
    check_avoiders_match_v,
    check_equidistribution,
    check_involution,
    check_nonoverlapping,
    check_spans,
    check_y_matches_v,
    run_all,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_CHECKS",
    "BoundError",
    "CheckReport",
    "Counterexample",
    "DEFAULT_MAX_N",
    "ParseError",
    "PartinvError",
    "SetPartition",
    "ValidationError",
    "aux_r",
    "aux_s",
    "avoider_last_entry_distribution",
    "bessel",
    "check_avoiders_match_v",
    "check_equidistribution",
    "check_involution",
    "check_nonoverlapping",
    "check_spans",
    "check_y_matches_v",
    "enumerate_all",
    "enumerate_nonoverlapping",
    "format_partition",
    "is_avoider",
    "is_nonoverlapping",
    "normalize",
    "parse",
    "run_all",
    "sigma",
    "stat_x",
    "stat_y",
    "v_compute",
    "v_table",
]
