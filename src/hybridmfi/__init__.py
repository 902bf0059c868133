"""Maximal frequent itemset mining over a hybrid store of flat rank rows,
per-item transaction arrays and transaction bitmasks."""

from .dataset import (
    FimiParseError,
    RawDatabase,
    TransactionDatabase,
    gen_sparse,
    parse_fimi,
    prune_and_remap,
    read_fimi,
    to_fimi,
)
from .hdr import (
    CostCounters,
    CountMode,
    HdrStore,
    Pdr,
    build_hdr,
    count_supports,
    project_vertical,
    select_mode,
)
from .miner import (
    LmfiView,
    MfiStore,
    MinerConfig,
    SearchStats,
    mine_mfi,
)
from .oracle import (
    BRUTEFORCE_MAX_ITEMS,
    CapacityError,
    enumerate_fi_bruteforce,
    maximal_filter,
    mine_bitmap_baseline,
)

__version__ = "0.1.0"

__all__ = [
    "FimiParseError",
    "RawDatabase",
    "TransactionDatabase",
    "gen_sparse",
    "parse_fimi",
    "prune_and_remap",
    "read_fimi",
    "to_fimi",
    "CostCounters",
    "CountMode",
    "HdrStore",
    "Pdr",
    "build_hdr",
    "count_supports",
    "project_vertical",
    "select_mode",
    "LmfiView",
    "MfiStore",
    "MinerConfig",
    "SearchStats",
    "mine_mfi",
    "BRUTEFORCE_MAX_ITEMS",
    "CapacityError",
    "enumerate_fi_bruteforce",
    "maximal_filter",
    "mine_bitmap_baseline",
    "__version__",
]
