"""Maximal frequent itemset mining over a hybrid store of per-transaction
rank arrays and per-item transaction lists and transaction bitmasks."""

from .dataset import (
    FimiParseError,
    ItemMap,
    RawDatabase,
    TransactionDatabase,
    atl,
    gen_sparse,
    global_supports,
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
    TidMask,
    build_hdr,
    count_supports,
    project_vertical,
    select_mode,
    verify_counts,
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
    FrequentSet,
    enumerate_fi_bruteforce,
    maximal_filter,
    mine_bitmap_baseline,
)

__version__ = "0.1.0"

__all__ = [
    "FimiParseError",
    "ItemMap",
    "RawDatabase",
    "TransactionDatabase",
    "atl",
    "gen_sparse",
    "global_supports",
    "parse_fimi",
    "prune_and_remap",
    "read_fimi",
    "to_fimi",
    "CostCounters",
    "CountMode",
    "HdrStore",
    "Pdr",
    "TidMask",
    "build_hdr",
    "count_supports",
    "project_vertical",
    "select_mode",
    "verify_counts",
    "LmfiView",
    "MfiStore",
    "MinerConfig",
    "SearchStats",
    "mine_mfi",
    "BRUTEFORCE_MAX_ITEMS",
    "CapacityError",
    "FrequentSet",
    "enumerate_fi_bruteforce",
    "maximal_filter",
    "mine_bitmap_baseline",
    "__version__",
]
