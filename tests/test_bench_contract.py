"""The traced benchmark (perfbench/spans.py) wraps library functions by
name and tells counting modes and projections apart by what it sees of
their arguments. Running its wrapper over a small mine here means a
refactor that breaks that contract fails tier-1, not only the benchmark's
own tests."""

import importlib.util
from pathlib import Path

import hybridmfi
from hybridmfi import (
    CountMode,
    MinerConfig,
    build_hdr,
    gen_sparse,
    mine_bitmap_baseline,
    mine_mfi,
    prune_and_remap,
)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_auto_mine_records_every_kernel():
    spans = load_spans()
    db, _ = prune_and_remap(gen_sparse(30, 10, 3, 0), 2)
    rec = spans.SpanRecorder()
    with spans.traced(hybridmfi, rec):
        result = mine_mfi(build_hdr(db), MinerConfig(minsup=2, mode=CountMode.AUTO))
    summary = rec.summary()
    for name in ("hdr.count_horizontal", "hdr.count_bitmap",
                 "hdr.project_root", "hdr.project_scan"):
        assert summary.get(name, [0])[0] > 0, name
    # select_mode renamed every counting span after the mode it picked.
    assert "hdr.count" not in summary
    assert list(result) == list(mine_bitmap_baseline(db, 2))
