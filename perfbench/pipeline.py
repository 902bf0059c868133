"""One benchmark operation, run in a fresh interpreter by run.py.

    python3 perfbench/pipeline.py MODE WORKLOAD FIMI_FILE

MODE is one of
  run        read -> (prune -> build -> mine -> render) per minsup, untraced
  setup      read -> (prune -> build) per minsup, untraced
  trace      ``run`` with every layer wrapped in spans, then the store's
             tracemalloc size and the bitmap baseline on the same databases
  reference  the digest of mine_bitmap_baseline's rendered output

and prints one JSON object. The pipeline goes through the calls a library
user makes, with the default MinerConfig.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import tracemalloc
from time import perf_counter

from spans import SpanRecorder, traced
from workloads import WORKLOADS, Workload, import_program

hybridmfi = import_program()
from hybridmfi.cli import render_mfi  # noqa: E402


def digest_of(texts: list[str]) -> str:
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def run_pipeline(path, minsups, rec: SpanRecorder, mine=True, counters=None, stats=None):
    """Rendered output per minsup. Stage spans go to ``rec``; ``counters``
    and ``stats`` reach mine_mfi only in the traced run."""
    texts = []
    with rec.span("pipeline"):
        with rec.span("dataset.read"):
            raw = hybridmfi.read_fimi(path)
        for minsup in minsups:
            text = _one_threshold(raw, minsup, rec, mine, counters, stats)
            if text is not None:
                texts.append(text)
    return texts


def _one_threshold(raw, minsup, rec, mine, counters, stats):
    with rec.span("dataset.prune"):
        db, item_map = hybridmfi.prune_and_remap(raw, minsup)
    with rec.span("hdr.build"):
        store = hybridmfi.build_hdr(db)
    rec.add("dataset.cells", store.cell_count)
    rec.add("dataset.items_kept", db.item_count)
    if not mine:
        return None
    with rec.span("miner.mine"):
        result = hybridmfi.mine_mfi(
            store, hybridmfi.MinerConfig(minsup=minsup), counters=counters, stats=stats
        )
    rec.add("miner.mfi_count", len(result))
    with rec.span("cli.render"):
        return render_mfi(result, item_map)


def stage_seconds(rec: SpanRecorder) -> dict[str, float]:
    return {name: entry[1] for name, entry in rec.summary().items()}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced(workload: Workload, path, mine=True) -> dict:
    rec = SpanRecorder()
    texts = run_pipeline(path, workload.minsups, rec, mine=mine)
    seconds = stage_seconds(rec)
    out = {
        "setup_s": seconds["dataset.read"] + seconds["dataset.prune"] + seconds["hdr.build"],
        "total_s": seconds["pipeline"],
        "peak_rss_mb": peak_rss_mb(),
    }
    if mine:
        out["digest"] = digest_of(texts)
    return out


def reference(workload: Workload, path) -> dict:
    raw = hybridmfi.read_fimi(path)
    texts = []
    for minsup in workload.minsups:
        db, item_map = hybridmfi.prune_and_remap(raw, minsup)
        texts.append(render_mfi(hybridmfi.mine_bitmap_baseline(db, minsup), item_map))
    return {"digest": digest_of(texts)}


# Kernels mine_mfi spends its time in; with miner.self_s they account for
# miner.mine_s.
MINE_KERNELS = (
    "hdr.count_horizontal",
    "hdr.count_bitmap",
    "hdr.project_root",
    "hdr.project_scan",
    "miner.store_add",
    "miner.store_covers",
    "miner.lmfi_project",
    "miner.lmfi_covers",
)


def layer_metrics(rec: SpanRecorder, counters, stats, must_call) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline. Raises when a required
    layer recorded no calls, when a counting call's mode went unidentified,
    or when the kernels do not account for the mine stage."""
    summary = rec.summary()
    known = set(MINE_KERNELS) | {
        "pipeline", "dataset.read", "dataset.prune", "hdr.build", "miner.mine", "cli.render",
    }
    unknown = set(summary) - known
    if unknown:
        raise RuntimeError(f"unexpected spans {sorted(unknown)}")
    missing = [name for name in must_call if name not in summary]
    if missing:
        raise RuntimeError(f"no calls recorded for {missing}")

    def calls(name):
        return summary[name][0] if name in summary else 0

    def total(name):
        return summary[name][1] if name in summary else 0.0

    def own(name):
        return summary[name][2] if name in summary else 0.0

    def notes(name):
        return summary[name][3] if name in summary else []

    counting = [n for n in ("hdr.count_horizontal", "hdr.count_bitmap") if n in summary]
    scans = notes("hdr.project_scan")
    checks = notes("miner.lmfi_covers")
    m = {
        "dataset.read_s": total("dataset.read"),
        "dataset.prune_s": total("dataset.prune"),
        "dataset.cells": rec.counts["dataset.cells"],
        "dataset.items_kept": rec.counts["dataset.items_kept"],
        "hdr.build_s": total("hdr.build"),
        "hdr.count_s": sum(total(n) for n in counting),
        "hdr.count_horizontal_calls": calls("hdr.count_horizontal"),
        "hdr.count_horizontal_s": total("hdr.count_horizontal"),
        "hdr.count_horizontal_txns": sum(notes("hdr.count_horizontal")),
        "hdr.count_bitmap_calls": calls("hdr.count_bitmap"),
        "hdr.count_bitmap_txns": sum(notes("hdr.count_bitmap")),
        "hdr.cells_touched": counters.cells_touched,
        "hdr.project_root_calls": calls("hdr.project_root"),
        "hdr.project_root_s": total("hdr.project_root"),
        "hdr.project_scan_calls": calls("hdr.project_scan"),
        "hdr.project_scan_s": total("hdr.project_scan"),
        "hdr.project_yield": sum(c for _, c in scans) / max(1, sum(p for p, _ in scans)),
        "miner.mine_s": total("miner.mine"),
        "miner.self_s": own("miner.mine"),
        "miner.nodes": stats.nodes_explored,
        "miner.mfi_count": rec.counts["miner.mfi_count"],
        "miner.store_add_calls": calls("miner.store_add"),
        "miner.store_add_s": own("miner.store_add"),
        "miner.store_covers_calls": calls("miner.store_covers"),
        "miner.store_covers_s": total("miner.store_covers"),
        "miner.lmfi_project_calls": calls("miner.lmfi_project"),
        "miner.lmfi_project_s": total("miner.lmfi_project"),
        "miner.lmfi_covers_calls": calls("miner.lmfi_covers"),
        "miner.lmfi_covers_s": total("miner.lmfi_covers"),
        "miner.hutmfi_hit_ratio": sum(checks) / max(1, len(checks)),
        "cli.render_s": total("cli.render"),
    }
    accounted = m["miner.self_s"] + sum(own(n) for n in MINE_KERNELS)
    if abs(accounted - m["miner.mine_s"]) > 1e-6 * max(1.0, m["miner.mine_s"]):
        raise RuntimeError(
            f"kernel self times sum to {accounted:.6f} s, mine stage is {m['miner.mine_s']:.6f} s"
        )
    return m


def trace(workload: Workload, path) -> dict:
    rec = SpanRecorder()
    counters = hybridmfi.CostCounters()
    stats = hybridmfi.SearchStats()
    with traced(hybridmfi, rec):
        texts = run_pipeline(path, workload.minsups, rec, counters=counters, stats=stats)
    metrics = layer_metrics(rec, counters, stats, workload.must_call)
    total_s = stage_seconds(rec)["pipeline"]
    del rec

    # Outside the timed pipeline: the store's allocation under tracemalloc
    # (which slows allocation several-fold, so it is never timed), then the
    # baseline miner on the same pruned databases, unwrapped.
    raw = hybridmfi.read_fimi(path)
    store_bytes = 0
    baseline_s = 0.0
    baseline_texts = []
    for minsup in workload.minsups:
        db, item_map = hybridmfi.prune_and_remap(raw, minsup)
        tracemalloc.start()
        try:
            store = hybridmfi.build_hdr(db)
            store_bytes += tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del store
        started = perf_counter()
        baseline = hybridmfi.mine_bitmap_baseline(db, minsup)
        baseline_s += perf_counter() - started
        baseline_texts.append(render_mfi(baseline, item_map))
    metrics["hdr.store_mb"] = store_bytes / 2**20
    metrics["oracle.baseline_s"] = baseline_s
    return {
        "total_s": total_s,
        "digest": digest_of(texts),
        "baseline_digest": digest_of(baseline_texts),
        "metrics": metrics,
    }


MODES = {
    "run": untraced,
    "setup": lambda workload, path: untraced(workload, path, mine=False),
    "trace": trace,
    "reference": reference,
}


def main(argv: list[str]) -> int:
    mode, name, path = argv
    out = MODES[mode](WORKLOADS[name], path)
    out["optimize"] = sys.flags.optimize
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
