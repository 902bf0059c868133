"""Acceptance gate: eight end-to-end checks, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they happen; without -s pytest shows them only for failing checks.
"""

import contextlib
import io
import itertools
import time
from collections import namedtuple

import pytest

from hybridmfi import (
    CostCounters,
    CountMode,
    MinerConfig,
    SearchStats,
    build_hdr,
    cli,
    count_supports,
    enumerate_fi_bruteforce,
    gen_sparse,
    maximal_filter,
    mine_bitmap_baseline,
    mine_mfi,
    parse_fimi,
    prune_and_remap,
)

from conftest import TINY_DB, label_mfi, sweep_databases


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


SweepRun = namedtuple("SweepRun", "seed minsup db store mined baseline brute_fi brute_mfi")


@pytest.fixture(scope="module")
def sweep():
    """200 seeded small databases mined three ways, with timing."""
    started = time.monotonic()
    runs = []
    for seed, minsup, db in sweep_databases():
        store = build_hdr(db)
        mined = dict(mine_mfi(store, MinerConfig(minsup=minsup)))
        baseline = dict(mine_bitmap_baseline(db, minsup))
        brute_fi = enumerate_fi_bruteforce(db, minsup)
        brute_mfi = dict(maximal_filter(brute_fi))
        runs.append(SweepRun(seed, minsup, db, store, mined, baseline,
                             dict(brute_fi), brute_mfi))
    return runs, time.monotonic() - started


def test_golden_small_example(tiny_raw):
    started = time.monotonic()
    db2, map2 = prune_and_remap(tiny_raw, 2)
    got2 = label_mfi(mine_mfi(build_hdr(db2), MinerConfig(minsup=2)), map2)
    db1, map1 = prune_and_remap(tiny_raw, 1)
    got1 = label_mfi(mine_mfi(build_hdr(db1), MinerConfig(minsup=1)), map1)
    elapsed = time.monotonic() - started
    ok = (
        got2 == {frozenset({1, 3}): 2, frozenset({2}): 2}
        and got1 == {frozenset({1, 2, 4}): 1, frozenset({1, 3, 5}): 1,
                     frozenset({2, 3}): 1}
        and elapsed < 1.0
    )
    report(1, ok, f"golden five-transaction results exact at minsup 2 and 1 "
                  f"({elapsed * 1000:.0f} ms)")


def test_root_counting_costs(tiny_raw):
    started = time.monotonic()
    db, _ = prune_and_remap(tiny_raw, 1)
    store = build_hdr(db)
    tail = list(range(store.item_count))
    billed = {}
    shared = True
    for mode in (CountMode.HORIZONTAL, CountMode.BITMAP, CountMode.AUTO):
        counters = CostCounters()
        children = count_supports(store, store.root_pdr(), tail, mode, counters)
        billed[mode.value] = counters.cells_touched
        # A sequence child of the root is its item's array itself; a mask
        # child is its item's mask.
        shared &= all(child == store.tidmask(y) if isinstance(child, int)
                      else child is store.item_txns[y] for y, _, child in children)
    elapsed = time.monotonic() - started
    ok = set(billed.values()) == {11} and shared and elapsed < 1.0
    report(2, ok, "root counting bills "
                  + ", ".join(f"{cells} cells {mode}" for mode, cells in billed.items()))


def test_average_length_and_mode_choice(tiny_file):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["stats", str(tiny_file)])
    out = buffer.getvalue()
    # The root of the same database holds all 5 transactions, so AUTO
    # counts it horizontally and delivers the item arrays themselves.
    db, _ = prune_and_remap(parse_fimi(TINY_DB), 1)
    store = build_hdr(db)
    children = count_supports(store, store.root_pdr(), list(range(5)))
    chosen = (CountMode.BITMAP if any(isinstance(c, int) for _, _, c in children)
              else CountMode.HORIZONTAL)
    ok = (code == 0 and "Average Length=2.2" in out and chosen is CountMode.HORIZONTAL
          and all(child is store.item_txns[y] for y, _, child in children))
    report(3, ok, f"stats prints Average Length=2.2, and AUTO counts the root's "
                  f"11 cells over 5 tail items {chosen.value}ly from the item arrays")


def test_three_way_agreement_sweep(sweep):
    runs, elapsed = sweep
    bad = [run.seed for run in runs
           if not (run.mined == run.baseline == run.brute_mfi)]
    ok = not bad and elapsed < 60.0
    report(4, ok, f"200 seeded databases, three miners identical "
                  f"({len(bad)} mismatches, {elapsed:.1f} s)")


def test_toggles_and_modes_stable(sweep):
    runs, _ = sweep
    modes = (CountMode.AUTO, CountMode.HORIZONTAL, CountMode.BITMAP)
    mismatches = 0
    for run in runs:
        for pep, fhut, hutmfi, reorder in itertools.product([False, True], repeat=4):
            for mode in modes:
                config = MinerConfig(minsup=run.minsup, mode=mode,
                                     enable_pep=pep, enable_fhut=fhut,
                                     enable_hutmfi=hutmfi, enable_reorder=reorder)
                if dict(mine_mfi(run.store, config)) != run.mined:
                    mismatches += 1
    report(5, mismatches == 0,
           f"16 toggle combinations x 3 modes leave output unchanged "
           f"({mismatches} deviations over {len(runs)} databases)")


def test_antichain_and_completeness(sweep):
    runs, _ = sweep
    violations = 0
    for run in runs:
        maximal = list(run.mined)
        for a in maximal:
            if any(a < b for b in maximal):
                violations += 1
        for frequent in run.brute_fi:
            if not any(frequent <= m for m in maximal):
                violations += 1
    report(6, violations == 0,
           f"antichain and full coverage of frequent sets hold "
           f"({violations} violations)")


def test_large_sparse_performance():
    started = time.monotonic()
    raw = gen_sparse(100_000, 1000, 10, 1)
    minsup = cli.resolve_minsup(0.001, len(raw))
    db, _ = prune_and_remap(raw, minsup)
    store = build_hdr(db)
    result = mine_mfi(store, MinerConfig(minsup=minsup))
    elapsed = time.monotonic() - started
    tail = list(range(store.item_count))
    horizontal = CostCounters()
    count_supports(store, store.root_pdr(), tail, CountMode.HORIZONTAL, horizontal)
    bitmap = CostCounters()
    count_supports(store, store.root_pdr(), tail, CountMode.BITMAP, bitmap)
    ok = (elapsed < 120.0 and minsup == 100 and len(result) > 0
          and horizontal.cells_touched == bitmap.cells_touched == store.cell_count)
    report(7, ok, f"100k x 1000 sparse mine in {elapsed:.1f} s, "
                  f"{len(result)} maximal sets, root cost {horizontal.cells_touched} "
                  f"cells horizontal, {bitmap.cells_touched} bitmap, "
                  f"{store.cell_count} in the store")


def test_reordering_shrinks_search(tiny_raw):
    def nodes(store, minsup, reorder):
        stats = SearchStats()
        mine_mfi(store, MinerConfig(minsup=minsup, enable_reorder=reorder),
                 stats=stats)
        return stats.nodes_explored

    table_ok = True
    for minsup in (1, 2):
        db, _ = prune_and_remap(parse_fimi(TINY_DB), minsup)
        store = build_hdr(db)
        if nodes(store, minsup, True) > nodes(store, minsup, False):
            table_ok = False

    wins = 0
    for seed in range(100):
        db, _ = prune_and_remap(gen_sparse(50, 15, 5, seed), 2)
        store = build_hdr(db)
        if nodes(store, 2, True) <= nodes(store, 2, False):
            wins += 1
    ok = table_ok and wins >= 90
    report(8, ok, f"reordering never grows the five-transaction search and is "
                  f"non-increasing on {wins}/100 seeded databases")
