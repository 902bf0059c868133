import contextlib
import itertools
import os
import random
import re
import select
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hybridmfi

from hybridmfi import cli, hdr, miner
from hybridmfi import (
    CostCounters,
    CountMode,
    LmfiView,
    MfiStore,
    MinerConfig,
    SearchStats,
    build_hdr,
    enumerate_fi_bruteforce,
    gen_sparse,
    maximal_filter,
    mine_bitmap_baseline,
    mine_mfi,
    parse_fimi,
    prune_and_remap,
)
from hybridmfi.cli import render_mfi

from conftest import label_mfi, sweep_databases
from test_differential import databases


def mine_labels(raw_text, minsup, **config_kwargs):
    db, labels = prune_and_remap(parse_fimi(raw_text), minsup)
    store = build_hdr(db)
    result = mine_mfi(store, MinerConfig(minsup=minsup, **config_kwargs))
    return label_mfi(result, labels)


def mine_traced(raw_text, minsup, **config_kwargs):
    """(maximal sets as label tuples in insertion order, supports, nodes)."""
    db, labels = prune_and_remap(parse_fimi(raw_text), minsup)
    stats = SearchStats()
    result = mine_mfi(build_hdr(db), MinerConfig(minsup=minsup, **config_kwargs),
                      stats=stats)
    order = [tuple(sorted(labels[r] for r in ranks)) for ranks, _ in result]
    supports = [support for _, support in result]
    return order, supports, stats.nodes_explored


def test_mine_tiny_minsup2(tiny_ms2):
    db, labels, store = tiny_ms2
    result = mine_mfi(store, MinerConfig(minsup=2))
    assert label_mfi(result, labels) == {
        frozenset({1, 3}): 2,
        frozenset({2}): 2,
    }


def test_mine_tiny_minsup1(tiny_ms1):
    db, labels, store = tiny_ms1
    result = mine_mfi(store, MinerConfig(minsup=1))
    assert label_mfi(result, labels) == {
        frozenset({1, 2, 4}): 1,
        frozenset({1, 3, 5}): 1,
        frozenset({2, 3}): 1,
    }


def test_mine_tiny_minsup3(tiny_raw):
    db, labels = prune_and_remap(tiny_raw, 3)
    result = mine_mfi(build_hdr(db), MinerConfig(minsup=3))
    assert label_mfi(result, labels) == {frozenset({1}): 3, frozenset({3}): 4}


def test_mine_empty_store():
    db, _ = prune_and_remap(parse_fimi("1 2\n"), 2)
    assert db.item_count == 0
    result = mine_mfi(build_hdr(db), MinerConfig(minsup=2))
    assert len(result) == 0


def test_mine_never_emits_empty_itemset():
    # All items frequent in every row: the single maximal set is the full row.
    got = mine_labels("1 2\n1 2\n", 2)
    assert got == {frozenset({1, 2}): 2}


def test_config_rejects_bad_minsup():
    with pytest.raises(ValueError):
        MinerConfig(minsup=0)


def test_pep_absorbs_equal_support_items():
    # Both items sit in every row, so the root absorbs them and never
    # branches; without PEP the same set is reached through child nodes.
    order, supports, nodes = mine_traced("1 2\n1 2\n", 2)
    assert (order, supports, nodes) == ([(1, 2)], [2], 1)
    order_off, supports_off, nodes_off = mine_traced("1 2\n1 2\n", 2, enable_pep=False)
    assert (order_off, supports_off) == (order, supports)
    assert nodes_off > nodes


def test_pep_keeps_lower_support_items():
    # Label 1 is in every row and is absorbed; 2 and 3 are not, so they
    # must stay branch items and keep their own lower supports.
    got = mine_labels("1 2 3\n1 2\n1 3\n1\n", 1)
    assert got == {frozenset({1, 2, 3}): 1}
    got = mine_labels("1 2\n1 3\n1\n", 1)
    assert got == {frozenset({1, 2}): 1, frozenset({1, 3}): 1}


def test_pep_absorbs_whole_tail():
    # Below label 1 every remaining item has the head's support: the tail
    # empties and the absorbed head is emitted with the head's support.
    order, supports, _ = mine_traced("1 2 3\n1 2 3\n2\n", 2)
    assert (order, supports) == ([(1, 2, 3)], [2])


def test_pep_containment_property():
    # Whenever an extension's support equals the head's, every projected
    # transaction contains it, and the extension's child holds exactly the
    # head's transactions, in either counting mode. Each root child is a
    # head; label 9, planted in every transaction that holds label 2, gives
    # the head {2} such an extension in every database.
    from hybridmfi import RawDatabase, count_supports, project_vertical

    checked = {CountMode.HORIZONTAL: 0, CountMode.BITMAP: 0}
    for seed in range(10):
        rows = gen_sparse(30, 8, 3, seed).rows()
        db, _ = prune_and_remap(RawDatabase.from_rows(r + (9,) if 2 in r else r for r in rows), 2)
        store = build_hdr(db)
        rows = list(db.rows())
        root = store.root_pdr()
        tail = list(range(db.item_count))
        for i, (y, _, y_txns) in enumerate(
                count_supports(store, root, tail, CountMode.HORIZONTAL)):
            pdr = project_vertical(store, root, y_txns, y)
            head_support = len(pdr.txns)
            for mode in (CountMode.HORIZONTAL, CountMode.BITMAP):
                for x, s, child in count_supports(store, pdr, tail[i + 1:], mode):
                    if s == head_support:
                        assert all(x in rows[t] for t in pdr.txns)
                        assert list(project_vertical(store, pdr, child, x).txns) == \
                            list(pdr.txns)
                        checked[mode] += 1
            assert pdr.txns is y_txns  # neither count changed the Pdr
    assert min(checked.values()) >= 10, checked  # the planted one per seed, at least


def test_reorder_explores_ascending_support_first():
    # Three disjoint items with supports 3, 2, 4: each is its own maximal
    # set, inserted in the order the root explores its children.
    text = "1\n1\n1\n2\n2\n3\n3\n3\n3\n"
    assert mine_traced(text, 1)[0] == [(2,), (1,), (3,)]
    assert mine_traced(text, 1, enable_reorder=False)[0] == [(1,), (2,), (3,)]


def test_reorder_breaks_support_ties_by_rank():
    # Below label 1 the inherited tail is [3, 2] (root supports 2 < 4), but
    # both have support 1 there, so the tie goes to the lower rank, 2.
    order, supports, _ = mine_traced("1 2\n1 3\n2 3\n2\n2\n", 1)
    assert order == [(1, 2), (1, 3), (2, 3)]
    assert supports == [1, 1, 1]


def test_covers_mask_is_superset_query():
    mfi = MfiStore(5)
    view = LmfiView(mfi, 0, 0)
    for checker in (mfi, view):
        assert not checker.covers_mask(0b101)  # empty store never covers
    mfi.add(0b101, 2)
    # A view taken after the insert sees position 0 only through its snapshot.
    for checker in (mfi, view, LmfiView(mfi, 0b1, 1)):
        assert checker.covers_mask(0b101)      # equal
        assert checker.covers_mask(0b100)      # proper subset
        assert not checker.covers_mask(0b010)  # disjoint
        assert not checker.covers_mask(0b111)  # proper superset
    assert not LmfiView(mfi, 0, 1).covers_mask(0b100)


def test_store_and_views_match_a_direct_scan():
    # A few thousand sets over 40 items, so each position mask spans many
    # machine words. Views form a search path: each projects the one above
    # it, and every insert holds the deepest view's branch items, as in
    # mine_mfi. A view counts a stored set that holds all its branch items
    # or was inserted after the view was taken.
    rng = random.Random(11)
    items = 40
    mfi = MfiStore(items)
    stored: list[int] = []
    path = [(LmfiView(mfi, 0, 0), 0, 0)]  # (view, branch items, size when taken)
    deepest = 1

    def covered(query, branch=0, taken=0):
        return any(query & ~m == 0 for p, m in enumerate(stored)
                   if p >= taken or m & branch == branch)

    def random_query():
        if stored and rng.random() < 0.6:
            return rng.choice(stored) & rng.getrandbits(items)
        return rng.getrandbits(items) & rng.getrandbits(items) & rng.getrandbits(items)

    for step in range(2500):
        _, branch, _ = path[-1]
        mask = branch | rng.getrandbits(items) & rng.getrandbits(items) & rng.getrandbits(items)
        expected = not covered(mask)
        assert mfi.add(mask, 1) == expected, step
        if expected:
            stored.append(mask)
        if rng.random() < 0.05 and len(path) < 8:
            view, branch, _ = path[-1]
            y = rng.randrange(items)
            path.append((view.project(y), branch | 1 << y, len(stored)))
            deepest = max(deepest, len(path))
        elif rng.random() < 0.04 and len(path) > 1:
            path.pop()
        for _ in range(2):
            query = random_query()
            assert mfi.covers_mask(query) == covered(query), (step, query)
        checked = path if step % 100 == 0 else path[-1:]
        for view, branch, taken in checked:
            for query in (random_query(), branch | random_query()):
                assert view.covers_mask(query) == covered(query, branch, taken), (step, query)
    assert len(stored) > 1000 and deepest > 3


def test_store_add_keeps_antichain():
    mfi = MfiStore(5)
    assert mfi.add(0b101, 2)
    assert not mfi.add(0b001, 3)  # subsumed
    assert not mfi.add(0b101, 2)  # duplicate
    assert mfi.add(0b010, 2)
    assert dict(mfi) == {frozenset({0, 2}): 2, frozenset({1}): 2}
    # Iteration and rank tuples decode the same masks, in insertion order.
    ranked = list(mfi.rank_tuples())
    assert list(mfi) == [(frozenset(ranks), support) for ranks, support in ranked]
    assert all(list(ranks) == sorted(set(ranks)) for ranks, _ in ranked)


def add_unchecked(monkeypatch, mfi, mask, support):
    """Insert with the superset query bypassed, so add keeps a set that a
    stored set already covers."""
    with monkeypatch.context() as patch:
        patch.setattr(MfiStore, "covers_mask", lambda self, mask: False)
        assert mfi.add(mask, support)


def test_check_antichain_rejects_nested_sets(monkeypatch):
    mfi = MfiStore(2)
    mfi.add(0b01, 2)
    mfi.add(0b11, 1)  # {a} is stored first, so add finds no superset
    with pytest.raises(AssertionError, match=r"\[0\] lies inside \[0, 1\]"):
        mfi.check_antichain()
    mfi = MfiStore(2)
    mfi.add(0b11, 1)
    add_unchecked(monkeypatch, mfi, 0b01, 2)  # inside an earlier set
    with pytest.raises(AssertionError, match=r"\[0\] lies inside \[0, 1\]"):
        mfi.check_antichain()
    mfi = MfiStore(2)
    mfi.add(0b10, 2)
    add_unchecked(monkeypatch, mfi, 0b10, 2)  # exact duplicate
    with pytest.raises(AssertionError, match=r"\[1\] lies inside \[1\]"):
        mfi.check_antichain()
    # Positions above 64: 70 disjoint pairs, then a set inside the 67th.
    mfi = MfiStore(140)
    for p in range(70):
        mfi.add(0b11 << 2 * p, 2)
    mfi.check_antichain()
    add_unchecked(monkeypatch, mfi, 1 << 2 * 66 + 1, 3)
    with pytest.raises(AssertionError, match=r"\[133\] lies inside \[132, 133\]"):
        mfi.check_antichain()
    mfi = MfiStore(2)
    mfi.add(0b01, 2)
    mfi.add(0b10, 2)
    mfi.check_antichain()


def test_check_antichain_runs_under_optimize():
    script = (
        "from hybridmfi import MfiStore\n"
        "mfi = MfiStore(2)\n"
        "mfi.add(0b01, 2)\n"
        "mfi.add(0b11, 1)\n"
        "mfi.check_antichain()\n"
    )
    src = str(Path(hybridmfi.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode != 0
    assert "AssertionError" in done.stderr


@pytest.mark.parametrize("miner", ["hybrid", "baseline", "filter"])
def test_miners_check_antichain_before_returning(monkeypatch, miner):
    # With the superset query disabled, add keeps subsets of stored sets;
    # each miner must refuse to return such a store.
    db, _ = prune_and_remap(gen_sparse(30, 8, 3, 0), 2)
    monkeypatch.setattr(MfiStore, "covers_mask", lambda self, mask: False)
    with pytest.raises(AssertionError):
        if miner == "hybrid":
            mine_mfi(build_hdr(db), MinerConfig(minsup=2, enable_hutmfi=False))
        elif miner == "baseline":
            mine_bitmap_baseline(db, 2)
        else:
            maximal_filter(enumerate_fi_bruteforce(db, 2))


@pytest.mark.parametrize("miner", ["hybrid", "baseline", "bruteforce"])
def test_miners_reject_a_database_pruned_above_minsup(tiny_raw, miner):
    # Pruned at 3, the tiny database has lost label 2 (support 2), so a
    # mine at 2 would miss the maximal set {2}. A higher minsup stays legal.
    db, _ = prune_and_remap(tiny_raw, 3)
    run = {
        "hybrid": lambda minsup: mine_mfi(build_hdr(db), MinerConfig(minsup=minsup)),
        "baseline": lambda minsup: mine_bitmap_baseline(db, minsup),
        "bruteforce": lambda minsup: enumerate_fi_bruteforce(db, minsup),
    }[miner]
    with pytest.raises(ValueError, match="minsup 2 .* pruned at minsup 3"):
        run(2)
    assert len(run(3)) == 2
    assert len(run(4)) == 1


def test_lmfi_view_project_filters_by_item():
    mfi = MfiStore(5)
    mfi.add(0b00101, 2)
    mfi.add(0b00010, 2)
    root = LmfiView(mfi, 0, 0)
    assert (root.project(2).positions, root.project(2).watermark) == (0b01, 2)
    assert (root.project(1).positions, root.project(1).watermark) == (0b10, 2)
    assert root.project(3).positions == 0
    narrowed = root.project(0).project(2)
    assert (narrowed.positions, narrowed.watermark) == (0b01, 2)
    assert narrowed.covers_mask(0b101) and not narrowed.covers_mask(0b010)


def test_lmfi_view_sees_later_inserts():
    mfi = MfiStore(5)
    view = LmfiView(mfi, 0, 0).project(1)
    mfi.add((1 << 1) | (1 << 3), 2)
    assert view.covers_mask((1 << 1) | (1 << 3))
    narrowed = view.project(3)
    assert narrowed.covers_mask(1 << 3)


@pytest.mark.parametrize("toggle", ["enable_pep", "enable_fhut", "enable_hutmfi"],
                         ids=["pep", "fhut", "hutmfi"])
def test_prune_is_live_in_engine(toggle):
    # Turning one prune off leaves the output unchanged and strictly
    # raises the node count.
    for seed in range(5):
        db, _ = prune_and_remap(gen_sparse(50, 15, 5, seed), 2)
        store = build_hdr(db)
        on, off = SearchStats(), SearchStats()
        with_prune = mine_mfi(store, MinerConfig(minsup=2), stats=on)
        without = mine_mfi(store, MinerConfig(minsup=2, **{toggle: False}), stats=off)
        assert dict(without) == dict(with_prune), f"seed {seed}"
        assert off.nodes_explored > on.nodes_explored, f"seed {seed}"


def test_mine_matches_oracle_on_random_databases():
    for seed in range(40):
        minsup = seed % 3 + 1
        db, _ = prune_and_remap(gen_sparse(30, 9, 3, seed), minsup)
        store = build_hdr(db)
        mined = dict(mine_mfi(store, MinerConfig(minsup=minsup)))
        expected = dict(maximal_filter(enumerate_fi_bruteforce(db, minsup)))
        assert mined == expected, f"seed {seed}"


def test_toggles_do_not_change_output(tiny_ms1):
    db, labels, store = tiny_ms1
    reference = dict(mine_mfi(store, MinerConfig(minsup=1)))
    for pep, fhut, hutmfi, reorder in itertools.product([False, True], repeat=4):
        config = MinerConfig(minsup=1, enable_pep=pep, enable_fhut=fhut,
                             enable_hutmfi=hutmfi, enable_reorder=reorder)
        assert dict(mine_mfi(store, config)) == reference


def test_modes_do_not_change_output(tiny_ms2):
    _, _, store = tiny_ms2
    reference = dict(mine_mfi(store, MinerConfig(minsup=2)))
    for mode in (CountMode.HORIZONTAL, CountMode.BITMAP):
        assert dict(mine_mfi(store, MinerConfig(minsup=2, mode=mode))) == reference


def test_mfi_supports_are_exact():
    for seed in range(15):
        minsup = 2
        db, _ = prune_and_remap(gen_sparse(40, 10, 3, seed), minsup)
        store = build_hdr(db)
        for ranks, support in mine_mfi(store, MinerConfig(minsup=minsup)):
            true_support = sum(1 for txn in db.rows() if ranks <= set(txn))
            assert support == true_support >= minsup


def test_result_is_antichain():
    for seed in range(15):
        db, _ = prune_and_remap(gen_sparse(35, 10, 3, seed), 1)
        store = build_hdr(db)
        sets = [ranks for ranks, _ in mine_mfi(store, MinerConfig(minsup=1))]
        for a in sets:
            for b in sets:
                assert a is b or not a < b


def test_reorder_reduces_nodes_on_tiny_db(tiny_ms1):
    _, _, store = tiny_ms1
    on, off = SearchStats(), SearchStats()
    mine_mfi(store, MinerConfig(minsup=1, enable_reorder=True), stats=on)
    mine_mfi(store, MinerConfig(minsup=1, enable_reorder=False), stats=off)
    assert on.nodes_explored <= off.nodes_explored


def test_stats_and_counters_populated(tiny_ms2):
    _, _, store = tiny_ms2
    counters, stats = CostCounters(), SearchStats()
    mine_mfi(store, MinerConfig(minsup=2), counters=counters, stats=stats)
    assert stats.nodes_explored >= 1
    assert counters.cells_touched > 0


@pytest.mark.parametrize("mode", list(CountMode), ids=lambda m: m.value)
def test_mining_leaves_the_store_unchanged(mode):
    # Root children share the store's item lists, and deeper lists pass from
    # parent to child; no count or projection may write through them.
    db, _ = prune_and_remap(gen_sparse(300, 30, 6, 4), 3)
    store = build_hdr(db)
    rows = list(db.rows())
    mine_mfi(store, MinerConfig(minsup=3, mode=mode))
    fresh = build_hdr(db)
    assert list(store.db.rows()) == rows == list(fresh.db.rows())
    assert store.item_txns == fresh.item_txns
    assert (store.cell_count, store.row_cells) == (fresh.cell_count, fresh.row_cells)


def test_counters_identical_across_modes():
    # The counting mode changes only how supports are tallied, so the work
    # billed and the nodes searched must match in every mode.
    for seed in range(30):
        db, _ = prune_and_remap(gen_sparse(30, 10, 3, seed), 2)
        store = build_hdr(db)
        for toggles in itertools.product([False, True], repeat=4):
            pep, fhut, hutmfi, reorder = toggles
            billed = set()
            for mode in CountMode:
                config = MinerConfig(minsup=2, mode=mode, enable_pep=pep,
                                     enable_fhut=fhut, enable_hutmfi=hutmfi,
                                     enable_reorder=reorder)
                counters, stats = CostCounters(), SearchStats()
                mine_mfi(store, config, counters=counters, stats=stats)
                billed.add((counters.cells_touched, stats.nodes_explored))
            assert len(billed) == 1, (seed, toggles, billed)


def test_auto_mixes_modes_below_the_root(monkeypatch):
    # A database big enough that AUTO scans some nodes below the root and
    # counts others by bitmap (at 30 rows every node below the root is one
    # row in 32 or more, so bitmap). Every mode and the baseline must give
    # the same output, and the modes the same work and nodes.
    db, labels = prune_and_remap(gen_sparse(20_000, 200, 8, 5), 40)
    store = build_hdr(db)
    chosen = set()
    select_mode = hdr.select_mode

    def recording(store, pdr):
        mode = select_mode(store, pdr)
        if len(pdr.txns) < store.txn_count:
            chosen.add(mode)
        return mode

    monkeypatch.setattr(hdr, "select_mode", recording)
    runs = set()
    for mode in CountMode:
        counters, stats = CostCounters(), SearchStats()
        result = mine_mfi(store, MinerConfig(minsup=40, mode=mode),
                          counters=counters, stats=stats)
        runs.add((render_mfi(result, labels), counters.cells_touched,
                  stats.nodes_explored))
    assert chosen == {CountMode.HORIZONTAL, CountMode.BITMAP}
    [(rendered, _, nodes)] = runs
    assert rendered == render_mfi(mine_bitmap_baseline(db, 40), labels)
    assert nodes > 5_000


def test_deep_tail_survives_without_recursion():
    # 1100 nested transactions force an 1100-deep leftmost path once PEP is
    # off; the explicit frame stack must absorb it.
    n = 1100
    raw = parse_fimi("".join(" ".join(str(x) for x in range(1, i + 2)) + "\n"
                             for i in range(n)))
    db, labels = prune_and_remap(raw, 1)
    store = build_hdr(db)
    result = mine_mfi(store, MinerConfig(minsup=1, enable_pep=False))
    assert label_mfi(result, labels) == {frozenset(range(1, n + 1)): 1}


def leave_one_out(n):
    """The database of n rows over labels 1..n, row j lacking label j, and
    one full row, pruned at minsup 1."""
    labels = range(1, n + 1)
    rows = [" ".join(str(x) for x in labels if x != j) for j in labels]
    rows.append(" ".join(str(x) for x in labels))
    return prune_and_remap(parse_fimi("\n".join(rows) + "\n"), 1)[0]


@pytest.mark.parametrize("mode", list(CountMode), ids=lambda m: m.value)
def test_leave_one_out_deep_path_matches_baseline(mode):
    # Every row but one drops a single item, so the leftmost path descends
    # through all n items before the full row closes it; the hybrid engine
    # must give the baseline's sets, supports and insertion order. Bitmap
    # counting (which AUTO picks here) runs the 1100-item path in about a
    # second; the horizontal scan grows as n^3 and stays at n = 200.
    db = leave_one_out(200 if mode is CountMode.HORIZONTAL else 1100)
    result = mine_mfi(build_hdr(db), MinerConfig(minsup=1, mode=mode))
    assert list(result) == list(mine_bitmap_baseline(db, 1))
    assert len(result) == 1


def test_leave_one_out_path_holds_one_mask_per_frame():
    # AUTO counts every node below the root of this input by bitmap, down a
    # 600-deep path whose frames hold ~180,000 children. Each frame keeps
    # its node's one 600-bit mask for all of them, so the mine's traced
    # peak is the frames' child entries, ~17 MiB; a mask per child would
    # add ~18 MiB more. The store is below the two-process size, so the
    # trace sees the whole search.
    store = build_hdr(leave_one_out(600))
    assert store.cell_count < miner._SPLIT_CELLS
    tracemalloc.start()
    try:
        result = mine_mfi(store, MinerConfig(minsup=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result) == 1
    assert peak < 25 * 2**20, peak


# Mining in two processes. Every test below forces the split: the cell gate
# at 0 and two usable CPUs reported, whatever the host has.

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")


@contextlib.contextmanager
def forced_split():
    """Force every mine whose root has two children or more into two
    processes; yields the list of worker pids forked so far."""
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(miner, "_SPLIT_CELLS", 0)
        patch.setattr(miner, "_usable_cpus", lambda: 2)
        patch.setattr(os, "fork", counting_fork)
        yield forked


def mine_both_ways(db, config):
    """(rendered, insertion order, nodes, cells) of a one-process mine and
    of a mine forced into two processes, and the number of workers forked."""
    runs = []
    for split in (False, True):
        counters, stats = CostCounters(), SearchStats()
        with forced_split() if split else contextlib.nullcontext([]) as forked:
            result = mine_mfi(build_hdr(db), config, counters=counters, stats=stats)
        runs.append((render_mfi(result, list(range(db.item_count))), list(result),
                     stats.nodes_explored, counters.cells_touched))
    return runs[0], runs[1], len(forked)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("mode", list(CountMode), ids=lambda m: m.value)
def test_split_matches_one_process_on_the_sweep(mode):
    # Same rendered output and insertion order; the counters may only grow,
    # where a root subtree could not see a set the other process found.
    forks = 0
    for seed, minsup, db in sweep_databases():
        one, two, forked = mine_both_ways(db, MinerConfig(minsup=minsup, mode=mode))
        assert two[:2] == one[:2], seed
        assert two[2] >= one[2] and two[3] >= one[3], seed
        forks += forked
    assert forks > 150
    assert_no_child_left()


@needs_fork
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=databases(), mode=st.sampled_from(list(CountMode)))
def test_split_matches_one_process_on_generated_shapes(case, mode):
    text, minsup = case
    db, _ = prune_and_remap(parse_fimi(text), minsup)
    one, two, _ = mine_both_ways(db, MinerConfig(minsup=minsup, mode=mode))
    assert two[:2] == one[:2]
    assert two[2] >= one[2] and two[3] >= one[3]


@needs_fork
@pytest.mark.parametrize("text, minsup, expected, splits_without_pep", [
    ("1 2\n" * 7 + "1\n" * 18, 7, [((1, 2), 7)], True),
    ("1\n", 1, [((1,), 1)], False),
])
@pytest.mark.parametrize("pep", [True, False], ids=["pep", "no-pep"])
def test_split_keeps_the_sets_of_a_root_with_few_children(text, minsup, expected,
                                                          splits_without_pep, pep):
    # With PEP each root absorbs label 1 and has at most one child, and the
    # second root never has two: those stay in one process. Without PEP the
    # first splits, and the worker's {1} lies inside the {1, 2} the parent
    # found first, so the merge drops it.
    db, labels = prune_and_remap(parse_fimi(text), minsup)
    with forced_split() as forked:
        result = mine_mfi(build_hdr(db), MinerConfig(minsup=minsup, enable_pep=pep))
    assert [(tuple(labels[r] for r in sorted(ranks)), s) for ranks, s in result] == expected
    assert len(forked) == (splits_without_pep and not pep)
    assert_no_child_left()


@needs_fork
def test_split_loses_a_dismissal_across_root_subtrees():
    # Root children by support: 1 (3), 2 (4), 3 (5). One process finds
    # {1, 2, 3} below 1, and FHUT (or, with it off, HUTMFI) then ends the
    # search; the worker mines 2 without seeing {1, 2, 3} and finds {2, 3},
    # which the merge drops. Same output, more nodes and cells.
    db, _ = prune_and_remap(parse_fimi("1 2 3\n" * 3 + "2\n" + "3\n" * 2), 3)
    for fhut in (True, False):
        one, two, forked = mine_both_ways(db, MinerConfig(minsup=3, enable_fhut=fhut))
        assert forked == 1
        assert two[:2] == one[:2] == ("0 1 2 (3)\n", [(frozenset({0, 1, 2}), 3)])
        assert two[2] > one[2] and two[3] > one[3]


def split_database():
    db, _ = prune_and_remap(gen_sparse(300, 30, 6, 4), 3)
    return db


def fail_in(monkeypatch, process, exc):
    """Make count_supports raise ``exc`` below the root, in the parent or
    in the worker only; the root is counted before the fork."""
    parent = os.getpid()
    count = miner.count_supports

    def failing(store, pdr, *args):
        here = "parent" if os.getpid() == parent else "worker"
        if here == process and len(pdr.txns) < store.txn_count:
            raise exc
        return count(store, pdr, *args)

    monkeypatch.setattr(miner, "count_supports", failing)


@needs_fork
def test_split_leaves_no_child_after_a_normal_return():
    with forced_split() as forked:
        mine_mfi(build_hdr(split_database()), MinerConfig(minsup=3))
    assert len(forked) == 1
    assert_no_child_left()


@needs_fork
def test_split_falls_back_to_one_process_when_fork_fails():
    db = split_database()
    one, _, _ = mine_both_ways(db, MinerConfig(minsup=3))

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    counters, stats = CostCounters(), SearchStats()
    with forced_split(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "fork", no_fork)
        result = mine_mfi(build_hdr(db), MinerConfig(minsup=3), counters=counters, stats=stats)
    assert (render_mfi(result, list(range(db.item_count))), list(result), stats.nodes_explored,
            counters.cells_touched) == one
    assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("process", ["parent", "worker"])
@pytest.mark.parametrize("exc", [ValueError, AssertionError, KeyError, MemoryError])
def test_split_raises_what_either_half_raised(monkeypatch, process, exc):
    fail_in(monkeypatch, process, exc("injected"))
    with forced_split() as forked, pytest.raises(exc, match="injected"):
        mine_mfi(build_hdr(split_database()), MinerConfig(minsup=3))
    assert len(forked) == 1
    assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("exc, code", [(ValueError, 2), (AssertionError, 3)])
def test_worker_failure_keeps_the_cli_exit_codes(monkeypatch, capsys, exc, code):
    fail_in(monkeypatch, "worker", exc("injected"))
    with forced_split() as forked:
        assert cli.main(["mine", "gen:300:30:6:4", "--minsup", "3"]) == code
    assert len(forked) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "injected" in captured.err
    assert_no_child_left()


ORPHAN_SCRIPT = r"""
import os, sys, time
from hybridmfi import MinerConfig, build_hdr, gen_sparse, miner, mine_mfi, prune_and_remap

miner._SPLIT_CELLS = 0
miner._usable_cpus = lambda: 2
parent = os.getpid()
count = miner.count_supports
db, _ = prune_and_remap(gen_sparse(300, 30, 6, 4), 3)
store = build_hdr(db)
root_children = {id(txns) for txns in store.item_txns}

def slow(store, pdr, *args):
    if id(pdr.txns) in root_children:  # one call per root child entered
        if os.getpid() == parent:
            os.write(1, b"parent\n")
            time.sleep(600)
        os.write(1, f"worker {os.getpid()}\n".encode())
        time.sleep(1)
    return count(store, pdr, *args)

miner.count_supports = slow
mine_mfi(store, MinerConfig(minsup=3))
"""


@needs_fork
def test_worker_exits_once_its_parent_is_gone():
    # The parent blocks in its first root child and is killed. The worker,
    # a second a root child for ~15 s in all, must notice between root
    # children and exit: its copy of stdout is the last write end of the
    # pipe, so the pipe reaches end of file only once the worker is gone.
    src = str(Path(hybridmfi.__file__).resolve().parent.parent)
    proc = subprocess.Popen([sys.executable, "-c", ORPHAN_SCRIPT], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env={**os.environ, "PYTHONPATH": src})
    fd, out, worker = proc.stdout.fileno(), b"", None

    def read_until(done, seconds):
        nonlocal out
        deadline = time.monotonic() + seconds
        while not done() and time.monotonic() < deadline:
            if select.select([fd], [], [], deadline - time.monotonic())[0]:
                chunk = os.read(fd, 4096)
                if not chunk:
                    return True  # end of file
                out += chunk
        return done()

    try:
        started = re.compile(rb"(?s)(?=.*parent\n).*worker (\d+)\n")
        assert read_until(lambda: started.match(out), 30), out
        worker = int(started.match(out).group(1))
        proc.kill()
        proc.wait(timeout=30)
        assert read_until(lambda: False, 5), "the worker outlived its parent by 5 s"
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()
        if worker is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(worker, signal.SIGKILL)
