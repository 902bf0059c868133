import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hybridmfi

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

from conftest import label_mfi


def mine_labels(raw_text, minsup, **config_kwargs):
    db, item_map = prune_and_remap(parse_fimi(raw_text), minsup)
    store = build_hdr(db)
    result = mine_mfi(store, MinerConfig(minsup=minsup, **config_kwargs))
    return label_mfi(result, item_map)


def mine_traced(raw_text, minsup, **config_kwargs):
    """(maximal sets as label tuples in insertion order, supports, nodes)."""
    db, item_map = prune_and_remap(parse_fimi(raw_text), minsup)
    stats = SearchStats()
    result = mine_mfi(build_hdr(db), MinerConfig(minsup=minsup, **config_kwargs),
                      stats=stats)
    order = [tuple(sorted(item_map.labels_of(ranks))) for ranks, _ in result]
    supports = [support for _, support in result]
    return order, supports, stats.nodes_explored


def test_mine_tiny_minsup2(tiny_ms2):
    db, item_map, store = tiny_ms2
    result = mine_mfi(store, MinerConfig(minsup=2))
    assert label_mfi(result, item_map) == {
        frozenset({1, 3}): 2,
        frozenset({2}): 2,
    }


def test_mine_tiny_minsup1(tiny_ms1):
    db, item_map, store = tiny_ms1
    result = mine_mfi(store, MinerConfig(minsup=1))
    assert label_mfi(result, item_map) == {
        frozenset({1, 2, 4}): 1,
        frozenset({1, 3, 5}): 1,
        frozenset({2, 3}): 1,
    }


def test_mine_tiny_minsup3(tiny_raw):
    db, item_map = prune_and_remap(tiny_raw, 3)
    result = mine_mfi(build_hdr(db), MinerConfig(minsup=3))
    assert label_mfi(result, item_map) == {frozenset({1}): 3, frozenset({3}): 4}


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
    # transaction contains it.
    from hybridmfi import count_supports, project_vertical

    for seed in range(10):
        db, _ = prune_and_remap(gen_sparse(30, 8, 3, seed), 2)
        if db.item_count < 2:
            continue
        store = build_hdr(db)
        root = store.root_pdr()
        tail = list(range(db.item_count))
        y = tail[0]
        rest = tail[1:]
        pdr = project_vertical(store, root, y)
        counts = count_supports(store, pdr, rest, CountMode.BITMAP)
        head_support = len(pdr.txns)
        for x, s in counts.items():
            if s == head_support:
                assert all(x in db.transactions[t] for t in pdr.txns)


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
    view = LmfiView(mfi, [], 0)
    for checker in (mfi, view):
        assert not checker.covers_mask(0b101)  # empty store never covers
    mfi.add(0b101, 2)
    for checker in (mfi, view):
        assert checker.covers_mask(0b101)      # equal
        assert checker.covers_mask(0b100)      # proper subset
        assert not checker.covers_mask(0b010)  # disjoint
        assert not checker.covers_mask(0b111)  # proper superset


def test_store_add_keeps_antichain():
    mfi = MfiStore(5)
    assert mfi.add(0b101, 2)
    assert not mfi.add(0b001, 3)  # subsumed
    assert not mfi.add(0b101, 2)  # duplicate
    assert mfi.add(0b010, 2)
    assert mfi.as_dict() == {frozenset({0, 2}): 2, frozenset({1}): 2}


def test_check_antichain_rejects_nested_sets():
    mfi = MfiStore(2)
    mfi.add(0b01, 2)
    mfi.add(0b11, 1)  # {a} is stored first, so add finds no superset
    with pytest.raises(AssertionError):
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


def test_lmfi_view_project_filters_by_item():
    mfi = MfiStore(5)
    mfi.add(0b00101, 2)
    mfi.add(0b00010, 2)
    root = LmfiView(mfi, [], 0)
    assert root.project(2).indices == [0]
    assert root.project(3).indices == []
    narrowed = root.project(0).project(2)
    assert narrowed.indices == [0]
    assert narrowed.covers_mask(0b101) and not narrowed.covers_mask(0b010)


def test_lmfi_view_sees_later_inserts():
    mfi = MfiStore(5)
    view = LmfiView(mfi, [], 0).project(1)
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
        assert without.as_dict() == with_prune.as_dict(), f"seed {seed}"
        assert off.nodes_explored > on.nodes_explored, f"seed {seed}"


def test_mine_matches_oracle_on_random_databases():
    for seed in range(40):
        minsup = seed % 3 + 1
        db, _ = prune_and_remap(gen_sparse(30, 9, 3, seed), minsup)
        store = build_hdr(db)
        mined = mine_mfi(store, MinerConfig(minsup=minsup)).as_dict()
        expected = maximal_filter(enumerate_fi_bruteforce(db, minsup)).as_dict()
        assert mined == expected, f"seed {seed}"


def test_toggles_do_not_change_output(tiny_ms1):
    db, item_map, store = tiny_ms1
    reference = mine_mfi(store, MinerConfig(minsup=1)).as_dict()
    for pep, fhut, hutmfi, reorder in itertools.product([False, True], repeat=4):
        config = MinerConfig(minsup=1, enable_pep=pep, enable_fhut=fhut,
                             enable_hutmfi=hutmfi, enable_reorder=reorder)
        assert mine_mfi(store, config).as_dict() == reference


def test_modes_do_not_change_output(tiny_ms2):
    _, _, store = tiny_ms2
    reference = mine_mfi(store, MinerConfig(minsup=2)).as_dict()
    for mode in (CountMode.HORIZONTAL, CountMode.BITMAP):
        assert mine_mfi(store, MinerConfig(minsup=2, mode=mode)).as_dict() == reference


def test_mfi_supports_are_exact():
    for seed in range(15):
        minsup = 2
        db, _ = prune_and_remap(gen_sparse(40, 10, 3, seed), minsup)
        store = build_hdr(db)
        for ranks, support in mine_mfi(store, MinerConfig(minsup=minsup)):
            true_support = sum(1 for txn in db.transactions if ranks <= set(txn))
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
    mine_mfi(store, MinerConfig(minsup=3, mode=mode))
    fresh = build_hdr(db)
    assert store.db.transactions == fresh.db.transactions
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


def test_deep_tail_survives_without_recursion():
    # 1100 nested transactions force an 1100-deep leftmost path once PEP is
    # off; the explicit frame stack must absorb it.
    n = 1100
    raw = parse_fimi("".join(" ".join(str(x) for x in range(1, i + 2)) + "\n"
                             for i in range(n)))
    db, item_map = prune_and_remap(raw, 1)
    store = build_hdr(db)
    result = mine_mfi(store, MinerConfig(minsup=1, enable_pep=False))
    assert label_mfi(result, item_map) == {frozenset(range(1, n + 1)): 1}


@pytest.mark.parametrize("mode", list(CountMode), ids=lambda m: m.value)
def test_leave_one_out_deep_path_matches_baseline(mode):
    # Every row but one drops a single item, so the leftmost path descends
    # through all n items before the full row closes it; the hybrid engine
    # must give the baseline's sets, supports and insertion order. Bitmap
    # counting (which AUTO picks here) runs the 1100-item path in about a
    # second; the horizontal scan grows as n^3 and stays at n = 200.
    n = 200 if mode is CountMode.HORIZONTAL else 1100
    labels = range(1, n + 1)
    rows = [" ".join(str(x) for x in labels if x != j) for j in labels]
    rows.append(" ".join(str(x) for x in labels))
    db, _ = prune_and_remap(parse_fimi("\n".join(rows) + "\n"), 1)
    result = mine_mfi(build_hdr(db), MinerConfig(minsup=1, mode=mode))
    assert list(result) == list(mine_bitmap_baseline(db, 1))
    assert len(result) == 1
