import copy
import random

import pytest

from hybridmfi import (
    CostCounters,
    CountMode,
    HdrStore,
    Pdr,
    TidMask,
    build_hdr,
    count_supports,
    gen_sparse,
    parse_fimi,
    project_vertical,
    prune_and_remap,
    select_mode,
    verify_counts,
)


def clone_store(store):
    return HdrStore(
        copy.deepcopy(store.db),
        store.cell_count,
        list(store.row_cells),
        [list(txns) for txns in store.item_txns],
        list(store.item_tidmask),
    )


def test_build_vertical_chain(tiny_ms2):
    # Each rank's transaction list, ascending.
    _, _, store = tiny_ms2
    assert store.item_txns[0] == [0, 2, 4]  # label 1
    assert store.item_txns[1] == [0, 3]     # label 2
    assert store.item_txns[2] == [1, 2, 3, 4]  # label 3


def test_build_single_transaction_hchain():
    db, _ = prune_and_remap(parse_fimi("1 2 3\n"), 1)
    store = build_hdr(db)
    assert store.db.transactions == [[0, 1, 2]]
    assert store.cell_count == 3
    assert store.item_txns == [[0], [0], [0]]
    assert [store.tidmask(x) for x in range(3)] == [0b1, 0b1, 0b1]


def test_build_repeated_transaction_vertical_links():
    db, _ = prune_and_remap(parse_fimi("1\n1\n"), 1)
    store = build_hdr(db)
    assert store.db.transactions == [[0], [0]]
    assert store.cell_count == 2
    assert store.item_txns == [[0, 1]]
    assert store.tidmask(0) == 0b11


def test_build_bitmaps_match_transactions(tiny_ms1):
    # Item masks start unbuilt; each one built holds exactly the item's rows.
    db, _, store = tiny_ms1
    assert store.item_tidmask == [None] * db.item_count
    for x in range(db.item_count):
        bits = store.tidmask(x)
        assert {t for t in range(len(db.transactions)) if bits >> t & 1} == \
            {t for t, txn in enumerate(db.transactions) if x in txn}


def test_build_cells_grouped_by_transaction(tiny_ms1):
    # Each row is an ascending rank array, and every cell of it shows up in
    # the item's transaction list and the item's mask.
    db, _, store = tiny_ms1
    assert store.cell_count == sum(len(txn) for txn in db.transactions)
    assert store.row_cells == [len(txn) for txn in db.transactions]
    for t, txn in enumerate(db.transactions):
        assert txn == sorted(set(txn))
        for x in txn:
            assert t in store.item_txns[x]
            assert store.tidmask(x) >> t & 1


def test_build_empty_database():
    db, _ = prune_and_remap(parse_fimi(""), 1)
    store = build_hdr(db)
    assert store.cell_count == 0
    assert store.root_pdr().txns == []
    assert store.root_pdr().cells == 0


def test_select_mode_examples():
    # A Pdr that holds every transaction reads the item lists, whatever its
    # cells and tail.
    assert select_mode(Pdr(list(range(5)), 11), 1, 5) is CountMode.HORIZONTAL
    # 10 of 10,000 rows under a 500-item tail: scan the 30 cells.
    assert select_mode(Pdr(list(range(10)), 30), 500, 10_000) is CountMode.HORIZONTAL
    # 1,000 of 5,000 rows and 25,000 cells under a 10-item tail: ten ANDs
    # beat the scan even after building the node's mask.
    assert select_mode(Pdr(list(range(1000)), 25_000), 10, 5_000) is CountMode.BITMAP
    # Mask Pdrs over 100,000 rows: two ANDs beat extracting 1,000 rows and
    # scanning 10,000 cells, but 50 ANDs lose to extracting 20 rows.
    wide = TidMask((1 << 1000) - 1, 1000)
    assert select_mode(Pdr(wide, 10_000), 2, 100_000) is CountMode.BITMAP
    narrow = TidMask((1 << 20) - 1, 20)
    assert select_mode(Pdr(narrow, 100), 50, 100_000) is CountMode.HORIZONTAL


def test_auto_counts_dense_root_children_as_masks():
    # The ROADMAP dense database: every child of the root, counted under the
    # tail the miner gives it, is cheaper as one AND per tail item than as a
    # scan of ~25-cell rows, so AUTO leaves each one a mask.
    db, _ = prune_and_remap(gen_sparse(5000, 80, 25, 3), 350)
    store = build_hdr(db)
    root = store.root_pdr()
    counts = count_supports(store, root, list(range(db.item_count)))
    assert isinstance(root.txns, list) and root.delivered is store.item_txns
    children = [y for _, y in sorted((s, y) for y, s in counts.items())]
    for i, y in enumerate(children[:-1]):
        child = project_vertical(store, root, y)
        count_supports(store, child, children[i + 1:])
        assert isinstance(child.txns, TidMask), y


def test_auto_counts_a_small_node_under_a_long_tail_as_a_list():
    # Label 0 is in 10 of 10,000 rows and 500 other labels fill the rest:
    # scanning the node's 30 cells beats 500 ANDs of 10,000-bit masks.
    text = "".join(
        ("0 " if t < 10 else "") + f"{1 + t % 500} {1 + (7 * t + 3) % 500}\n"
        for t in range(10_000)
    )
    db, _ = prune_and_remap(parse_fimi(text), 1)
    store = build_hdr(db)
    node = project_vertical(store, store.root_pdr(), 0)
    tail = list(range(1, db.item_count))
    assert (len(node.txns), node.cells, len(tail)) == (10, 30, 500)
    count_supports(store, node, tail)
    assert isinstance(node.txns, list) and node.delivered is not None


def test_count_root_horizontal_cost(tiny_ms1):
    _, _, store = tiny_ms1
    counters = CostCounters()
    counts = count_supports(store, store.root_pdr(), list(range(5)),
                            CountMode.HORIZONTAL, counters)
    assert counts == {0: 3, 1: 2, 2: 4, 3: 1, 4: 1}
    assert counters.cells_touched == 11


def test_count_root_bitmap_cost(tiny_ms1):
    # The bitmap kernel bills the set bits it pulls out, the same 11
    # occurrences the horizontal kernel counts.
    _, _, store = tiny_ms1
    counters = CostCounters()
    counts = count_supports(store, store.root_pdr(), list(range(5)),
                            CountMode.BITMAP, counters)
    assert counts == {0: 3, 1: 2, 2: 4, 3: 1, 4: 1}
    assert counters.cells_touched == 11


def test_count_node_after_projection(tiny_ms2):
    _, _, store = tiny_ms2
    pdr = project_vertical(store, store.root_pdr(), 0)
    assert pdr.txns == [0, 2, 4]
    counts = count_supports(store, pdr, [1, 2], CountMode.HORIZONTAL)
    assert counts == {1: 1, 2: 2}
    assert counts == count_supports(store, pdr, [1, 2], CountMode.BITMAP)


def test_count_auto_resolves_per_call(tiny_ms1):
    # The form a count leaves on the Pdr tells the mode AUTO picked.
    _, _, store = tiny_ms1
    counters = CostCounters()
    root = store.root_pdr()
    count_supports(store, root, list(range(5)), CountMode.AUTO, counters)
    # The root holds every transaction: counted horizontally, from the item
    # lists. Either mode bills 11.
    assert isinstance(root.txns, list) and root.delivered is store.item_txns
    assert counters.cells_touched == 11
    # A mask child under a one-item tail: one AND beats extracting its list.
    count_supports(store, root, list(range(5)), CountMode.BITMAP)
    child = project_vertical(store, root, 2)
    assert count_supports(store, child, [0], CountMode.AUTO, counters) == {0: 2}
    assert isinstance(child.txns, TidMask)
    assert counters.cells_touched == 11 + 2


def test_counters_accumulate(tiny_ms1):
    _, _, store = tiny_ms1
    counters = CostCounters()
    count_supports(store, store.root_pdr(), list(range(5)), CountMode.HORIZONTAL, counters)
    count_supports(store, store.root_pdr(), list(range(5)), CountMode.BITMAP, counters)
    assert counters.cells_touched == 11 + 11


def test_project_from_root_uses_ascending_txns(tiny_ms2):
    # A root child shares its item's list; a deeper list child shares the
    # list its parent's horizontal count delivered. Nothing is copied.
    _, _, store = tiny_ms2
    child = project_vertical(store, store.root_pdr(), 0)
    assert child.txns == [0, 2, 4] and child.txns is store.item_txns[0]
    count_supports(store, child, [1, 2], CountMode.HORIZONTAL)
    grand = project_vertical(store, child, 2)
    assert grand.txns == [2, 4] and grand.txns is child.delivered[2]
    assert grand.cells == 4


def test_project_absent_item_gives_empty(tiny_ms1):
    _, _, store = tiny_ms1
    node_d = project_vertical(store, store.root_pdr(), 3)
    assert node_d.txns == [0]
    count_supports(store, node_d, [4], CountMode.HORIZONTAL)
    empty = project_vertical(store, node_d, 4)
    assert empty.txns == [] and empty.cells == 0


def test_project_cells_counts_child_row_cells(tiny_ms1):
    # A list-born child's cells are its rows' summed lengths; a mask-born
    # child's are its size at its parent's cells per row.
    db, _, store = tiny_ms1
    root = store.root_pdr()
    child = project_vertical(store, root, 0)
    assert child.txns == [0, 2, 4]
    assert child.cells == sum(len(db.transactions[t]) for t in child.txns) == 3 + 3 + 2
    count_supports(store, root, list(range(5)), CountMode.BITMAP)
    masked = project_vertical(store, root, 0)
    assert isinstance(masked.txns, TidMask) and list(masked.txns) == [0, 2, 4]
    assert masked.cells == 11 * 3 // 5


def test_project_leaves_parent_untouched(tiny_ms2):
    _, _, store = tiny_ms2
    for mode in (CountMode.HORIZONTAL, CountMode.BITMAP):
        parent = project_vertical(store, store.root_pdr(), 2)
        count_supports(store, parent, [0, 1], mode)
        delivered = parent.delivered and [None if d is None else list(d) for d in parent.delivered]
        before = (list(parent.txns), parent.cells, delivered)
        project_vertical(store, parent, 0)
        assert (list(parent.txns), parent.cells, parent.delivered) == before


def test_project_vertical_needs_a_counted_list_parent(tiny_ms2):
    _, _, store = tiny_ms2
    child = project_vertical(store, store.root_pdr(), 0)
    with pytest.raises(ValueError, match="count the parent horizontally"):
        project_vertical(store, child, 2)
    count_supports(store, child, [1], CountMode.HORIZONTAL)
    with pytest.raises(ValueError, match="count the parent horizontally"):
        project_vertical(store, child, 2)  # 2 was not in the counted tail
    count_supports(store, child, [1, 2], CountMode.HORIZONTAL)
    assert project_vertical(store, child, 2).txns == [2, 4]


def test_root_pdr_cells_is_cell_count(tiny_ms1):
    _, _, store = tiny_ms1
    root = store.root_pdr()
    assert root.cells == store.cell_count == 11
    assert root.delivered is None


def test_mode_independence_on_random_nodes():
    # The mode that counts last leaves the node in its form, so alternating
    # the order gives mask-born children of bitmap-counted parents and
    # list-born children of horizontally counted ones, and each conversion
    # runs in both directions.
    rng = random.Random(17)
    born = set()
    for seed in range(15):
        raw = gen_sparse(rng.randrange(5, 50), rng.randrange(3, 14), 3, seed)
        db, _ = prune_and_remap(raw, 2)
        if not db.transactions:
            continue
        store = build_hdr(db)
        rows = [set(txn) for txn in db.transactions]
        pdr, tail, path = store.root_pdr(), list(range(db.item_count)), set()
        step = seed
        while True:
            expected = [t for t, row in enumerate(rows) if path <= row]
            assert list(pdr.txns) == expected
            assert len(pdr.txns) == len(expected)
            if isinstance(pdr.txns, list):
                assert pdr.cells == sum(len(rows[t]) for t in expected)
            if not tail or not expected:
                break
            modes = [CountMode.HORIZONTAL, CountMode.BITMAP]
            if step % 2:
                modes.reverse()
            first, second = (count_supports(store, pdr, tail, mode) for mode in modes)
            assert first == second == {y: sum(y in rows[t] for t in expected) for y in tail}
            y = rng.choice(tail)
            tail = [x for x in tail if x != y]
            path.add(y)
            pdr = project_vertical(store, pdr, y)
            born.add(type(pdr.txns))
            step += 1
    assert born == {list, TidMask}


def test_projection_support_identity():
    # |project(pdr, y).txns| equals the support count_supports reports for y.
    rng = random.Random(23)
    for seed in range(10):
        raw = gen_sparse(40, 10, 3, seed)
        db, _ = prune_and_remap(raw, 1)
        store = build_hdr(db)
        pdr = store.root_pdr()
        tail = list(range(db.item_count))
        counts = count_supports(store, pdr, tail, CountMode.BITMAP)
        for y in tail:
            child = project_vertical(store, pdr, y)
            # The root was counted in bitmap mode, so the child is a mask.
            txns = list(child.txns)
            assert len(child.txns) == counts[y]
            assert txns == sorted(set(txns))
            assert set(txns) <= set(pdr.txns)


def test_cost_model_bounds():
    # Every counting call bills the tail-item occurrences it tallied, the
    # same in both modes and never more than the cells in the store.
    for seed in range(8):
        raw = gen_sparse(30, 8, 3, seed)
        db, _ = prune_and_remap(raw, 1)
        store = build_hdr(db)
        root = store.root_pdr()
        tail = list(range(db.item_count))
        nodes = [(root, tail)] + [
            (project_vertical(store, root, y), tail[i + 1:]) for i, y in enumerate(tail)
        ]
        for pdr, node_tail in nodes:
            billed = []
            for mode in (CountMode.HORIZONTAL, CountMode.BITMAP):
                counters = CostCounters()
                counts = count_supports(store, pdr, node_tail, mode, counters)
                assert counters.cells_touched == sum(counts.values())
                billed.append(counters.cells_touched)
            assert billed[0] == billed[1] <= store.cell_count


def test_verify_counts_on_fresh_stores(tiny_ms1, tiny_ms2):
    for _, _, store in (tiny_ms1, tiny_ms2):
        assert verify_counts(store, store.root_pdr(), list(range(store.item_count)))
    for seed in range(8):
        db, _ = prune_and_remap(gen_sparse(25, 9, 3, seed), 2)
        store = build_hdr(db)
        assert verify_counts(store, store.root_pdr(), list(range(db.item_count)))


def test_verify_counts_on_projected_node(tiny_ms2):
    _, _, store = tiny_ms2
    pdr = project_vertical(store, store.root_pdr(), 0)
    assert verify_counts(store, pdr, [1, 2])
    count_supports(store, pdr, [1, 2], CountMode.HORIZONTAL)
    assert verify_counts(store, pdr, [1, 2])


def test_verify_counts_catches_corrupted_vlink(tiny_ms2):
    _, _, store = tiny_ms2
    broken = clone_store(store)
    broken.item_txns[0].pop()  # truncate item 0's transaction list
    assert verify_counts(store, store.root_pdr(), [0, 1, 2])
    assert not verify_counts(broken, broken.root_pdr(), [0, 1, 2])


def test_verify_counts_catches_unsorted_item_txns(tiny_ms2):
    _, _, store = tiny_ms2
    broken = clone_store(store)
    broken.item_txns[2].reverse()  # same members, wrong order
    assert not verify_counts(broken, broken.root_pdr(), [0, 1, 2])


def test_verify_counts_catches_wrong_item(tiny_ms2):
    _, _, store = tiny_ms2
    broken = clone_store(store)
    broken.db.transactions[0][1] = 2  # txn 0 reads {1, 3} instead of {1, 2}
    tail = [0, 1, 2]
    # Below the root the horizontal kernel reads the pruned rows, so it now
    # disagrees with the masks; the original store's rows are untouched.
    node = project_vertical(broken, broken.root_pdr(), 0)  # txns 0, 2, 4
    assert count_supports(broken, node, [1, 2], CountMode.HORIZONTAL) != \
        count_supports(broken, node, [1, 2], CountMode.BITMAP)
    assert verify_counts(store, store.root_pdr(), tail)
    assert not verify_counts(broken, broken.root_pdr(), tail)
    assert not verify_counts(broken, node, [1, 2])


def test_verify_counts_catches_wrong_bitmap(tiny_ms2):
    _, _, store = tiny_ms2
    root = store.root_pdr()
    count_supports(store, root, [0, 1, 2], CountMode.BITMAP)
    child = project_vertical(store, root, 1)  # label 2: txns 0 and 3
    assert verify_counts(store, child, [2])
    child.txns = TidMask(child.txns.bits | 1 << 1, child.txns.size)  # claims txn 1
    assert not verify_counts(store, child, [2])


def test_verify_counts_catches_wrong_delivered_list(tiny_ms2):
    _, _, store = tiny_ms2
    tail = [0, 1]
    child = project_vertical(store, store.root_pdr(), 2)  # label 3: txns 1-4
    count_supports(store, child, tail, CountMode.HORIZONTAL)
    assert child.delivered[0] == [2, 4]
    assert verify_counts(store, child, tail)
    # Drop one transaction; the rows, item lists and masks still agree.
    child.delivered[0] = child.delivered[0][1:]
    assert not verify_counts(store, child, tail)


def test_verify_counts_catches_wrong_tidmask(tiny_ms2):
    _, _, store = tiny_ms2
    tail = [0, 1, 2]
    count_supports(store, store.root_pdr(), tail, CountMode.BITMAP)  # builds the masks
    broken = clone_store(store)
    broken.item_tidmask[1] |= 1 << 2  # label 2 claims txn 2, which lacks it
    assert count_supports(broken, broken.root_pdr(), tail, CountMode.BITMAP) != \
        count_supports(broken, broken.root_pdr(), tail, CountMode.HORIZONTAL)
    assert verify_counts(store, store.root_pdr(), tail)
    assert not verify_counts(broken, broken.root_pdr(), tail)
