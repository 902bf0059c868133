import copy
import dataclasses
import os
import random
import tracemalloc
from array import array
from types import SimpleNamespace

import pytest

from hybridmfi import (
    CostCounters,
    CountMode,
    HdrStore,
    MinerConfig,
    Pdr,
    build_hdr,
    count_supports,
    gen_sparse,
    mine_mfi,
    parse_fimi,
    project_vertical,
    prune_and_remap,
    select_mode,
)
from hybridmfi import hdr
from hybridmfi.hdr import TidMask, _indices, _mask_of

from conftest import (
    assert_no_child_left, forced_split, needs_fork, sweep_databases, txn_list, verify_counts,
)


def clone_store(store):
    return HdrStore(
        copy.deepcopy(store.db),
        list(store.row_cells),
        [copy.copy(txns) for txns in store.item_txns],
        list(store.item_tidmask),
    )


def supports(children):
    """{item: support} of a count_supports result."""
    return {y: support for y, support, _ in children}


def project(store, parent, y, mode=CountMode.HORIZONTAL):
    """The child of ``parent`` on item y, as mine_mfi builds it: the
    transactions a count of the parent over a tail holding y returned."""
    [(_, _, txns)] = count_supports(store, parent, [y], mode)
    return project_vertical(store, parent, txns, y)


def test_build_vertical_chain(tiny_ms2):
    # Each rank's transaction sequence, ascending.
    _, _, store = tiny_ms2
    assert list(store.item_txns[0]) == [0, 2, 4]  # label 1
    assert list(store.item_txns[1]) == [0, 3]     # label 2
    assert list(store.item_txns[2]) == [1, 2, 3, 4]  # label 3


def test_build_single_transaction_hchain():
    db, _ = prune_and_remap(parse_fimi("1 2 3\n"), 1)
    store = build_hdr(db)
    assert list(store.db.rows()) == [(0, 1, 2)]
    assert store.cell_count == 3
    assert list(map(list, store.item_txns)) == [[0], [0], [0]]
    assert [store.tidmask(x) for x in range(3)] == [0b1, 0b1, 0b1]


def test_build_repeated_transaction_vertical_links():
    db, _ = prune_and_remap(parse_fimi("1\n1\n"), 1)
    store = build_hdr(db)
    assert list(store.db.rows()) == [(0,), (0,)]
    assert store.cell_count == 2
    assert list(map(list, store.item_txns)) == [[0, 1]]
    assert store.tidmask(0) == 0b11


def test_build_bitmaps_match_transactions(tiny_ms1):
    # Item masks start unbuilt; each one built holds exactly the item's rows.
    db, _, store = tiny_ms1
    assert store.item_tidmask == [None] * db.item_count
    for x in range(db.item_count):
        bits = store.tidmask(x)
        assert {t for t in range(len(db)) if bits >> t & 1} == \
            {t for t, txn in enumerate(db.rows()) if x in txn}


def test_build_cells_grouped_by_transaction(tiny_ms1):
    # Each row is an ascending rank array, and every cell of it shows up in
    # the item's transaction list and the item's mask.
    db, _, store = tiny_ms1
    assert store.cell_count == sum(len(txn) for txn in db.rows())
    assert store.row_cells == [len(txn) for txn in db.rows()]
    for t, txn in enumerate(db.rows()):
        assert txn == tuple(sorted(set(txn)))
        for x in txn:
            assert t in store.item_txns[x]
            assert store.tidmask(x) >> t & 1


def test_build_empty_database():
    db, _ = prune_and_remap(parse_fimi(""), 1)
    store = build_hdr(db)
    assert store.cell_count == 0
    assert list(store.root_pdr().txns) == []
    assert count_supports(store, store.root_pdr(), []) == []


def test_store_packs_item_sequences_into_int_arrays():
    # The vertical half costs 4 bytes a cell plus the arrays' growth slack
    # (a sixteenth), and the row lengths 8 bytes a row, 0.4 a cell at this
    # average length of 20: at most 5 bytes a cell and a constant an item
    # in all. Lists of ints cost about 12.
    db, _ = prune_and_remap(gen_sparse(5000, 200, 20, 7), 1)
    tracemalloc.start()
    try:
        store = build_hdr(db)
        allocated = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert allocated <= 5 * store.cell_count + 256 * db.item_count
    assert all(type(txns) is array and txns.typecode == "i" for txns in store.item_txns)
    assert type(store.root_pdr().txns) is range
    # No count or projection writes through the arrays that root children
    # and their delivered lists come from.
    packed = [txns.tobytes() for txns in store.item_txns]
    for mode in CountMode:
        mine_mfi(store, MinerConfig(minsup=200, mode=mode))
        assert [txns.tobytes() for txns in store.item_txns] == packed, mode


def test_build_rejects_indices_beyond_the_typecode(monkeypatch):
    # Signed 32-bit indices reach 2**31 - 1: a store holds at most 2**31
    # transactions, checked before any array is filled.
    assert hdr._MAX_TXNS == 2**31
    db, _ = prune_and_remap(parse_fimi("1\n1\n1\n"), 1)
    monkeypatch.setattr(hdr, "_MAX_TXNS", 3)
    assert [list(txns) for txns in build_hdr(db).item_txns] == [[0, 1, 2]]
    monkeypatch.setattr(hdr, "_MAX_TXNS", 2)
    with pytest.raises(OverflowError, match="3 transactions"):
        build_hdr(db)


def test_select_mode_examples():
    # select_mode reads the store's size and the Pdr's length, and takes no
    # tail: a sequence Pdr is counted by bitmap iff it holds at least one
    # transaction in _BITMAP_DENSITY (32), whatever its rows' cells.
    assert hdr._BITMAP_DENSITY == 32

    def store(txn_count, cells_of_first_rows=0, first_rows=0):
        return SimpleNamespace(txn_count=txn_count,
                               row_cells=[cells_of_first_rows] * first_rows
                               + [1] * (txn_count - first_rows))

    # A Pdr that holds every transaction reads the item lists, whatever its
    # cells.
    assert select_mode(store(5, 100, 5), Pdr(list(range(5)))) is CountMode.HORIZONTAL
    # 10 of 10,000 rows: one row in 1,000, scanned...
    assert select_mode(store(10_000, 3, 10), Pdr(list(range(10)))) is \
        CountMode.HORIZONTAL
    # ...and still scanned when those 10 rows hold 30,000 cells.
    assert select_mode(store(10_000, 3_000, 10), Pdr(list(range(10)))) is \
        CountMode.HORIZONTAL
    # 1,000 of 5,000 rows: one row in 5, by bitmap.
    assert select_mode(store(5_000, 25, 1_000), Pdr(list(range(1000)))) is \
        CountMode.BITMAP
    # A mask Pdr stays a mask: bitmap, even where its rows as a list would
    # be scanned (20 rows of 100,000), and even holding every row.
    wide = store(100_000, 5, 20)
    assert select_mode(wide, Pdr(list(range(20)))) is CountMode.HORIZONTAL
    assert select_mode(wide, Pdr(TidMask((1 << 20) - 1))) is CountMode.BITMAP
    assert select_mode(store(5), Pdr(TidMask(0b11111))) is CountMode.BITMAP


def test_select_mode_reads_no_row_lengths():
    # The rule never sums the rows' lengths: a store whose row_cells raises
    # on any read gets the same answers.
    class Unreadable:
        def __getitem__(self, t):
            raise AssertionError(f"row_cells[{t!r}] read")

        def __iter__(self):
            raise AssertionError("row_cells iterated")

        def __len__(self):
            raise AssertionError("row_cells measured")

    store = SimpleNamespace(txn_count=64, row_cells=Unreadable())
    cases = [(Pdr(list(range(2))), CountMode.BITMAP),
             (Pdr(list(range(1))), CountMode.HORIZONTAL),
             (Pdr(range(64)), CountMode.HORIZONTAL),
             (Pdr(TidMask(0b1)), CountMode.BITMAP)]
    for pdr, mode in cases:
        assert select_mode(store, pdr) is mode


def test_auto_counts_dense_root_children_as_masks():
    # The ROADMAP dense database: every child of the root, counted under the
    # tail the miner gives it, is cheaper as one AND per tail item than as a
    # scan of ~25-cell rows, so AUTO returns for each one's children the
    # node's one mask, which projects to the child's own.
    db, _ = prune_and_remap(gen_sparse(5000, 80, 25, 3), 350)
    store = build_hdr(db)
    root = store.root_pdr()
    counted = count_supports(store, root, list(range(db.item_count)))
    assert all(txns is store.item_txns[y] for y, _, txns in counted)
    counted.sort(key=lambda entry: (entry[1], entry[0]))
    for i, (y, support, txns) in enumerate(counted[:-1]):
        child = project_vertical(store, root, txns, y)
        grand = count_supports(store, child, [entry[0] for entry in counted[i + 1:]])
        mask = _mask_of(txns, store.txn_count)
        assert all(g == mask and g is grand[0][2] for _, _, g in grand), y
        assert child.txns is txns


def test_auto_counts_a_small_node_under_a_long_tail_as_a_list():
    # Label 0 is in 10 of 10,000 rows and 500 other labels fill the rest:
    # scanning the node's 30 cells beats 500 ANDs of 10,000-bit masks.
    text = "".join(
        ("0 " if t < 10 else "") + f"{1 + t % 500} {1 + (7 * t + 3) % 500}\n"
        for t in range(10_000)
    )
    db, _ = prune_and_remap(parse_fimi(text), 1)
    store = build_hdr(db)
    node = project(store, store.root_pdr(), 0)
    tail = list(range(1, db.item_count))
    cells = sum(store.row_cells[t] for t in node.txns)
    assert (len(node.txns), cells, len(tail)) == (10, 30, 500)
    children = count_supports(store, node, tail)
    assert all(type(txns) is list for _, _, txns in children)
    assert sum(map(len, (txns for _, _, txns in children))) == cells - 10


def test_count_root_horizontal_cost(tiny_ms1):
    _, _, store = tiny_ms1
    counters = CostCounters()
    children = count_supports(store, store.root_pdr(), list(range(5)),
                              CountMode.HORIZONTAL, counters)
    assert [y for y, _, _ in children] == list(range(5))
    assert supports(children) == {0: 3, 1: 2, 2: 4, 3: 1, 4: 1}
    assert counters.cells_touched == 11


def test_count_root_bitmap_cost(tiny_ms1):
    # The bitmap kernel bills its popcounts, the same 11 occurrences the
    # horizontal kernel counts.
    _, _, store = tiny_ms1
    counters = CostCounters()
    children = count_supports(store, store.root_pdr(), list(range(5)),
                              CountMode.BITMAP, counters)
    assert [y for y, _, _ in children] == list(range(5))
    assert supports(children) == {0: 3, 1: 2, 2: 4, 3: 1, 4: 1}
    assert counters.cells_touched == 11


def test_count_node_after_projection(tiny_ms2):
    # A horizontal count returns every list its scan delivered; a bitmap
    # count returns the node's mask for every child, support-1 one
    # included, and each projects to the same transactions as the list.
    _, _, store = tiny_ms2
    pdr = project(store, store.root_pdr(), 0)
    assert list(pdr.txns) == [0, 2, 4]
    horizontal = count_supports(store, pdr, [1, 2], CountMode.HORIZONTAL)
    counters = CostCounters()
    bitmap = count_supports(store, pdr, [1, 2], CountMode.BITMAP, counters)
    assert supports(horizontal) == supports(bitmap) == {1: 1, 2: 2}
    assert [txns for _, _, txns in horizontal] == [[0], [2, 4]]
    assert [txns for _, _, txns in bitmap] == [0b10101, 0b10101]
    assert [_indices(project_vertical(store, pdr, txns, y).txns.bits)
            for y, _, txns in bitmap] == [[0], [2, 4]]
    assert counters.cells_touched == 3


def test_count_auto_resolves_per_call(tiny_ms1):
    # The form of the children a count returns tells the mode AUTO picked.
    _, _, store = tiny_ms1
    counters = CostCounters()
    root = store.root_pdr()
    children = count_supports(store, root, list(range(5)), CountMode.AUTO, counters)
    # The root holds every transaction: counted horizontally, from the item
    # lists. Either mode bills 11.
    assert all(txns is store.item_txns[y] for y, _, txns in children)
    assert counters.cells_touched == 11
    # A mask child and its own children are counted by bitmap, whatever
    # the tail.
    child = project(store, root, 2, CountMode.BITMAP)
    children = count_supports(store, child, [0, 1, 3, 4], CountMode.AUTO, counters)
    assert supports(children) == {0: 2, 1: 1, 3: 0, 4: 1}
    _, _, txns = children[0]
    grand = project_vertical(store, child, txns, 0)
    children = count_supports(store, grand, [4], CountMode.AUTO, counters)
    assert supports(children) == {4: 1} and type(children[0][2]) is int
    assert isinstance(child.txns, TidMask) and isinstance(grand.txns, TidMask)
    assert counters.cells_touched == 11 + 4 + 1


def test_count_horizontal_rejects_a_mask(tiny_ms1):
    # No way back: a mask Pdr is never turned into a list, and the error
    # names the mode to use instead.
    _, _, store = tiny_ms1
    root = store.root_pdr()
    for pdr in (Pdr(TidMask(0b11111)), project(store, root, 2, CountMode.BITMAP)):
        txns = pdr.txns
        with pytest.raises(ValueError, match="count it in bitmap or auto mode"):
            count_supports(store, pdr, [0, 1], CountMode.HORIZONTAL)
        assert pdr.txns is txns


def test_counters_accumulate(tiny_ms1):
    _, _, store = tiny_ms1
    counters = CostCounters()
    count_supports(store, store.root_pdr(), list(range(5)), CountMode.HORIZONTAL, counters)
    count_supports(store, store.root_pdr(), list(range(5)), CountMode.BITMAP, counters)
    assert counters.cells_touched == 11 + 11


def test_project_from_root_uses_ascending_txns(tiny_ms2):
    # A root child shares its item's array; a deeper list child shares the
    # list its parent's horizontal count delivered. Nothing is copied.
    _, _, store = tiny_ms2
    child = project(store, store.root_pdr(), 0)
    assert list(child.txns) == [0, 2, 4] and child.txns is store.item_txns[0]
    (_, _, first), (_, _, second) = count_supports(store, child, [1, 2],
                                                   CountMode.HORIZONTAL)
    grand = project_vertical(store, child, second, 2)
    assert grand.txns == [2, 4] and grand.txns is second and first == [0]


def test_project_absent_item_gives_empty(tiny_ms1):
    _, _, store = tiny_ms1
    node_d = project(store, store.root_pdr(), 3)
    assert list(node_d.txns) == [0]
    empty = project(store, node_d, 4)
    assert empty.txns == []
    # A bitmap count returns the node's mask for the empty child too, and
    # it projects to nothing.
    [(y, support, mask)] = count_supports(store, node_d, [4], CountMode.BITMAP)
    assert (y, support, mask) == (4, 0, 0b1)
    assert project_vertical(store, node_d, mask, 4).txns.bits == 0


def test_project_cells_counts_child_row_cells():
    # At the rule's edge, in a database of 2·_BITMAP_DENSITY rows: a child
    # holding two rows (one in _BITMAP_DENSITY) is counted by bitmap, one
    # holding a row fewer is scanned, however many cells their rows hold;
    # a mask child is counted by bitmap and a child holding every row
    # horizontally, from the item arrays.
    n = 2 * hdr._BITMAP_DENSITY
    rows = ["1 2 3 " + " ".join(map(str, range(4, 40))), "1 3"] + ["3"] * (n - 2)
    db, _ = prune_and_remap(parse_fimi("\n".join(rows) + "\n"), 1)
    store = build_hdr(db)
    assert store.txn_count == n
    root = store.root_pdr()
    pair, single, every = (project(store, root, x) for x in (0, 1, 2))
    assert list(pair.txns) == [0, 1] and list(single.txns) == [0]
    assert store.row_cells[0] == 39
    assert len(every.txns) == n
    assert select_mode(store, pair) is CountMode.BITMAP
    assert len(pair.txns) * hdr._BITMAP_DENSITY == n
    assert select_mode(store, single) is CountMode.HORIZONTAL
    assert select_mode(store, every) is CountMode.HORIZONTAL
    masked = project(store, root, 1, CountMode.BITMAP)
    assert _indices(masked.txns.bits) == [0]
    assert select_mode(store, masked) is CountMode.BITMAP


def test_project_leaves_parent_untouched(tiny_ms2):
    # Neither a count nor a projection changes the Pdr it reads, in either
    # mode; a bitmap count's children are the node's one mask and a
    # horizontal count's are lists. A Pdr cannot be assigned to at all.
    _, _, store = tiny_ms2
    for mode, kinds in ((CountMode.HORIZONTAL, [list, list]),
                        (CountMode.BITMAP, [int, int])):
        parent = project(store, store.root_pdr(), 2)
        txns = parent.txns
        before = list(txns)
        children = count_supports(store, parent, [0, 1], mode)
        assert [type(child) for _, _, child in children] == kinds
        for y, _, child in children:
            project_vertical(store, parent, child, y)
        assert parent.txns is txns and list(txns) == before == [1, 2, 3, 4]
        assert type(txns) is array and parent == Pdr(array("i", before), 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        parent.txns = []


def test_root_pdr_cells_is_cell_count(tiny_ms1):
    # The root holds every transaction, so its rows are every cell.
    _, _, store = tiny_ms1
    root = store.root_pdr()
    assert list(root.txns) == list(range(store.txn_count))
    assert sum(store.row_cells[t] for t in root.txns) == store.cell_count == 11
    # The store and the Pdrs keep only state the engine reads and cannot
    # derive: the cell total is a property, a mask's size its popcount. A
    # Pdr's item, which only a root child's has, saves a bitmap count from
    # building the mask of an item the store already keeps.
    assert [field.name for field in dataclasses.fields(root)] == ["txns", "item"]
    assert root.item is None
    assert [field.name for field in dataclasses.fields(HdrStore)] == \
        ["db", "row_cells", "item_txns", "item_tidmask"]
    assert TidMask.__slots__ == ("bits",)


def test_mode_independence_on_random_nodes():
    # Every node is counted both ways: horizontally as a sequence and by
    # bitmap, one of them on a list copy, and both return the same supports
    # and children that project to the same transactions. At two steps of
    # three a sequence node (the root's range, a root child's item array, a
    # delivered list) descends to a horizontal count's child; otherwise it
    # descends to a bitmap count's mask child at the prune minsup, 2, and so
    # does its whole subtree.
    rng = random.Random(17)
    born = set()
    for seed in range(15):
        raw = gen_sparse(rng.randrange(5, 50), rng.randrange(3, 14), 3, seed)
        db, _ = prune_and_remap(raw, 2)
        if not len(db):
            continue
        store = build_hdr(db)
        rows = [set(txn) for txn in db.rows()]
        pdr, tail, path = store.root_pdr(), list(range(db.item_count)), set()
        step = seed
        while True:
            expected = [t for t, row in enumerate(rows) if path <= row]
            assert txn_list(pdr.txns) == expected
            assert len(pdr.txns) == len(expected)
            if not tail or not expected:
                break
            copied = Pdr(list(expected))
            keep_list = not isinstance(pdr.txns, TidMask) and step % 3
            txns = pdr.txns
            listed, masked = (pdr, copied) if keep_list else (copied, pdr)
            horizontal = count_supports(store, listed, tail, CountMode.HORIZONTAL)
            bitmap = count_supports(store, masked, tail, CountMode.BITMAP)
            assert pdr.txns is txns
            for (y, s, lst), (z, u, mask) in zip(horizontal, bitmap):
                child = [t for t in expected if y in rows[t]]
                assert (y, s, list(lst)) == (z, u, child)
                assert project_vertical(store, masked, mask, z).txns.bits == \
                    _mask_of(child, len(rows))
            assert [y for y, _, _ in horizontal] == tail
            choices = horizontal if keep_list else [c for c in bitmap if c[1] >= 2]
            if not choices:
                break
            y, _, child = rng.choice(choices)
            tail = [x for x in tail if x != y]
            path.add(y)
            pdr = project_vertical(store, pdr, child, y)
            born.add(type(pdr.txns))
            step += 1
    assert born == {array, list, TidMask}


def test_projection_support_identity():
    # A projected child's size equals the support count_supports reports
    # for it.
    for seed in range(10):
        raw = gen_sparse(40, 10, 3, seed)
        db, _ = prune_and_remap(raw, 1)
        store = build_hdr(db)
        pdr = store.root_pdr()
        tail = list(range(db.item_count))
        for y, support, txns in count_supports(store, pdr, tail, CountMode.BITMAP):
            child = project_vertical(store, pdr, txns, y)
            # The root was counted in bitmap mode, so the child is a mask.
            assert isinstance(child.txns, TidMask)
            listed = _indices(child.txns.bits)
            assert len(child.txns) == support == len(listed)
            assert listed == sorted(set(listed))
            assert set(listed) <= set(pdr.txns)


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
            (project(store, root, y), tail[i + 1:]) for i, y in enumerate(tail)
        ]
        for pdr, node_tail in nodes:
            billed = []
            for mode in (CountMode.HORIZONTAL, CountMode.BITMAP):
                counters = CostCounters()
                children = count_supports(store, pdr, node_tail, mode, counters)
                assert counters.cells_touched == sum(supports(children).values())
                billed.append(counters.cells_touched)
            assert billed[0] == billed[1] <= store.cell_count


def test_verify_counts_on_fresh_stores(tiny_ms1, tiny_ms2):
    # Without children, and with either mode's children of the root.
    for _, _, store in (tiny_ms1, tiny_ms2):
        assert verify_counts(store, store.root_pdr(), list(range(store.item_count)))
    for seed in range(8):
        db, _ = prune_and_remap(gen_sparse(25, 9, 3, seed), 2)
        store = build_hdr(db)
        root, tail = store.root_pdr(), list(range(db.item_count))
        assert verify_counts(store, root, tail)
        for mode in (CountMode.HORIZONTAL, CountMode.BITMAP):
            assert verify_counts(store, root, tail, count_supports(store, root, tail, mode))


def test_verify_counts_on_projected_node(tiny_ms2):
    _, _, store = tiny_ms2
    pdr = project(store, store.root_pdr(), 0)
    assert verify_counts(store, pdr, [1, 2])
    for mode in (CountMode.HORIZONTAL, CountMode.BITMAP):
        assert verify_counts(store, pdr, [1, 2], count_supports(store, pdr, [1, 2], mode))


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
    assert broken.db.cells[:2].tolist() == [0, 1] and broken.db.ends[0] == 2
    broken.db.cells[1] = 2  # txn 0 reads {1, 3} instead of {1, 2}
    tail = [0, 1, 2]
    # Below the root the horizontal kernel reads the pruned rows, so it now
    # disagrees with the masks; the original store's rows are untouched.
    node = project(broken, broken.root_pdr(), 0)  # txns 0, 2, 4
    assert supports(count_supports(broken, node, [1, 2], CountMode.HORIZONTAL)) != \
        supports(count_supports(broken, node, [1, 2], CountMode.BITMAP))
    assert verify_counts(store, store.root_pdr(), tail)
    assert not verify_counts(broken, broken.root_pdr(), tail)
    assert not verify_counts(broken, node, [1, 2])


def test_verify_counts_catches_wrong_bitmap(tiny_ms2):
    # A mask child is checked as a mask: its transactions come from its
    # bits, with no list to fall back on.
    _, _, store = tiny_ms2
    child = project(store, store.root_pdr(), 1, CountMode.BITMAP)  # label 2: txns 0, 3
    assert supports(count_supports(store, child, [2])) == {2: 1}
    assert isinstance(child.txns, TidMask) and verify_counts(store, child, [2])


def test_verify_counts_catches_wrong_delivered_list(tiny_ms2):
    # Each child count_supports returns is checked against a rescan of the
    # rows: a list or a mask short of one transaction, a wrong support or
    # children out of tail order fail, while the rows, item lists and
    # masks still agree.
    _, _, store = tiny_ms2
    tail = [0, 1]
    child = project(store, store.root_pdr(), 2)  # label 3: txns 1-4
    for mode in (CountMode.HORIZONTAL, CountMode.BITMAP):
        children = count_supports(store, child, tail, mode)
        assert verify_counts(store, child, tail, children)
        (y, support, txns), second = children
        assert (y, support, txn_list(project_vertical(store, child, txns, y).txns)) == \
            (0, 2, [2, 4])
        dropped = txns[1:] if mode is CountMode.HORIZONTAL else txns & ~(1 << 2)
        assert not verify_counts(store, child, tail, [(y, support, dropped), second])
        assert not verify_counts(store, child, tail, [(y, support + 1, txns), second])
        assert not verify_counts(store, child, tail, [(y, support, None), second])
        assert not verify_counts(store, child, tail, [second, (y, support, txns)])
    # A horizontal count of the root returns the store's item arrays; one
    # short of an index fails too.
    root = store.root_pdr()
    (y, support, txns), second = children = count_supports(store, root, tail,
                                                           CountMode.HORIZONTAL)
    assert type(txns) is array and verify_counts(store, root, tail, children)
    assert not verify_counts(store, root, tail, [(y, support, txns[1:]), second])


def test_verify_counts_catches_wrong_tidmask(tiny_ms2):
    _, _, store = tiny_ms2
    tail = [0, 1, 2]
    count_supports(store, store.root_pdr(), tail, CountMode.BITMAP)  # builds the masks
    broken = clone_store(store)
    broken.item_tidmask[1] |= 1 << 2  # label 2 claims txn 2, which lacks it
    assert supports(count_supports(broken, broken.root_pdr(), tail, CountMode.BITMAP)) != \
        supports(count_supports(broken, broken.root_pdr(), tail, CountMode.HORIZONTAL))
    assert verify_counts(store, store.root_pdr(), tail)
    assert not verify_counts(broken, broken.root_pdr(), tail)


# Building in two processes. Every test below forces the split (conftest's
# forced_split): the cell gate at 0 and two usable CPUs reported, whatever
# the host has. The caller fills each item's sequence from the first half
# of the rows, the worker from the second.


def assert_split_build_matches(db):
    """Check that a build forced into two processes, one worker forked,
    equals a one-process build field by field."""
    one = build_hdr(db)
    with forced_split() as forked:
        two = build_hdr(db)
    assert_no_child_left()
    assert len(forked) == 1
    assert two.db is one.db
    assert type(two.row_cells) is list and two.row_cells == one.row_cells
    assert [(type(txns), txns.typecode) for txns in two.item_txns] == \
        [(array, "i")] * db.item_count
    assert two.item_txns == one.item_txns
    assert two.item_tidmask == one.item_tidmask == [None] * db.item_count


SPLIT_BUILDS = {
    "empty": ("", 1),
    "one_row": ("1 2\n", 1),
    "items_of_one_half_only": ("1 2\n1 2\n3\n3\n", 2),
    "256_ranks": ("".join(f"{x} {x + 1}\n" for x in range(255)), 1),
    "257_ranks": ("".join(f"{x} {x + 1}\n" for x in range(256)), 1),
}


@needs_fork
@pytest.mark.parametrize("text, minsup", SPLIT_BUILDS.values(), ids=SPLIT_BUILDS)
def test_build_in_two_equals_one_process(text, minsup):
    db, _ = prune_and_remap(parse_fimi(text), minsup)
    assert_split_build_matches(db)


def test_build_in_two_covers_both_rank_typecodes():
    counts = {name: prune_and_remap(parse_fimi(text), minsup)[0].cells.typecode
              for name, (text, minsup) in SPLIT_BUILDS.items() if "ranks" in name}
    assert counts == {"256_ranks": "B", "257_ranks": "H"}


@needs_fork
def test_build_in_two_equals_one_process_on_the_sweep():
    for seed, _, db in sweep_databases():
        if seed % 5 == 0:
            assert_split_build_matches(db)


@needs_fork
def test_build_in_two_raises_what_the_worker_raised(monkeypatch):
    parent = os.getpid()
    item_txns = hdr._item_txns

    def failing(*args):
        if os.getpid() != parent:
            raise KeyError("injected")
        return item_txns(*args)

    monkeypatch.setattr(hdr, "_item_txns", failing)
    db, _ = prune_and_remap(gen_sparse(300, 30, 6, 4), 3)
    with forced_split() as forked, pytest.raises(KeyError, match="injected"):
        build_hdr(db)
    assert len(forked) == 1
    assert_no_child_left()
