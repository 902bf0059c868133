import copy
import random

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


def mask_of(items):
    return sum(1 << x for x in items)


def clone_store(store):
    return HdrStore(
        copy.deepcopy(store.db),
        store.cell_count,
        list(store.txn_bitmap),
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
    assert store.txn_bitmap == [0b111]


def test_build_repeated_transaction_vertical_links():
    db, _ = prune_and_remap(parse_fimi("1\n1\n"), 1)
    store = build_hdr(db)
    assert store.db.transactions == [[0], [0]]
    assert store.cell_count == 2
    assert store.item_txns == [[0, 1]]
    assert store.txn_bitmap == [0b1, 0b1]


def test_build_bitmaps_match_transactions(tiny_ms1):
    db, _, store = tiny_ms1
    for t, txn in enumerate(db.transactions):
        bits = store.txn_bitmap[t]
        assert {r for r in range(db.item_count) if bits >> r & 1} == set(txn)


def test_build_cells_grouped_by_transaction(tiny_ms1):
    # Each row is an ascending rank array, and every cell of it shows up in
    # the item's transaction list and the row's bitmap.
    db, _, store = tiny_ms1
    assert store.cell_count == sum(len(txn) for txn in db.transactions)
    for t, txn in enumerate(db.transactions):
        assert txn == sorted(set(txn))
        for x in txn:
            assert t in store.item_txns[x]
            assert store.txn_bitmap[t] >> x & 1


def test_build_empty_database():
    db, _ = prune_and_remap(parse_fimi(""), 1)
    store = build_hdr(db)
    assert store.cell_count == 0
    assert store.root_pdr().txns == []
    assert store.root_pdr().atl == 0


def test_select_mode_examples():
    assert select_mode(2.2, 5) is CountMode.HORIZONTAL
    assert select_mode(3.0, 6) is CountMode.BITMAP  # boundary is bitmap
    assert select_mode(0, 4) is CountMode.HORIZONTAL


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
    pdr = project_vertical(store, store.root_pdr(), 0, 0b110)
    assert pdr.txns == [0, 2, 4]
    counts = count_supports(store, pdr, [1, 2], CountMode.HORIZONTAL)
    assert counts == {1: 1, 2: 2}
    assert counts == count_supports(store, pdr, [1, 2], CountMode.BITMAP)


def test_count_auto_resolves_per_call(tiny_ms1):
    _, _, store = tiny_ms1
    counters = CostCounters()
    count_supports(store, store.root_pdr(), list(range(5)), CountMode.AUTO, counters)
    # Root ATL 2.2 < 5/2, so auto runs horizontally; either mode bills 11.
    assert select_mode(store.root_pdr().atl, 5) is CountMode.HORIZONTAL
    assert counters.cells_touched == 11


def test_counters_accumulate(tiny_ms1):
    _, _, store = tiny_ms1
    counters = CostCounters()
    count_supports(store, store.root_pdr(), list(range(5)), CountMode.HORIZONTAL, counters)
    count_supports(store, store.root_pdr(), list(range(5)), CountMode.BITMAP, counters)
    assert counters.cells_touched == 11 + 11


def test_project_from_root_uses_ascending_txns(tiny_ms2):
    _, _, store = tiny_ms2
    child = project_vertical(store, store.root_pdr(), 0, 0b110)
    assert child.txns == [0, 2, 4]
    grand = project_vertical(store, child, 2, 0)
    assert grand.txns == [2, 4]
    assert grand.restricted_length_sum == 0


def test_project_absent_item_gives_empty(tiny_ms1):
    _, _, store = tiny_ms1
    node_d = project_vertical(store, store.root_pdr(), 3, 0b10000)
    assert node_d.txns == [0]
    empty = project_vertical(store, node_d, 4, 0)
    assert empty.txns == [] and empty.atl == 0


def test_project_restricted_sum_counts_tail_cells(tiny_ms1):
    db, _, store = tiny_ms1
    tail_after = [1, 2, 3, 4]
    child = project_vertical(store, store.root_pdr(), 0, mask_of(tail_after))
    expected = sum(
        sum(1 for x in db.transactions[t] if x in set(tail_after)) for t in child.txns
    )
    assert child.restricted_length_sum == expected == 5


def test_project_leaves_parent_untouched(tiny_ms2):
    _, _, store = tiny_ms2
    root = store.root_pdr()
    before = (list(root.txns), root.restricted_length_sum)
    project_vertical(store, root, 2, 0b011)
    assert (root.txns, root.restricted_length_sum) == before


def test_root_pdr_restricted_sum_is_cell_count(tiny_ms1):
    _, _, store = tiny_ms1
    assert store.root_pdr().restricted_length_sum == store.cell_count == 11
    assert store.root_pdr().atl == 2.2


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
            assert pdr.restricted_length_sum == sum(len(rows[t] & set(tail)) for t in expected)
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
            pdr = project_vertical(store, pdr, y, mask_of(tail))
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
            child = project_vertical(store, pdr, y, mask_of(x for x in tail if x != y))
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
            (project_vertical(store, root, y, mask_of(tail[i + 1:])), tail[i + 1:])
            for i, y in enumerate(tail)
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
    pdr = project_vertical(store, store.root_pdr(), 0, 0b110)
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
    # The horizontal kernel reads the pruned rows, so it now disagrees with
    # the bitmaps; the original store's rows are untouched.
    assert count_supports(broken, broken.root_pdr(), tail, CountMode.HORIZONTAL) != \
        count_supports(broken, broken.root_pdr(), tail, CountMode.BITMAP)
    assert verify_counts(store, store.root_pdr(), tail)
    assert not verify_counts(broken, broken.root_pdr(), tail)


def test_verify_counts_catches_wrong_bitmap(tiny_ms2):
    _, _, store = tiny_ms2
    broken = clone_store(store)
    broken.txn_bitmap[1] |= 1 << 0  # txn 1 claims label 1 it does not hold
    assert not verify_counts(broken, broken.root_pdr(), [0, 1, 2])


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
