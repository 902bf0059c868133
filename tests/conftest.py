import pytest

from hybridmfi import build_hdr, gen_sparse, parse_fimi, project_vertical, prune_and_remap
from hybridmfi.hdr import TidMask, _mask_of

# Five transactions over labels 1..5; the worked example used throughout.
TINY_DB = "1 2 4\n3\n1 3 5\n2 3\n1 3\n"


def sweep_databases():
    """(seed, minsup, pruned database) for the 200 seeded small databases
    of the acceptance sweep."""
    for seed in range(200):
        n_txns = 10 + (seed * 7) % 31
        n_items = 4 + (seed * 5) % 12
        avg_len = 2 + seed % 3
        minsup = seed % 3 + 1
        db, _ = prune_and_remap(gen_sparse(n_txns, n_items, avg_len, seed), minsup)
        yield seed, minsup, db


def label_mfi(store, labels):
    """{frozenset of original labels: support} for a mined result, rank r
    being ``labels[r]``."""
    return {frozenset(labels[r] for r in ranks): support for ranks, support in store}


def verify_counts(store, pdr, tail, children=()) -> bool:
    """Debug oracle: recompute tail supports three independent ways (a
    rescan of the rows the horizontal kernel reads, per-item transaction
    sequences, AND and popcount of the item masks) and check that every
    item's transaction sequence is strictly ascending, that the Pdr holds no
    transaction twice and that each of ``children``, as ``count_supports``
    returns them, is in tail order with its item's support and projects
    (``project_vertical``) to exactly the Pdr's transactions whose rows
    hold its item, as a sequence or as a mask. True only if everything
    agrees. Slow by design."""
    cells, ends, tail_set = store.db.cells, store.db.ends, set(tail)

    def row(t):
        return cells[ends[t - 1] if t else 0:ends[t]]

    txns = list(pdr.txns)
    in_pdr = set(txns)
    if len(in_pdr) != len(pdr.txns):
        return False
    try:
        raw = dict.fromkeys(tail, 0)
        for t in txns:
            for x in row(t):
                if x in tail_set:
                    raw[x] += 1
        listed = {}
        for y in tail:
            item_txns = store.item_txns[y]
            if any(a >= b for a, b in zip(item_txns, item_txns[1:])):
                return False
            listed[y] = sum(1 for t in item_txns if t in in_pdr)
        pdr_mask = _mask_of(txns, store.txn_count)
        masked = {y: (pdr_mask & store.tidmask(y)).bit_count() for y in tail}
    except IndexError:
        return False
    if children and [y for y, _, _ in children] != list(tail):
        return False
    for y, support, child in children:
        expected = [t for t in txns if y in row(t)]
        built = project_vertical(store, pdr, child, y).txns
        if isinstance(built, TidMask):
            matches = built.bits == _mask_of(expected, store.txn_count)
        else:
            matches = built is not None and list(built) == expected
        if not matches or support != raw[y]:
            return False
    return raw == listed == masked


@pytest.fixture
def tiny_raw():
    return parse_fimi(TINY_DB)


@pytest.fixture
def tiny_ms1(tiny_raw):
    """(db, labels, store) pruned at minsup 1: identity prune, ranks 0..4
    map to labels 1..5."""
    db, labels = prune_and_remap(tiny_raw, 1)
    return db, labels, build_hdr(db)


@pytest.fixture
def tiny_ms2(tiny_raw):
    """(db, labels, store) pruned at minsup 2: labels 1,2,3 -> ranks 0,1,2."""
    db, labels = prune_and_remap(tiny_raw, 2)
    return db, labels, build_hdr(db)


@pytest.fixture
def tiny_file(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text(TINY_DB)
    return str(path)
