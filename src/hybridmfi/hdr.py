"""Hybrid transaction store. The horizontal part is the pruned database
itself: one ascending rank array per transaction. The vertical part is one
bitmap per transaction, plus each item's ascending transaction list, which
gives the root projection without a scan.

Support counting at a search node runs in one of two modes over the node's
projected transactions (its Pdr): a horizontal scan that walks each
transaction's rank array, or bitmap probes against the tail. ``select_mode``
switches on how short the projected transactions are relative to the tail.
The store is immutable after ``build_hdr`` and safe to share between
concurrent mining runs; Pdr objects are per-node and never mutated after
creation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .dataset import TransactionDatabase


class CountMode(enum.Enum):
    HORIZONTAL = "horizontal"
    BITMAP = "bitmap"
    AUTO = "auto"


@dataclass
class CostCounters:
    """Work tally, accumulated across counting calls and never reset
    internally. Every counting call bills one cells_touched per tail-item
    occurrence it tallied, whichever mode ran it, so the total is a property
    of the search and not of the counting mode."""

    cells_touched: int = 0


@dataclass(slots=True)
class Pdr:
    """A node's projection: the ascending transaction indices containing its
    head, plus the count of their cells whose item lies in the node's tail
    (maintained during projection so the ATL read is O(1))."""

    txns: list[int]
    restricted_length_sum: int

    @property
    def atl(self) -> float:
        if not self.txns:
            return 0.0
        return self.restricted_length_sum / len(self.txns)


class HdrStore:
    """The hybrid layout. Horizontal: ``db.transactions[t]`` is transaction
    t's ascending rank array, and ``cell_count`` is the total number of item
    occurrences (cells) across them. Vertical: ``txn_bitmap[t]`` has bit x
    set iff transaction t contains rank x, and ``item_txns[x]`` lists the
    transactions containing rank x in ascending order."""

    __slots__ = ("db", "cell_count", "txn_bitmap", "item_txns")

    def __init__(
        self,
        db: TransactionDatabase,
        cell_count: int,
        txn_bitmap: list[int],
        item_txns: list[list[int]],
    ):
        self.db = db
        self.cell_count = cell_count
        self.txn_bitmap = txn_bitmap
        self.item_txns = item_txns

    @property
    def item_count(self) -> int:
        return self.db.item_count

    @property
    def txn_count(self) -> int:
        return len(self.db.transactions)

    def root_pdr(self) -> Pdr:
        """Projection of the empty head: every transaction, every cell in
        the tail (the tail at the root is the whole item range)."""
        return Pdr(list(range(self.txn_count)), self.cell_count)


def build_hdr(db: TransactionDatabase) -> HdrStore:
    """Lay out the bitmaps and the per-item transaction lists in a single
    pass over the database, counting its cells on the way."""
    cells = 0
    bitmaps: list[int] = []
    item_txns: list[list[int]] = [[] for _ in range(db.item_count)]
    for t, txn in enumerate(db.transactions):
        cells += len(txn)
        bits = 0
        for x in txn:
            item_txns[x].append(t)
            bits |= 1 << x
        bitmaps.append(bits)
    return HdrStore(db, cells, bitmaps, item_txns)


def select_mode(pdr_atl: float, tail_size: int) -> CountMode:
    """Horizontal scanning pays off while projected transactions stay shorter
    than half the tail; at or past that point, probe bitmaps."""
    if pdr_atl < tail_size / 2:
        return CountMode.HORIZONTAL
    return CountMode.BITMAP


def count_supports(
    store: HdrStore,
    pdr: Pdr,
    tail,
    mode: CountMode = CountMode.AUTO,
    counters: CostCounters | None = None,
) -> dict[int, int]:
    """Support of head∪{y} for every tail item y, over the node's projected
    transactions. Both modes give identical results and bill identical
    work; only their speed differs."""
    if mode is CountMode.AUTO:
        mode = select_mode(pdr.atl, len(tail))
    counts = [0] * store.item_count
    if mode is CountMode.HORIZONTAL:
        member = bytearray(store.item_count)
        for y in tail:
            member[y] = 1
        transactions = store.db.transactions
        for t in pdr.txns:
            for x in transactions[t]:
                if member[x]:
                    counts[x] += 1
    else:
        tail_mask = 0
        for y in tail:
            tail_mask |= 1 << y
        bitmaps = store.txn_bitmap
        for t in pdr.txns:
            bits = bitmaps[t] & tail_mask
            while bits:
                low = bits & -bits
                counts[low.bit_length() - 1] += 1
                bits ^= low
    result = {y: counts[y] for y in tail}
    if counters is not None:
        counters.cells_touched += sum(result.values())
    return result


def project_vertical(store: HdrStore, parent: Pdr, y: int, tail_mask: int) -> Pdr:
    """Child projection for branching on item y: the parent transactions that
    contain y, with the child's restricted length sum computed in the same
    pass over the child's tail, given as the bitmask ``tail_mask``. The
    parent is left untouched."""
    bitmaps = store.txn_bitmap
    restricted = 0
    if len(parent.txns) == store.txn_count:
        # Root projection: the item's transaction list is exactly the
        # transactions we want, in ascending order.
        txns = list(store.item_txns[y])
        for t in txns:
            restricted += (bitmaps[t] & tail_mask).bit_count()
    else:
        txns = []
        ybit = 1 << y
        for t in parent.txns:
            bits = bitmaps[t]
            if bits & ybit:
                txns.append(t)
                restricted += (bits & tail_mask).bit_count()
    return Pdr(txns, restricted)


def verify_counts(store: HdrStore, pdr: Pdr, tail) -> bool:
    """Debug oracle: recompute tail supports three independent ways (a
    rescan of the rows the horizontal kernel reads, per-item transaction
    lists, bitmap probes) and check that every item's transaction list is
    strictly ascending. True only if everything agrees. Slow by design; never
    used on the mining hot path."""
    try:
        return _verify_counts(store, pdr, tail)
    except IndexError:
        return False


def _verify_counts(store: HdrStore, pdr: Pdr, tail) -> bool:
    tail_set = set(tail)
    in_pdr = set(pdr.txns)

    raw = dict.fromkeys(tail, 0)
    for t in pdr.txns:
        for x in store.db.transactions[t]:
            if x in tail_set:
                raw[x] += 1

    listed = {}
    for y in tail:
        txns = store.item_txns[y]
        if any(a >= b for a, b in zip(txns, txns[1:])):
            return False
        listed[y] = sum(1 for t in txns if t in in_pdr)

    bitmap = {
        y: sum(1 for t in pdr.txns if store.txn_bitmap[t] >> y & 1) for y in tail
    }
    return raw == listed == bitmap
