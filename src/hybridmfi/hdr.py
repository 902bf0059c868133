"""Hybrid transaction store. The horizontal part is the pruned database
itself: one ascending rank array per transaction. The vertical part is each
item's ascending transaction list, which is the root's child projection,
and each item's transaction bitmask (bit t set iff transaction t holds the
item), built from that list the first time a bitmap-mode count or a mask
projection needs it.

Support counting at a search node runs over the node's projected
transactions (its Pdr) in one of two modes. A horizontal count walks each
transaction's rank array and appends the transaction to the list of every
tail item it holds (LCM's occurrence deliver): the lists' lengths are the
supports and each list is a child's projection. A bitmap count ANDs the
node's transaction mask with each tail item's mask and popcounts the
result; a mask node's child is one AND. A Pdr starts as a list of its
transactions. At each list node ``select_mode`` picks the mode whose kernels
cost less, by a model fitted to their timings; a bitmap count turns the list
into a mask, and from then on that node and its whole subtree are masks,
counted by bitmap only.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator

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


_ONE = re.compile("1")


def _indices(bits: int) -> list[int]:
    """Ascending positions of the set bits: the regex skips the zero digits
    of the reversed binary string at C speed."""
    return [m.start() for m in _ONE.finditer(bin(bits)[:1:-1])]


def _mask_of(indices: list[int], width: int) -> int:
    """The bitmask with exactly ``indices`` set, all below ``width``, from
    one binary string (linear, where OR-ing bits one at a time is
    quadratic)."""
    if not indices:
        return 0
    digits = bytearray(b"0") * width
    for i in indices:
        digits[i] = 49  # ord("1")
    return int(digits[::-1], 2)


class TidMask:
    """A node's transactions as one bitmask over transaction indices, with
    its population stored so ``len`` needs no extraction. Iterating yields
    the indices in ascending order."""

    __slots__ = ("bits", "size")

    def __init__(self, bits: int, size: int):
        self.bits = bits
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        return iter(_indices(self.bits))


@dataclass(slots=True)
class Pdr:
    """A node's projection: the transactions containing its head, as an
    ascending index list or a TidMask. ``cells``, the row cells a horizontal
    count of the Pdr visits, is set for a list Pdr and None for one born a
    mask, which is never counted horizontally.

    A horizontal count sets ``delivered``: indexed by rank, the ascending
    list of the Pdr's transactions that hold each counted tail item, None
    for other items, and the store's ``item_txns`` for a Pdr holding every
    transaction. The transaction set never changes; a bitmap count swaps a
    list ``txns`` for a mask of the same set, never the reverse. A Pdr's
    lists may be shared with the store or its parent, so they are never
    mutated."""

    txns: list[int] | TidMask
    cells: int | None = None
    delivered: list[list[int] | None] | None = None


@dataclass(slots=True, eq=False)
class HdrStore:
    """The hybrid layout. Horizontal: ``db.transactions[t]`` is transaction
    t's ascending rank array, ``row_cells[t]`` its length, and ``cell_count``
    the total number of item occurrences (cells) across them. Vertical: ``item_txns[x]`` lists the
    transactions containing rank x in ascending order, and
    ``item_tidmask[x]`` is the same set as a bitmask over transaction
    indices (None until ``tidmask(x)`` first builds it).

    ``build_hdr`` fixes everything but ``item_tidmask``, whose entries are
    filled once each, on first use, from ``item_txns``. A filled entry never
    changes and two runs racing to fill one build the same value; Pdrs share
    the ``item_txns`` lists but never mutate them. So a store can be shared
    between concurrent mining runs."""

    db: TransactionDatabase
    cell_count: int
    row_cells: list[int]
    item_txns: list[list[int]]
    item_tidmask: list[int | None]

    @property
    def item_count(self) -> int:
        return self.db.item_count

    @property
    def txn_count(self) -> int:
        return len(self.db.transactions)

    def tidmask(self, x: int) -> int:
        """Rank x's transaction bitmask, built on first use."""
        mask = self.item_tidmask[x]
        if mask is None:
            mask = self.item_tidmask[x] = _mask_of(self.item_txns[x], self.txn_count)
        return mask

    def root_pdr(self) -> Pdr:
        """Projection of the empty head: every transaction and every cell."""
        return Pdr(list(range(self.txn_count)), self.cell_count)


def build_hdr(db: TransactionDatabase) -> HdrStore:
    """Lay out the per-item transaction lists in one pass over the database;
    item masks are left to be built on first use."""
    item_txns: list[list[int]] = [[] for _ in range(db.item_count)]
    appends = [txns.append for txns in item_txns]
    for t, txn in enumerate(db.transactions):
        for x in txn:
            appends[x](t)
    row_cells = list(map(len, db.transactions))
    return HdrStore(db, sum(row_cells), row_cells, item_txns, [None] * db.item_count)


# Kernel costs in nanoseconds, fitted as select_mode records.
_HORIZONTAL_NS = (1.7e3, 33.0, 200.0)  # per call, per row cell, per tail item
_BITMAP_NS = (1.6e3, 150.0, 0.083)  # per call, per tail item, per tail item and transaction
_BUILD_NS = (3.1, 41.0)  # list -> mask: per transaction, per one held


def select_mode(pdr: Pdr, tail_size: int, txn_count: int) -> CountMode:
    """The counting mode whose kernels cost less at this node. A mask Pdr
    is counted by bitmap, and a list Pdr holding every transaction
    horizontally, from the item lists with no scan. For any other list Pdr,
    with n store transactions and k tail items, horizontal costs
    1700 + 33 pdr.cells + 200 k ns and bitmap 1600 + (150 + 0.083 n) k ns,
    plus 3.1 n + 41 |pdr| to build the Pdr's mask.

    ``tools/fit_count_switch.py`` fitted each term by least squares on
    relative error to its kernel's timings on 801 search nodes sampled from
    mines of 1,000 to 100,000 transactions, three rounds each (CPython
    3.11.7, 2-core VM): horizontal counts took 4 us to 7.7 ms, bitmap counts
    1.5 us to 12 ms, list -> mask 3.5 us to 0.97 ms; median relative error
    0.16 to 0.18 per kernel."""
    txns = pdr.txns
    if isinstance(txns, TidMask):
        return CountMode.BITMAP
    size = len(txns)
    if size == txn_count:
        return CountMode.HORIZONTAL
    call, per_cell, per_tail = _HORIZONTAL_NS
    horizontal = call + per_cell * pdr.cells + per_tail * tail_size
    call, per_tail, per_tail_txn = _BITMAP_NS
    bitmap = (call + tail_size * (per_tail + per_tail_txn * txn_count)
              + _BUILD_NS[0] * txn_count + _BUILD_NS[1] * size)
    return CountMode.HORIZONTAL if horizontal < bitmap else CountMode.BITMAP


def count_supports(store: HdrStore, pdr: Pdr, tail, mode: CountMode = CountMode.AUTO,
                   counters: CostCounters | None = None) -> dict[int, int]:
    """Support of head∪{y} for every tail item y, over the node's projected
    transactions. Horizontal mode appends each transaction to the list of
    every tail item its row holds, keeps the lists on the Pdr as
    ``delivered`` and returns their lengths; a Pdr holding every transaction
    delivers ``item_txns``, with no scan. Bitmap mode popcounts ``pdr mask &
    item mask`` per tail item, first turning a list Pdr into a mask for good.
    A mask Pdr counted horizontally raises ValueError. Both modes give
    identical results and bill identical work."""
    if mode is CountMode.AUTO:
        mode = select_mode(pdr, len(tail), store.txn_count)
    txns = pdr.txns
    if mode is CountMode.HORIZONTAL:
        if isinstance(txns, TidMask):
            raise ValueError("a mask Pdr is counted by bitmap only: "
                             "count it in bitmap or auto mode")
        if len(txns) == store.txn_count:
            delivered = store.item_txns
        else:
            delivered = [None] * store.item_count
            for y in tail:
                delivered[y] = []
            transactions = store.db.transactions
            for t in txns:
                for x in transactions[t]:
                    occurrences = delivered[x]
                    if occurrences is not None:
                        occurrences.append(t)
        pdr.delivered = delivered
        result = {y: len(delivered[y]) for y in tail}
    else:
        if not isinstance(txns, TidMask):
            txns = pdr.txns = TidMask(_mask_of(txns, store.txn_count), len(txns))
        bits, tidmask = txns.bits, store.tidmask
        result = {y: (bits & tidmask(y)).bit_count() for y in tail}
    if counters is not None:
        counters.cells_touched += sum(result.values())
    return result


def project_vertical(store: HdrStore, parent: Pdr, y: int) -> Pdr:
    """Child projection for branching on item y: the parent transactions
    that contain y. A mask parent gives a mask child, one AND with y's mask.
    A list parent gives a list child with its cells: y's ``item_txns`` list
    when the parent holds every transaction, and otherwise the list the
    parent's horizontal count delivered for y. The child shares that list
    and the parent is left untouched. A list parent that no horizontal count
    over a tail holding y has reached raises ValueError."""
    txns = parent.txns
    if isinstance(txns, TidMask):
        bits = txns.bits & store.tidmask(y)
        return Pdr(TidMask(bits, bits.bit_count()))
    delivered = store.item_txns if len(txns) == store.txn_count else parent.delivered
    child = None if delivered is None else delivered[y]
    if child is None:
        raise ValueError(
            f"no delivered list for item {y}: count the parent horizontally over "
            f"a tail holding it before projecting"
        )
    return Pdr(child, sum(map(store.row_cells.__getitem__, child)))


def verify_counts(store: HdrStore, pdr: Pdr, tail) -> bool:
    """Debug oracle: recompute tail supports three independent ways (a
    rescan of the rows the horizontal kernel reads, per-item transaction
    lists, AND and popcount of the item masks) and check that every item's
    transaction list is strictly ascending, that the Pdr's stored size
    matches its transactions and, when the Pdr carries delivered lists,
    that each one is exactly the Pdr's transactions whose rows hold its
    item. True only if everything agrees. Slow by design; never used on the
    mining hot path."""
    rows, tail_set = store.db.transactions, set(tail)
    txns = list(pdr.txns)
    in_pdr = set(txns)
    if len(in_pdr) != len(pdr.txns):
        return False
    try:
        raw = dict.fromkeys(tail, 0)
        for t in txns:
            for x in rows[t]:
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
    for y, occurrences in enumerate(pdr.delivered or ()):
        if occurrences is not None and occurrences != [t for t in txns if y in rows[t]]:
            return False
    return raw == listed == masked
