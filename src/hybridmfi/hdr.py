"""Hybrid transaction store. The horizontal part is the pruned database
itself: one ascending rank array per transaction. The vertical part is each
item's ascending transaction list, which gives the root projection without
a scan, and each item's transaction bitmask (bit t set iff transaction t
holds the item), built from that list the first time a bitmap-mode count
needs it. One bitmap of ranks per transaction serves the projection of
list-carrying nodes and their tail-cell sums.

Support counting at a search node runs in one of two modes over the node's
projected transactions (its Pdr): a horizontal scan that walks each
transaction's rank array, or one AND and popcount of the node's transaction
mask with each tail item's mask. ``select_mode`` switches on how short the
projected transactions are relative to the tail. A Pdr carries its
transactions as a list or as a mask, converted by ``count_supports`` only
when its counting mode needs the other form; children inherit the form
their parent was counted in.
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
    ascending index list or a TidMask, plus the count of their cells whose
    item lies in the node's tail (maintained during projection so the ATL
    read is O(1)). The transaction set never changes; ``count_supports``
    may swap ``txns`` for the other form of the same set."""

    txns: list[int] | TidMask
    restricted_length_sum: int

    @property
    def atl(self) -> float:
        if not self.txns:
            return 0.0
        return self.restricted_length_sum / len(self.txns)


class HdrStore:
    """The hybrid layout. Horizontal: ``db.transactions[t]`` is transaction
    t's ascending rank array, and ``cell_count`` is the total number of item
    occurrences (cells) across them. Vertical: ``item_txns[x]`` lists the
    transactions containing rank x in ascending order, ``item_tidmask[x]``
    is the same set as a bitmask over transaction indices (None until
    ``tidmask(x)`` first builds it), and ``txn_bitmap[t]`` has bit x set iff
    transaction t contains rank x.

    ``build_hdr`` fixes everything but ``item_tidmask``, whose entries are
    filled once each, on first use, from ``item_txns``. A filled entry never
    changes, and two runs racing to fill one build the same value, so a
    store can be shared between concurrent mining runs."""

    __slots__ = ("db", "cell_count", "txn_bitmap", "item_txns", "item_tidmask")

    def __init__(
        self,
        db: TransactionDatabase,
        cell_count: int,
        txn_bitmap: list[int],
        item_txns: list[list[int]],
        item_tidmask: list[int | None],
    ):
        self.db = db
        self.cell_count = cell_count
        self.txn_bitmap = txn_bitmap
        self.item_txns = item_txns
        self.item_tidmask = item_tidmask

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
        """Projection of the empty head: every transaction, every cell in
        the tail (the tail at the root is the whole item range)."""
        return Pdr(list(range(self.txn_count)), self.cell_count)


def build_hdr(db: TransactionDatabase) -> HdrStore:
    """Lay out the bitmaps and the per-item transaction lists in a single
    pass over the database, counting its cells on the way. Item masks are
    left to be built on first use."""
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
    return HdrStore(db, cells, bitmaps, item_txns, [None] * db.item_count)


def select_mode(pdr_atl: float, tail_size: int) -> CountMode:
    """Horizontal scanning pays off while projected transactions stay shorter
    than half the tail; at or past that point, AND the node's transaction
    mask with each tail item's mask."""
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
    transactions. Horizontal mode scans the rows of a list; bitmap mode
    popcounts ``pdr mask & item mask`` per tail item. Either mode first
    converts ``pdr.txns`` to its form if the Pdr carries the other. Both
    modes give identical results and bill identical work; only their speed
    differs."""
    if mode is CountMode.AUTO:
        mode = select_mode(pdr.atl, len(tail))
    txns = pdr.txns
    if mode is CountMode.HORIZONTAL:
        if isinstance(txns, TidMask):
            txns = pdr.txns = _indices(txns.bits)
        counts = [0] * store.item_count
        member = bytearray(store.item_count)
        for y in tail:
            member[y] = 1
        transactions = store.db.transactions
        for t in txns:
            for x in transactions[t]:
                if member[x]:
                    counts[x] += 1
        result = {y: counts[y] for y in tail}
    else:
        if not isinstance(txns, TidMask):
            txns = pdr.txns = TidMask(_mask_of(txns, store.txn_count), len(txns))
        bits, tidmask = txns.bits, store.tidmask
        result = {y: (bits & tidmask(y)).bit_count() for y in tail}
    if counters is not None:
        counters.cells_touched += sum(result.values())
    return result


def project_vertical(store: HdrStore, parent: Pdr, y: int, tail_mask: int) -> Pdr:
    """Child projection for branching on item y: the parent transactions that
    contain y, with the child's restricted length sum over the child's tail,
    given as the bitmask ``tail_mask``. A mask parent gives a mask child,
    one AND, and the sum from one popcount per tail item; a list parent
    gives a list child, from y's transaction list at the root and otherwise
    from a scan of the parent's transaction bitmaps. The parent is left
    untouched."""
    if isinstance(parent.txns, TidMask):
        tidmask = store.tidmask
        bits = parent.txns.bits & tidmask(y)
        restricted = sum((bits & tidmask(z)).bit_count() for z in _indices(tail_mask))
        return Pdr(TidMask(bits, bits.bit_count()), restricted)
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
    """Debug oracle: recompute tail supports four independent ways (a
    rescan of the rows the horizontal kernel reads, per-item transaction
    lists, transaction bitmaps, AND and popcount of the item masks) and
    check that every item's transaction list is strictly ascending and that
    the Pdr's stored size matches its transactions. True only if everything
    agrees. Slow by design; never used on the mining hot path."""
    try:
        return _verify_counts(store, pdr, tail)
    except IndexError:
        return False


def _verify_counts(store: HdrStore, pdr: Pdr, tail) -> bool:
    tail_set = set(tail)
    txns = list(pdr.txns)
    in_pdr = set(txns)
    if len(in_pdr) != len(pdr.txns):
        return False

    raw = dict.fromkeys(tail, 0)
    for t in txns:
        for x in store.db.transactions[t]:
            if x in tail_set:
                raw[x] += 1

    listed = {}
    for y in tail:
        item_txns = store.item_txns[y]
        if any(a >= b for a, b in zip(item_txns, item_txns[1:])):
            return False
        listed[y] = sum(1 for t in item_txns if t in in_pdr)

    bitmap = {y: sum(1 for t in txns if store.txn_bitmap[t] >> y & 1) for y in tail}

    pdr_mask = _mask_of(txns, store.txn_count)
    masked = {y: (pdr_mask & store.tidmask(y)).bit_count() for y in tail}
    return raw == listed == bitmap == masked
