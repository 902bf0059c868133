"""Hybrid transaction store. The horizontal part is the pruned database
itself, flat: transaction t's ascending ranks are one slice of a packed
array of every row's ranks, 1 to 4 bytes a rank, cut where a packed array
of row ends says. The vertical part is each item's ascending transaction
sequence, a packed 32-bit array that is the root's child projection, and
each item's transaction bitmask (bit t set iff transaction t holds the
item), built from that array the first time a bitmap-mode count needs it.

Support counting at a search node runs over the node's projected
transactions (its Pdr) in one of two modes, and in both the count returns
every child's support with what its projection is built from. A
horizontal count walks each transaction's slice of ranks and appends the
transaction to the list of every tail item it holds (LCM's occurrence
deliver): the lists' lengths are the supports and each list is a child's
projection. A bitmap count popcounts the AND of the node's transaction
mask with each tail item's mask and returns the node's one mask for every
child; entering a child ANDs it with the child's item mask, as MAFIA
builds a node's bitmap when the search generates the node. So a search
path holds one mask per bitmap node, not one per unentered child. A Pdr
starts as a sequence of its transactions: the root's is a range, a root
child's its item's array, a deeper child's a delivered list. At each
sequence node ``select_mode`` picks the mode by one density rule: bitmap
iff the node holds at least one transaction in 32. A bitmap count builds
the node's mask from its sequence, so its children are masks, and from
then on the whole subtree is masks, counted by bitmap only.
"""

from __future__ import annotations

import enum
import re
import sys
from array import array
from dataclasses import dataclass
from itertools import chain
from operator import sub
from typing import Iterator, Sequence

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


def _mask_of(indices: Sequence[int], width: int) -> int:
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
    """A node's transactions as one bitmask over transaction indices: bit t
    is set iff the node holds transaction t. ``len`` is the popcount; the
    miner never takes it, since a mask node is counted by bitmap whatever
    its size. Iterating yields the indices in ascending order."""

    __slots__ = ("bits",)

    def __init__(self, bits: int):
        self.bits = bits

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(_indices(self.bits))


@dataclass(slots=True, frozen=True)
class Pdr:
    """A node's projection: the transactions containing its head, as an
    ascending index sequence or a TidMask of a bitmap count's child. The
    sequence is the root's range, one of the store's ``item_txns`` arrays or
    a list a horizontal count delivered, so neither the Pdr (frozen) nor its
    sequence is ever mutated."""

    txns: Sequence[int] | TidMask


@dataclass(slots=True, eq=False)
class HdrStore:
    """The hybrid layout. Horizontal: ``db.cells[db.ends[t - 1]:db.ends[t]]``
    (from 0 when t is 0) holds transaction t's ascending ranks, packed in
    the narrowest typecode for the rank count, and ``row_cells[t]`` is its
    length, which a horizontal count subtracts from ``db.ends[t]``, faster
    than reading the packed ends twice. Vertical: ``item_txns[x]`` is
    the ascending sequence of the transactions containing rank x, packed in an
    ``array('i')`` (4 bytes a cell), and ``item_tidmask[x]`` is the same set
    as a bitmask over transaction indices (None until ``tidmask(x)`` first
    builds it).

    ``build_hdr`` fixes everything but ``item_tidmask``, whose entries are
    filled once each, on first use, from ``item_txns``. A filled entry never
    changes and two runs racing to fill one build the same value; Pdrs share
    the ``item_txns`` arrays but never mutate them. So a store can be shared
    between concurrent mining runs."""

    db: TransactionDatabase
    row_cells: list[int]
    item_txns: list[array]
    item_tidmask: list[int | None]

    @property
    def cell_count(self) -> int:
        """Item occurrences (cells) across all rows."""
        return len(self.db.cells)

    @property
    def item_count(self) -> int:
        return self.db.item_count

    @property
    def txn_count(self) -> int:
        return len(self.db)

    def tidmask(self, x: int) -> int:
        """Rank x's transaction bitmask, built on first use."""
        mask = self.item_tidmask[x]
        if mask is None:
            mask = self.item_tidmask[x] = _mask_of(self.item_txns[x], self.txn_count)
        return mask

    def root_pdr(self) -> Pdr:
        """Projection of the empty head: every transaction, as a range."""
        return Pdr(range(self.txn_count))


# Transaction indices are stored as signed C ints, so below 2**31.
_TXN_TYPECODE = "i"
_TXN_BYTES = array(_TXN_TYPECODE).itemsize
_MAX_TXNS = 1 << (8 * _TXN_BYTES - 1)


def build_hdr(db: TransactionDatabase) -> HdrStore:
    """Lay out the per-item transaction sequences in one pass over the
    database; item masks are left to be built on first use. Raises
    OverflowError for a database whose transaction indices do not fit a
    C int."""
    if len(db) > _MAX_TXNS:
        raise OverflowError(f"{len(db)} transactions: indices of at most "
                            f"{_MAX_TXNS} fit the store's {_TXN_TYPECODE!r} arrays")
    item_txns = [array(_TXN_TYPECODE) for _ in range(db.item_count)]
    # Appending a row's index as its 4 native bytes costs less per cell
    # than array.append, which converts the int once per cell. Each row is
    # read as one slice of the packed ranks, an array whose iteration makes
    # each rank's int.
    fills = [txns.frombytes for txns in item_txns]
    byteorder = sys.byteorder
    cells, ends, start = db.cells, db.ends, 0
    for t, end in enumerate(ends):
        packed = t.to_bytes(_TXN_BYTES, byteorder)
        for x in cells[start:end]:
            fills[x](packed)
        start = end
    row_cells = list(map(sub, ends, chain((0,), ends)))
    return HdrStore(db, row_cells, item_txns, [None] * db.item_count)


# F of select_mode's density rule.
_BITMAP_DENSITY = 32


def select_mode(store: HdrStore, pdr: Pdr) -> CountMode:
    """Bitmap for a mask Pdr. A sequence Pdr holding all n store
    transactions is counted horizontally, from the item arrays with no scan;
    any other by bitmap iff it holds at least n/F, F = ``_BITMAP_DENSITY``.
    It takes no tail: the miner's tails ascend in support, so with L̄
    cells a row a node of n/F rows has at most F·L̄ tail items. There a
    bitmap count (~6.7 us a tail item at n = 100,000, in proportion to n)
    costs at most F·L̄·6.7 us against (n/F)·L̄·60 ns for a scan (~60 ns a
    cell): a ratio of about F²/900 whatever n and L̄, 1.1 at F = 32 and 4.5
    at F = 64 (CPython 3.11.7, 2-core VM)."""
    txns = pdr.txns
    if isinstance(txns, TidMask):
        return CountMode.BITMAP
    txn_count, size = store.txn_count, len(txns)
    if size == txn_count:
        return CountMode.HORIZONTAL
    return CountMode.BITMAP if size * _BITMAP_DENSITY >= txn_count else CountMode.HORIZONTAL


def count_supports(store: HdrStore, pdr: Pdr, tail, mode: CountMode = CountMode.AUTO,
                   counters: CostCounters | None = None
                   ) -> list[tuple[int, int, Sequence[int] | int]]:
    """(y, support of head∪{y}, what the child's Pdr is built from) for every
    tail item y, in tail order, over the node's projected transactions;
    ``project_vertical`` builds the Pdr from it and y. Horizontal mode
    appends each transaction to the list of every tail item its row holds
    and returns the lists; a Pdr holding every transaction returns the
    store's ``item_txns`` arrays, with no scan. Bitmap mode popcounts the
    AND of the Pdr's mask (built here from a sequence Pdr) with each tail
    item's mask and returns that one int mask, the same object, for every
    child. A mask Pdr counted horizontally raises ValueError. The Pdr is
    never changed. Both modes give identical supports and bill identical
    work."""
    if mode is CountMode.AUTO:
        mode = select_mode(store, pdr)
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
            # Row t ends at ends[t] and is row_cells[t] long: a list read
            # costs less than a second read of the packed ends. The row is
            # one slice of the packed ranks, each read making its int.
            cells, ends, row_cells = store.db.cells, store.db.ends, store.row_cells
            for t in txns:
                end = ends[t]
                for x in cells[end - row_cells[t]:end]:
                    occurrences = delivered[x]
                    if occurrences is not None:
                        occurrences.append(t)
        children = [(y, len(delivered[y]), delivered[y]) for y in tail]
    else:
        bits = txns.bits if isinstance(txns, TidMask) else _mask_of(txns, store.txn_count)
        tidmask = store.tidmask
        children = [(y, (bits & tidmask(y)).bit_count(), bits) for y in tail]
    if counters is not None:
        counters.cells_touched += sum(support for _, support, _ in children)
    return children


def project_vertical(store: HdrStore, parent: Pdr, txns: Sequence[int] | int, y: int) -> Pdr:
    """The Pdr of the child on item y, from what ``count_supports``
    returned for it under ``parent``: a sequence as it is, the node's mask
    ANDed with y's mask as a TidMask. The parent goes
    unread; the benchmark's span recorder (perfbench/spans.py) tells root
    projections from scan projections by it and the store."""
    return Pdr(TidMask(txns & store.tidmask(y)) if isinstance(txns, int) else txns)
