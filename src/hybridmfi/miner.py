"""Depth-first maximal frequent itemset search.

Itemsets travel through the engine as integer bitmasks over item ranks;
iterating a mined MfiStore yields rank sets. Each search node carries a head
(the itemset mined so far), an ordered tail of candidate extensions, and its
Pdr projection. One counting call per node returns every child's support and
the source of its projection: the list a horizontal count delivered, or the
node's one mask, which entering the child ANDs with the child's item mask.
Three prunes cut the tree: parent-equivalence (tail items whose support
matches the head's move straight into the head), a look-ahead that abandons
siblings once the leftmost subtree proves the node's entire head∪tail
frequent, and subsumption (a node whose head∪tail already sits inside a
known maximal set is dismissed before any counting). The MFI store is a
vertical bitmap, one mask of store positions per item, so a superset query
ANDs the position masks of the query's items. Subsumption reads node-local
LMFI views of the store: position masks of the maximal sets that contain
the node's branch items. Tails are re-sorted by ascending support at every
node so the most constrained branches run first.

Recursion is an explicit stack with one frame per branching node, so tail
depth is bounded by memory and not the interpreter's call limit. The mined
store is checked to be an antichain once, before it is returned.

A store of at least ``_SPLIT_CELLS`` cells whose root has two or more
children is mined in two processes (``in_two``, the fork helper
``read_fimi`` also uses) where ``os.fork`` exists, at least two CPUs are
usable and no other thread runs. Once the root's children are
counted and sorted, a forked worker mines the odd-indexed ones and this
process the even-indexed ones, each with the same loop and its own store.
Root subtrees depend on each other only through subsumption, so adding
both halves' sets to a fresh store in root-child order, with the store's
own superset check, gives the one-process result in its insertion order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Sequence

from .forking import exit_if_orphaned, in_two
from .hdr import (
    CostCounters,
    CountMode,
    HdrStore,
    Pdr,
    _indices,
    count_supports,
    project_vertical,
)


class MfiStore:
    """Antichain of maximal itemsets with their supports, stored as a
    vertical bitmap: bit p of ``_holders[x]`` is set iff the p-th stored set
    holds rank x, so a superset query ANDs the masks of the query's items."""

    __slots__ = ("_masks", "_supports", "_holders")

    def __init__(self, item_count: int):
        self._masks: list[int] = []
        self._supports: list[int] = []
        self._holders: list[int] = [0] * item_count

    def __len__(self) -> int:
        return len(self._masks)

    def __iter__(self) -> Iterator[tuple[frozenset[int], int]]:
        for ranks, support in self.rank_tuples():
            yield frozenset(ranks), support

    def rank_tuples(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Each stored set as its ascending rank tuple, with its support,
        in insertion order."""
        for mask, support in zip(self._masks, self._supports):
            yield tuple(_indices(mask)), support

    def _holding(self, mask: int, positions: int) -> int:
        """The positions in ``positions`` whose stored set holds every item
        of ``mask``."""
        holders = self._holders
        while mask and positions:
            low = mask & -mask
            positions &= holders[low.bit_length() - 1]
            mask ^= low
        return positions

    def covers_mask(self, mask: int) -> bool:
        """True iff some stored itemset is a superset of ``mask``."""
        return self._holding(mask, (1 << len(self._masks)) - 1) != 0

    def add(self, mask: int, support: int) -> bool:
        """Insert unless a stored superset exists. The search order guarantees
        no stored set is ever a proper subset of a later insert, which keeps
        the store an antichain without a removal pass; ``check_antichain``
        confirms it once a mine is done."""
        if self.covers_mask(mask):
            return False
        self._insert(mask, support)
        return True

    def _insert(self, mask: int, support: int) -> None:
        """Store ``mask`` with ``support`` after the last set, unchecked."""
        bit = 1 << len(self._masks)
        self._masks.append(mask)
        self._supports.append(support)
        # Each OR copies a len(self)-bit int, so the inserts of a mine cost
        # O(k·|MFI|²) bits in all, at C speed.
        holders = self._holders
        m = mask
        while m:
            low = m & -m
            holders[low.bit_length() - 1] |= bit
            m ^= low

    def check_antichain(self) -> None:
        """Raise AssertionError if a stored itemset lies inside another,
        earlier or later, or twice. Raised explicitly, so the check also
        runs under -O."""
        masks = self._masks
        everything = (1 << len(masks)) - 1
        for pos, mask in enumerate(masks):
            others = self._holding(mask, everything ^ (1 << pos))
            if others:
                outer = masks[(others & -others).bit_length() - 1]
                raise AssertionError(
                    f"stored itemset {_indices(mask)} lies inside {_indices(outer)}"
                )


class LmfiView:
    """Node-local view of an MfiStore: a position mask of the stored sets
    known to hold the branch items, plus every position from the watermark
    on, inserted after the view was taken (all inserts below a branch hold
    its items). Projecting on the next branch item keeps the positions
    holding it and advances the watermark. For every mask mine_mfi asks, it
    answers as the store would; it stays a class so perfbench times it apart."""

    __slots__ = ("store", "positions", "watermark")

    def __init__(self, store: MfiStore, positions: int, watermark: int):
        self.store = store
        self.positions = positions
        self.watermark = watermark

    def covers_mask(self, mask: int) -> bool:
        store = self.store
        live = self.positions | ((1 << len(store._masks)) - (1 << self.watermark))
        return store._holding(mask, live) != 0

    def project(self, y: int) -> "LmfiView":
        store = self.store
        size = len(store._masks)
        live = self.positions | ((1 << size) - (1 << self.watermark))
        return LmfiView(store, live & store._holders[y], size)


@dataclass
class MinerConfig:
    """Search settings. The four prune/reorder toggles never change the mined
    result, only the work done."""

    minsup: int
    mode: CountMode = CountMode.AUTO
    enable_pep: bool = True
    enable_fhut: bool = True
    enable_hutmfi: bool = True
    enable_reorder: bool = True

    def __post_init__(self):
        if self.minsup < 1:
            raise ValueError(f"minsup must be a positive integer, got {self.minsup}")


@dataclass
class SearchStats:
    """Nodes generated by the search, including nodes dismissed by the
    subsumption check before any counting. A mine split across two
    processes counts the nodes of both, which exceeds a one-process run's
    count only where a root subtree could not see a set the other process
    found, and so searched what one process would have dismissed; the same
    holds for the ``cells_touched`` it bills."""

    nodes_explored: int = 0


def mine_mfi(
    store: HdrStore,
    config: MinerConfig,
    counters: CostCounters | None = None,
    stats: SearchStats | None = None,
) -> MfiStore:
    """Mine all maximal frequent itemsets at ``config.minsup`` from a store
    built on a database pruned at that minsup or a lower one; a higher prune
    raises ValueError, since it may have dropped frequent items. The result
    is independent of the config toggles and of the counting mode; the
    empty itemset is never emitted. Pass ``counters``/``stats`` to collect
    the counting work and the node count.
    """
    store.db.require_minsup(config.minsup)
    mfi = MfiStore(store.item_count)
    if store.item_count == 0 or store.txn_count == 0:
        return mfi
    minsup = config.minsup
    mode = config.mode
    use_pep = config.enable_pep
    use_fhut = config.enable_fhut
    use_hutmfi = config.enable_hutmfi
    use_reorder = config.enable_reorder

    # One frame per branching node:
    # [head, children, items of the children not yet entered, pdr, view,
    #  next child, proved]: proved is "no tail item was dropped", ANDed with
    # child 0's result once it returns; FHUT reads only the two together.
    stack: list[list] = []

    def enter(head: int, head_support: int, tail: list[int], pdr: Pdr,
              view: LmfiView) -> bool | None:
        # True/False when the node finishes at once, telling whether
        # head∪tail is known frequent (and covered); None once it has
        # pushed a frame for its children.
        # (item, support, delivered list or node mask) of each child to
        # branch on
        children: list[tuple[int, int, Sequence[int] | int]] = []
        all_frequent = True
        if tail:
            for child in count_supports(store, pdr, tail, mode, counters):
                x, s, _ = child
                if s < minsup:
                    all_frequent = False
                elif use_pep and s == head_support:
                    head |= 1 << x
                else:
                    children.append(child)
        if not children:
            if head:
                mfi.add(head, head_support)
            # head∪tail is frequent exactly when nothing was dropped
            # (everything left moved into the head).
            return all_frequent
        if use_reorder:
            children.sort(key=lambda entry: (entry[1], entry[0]))
        later = 0
        for child in children:
            later |= 1 << child[0]
        stack.append([head, children, later, pdr, view, 0, all_frequent])
        return None

    proved = enter(0, store.txn_count, list(range(store.item_count)),
                   store.root_pdr(), LmfiView(mfi, 0, 0))

    def search(share: int | None = None, parent: int | None = None) -> int:
        """Run the search from the root's frame and return the nodes it
        generated below the root. With ``share`` set, only the root
        children whose index has that parity are entered; the others are
        the other process's. With ``parent`` set, exit once that process is
        gone."""
        root = stack[0] if share is not None else None
        nodes = 0
        proved = None
        while stack:
            frame = stack[-1]
            head, children, later, pdr, view, i, frame_proved = frame
            if proved is not None:  # child i - 1 just finished
                if i == 1:
                    frame_proved = frame[6] = frame_proved and proved
                # FHUT: once the leftmost subtree proves head∪tail frequent
                # and covered, the other children cannot reach a new maximal
                # set.
                if (use_fhut and frame_proved) or i == len(children):
                    stack.pop()
                    proved = frame_proved
                    continue
            frame[5] = i + 1
            x, x_support, child_txns = children[i]
            later = frame[2] = later ^ (1 << x)  # the items of children i+1..
            if frame is root:
                if i & 1 != share:
                    # The other process's child: not generated here, and
                    # it proves nothing, so never the root frame for FHUT.
                    proved = False
                    continue
                if parent is not None:
                    exit_if_orphaned(parent)
            nodes += 1
            child_head = head | (1 << x)
            child_view = view.project(x)
            if use_hutmfi and child_view.covers_mask(child_head | later):
                proved = True  # generated, dismissed before any counting
                continue
            tail = [entry[0] for entry in children[i + 1:]]
            child_pdr = project_vertical(store, pdr, child_txns, x)
            proved = enter(child_head, x_support, tail, child_pdr, child_view)
        return nodes

    if proved is None and store.cell_count >= _SPLIT_CELLS and len(stack[0][1]) >= 2:
        mfi, below = _mine_in_two(search, mfi, stack[0][1], counters)
    else:
        below = search()
    if stats is not None:
        stats.nodes_explored += 1 + below  # the root and the nodes below it
    mfi.check_antichain()
    return mfi


# A store of at least this many cells is mined in two processes. In
# alternating fresh-process pairs of mines (CPython 3.11.7, 2-core VM) the
# split lost at 125k cells (dense@350, 1.19× the one-process mine), 226k
# (sweep@3000, 1.58×) and 395k (sweep@1500, 1.13×), broke even at 666k
# (sweep@750, 1.03×) and won at 1M (sparse@100, ~0.55×).
_SPLIT_CELLS = 1 << 19


def _mine_in_two(search, mfi: MfiStore, root_children: list,
                 counters: CostCounters | None) -> tuple[MfiStore, int]:
    """Run ``search`` on the odd-indexed root children in a forked worker
    (``in_two``) while this process runs it on the even-indexed ones, then
    merge. The worker sends its sets, supports, nodes and ``cells_touched``.
    Returns the merged store and the nodes both halves generated. If no
    worker can be forked, this process mines every root child."""
    parent = os.getpid()

    def odd_children() -> tuple:
        cells = counters.cells_touched if counters is not None else 0
        nodes = search(1, parent)
        if counters is not None:
            cells = counters.cells_touched - cells
        return nodes, cells, mfi._masks, mfi._supports

    halves = in_two(partial(search, 0), odd_children)
    if halves is None:
        return mfi, search()
    nodes, (worker_nodes, worker_cells, masks, supports) = halves
    if counters is not None:
        counters.cells_touched += worker_cells
    return _merge(root_children, mfi, masks, supports), nodes + worker_nodes


def _merge(root_children: list, own: MfiStore, masks: list[int],
           supports: list[int]) -> MfiStore:
    """The sets of ``own`` (the even-indexed root children's) and of the
    worker (``masks`` and ``supports``, the odd-indexed ones') added to a
    fresh store in root-child order: root child i's sets, from the half
    that mined it, before child i + 1's. A set from child i's subtree holds
    its item and no earlier child's, so each half's next set belongs to
    child i exactly when it holds child i's item. A set is dropped if a
    set the other half found in an earlier root subtree covers it: its own
    half's earlier sets were checked when it was mined, and no later
    subtree's set holds its root child's item."""
    merged = MfiStore(len(own._holders))
    halves = [(own._masks, own._supports), (masks, supports)]
    taken = [0, 0]
    placed = [0, 0]  # the merged positions of each half's sets
    for i, (x, _, _) in enumerate(root_children):
        half = i & 1
        half_masks, half_supports = halves[half]
        p = taken[half]
        while p < len(half_masks) and half_masks[p] >> x & 1:
            if not merged._holding(half_masks[p], placed[1 - half]):
                placed[half] |= 1 << len(merged)
                merged._insert(half_masks[p], half_supports[p])
            p += 1
        taken[half] = p
    if taken != [len(own), len(masks)]:
        raise AssertionError("a mined set holds no item of the root child that mined it")
    return merged
