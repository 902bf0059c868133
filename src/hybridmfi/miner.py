"""Depth-first maximal frequent itemset search.

Itemsets travel through the engine as integer bitmasks over item ranks;
iterating a mined MfiStore yields rank sets. Each search node carries a head
(the itemset mined so far), an ordered tail of candidate extensions, and its
Pdr projection. Three prunes cut the tree: parent-equivalence (tail items
whose support matches the head's move straight into the head), a look-ahead
that abandons siblings once the leftmost subtree proves the node's entire
head∪tail frequent, and subsumption (a node whose head∪tail already sits
inside a known maximal set is dismissed before any counting). Tails are
re-sorted by ascending support at every node so the most constrained
branches run first.

Recursion is an explicit frame stack, so tail depth is bounded by memory and
not the interpreter's call limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .hdr import CostCounters, CountMode, HdrStore, Pdr, count_supports, project_vertical


def _items_of(mask: int) -> frozenset[int]:
    items = []
    while mask:
        low = mask & -mask
        items.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(items)


class MfiStore:
    """Antichain of maximal itemsets with their supports, plus a per-item
    inverted index (rank -> positions of the maximal sets containing it) so
    superset queries only scan the least-populated item's list."""

    __slots__ = ("item_count", "_masks", "_supports", "_index")

    def __init__(self, item_count: int):
        self.item_count = item_count
        self._masks: list[int] = []
        self._supports: list[int] = []
        self._index: list[list[int]] = [[] for _ in range(item_count)]

    def __len__(self) -> int:
        return len(self._masks)

    def __iter__(self) -> Iterator[tuple[frozenset[int], int]]:
        for mask, support in zip(self._masks, self._supports):
            yield _items_of(mask), support

    def as_dict(self) -> dict[frozenset[int], int]:
        return dict(self)

    def covers_mask(self, mask: int) -> bool:
        """True iff some stored itemset is a superset of ``mask``."""
        masks = self._masks
        if not masks:
            return False
        if not mask:
            return True
        best: list[int] | None = None
        m = mask
        while m:
            low = m & -m
            bucket = self._index[low.bit_length() - 1]
            if not bucket:
                return False
            if best is None or len(bucket) < len(best):
                best = bucket
            m ^= low
        for i in best:
            if mask & ~masks[i] == 0:
                return True
        return False

    def add(self, mask: int, support: int) -> bool:
        """Insert unless a stored superset exists. The search order guarantees
        no stored set is ever a proper subset of a later insert, which keeps
        the store an antichain without a removal pass."""
        if self.covers_mask(mask):
            return False
        if __debug__:
            for stored in self._masks:
                assert stored & ~mask != 0, "stored itemset subsumed by a later insert"
        pos = len(self._masks)
        self._masks.append(mask)
        self._supports.append(support)
        m = mask
        while m:
            low = m & -m
            self._index[low.bit_length() - 1].append(pos)
            m ^= low
        return True


class LmfiView:
    """Node-local view of an MfiStore: the stored sets known to contain the
    branch items, plus everything inserted after the view was taken (all
    inserts below a branch contain its items, so the live suffix is always
    relevant). Projecting on the next branch item narrows the snapshot and
    advances the watermark."""

    __slots__ = ("store", "indices", "watermark")

    def __init__(self, store: MfiStore, indices: list[int], watermark: int):
        self.store = store
        self.indices = indices
        self.watermark = watermark

    def covers_mask(self, mask: int) -> bool:
        masks = self.store._masks
        for i in self.indices:
            if mask & ~masks[i] == 0:
                return True
        for i in range(self.watermark, len(masks)):
            if mask & ~masks[i] == 0:
                return True
        return False

    def project(self, y: int) -> "LmfiView":
        masks = self.store._masks
        bit = 1 << y
        kept = [i for i in self.indices if masks[i] & bit]
        kept.extend(i for i in range(self.watermark, len(masks)) if masks[i] & bit)
        return LmfiView(self.store, kept, len(masks))


@dataclass(slots=True)
class NodeFrame:
    """One search node. ``head`` is a rank bitmask; ``tail`` is the ordered
    candidate list at entry."""

    head: int
    head_support: int
    tail: list[int]
    pdr: Pdr
    view: LmfiView | None = None
    children: list[tuple[int, int]] | None = None
    suffix_masks: list[int] | None = None
    next_child: int = 0
    all_frequent: bool = False
    first_child_proved: bool = False
    entered: bool = False


@dataclass
class MinerConfig:
    """Search settings. The four prune/reorder toggles and the LMFI-view
    switch never change the mined result, only the work done."""

    minsup: int
    mode: CountMode = CountMode.AUTO
    enable_pep: bool = True
    enable_fhut: bool = True
    enable_hutmfi: bool = True
    enable_reorder: bool = True
    use_lmfi: bool = True

    def __post_init__(self):
        if self.minsup < 1:
            raise ValueError(f"minsup must be a positive integer, got {self.minsup}")


@dataclass
class SearchStats:
    """Nodes generated by the search, including nodes dismissed by the
    subsumption check before any counting."""

    nodes_explored: int = 0


def mine_mfi(
    store: HdrStore,
    config: MinerConfig,
    counters: CostCounters | None = None,
    stats: SearchStats | None = None,
) -> MfiStore:
    """Mine all maximal frequent itemsets from a store built on a database
    pruned at ``config.minsup``. The result is independent of the config
    toggles and of the counting mode; the empty itemset is never emitted.
    Pass ``counters``/``stats`` to collect counting costs and the node count.
    """
    mfi = MfiStore(store.item_count)
    if store.item_count == 0 or store.txn_count == 0:
        return mfi
    minsup = config.minsup
    mode = config.mode
    use_pep = config.enable_pep
    use_fhut = config.enable_fhut
    use_hutmfi = config.enable_hutmfi
    use_reorder = config.enable_reorder

    root_view = LmfiView(mfi, [], 0) if config.use_lmfi else None
    root = NodeFrame(
        head=0,
        head_support=store.txn_count,
        tail=list(range(store.item_count)),
        pdr=store.root_pdr(),
        view=root_view,
    )
    stack = [root]
    nodes = 0
    # Proved-HUT result of the child that just finished, consumed by the
    # frame now on top of the stack.
    pending: bool | None = None

    while stack:
        frame = stack[-1]
        if pending is not None:
            proved, pending = pending, None
            if frame.next_child == 1:
                frame.first_child_proved = proved
            if use_fhut and frame.all_frequent and frame.first_child_proved:
                # The leftmost subtree proved this node's whole head∪tail
                # frequent and covered; the other children cannot reach a
                # new maximal set.
                stack.pop()
                pending = True
                continue
        elif not frame.entered:
            frame.entered = True
            nodes += 1
            if not frame.tail:
                if frame.head:
                    mfi.add(frame.head, frame.head_support)
                stack.pop()
                pending = True
                continue
            counts = count_supports(store, frame.pdr, frame.tail, mode, counters)
            head = frame.head
            head_support = frame.head_support
            children: list[tuple[int, int]] = []
            n_frequent = 0
            for x in frame.tail:
                s = counts[x]
                if s < minsup:
                    continue
                n_frequent += 1
                if use_pep and s == head_support:
                    head |= 1 << x
                else:
                    children.append((x, s))
            frame.head = head
            frame.all_frequent = n_frequent == len(frame.tail)
            if not children:
                if head:
                    mfi.add(head, head_support)
                stack.pop()
                # head∪tail is frequent exactly when nothing was dropped
                # (everything left moved into the head).
                pending = frame.all_frequent
                continue
            if use_reorder:
                children.sort(key=lambda entry: (entry[1], entry[0]))
            suffix = [0] * len(children)
            acc = 0
            for j in range(len(children) - 1, -1, -1):
                suffix[j] = acc
                acc |= 1 << children[j][0]
            frame.children = children
            frame.suffix_masks = suffix

        i = frame.next_child
        if i >= len(frame.children):
            stack.pop()
            pending = frame.all_frequent and frame.first_child_proved
            continue
        frame.next_child = i + 1
        x, x_support = frame.children[i]
        child_head = frame.head | (1 << x)
        suffix_mask = frame.suffix_masks[i]
        child_view = frame.view.project(x) if frame.view is not None else None
        if use_hutmfi:
            checker = child_view if child_view is not None else mfi
            if checker.covers_mask(child_head | suffix_mask):
                nodes += 1  # generated, dismissed before any counting
                pending = True
                continue
        tail_after = [entry[0] for entry in frame.children[i + 1:]]
        child_pdr = project_vertical(
            store, frame.pdr, x, tail_after, tail_mask=suffix_mask
        )
        stack.append(
            NodeFrame(
                head=child_head,
                head_support=x_support,
                tail=tail_after,
                pdr=child_pdr,
                view=child_view,
            )
        )

    if stats is not None:
        stats.nodes_explored += nodes
    return mfi
