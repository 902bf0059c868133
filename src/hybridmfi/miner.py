"""Depth-first maximal frequent itemset search.

Itemsets travel through the engine as integer bitmasks over item ranks;
iterating a mined MfiStore yields rank sets. Each search node carries a head
(the itemset mined so far), an ordered tail of candidate extensions, and its
Pdr projection. Three prunes cut the tree: parent-equivalence (tail items
whose support matches the head's move straight into the head), a look-ahead
that abandons siblings once the leftmost subtree proves the node's entire
head∪tail frequent, and subsumption (a node whose head∪tail already sits
inside a known maximal set is dismissed before any counting). Subsumption
reads node-local LMFI views of the store, which hold only the maximal sets
that contain the node's branch items. Tails are re-sorted by ascending
support at every node so the most constrained branches run first.

Recursion is an explicit stack with one frame per branching node, so tail
depth is bounded by memory and not the interpreter's call limit. The mined
store is checked to be an antichain once, before it is returned.
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

    __slots__ = ("_masks", "_supports", "_index")

    def __init__(self, item_count: int):
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
        the store an antichain without a removal pass; ``check_antichain``
        confirms it once a mine is done."""
        if self.covers_mask(mask):
            return False
        pos = len(self._masks)
        self._masks.append(mask)
        self._supports.append(support)
        m = mask
        while m:
            low = m & -m
            self._index[low.bit_length() - 1].append(pos)
            m ^= low
        return True

    def check_antichain(self) -> None:
        """Raise AssertionError if a stored itemset lies inside another. Each
        set's superset candidates come from its least-populated item's
        index list. Raised explicitly, so the check also runs under -O."""
        masks = self._masks
        for pos, mask in enumerate(masks):
            candidates: range | list[int] = range(len(masks))
            m = mask
            while m:
                low = m & -m
                bucket = self._index[low.bit_length() - 1]
                if len(bucket) < len(candidates):
                    candidates = bucket
                m ^= low
            for i in candidates:
                if i != pos and mask & ~masks[i] == 0:
                    raise AssertionError(
                        f"stored itemset {sorted(_items_of(mask))} lies inside "
                        f"{sorted(_items_of(masks[i]))}"
                    )


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
    Pass ``counters``/``stats`` to collect the counting work and the node count.
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

    # One frame per branching node:
    # [head, children, suffix masks, pdr, view, next child, all_frequent, first_proved]
    stack: list[list] = []

    def enter(head: int, head_support: int, tail: list[int], pdr: Pdr,
              view: LmfiView) -> bool | None:
        # True/False when the node finishes at once, telling whether
        # head∪tail is known frequent (and covered); None once it has
        # pushed a frame for its children.
        children: list[tuple[int, int]] = []
        all_frequent = True
        if tail:
            counts = count_supports(store, pdr, tail, mode, counters)
            for x in tail:
                s = counts[x]
                if s < minsup:
                    all_frequent = False
                elif use_pep and s == head_support:
                    head |= 1 << x
                else:
                    children.append((x, s))
        if not children:
            if head:
                mfi.add(head, head_support)
            # head∪tail is frequent exactly when nothing was dropped
            # (everything left moved into the head).
            return all_frequent
        if use_reorder:
            children.sort(key=lambda entry: (entry[1], entry[0]))
        suffix = [0] * len(children)
        acc = 0
        for j in range(len(children) - 1, -1, -1):
            suffix[j] = acc
            acc |= 1 << children[j][0]
        stack.append([head, children, suffix, pdr, view, 0, all_frequent, False])
        return None

    nodes = 1  # the root; each generated child adds one below
    proved = enter(0, store.txn_count, list(range(store.item_count)),
                   store.root_pdr(), LmfiView(mfi, [], 0))
    while stack:
        frame = stack[-1]
        head, children, suffix, pdr, view, i, all_frequent, first_proved = frame
        if proved is not None:  # child i - 1 just finished
            if i == 1:
                first_proved = frame[7] = proved
            # FHUT: once the leftmost subtree proves head∪tail frequent and
            # covered, the other children cannot reach a new maximal set.
            if (use_fhut and all_frequent and first_proved) or i == len(children):
                stack.pop()
                proved = all_frequent and first_proved
                continue
        frame[5] = i + 1
        nodes += 1
        x, x_support = children[i]
        child_head = head | (1 << x)
        suffix_mask = suffix[i]
        child_view = view.project(x)
        if use_hutmfi and child_view.covers_mask(child_head | suffix_mask):
            proved = True  # generated, dismissed before any counting
            continue
        tail = [entry[0] for entry in children[i + 1:]]
        child_pdr = project_vertical(store, pdr, x)
        proved = enter(child_head, x_support, tail, child_pdr, child_view)

    if stats is not None:
        stats.nodes_explored += nodes
    mfi.check_antichain()
    return mfi
