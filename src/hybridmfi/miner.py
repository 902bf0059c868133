"""Depth-first maximal frequent itemset search.

Itemsets travel through the engine as integer bitmasks over item ranks;
iterating a mined MfiStore yields rank sets. Each search node carries a head
(the itemset mined so far), an ordered tail of candidate extensions, and its
Pdr projection. One counting call per node returns every child's support
and transactions; the node's frame keeps those of the children it branches
on, so entering a child does no further counting or intersection. Three
prunes cut the tree: parent-equivalence (tail items whose support matches
the head's move straight into the head), a look-ahead that abandons
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
        for mask, support in zip(self._masks, self._supports):
            yield _items_of(mask), support

    def as_dict(self) -> dict[frozenset[int], int]:
        return dict(self)

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
        return True

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
                    f"stored itemset {sorted(_items_of(mask))} lies inside "
                    f"{sorted(_items_of(outer))}"
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
    subsumption check before any counting."""

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
    # [head, children, suffix masks, pdr, view, next child, all_frequent, first_proved]
    stack: list[list] = []

    def enter(head: int, head_support: int, tail: list[int], pdr: Pdr,
              view: LmfiView) -> bool | None:
        # True/False when the node finishes at once, telling whether
        # head∪tail is known frequent (and covered); None once it has
        # pushed a frame for its children.
        # (item, support, transactions) of each child to branch on
        children: list[tuple[int, int, list[int] | int]] = []
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
        suffix = [0] * len(children)
        acc = 0
        for j in range(len(children) - 1, -1, -1):
            suffix[j] = acc
            acc |= 1 << children[j][0]
        stack.append([head, children, suffix, pdr, view, 0, all_frequent, False])
        return None

    nodes = 1  # the root; each generated child adds one below
    proved = enter(0, store.txn_count, list(range(store.item_count)),
                   store.root_pdr(), LmfiView(mfi, 0, 0))
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
        x, x_support, child_txns = children[i]
        child_head = head | (1 << x)
        suffix_mask = suffix[i]
        child_view = view.project(x)
        if use_hutmfi and child_view.covers_mask(child_head | suffix_mask):
            proved = True  # generated, dismissed before any counting
            continue
        tail = [entry[0] for entry in children[i + 1:]]
        child_pdr = project_vertical(store, pdr, child_txns, x_support)
        proved = enter(child_head, x_support, tail, child_pdr, child_view)

    if stats is not None:
        stats.nodes_explored += nodes
    mfi.check_antichain()
    return mfi
