"""Reference implementations for cross-checking the hybrid miner.

``enumerate_fi_bruteforce`` lists every frequent itemset by direct
transaction scans and is the ground truth at small item counts.
``mine_bitmap_baseline`` is a second, independently coded maximal miner over
per-item transaction bitsets; it shares the search skeleton and ``MfiStore``
with ``mine_mfi`` and ``maximal_filter``, but none of the HdrStore kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .dataset import TransactionDatabase
from .miner import MfiStore

BRUTEFORCE_MAX_ITEMS = 24


class CapacityError(RuntimeError):
    """Brute-force enumeration refused: the item universe is too large."""


@dataclass(frozen=True)
class FrequentSet:
    """Every non-empty frequent itemset with its exact support. Closed
    downward: each subset of a member is a member, with support at least
    its superset's."""

    itemsets: list[tuple[frozenset[int], int]]

    def __len__(self) -> int:
        return len(self.itemsets)

    def __iter__(self) -> Iterator[tuple[frozenset[int], int]]:
        return iter(self.itemsets)

    def as_dict(self) -> dict[frozenset[int], int]:
        return dict(self.itemsets)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_fi_bruteforce(db: TransactionDatabase, minsup: int) -> FrequentSet:
    """Level-wise enumeration with direct support scans. Subset pruning is a
    speedup only; every reported support comes from rescanning transactions.
    Refuses universes above BRUTEFORCE_MAX_ITEMS items."""
    if db.item_count > BRUTEFORCE_MAX_ITEMS:
        raise CapacityError(
            f"{db.item_count} items exceeds the {BRUTEFORCE_MAX_ITEMS}-item "
            "brute-force limit"
        )
    db.require_minsup(minsup)
    txn_masks = [0] * len(db.transactions)
    for t, txn in enumerate(db.transactions):
        m = 0
        for x in txn:
            m |= 1 << x
        txn_masks[t] = m

    def support(mask: int) -> int:
        return sum(1 for tm in txn_masks if tm & mask == mask)

    found: dict[int, int] = {}
    level = []
    for x in range(db.item_count):
        s = support(1 << x)
        if s >= minsup:
            mask = 1 << x
            found[mask] = s
            level.append(mask)
    while level:
        next_level = []
        for mask in level:
            top = mask.bit_length() - 1
            for x in range(top + 1, db.item_count):
                cand = mask | (1 << x)
                if any(cand ^ (1 << b) not in found for b in _bits(cand)):
                    continue
                s = support(cand)
                if s >= minsup:
                    found[cand] = s
                    next_level.append(cand)
        level = next_level
    itemsets = [
        (frozenset(_bits(mask)), s)
        for mask, s in sorted(found.items(), key=lambda kv: (bin(kv[0]).count("1"), kv[0]))
    ]
    return FrequentSet(itemsets)


def maximal_filter(fi: FrequentSet) -> MfiStore:
    """Keep only the subset-maximal members. Item count is inferred from the
    largest rank present."""
    top = 0
    for items, _ in fi:
        for x in items:
            top = max(top, x + 1)
    store = MfiStore(top)
    for items, support in sorted(fi, key=lambda kv: -len(kv[0])):
        mask = 0
        for x in items:
            mask |= 1 << x
        store.add(mask, support)
    store.check_antichain()
    return store


def mine_bitmap_baseline(db: TransactionDatabase, minsup: int) -> MfiStore:
    """Maximal miner over vertical bitsets: one integer bitmask of transaction
    indices per item, child supports by mask intersection. Same pruning ideas
    as the hybrid engine (equal-support absorption, leftmost look-ahead,
    subsumption, ascending-support order), none of its HdrStore machinery.
    Recursion is an explicit frame stack, as in ``mine_mfi``."""
    db.require_minsup(minsup)
    n = len(db.transactions)
    mfi = MfiStore(db.item_count)
    if n == 0 or db.item_count == 0:
        return mfi
    item_tids = [0] * db.item_count
    for t, txn in enumerate(db.transactions):
        bit = 1 << t
        for x in txn:
            item_tids[x] |= bit

    stack: list[list] = []  # [head, extensions, next child, all_frequent, first_proved]

    def enter(head: int, head_tids: int, head_support: int, tail: list[int]) -> bool | None:
        # True/False when the node finishes at once, telling whether
        # head ∪ tail is known frequent (and covered); None once it has
        # pushed a frame for its extensions.
        hut = head
        for x in tail:
            hut |= 1 << x
        if mfi.covers_mask(hut):
            return True
        if not tail:
            if head:
                mfi.add(head, head_support)
            return True
        extensions = []
        all_frequent = True
        for x in tail:
            tids = head_tids & item_tids[x]
            s = tids.bit_count()
            if s < minsup:
                all_frequent = False
            elif s == head_support:
                head |= 1 << x  # same transactions: absorb into the head
            else:
                extensions.append((s, x, tids))
        if not extensions:
            if head:
                mfi.add(head, head_support)
            return all_frequent
        extensions.sort(key=lambda e: (e[0], e[1]))
        stack.append([head, extensions, 0, all_frequent, False])
        return None

    proved = enter(0, (1 << n) - 1, n, list(range(db.item_count)))
    while stack:
        frame = stack[-1]
        head, extensions, i, all_frequent, first_proved = frame
        if proved is not None:  # extension i - 1 just finished
            if i == 1:
                first_proved = frame[4] = proved
            if (first_proved and all_frequent) or i == len(extensions):
                stack.pop()
                proved = all_frequent and first_proved
                continue
        s, x, tids = extensions[i]
        frame[2] = i + 1
        proved = enter(head | (1 << x), tids, s, [e[1] for e in extensions[i + 1:]])
    mfi.check_antichain()
    return mfi
