"""Transaction database loading, pruning, and synthesis.

Databases are plain lists of item lists. A :class:`RawDatabase` carries item
labels exactly as read from disk; mining operates on a rank-remapped
:class:`TransactionDatabase` where the surviving frequent items form the dense
range ``[0, item_count)`` and ranks preserve ascending label order.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

_MAX_LABEL = 0xFFFFFFFF

# Popularity weight of the rank-k item in generated data: (k+1) ** -_GEN_SKEW.
_GEN_SKEW = 0.6


class FimiParseError(ValueError):
    """Malformed FIMI input; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class RawDatabase:
    """Transactions as ingested: sorted, deduplicated label lists.

    Immutable by convention after construction. Empty transactions are
    permitted here; they disappear at the pruning stage.
    """

    transactions: list[list[int]]
    label_universe: frozenset[int]


@dataclass(frozen=True)
class ItemMap:
    """Bijection between surviving labels and dense ranks.

    Ranks are assigned in ascending label order, so sorting by rank and
    sorting by label agree everywhere downstream.
    """

    rank_of_label: dict[int, int]
    label_of_rank: list[int]

    @property
    def item_count(self) -> int:
        return len(self.label_of_rank)

    def labels_of(self, ranks) -> list[int]:
        return sorted(self.label_of_rank[r] for r in ranks)


@dataclass(frozen=True)
class TransactionDatabase:
    """Pruned, rank-remapped database. Every transaction is a non-empty
    ascending rank list and every rank occurs in at least ``minsup``
    transactions."""

    transactions: list[list[int]]
    item_count: int
    minsup: int


def parse_fimi(text: str | bytes) -> RawDatabase:
    """Parse FIMI text: one transaction per non-blank line, non-negative
    integer labels written in plain ASCII digits and separated by ASCII
    whitespace. Duplicates within a line collapse; items are sorted
    ascending."""
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    transactions: list[list[int]] = []
    universe: set[int] = set()
    # The bytes methods are ASCII-only: lines end only at \n or \r, tokens
    # split only on ASCII whitespace, and a label is a run of ASCII digits.
    # The str methods and int() would also take Unicode spaces and line
    # separators, signs, underscores and non-ASCII digits.
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if not b"".join(tokens).isdigit():
            bad = next(t for t in tokens if not t.isdigit()).decode("utf-8", "replace")
            raise FimiParseError(line_no, f"token {bad!r} is not an ASCII decimal label")
        try:
            txn = sorted(set(map(int, tokens)))
        except ValueError:  # more digits than int() will convert
            raise FimiParseError(line_no, "item has too many digits") from None
        if txn[-1] > _MAX_LABEL:
            raise FimiParseError(line_no, f"item {txn[-1]} exceeds the 32-bit range")
        transactions.append(txn)
        universe.update(txn)
    return RawDatabase(transactions, frozenset(universe))


def read_fimi(path) -> RawDatabase:
    with open(path, "rb") as handle:
        return parse_fimi(handle.read())


def to_fimi(db: RawDatabase) -> str:
    """Render a database back to FIMI text. Inverse of parse_fimi for
    databases whose transactions are canonical (sorted, deduped, non-empty)."""
    return "".join(" ".join(map(str, txn)) + "\n" for txn in db.transactions)


def global_supports(db: RawDatabase) -> dict[int, int]:
    """Number of transactions containing each label."""
    counts: Counter[int] = Counter()
    for txn in db.transactions:
        counts.update(txn)
    return dict(counts)


def prune_and_remap(db: RawDatabase, minsup: int) -> tuple[TransactionDatabase, ItemMap]:
    """Drop labels with support below ``minsup``, remap survivors to dense
    ranks in ascending label order, and drop transactions that end up empty."""
    if minsup < 1:
        raise ValueError(f"minsup must be a positive integer, got {minsup}")
    support = global_supports(db)
    keep = sorted(label for label, count in support.items() if count >= minsup)
    rank_of = {label: rank for rank, label in enumerate(keep)}
    transactions: list[list[int]] = []
    for txn in db.transactions:
        mapped = [rank_of[x] for x in txn if x in rank_of]
        if mapped:
            transactions.append(mapped)
    return TransactionDatabase(transactions, len(keep), minsup), ItemMap(rank_of, keep)


def atl(transactions) -> float:
    """Average transaction length; 0 for an empty database."""
    if not transactions:
        return 0.0
    return sum(len(txn) for txn in transactions) / len(transactions)


def _clamped_poisson(rng: random.Random, mean: float, upper: int) -> int:
    if mean < 30:
        threshold = math.exp(-mean)
        k, p = 0, 1.0
        while True:
            k += 1
            p *= rng.random()
            if p <= threshold:
                break
        draw = k - 1
    else:
        draw = round(rng.gauss(mean, math.sqrt(mean)))
    return min(max(draw, 1), upper)


def gen_sparse(n_transactions: int, n_items: int, avg_len: int, seed: int) -> RawDatabase:
    """Deterministic sparse database: per-transaction lengths cluster around
    ``avg_len`` (Poisson-like, clamped to [1, n_items]) and items are drawn
    without replacement under a skewed popularity so low-rank labels are
    markedly more frequent. Labels run 1..n_items."""
    if n_transactions < 0:
        raise ValueError(f"n_transactions must be >= 0, got {n_transactions}")
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    if not 0 < avg_len <= n_items:
        raise ValueError(f"avg_len must be in (0, {n_items}], got {avg_len}")
    rng = random.Random(seed)
    labels = list(range(1, n_items + 1))
    cum_weights = list(accumulate((rank + 1) ** -_GEN_SKEW for rank in range(n_items)))
    transactions: list[list[int]] = []
    universe: set[int] = set()
    for _ in range(n_transactions):
        length = _clamped_poisson(rng, avg_len, n_items)
        chosen: set[int] = set()
        while len(chosen) < length:
            chosen.update(
                rng.choices(labels, cum_weights=cum_weights, k=length - len(chosen))
            )
        txn = sorted(chosen)
        transactions.append(txn)
        universe.update(txn)
    return RawDatabase(transactions, frozenset(universe))
