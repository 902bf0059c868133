"""Transaction database loading, pruning, and synthesis.

A :class:`RawDatabase` carries item labels exactly as read from disk, laid
out flat: one list of every row's labels end to end and a packed array of
where each row ends. Mining operates on a rank-remapped
:class:`TransactionDatabase`, a list of rows, each an immutable ascending
tuple of ranks, where the surviving frequent items form the dense range
``[0, item_count)`` and ranks preserve ascending label order. Cells share
their ints (the parser converts each distinct token once, and a rank is one
int per item), so a cell costs one pointer and not an int object of its own.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

_MAX_LABEL = 0xFFFFFFFF

# The bytes a FIMI file may hold: ASCII digits and the ASCII whitespace that
# bytes.split() and bytes.splitlines() break on.
_FIMI_BYTES = b"0123456789 \t\n\r\x0b\x0c"

# Popularity weight of the rank-k item in generated data: (k+1) ** -_GEN_SKEW.
_GEN_SKEW = 0.6


class FimiParseError(ValueError):
    """Malformed FIMI input; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# Row ends are packed as unsigned C ints, so a database holds below 2**32
# cells; array.append raises OverflowError past that.
_END_TYPECODE = "I"


@dataclass(frozen=True)
class RawDatabase:
    """Transactions as ingested, laid out flat: transaction t is
    ``cells[ends[t - 1]:ends[t]]`` (from 0 when t is 0), its labels sorted
    and deduplicated. ``cells`` is a list, so a cell is one pointer to the
    int its label shares with every other cell of that label, and ``ends``
    packs 4 bytes a transaction; no tuple is kept per row.

    Both are immutable by convention after construction, so the label
    supports are counted once and kept. Empty transactions are permitted
    here; they disappear at the pruning stage."""

    cells: list[int]
    ends: array

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> RawDatabase:
        """The database whose transactions are ``rows``, each sorted and
        deduplicated."""
        cells: list[int] = []
        ends = array(_END_TYPECODE)
        for row in rows:
            cells.extend(sorted(set(row)))
            ends.append(len(cells))
        return cls(cells, ends)

    def __len__(self) -> int:
        """Number of transactions, the empty ones included."""
        return len(self.ends)

    def rows(self) -> Iterator[tuple[int, ...]]:
        """Each transaction in turn as a label tuple, made as it is reached."""
        cells, start = self.cells, 0
        for end in self.ends:
            yield tuple(cells[start:end])
            start = end

    # Cached as a plain dict, so the database still copies and pickles; a
    # mappingproxy does neither.
    @cached_property
    def _support_counts(self) -> dict[int, int]:
        return dict(Counter(self.cells))

    @property
    def supports(self) -> Mapping[int, int]:
        """Number of transactions containing each label: a read-only view
        of counts made on first use, in one pass over the cells."""
        return MappingProxyType(self._support_counts)


@dataclass(frozen=True)
class TransactionDatabase:
    """Pruned, rank-remapped database. Every transaction is a non-empty
    ascending rank tuple, every rank one shared int, and every rank occurs
    in at least ``minsup`` transactions."""

    transactions: list[tuple[int, ...]]
    item_count: int
    minsup: int

    def require_minsup(self, minsup: int) -> None:
        """Raise ValueError unless the database can be mined at ``minsup``:
        a positive threshold no lower than the one it was pruned at, below
        which a pruned item could be frequent."""
        if minsup < 1:
            raise ValueError(f"minsup must be a positive integer, got {minsup}")
        if minsup < self.minsup:
            raise ValueError(
                f"cannot mine at minsup {minsup} a database pruned at minsup {self.minsup}"
            )


def parse_fimi(text: str | bytes) -> RawDatabase:
    """Parse FIMI text: one transaction per non-blank line, non-negative
    integer labels written in plain ASCII digits and separated by ASCII
    whitespace. Duplicates within a line collapse; items are sorted
    ascending. Each distinct token is converted once, so every cell written
    with that token shares one int."""
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    # The bytes methods are ASCII-only: lines end only at \n or \r, tokens
    # split only on ASCII whitespace, and a label is a run of ASCII digits.
    # The str methods and int() would also take Unicode spaces and line
    # separators, signs, underscores and non-ASCII digits. Lines are checked
    # one by one only if the buffer holds some other byte, so the first bad
    # line is still the one reported.
    check_lines = bool(text.translate(None, _FIMI_BYTES))
    cells: list[int] = []
    ends = array(_END_TYPECODE)
    label_of: dict[bytes, int] = {}
    lookup = label_of.get
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if check_lines and not b"".join(tokens).isdigit():
            bad = next(t for t in tokens if not t.isdigit()).decode("utf-8", "replace")
            raise FimiParseError(line_no, f"token {bad!r} is not an ASCII decimal label")
        labels = set(map(lookup, tokens))
        if None in labels:  # a token seen for the first time
            try:
                for token in tokens:
                    if token not in label_of:
                        label_of[token] = int(token)
            except ValueError:  # more digits than int() will convert
                raise FimiParseError(line_no, "item has too many digits") from None
            labels = set(map(label_of.__getitem__, tokens))
            top = max(labels)
            if top > _MAX_LABEL:
                raise FimiParseError(line_no, f"item {top} exceeds the 32-bit range")
        cells.extend(sorted(labels))
        ends.append(len(cells))
    return RawDatabase(cells, ends)


def read_fimi(path) -> RawDatabase:
    with open(path, "rb") as handle:
        return parse_fimi(handle.read())


def to_fimi(db: RawDatabase) -> str:
    """Render a database back to FIMI text. Inverse of parse_fimi for
    databases without empty transactions."""
    return "".join(" ".join(map(str, row)) + "\n" for row in db.rows())


def prune_and_remap(db: RawDatabase, minsup: int) -> tuple[TransactionDatabase, list[int]]:
    """Drop labels with support below ``minsup``, remap survivors to dense
    ranks in ascending label order, and drop transactions that end up empty.
    Returns the database and the surviving labels, rank r's label at index
    r. The supports are the database's own, counted once for every prune."""
    if minsup < 1:
        raise ValueError(f"minsup must be a positive integer, got {minsup}")
    keep = sorted(label for label, count in db.supports.items() if count >= minsup)
    rank_of = {label: rank for rank, label in enumerate(keep)}
    kept, rank = rank_of.__contains__, rank_of.__getitem__
    transactions: list[tuple[int, ...]] = []
    # db.rows() inlined: a generator resume and a tuple per row would add to
    # every prune.
    cells, start = db.cells, 0
    for end in db.ends:
        mapped = tuple(map(rank, filter(kept, cells[start:end])))
        start = end
        if mapped:
            transactions.append(mapped)
    return TransactionDatabase(transactions, len(keep), minsup), keep


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

    def draw() -> set[int]:
        length = _clamped_poisson(rng, avg_len, n_items)
        chosen: set[int] = set()
        while len(chosen) < length:
            chosen.update(
                rng.choices(labels, cum_weights=cum_weights, k=length - len(chosen))
            )
        return chosen

    return RawDatabase.from_rows(draw() for _ in range(n_transactions))
