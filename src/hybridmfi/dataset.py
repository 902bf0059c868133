"""Transaction database loading, pruning, and synthesis.

Both databases hold their transactions in one flat layout, LCM's array
layout (Uno et al., FIMI'04): ``cells``, one packed array of every row's
items end to end, and ``ends``, a packed array of where each row ends, so
row t is ``cells[ends[t - 1]:ends[t]]`` (from 0 when t is 0) and no tuple is
kept per row. A :class:`RawDatabase` holds each label as a dense item id,
the ids numbering the distinct labels in ascending label order, and keeps
the labels. Mining operates on a :class:`TransactionDatabase`, whose cells
are ranks: the surviving frequent items form the dense range
``[0, item_count)`` in ascending label order. When every item survives and
no row is empty the ranks are the ids, and the pruned database shares the
raw database's cells and ends. The cells' typecode is the narrowest of
``'B'``, ``'H'`` and ``'I'`` that holds every id or rank of the database,
picked from their count, so a cell costs 1 byte up to 256 items, 2 up to
65,536 and 4 beyond, and no object of its own.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain, compress, islice, repeat
from struct import pack_into
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

_MAX_LABEL = 0xFFFFFFFF

# The bytes a FIMI file may hold: ASCII digits and the ASCII whitespace that
# bytes.split() and bytes.splitlines() break on.
_FIMI_BYTES = b"0123456789 \t\n\r\x0b\x0c"

# read_fimi reads the file this many bytes at a time.
_BLOCK_BYTES = 1 << 20

# Cells are packed this many at a time, each step held as a list and a
# tuple of 8-byte pointers, 64 KiB each.
_PACK_STEP = 1 << 13

# Popularity weight of the rank-k item in generated data: (k+1) ** -_GEN_SKEW.
_GEN_SKEW = 0.6


class FimiParseError(ValueError):
    """Malformed FIMI input; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# Row ends are packed as unsigned C ints, so a database holds below 2**32
# cells; array.append raises OverflowError past that. A parse collects each
# row's labels, all at most _MAX_LABEL, in the same typecode.
_END_TYPECODE = "I"
_LABEL_TYPECODE = "I"

# Cell typecodes, narrowest first, each with the number of ids it holds.
_CELL_TYPECODES = [(code, 1 << 8 * array(code).itemsize) for code in "BHI"]


def _cell_typecode(count: int) -> str:
    """The narrowest cell typecode that holds ids 0 to ``count - 1``."""
    return next(code for code, ids in _CELL_TYPECODES if count <= ids)


def _packed_cells(values: Iterator[int], size: int, count: int,
                  tally: Callable[[list[int]], object] | None = None) -> array:
    """The first ``size`` of ``values``, each below ``count``, packed in the
    narrowest cell typecode. The array is allocated at exactly ``size`` and
    filled ``_PACK_STEP`` values at a time, so it keeps no slack and no list
    of every value is ever held. ``tally``, if given, is called with each
    step's list of values."""
    code = _cell_typecode(count)
    cells = array(code, [0]) * size
    for start in range(0, size, _PACK_STEP):
        # struct packs a list into the array's own buffer faster than
        # array.fromlist converts it, for the 1- and 2-byte typecodes.
        block = list(islice(values, _PACK_STEP))
        pack_into(f"{len(block)}{code}", cells, start * cells.itemsize, *block)
        if tally is not None:
            tally(block)
    return cells


@dataclass(frozen=True)
class _FlatRows:
    """Rows laid out flat: row t is ``cells[ends[t - 1]:ends[t]]`` (from 0
    when t is 0), ascending and without duplicates. ``cells`` packs each
    id or rank in the narrowest typecode that holds their count, 1 to 4
    bytes a cell, and ``ends`` packs 4 bytes a row. A slice of ``cells`` is
    an array, and each cell read makes an int (a cached one below 257).
    Both are immutable by convention after construction, so two databases
    may share them."""

    cells: array
    ends: array

    def __len__(self) -> int:
        """Number of rows, the empty ones included."""
        return len(self.ends)

    def _slices(self) -> Iterator[list[int]]:
        cells, start = self.cells, 0
        for end in self.ends:
            yield cells[start:end]
            start = end


@dataclass(frozen=True)
class RawDatabase(_FlatRows):
    """Transactions as ingested. Each cell is an item id and ``labels[id]``
    its label; ``labels`` ascends, so ids sort as their labels do, and every
    label occurs in some row. ``empty_rows`` tells whether any row is empty,
    recorded as the rows are built. Empty transactions are permitted here;
    they disappear at the pruning stage. The supports are counted once and
    kept."""

    labels: list[int]
    empty_rows: bool

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> RawDatabase:
        """The database whose transactions are ``rows`` of labels, each
        sorted and deduplicated. Labels are collected as unsigned 32-bit
        ints: a negative or wider one raises OverflowError."""
        cells = array(_LABEL_TYPECODE)
        ends = array(_END_TYPECODE)
        empty_rows = False
        for row in rows:
            start = len(cells)
            cells.fromlist(sorted(set(row)))
            empty_rows = empty_rows or len(cells) == start
            ends.append(len(cells))
        return _interned(cells, ends, set(cells), empty_rows)

    def rows(self) -> Iterator[tuple[int, ...]]:
        """Each transaction in turn as a label tuple, made as it is reached."""
        label = self.labels.__getitem__
        for row in self._slices():
            yield tuple(map(label, row))

    @cached_property
    def _id_supports(self) -> list[int]:
        """Number of transactions containing each item, by id, counted on
        first use in one pass over the cells (``_interned`` fills it as it
        packs them)."""
        return _by_id(Counter(self.cells), len(self.labels))

    @property
    def supports(self) -> Mapping[int, int]:
        """Number of transactions containing each label, as a read-only
        view of the counts by id."""
        return MappingProxyType(dict(zip(self.labels, self._id_supports)))


def _interned(labelled: array, ends: array, distinct: Iterable[int],
              empty_rows: bool) -> RawDatabase:
    """The database of rows of ``labelled`` cells, each cell the id of its
    label among the ``distinct`` labels. Ids keep label order, so each row
    stays ascending. The ids are packed a step at a time, so besides the
    4-byte labels only one step's ids are ever held as a list."""
    labels = sorted(distinct)
    to_id = dict(zip(labels, range(len(labels)))).__getitem__
    counts: Counter[int] = Counter()
    cells = _packed_cells(map(to_id, labelled), len(labelled), len(labels), counts.update)
    db = RawDatabase(cells, ends, labels, empty_rows)
    # Fill the cached supports by id: a count of each step's ids as they
    # are packed costs less than a later count over the packed cells, each
    # of whose reads makes an int.
    vars(db)["_id_supports"] = _by_id(counts, len(labels))
    return db


def _by_id(counts: Counter[int], count: int) -> list[int]:
    """The counts of ids 0 to ``count - 1``, in id order."""
    return list(map(counts.__getitem__, range(count)))


@dataclass(frozen=True)
class TransactionDatabase(_FlatRows):
    """Pruned, rank-remapped database. Every row is non-empty and holds
    ascending ranks, and every rank in ``[0, item_count)`` occurs in at
    least ``minsup`` rows."""

    item_count: int
    minsup: int

    def rows(self) -> Iterator[tuple[int, ...]]:
        """Each transaction in turn as a rank tuple, made as it is reached."""
        return map(tuple, self._slices())

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
    ascending. Each distinct token is converted once, and each distinct
    label becomes one id."""
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    return _parse_blocks((text,))


def read_fimi(path) -> RawDatabase:
    """``parse_fimi`` of the file at ``path``, read ``_BLOCK_BYTES`` at a
    time, so that neither the file's bytes nor its lines are ever all held
    at once."""
    with open(path, "rb") as handle:
        return _parse_blocks(iter(partial(handle.read, _BLOCK_BYTES), b""))


def _parse_blocks(blocks: Iterable[bytes]) -> RawDatabase:
    r"""The database of FIMI text given as consecutive blocks, cut anywhere.
    Each block's last line, unless a \n ends it, is carried into the next
    block: it may go on there, and a \r may be the first half of a \r\n."""
    cells = array(_LABEL_TYPECODE)
    ends = array(_END_TYPECODE)
    label_of: dict[bytes, int] = {}
    lookup = label_of.get
    first_line, carry = 1, b""
    # The final \n ends the carried line; if nothing is carried it adds one
    # blank line after the last, which no error can name.
    for chunk in chain(blocks, (b"\n",)):
        block = carry + chunk
        del chunk
        # The bytes methods are ASCII-only: lines end only at \n or \r,
        # tokens split only on ASCII whitespace (line ends included), and a
        # label is a run of ASCII digits. The str methods and int() would
        # also take Unicode spaces and line separators, signs, underscores
        # and non-ASCII digits. A block's lines are checked one by one only
        # if it holds some other byte, so the first bad line is still the
        # one reported.
        check_lines = bool(block.translate(None, _FIMI_BYTES))
        lines = block.splitlines(keepends=True)
        del block
        carry = lines.pop() if lines and not lines[-1].endswith(b"\n") else b""
        for line_no, line in enumerate(lines, start=first_line):
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
            cells.fromlist(sorted(labels))
            ends.append(len(cells))
        first_line += len(lines)
        del lines
    return _interned(cells, ends, set(label_of.values()), False)


def to_fimi(db: RawDatabase) -> str:
    """Render a database back to FIMI text. Inverse of parse_fimi for
    databases without empty transactions."""
    return "".join(" ".join(map(str, row)) + "\n" for row in db.rows())


def prune_and_remap(db: RawDatabase, minsup: int) -> tuple[TransactionDatabase, list[int]]:
    """Drop labels with support below ``minsup``, remap survivors to dense
    ranks in ascending label order, and drop transactions that end up empty.
    Returns the database and the surviving labels, rank r's label at index
    r. The supports are the database's own, counted once for every prune.
    When every item survives and no row is empty, the ranks are the ids and
    the pruned database shares the raw database's ``cells`` and ``ends``."""
    if minsup < 1:
        raise ValueError(f"minsup must be a positive integer, got {minsup}")
    supports = db._id_supports
    if not db.empty_rows and min(supports, default=minsup) >= minsup:
        return TransactionDatabase(db.cells, db.ends, len(supports), minsup), list(db.labels)
    # Flags and ranks are lists indexed by id. Every loop below runs in C:
    # one flag byte per cell, the kept cells mapped to ranks and packed at
    # their count, which the supports give, and each row's new end from the
    # count of its kept flags, rows keeping none dropped.
    kept = [count >= minsup for count in supports]
    rank_of = [rank - 1 for rank in accumulate(kept)]
    flags = bytes(map(kept.__getitem__, db.cells))
    labels = list(compress(db.labels, kept))
    ranks = map(rank_of.__getitem__, compress(db.cells, flags))
    cells = _packed_cells(ranks, sum(compress(supports, kept)), len(labels))
    row_counts = map(flags.count, repeat(1), chain((0,), db.ends), db.ends)
    ends = array(_END_TYPECODE, accumulate(filter(None, row_counts)))
    return TransactionDatabase(cells, ends, len(labels), minsup), labels


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
