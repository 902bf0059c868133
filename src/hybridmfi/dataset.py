"""Transaction database loading, pruning, and synthesis.

Both databases hold their transactions in one flat layout, LCM's array
layout (Uno et al., FIMI'04): ``cells``, one packed array of every row's
items end to end, and ``ends``, a packed array of where each row ends, so
row t is ``cells[ends[t - 1]:ends[t]]`` (from 0 when t is 0) and no tuple is
kept per row. A :class:`RawDatabase` holds each label as a dense item id,
the ids numbering the distinct labels in ascending label order, and keeps
the labels. Mining operates on a :class:`TransactionDatabase`, whose cells
are ranks: the surviving frequent items form the dense range
``[0, item_count)`` in ascending label order. Neither database holds an
empty row. When every item survives the ranks are the ids, and the pruned
database shares the raw database's cells and ends. The cells' typecode is
the narrowest of ``'B'``, ``'H'`` and ``'I'`` that holds every id or rank
of the database, picked from their count, so a cell costs 1 byte up to 256
items, 2 up to 65,536 and 4 beyond, and no object of its own.

A regular file of at least ``_SPLIT_BYTES`` bytes is read in two halves by
this process and a forked worker (``in_two``), each half packed as a
database with its own label list and ids. The worker sends its database,
whose cells are packed ids, never 4-byte labels, and the joined halves
equal the database one process would read. A prune that drops an item from
a database of at least ``_SPLIT_SETUP_CELLS`` cells runs in two halves of
the rows the same way: the worker inherits the raw database, so nothing is
sent to it, and sends back its half's packed ranks and row ends, which are
appended to this process's half. ``hdr.build_hdr`` splits a pruned
database of that many cells likewise.
"""

from __future__ import annotations

import math
import os
import random
import stat
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, compress, islice, repeat
from operator import sub
from struct import pack_into
from typing import Callable, Iterable, Iterator, Sequence

from .forking import in_two

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
        self.message = message

    def __reduce__(self):  # a forked reader's error travels pickled
        return type(self), (self.line_no, self.message)


# Row ends are packed as unsigned C ints, so a database holds below 2**32
# cells; array.append raises OverflowError past that. A parse collects each
# row's labels, all at most _MAX_LABEL, in the same typecode.
_END_TYPECODE = "I"
_LABEL_TYPECODE = "I"

# Cell typecodes, narrowest first, each with the number of ids it holds.
_CELL_TYPECODES = [(code, 1 << 8 * array(code).itemsize) for code in "BHI"]


def _packed_cells(values: Iterator[int], size: int, count: int,
                  tally: Callable[[list[int]], object] | None = None) -> array:
    """The first ``size`` of ``values``, each below ``count``, packed in the
    narrowest cell typecode that holds ``count`` ids. The array is
    allocated at exactly ``size`` and filled ``_PACK_STEP`` values at a
    time, so it keeps no slack and no list of every value is ever held.
    ``tally``, if given, is called with each step's list of values."""
    code = next(code for code, ids in _CELL_TYPECODES if count <= ids)
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
        """Number of rows."""
        return len(self.ends)

    def row_lengths(self) -> list[int]:
        """Each row's cell count, in row order, from the row ends."""
        ends = self.ends
        return list(map(sub, ends, chain((0,), ends)))

    def _slices(self) -> Iterator[list[int]]:
        cells, start = self.cells, 0
        for end in self.ends:
            yield cells[start:end]
            start = end


@dataclass(frozen=True)
class RawDatabase(_FlatRows):
    """Transactions as ingested. Each cell is an item id and ``labels[id]``
    its label; ``labels`` ascends, so ids sort as their labels do, and every
    label occurs in some row. ``supports[id]`` is the number of rows holding
    the item, counted once, as the rows are packed. No row is empty,
    however the database is built."""

    labels: list[int]
    supports: tuple[int, ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> RawDatabase:
        """The database whose transactions are ``rows`` of labels, each
        sorted and deduplicated, an empty row skipped as ``parse_fimi``
        skips a blank line. Labels are collected as unsigned 32-bit ints: a
        negative or wider one raises OverflowError."""
        cells = array(_LABEL_TYPECODE)
        ends = array(_END_TYPECODE)
        for row in rows:
            if row := sorted(set(row)):
                cells.fromlist(row)
                ends.append(len(cells))
        return _interned(cells, ends, set(cells))

    def rows(self) -> Iterator[tuple[int, ...]]:
        """Each transaction in turn as a label tuple, made as it is reached."""
        label = self.labels.__getitem__
        for row in self._slices():
            yield tuple(map(label, row))


def _interned(labelled: array, ends: array, distinct: Iterable[int]) -> RawDatabase:
    """The database of rows of ``labelled`` cells, each cell the id of its
    label among the ``distinct`` labels. Ids keep label order, so each row
    stays ascending. The ids are packed a step at a time, so besides the
    4-byte labels only one step's ids are ever held as a list. The supports
    are each step's ids counted as they are packed, which costs less than a
    later count over the packed cells, each of whose reads makes an int."""
    labels = sorted(distinct)
    to_id = dict(zip(labels, range(len(labels)))).__getitem__
    counts: Counter[int] = Counter()
    cells = _packed_cells(map(to_id, labelled), len(labelled), len(labels), counts.update)
    supports = tuple(map(counts.__getitem__, range(len(labels))))
    return RawDatabase(cells, ends, labels, supports)


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
    r"""``parse_fimi`` of the file at ``path``, read ``_BLOCK_BYTES`` at a
    time. A regular file of at least ``_SPLIT_BYTES`` bytes is cut just
    after the first \n at or after its midpoint and, where a worker can be
    forked (``in_two``), read in two processes: this one parses the lines
    before the cut and the worker, from a handle of its own, the lines after
    it. Per half, neither the bytes nor the lines are ever all held at once.
    Each half is packed as a database of its own, the worker sends its
    database, and the halves are joined into the one-process result."""
    with open(path, "rb") as handle:
        # A worker reopening a file descriptor would share its offset.
        cut = 0 if isinstance(path, int) else _cut(handle)
        halves = cut and in_two(partial(_parse_blocks, _blocks(handle, cut)),
                                partial(_read_rest, path, cut))
        if not halves:
            return _parse_blocks(_blocks(handle))
    return _joined(*halves)


# A regular file of at least this many bytes is read in two processes. Over
# rounds of 10 alternating fresh-process pairs of reads of gen:N:1000:10:1
# files (CPython 3.11.7, 2-core VM), the split took 1.16-1.24x the
# one-process read at 10k rows (0.35 MB), 1.08-1.14x at 25k (0.88 MB) and
# 1.01-1.03x at 50k (1.77 MB) in the rounds where the host ran two busy
# processes at one core's speed (0.63x and 0.74x in the one where it did
# not), and 0.54-0.66x at 100k (3.5 MB), lower in 37 of 40 pairs.
_SPLIT_BYTES = 1 << 21


def _cut(handle) -> int:
    r"""Where to cut the file of ``handle``, at offset 0, between two
    processes: just after the first \n at or after its midpoint. 0 when it
    is no regular file of at least ``_SPLIT_BYTES`` bytes or no line starts
    after that \n. Leaves the handle at offset 0."""
    info = os.fstat(handle.fileno())
    if not stat.S_ISREG(info.st_mode) or info.st_size < _SPLIT_BYTES:
        return 0
    handle.seek(info.st_size // 2)
    cut = handle.tell() + len(handle.readline())
    handle.seek(0)
    return cut if cut < info.st_size else 0


def _blocks(handle, size: float = math.inf) -> Iterator[bytes]:
    """Up to ``size`` bytes of ``handle`` from its offset, ``_BLOCK_BYTES`` at
    a time."""
    while size > 0 and (block := handle.read(min(size, _BLOCK_BYTES))):
        size -= len(block)
        yield block


def _read_rest(path, cut: int) -> RawDatabase:
    """The database of the file's lines from byte ``cut`` on, read by a
    forked worker from a handle of its own, since the one it inherits shares
    its offset with the caller's. A parse error names the line's number in
    the whole file."""
    with open(path, "rb") as handle:
        handle.seek(cut)
        try:
            return _parse_blocks(_blocks(handle))
        except FimiParseError as exc:
            handle.seek(0)
            before = len(handle.read(cut).splitlines())
            raise FimiParseError(before + exc.line_no, exc.message) from None


def _joined(first: RawDatabase, second: RawDatabase) -> RawDatabase:
    """The database of ``first``'s rows followed by ``second``'s, reusing
    ``first``'s arrays. Ids number the union of the two label lists; a half
    with other labels is mapped to them through a table and packed again at
    the union's typecode. A label's support is the sum of the two halves'
    supports."""
    supports = Counter(dict(zip(second.labels, second.supports)))
    supports.update(dict(zip(first.labels, first.supports)))
    union = sorted(supports)

    def in_union(half: RawDatabase) -> array:
        if half.labels == union:
            return half.cells
        id_of = dict(zip(union, range(len(union))))
        table = list(map(id_of.__getitem__, half.labels))
        return _packed_cells(map(table.__getitem__, half.cells), len(half.cells), len(union))

    cells = in_union(first)
    _append_rows(cells, first.ends, in_union(second), second.ends)
    return RawDatabase(cells, first.ends, union, tuple(map(supports.__getitem__, union)))


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
    return _interned(cells, ends, set(label_of.values()))


def to_fimi(db: RawDatabase) -> str:
    """Render a database back to FIMI text, one line a row: the inverse of
    ``parse_fimi``."""
    return "".join(" ".join(map(str, row)) + "\n" for row in db.rows())


def prune_and_remap(db: RawDatabase, minsup: int) -> tuple[TransactionDatabase, list[int]]:
    """Drop labels with support below ``minsup``, remap survivors to dense
    ranks in ascending label order, and drop transactions that end up empty.
    Returns the database and the surviving labels, rank r's label at index
    r. The supports are the database's own, counted when it was built.
    When every item survives, the ranks are the ids and the pruned database
    shares the raw database's ``cells`` and ``ends``. Otherwise a database
    of at least ``_SPLIT_SETUP_CELLS`` cells is pruned in two halves of its
    rows where a worker can be forked (``in_two``): this process prunes the
    first half and the worker, which inherits the database, the second, and
    sends its cells and ends, which are appended to this half's."""
    if minsup < 1:
        raise ValueError(f"minsup must be a positive integer, got {minsup}")
    supports = db.supports
    if min(supports, default=minsup) >= minsup:
        return TransactionDatabase(db.cells, db.ends, len(supports), minsup), list(db.labels)
    kept = [count >= minsup for count in supports]
    rank_of = [rank - 1 for rank in accumulate(kept)]
    labels = list(compress(db.labels, kept))
    prune = partial(_pruned_rows, kept=kept, rank_of=rank_of, count=len(labels))
    halves = len(db.cells) >= _SPLIT_SETUP_CELLS and in_two(*_halves(db, prune))
    if halves:
        (cells, ends), rest = halves
        _append_rows(cells, ends, *rest)
    else:
        cells, ends = prune(db.cells, db.ends)
    return TransactionDatabase(cells, ends, len(labels), minsup), labels


# A raw database of at least this many cells is pruned, and a pruned one of
# at least this many is built (hdr.build_hdr), in two processes. Over 10
# alternating fresh-process pairs a size of gen:N:1000:10:1 databases
# (CPython 3.11.7, 2-core VM), pruned at minsup 3N/100 and built whole,
# the split took (prune, build) 0.97x and 0.81x one process's time at 125k
# cells, 0.84x and 0.72x at 250k and 0.81x and 0.74x at 500k, lower in 7,
# 9 and 9-10 pairs of 10, while the host ran two busy processes on two
# cores; in a stretch where it ran them at one core's speed the split
# took 1.2-1.6x at every size.
_SPLIT_SETUP_CELLS = 1 << 18


def _halves(db: RawDatabase, prune: Callable[[Iterable[int], Sequence[int]], object]
            ) -> tuple[Callable[[], object], Callable[[], object]]:
    """``prune`` of the first half of ``db``'s rows and of the second, as
    two calls for ``in_two``. Each is given views of its rows' cells and
    their ends counted from its first cell; the call of the second half
    makes its shifted ends itself."""
    h = len(db) // 2
    mid = db.ends[h - 1] if h else 0
    cells, ends = memoryview(db.cells), memoryview(db.ends)
    return (partial(prune, cells[:mid], ends[:h]),
            lambda: prune(cells[mid:], [end - mid for end in ends[h:]]))


def _pruned_rows(cells: Iterable[int], ends: Sequence[int], kept: list[bool],
                 rank_of: list[int], count: int) -> tuple[array, array]:
    """The rows of ``cells`` cut at ``ends`` with each id ``kept`` denies
    dropped and each other mapped to its rank in ``rank_of``, the ranks
    packed at their ``count``, and rows keeping no cell dropped. Every loop
    runs in C: one flag byte per cell, the kept cells mapped to ranks and
    packed, and each row's new end from the count of its kept flags. The
    cells are read twice and the ends twice."""
    flags = bytes(map(kept.__getitem__, cells))
    ranks = map(rank_of.__getitem__, compress(cells, flags))
    packed = _packed_cells(ranks, flags.count(1), count)
    row_counts = map(flags.count, repeat(1), chain((0,), ends), ends)
    return packed, array(_END_TYPECODE, accumulate(filter(None, row_counts)))


def _append_rows(cells: array, ends: array, more_cells: array, more_ends: array) -> None:
    """Append the rows of ``more_cells`` cut at ``more_ends`` to those of
    ``cells`` cut at ``ends``, in place. The cells share a typecode."""
    offset = len(cells)
    cells += more_cells
    ends.extend(map(offset.__add__, more_ends))


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
    if n_items > _MAX_LABEL:
        # Checked before any per-item list is built: labels run 1..n_items.
        raise ValueError(f"n_items must be <= {_MAX_LABEL}, got {n_items}")
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
