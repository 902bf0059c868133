import gc
import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from collections import Counter
from copy import copy
from dataclasses import fields
from itertools import chain

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hybridmfi import (
    CountMode,
    FimiParseError,
    MinerConfig,
    RawDatabase,
    build_hdr,
    dataset,
    gen_sparse,
    mine_bitmap_baseline,
    mine_mfi,
    parse_fimi,
    prune_and_remap,
    read_fimi,
    to_fimi,
)

from conftest import TINY_DB, assert_no_child_left, forced_split, needs_fork


def test_parse_five_transactions(tiny_raw):
    assert list(tiny_raw.rows()) == [(1, 2, 4), (3,), (1, 3, 5), (2, 3), (1, 3)]


def test_parse_empty_input():
    raw = parse_fimi("")
    assert len(raw) == 0 and raw.cells == array("B") and raw.cells.typecode == "B"


def test_parse_dedupes_and_sorts():
    raw = parse_fimi("7 7 2\n")
    assert list(raw.rows()) == [(2, 7)]


def test_parse_skips_blank_lines():
    raw = parse_fimi("1 2\n\n   \n3\n")
    assert list(raw.rows()) == [(1, 2), (3,)]


def test_parse_accepts_bytes():
    assert list(parse_fimi(b"1 2\n").rows()) == [(1, 2)]


@pytest.mark.parametrize(
    "token",
    # \u0663 is the Arabic-Indic digit 3. The last four join two labels with
    # a character that str.split() or str.splitlines() would break on.
    ["x", "1_000", "+3", "\u0663", "-0", "1\u00a02", "1\u20282", "1\x1c2", "1\x852"],
    ids=["letter", "underscore", "plus", "arabic_indic", "minus_zero",
         "nbsp", "line_separator", "file_separator", "next_line"],
)
def test_parse_rejects_non_integer_token(token):
    with pytest.raises(FimiParseError) as exc:
        parse_fimi(f"1 2\n3 {token} 4\n")
    assert exc.value.line_no == 2
    assert repr(token) in str(exc.value)


def test_parse_rejects_invalid_utf8_byte():
    with pytest.raises(FimiParseError) as exc:
        parse_fimi(b"1 2\n3 \xff\n")
    assert exc.value.line_no == 2


def test_parse_rejects_negative_item():
    with pytest.raises(FimiParseError):
        parse_fimi("1 -3\n")


def test_parse_separator_bytes_match_bytes_split():
    # Pins the buffer-wide pre-check's byte set to what bytes.split() and
    # bytes.splitlines() break on: ASCII whitespace separates labels (\n and
    # \r end the line), a digit joins the two labels, and every other byte
    # is a bad token on line 1.
    for byte in range(256):
        text = b"1" + bytes([byte]) + b"2\n"
        if bytes([byte]).isspace():
            rows = [(1,), (2,)] if byte in b"\n\r" else [(1, 2)]
            assert list(parse_fimi(text).rows()) == rows, byte
        elif bytes([byte]).isdigit():
            assert list(parse_fimi(text).rows()) == [(int(text),)], byte
        else:
            with pytest.raises(FimiParseError) as exc:
                parse_fimi(text)
            assert exc.value.line_no == 1, byte


def test_parse_reports_first_bad_line_across_error_kinds():
    # An overflow on line 2 comes before a bad byte on line 3, although the
    # bad byte is what makes the parser check each line.
    with pytest.raises(FimiParseError) as exc:
        parse_fimi(f"1 2\n3 {2**32}\n4 x\n")
    assert exc.value.line_no == 2
    assert "32-bit" in str(exc.value)


def test_parse_holds_no_object_per_cell():
    raw = parse_fimi(to_fimi(gen_sparse(500, 900, 6, 4)))
    cells = raw.cells
    assert max(cells) > 256  # above CPython's small-int cache
    # The cells are packed ids: the array refers to no object but its type,
    # and its size is its header and two bytes a cell, with no slack.
    assert type(cells) is array and cells.typecode == "H"
    assert gc.get_referents(cells) == [array]
    assert sys.getsizeof(cells) == sys.getsizeof(array("H")) + 2 * len(cells)
    assert [raw.labels[x] for x in cells] == [x for row in raw.rows() for x in row]


def test_parse_rejects_overflowing_item():
    parse_fimi(f"{2**32 - 1}\n")  # the boundary itself is fine
    with pytest.raises(FimiParseError) as exc:
        parse_fimi(f"{2**32}\n")
    assert exc.value.line_no == 1
    with pytest.raises(FimiParseError) as exc:
        parse_fimi("1\n" + "9" * 5000 + "\n2\n")  # past int()'s digit limit
    assert exc.value.line_no == 2
    assert "too many digits" in str(exc.value)


def test_global_supports_tiny_db(tiny_raw):
    assert (tiny_raw.labels, tiny_raw.supports) == ([1, 2, 3, 4, 5], (3, 2, 4, 1, 1))


def test_global_supports_empty():
    raw = parse_fimi("")
    assert (raw.labels, raw.supports) == ([], ())


def test_global_supports_repeated_singleton():
    raw = parse_fimi("1\n1\n1\n")
    assert (raw.labels, raw.supports) == ([1], (3,))


def test_prune_minsup2(tiny_raw):
    db, labels = prune_and_remap(tiny_raw, 2)
    assert labels == [1, 2, 3]
    assert [tuple(labels[r] for r in txn) for txn in db.rows()] == \
        [(1, 2), (3,), (1, 3), (2, 3), (1, 3)]
    assert db.item_count == 3
    assert list(db.rows()) == [(0, 1), (2,), (0, 2), (1, 2), (0, 2)]
    assert db.minsup == 2


def test_prune_drops_everything(tiny_raw):
    db, labels = prune_and_remap(tiny_raw, 5)
    assert db.item_count == 0
    assert list(db.rows()) == []
    assert labels == []


def test_prune_identity_at_minsup1(tiny_raw):
    db, labels = prune_and_remap(tiny_raw, 1)
    assert db.item_count == 5
    assert labels == [1, 2, 3, 4, 5]
    relabeled = [tuple(labels[r] for r in txn) for txn in db.rows()]
    assert relabeled == list(tiny_raw.rows())


def test_prune_rejects_zero_minsup(tiny_raw):
    with pytest.raises(ValueError):
        prune_and_remap(tiny_raw, 0)


def test_prune_drops_emptied_transactions():
    raw = parse_fimi("1 2\n9\n1 2\n")
    db, _ = prune_and_remap(raw, 2)
    assert list(db.rows()) == [(0, 1), (0, 1)]


def test_prune_ranks_preserve_label_order():
    raw = parse_fimi("30 7 100\n30 7 100\n")
    _, labels = prune_and_remap(raw, 2)
    assert labels == sorted(labels)


def test_prune_supports_meet_threshold():
    for seed in range(20):
        raw = gen_sparse(30, 10, 3, seed)
        for minsup in (1, 2, 3):
            db, _ = prune_and_remap(raw, minsup)
            counts = [0] * db.item_count
            for txn in db.rows():
                assert txn == tuple(sorted(set(txn))) and txn
                for x in txn:
                    counts[x] += 1
            assert all(c >= minsup for c in counts)


def test_prune_counts_supports_once():
    # Pruning one raw database at three thresholds never counts its
    # supports: they are the database's own, given when it was built. A
    # prune that keeps every item shares the raw rows and reads neither
    # list; one that drops an item reads the cells twice (flags, then kept
    # ranks) and the ends twice (where each row starts and ends). The
    # databases equal fresh prunes, and the supports are read-only.
    class Passes:
        passes = 0

        def __iter__(self):
            self.passes += 1
            return super().__iter__()

    class Cells(Passes, list):
        pass

    class Ends(Passes, array):
        pass

    raw = gen_sparse(300, 30, 6, 4)
    cells, ends = Cells(raw.cells), Ends(raw.ends.typecode, raw.ends)
    shared = RawDatabase(cells, ends, raw.labels, raw.supports)
    thresholds = (1, 30, 60)
    assert min(raw.supports) < 30  # the last two prunes drop items
    pruned = [prune_and_remap(shared, minsup) for minsup in thresholds]
    assert (cells.passes, ends.passes) == (2 * 2, 2 * 2)
    assert pruned[0][0].cells is cells
    assert pruned == [prune_and_remap(RawDatabase(list(raw.cells), copy(raw.ends), raw.labels,
                                                  raw.supports), minsup)
                      for minsup in thresholds]
    counts = Counter(raw.cells)
    assert shared.supports == tuple(map(counts.__getitem__, range(len(raw.labels))))
    assert (cells.passes, ends.passes) == (2 * 2, 2 * 2)
    with pytest.raises(TypeError):
        shared.supports[1] = 0


def test_gen_sparse_deterministic():
    a = gen_sparse(200, 30, 4, 99)
    b = gen_sparse(200, 30, 4, 99)
    assert a == b
    assert to_fimi(a) == to_fimi(b)


def test_gen_sparse_zero_transactions():
    raw = gen_sparse(0, 20, 5, 1)
    assert len(raw) == 0 and raw.cells == array("B") and raw.cells.typecode == "B"


def test_gen_sparse_mean_length_near_target():
    raw = gen_sparse(1000, 50, 8, 7)
    assert 6.5 <= len(raw.cells) / len(raw) <= 9.5


def test_gen_sparse_lengths_in_bounds():
    raw = gen_sparse(500, 6, 4, 3)
    assert all(1 <= len(txn) <= 6 for txn in raw.rows())


def test_gen_sparse_skewed_popularity():
    raw = gen_sparse(2000, 40, 5, 11)
    support = dict(zip(raw.labels, raw.supports))
    assert support[1] > support[40] * 3


def test_gen_sparse_rejects_bad_avg_len():
    with pytest.raises(ValueError):
        gen_sparse(10, 5, 0, 1)
    with pytest.raises(ValueError):
        gen_sparse(10, 5, 6, 1)


def test_gen_sparse_rejects_labels_beyond_32_bits(monkeypatch):
    # Labels run 1..n_items and must fit 32 bits; the check comes before any
    # per-item allocation, so an oversized count allocates nothing (a
    # generator reached at all raises here instead).
    def unreachable(seed):
        raise AssertionError("generator built before the item count was checked")

    monkeypatch.setattr(dataset.random, "Random", unreachable)
    with pytest.raises(ValueError, match=r"n_items must be <= 4294967295, got 4294967296"):
        gen_sparse(1, 2**32, 1, 1)
    with pytest.raises(ValueError, match="got 5000000000"):
        gen_sparse(1, 5_000_000_000, 1, 1)


def test_gen_sparse_rejects_negative_count():
    with pytest.raises(ValueError):
        gen_sparse(-1, 5, 2, 1)


def test_fimi_roundtrip_on_parsed_databases():
    rng = random.Random(5)
    for seed in range(10):
        raw = gen_sparse(rng.randrange(1, 60), rng.randrange(2, 20), 2, seed)
        assert parse_fimi(to_fimi(raw)) == raw
    assert parse_fimi(to_fimi(parse_fimi(TINY_DB))) == parse_fimi(TINY_DB)


def test_support_sum_equals_length_sum():
    for seed in range(10):
        raw = gen_sparse(40, 12, 3, seed)
        assert sum(raw.supports) == sum(len(t) for t in raw.rows())


def naive_rows(text):
    """One sorted, deduplicated label tuple per non-blank line."""
    return [tuple(sorted({int(t) for t in line.split()}))
            for line in text.splitlines() if line.split()]


def naive_prune(rows, minsup):
    """(pruned rank rows, kept labels), one row at a time."""
    support = Counter(x for row in rows for x in row)
    keep = sorted(x for x, count in support.items() if count >= minsup)
    rank = {x: r for r, x in enumerate(keep)}
    pruned = [tuple(rank[x] for x in row if x in rank) for row in rows]
    return [row for row in pruned if row], keep


@st.composite
def fimi_texts(draw):
    """FIMI text with blank and whitespace-only lines, labels repeated and
    out of order within a line, and labels up to the 32-bit maximum. Labels
    come from a small pool, so they recur across lines."""
    pool = draw(st.lists(st.one_of(st.integers(0, 30), st.integers(0, 2**32 - 1)),
                         min_size=1, max_size=8))
    label_line = st.builds(
        lambda labels, sep: sep.join(map(str, labels)),
        st.lists(st.sampled_from(pool), min_size=1, max_size=10),
        st.sampled_from([" ", "  ", "\t", " \t"]),
    )
    line = st.one_of(label_line, st.sampled_from(["", " ", "\t", "  \t "]))
    lines = draw(st.lists(line, max_size=25))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + ending for line in lines)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(text=fimi_texts(), minsup=st.integers(1, 8))
def test_flat_layout_matches_naive_rows(text, minsup):
    rows = naive_rows(text)
    raw = parse_fimi(text)
    assert list(raw.rows()) == rows and len(raw) == len(rows)
    assert raw.labels == sorted({x for row in rows for x in row})
    assert [raw.labels[x] for x in raw.cells] == [x for row in rows for x in row]
    assert raw == RawDatabase.from_rows(rows)
    assert raw == RawDatabase.from_rows(map(int, line.split()) for line in text.splitlines())
    counts = Counter(x for row in rows for x in row)
    assert raw.supports == tuple(map(counts.__getitem__, raw.labels))
    drop_all = max(raw.supports, default=0) + 1
    for threshold in (1, 2, minsup, drop_all):
        db, labels = prune_and_remap(raw, threshold)
        expected, keep = naive_prune(rows, threshold)
        assert list(db.rows()) == expected
        assert labels == keep and db.item_count == len(keep)
        assert db.minsup == threshold
    assert list(prune_and_remap(raw, drop_all)[0].rows()) == []
    fimi = to_fimi(raw)
    assert fimi == "".join(" ".join(map(str, row)) + "\n" for row in rows)
    assert parse_fimi(fimi) == raw


def read_in_blocks(tmp_path, monkeypatch, data: bytes, block: int) -> RawDatabase:
    """read_fimi of ``data`` from a file, read ``block`` bytes at a time."""
    monkeypatch.setattr(dataset, "_BLOCK_BYTES", block)
    path = tmp_path / "blocks.dat"
    path.write_bytes(data)
    return read_fimi(path)


def test_read_line_straddling_a_cut(tmp_path, monkeypatch):
    raw = read_in_blocks(tmp_path, monkeypatch, b"10 20 30\n40 50\n", 4)
    assert list(raw.rows()) == [(10, 20, 30), (40, 50)]


def test_read_crlf_split_at_a_cut(tmp_path, monkeypatch):
    # The first read ends between the \r and the \n of one line end: had
    # the \n started a line of its own, the bad token would be on line 4.
    data = b"1 2\r\n3 4\r\n5 x\r\n"
    assert data[:4] == b"1 2\r"
    with pytest.raises(FimiParseError) as exc:
        read_in_blocks(tmp_path, monkeypatch, data, 4)
    assert exc.value.line_no == 3
    raw = read_in_blocks(tmp_path, monkeypatch, data.replace(b"x", b"6"), 4)
    assert list(raw.rows()) == [(1, 2), (3, 4), (5, 6)]


def test_read_lines_separated_by_lone_cr(tmp_path, monkeypatch):
    raw = read_in_blocks(tmp_path, monkeypatch, b"1 2\r3\r4 5\r", 3)
    assert list(raw.rows()) == [(1, 2), (3,), (4, 5)]


def test_read_without_final_newline(tmp_path, monkeypatch):
    raw = read_in_blocks(tmp_path, monkeypatch, b"1 2\n3 44", 2)
    assert list(raw.rows()) == [(1, 2), (3, 44)]


def test_read_skips_blank_lines_and_counts_them(tmp_path, monkeypatch):
    data = b"\n\n1\n \n\t\n2\n\n"
    assert list(read_in_blocks(tmp_path, monkeypatch, data, 2).rows()) == [(1,), (2,)]
    with pytest.raises(FimiParseError) as exc:
        read_in_blocks(tmp_path, monkeypatch, data + b"x\n", 2)
    assert exc.value.line_no == 8


@pytest.mark.parametrize("bad, message", [
    (b"3 x", "not an ASCII decimal label"),
    (b"3 " + b"9" * 5000, "too many digits"),
    (str(2**32).encode(), "32-bit"),
], ids=["bad_token", "overlong_label", "label_above_32_bits"])
def test_read_reports_the_true_line_in_a_later_block(tmp_path, monkeypatch, bad, message):
    # 50 good lines fill the first ten 16-byte blocks; the overlong label
    # alone spans hundreds.
    data = b"1 2\n" * 50 + bad + b"\n4\n"
    with pytest.raises(FimiParseError) as exc:
        read_in_blocks(tmp_path, monkeypatch, data, 16)
    assert exc.value.line_no == 51
    assert message in str(exc.value)


def test_read_matches_parse_at_every_block_size(tmp_path, monkeypatch):
    # Every cut point of a text that mixes \n, \r\n and lone \r line ends,
    # blank lines and a last line with no line end.
    data = b"1 2\n3 4 5\r\n\n  \n6\r7 8\r\n\t\r\n9"
    expected = parse_fimi(data)
    assert list(expected.rows()) == [(1, 2), (3, 4, 5), (6,), (7, 8), (9,)]
    for block in range(1, len(data) + 2):
        assert read_in_blocks(tmp_path, monkeypatch, data, block) == expected, block


def test_read_and_parse_build_equal_databases(tmp_path, monkeypatch):
    text = to_fimi(gen_sparse(500, 900, 6, 4))
    raw = read_in_blocks(tmp_path, monkeypatch, text.encode(), 1000)
    assert raw == parse_fimi(text.encode()) == parse_fimi(text)
    assert raw.labels == sorted(raw.labels) and len(raw.supports) == len(raw.labels)
    assert to_fimi(raw) == text


def test_read_peak_is_the_database_and_two_blocks(tmp_path, monkeypatch):
    # A read holds the growing 4-byte labels and ends, one block's bytes or
    # lines, and the distinct labels, which are few here; then the packed
    # ids beside the labels, and one packing step's values as a list and a
    # tuple. Its tracemalloc peak stays below the labels (with their growth
    # slack of 1/16), the finished cells and ends, two blocks and one step,
    # a bound no higher than the finished cells and ends as a list of
    # pointers plus two blocks. The file is 12 blocks, and its lines alone,
    # held at once, would pass that bound.
    block = 1 << 16
    data = to_fimi(gen_sparse(30000, 100, 10, 5)).encode()
    assert len(data) > 12 * block
    assert sum(map(sys.getsizeof, data.splitlines())) > 2 * block
    path = tmp_path / "big.dat"
    path.write_bytes(data)
    monkeypatch.setattr(dataset, "_BLOCK_BYTES", block)
    tracemalloc.start()
    try:
        raw = read_fimi(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    labels = sys.getsizeof(array("I", raw.cells)) * 17 // 16
    step = 2 * 8 * dataset._PACK_STEP
    bound = labels + sys.getsizeof(raw.cells) + sys.getsizeof(raw.ends) + 2 * block + step
    assert peak < bound
    assert bound <= sys.getsizeof(list(raw.cells)) + sys.getsizeof(raw.ends) + 2 * block
    assert raw == parse_fimi(data)


def test_prune_shares_the_raw_rows_when_nothing_drops():
    raw = gen_sparse(300, 30, 6, 4)
    db, labels = prune_and_remap(raw, min(raw.supports))
    assert db.cells is raw.cells and db.ends is raw.ends
    assert labels == raw.labels and db.item_count == len(labels)


def test_prune_builds_new_rows_when_an_item_or_a_row_drops():
    raw = gen_sparse(300, 30, 6, 4)
    db, labels = prune_and_remap(raw, min(raw.supports) + 1)
    assert db.cells is not raw.cells and db.ends is not raw.ends
    assert len(labels) < len(raw.labels)
    # A row that empties only because its one item drops.
    emptied = RawDatabase.from_rows([(5, 7), (9,), (7, 5)])
    assert len(emptied) == 3
    db, labels = prune_and_remap(emptied, 2)
    assert db.cells is not emptied.cells and db.ends is not emptied.ends
    assert list(db.rows()) == [(0, 1), (0, 1)] and len(db) == 2 and labels == [5, 7]


def test_from_rows_skips_empty_rows_as_parse_skips_blank_lines():
    raw = RawDatabase.from_rows([(5, 7), (), (7, 5)])
    assert raw == parse_fimi("5 7\n\n7 5\n") and len(raw) == 2
    assert parse_fimi(to_fimi(raw)) == raw
    assert RawDatabase.from_rows([(), []]) == parse_fimi("\n\n")


@pytest.mark.parametrize("mode", list(CountMode), ids=lambda m: m.value)
def test_mining_the_shared_rows_leaves_the_raw_database_unchanged(mode):
    raw = gen_sparse(400, 25, 6, 8)
    rows, supports, fimi = list(raw.rows()), dict(zip(raw.labels, raw.supports)), to_fimi(raw)
    minsup = min(supports.values())
    db, _ = prune_and_remap(raw, minsup)
    assert db.cells is raw.cells
    mined = mine_mfi(build_hdr(db), MinerConfig(minsup=minsup, mode=mode))
    assert dict(mined) == dict(mine_bitmap_baseline(db, minsup))
    assert list(raw.rows()) == rows and to_fimi(raw) == fimi
    assert dict(zip(raw.labels, raw.supports)) == supports


def test_databases_hold_no_tuple_per_row():
    # Each database is its fields, flat sequences of ints and scalars: no
    # attribute is added after construction, and none holds a per-row
    # object.
    # At minsup 2 label 4 and its row drop, so that prune builds new arrays.
    raw = RawDatabase.from_rows([(3, 1), (2,), (), (4,), (1, 2, 3)])
    assert list(vars(raw)) == ["cells", "ends", "labels", "supports"]
    assert (raw.labels, raw.supports, len(raw)) == ([1, 2, 3, 4], (2, 2, 2, 1), 4)
    shared, rebuilt = prune_and_remap(raw, 1)[0], prune_and_remap(raw, 2)[0]
    assert shared.cells is raw.cells and rebuilt.cells is not raw.cells
    assert rebuilt.ends is not raw.ends and len(rebuilt) == 3
    for db in (raw, shared, rebuilt):
        assert list(vars(db)) == [field.name for field in fields(db)]
        for name, value in vars(db).items():
            assert type(value) in (list, tuple, array, int), name
            if type(value) in (list, tuple):
                assert all(type(x) is int for x in value), name
        assert type(db.cells) is array and db.cells.typecode == "B" and db.ends.typecode == "I"


def distinct_labels(count):
    """A database of ``count`` distinct labels, each in two rows: one row of
    all of them, and one row per label."""
    labels = range(1, count + 1)
    return RawDatabase.from_rows(chain((labels,), zip(labels)))


@pytest.mark.parametrize("count, typecode, itemsize",
                         [(256, "B", 1), (257, "H", 2), (65536, "H", 2), (65537, "I", 4)])
def test_cells_take_the_narrowest_typecode_for_their_id_count(count, typecode, itemsize):
    raw = distinct_labels(count)
    assert len(raw.labels) == count and max(raw.cells) == count - 1
    assert raw.cells.typecode == typecode and raw.cells.itemsize == itemsize
    assert parse_fimi(to_fimi(raw)).cells.typecode == typecode
    db, _ = prune_and_remap(raw, 2)
    assert db.cells is raw.cells


def test_a_prune_to_256_ranks_narrows_the_cells():
    # 257 ids, the last of them in a single row: pruned at 2, 256 ranks
    # remain.
    raw = RawDatabase.from_rows(list(distinct_labels(257).rows())[:-1])
    assert len(raw.labels) == 257 and raw.cells.itemsize == 2
    assert dict(zip(raw.labels, raw.supports))[257] == 1
    db, labels = prune_and_remap(raw, 2)
    assert db.item_count == 256 and db.cells.typecode == "B"
    assert list(db.rows()) == [tuple(range(256))] + [(r,) for r in range(256)]
    assert labels == list(range(1, 257))


@pytest.mark.parametrize("mode", list(CountMode), ids=lambda m: m.value)
def test_mining_257_items_matches_the_baseline(mode):
    raw = RawDatabase.from_rows(chain(gen_sparse(600, 257, 12, 3).rows(), distinct_labels(257).rows()))
    minsup = min(raw.supports)
    db, _ = prune_and_remap(raw, minsup)
    assert db.item_count == 257 and db.cells.itemsize == 2
    mined = mine_mfi(build_hdr(db), MinerConfig(minsup=minsup, mode=mode))
    assert dict(mined) == dict(mine_bitmap_baseline(db, minsup))
    assert len(dict(mined)) > 1


def test_cells_hold_at_most_two_bytes_a_cell():
    # A sparse database of about a thousand items, raw and pruned, shared
    # and not: the cells never cost more than two bytes each plus the array
    # header, so a list of pointers (8 bytes a cell) cannot come back.
    raw = gen_sparse(3000, 1000, 10, 6)
    assert 900 < len(raw.labels) <= 1000
    shared, _ = prune_and_remap(raw, 1)
    pruned, _ = prune_and_remap(raw, 10)
    assert shared.cells is raw.cells and pruned.item_count > 256
    for db in (raw, shared, pruned):
        assert sys.getsizeof(db.cells) <= sys.getsizeof(array("H")) + 2 * len(db.cells)


@pytest.mark.parametrize("minsup", [10, 20, 40])
def test_pruned_cells_have_no_slack(minsup):
    # A prune that drops items packs its cells at their exact count, which
    # the supports give: the array holds no spare room.
    raw = gen_sparse(3000, 1000, 10, 6)
    db, labels = prune_and_remap(raw, minsup)
    assert db.cells is not raw.cells and len(labels) < len(raw.labels)
    support = dict(zip(raw.labels, raw.supports))
    assert len(db.cells) == sum(support[label] for label in labels)
    assert sys.getsizeof(db.cells) == sys.getsizeof(array(db.cells.typecode)) + \
        db.cells.itemsize * len(db.cells)


# Reading in two processes. Every test below forces the split (conftest's
# forced_split): the size gate at 0 and two usable CPUs reported, whatever
# the host has.


def cut_of(data: bytes) -> int:
    r"""Where a read in two processes cuts ``data``: just after the first
    \n at or after its midpoint."""
    return data.index(b"\n", len(data) // 2) + 1


def read_both_ways(tmp_path, data: bytes):
    """A one-process read of ``data`` from a file, a read of it forced into
    two processes, and the number of workers forked."""
    path = tmp_path / "halves.dat"
    path.write_bytes(data)
    one = read_fimi(path)
    with forced_split() as forked:
        two = read_fimi(path)
    assert_no_child_left()
    return one, two, len(forked)


def assert_same_database(one: RawDatabase, two: RawDatabase):
    assert two.cells.typecode == one.cells.typecode
    assert two.ends.typecode == one.ends.typecode
    assert two == one


SPLIT_INPUTS = {  # the lines before the cut, and the lines after it
    "blank_lines_at_the_cut": (b"1 2\n3 4\n\n\n", b"\n\n5\n6 7\n"),
    "crlf": (b"1 2\r\n3\r\n\r\n4 5\r\n", b"6\r\n1 6\r\n"),
    "lone_cr_lines": (b"1 2\r3\r4\n5 6\r7\n", b"8\r9 1\n"),
    "no_final_newline": (b"1 2\n3 4\n", b"5 6\n7 8"),
    "duplicates_in_a_line": (b"1 1 2\n2 2 3\n3 1 3\n", b"1 2 1\n"),
    "label_in_one_half": (b"1 2\n3\n1 3\n2 1\n", b"9\n1 2\n"),
}


@needs_fork
@pytest.mark.parametrize("first, second", SPLIT_INPUTS.values(), ids=SPLIT_INPUTS)
def test_read_in_two_equals_one_process(tmp_path, first, second):
    data = first + second
    assert cut_of(data) == len(first)
    one, two, forked = read_both_ways(tmp_path, data)
    assert forked == 1
    assert_same_database(one, two)
    assert one == parse_fimi(data)


@needs_fork
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=fimi_texts())
def test_read_in_two_equals_parse_on_generated_texts(tmp_path, text):
    # The halves of a generated text often hold different labels, so the
    # join renumbers one or both of them.
    data = text.encode()
    path = tmp_path / "generated.dat"
    path.write_bytes(data)
    with forced_split() as forked:
        two = read_fimi(path)
    assert_no_child_left()
    one = parse_fimi(text)
    for field in fields(RawDatabase):
        ours, theirs = getattr(two, field.name), getattr(one, field.name)
        assert type(ours) is type(theirs) and ours == theirs, field.name
        if type(ours) is array:
            assert ours.typecode == theirs.typecode, field.name
    cut = data.find(b"\n", len(data) // 2) + 1
    assert len(forked) == (0 < cut < len(data))


@needs_fork
def test_read_in_two_with_the_same_labels_in_both_halves(tmp_path):
    # Both halves hold every label, so their cells and ends are joined as
    # they are.
    data = to_fimi(gen_sparse(400, 20, 8, 1)).encode()
    cut = cut_of(data)
    assert parse_fimi(data[:cut]).labels == parse_fimi(data[cut:]).labels
    one, two, forked = read_both_ways(tmp_path, data)
    assert forked == 1
    assert_same_database(one, two)


@needs_fork
def test_read_in_two_widens_the_cells_when_the_union_passes_256_labels(tmp_path):
    # 200 labels before the cut and 199 after it, 300 in all: each half
    # packs its ids in 1 byte, the database in 2.
    data = "".join(f"{label}\n" for label in [*range(1000, 1200), *range(1100, 1300)]).encode()
    cut = cut_of(data)
    halves = parse_fimi(data[:cut]), parse_fimi(data[cut:])
    assert [(len(h.labels), h.cells.typecode) for h in halves] == [(200, "B"), (199, "B")]
    one, two, forked = read_both_ways(tmp_path, data)
    assert forked == 1 and len(one.labels) == 300 and one.cells.typecode == "H"
    assert_same_database(one, two)


@needs_fork
@pytest.mark.parametrize("data", [b"1 2\n3 4 5 6 7 8 9 10", b"1\n2 3 4 5 6 7\n", b"", b"\n"],
                         ids=["no_line_break", "line_break_only_at_the_end", "empty", "one_byte"])
def test_read_without_a_line_after_the_midpoint_stays_in_one_process(tmp_path, data):
    one, two, forked = read_both_ways(tmp_path, data)
    assert forked == 0
    assert_same_database(one, two)


def read_error(path) -> FimiParseError:
    with pytest.raises(FimiParseError) as exc:
        read_fimi(path)
    return exc.value


BAD_LINES = [b"3 x", b"3 " + b"9" * 5000, str(2**32).encode()]


@needs_fork
@pytest.mark.parametrize("bad", BAD_LINES, ids=["bad_token", "overlong_label", "label_above_32_bits"])
@pytest.mark.parametrize("half", ["first", "second", "both"])
def test_read_in_two_reports_the_first_bad_line_of_either_half(tmp_path, bad, half):
    # 80 lines (lone \r, \r\n and blank ones among them) and line 81 before
    # the cut, line 82 and 80 more after it; the halves' bad or good lines
    # have one length, so the cut falls between them.
    good = b"1 2\r3\r\n\n 4\n" * 20
    line = {True: bad, False: b"5".ljust(len(bad))}
    first = good + line[half != "second"] + b" \n"
    second = line[half != "first"] + b"\n" + good
    data = first + second
    assert cut_of(data) == len(first)
    path = tmp_path / "bad.dat"
    path.write_bytes(data)
    one = read_error(path)
    with forced_split() as forked:
        two = read_error(path)
    assert_no_child_left()
    assert len(forked) == 1
    assert (two.line_no, str(two)) == (one.line_no, str(one))
    assert one.line_no == (82 if half == "second" else 81)


@needs_fork
def test_read_falls_back_to_one_process_when_fork_fails(tmp_path):
    data = to_fimi(gen_sparse(300, 40, 6, 2)).encode()
    path = tmp_path / "fallback.dat"
    path.write_bytes(data)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    with forced_split(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "fork", no_fork)
        raw = read_fimi(path)
    assert_no_child_left()
    assert_same_database(parse_fimi(data), raw)


@needs_fork
def test_read_of_a_file_descriptor_stays_in_one_process(tmp_path):
    # A worker reopening the descriptor would share its offset.
    data = to_fimi(gen_sparse(300, 40, 6, 2)).encode()
    path = tmp_path / "descriptor.dat"
    path.write_bytes(data)
    with forced_split() as forked:
        raw = read_fimi(os.open(path, os.O_RDONLY))
    assert forked == []
    assert_same_database(parse_fimi(data), raw)


@needs_fork
@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo on this platform")
def test_read_streams_a_fifo_in_one_process(tmp_path):
    # A FIFO cannot be cut or read twice: it is read as it is written, in
    # one process, even with the size gate at 0. The text is larger than a
    # pipe's buffer, so the writer blocks until the read drains it.
    data = to_fimi(gen_sparse(20000, 100, 10, 3)).encode()
    assert len(data) > 1 << 17
    source, fifo = tmp_path / "source.dat", tmp_path / "fifo"
    source.write_bytes(data)
    os.mkfifo(fifo)
    writer = subprocess.Popen([sys.executable, "-c",
                               "import shutil, sys\n"
                               "with open(sys.argv[1], 'rb') as src, open(sys.argv[2], 'wb') as dst:\n"
                               "    shutil.copyfileobj(src, dst)\n",
                               str(source), str(fifo)])
    try:
        with forced_split() as forked:
            raw = read_fimi(fifo)
    finally:
        writer.kill()
        writer.wait(timeout=30)
    assert forked == []
    assert_same_database(read_fimi(source), raw)


# Pruning in two processes. Every test below forces the split (conftest's
# forced_split): the cell gate at 0 and two usable CPUs reported, whatever
# the host has. The caller prunes the first half of the rows, the worker
# the second.


def test_forced_split_opens_the_cell_gate():
    gate = dataset._SPLIT_SETUP_CELLS
    assert gate > 0
    with forced_split():
        assert dataset._SPLIT_SETUP_CELLS == 0
    assert dataset._SPLIT_SETUP_CELLS == gate


def prune_both_ways(raw: RawDatabase, minsup: int):
    """A one-process prune of ``raw``, a prune forced into two processes,
    and the number of workers forked."""
    one = prune_and_remap(raw, minsup)
    with forced_split() as forked:
        two = prune_and_remap(raw, minsup)
    assert_no_child_left()
    return one, two, len(forked)


def assert_same_fields(one, two):
    """``two`` equals ``one`` field by field, each field of the same type
    and each array of the same typecode."""
    assert type(two) is type(one)
    for field in fields(one):
        mine, theirs = getattr(one, field.name), getattr(two, field.name)
        assert type(theirs) is type(mine), field.name
        if isinstance(mine, array):
            assert theirs.typecode == mine.typecode, field.name
        assert theirs == mine, field.name


def assert_split_prune_matches(raw: RawDatabase, minsup: int) -> int:
    """Check that a prune forced into two processes equals a one-process
    prune, forking only when an item drops; the number of workers forked."""
    (db, labels), (split_db, split_labels), forked = prune_both_ways(raw, minsup)
    assert forked == (min(raw.supports, default=minsup) < minsup)
    assert split_labels == labels
    assert_same_fields(db, split_db)
    return forked


SPLIT_PRUNES = {  # rows of the first half, rows of the second, minsup
    "rows_empty_only_in_the_workers_half": ([(1, 2), (1, 3), (1, 2)], [(9,), (1,), (8,)], 2),
    "first_half_loses_every_row": ([(7,), (8,), (9,)], [(1, 2), (1, 2), (1,)], 2),
    "second_half_loses_every_row": ([(1, 2), (1, 2), (1,)], [(7,), (8,), (9,)], 2),
    "both_halves_lose_every_row": ([(1,), (2,)], [(3,), (4,)], 2),
    "labels_of_one_half_only": ([(1, 2), (1, 2), (5,)], [(3, 4), (3, 4), (6,)], 2),
    "one_row": ([], [(1, 2)], 2),
}


@needs_fork
@pytest.mark.parametrize("first, second, minsup", SPLIT_PRUNES.values(), ids=SPLIT_PRUNES)
def test_prune_in_two_equals_one_process(first, second, minsup):
    raw = RawDatabase.from_rows(first + second)
    assert assert_split_prune_matches(raw, minsup) == 1
    db, _ = prune_and_remap(raw, minsup)
    assert len(db) == sum(any(raw.supports[raw.labels.index(x)] >= minsup for x in row)
                          for row in first + second)


@needs_fork
@pytest.mark.parametrize("ranks, typecode", [(256, "B"), (257, "H")])
def test_prune_in_two_packs_both_halves_at_the_total_rank_count(ranks, typecode):
    # The first half holds only the lowest label, so its own rank count
    # would fit one byte; the cells take the typecode of every survivor.
    rows = [(1,)] * 4 + [(1, *range(2, ranks))] * 2 + [(ranks,)] * 2 + [(9999,)]
    raw = RawDatabase.from_rows(rows)
    assert assert_split_prune_matches(raw, 2) == 1
    db, _ = prune_and_remap(raw, 2)
    assert (db.item_count, db.cells.typecode) == (ranks, typecode)


@needs_fork
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(text=fimi_texts(), minsup=st.integers(1, 6))
def test_prune_in_two_equals_one_process_on_generated_texts(text, minsup):
    assert_split_prune_matches(parse_fimi(text), minsup)


@needs_fork
def test_prune_in_two_on_seeded_databases():
    forks = 0
    for seed in range(40):
        raw = gen_sparse(20 + 13 * seed, 10 + seed, 2 + seed % 5, seed)
        for minsup in (2, len(raw) // 8, len(raw) // 2):
            forks += assert_split_prune_matches(raw, minsup)
    assert forks > 60


@needs_fork
def test_prune_in_two_raises_what_the_worker_raised(monkeypatch):
    parent = os.getpid()
    packed_cells = dataset._packed_cells

    def failing(*args):
        if os.getpid() != parent:
            raise KeyError("injected")
        return packed_cells(*args)

    monkeypatch.setattr(dataset, "_packed_cells", failing)
    raw = gen_sparse(300, 30, 6, 4)
    with forced_split() as forked, pytest.raises(KeyError, match="injected"):
        prune_and_remap(raw, 30)
    assert len(forked) == 1
    assert_no_child_left()
