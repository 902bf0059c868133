import gc
import random
import sys
import tracemalloc
from array import array
from collections import Counter
from copy import copy
from itertools import chain

import pytest
from hypothesis import given, settings
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

from conftest import TINY_DB


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
    assert tiny_raw.supports == {1: 3, 2: 2, 3: 4, 4: 1, 5: 1}


def test_global_supports_empty():
    assert parse_fimi("").supports == {}


def test_global_supports_repeated_singleton():
    assert parse_fimi("1\n1\n1\n").supports == {1: 3}


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
    # Pruning one raw database at three thresholds counts its supports in
    # one pass over the cells, on the first prune only. A prune that keeps
    # every item shares the raw rows and reads neither list again; one that
    # drops an item reads the cells twice (flags, then kept ranks) and the
    # ends twice (where each row starts and ends). The databases equal
    # fresh prunes, and the cached counts are read-only.
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
    shared = RawDatabase(cells, ends, raw.labels, raw.empty_rows)
    thresholds = (1, 30, 60)
    assert min(raw.supports.values()) < 30  # the last two prunes drop items
    pruned = [prune_and_remap(shared, minsup) for minsup in thresholds]
    assert (cells.passes, ends.passes) == (1 + 2 * 2, 2 * 2)
    assert pruned[0][0].cells is cells
    assert pruned == [prune_and_remap(RawDatabase(list(raw.cells), copy(raw.ends), raw.labels,
                                                  raw.empty_rows), minsup)
                      for minsup in thresholds]
    assert shared.supports == raw.supports
    assert (cells.passes, ends.passes) == (1 + 2 * 2, 2 * 2)
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
    support = raw.supports
    assert support[1] > support[40] * 3


def test_gen_sparse_rejects_bad_avg_len():
    with pytest.raises(ValueError):
        gen_sparse(10, 5, 0, 1)
    with pytest.raises(ValueError):
        gen_sparse(10, 5, 6, 1)


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
        assert sum(raw.supports.values()) == sum(len(t) for t in raw.rows())


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
    assert raw.supports == Counter(x for row in rows for x in row)
    drop_all = max(raw.supports.values(), default=0) + 1
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
    assert raw.labels == sorted(raw.supports) and to_fimi(raw) == text


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
    db, labels = prune_and_remap(raw, min(raw.supports.values()))
    assert db.cells is raw.cells and db.ends is raw.ends
    assert labels == raw.labels and db.item_count == len(labels)


def test_prune_builds_new_rows_when_an_item_or_a_row_drops():
    raw = gen_sparse(300, 30, 6, 4)
    db, labels = prune_and_remap(raw, min(raw.supports.values()) + 1)
    assert db.cells is not raw.cells and db.ends is not raw.ends
    assert len(labels) < len(raw.labels)
    with_empty = RawDatabase.from_rows([(5, 7), (), (7, 5)])
    assert with_empty.empty_rows and not raw.empty_rows
    db, labels = prune_and_remap(with_empty, 1)
    assert db.cells is not with_empty.cells and db.ends is not with_empty.ends
    assert list(db.rows()) == [(0, 1), (0, 1)] and labels == [5, 7]


@pytest.mark.parametrize("mode", list(CountMode), ids=lambda m: m.value)
def test_mining_the_shared_rows_leaves_the_raw_database_unchanged(mode):
    raw = gen_sparse(400, 25, 6, 8)
    rows, supports, fimi = list(raw.rows()), dict(raw.supports), to_fimi(raw)
    minsup = min(supports.values())
    db, _ = prune_and_remap(raw, minsup)
    assert db.cells is raw.cells
    mined = mine_mfi(build_hdr(db), MinerConfig(minsup=minsup, mode=mode))
    assert dict(mined) == dict(mine_bitmap_baseline(db, minsup))
    assert list(raw.rows()) == rows and raw.supports == supports and to_fimi(raw) == fimi


def test_databases_hold_no_tuple_per_row():
    # Each database is its flat lists and scalars: no attribute, cached
    # ones included, holds a tuple or any per-row object.
    raw = RawDatabase.from_rows([(3, 1), (2,), (), (1, 2, 3)])
    assert dict(raw.supports) == {1: 2, 2: 2, 3: 2}
    for db in (raw, prune_and_remap(raw, 1)[0], prune_and_remap(raw, 2)[0]):
        for name, value in vars(db).items():
            assert type(value) in (list, array, dict, int, bool), name
            if type(value) is list:
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
    assert raw.supports[257] == 1
    db, labels = prune_and_remap(raw, 2)
    assert db.item_count == 256 and db.cells.typecode == "B"
    assert list(db.rows()) == [tuple(range(256))] + [(r,) for r in range(256)]
    assert labels == list(range(1, 257))


@pytest.mark.parametrize("mode", list(CountMode), ids=lambda m: m.value)
def test_mining_257_items_matches_the_baseline(mode):
    raw = RawDatabase.from_rows(chain(gen_sparse(600, 257, 12, 3).rows(), distinct_labels(257).rows()))
    minsup = min(raw.supports.values())
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
    assert len(db.cells) == sum(raw.supports[label] for label in labels)
    assert sys.getsizeof(db.cells) == sys.getsizeof(array(db.cells.typecode)) + \
        db.cells.itemsize * len(db.cells)
