import random
from array import array
from collections import Counter
from copy import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridmfi import (
    FimiParseError,
    RawDatabase,
    gen_sparse,
    parse_fimi,
    prune_and_remap,
    to_fimi,
)

from conftest import TINY_DB


def test_parse_five_transactions(tiny_raw):
    assert list(tiny_raw.rows()) == [(1, 2, 4), (3,), (1, 3, 5), (2, 3), (1, 3)]


def test_parse_empty_input():
    raw = parse_fimi("")
    assert len(raw) == 0 and raw.cells == []


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


def test_parse_shares_one_int_per_label():
    raw = parse_fimi(to_fimi(gen_sparse(500, 900, 6, 4)))
    cells = raw.cells
    assert max(cells) > 256  # above CPython's small-int cache
    assert len({id(x) for x in cells}) == len(set(cells))


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
    db, item_map = prune_and_remap(tiny_raw, 2)
    assert item_map.label_of_rank == [1, 2, 3]
    assert [tuple(item_map.label_of_rank[r] for r in txn) for txn in db.transactions] == \
        [(1, 2), (3,), (1, 3), (2, 3), (1, 3)]
    assert db.item_count == 3
    assert db.transactions == [(0, 1), (2,), (0, 2), (1, 2), (0, 2)]
    assert db.minsup == 2


def test_prune_drops_everything(tiny_raw):
    db, item_map = prune_and_remap(tiny_raw, 5)
    assert db.item_count == 0
    assert db.transactions == []
    assert item_map.label_of_rank == []


def test_prune_identity_at_minsup1(tiny_raw):
    db, item_map = prune_and_remap(tiny_raw, 1)
    assert db.item_count == 5
    assert item_map.label_of_rank == [1, 2, 3, 4, 5]
    relabeled = [tuple(item_map.label_of_rank[r] for r in txn) for txn in db.transactions]
    assert relabeled == list(tiny_raw.rows())


def test_prune_rejects_zero_minsup(tiny_raw):
    with pytest.raises(ValueError):
        prune_and_remap(tiny_raw, 0)


def test_prune_drops_emptied_transactions():
    raw = parse_fimi("1 2\n9\n1 2\n")
    db, _ = prune_and_remap(raw, 2)
    assert db.transactions == [(0, 1), (0, 1)]


def test_prune_ranks_preserve_label_order():
    raw = parse_fimi("30 7 100\n30 7 100\n")
    _, item_map = prune_and_remap(raw, 2)
    assert item_map.label_of_rank == sorted(item_map.label_of_rank)


def test_prune_supports_meet_threshold():
    for seed in range(20):
        raw = gen_sparse(30, 10, 3, seed)
        for minsup in (1, 2, 3):
            db, _ = prune_and_remap(raw, minsup)
            counts = [0] * db.item_count
            for txn in db.transactions:
                assert txn == tuple(sorted(set(txn))) and txn
                for x in txn:
                    counts[x] += 1
            assert all(c >= minsup for c in counts)


def test_prune_counts_supports_once():
    # Pruning one raw database at three thresholds counts its supports in
    # one pass over the cells, on the first prune only; each prune then
    # makes its one remap pass over the row ends, slicing rows out of the
    # cells. The databases equal fresh prunes, and the cached counts are
    # read-only.
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
    shared = RawDatabase(cells, ends)
    thresholds = (1, 5, 20)
    pruned = [prune_and_remap(shared, minsup) for minsup in thresholds]
    assert (cells.passes, ends.passes) == (1, len(thresholds))
    assert pruned == [prune_and_remap(RawDatabase(list(raw.cells), copy(raw.ends)), minsup)
                      for minsup in thresholds]
    assert shared.supports == raw.supports
    assert (cells.passes, ends.passes) == (1, len(thresholds))
    with pytest.raises(TypeError):
        shared.supports[1] = 0


def test_gen_sparse_deterministic():
    a = gen_sparse(200, 30, 4, 99)
    b = gen_sparse(200, 30, 4, 99)
    assert a == b
    assert to_fimi(a) == to_fimi(b)


def test_gen_sparse_zero_transactions():
    raw = gen_sparse(0, 20, 5, 1)
    assert len(raw) == 0 and raw.cells == []


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
    assert raw.cells == [x for row in rows for x in row]
    assert raw == RawDatabase.from_rows(rows)
    assert raw.supports == Counter(x for row in rows for x in row)
    drop_all = max(raw.supports.values(), default=0) + 1
    for threshold in (1, 2, minsup, drop_all):
        db, item_map = prune_and_remap(raw, threshold)
        expected, keep = naive_prune(rows, threshold)
        assert db.transactions == expected
        assert item_map.label_of_rank == keep and db.item_count == len(keep)
        assert db.minsup == threshold
    assert prune_and_remap(raw, drop_all)[0].transactions == []
    fimi = to_fimi(raw)
    assert fimi == "".join(" ".join(map(str, row)) + "\n" for row in rows)
    assert parse_fimi(fimi) == raw
