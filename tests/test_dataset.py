import random

import pytest

from hybridmfi import (
    FimiParseError,
    RawDatabase,
    atl,
    gen_sparse,
    parse_fimi,
    prune_and_remap,
    to_fimi,
)

from conftest import TINY_DB


def test_parse_five_transactions(tiny_raw):
    assert tiny_raw.transactions == [(1, 2, 4), (3,), (1, 3, 5), (2, 3), (1, 3)]


def test_parse_empty_input():
    raw = parse_fimi("")
    assert raw.transactions == []


def test_parse_dedupes_and_sorts():
    raw = parse_fimi("7 7 2\n")
    assert raw.transactions == [(2, 7)]


def test_parse_skips_blank_lines():
    raw = parse_fimi("1 2\n\n   \n3\n")
    assert raw.transactions == [(1, 2), (3,)]


def test_parse_accepts_bytes():
    assert parse_fimi(b"1 2\n").transactions == [(1, 2)]


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
            assert parse_fimi(text).transactions == rows, byte
        elif bytes([byte]).isdigit():
            assert parse_fimi(text).transactions == [(int(text),)], byte
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
    cells = [x for txn in raw.transactions for x in txn]
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
    assert relabeled == tiny_raw.transactions


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
    # Pruning one raw database at three thresholds counts its supports on
    # the first prune only; each prune then makes its one remap pass. The
    # databases equal fresh prunes, and the cached counts are read-only.
    class Rows(list):
        passes = 0

        def __iter__(self):
            self.passes += 1
            return super().__iter__()

    raw = gen_sparse(300, 30, 6, 4)
    rows = Rows(raw.transactions)
    shared = RawDatabase(rows)
    thresholds = (1, 5, 20)
    pruned = [prune_and_remap(shared, minsup) for minsup in thresholds]
    assert rows.passes == 1 + len(thresholds)
    assert pruned == [prune_and_remap(RawDatabase(list(raw.transactions)), minsup)
                      for minsup in thresholds]
    assert shared.supports == raw.supports and rows.passes == 1 + len(thresholds)
    with pytest.raises(TypeError):
        shared.supports[1] = 0


def test_gen_sparse_deterministic():
    a = gen_sparse(200, 30, 4, 99)
    b = gen_sparse(200, 30, 4, 99)
    assert a.transactions == b.transactions
    assert to_fimi(a) == to_fimi(b)


def test_gen_sparse_zero_transactions():
    raw = gen_sparse(0, 20, 5, 1)
    assert raw.transactions == []


def test_gen_sparse_mean_length_near_target():
    raw = gen_sparse(1000, 50, 8, 7)
    assert 6.5 <= atl(raw.transactions) <= 9.5


def test_gen_sparse_lengths_in_bounds():
    raw = gen_sparse(500, 6, 4, 3)
    assert all(1 <= len(txn) <= 6 for txn in raw.transactions)


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


def test_atl_tiny_db(tiny_raw):
    assert atl(tiny_raw.transactions) == 2.2


def test_atl_empty():
    assert atl([]) == 0


def test_atl_uniform():
    assert atl([[1, 2], [1, 2]]) == 2.0


def test_fimi_roundtrip_on_parsed_databases():
    rng = random.Random(5)
    for seed in range(10):
        raw = gen_sparse(rng.randrange(1, 60), rng.randrange(2, 20), 2, seed)
        assert parse_fimi(to_fimi(raw)).transactions == raw.transactions
    assert parse_fimi(to_fimi(parse_fimi(TINY_DB))).transactions == parse_fimi(TINY_DB).transactions


def test_support_sum_equals_length_sum():
    for seed in range(10):
        raw = gen_sparse(40, 12, 3, seed)
        assert sum(raw.supports.values()) == sum(len(t) for t in raw.transactions)
