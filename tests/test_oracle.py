import itertools

import pytest

from hybridmfi import (
    BRUTEFORCE_MAX_ITEMS,
    CapacityError,
    MinerConfig,
    build_hdr,
    enumerate_fi_bruteforce,
    gen_sparse,
    maximal_filter,
    mine_bitmap_baseline,
    mine_mfi,
    parse_fimi,
    prune_and_remap,
)

from conftest import label_mfi


def test_bruteforce_tiny_minsup2(tiny_raw):
    db, labels = prune_and_remap(tiny_raw, 1)
    fi = enumerate_fi_bruteforce(db, 2)
    labelled = {frozenset(labels[r] for r in ranks): s for ranks, s in fi}
    assert labelled == {
        frozenset({1}): 3,
        frozenset({2}): 2,
        frozenset({3}): 4,
        frozenset({1, 3}): 2,
    }


def test_bruteforce_no_frequent_itemsets(tiny_raw):
    db, _ = prune_and_remap(tiny_raw, 1)
    assert len(enumerate_fi_bruteforce(db, 5)) == 0


def test_bruteforce_duplicate_transactions():
    db, labels = prune_and_remap(parse_fimi("1\n1\n"), 1)
    fi = enumerate_fi_bruteforce(db, 2)
    assert {frozenset(labels[r] for r in ranks): s for ranks, s in fi} == {frozenset({1}): 2}


def test_bruteforce_item_guard():
    labels = " ".join(str(x) for x in range(1, BRUTEFORCE_MAX_ITEMS + 2))
    db, _ = prune_and_remap(parse_fimi(labels + "\n"), 1)
    with pytest.raises(CapacityError):
        enumerate_fi_bruteforce(db, 1)


def test_bruteforce_rejects_bad_minsup(tiny_raw):
    db, _ = prune_and_remap(tiny_raw, 1)
    with pytest.raises(ValueError):
        enumerate_fi_bruteforce(db, 0)


def test_bruteforce_is_downward_closed():
    for seed in range(10):
        db, _ = prune_and_remap(gen_sparse(25, 8, 3, seed), 2)
        fi = dict(enumerate_fi_bruteforce(db, 2))
        for ranks in fi:
            for k in range(1, len(ranks)):
                for sub in itertools.combinations(sorted(ranks), k):
                    assert frozenset(sub) in fi


def test_maximal_filter_tiny_db(tiny_raw):
    db, labels = prune_and_remap(tiny_raw, 1)
    mfi = maximal_filter(enumerate_fi_bruteforce(db, 2))
    assert label_mfi(mfi, labels) == {frozenset({1, 3}): 2, frozenset({2}): 2}


def test_maximal_filter_empty():
    assert len(maximal_filter([])) == 0


def test_maximal_filter_single_itemset():
    # Any iterable of pairs, read once.
    mfi = maximal_filter(iter([(frozenset({3}), 7)]))
    assert dict(mfi) == {frozenset({3}): 7}


def test_maximal_sets_cover_all_frequent_sets():
    for seed in range(10):
        minsup = seed % 2 + 1
        db, _ = prune_and_remap(gen_sparse(25, 8, 3, seed), minsup)
        fi = enumerate_fi_bruteforce(db, minsup)
        mfi = maximal_filter(fi)
        maximal = [ranks for ranks, _ in mfi]
        for ranks, _ in fi:
            assert any(ranks <= m for m in maximal)
        # and every maximal set plus its subsets reconstructs the FI set
        rebuilt = set()
        for m in maximal:
            for k in range(1, len(m) + 1):
                rebuilt.update(frozenset(c) for c in itertools.combinations(m, k))
        assert rebuilt == set(dict(fi))


def test_baseline_tiny_db(tiny_raw):
    for minsup, expected in [
        (1, {frozenset({1, 2, 4}): 1, frozenset({1, 3, 5}): 1, frozenset({2, 3}): 1}),
        (2, {frozenset({1, 3}): 2, frozenset({2}): 2}),
        (3, {frozenset({1}): 3, frozenset({3}): 4}),
    ]:
        db, labels = prune_and_remap(tiny_raw, minsup)
        mfi = mine_bitmap_baseline(db, minsup)
        assert label_mfi(mfi, labels) == expected, f"minsup {minsup}"


def test_baseline_empty_database():
    db, _ = prune_and_remap(parse_fimi("1\n"), 2)
    assert len(mine_bitmap_baseline(db, 2)) == 0


def test_baseline_agrees_with_bruteforce():
    for seed in range(30):
        minsup = seed % 3 + 1
        db, _ = prune_and_remap(gen_sparse(30, 9, 3, seed), minsup)
        got = dict(mine_bitmap_baseline(db, minsup))
        expected = dict(maximal_filter(enumerate_fi_bruteforce(db, minsup)))
        assert got == expected, f"seed {seed}"


def test_three_implementations_agree():
    for seed in range(20):
        minsup = seed % 2 + 1
        db, _ = prune_and_remap(gen_sparse(30, 9, 3, seed), minsup)
        hybrid = dict(mine_mfi(build_hdr(db), MinerConfig(minsup=minsup)))
        baseline = dict(mine_bitmap_baseline(db, minsup))
        brute = dict(maximal_filter(enumerate_fi_bruteforce(db, minsup)))
        assert hybrid == baseline == brute, f"seed {seed}"


def test_baseline_deep_search_survives_without_recursion():
    # Every row but one drops a single item, so the leftmost path descends
    # through all 1100 items before the full row closes it.
    n = 1100
    labels = range(1, n + 1)
    rows = [" ".join(str(x) for x in labels if x != j) for j in labels]
    rows.append(" ".join(str(x) for x in labels))
    db, kept = prune_and_remap(parse_fimi("\n".join(rows) + "\n"), 1)
    result = mine_bitmap_baseline(db, 1)
    assert label_mfi(result, kept) == {frozenset(labels): 1}
