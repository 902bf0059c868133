"""Differential test: the hybrid engine, under every counting mode and
prune/reorder toggle, must render byte for byte what the bitmap
baseline and the brute-force oracle render, on generated edge shapes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hybridmfi import (
    CountMode,
    MinerConfig,
    build_hdr,
    enumerate_fi_bruteforce,
    maximal_filter,
    mine_bitmap_baseline,
    mine_mfi,
    parse_fimi,
    prune_and_remap,
)
from hybridmfi.cli import render_mfi

MAX_ITEMS = 12
MAX_ROWS = 40


@st.composite
def databases(draw):
    """(FIMI text, minsup). Rows come from a small pool, so duplicates are
    common, mixed with single-item rows; minsup is often the row count."""
    n_items = draw(st.integers(1, MAX_ITEMS))
    item = st.integers(1, n_items)
    pool = draw(st.lists(st.frozensets(item, min_size=1), min_size=1, max_size=6))
    row = st.one_of(st.sampled_from(pool), item.map(lambda x: frozenset({x})),
                    st.frozensets(item, min_size=1))
    rows = draw(st.lists(row, min_size=1, max_size=MAX_ROWS))
    minsup = draw(st.one_of(st.just(len(rows)), st.integers(1, len(rows))))
    text = "".join(" ".join(map(str, sorted(r))) + "\n" for r in rows)
    return text, minsup


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(
    case=databases(),
    mode=st.sampled_from(list(CountMode)),
    toggles=st.fixed_dictionaries({
        name: st.booleans()
        for name in ("enable_pep", "enable_fhut", "enable_hutmfi", "enable_reorder")
    }),
)
def test_three_miners_render_identically(case, mode, toggles):
    text, minsup = case
    db, item_map = prune_and_remap(parse_fimi(text), minsup)
    config = MinerConfig(minsup=minsup, mode=mode, **toggles)
    mined = mine_mfi(build_hdr(db), config)
    reference = mine_bitmap_baseline(db, minsup)
    if all(toggles.values()):
        # Same search order: same insertion order and supports.
        assert list(mined) == list(reference)
    hybrid = render_mfi(mined, item_map)
    baseline = render_mfi(reference, item_map)
    oracle = render_mfi(maximal_filter(enumerate_fi_bruteforce(db, minsup)), item_map)
    assert hybrid == baseline == oracle
