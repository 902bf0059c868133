import argparse
import csv
import gc
import os
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridmfi import ItemMap, MfiStore, cli, parse_fimi, prune_and_remap

from conftest import TINY_DB

TINY_MS2_OUTPUT = "1 3 (2)\n2 (2)\n"


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_mine_to_file(tiny_file, tmp_path):
    out = tmp_path / "mfi.txt"
    code = cli.main(["mine", str(tiny_file), "--minsup", "2", "-o", str(out)])
    assert code == 0
    assert out.read_text() == TINY_MS2_OUTPUT


def test_mine_to_stdout(tiny_file, capsys):
    assert cli.main(["mine", str(tiny_file), "--minsup", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == TINY_MS2_OUTPUT
    assert "mfi=2" in captured.err


def test_mine_relative_minsup_matches_absolute(tiny_file, capsys):
    assert cli.main(["mine", str(tiny_file), "--minsup", "0.4"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["mine", str(tiny_file), "--minsup", "2"]) == 0
    assert capsys.readouterr().out == first


def test_mine_no_frequent_items_writes_empty_file(tiny_file, tmp_path):
    out = tmp_path / "empty.txt"
    assert cli.main(["mine", str(tiny_file), "--minsup", "6", "-o", str(out)]) == 0
    assert out.read_text() == ""


def test_mine_bitmap_algorithm_same_output(tiny_file, capsys):
    assert cli.main(["mine", str(tiny_file), "--minsup", "2",
                     "--algorithm", "bitmap"]) == 0
    assert capsys.readouterr().out == TINY_MS2_OUTPUT


def test_mine_generated_dataset(capsys):
    assert cli.main(["mine", "gen:40:10:3:7", "--minsup", "2"]) == 0
    out = capsys.readouterr().out
    assert out.endswith(")\n")


def test_mine_missing_file():
    assert cli.main(["mine", "/no/such/file.dat", "--minsup", "2"]) == 2


# int() and float() would accept every case from "1_000" on; only ASCII
# digits and one ASCII decimal point make a minsup.
@pytest.mark.parametrize("bad", [
    "0", "-1", "1.5", "abc", "0.0", "1_000", "+3", "0.2_5", "5e-1", "nan",
    pytest.param("\u0663", id="arabic_indic"),
    pytest.param("\u0660.\u0665", id="arabic_indic_fraction"),
    pytest.param(" 3", id="leading_space"),
    pytest.param("3\n", id="trailing_newline"),
    pytest.param("9" * 5000, id="too_many_digits"),
    pytest.param("0." + "5" * 5000, id="fraction_too_many_digits"),
])
def test_mine_rejects_bad_minsup(tiny_file, bad):
    assert cli.main(["mine", str(tiny_file), "--minsup", bad]) == 2


def test_mine_rejects_malformed_file(tmp_path):
    bad = tmp_path / "bad.dat"
    bad.write_text("1 x 3\n")
    assert cli.main(["mine", str(bad), "--minsup", "1"]) == 2


@pytest.mark.parametrize(
    "token", ["1_000", "+3", "\u0663", "-0", "1\u00a02", "1\u20282", "1\x1c2", "1\x852"],
    ids=["underscore", "plus", "arabic_indic", "minus_zero",
         "nbsp", "line_separator", "file_separator", "next_line"],
)
def test_mine_rejects_non_decimal_label(tmp_path, capsys, token):
    bad = tmp_path / "bad.dat"
    bad.write_text(f"1 2\n3 {token}\n", encoding="utf-8")
    assert cli.main(["mine", str(bad), "--minsup", "1"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_mine_rejects_bad_gen_spec(capsys):
    assert cli.main(["mine", "gen:10:5:2", "--minsup", "1"]) == 2
    assert cli.main(["mine", "gen:10:5:2:a", "--minsup", "1"]) == 2
    capsys.readouterr()
    # The generator's own ValueError reaches the operator as it is.
    assert cli.main(["mine", "gen:10:0:1:1", "--minsup", "1"]) == 2
    assert capsys.readouterr().err == "error: n_items must be >= 1, got 0\n"


# int() would take every one of these fields; a gen: field is ASCII digits
# only, as a minsup is.
@pytest.mark.parametrize("spec", [
    "gen:1_000:10:3:1", "gen:+5:10:3:1", "gen:10:5:2:-1",
    pytest.param("gen:\u0663:10:3:1", id="gen:arabic_indic:10:3:1"),
    pytest.param("gen: 5:10:3:1", id="gen:leading_space:10:3:1"),
])
def test_mine_rejects_non_decimal_gen_field(capsys, spec):
    assert cli.main(["mine", spec, "--minsup", "1"]) == 2
    assert "ASCII digits" in capsys.readouterr().err


def test_mine_counters_go_to_stderr(tiny_file, capsys):
    assert cli.main(["mine", str(tiny_file), "--minsup", "2"]) == 0
    err = capsys.readouterr().err
    keys = [part.split("=")[0] for part in err.split()]
    assert keys == ["dataset", "algorithm", "minsup", "mfi", "time_ms",
                    "cells_touched", "nodes_explored"]


def test_mine_toggle_flags_accepted(tiny_file, capsys):
    assert cli.main(["mine", str(tiny_file), "--minsup", "2", "--no-pep",
                     "--no-fhut", "--no-hutmfi", "--no-reorder"]) == 0
    assert capsys.readouterr().out == TINY_MS2_OUTPUT


def test_oracle_matches_mine(tiny_file, tmp_path):
    mine_out = tmp_path / "mine.txt"
    oracle_out = tmp_path / "oracle.txt"
    assert cli.main(["mine", str(tiny_file), "--minsup", "2",
                     "-o", str(mine_out)]) == 0
    assert cli.main(["mine", str(tiny_file), "--minsup", "2", "--algorithm", "oracle",
                     "-o", str(oracle_out)]) == 0
    assert oracle_out.read_bytes() == mine_out.read_bytes()


def test_oracle_capacity_guard():
    # 30 surviving items exceeds what exhaustive enumeration accepts.
    assert cli.main(["mine", "gen:200:30:6:1", "--minsup", "1",
                     "--algorithm", "oracle"]) == 4


def test_oracle_is_no_subcommand(tiny_file, capsys):
    assert cli.main(["oracle", str(tiny_file), "--minsup", "2"]) == 2
    capsys.readouterr()


def test_mine_and_bench_accept_the_same_algorithms(tiny_file, tmp_path, capsys):
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    choices = next(a.choices for a in commands.choices["mine"]._actions if a.dest == "algorithm")
    assert choices == list(cli.MINERS) == ["hybrid", "bitmap", "oracle"]
    for algorithm in choices:
        assert cli.main(["bench", str(tiny_file), "--minsup", "2", "--algorithms", algorithm,
                         "--csv", str(tmp_path / "x.csv")]) == 0
    assert cli.main(["mine", str(tiny_file), "--minsup", "2", "--algorithm", "quantum"]) == 2
    assert cli.main(["bench", str(tiny_file), "--minsup", "2", "--algorithms", "quantum",
                     "--csv", str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()


def test_bench_prunes_once_per_grid_point(tiny_file, tmp_path, monkeypatch):
    calls = []

    def counting_prune(raw, minsup):
        calls.append(minsup)
        return prune_and_remap(raw, minsup)

    monkeypatch.setattr(cli, "prune_and_remap", counting_prune)
    assert cli.main(["bench", str(tiny_file), "--minsup", "2", "--minsup", "3",
                     "--algorithms", "hybrid,bitmap,oracle", "--csv", str(tmp_path / "x.csv")]) == 0
    assert calls == [2, 3]


def test_bench_happy_path(tiny_file, tmp_path):
    out = tmp_path / "bench.csv"
    code = cli.main(["bench", str(tiny_file), "--minsup", "2", "--minsup", "3",
                     "--csv", str(out)])
    assert code == 0
    rows = read_csv(str(out))
    assert rows[0] == cli.CSV_COLUMNS
    body = rows[1:]
    assert len(body) == 4
    assert [r[1] for r in body] == ["hybrid", "bitmap", "hybrid", "bitmap"]
    assert [r[2] for r in body] == ["2", "2", "3", "3"]
    assert all(r[4] == "2" for r in body)


def test_bench_counters_fill_hybrid_rows_only(tiny_file, tmp_path):
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", str(tiny_file), "--minsup", "2", "--csv", str(out)]) == 0
    header, *body = read_csv(str(out))
    cells = header.index("cells_touched")
    nodes = header.index("nodes_explored")
    by_algo = {r[1]: r for r in body}
    assert by_algo["hybrid"][cells].isdigit()
    assert by_algo["hybrid"][nodes].isdigit()
    assert by_algo["bitmap"][cells] == ""
    assert by_algo["bitmap"][nodes] == ""


def test_bench_generated_dataset_is_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["bench", "gen:60:12:4:3", "--minsup", "2", "--csv"]
    assert cli.main(argv + [str(first)]) == 0
    assert cli.main(argv + [str(second)]) == 0
    counts = lambda path: [r[4] for r in read_csv(str(path))[1:]]
    assert counts(first) == counts(second)


def test_bench_oracle_algorithm(tiny_file, tmp_path):
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", str(tiny_file), "--minsup", "2", "--csv", str(out),
                     "--algorithms", "hybrid,bitmap,oracle"]) == 0
    body = read_csv(str(out))[1:]
    assert [r[1] for r in body] == ["hybrid", "bitmap", "oracle"]


def test_bench_requires_minsup(tiny_file, tmp_path, capsys):
    code = cli.main(["bench", str(tiny_file), "--csv", str(tmp_path / "x.csv")])
    capsys.readouterr()
    assert code == 2


def test_bench_rejects_unknown_algorithm(tiny_file, tmp_path):
    assert cli.main(["bench", str(tiny_file), "--minsup", "2",
                     "--csv", str(tmp_path / "x.csv"),
                     "--algorithms", "hybrid,quantum"]) == 2


def test_bench_disagreement_aborts_without_csv(tiny_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "mine_bitmap_baseline", lambda db, minsup: MfiStore(0))
    out = tmp_path / "bench.csv"
    code = cli.main(["bench", str(tiny_file), "--minsup", "2", "--csv", str(out)])
    assert code == 3
    assert "mismatch" in capsys.readouterr().err
    assert not out.exists()


def test_bench_same_count_different_sets_aborts(tiny_file, tmp_path, monkeypatch, capsys):
    # Two maximal sets, as the real miners find, but the wrong two.
    def wrong_sets(db, minsup):
        store = MfiStore(db.item_count)
        store.add(0b001, 2)
        store.add(0b010, 2)
        return store

    monkeypatch.setattr(cli, "mine_bitmap_baseline", wrong_sets)
    out = tmp_path / "bench.csv"
    code = cli.main(["bench", str(tiny_file), "--minsup", "2", "--csv", str(out)])
    assert code == 3
    assert "mismatch" in capsys.readouterr().err
    assert not out.exists()


def test_stats_tiny_db(tiny_file, capsys):
    assert cli.main(["stats", str(tiny_file)]) == 0
    out = capsys.readouterr().out
    assert "Items=5" in out
    assert "Records=5" in out
    assert "Average Length=2.2" in out
    assert "Min Length=1" in out
    assert "Max Length=3" in out


def test_stats_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.dat"
    empty.write_text("")
    assert cli.main(["stats", str(empty)]) == 0
    out = capsys.readouterr().out
    assert "Items=0" in out
    assert "Records=0" in out
    assert "Average Length=0" in out


def test_stats_parse_error(tmp_path):
    bad = tmp_path / "bad.dat"
    bad.write_text("3 -1\n")
    assert cli.main(["stats", str(bad)]) == 2


def test_parse_minsup_roundtrip():
    assert cli.parse_minsup("3") == 3
    assert cli.parse_minsup("0.25") == 0.25
    assert cli.parse_minsup("007") == 7
    assert cli.parse_minsup(".5") == 0.5
    assert cli.parse_minsup("1.") == 1.0
    assert cli.resolve_minsup(0.25, 10) == 3
    assert cli.resolve_minsup(0.001, 10) == 1
    assert cli.resolve_minsup(4, 10) == 4


def test_relative_minsup_resolves_exactly(tmp_path, capsys):
    # 0.28 * 25 is 7.000000000000001 in floating point, whose ceiling is 8.
    assert cli.resolve_minsup(cli.parse_minsup("0.28"), 25) == 7
    assert cli.resolve_minsup(cli.parse_minsup("0.14"), 50) == 7
    rows = tmp_path / "rows25.dat"
    rows.write_text("1 2\n" * 7 + "1\n" * 18)
    assert cli.main(["mine", str(rows), "--minsup", "0.28"]) == 0
    out, err = capsys.readouterr()
    assert "minsup=7" in err.split()
    assert out == "1 2 (7)\n"


def test_module_entry_point(tiny_file):
    proc = subprocess.run(
        [sys.executable, "-m", "hybridmfi", "mine", str(tiny_file), "--minsup", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == TINY_MS2_OUTPUT


def test_mine_frees_the_raw_database_before_mining(monkeypatch):
    # The raw rows are read only by the prune; the mine must not keep them.
    refs, alive = [], []

    def load(spec):
        raw = parse_fimi(TINY_DB)
        refs.append(weakref.ref(raw))
        return raw

    def probe(db, minsup, args):
        gc.collect()
        alive.append(refs[0]() is not None)
        return cli.MINERS["bitmap"](db, minsup, args)

    monkeypatch.setattr(cli, "_load_dataset", load)
    monkeypatch.setitem(cli.MINERS, "probe", probe)
    argv = ["mine", "tiny", "--minsup", "2", "--algorithm", "probe", "-o", os.devnull]
    assert cli.main(argv) == 0
    assert alive == [False]


@st.composite
def labelled_stores(draw):
    """(MfiStore, ItemMap, {label set: support}) for a drawn antichain over
    drawn ascending labels, small and up to 32 bits wide, so that sorting
    the rendered lines as text and as integers differ."""
    n_items = draw(st.integers(1, 12))
    labels = sorted(draw(st.sets(st.one_of(st.integers(0, 20), st.integers(0, 2**32 - 1)),
                                 min_size=n_items, max_size=n_items)))
    drawn = draw(st.lists(st.frozensets(st.integers(0, n_items - 1), min_size=1), max_size=15))
    antichain = list(dict.fromkeys(s for s in drawn if not any(s < t for t in drawn)))
    store, expected = MfiStore(n_items), {}
    for ranks in antichain:
        support = draw(st.integers(1, 10**6))
        assert store.add(sum(1 << r for r in ranks), support)
        expected[frozenset(labels[r] for r in ranks)] = support
    return store, ItemMap(labels), expected


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=labelled_stores())
def test_render_parses_back_to_the_store(case):
    # Independent of the miners: the rendered lines read back as the
    # store's sets in labels with their supports, and come strictly sorted
    # as integer sequences.
    store, item_map, expected = case
    text = cli.render_mfi(store, item_map)
    assert text.endswith("\n") or not text
    parsed = []
    for line in text.splitlines():
        body, _, support = line.rpartition(" (")
        assert support.endswith(")")
        labels = tuple(map(int, body.split(" ")))
        assert list(labels) == sorted(set(labels))
        parsed.append((labels, int(support[:-1])))
    assert {frozenset(labels): support for labels, support in parsed} == expected
    assert len(parsed) == len(expected)
    keys = [labels for labels, _ in parsed]
    assert all(a < b for a, b in zip(keys, keys[1:]))
