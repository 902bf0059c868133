import csv
import subprocess
import sys

import pytest

from hybridmfi import MfiStore, cli

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


def test_mine_rejects_bad_gen_spec():
    assert cli.main(["mine", "gen:10:5:2", "--minsup", "1"]) == 2
    assert cli.main(["mine", "gen:10:5:2:a", "--minsup", "1"]) == 2


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
    assert cli.main(["oracle", str(tiny_file), "--minsup", "2",
                     "-o", str(oracle_out)]) == 0
    assert oracle_out.read_bytes() == mine_out.read_bytes()


def test_oracle_capacity_guard():
    # 30 surviving items exceeds what exhaustive enumeration accepts.
    assert cli.main(["oracle", "gen:200:30:6:1", "--minsup", "1"]) == 4


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


def test_module_entry_point(tiny_file):
    proc = subprocess.run(
        [sys.executable, "-m", "hybridmfi", "mine", str(tiny_file), "--minsup", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == TINY_MS2_OUTPUT
