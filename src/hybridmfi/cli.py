"""Command-line front end: mine, bench, stats.

``mine --algorithm`` and ``bench --algorithms`` pick among the miners in
``MINERS``: the hybrid engine, the bitmap baseline and the brute-force
oracle. Exit codes: 0 success, 2 unusable input (bad path, malformed file,
invalid minsup, empty bench grid), 3 internal invariant breach (e.g. the
bench harness catching algorithms that disagree), 4 oracle capacity guard.
Mined output is canonical and byte-identical across algorithms: one itemset
per line as ascending original labels, a " (support)" suffix, lines sorted
as integer sequences.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import re
import sys
import time
from dataclasses import astuple, dataclass, fields
from fractions import Fraction
from itertools import chain
from operator import sub

from .dataset import (
    FimiParseError,
    RawDatabase,
    TransactionDatabase,
    gen_sparse,
    prune_and_remap,
    read_fimi,
)
from .hdr import CostCounters, CountMode, build_hdr
from .miner import MfiStore, MinerConfig, SearchStats, mine_mfi
from .oracle import CapacityError, enumerate_fi_bruteforce, maximal_filter, mine_bitmap_baseline

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_GUARD = 4


class CliError(ValueError):
    """Input problem an operator can fix; maps to exit code 2, as does any
    ValueError the library raises on bad input."""


@dataclass
class RunReport:
    """One mining run. Its fields, in order, are the bench CSV row, with
    ``minsup_rel`` as text; the counters are None for the miners other than
    hybrid, a blank cell and no entry in the stderr summary."""

    dataset: str
    algorithm: str
    minsup_abs: int
    minsup_rel: str
    mfi_count: int
    wall_time_ms: int
    cells_touched: int | None
    nodes_explored: int | None

    def summary(self) -> str:
        parts = []
        for name in CSV_COLUMNS:
            key, value = _SUMMARY_KEYS.get(name, name), getattr(self, name)
            if key is not None and value is not None:
                parts.append(f"{key}={value}")
        return " ".join(parts)


CSV_COLUMNS = [field.name for field in fields(RunReport)]
# The stderr summary's key for each field it renames; minsup_rel is CSV only.
_SUMMARY_KEYS = {"minsup_abs": "minsup", "minsup_rel": None, "mfi_count": "mfi",
                 "wall_time_ms": "time_ms"}


_INTEGER = re.compile(r"[0-9]+")
_MINSUP_FRACTION = re.compile(r"[0-9]*\.[0-9]+|[0-9]+\.")


def _count(text: str, what: str) -> int | None:
    """The count ``text`` writes in ASCII digits, or None if it is not one:
    int() would also take a sign, a ``_`` separator, surrounding space and
    non-ASCII digits. Past int()'s digit limit, a CliError naming ``what``."""
    if not _INTEGER.fullmatch(text):
        return None
    try:
        return int(text)
    except ValueError:  # beyond int()'s digit limit
        raise CliError(f"{what} has too many digits: {text[:20]}...") from None


def parse_minsup(text: str) -> int | Fraction:
    """Absolute when the token is ASCII digits, relative when it is an ASCII
    decimal fraction in (0, 1], held exactly, so that resolving it against a
    row count does not round up a product like 0.28 * 25. Anything else (a
    sign, a ``_`` separator, an exponent, surrounding space, a non-ASCII
    digit) is rejected."""
    value = _count(text, "absolute minsup")
    if value is not None:
        if value < 1:
            raise CliError(f"absolute minsup must be >= 1, got {text}")
        return value
    if not _MINSUP_FRACTION.fullmatch(text):
        raise CliError(f"minsup must be an integer or a decimal fraction, got {text!r}")
    try:
        fraction = Fraction(text)
    except ValueError:  # beyond int()'s digit limit
        raise CliError(f"relative minsup has too many digits: {text[:20]}...") from None
    if not 0 < fraction <= 1:
        raise CliError(f"relative minsup must be in (0, 1], got {text}")
    return fraction


def resolve_minsup(value: int | Fraction, n_transactions: int) -> int:
    if isinstance(value, int):
        return value
    return max(1, math.ceil(value * n_transactions))


def render_mfi(store: MfiStore, labels: list[int]) -> str:
    """The canonical text of a mined store; ``labels[r]`` is rank r's label.
    Ranks ascend with labels, so a set's ascending ranks name its labels in
    order, and sorting the sets by rank tuple sorts them as label sequences."""
    name = list(map(str, labels)).__getitem__
    return "".join([f"{' '.join(map(name, ranks))} ({support})\n"
                    for ranks, support in sorted(store.rank_tuples())])


def _now_ms() -> int:
    return time.monotonic_ns() // 1_000_000


def _load_dataset(spec: str) -> RawDatabase:
    """A dataset argument is a FIMI file path, or gen:TXNS:ITEMS:AVG:SEED for
    a synthesized database."""
    if spec.startswith("gen:"):
        fields = spec.split(":")[1:]
        if len(fields) != 4:
            raise CliError(f"generator spec must be gen:TXNS:ITEMS:AVG:SEED, got {spec!r}")
        counts = [_count(field, "generator spec field") for field in fields]
        if None in counts:
            raise CliError(f"generator spec fields must be ASCII digits: {spec!r}")
        return gen_sparse(*counts)
    try:
        return read_fimi(spec)
    except OSError as exc:
        raise CliError(f"cannot read {spec}: {exc.strerror or exc}") from None
    except FimiParseError as exc:
        raise CliError(f"{spec}: {exc}") from None


def _write_output(path: str | None, text: str) -> None:
    """Write ``text`` to stdout or, no newline translated, to ``path``."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None


def _mine_hybrid(db: TransactionDatabase, minsup: int, args):
    counters, stats = CostCounters(), SearchStats()
    config = MinerConfig(
        minsup=minsup,
        mode=CountMode(args.mode),
        enable_pep=not args.no_pep,
        enable_fhut=not args.no_fhut,
        enable_hutmfi=not args.no_hutmfi,
        enable_reorder=not args.no_reorder,
    )
    result = mine_mfi(build_hdr(db), config, counters=counters, stats=stats)
    return result, counters.cells_touched, stats.nodes_explored


# Each algorithm mines a pruned database at a minsup, reading the engine
# flags from the parsed arguments, and returns (maximal sets, cells_touched,
# nodes_explored); the counters are the hybrid engine's alone. Module names
# are looked up at call time, so a test can stand in for a miner.
MINERS = {
    "hybrid": _mine_hybrid,
    "bitmap": lambda db, minsup, args: (mine_bitmap_baseline(db, minsup), None, None),
    "oracle": lambda db, minsup, args: (
        maximal_filter(enumerate_fi_bruteforce(db, minsup)), None, None),
}


def _run_algorithms(args, algorithms: list[str], dataset: str,
                    pruned: tuple[TransactionDatabase, list[int]],
                    n_transactions: int) -> list[tuple[str, RunReport]]:
    """Mine a database pruned at the run's minsup with each algorithm in
    turn: (rendered maximal sets, report) per algorithm. ``n_transactions``
    is the raw database's row count, which the relative minsup is reported
    against. The timed span is the store build and the mine for hybrid, the
    mine alone otherwise."""
    db, labels = pruned
    minsup_abs = db.minsup
    rel = f"{minsup_abs / n_transactions if n_transactions else 0.0:.6g}"
    runs = []
    for algorithm in algorithms:
        started = _now_ms()
        result, cells, nodes = MINERS[algorithm](db, minsup_abs, args)
        elapsed = _now_ms() - started
        report = RunReport(dataset, algorithm, minsup_abs, rel, len(result), elapsed, cells, nodes)
        runs.append((render_mfi(result, labels), report))
    return runs


def cmd_mine(args) -> int:
    raw = _load_dataset(args.input)
    n = len(raw)
    pruned = prune_and_remap(raw, resolve_minsup(parse_minsup(args.minsup), n))
    del raw  # not read again: free before the mine what the pruned rows do not share
    text, report = _run_algorithms(args, [args.algorithm], args.input, pruned, n)[0]
    _write_output(args.output, text)
    print(report.summary(), file=sys.stderr)
    return EXIT_OK


def cmd_bench(args) -> int:
    algorithms = [a for a in args.algorithms.split(",") if a]
    if not algorithms:
        raise CliError("at least one algorithm is required")
    for a in algorithms:
        if a not in MINERS:
            raise CliError(f"unknown algorithm {a!r}")
    grid = [parse_minsup(m) for m in args.minsup]
    reports: list[RunReport] = []
    for dataset in args.datasets:
        raw = _load_dataset(dataset)
        n = len(raw)
        for minsup in grid:
            minsup_abs = resolve_minsup(minsup, n)
            runs = _run_algorithms(args, algorithms, dataset, prune_and_remap(raw, minsup_abs), n)
            reports.extend(report for _, report in runs)
            reference = runs[0][0]
            differing = [a for a, (text, _) in zip(algorithms, runs) if text != reference]
            if differing:
                print(
                    f"error: output mismatch on {dataset} at minsup {minsup_abs}: "
                    + ", ".join(differing) + f" differ from {algorithms[0]}",
                    file=sys.stderr,
                )
                return EXIT_INTERNAL
    table = io.StringIO()
    csv.writer(table).writerows([CSV_COLUMNS, *map(astuple, reports)])
    _write_output(args.csv, table.getvalue())
    print(f"wrote {len(reports)} rows to {args.csv}", file=sys.stderr)
    return EXIT_OK


def cmd_stats(args) -> int:
    raw = _load_dataset(args.input)
    # Row lengths from the row ends: no label tuple is made per row.
    n, ends = len(raw), raw.ends
    lengths = list(map(sub, ends, chain((0,), ends)))
    print(f"Items={len(raw.labels)}")
    print(f"Records={n}")
    print(f"Average Length={sum(lengths) / n if n else 0:g}")
    print(f"Min Length={min(lengths) if lengths else 0}")
    print(f"Max Length={max(lengths) if lengths else 0}")
    return EXIT_OK


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=[mode.value for mode in CountMode], default="auto",
                        help="counting mode for the hybrid engine")
    parser.add_argument("--no-pep", action="store_true",
                        help="disable equal-support absorption into the head")
    parser.add_argument("--no-fhut", action="store_true",
                        help="disable the leftmost look-ahead prune")
    parser.add_argument("--no-hutmfi", action="store_true",
                        help="disable subsumption pruning against known maximal sets")
    parser.add_argument("--no-reorder", action="store_true",
                        help="keep tails in inherited order instead of ascending support")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridmfi",
        description="Maximal frequent itemset mining over a hybrid store of "
        "per-transaction rank arrays and per-item transaction bitmasks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine maximal frequent itemsets")
    mine.add_argument("input", help="FIMI file path or gen:TXNS:ITEMS:AVG:SEED")
    mine.add_argument("--minsup", required=True,
                      help="absolute integer >= 1, or relative fraction in (0, 1]")
    mine.add_argument("--algorithm", choices=list(MINERS), default="hybrid",
                      help="oracle is exact, for small item universes only")
    mine.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    _add_engine_flags(mine)
    mine.set_defaults(func=cmd_mine)

    bench = sub.add_parser("bench", help="time algorithms over a dataset/minsup grid")
    bench.add_argument("datasets", nargs="+",
                       help="FIMI file paths and/or gen:TXNS:ITEMS:AVG:SEED specs")
    bench.add_argument("--minsup", action="append", required=True,
                       help="grid point; repeat the flag for more")
    bench.add_argument("--algorithms", default="hybrid,bitmap",
                       help="comma-separated subset of " + ",".join(MINERS))
    bench.add_argument("--csv", required=True, help="output CSV path")
    _add_engine_flags(bench)
    bench.set_defaults(func=cmd_bench)

    stats = sub.add_parser("stats", help="describe a dataset")
    stats.add_argument("input", help="FIMI file path or gen:TXNS:ITEMS:AVG:SEED")
    stats.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal error: invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
