"""Command-line front end: mine, oracle, bench, stats.

Exit codes: 0 success, 2 unusable input (bad path, malformed file, invalid
minsup, empty bench grid), 3 internal invariant breach (e.g. the bench
harness catching algorithms that disagree), 4 oracle capacity guard.
Mined output is canonical and byte-identical across algorithms: one itemset
per line as ascending original labels, a " (support)" suffix, lines sorted
as integer sequences.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
import time
from dataclasses import dataclass

from .dataset import (
    FimiParseError,
    ItemMap,
    RawDatabase,
    atl,
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

CSV_COLUMNS = [
    "dataset",
    "algorithm",
    "minsup_abs",
    "minsup_rel",
    "mfi_count",
    "wall_time_ms",
    "cells_touched",
    "nodes_explored",
]


class CliError(Exception):
    """Input problem an operator can fix; maps to exit code 2."""


@dataclass
class RunReport:
    """One mining run's summary; the counter fields are filled for hybrid
    runs only."""

    dataset: str
    algorithm: str
    minsup_abs: int
    minsup_rel: float
    mfi_count: int
    wall_time_ms: int
    cells_touched: int | None = None
    nodes_explored: int | None = None

    def csv_row(self) -> list:
        def opt(value):
            return "" if value is None else value

        return [
            self.dataset,
            self.algorithm,
            self.minsup_abs,
            f"{self.minsup_rel:.6g}",
            self.mfi_count,
            self.wall_time_ms,
            opt(self.cells_touched),
            opt(self.nodes_explored),
        ]

    def summary(self) -> str:
        parts = [
            f"dataset={self.dataset}",
            f"algorithm={self.algorithm}",
            f"minsup={self.minsup_abs}",
            f"mfi={self.mfi_count}",
            f"time_ms={self.wall_time_ms}",
        ]
        if self.cells_touched is not None:
            parts.append(f"cells_touched={self.cells_touched}")
        if self.nodes_explored is not None:
            parts.append(f"nodes_explored={self.nodes_explored}")
        return " ".join(parts)


_MINSUP_INTEGER = re.compile(r"[0-9]+")
_MINSUP_FRACTION = re.compile(r"[0-9]*\.[0-9]+|[0-9]+\.")


def parse_minsup(text: str) -> int | float:
    """Absolute when the token is ASCII digits, relative when it is an ASCII
    decimal fraction in (0, 1]. Anything else (a sign, a ``_`` separator,
    an exponent, surrounding space, a non-ASCII digit) is rejected."""
    if _MINSUP_INTEGER.fullmatch(text):
        try:
            value = int(text)
        except ValueError:  # beyond int()'s digit limit
            raise CliError(f"absolute minsup has too many digits: {text[:20]}...") from None
        if value < 1:
            raise CliError(f"absolute minsup must be >= 1, got {text}")
        return value
    if not _MINSUP_FRACTION.fullmatch(text):
        raise CliError(f"minsup must be an integer or a decimal fraction, got {text!r}")
    fraction = float(text)
    if not 0.0 < fraction <= 1.0:
        raise CliError(f"relative minsup must be in (0, 1], got {text}")
    return fraction


def resolve_minsup(value: int | float, n_transactions: int) -> int:
    if isinstance(value, int):
        return value
    return max(1, math.ceil(value * n_transactions))


def render_mfi(store: MfiStore, item_map: ItemMap) -> str:
    rows = []
    for ranks, support in store:
        labels = tuple(item_map.labels_of(ranks))
        rows.append((labels, support))
    rows.sort()
    return "".join(f"{' '.join(map(str, labels))} ({support})\n" for labels, support in rows)


def _now_ms() -> int:
    return time.monotonic_ns() // 1_000_000


def _load_dataset(spec: str) -> RawDatabase:
    """A dataset argument is a FIMI file path, or gen:TXNS:ITEMS:AVG:SEED for
    a synthesized database."""
    if spec.startswith("gen:"):
        fields = spec.split(":")[1:]
        if len(fields) != 4:
            raise CliError(f"generator spec must be gen:TXNS:ITEMS:AVG:SEED, got {spec!r}")
        try:
            n_txns, n_items, avg_len, seed = (int(f) for f in fields)
        except ValueError:
            raise CliError(f"generator spec fields must be integers: {spec!r}") from None
        try:
            return gen_sparse(n_txns, n_items, avg_len, seed)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    try:
        return read_fimi(spec)
    except OSError as exc:
        raise CliError(f"cannot read {spec}: {exc.strerror or exc}") from None
    except FimiParseError as exc:
        raise CliError(f"{spec}: {exc}") from None


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None


def _run_algorithm(
    algorithm: str,
    raw: RawDatabase,
    minsup_abs: int,
    mode: CountMode,
    config_flags: dict,
) -> tuple[MfiStore, ItemMap, RunReport]:
    db, item_map = prune_and_remap(raw, minsup_abs)
    n = len(raw.transactions)
    rel = minsup_abs / n if n else 0.0
    started = _now_ms()
    counters, stats = CostCounters(), SearchStats()
    if algorithm == "hybrid":
        store = build_hdr(db)
        config = MinerConfig(minsup=minsup_abs, mode=mode, **config_flags)
        result = mine_mfi(store, config, counters=counters, stats=stats)
    elif algorithm == "bitmap":
        result = mine_bitmap_baseline(db, minsup_abs)
    elif algorithm == "oracle":
        result = maximal_filter(enumerate_fi_bruteforce(db, minsup_abs))
    else:
        raise CliError(f"unknown algorithm {algorithm!r}")
    elapsed = _now_ms() - started
    report = RunReport(
        dataset="",
        algorithm=algorithm,
        minsup_abs=minsup_abs,
        minsup_rel=rel,
        mfi_count=len(result),
        wall_time_ms=elapsed,
    )
    if algorithm == "hybrid":
        report.cells_touched = counters.cells_touched
        report.nodes_explored = stats.nodes_explored
    return result, item_map, report


def _config_flags(args) -> dict:
    return {
        "enable_pep": not args.no_pep,
        "enable_fhut": not args.no_fhut,
        "enable_hutmfi": not args.no_hutmfi,
        "enable_reorder": not args.no_reorder,
    }


def _mine_one(args, algorithm: str, mode: CountMode, config_flags: dict) -> int:
    """Mine ``args.input`` once, write the rendered sets to ``args.output``
    and the run summary to stderr."""
    raw = _load_dataset(args.input)
    minsup_abs = resolve_minsup(parse_minsup(args.minsup), len(raw.transactions))
    result, item_map, report = _run_algorithm(algorithm, raw, minsup_abs, mode, config_flags)
    report.dataset = args.input
    _write_output(args.output, render_mfi(result, item_map))
    print(report.summary(), file=sys.stderr)
    return EXIT_OK


def cmd_mine(args) -> int:
    return _mine_one(args, args.algorithm, CountMode(args.mode), _config_flags(args))


def cmd_oracle(args) -> int:
    return _mine_one(args, "oracle", CountMode.AUTO, {})


def cmd_bench(args) -> int:
    algorithms = [a for a in args.algorithms.split(",") if a]
    if not algorithms:
        raise CliError("at least one algorithm is required")
    for a in algorithms:
        if a not in ("hybrid", "bitmap", "oracle"):
            raise CliError(f"unknown algorithm {a!r}")
    grid = [parse_minsup(m) for m in args.minsup]
    rows: list[list] = []
    flags = _config_flags(args)
    for dataset in args.datasets:
        raw = _load_dataset(dataset)
        for minsup in grid:
            minsup_abs = resolve_minsup(minsup, len(raw.transactions))
            outputs: dict[str, str] = {}
            for algorithm in algorithms:
                result, item_map, report = _run_algorithm(
                    algorithm, raw, minsup_abs, CountMode(args.mode), flags
                )
                report.dataset = dataset
                outputs[algorithm] = render_mfi(result, item_map)
                rows.append(report.csv_row())
            reference = algorithms[0]
            differing = [a for a in algorithms if outputs[a] != outputs[reference]]
            if differing:
                print(
                    f"error: output mismatch on {dataset} at minsup {minsup_abs}: "
                    + ", ".join(differing) + f" differ from {reference}",
                    file=sys.stderr,
                )
                return EXIT_INTERNAL
    try:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(rows)
    except OSError as exc:
        raise CliError(f"cannot write {args.csv}: {exc.strerror or exc}") from None
    print(f"wrote {len(rows)} rows to {args.csv}", file=sys.stderr)
    return EXIT_OK


def cmd_stats(args) -> int:
    raw = _load_dataset(args.input)
    lengths = [len(txn) for txn in raw.transactions]
    print(f"Items={len(raw.label_universe)}")
    print(f"Records={len(raw.transactions)}")
    print(f"Average Length={atl(raw.transactions):g}")
    print(f"Min Length={min(lengths) if lengths else 0}")
    print(f"Max Length={max(lengths) if lengths else 0}")
    return EXIT_OK


def _add_toggle_flags(parser: argparse.ArgumentParser) -> None:
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
    mine.add_argument("--algorithm", choices=["hybrid", "bitmap"], default="hybrid")
    mine.add_argument("--mode", choices=["auto", "horizontal", "bitmap"], default="auto",
                      help="counting mode for the hybrid engine")
    mine.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    _add_toggle_flags(mine)
    mine.set_defaults(func=cmd_mine)

    oracle = sub.add_parser("oracle", help="exact reference miner (small item universes)")
    oracle.add_argument("input", help="FIMI file path or gen:TXNS:ITEMS:AVG:SEED")
    oracle.add_argument("--minsup", required=True)
    oracle.add_argument("-o", "--output", default=None)
    oracle.set_defaults(func=cmd_oracle)

    bench = sub.add_parser("bench", help="time algorithms over a dataset/minsup grid")
    bench.add_argument("datasets", nargs="+",
                       help="FIMI file paths and/or gen:TXNS:ITEMS:AVG:SEED specs")
    bench.add_argument("--minsup", action="append", required=True,
                       help="grid point; repeat the flag for more")
    bench.add_argument("--algorithms", default="hybrid,bitmap",
                       help="comma-separated subset of hybrid,bitmap,oracle")
    bench.add_argument("--mode", choices=["auto", "horizontal", "bitmap"], default="auto")
    bench.add_argument("--csv", required=True, help="output CSV path")
    _add_toggle_flags(bench)
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
