"""Fit the kernel costs behind ``hybridmfi.hdr.select_mode``.

    PYTHONPATH=src python3 tools/fit_count_switch.py

Mines four generated databases (1,000 to 100,000 transactions, sparse and
dense), keeps every k-th counting call's node, then times each kernel the
counting switch weighs on those nodes: a horizontal count of the node as a
sequence (the item array of a root child, the delivered list of a deeper
node, a list of a mask node's transactions), a bitmap count of it as a mask
(item masks built beforehand), and the build of its mask from its
sequence. Each timing is the best of seven, and every node is timed in
three rounds. Each kernel's coefficients, in nanoseconds, are fitted by
least squares on relative error, so small and large nodes weigh alike: once
on the timings of all rounds, printed with its median relative error, and
once on each round alone, whose lowest and highest value is printed beside
each pooled coefficient, so the drift of a busy host between rounds shows
within one run. The last three lines are ``select_mode``'s constants, from
the pooled fit, to two significant digits.
"""

from __future__ import annotations

import statistics
import timeit
from typing import Sequence

import hybridmfi.miner
from hybridmfi import CountMode, MinerConfig, Pdr, TidMask, build_hdr, gen_sparse, prune_and_remap
from hybridmfi.hdr import _mask_of, count_supports

# (transactions, items, average length, seed, minsup, keep every k-th node)
DATABASES = (
    (1_000, 40, 8, 5, 8, 20),
    (5_000, 80, 25, 3, 350, 100),
    (20_000, 1000, 10, 2, 20, 20),
    (100_000, 1000, 10, 1, 100, 20),
)
ROUNDS = 3


def best_ns(fn, repeat: int = 7) -> float:
    """Best of ``repeat`` single-call timings in ns; timeit turns the
    garbage collector off while it times."""
    return min(timeit.repeat(fn, number=1, repeat=repeat)) * 1e9


def fit(features: list[tuple[float, ...]], times: list[float]) -> list[float]:
    """Coefficients c minimising sum(((c . f) - t) / t)^2: the normal
    equations, solved by Gaussian elimination."""
    k = len(features[0])
    rows = [[0.0] * (k + 1) for _ in range(k)]
    for f, t in zip(features, times):
        for i in range(k):
            rows[i][k] += f[i] / t
            for j in range(k):
                rows[i][j] += f[i] * f[j] / (t * t)
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(k):
            if r != col:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][k] / rows[i][i] for i in range(k)]


def sampled_nodes(store, minsup: int, every: int) -> list[tuple[Sequence[int], list[int]]]:
    """(transactions, tail) of every ``every``-th node the miner counts,
    leaving out nodes that hold every transaction. A node's transactions
    are its own sequence, or a mask node's as a list."""
    nodes = []
    calls = 0

    def recording(store_, pdr, tail, mode=CountMode.AUTO, counters=None):
        nonlocal calls
        calls += 1
        if calls % every == 0 and len(pdr.txns) < store.txn_count:
            txns = pdr.txns
            nodes.append((list(txns) if isinstance(txns, TidMask) else txns, list(tail)))
        return count_supports(store_, pdr, tail, mode, counters)

    hybridmfi.miner.count_supports = recording
    try:
        hybridmfi.miner.mine_mfi(store, MinerConfig(minsup=minsup))
    finally:
        hybridmfi.miner.count_supports = count_supports
    return nodes


NAMES = {"horizontal": ("per call", "per cell", "per tail item"),
         "bitmap": ("per call", "per tail item", "per tail item and transaction"),
         "build": ("per transaction", "per one held")}


def time_round(nodes) -> dict[str, tuple[list, list]]:
    """One round: each kernel's (features, best-of-7 timings in ns) on
    every (store, transactions, tail) node."""
    samples = {name: ([], []) for name in NAMES}

    def record(name, features, ns):
        samples[name][0].append(features)
        samples[name][1].append(ns)

    for store, txns, tail in nodes:
        n = store.txn_count
        cells = sum(map(store.row_cells.__getitem__, txns))
        mask = TidMask(_mask_of(txns, n))
        record("horizontal", (1, cells, len(tail)), best_ns(
            lambda: count_supports(store, Pdr(txns), tail, CountMode.HORIZONTAL)))
        record("bitmap", (1, len(tail), len(tail) * n), best_ns(
            lambda: count_supports(store, Pdr(mask), tail, CountMode.BITMAP)))
        record("build", (n, len(txns)), best_ns(lambda: _mask_of(txns, n)))
    return samples


def report(rounds: list[dict[str, tuple[list, list]]]) -> list[str]:
    """One line per kernel: the coefficients fitted to every round's
    timings, each with its range over fits to one round alone; then the
    pooled fit as select_mode's constants."""
    lines, pooled = [], {}
    for kernel, names in NAMES.items():
        features = [f for samples in rounds for f in samples[kernel][0]]
        times = [t for samples in rounds for t in samples[kernel][1]]
        pooled[kernel] = coefficients = fit(features, times)
        per_round = [fit(*samples[kernel]) for samples in rounds]
        errors = [abs(sum(c * f for c, f in zip(coefficients, fs)) - t) / t
                  for fs, t in zip(features, times)]
        terms = [f"{c:.3g} {name} (rounds {min(r):.3g}-{max(r):.3g})"
                 for name, c, r in zip(names, coefficients, zip(*per_round))]
        lines.append(f"{kernel}: " + ", ".join(terms)
                     + f" ({len(times)} timings, {min(times) / 1e3:.3g}-{max(times) / 1e3:.3g} us,"
                     f" median relative error {statistics.median(errors):.2f})")
    for kernel in NAMES:
        constants = ", ".join(f"{c:.2g}" for c in pooled[kernel])
        lines.append(f"_{kernel.upper()}_NS = ({constants})")
    return lines


def main() -> None:
    nodes = []
    for txns_n, items, avg, seed, minsup, every in DATABASES:
        db, _ = prune_and_remap(gen_sparse(txns_n, items, avg, seed), minsup)
        store = build_hdr(db)
        for y in range(store.item_count):
            store.tidmask(y)
        nodes += [(store, txns, tail) for txns, tail in sampled_nodes(store, minsup, every)]
    # Rounds spread each node's timings over time, so no stretch of a busy
    # host skews one database alone.
    print("\n".join(report([time_round(nodes) for _ in range(ROUNDS)])))


if __name__ == "__main__":
    main()
