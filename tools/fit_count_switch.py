"""Fit the kernel costs behind ``hybridmfi.hdr.select_mode``.

    PYTHONPATH=src python3 tools/fit_count_switch.py

Mines four generated databases (1,000 to 100,000 transactions, sparse and
dense), keeps every k-th counting call's node, then times each kernel the
counting switch weighs on those nodes: a horizontal count of the node as a
list, a bitmap count of it as a mask (item masks built beforehand), and the
build of its mask from its list. Each timing is the best of seven, and
every node is timed in three rounds. Each kernel's coefficients, in
nanoseconds, are fitted by least squares on relative error, so small and
large nodes weigh alike. The last three lines are ``select_mode``'s
constants, to two significant digits.
"""

from __future__ import annotations

import gc
import statistics
import time

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
    """Best of ``repeat`` timings with the garbage collector off, as
    timeit takes them."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(repeat):
            started = time.perf_counter_ns()
            fn()
            best = min(best, time.perf_counter_ns() - started)
    finally:
        gc.enable()
    return best


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


def sampled_nodes(store, minsup: int, every: int) -> list[tuple[list[int], list[int]]]:
    """(transactions, tail) of every ``every``-th node the miner counts,
    leaving out nodes that hold every transaction."""
    nodes = []
    calls = 0

    def recording(store_, pdr, tail, mode=CountMode.AUTO, counters=None):
        nonlocal calls
        calls += 1
        if calls % every == 0 and len(pdr.txns) < store.txn_count:
            nodes.append((list(pdr.txns), list(tail)))
        return count_supports(store_, pdr, tail, mode, counters)

    hybridmfi.miner.count_supports = recording
    try:
        hybridmfi.miner.mine_mfi(store, MinerConfig(minsup=minsup))
    finally:
        hybridmfi.miner.count_supports = count_supports
    return nodes


def main() -> None:
    nodes = []
    for txns_n, items, avg, seed, minsup, every in DATABASES:
        db, _ = prune_and_remap(gen_sparse(txns_n, items, avg, seed), minsup)
        store = build_hdr(db)
        for y in range(store.item_count):
            store.tidmask(y)
        nodes += [(store, txns, tail) for txns, tail in sampled_nodes(store, minsup, every)]

    names = {"horizontal": ("per call", "per cell", "per tail item"),
             "bitmap": ("per call", "per tail item", "per tail item and transaction"),
             "build": ("per transaction", "per one held")}
    samples = {name: ([], []) for name in names}

    def record(name, features, ns):
        samples[name][0].append(features)
        samples[name][1].append(ns)

    # Rounds spread each node's timings over time, so no stretch of a busy
    # host skews one database alone.
    for _ in range(ROUNDS):
        for store, txns, tail in nodes:
            n, rows = store.txn_count, store.db.transactions
            cells = sum(len(rows[t]) for t in txns)
            mask = TidMask(_mask_of(txns, n), len(txns))
            record("horizontal", (1, cells, len(tail)), best_ns(
                lambda: count_supports(store, Pdr(txns, cells), tail, CountMode.HORIZONTAL)))
            record("bitmap", (1, len(tail), len(tail) * n), best_ns(
                lambda: count_supports(store, Pdr(mask), tail, CountMode.BITMAP)))
            record("build", (n, len(txns)), best_ns(lambda: _mask_of(txns, n)))

    fitted = {}
    for kernel, (features, times) in samples.items():
        fitted[kernel] = coefficients = fit(features, times)
        errors = [abs(sum(c * f for c, f in zip(coefficients, fs)) - t) / t
                  for fs, t in zip(features, times)]
        print(f"{kernel}: "
              + ", ".join(f"{c:.3g} {name}" for name, c in zip(names[kernel], coefficients))
              + f" ({len(times)} timings, {min(times) / 1e3:.3g}-{max(times) / 1e3:.3g} us,"
              f" median relative error {statistics.median(errors):.2f})")
    for kernel in names:
        constants = ", ".join(f"{c:.2g}" for c in fitted[kernel])
        print(f"_{kernel.upper()}_NS = ({constants})")

if __name__ == "__main__":
    main()
