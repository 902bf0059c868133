"""tools/fit_count_switch.py fits the constants behind select_mode. Its
least-squares solver and its node sampler run here on small inputs, so a
change to the counting API that breaks the tool fails tier-1."""

import importlib.util
import random
from array import array
from pathlib import Path

import pytest

import hybridmfi.miner
from hybridmfi import CountMode, Pdr, TidMask, build_hdr, count_supports, gen_sparse, prune_and_remap
from hybridmfi.hdr import _mask_of

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fit_count_switch.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("fit_count_switch", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fit_recovers_exact_coefficients():
    tool = load_tool()
    rng = random.Random(3)
    for truth in ((1.7e3, 33.0, 200.0), (1.6e3, 150.0, 0.083), (3.1, 41.0)):
        features = [(1.0,) + tuple(rng.uniform(1, 1e5) for _ in truth[1:])
                    for _ in range(40)]
        times = [sum(c * f for c, f in zip(truth, fs)) for fs in features]
        assert tool.fit(features, times) == pytest.approx(truth, rel=1e-9)


def test_sampled_nodes_runs_on_a_tiny_database():
    tool = load_tool()
    db, _ = prune_and_remap(gen_sparse(200, 20, 5, 0), 3)
    store = build_hdr(db)
    nodes = tool.sampled_nodes(store, 3, 2)
    assert nodes
    assert hybridmfi.miner.count_supports is count_supports
    rows = list(db.rows())
    for txns, tail in nodes:
        assert 0 < len(txns) < store.txn_count and list(txns) == sorted(set(txns))
        # Each node is timed horizontally as a list and by bitmap as a mask;
        # both return the same supports and the same children, but for the
        # masks of children below the prune minsup, which are dropped.
        mask = Pdr(TidMask(_mask_of(txns, store.txn_count)))
        horizontal = count_supports(store, Pdr(txns), tail, CountMode.HORIZONTAL)
        bitmap = count_supports(store, mask, tail, CountMode.BITMAP)
        assert [(y, s) for y, s, _ in horizontal] == [(y, s) for y, s, _ in bitmap]
        for (y, _, child), (_, _, child_mask) in zip(horizontal, bitmap):
            assert child == [t for t in txns if y in rows[t]]
            assert child_mask == (_mask_of(child, store.txn_count)
                                  if len(child) >= db.minsup else None)


def test_report_gives_each_round_fit_beside_the_pooled_fit():
    # Two tiny databases, so the bitmap and build features are not
    # collinear; root children are timed as the store's item arrays.
    tool = load_tool()
    nodes = []
    for txns_n, seed in ((200, 0), (300, 1)):
        db, _ = prune_and_remap(gen_sparse(txns_n, 20, 5, seed), 3)
        store = build_hdr(db)
        nodes += [(store, txns, tail) for txns, tail in tool.sampled_nodes(store, 3, 2)]
    assert any(type(txns) is array for _, txns, _ in nodes)
    rounds = [tool.time_round(nodes) for _ in range(2)]
    lines = tool.report(rounds)
    assert len(lines) == 2 * len(tool.NAMES)
    for line, (kernel, names) in zip(lines, tool.NAMES.items()):
        features, times = (rounds[0][kernel][i] + rounds[1][kernel][i] for i in (0, 1))
        pooled = tool.fit(features, times)
        per_round = [tool.fit(*samples[kernel]) for samples in rounds]
        assert line.startswith(f"{kernel}: ") and f"({2 * len(nodes)} timings," in line
        for name, c, fitted in zip(names, pooled, zip(*per_round)):
            assert f"{c:.3g} {name} (rounds {min(fitted):.3g}-{max(fitted):.3g})" in line
        constants = ", ".join(f"{c:.2g}" for c in pooled)
        assert f"_{kernel.upper()}_NS = ({constants})" in lines[len(tool.NAMES):]
