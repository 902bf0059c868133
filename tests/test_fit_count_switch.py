"""tools/fit_count_switch.py fits the constants behind select_mode. Its
least-squares solver and its node sampler run here on small inputs, so a
change to the counting API that breaks the tool fails tier-1."""

import importlib.util
import random
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
    rows = db.transactions
    for txns, tail in nodes:
        assert 0 < len(txns) < store.txn_count and txns == sorted(set(txns))
        # Each node is timed horizontally as a list and by bitmap as a mask.
        cells = sum(len(rows[t]) for t in txns)
        mask = Pdr(TidMask(_mask_of(txns, store.txn_count), len(txns)))
        assert count_supports(store, Pdr(txns, cells), tail, CountMode.HORIZONTAL) == \
            count_supports(store, mask, tail, CountMode.BITMAP)
