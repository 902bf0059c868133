"""Tests of the benchmark itself, on the small ``smoke`` workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

from pipeline import MINE_KERNELS, digest_of, hybridmfi, layer_metrics, render_mfi, trace
from run import Runner
from spans import SpanRecorder, traced
from workloads import BENCH_DIR, ROOT, WORKLOADS, generate_fimi

SMOKE = WORKLOADS["smoke"]

WRAPPED = [
    (hybridmfi.miner, "count_supports"),
    (hybridmfi.hdr, "select_mode"),
    (hybridmfi.miner, "project_vertical"),
    (hybridmfi.miner.MfiStore, "add"),
    (hybridmfi.miner.MfiStore, "covers_mask"),
    (hybridmfi.miner.LmfiView, "project"),
    (hybridmfi.miner.LmfiView, "covers_mask"),
]


@pytest.fixture(scope="module")
def smoke_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("smoke") / "smoke.dat"
    path.write_text(
        generate_fimi(SMOKE.txns, SMOKE.items, SMOKE.avg_len, SMOKE.default_seed)
    )
    return path


def test_generator_reproduces_library_gen_spec():
    for args in [(300, 30, 5, 4), (50, 8, 8, 0), (200, 100, 40, 9)]:
        assert generate_fimi(*args) == hybridmfi.to_fimi(hybridmfi.gen_sparse(*args))


def test_smoke_hybrid_baseline_and_oracle_agree(smoke_file):
    out = trace(SMOKE, smoke_file)
    raw = hybridmfi.read_fimi(smoke_file)
    oracle_texts = []
    for minsup in SMOKE.minsups:
        db, item_map = hybridmfi.prune_and_remap(raw, minsup)
        assert db.item_count <= hybridmfi.BRUTEFORCE_MAX_ITEMS
        fi = hybridmfi.enumerate_fi_bruteforce(db, minsup)
        oracle_texts.append(render_mfi(hybridmfi.maximal_filter(fi), item_map))
    assert out["digest"] == out["baseline_digest"] == digest_of(oracle_texts)
    assert out["metrics"]["miner.mfi_count"] > 0


def test_smoke_trace_sees_every_wrapped_function(smoke_file):
    metrics = trace(SMOKE, smoke_file)["metrics"]
    for kernel in MINE_KERNELS:
        assert metrics[kernel + "_calls"] > 0, kernel
    assert 0 < metrics["miner.hutmfi_hit_ratio"] < 1
    assert 0 < metrics["hdr.project_yield"] <= 1
    for owner, attr in WRAPPED:
        assert not hasattr(vars(owner)[attr], "__wrapped__"), f"{attr} left wrapped"


def test_traced_restores_originals_when_the_block_raises():
    originals = [vars(owner)[attr] for owner, attr in WRAPPED]
    with pytest.raises(KeyError):
        with traced(hybridmfi, SpanRecorder()):
            assert all(hasattr(vars(o)[a], "__wrapped__") for o, a in WRAPPED)
            raise KeyError("boom")
    assert [vars(owner)[attr] for owner, attr in WRAPPED] == originals


def test_missing_layer_function_fails_loudly(monkeypatch):
    monkeypatch.delattr(hybridmfi.miner.LmfiView, "project")
    original = hybridmfi.miner.count_supports
    with pytest.raises(LookupError, match="LmfiView.project"):
        with traced(hybridmfi, SpanRecorder()):
            pass
    assert hybridmfi.miner.count_supports is original


def test_required_layer_with_zero_calls_fails_loudly():
    rec = SpanRecorder()
    with rec.span("miner.mine"):
        pass
    rec.add("dataset.cells", 0)
    rec.add("dataset.items_kept", 0)
    rec.add("miner.mfi_count", 0)
    with pytest.raises(RuntimeError, match="hdr.count_bitmap"):
        layer_metrics(rec, hybridmfi.CostCounters(), hybridmfi.SearchStats(),
                      ("hdr.count_bitmap",))


def test_digest_mismatch_counts_as_failed_operation(smoke_file):
    runner = Runner(SMOKE, smoke_file, time.monotonic())
    assert runner.operation("run", "0" * 64) is not None
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "differs from reference" in runner.errors[0]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace_flag", ["0", "1"])
def test_run_prints_result_as_last_line(trace_flag):
    done = _run(ROOT, "--seconds", "1", "--trace", trace_flag)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace_flag == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in bench[key]}
    for m in bench[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = _run(tmp_path, "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
