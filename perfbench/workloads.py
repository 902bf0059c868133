"""Workloads of the hybridmfi benchmark and the inputs they are built from.

Every workload is a ``gen:TXNS:ITEMS:AVG:SEED`` database mined at one or more
absolute minsup thresholds. The generator is a frozen copy of
``hybridmfi.dataset.gen_sparse`` as of the commit that defined the benchmark,
so a change to the program under test can never change the benchmark's
inputs; ``test_perfbench.py`` checks that the copy still reproduces the
library's output byte for byte.
"""

from __future__ import annotations

import math
import os
import random
import sys
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"

# Span names (see spans.py) that the traced run of every workload must see
# at least once; a wrapped function that stops being called fails the run
# instead of reporting zeros.
_ALWAYS_CALLED = (
    "hdr.count_horizontal",
    "hdr.project_root",
    "hdr.project_scan",
    "miner.store_add",
    "miner.store_covers",
    "miner.lmfi_project",
    "miner.lmfi_covers",
)


@dataclass(frozen=True)
class Workload:
    name: str
    txns: int
    items: int
    avg_len: int
    minsups: tuple[int, ...]
    default_seed: int
    # SHA-256 of the canonical rendered output at ``default_seed``: the
    # outputs for each minsup in order, concatenated. Established by checking
    # that mine_mfi and mine_bitmap_baseline render identical text.
    digest: str | None
    must_call: tuple[str, ...] = _ALWAYS_CALLED

    def spec(self, seed: int) -> str:
        return f"gen:{self.txns}:{self.items}:{self.avg_len}:{seed}"

    def recorded_digest(self, seed: int) -> str | None:
        return self.digest if seed == self.default_seed else None


WORKLOADS = {
    w.name: w
    for w in (
        # The ROADMAP sparse grid point: 1M cells, every counting call picks
        # horizontal mode; loads dataset, hdr.build and the horizontal kernels.
        Workload(
            "sparse", 100_000, 1000, 10, (100,), 1,
            "dd60b52e9104050b11741ad5a84d4c0ff901ce8a1a7730d8b97d38df6d9a922e",
        ),
        # The ROADMAP dense database, at minsup 350 rather than the grid's 250:
        # almost no set-up, most counting calls pick bitmap mode, and
        # MfiStore/LMFI subsumption dominate. At 250 one pipeline takes ~25 s,
        # one sample per run, and its ten-seed spread reached 25%.
        Workload(
            "dense", 5000, 80, 25, (350,), 3,
            "32f335d5d8007c64c49b1f883c491141a422d1b17564c9c929cc5d6f3b27b3f3",
            must_call=_ALWAYS_CALLED + ("hdr.count_bitmap",),
        ),
        # One read of the sparse file, then prune/build/mine/render at three
        # falling thresholds: set-up is a large share and the search is
        # shallow, so work moved into prune or build shows here.
        Workload(
            "sweep", 100_000, 1000, 10, (3000, 1500, 750), 1,
            "a527e2bb60f324dacbc58f5ea133c55374e59bbd270b0a06d34d0d5f905660fe",
        ),
        # Not a named benchmark workload: 20 items, so the brute-force oracle
        # applies. The benchmark's own tests run it.
        Workload("smoke", 3000, 20, 8, (150,), 7, None,
                 must_call=_ALWAYS_CALLED + ("hdr.count_bitmap",)),
    )
}


def _clamped_poisson(rng: random.Random, mean: float, upper: int) -> int:
    if mean < 30:
        threshold = math.exp(-mean)
        k, p = 0, 1.0
        while True:
            k += 1
            p *= rng.random()
            if p <= threshold:
                break
        draw = k - 1
    else:
        draw = round(rng.gauss(mean, math.sqrt(mean)))
    return min(max(draw, 1), upper)


def generate_fimi(n_transactions: int, n_items: int, avg_len: int, seed: int) -> str:
    """FIMI text of the database ``gen:N:ITEMS:AVG:SEED`` names."""
    rng = random.Random(seed)
    labels = list(range(1, n_items + 1))
    cum_weights = list(accumulate((rank + 1) ** -0.6 for rank in range(n_items)))
    lines = []
    for _ in range(n_transactions):
        length = _clamped_poisson(rng, avg_len, n_items)
        chosen: set[int] = set()
        while len(chosen) < length:
            chosen.update(
                rng.choices(labels, cum_weights=cum_weights, k=length - len(chosen))
            )
        lines.append(" ".join(map(str, sorted(chosen))) + "\n")
    return "".join(lines)


def write_input(workload: Workload, seed: int) -> Path:
    """Generate the workload's database for ``seed`` into the work directory
    and return its path. Written to a temporary name first, so an
    interrupted run never leaves a truncated file behind."""
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"{workload.name}-{seed}.dat"
    partial = path.with_suffix(".partial")
    partial.write_text(
        generate_fimi(workload.txns, workload.items, workload.avg_len, seed)
    )
    os.replace(partial, path)
    return path


def import_program():
    """Import hybridmfi from this checkout's ``src``, never from anywhere
    else on the path. Raises ImportError when the checkout holds no program."""
    if not (SRC / "hybridmfi" / "__init__.py").is_file():
        raise ImportError(f"no hybridmfi package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hybridmfi

    if Path(hybridmfi.__file__).resolve().parent != SRC / "hybridmfi":
        raise ImportError(f"hybridmfi imported from {hybridmfi.__file__}, not {SRC}")
    return hybridmfi
