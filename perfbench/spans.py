"""Span recorder for the benchmark's traced run.

A span is one call into a layer: name, start, end and the span open around
it (its parent). Self time is a span's duration minus the time its direct
children cover. Spans stay in memory until the run ends.

``traced`` wraps the library's public functions from outside, for the
duration of a ``with`` block, and puts every original back when the block
exits. Untraced runs import the library and never enter the block.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

# Span record fields.
NAME, START, END, PARENT, NOTE = range(5)


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        record = [name, 0.0, 0.0, parent, None]
        self.spans.append(record)
        record[START] = perf_counter()
        return record

    def end(self, record: list) -> None:
        record[END] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        record = self.begin(name)
        try:
            yield record
        finally:
            self.end(record)

    def current(self) -> list:
        return self.spans[self._open[-1]]

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def summary(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds, notes of each call]."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for record in spans:
            if record[PARENT] >= 0:
                covered[record[PARENT]] += record[END] - record[START]
        out: dict[str, list] = {}
        for i, record in enumerate(spans):
            entry = out.setdefault(record[NAME], [0, 0.0, 0.0, []])
            duration = record[END] - record[START]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - covered[i]
            if record[NOTE] is not None:
                entry[3].append(record[NOTE])
        return out


def _wrap(rec: SpanRecorder, fn, name_of, note_of=None):
    begin, end = rec.begin, rec.end

    def wrapper(*args, **kwargs):
        record = begin(name_of(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            end(record)
        if note_of is not None:
            record[NOTE] = note_of(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _fixed(name: str):
    return lambda args: name


def _tag_count_mode(rec: SpanRecorder, select_mode):
    """select_mode runs inside count_supports; rename the open count span
    after the mode it picked."""

    def wrapper(*args, **kwargs):
        mode = select_mode(*args, **kwargs)
        record = rec.current()
        if record[NAME] != "hdr.count":
            raise RuntimeError(f"select_mode called inside {record[NAME]!r}, not count_supports")
        record[NAME] = f"hdr.count_{mode.value}"
        return mode

    wrapper.__wrapped__ = select_mode
    return wrapper


def _project_name(args) -> str:
    store, parent = args[0], args[1]
    return "hdr.project_root" if len(parent.txns) == store.txn_count else "hdr.project_scan"


def _patch_plan(hybridmfi, rec: SpanRecorder):
    """(owner, attribute, wrapper factory) for every wrapped layer function.
    mine_mfi calls count_supports and project_vertical through the names
    bound in hybridmfi.miner, so those are the ones replaced."""
    miner, hdr = hybridmfi.miner, hybridmfi.hdr
    return [
        (miner, "count_supports",
         lambda fn: _wrap(rec, fn, _fixed("hdr.count"), lambda a, r: len(a[1].txns))),
        (hdr, "select_mode", lambda fn: _tag_count_mode(rec, fn)),
        (miner, "project_vertical",
         lambda fn: _wrap(rec, fn, _project_name,
                          lambda a, r: (len(a[1].txns), len(r.txns)))),
        (miner.MfiStore, "add", lambda fn: _wrap(rec, fn, _fixed("miner.store_add"))),
        (miner.MfiStore, "covers_mask",
         lambda fn: _wrap(rec, fn, _fixed("miner.store_covers"))),
        (miner.LmfiView, "project", lambda fn: _wrap(rec, fn, _fixed("miner.lmfi_project"))),
        (miner.LmfiView, "covers_mask",
         lambda fn: _wrap(rec, fn, _fixed("miner.lmfi_covers"), lambda a, r: r)),
    ]


@contextmanager
def traced(hybridmfi, rec: SpanRecorder):
    """Wrap the layer functions while the block runs. A name the plan
    expects but the library no longer defines raises LookupError before
    anything is replaced."""
    plan = _patch_plan(hybridmfi, rec)
    originals = []
    for owner, attr, _ in plan:
        if attr not in vars(owner):
            raise LookupError(
                f"{owner.__name__}.{attr} is gone; update the patch plan in perfbench/spans.py"
            )
        originals.append(vars(owner)[attr])
    try:
        for (owner, attr, make), original in zip(plan, originals):
            setattr(owner, attr, make(original))
        yield rec
    finally:
        for (owner, attr, _), original in zip(plan, originals):
            setattr(owner, attr, original)
    for (owner, attr, _), original in zip(plan, originals):
        if vars(owner)[attr] is not original:
            raise RuntimeError(f"{owner.__name__}.{attr} was not restored")
