"""The fork helper's contract, tested directly. Every test forces the split
(conftest's forced_split) and ends with no worker left to reap."""

import contextlib
import errno
import os
import signal
import threading
import time
from array import array

import pytest

from hybridmfi import forking, gen_sparse
from hybridmfi.forking import in_two

from conftest import assert_no_child_left, forced_split, needs_fork

pytestmark = needs_fork


def worker_result(there):
    """``in_two(here, there)`` forced into two processes, with ``here``
    returning "here"; checks that one worker was forked and reaped."""
    with forced_split() as forked:
        ours, theirs = in_two(lambda: "here", there)
    assert_no_child_left()
    assert len(forked) == 1 and ours == "here"
    return theirs


def test_an_array_comes_back_with_its_typecode():
    cells = array("H", [0, 1, 7, 65535])
    theirs = worker_result(lambda: cells)
    assert type(theirs) is array and theirs.typecode == "H" and theirs == cells


def test_a_raw_database_comes_back_equal():
    raw = gen_sparse(300, 40, 6, 2)
    theirs = worker_result(lambda: raw)
    assert theirs == raw
    assert (theirs.cells.typecode, theirs.ends.typecode) == (raw.cells.typecode, raw.ends.typecode)


def test_the_workers_exception_is_raised_once_here_returns():
    done = []

    def here():
        time.sleep(0.2)  # the worker has raised by now
        done.append("here")

    def there():
        raise KeyError("injected")

    with forced_split() as forked, pytest.raises(KeyError, match="injected"):
        in_two(here, there)
    assert_no_child_left()
    assert len(forked) == 1 and done == ["here"]


def raise_local_class():
    class Local(Exception):
        pass

    raise Local("injected")


def test_an_exception_pickle_cannot_send_arrives_as_a_runtime_error():
    with forced_split() as forked, pytest.raises(RuntimeError, match=r"worker raised Local\('injected'\)"):
        in_two(lambda: None, raise_local_class)
    assert_no_child_left()
    assert len(forked) == 1


def test_when_here_raises_the_worker_is_killed_and_reaped():
    def here():
        raise ValueError("injected")

    start = time.monotonic()
    with forced_split() as forked, pytest.raises(ValueError, match="injected"):
        in_two(here, lambda: time.sleep(60))
    assert_no_child_left()
    assert len(forked) == 1 and time.monotonic() - start < 30


def test_a_worker_killed_while_it_writes_raises_runtime_error():
    # The worker's 1 MiB payload fills the pipe, so it is still writing when
    # ``here`` kills it: the caller reads a truncated payload, and the
    # worker's wait status, not the payload, tells it what happened.
    with forced_split() as forked:
        def here():
            time.sleep(0.5)
            os.kill(forked[0], signal.SIGKILL)

        with pytest.raises(RuntimeError) as exc:
            in_two(here, lambda: bytes(1 << 20))
    assert_no_child_left()
    assert str(exc.value) == \
        f"worker {forked[0]} did not exit cleanly (wait status {signal.SIGKILL})"


def test_a_worker_exiting_nonzero_raises_runtime_error():
    with forced_split() as forked, pytest.raises(RuntimeError) as exc:
        in_two(lambda: None, lambda: os._exit(3))
    assert_no_child_left()
    assert str(exc.value) == f"worker {forked[0]} did not exit cleanly (wait status {3 << 8})"


@contextlib.contextmanager
def fork_fails():
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "fork", no_fork)
        yield


@contextlib.contextmanager
def one_usable_cpu():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forking, "_usable_cpus", lambda: 1)
        yield


@contextlib.contextmanager
def a_second_thread():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


@pytest.mark.parametrize("refusal", [fork_fails, one_usable_cpu, a_second_thread],
                         ids=lambda refusal: refusal.__name__)
def test_a_refusal_returns_none_and_calls_neither_half(refusal):
    calls = []
    with forced_split() as forked, refusal():
        assert in_two(lambda: calls.append("here"), lambda: calls.append("there")) is None
    assert_no_child_left()
    assert calls == [] and forked == []
