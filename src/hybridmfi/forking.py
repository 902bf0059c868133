"""One job run as two halves in two processes.

``in_two`` forks one worker, which runs one half and sends its result back
over a pipe with pickle, while the calling process runs the other half and
then decodes the worker's result as it streams in, so it never holds the
result's bytes and its value at once. The worker's whole life is in this
module: no worker outlives the call, an exception either half raises is
raised in the caller, and where no worker can be forked the caller is told
so and runs the job in one process. Four stages use it, each on a large
enough input: ``read_fimi`` reads a file in two halves of its bytes,
``prune_and_remap`` and ``build_hdr`` work on two halves of the rows, and
``mine_mfi`` mines two halves of the root's children.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Callable, NoReturn


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def in_two(here: Callable[[], object], there: Callable[[], object]) -> tuple | None:
    """``(here(), there())``, with ``there`` called in a forked worker while
    this process calls ``here``. ``there`` returns any value pickle can
    send, which is decoded as it arrives. None, with neither called, where
    ``os.fork`` is missing, fewer than two CPUs are usable, another thread
    runs or the fork fails. If ``here`` raises, the worker is killed and
    reaped; if ``there`` raises, its exception is raised here once ``here``
    returns. A worker killed by a signal or exiting nonzero raises
    RuntimeError, whatever it sent."""
    if not (hasattr(os, "fork") and threading.active_count() == 1 and _usable_cpus() >= 2):
        return None
    import pickle  # here, not at the top: a run that never forks never loads it
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # e.g. EAGAIN at the process limit
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        _worker(there, read_end, write_end)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            ours = here()
            try:
                # Decoded as it arrives, so the payload's bytes and its
                # value are never both held.
                ok, theirs = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError) as exc:
                ok, theirs = False, exc  # cut short: the wait status says why
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if status:
        raise RuntimeError(f"worker {pid} did not exit cleanly (wait status {status})")
    if not ok:
        raise theirs
    return ours, theirs


def _worker(there: Callable[[], object], read_end: int, write_end: int) -> NoReturn:
    """The forked worker's whole life: call ``there``, send ``(True, its
    result)`` or ``(False, its exception)`` over the pipe, and exit without
    returning into the caller's code or flushing its inherited buffers,
    with status 0 only once the whole payload is written. An exception that
    pickle cannot send is sent as a RuntimeError carrying its repr."""
    import pickle  # already loaded by in_two before the fork
    status = 1
    try:
        os.close(read_end)
        try:
            payload = pickle.dumps((True, there()))
        except BaseException as exc:
            try:
                payload = pickle.dumps((False, exc))
            except Exception:
                payload = pickle.dumps((False, RuntimeError(f"worker raised {exc!r}")))
        with open(write_end, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def exit_if_orphaned(parent: int) -> None:
    """End this worker if ``parent``, the process that forked it, is gone:
    nobody is left to read its result."""
    if os.getppid() != parent:
        os._exit(1)
