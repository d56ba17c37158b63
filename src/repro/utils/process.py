"""Forked worker processes, fed jobs over a pipe.

The sweep runner's workers and the service daemon's compute processes
are both made here.  :func:`spawn_worker` forks a process that runs a
caller's loop on its main thread, reached over its own pipe;
:func:`serve_jobs` is that loop (one reply per job), and
:func:`stop_workers` ends a set of workers.  End of file on a pipe
tells the parent that its worker died, and the worker that its parent
closed the pipe.

A worker ignores SIGINT and SIGTERM, so a signal to the whole process
group (Ctrl-C) reaches only the parent, which decides when it stops.
It is not daemonic, so it may fork workers of its own.  A parent killed
outright closes nothing: :func:`exit_with_parent` makes each worker
exit on its own once its parent is gone.

End of file arrives only once every copy of the other end is closed,
and a fork copies every descriptor of the forking process.  So one
lock serializes every fork made here, and each new worker closes every
pipe end of this module open in the process it was forked from,
whichever pool or server it belongs to.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.util
import os
import signal
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Iterable, Optional, Set, Tuple

#: How often a worker process checks that its parent is still alive.
PARENT_POLL_S = 0.5

#: Held across every fork made here, and whenever :data:`_ENDS` changes.
#: Reentrant: a garbage-collected worker's finalizer may close its pipe
#: on a thread that is forking.
_LOCK = threading.RLock()
#: Every pipe end this process holds for its workers and, in a worker,
#: the one to its parent.  A new worker closes all of them.
_ENDS: Set[Connection] = set()


@dataclass(frozen=True)
class Worker:
    """One worker process and the parent's end of its pipe."""

    process: BaseProcess
    conn: Connection


def spawn_worker(
    serve: Callable[..., None], args: Tuple[Any, ...] = ()
) -> Optional[Worker]:
    """Fork a worker running ``serve(conn, *args)`` on its main thread,
    ``conn`` being its end of the pipe; None when no process can be
    started (no ``fork``, no file descriptors, a sandbox, a daemonic
    caller).  ``args`` reach it through the fork, unpickled.  Should the
    parent's interpreter exit without stopping it, its pipe closes
    before ``multiprocessing`` joins its children, so it ends.
    """
    with _LOCK:
        try:
            context = multiprocessing.get_context("fork")
            conn, child_conn = context.Pipe()
        except (OSError, ValueError):
            return None
        _ENDS.add(conn)
        try:
            process = context.Process(
                target=_run, args=(serve, child_conn, args)
            )
            process.start()
        except Exception:  # noqa: BLE001 - degrade to no worker
            _close(conn)
            return None
        finally:
            child_conn.close()
    worker = Worker(process, conn)
    multiprocessing.util.Finalize(worker, _close, args=(conn,), exitpriority=0)
    return worker


def serve_jobs(conn: Connection, handle: Callable[[Any], Any]) -> None:
    """A worker's loop: send back ``handle(job)`` for each job the
    parent sends on ``conn``, until the parent closes the pipe.

    A job whose handler raises, or whose reply cannot be pickled, is
    answered with the exception that says so.
    """
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return  # the parent closed the pipe
        try:
            reply = handle(job)
        except Exception as exc:  # noqa: BLE001 - the parent reports it
            reply = exc
        try:
            conn.send(reply)
        except OSError:
            return  # the parent is gone
        except Exception as exc:  # noqa: BLE001 - a reply that cannot pickle
            conn.send(exc)


def stop_workers(workers: Iterable[Worker], drained: bool) -> None:
    """End ``workers`` and wait until they have exited.

    A drained worker, one with no job in flight, exits when its pipe
    closes; any other is killed, since it ignores SIGTERM.
    """
    workers = list(workers)
    for worker in workers:
        if drained:
            _close(worker.conn)
        else:
            worker.process.kill()
    for worker in workers:
        worker.process.join()
        _close(worker.conn)


def exit_with_parent() -> None:
    """End the calling process once its current parent is gone.

    Starts a daemon thread that polls ``os.getppid()`` every
    :data:`PARENT_POLL_S` seconds and calls ``os._exit(1)`` when the
    parent changes, whatever the process's other threads are doing.
    Every worker :func:`spawn_worker` forks starts it.
    """
    threading.Thread(
        target=_watch, args=(os.getppid(),),
        name="repro-parent-watch", daemon=True,
    ).start()


def _watch(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_S)
    os._exit(1)


def _close(conn: Connection) -> None:
    # Under the lock: a fork between the discard and the close would
    # copy an end that no worker knows to close.
    with _LOCK:
        _ENDS.discard(conn)
        conn.close()


def _run(
    serve: Callable[..., None], conn: Connection, args: Tuple[Any, ...]
) -> None:
    """A new worker's first steps, then ``serve(conn, *args)``."""
    global _LOCK, _ENDS
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    for end in _ENDS:
        end.close()
    # The fork copied the lock as the forking thread held it.
    _LOCK = threading.RLock()
    _ENDS = {conn}
    exit_with_parent()
    serve(conn, *args)
