"""Lifetime of pool worker processes.

A process pool is shut down by its parent.  A parent killed outright
(SIGKILL, the OOM killer) never does that, and its workers would wait
on the pool's call queue for ever once their current job ends: they
are reparented, not signalled.  :func:`exit_with_parent` makes a
worker notice and exit on its own.  The sweep runner's and the
service daemon's pool initializers both start it.
"""

from __future__ import annotations

import os
import threading
import time

#: How often a worker process checks that its parent is still alive.
PARENT_POLL_S = 0.5


def exit_with_parent() -> None:
    """End the calling process once its current parent is gone.

    Starts a daemon thread that polls ``os.getppid()`` every
    :data:`PARENT_POLL_S` seconds and calls ``os._exit(1)`` when the
    parent changes, whatever the process's other threads are doing.
    Call it in a pool initializer, in the worker process.
    """
    threading.Thread(
        target=_watch, args=(os.getppid(),),
        name="repro-parent-watch", daemon=True,
    ).start()


def _watch(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_S)
    os._exit(1)
