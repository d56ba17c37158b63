"""Tests for the forked workers of ``repro.utils.process``.

The sweep runner's pool and the service daemon's compute processes are
both made by this module; these tests pin its own contract:

* a job sent to a worker comes back as its reply;
* a reply that cannot be pickled, or a handler that raises, comes back
  as the exception that says so, and the worker goes on serving;
* no worker holds a pipe end of another worker, whichever caller forked
  it, so closing a pipe always reaches its worker;
* ``spawn_worker`` returns None when no process can be forked.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.utils import process
from repro.utils.process import serve_jobs, spawn_worker, stop_workers


def _echo(job):
    return job


def _unpicklable(_job):
    return lambda: None


def _raising(job):
    raise ValueError(f"cannot handle {job!r}")


def _started(handle):
    worker = spawn_worker(serve_jobs, (handle,))
    if worker is None:
        pytest.skip("no process can be forked here")
    return worker


def _round_trip(worker, job):
    worker.conn.send(job)
    assert worker.conn.poll(30.0), "the worker never replied"
    return worker.conn.recv()


class TestWorker:
    def test_a_job_echoes_back(self):
        worker = _started(_echo)
        try:
            assert _round_trip(worker, ("ping", 1)) == ("ping", 1)
            # The process group's Ctrl-C is the parent's to handle.
            os.kill(worker.process.pid, signal.SIGINT)
            assert _round_trip(worker, "pong") == "pong"
        finally:
            stop_workers([worker], drained=True)
        # A drained worker exits on its own once its pipe closes.
        assert worker.process.exitcode == 0

    def test_an_unpicklable_reply_comes_back_as_its_exception(self):
        worker = _started(_unpicklable)
        try:
            reply = _round_trip(worker, "job")
            assert isinstance(reply, Exception)
            assert "pickle" in str(reply)
            # The worker survived and still answers.
            assert isinstance(_round_trip(worker, "again"), Exception)
            assert worker.process.is_alive()
        finally:
            stop_workers([worker], drained=True)
        assert worker.process.exitcode == 0

    def test_a_handler_error_comes_back_as_its_exception(self):
        worker = _started(_raising)
        try:
            reply = _round_trip(worker, "job")
            assert isinstance(reply, ValueError)
            assert str(reply) == "cannot handle 'job'"
            assert worker.process.is_alive()
        finally:
            stop_workers([worker], drained=True)
        assert worker.process.exitcode == 0

    @pytest.mark.skipif(
        not os.path.isdir(f"/proc/{os.getpid()}/fd"),
        reason="reads open files from /proc",
    )
    def test_no_worker_holds_another_workers_pipe_end(self):
        # Two callers' workers, and one forked after a stopped one: a
        # later fork copies every end then open in this process.
        first = [_started(_echo), _started(_unpicklable)]
        stopped = _started(_echo)
        stop_workers([stopped], drained=True)
        workers = first + [_started(_echo)]
        try:
            ends = {
                os.fstat(worker.conn.fileno()).st_ino for worker in workers
            }
            assert len(ends) == 3
            for worker in workers:
                # Each has set itself up once it answers a job.
                _round_trip(worker, "ready")
                assert not _sockets_held(worker.process.pid) & ends
        finally:
            stop_workers(workers, drained=True)
        assert all(worker.process.exitcode == 0 for worker in workers)

    def test_spawn_worker_returns_none_when_forking_fails(self, monkeypatch):
        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        ends = set(process._ENDS)
        monkeypatch.setattr(os, "fork", no_fork)
        assert spawn_worker(serve_jobs, (_echo,)) is None
        # The pipe made for it is closed and forgotten.
        assert process._ENDS == ends


def _sockets_held(pid):
    held = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue  # closed while listed
        if target.startswith("socket:["):
            held.add(int(target[len("socket:["):-1]))
    return held
