"""Run a few tasks at once: the first here, each other one in a forked
worker process.

``run(count, task, name)`` calls ``task(0)`` in this process and each
later ``task(i)`` in a worker made by ``os.fork``, all at the same time,
and returns their results in task order.  A worker pickles its task's
result (or its exception) into a pipe and ends in ``os._exit``; the
result is unpickled here from the stream, so no copy of the whole
message is held.  The path engine runs its path slices through it
(``simulate._simulate``), and the sampled verdict its condition checks
(``coefficients.invariance_verdict``); each caller decides how many
tasks to make from ``usable_cpus()``.

The outcome is that of running the tasks one after another:

* the first failing task's exception, in task order, is raised with its
  type and message, or, when it does not come back whole through a
  pickle, as a ``ConeSpdeError`` naming the task;
* if the first task fails here, the workers get ``SIGKILL``;
* a task whose ``os.fork`` raises ``OSError`` runs here, and so does
  every task after it;
* a warning that ``os.fork`` issues in this process (Python 3.12 warns
  on a fork from a process with threads) is issued again once its
  worker is registered, so a warning filter that turns it into an
  error still kills and reaps every worker;
* every worker is ``waitpid``ed before ``run`` returns or raises, and
  each asks the kernel to ``SIGKILL`` it when its parent dies, so no
  worker outlives the call, even a caller that is killed.
"""

from __future__ import annotations

import os
import pickle
import warnings

from .errors import ConeSpdeError


def usable_cpus() -> int:
    """The CPUs this process may run on (``os.sched_getaffinity``, Linux);
    1 where that does not exist."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def run(count: int, task, name) -> list:
    """``[task(i) for i in range(count)]``, each ``i`` after the first in
    its own forked worker; ``name(i)`` names task ``i`` in the errors that
    stand in for its own."""
    workers = []  # (task index, pid, read end of its pipe)
    here = [0]
    parent = os.getpid()
    try:
        for i in range(1, count):
            rd, wr = os.pipe()
            try:
                # a warning os.fork issues comes after the child exists: it
                # is issued again once the child is a worker, to be reaped
                with warnings.catch_warnings(record=True) as issued:
                    warnings.simplefilter("always")
                    pid = os.fork()
            except OSError:  # no process to spare: run the rest here
                os.close(rd)
                os.close(wr)
                here += range(i, count)
                break
            if pid == 0:  # never returns; closes the read ends it inherited
                _work(task, i, name, wr, [rd, *(r for _, _, r in workers)], parent)
            os.close(wr)
            workers.append((i, pid, rd))
            for w in issued:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
        results = [None] * count
        for i in here:
            try:
                results[i] = task(i)
            except Exception:
                if i:  # a task that fell back here comes after every worker's
                    for j, _, rd in workers:
                        _receive(rd, name(j))
                raise
        for i, _, rd in workers:
            results[i] = _receive(rd, name(i))
        return results
    except BaseException:
        from signal import SIGKILL  # imported only here: it adds 0.5 ms to every start

        for _, pid, _ in workers:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for _, pid, rd in workers:
            os.close(rd)
            os.waitpid(pid, 0)


def _work(task, i: int, name, fd: int, inherited: list[int], parent: int) -> None:
    """A forked worker's whole life: tie its life to ``parent``'s, close
    the pipe ends ``inherited`` from it, run ``task(i)``, write the result
    (or the exception raised) to the pipe ``fd`` and exit, never
    returning into the caller's stack."""
    try:
        _die_with(parent)
        for other in inherited:
            os.close(other)
        try:
            payload = (True, task(i))
        except BaseException as exc:
            payload = (False, _portable(exc, name(i)))
        with open(fd, "wb") as fh:  # a dead parent ends this on a broken pipe
            pickle.dump(payload, fh, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def _die_with(parent: int) -> None:
    """Have the kernel ``SIGKILL`` this worker when ``parent``, the
    process that forked it, dies (Linux ``prctl(PR_SET_PDEATHSIG)``,
    through ``ctypes``; skipped where either is missing), and exit now
    if it already has."""
    try:
        import ctypes
        from signal import SIGKILL

        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = (ctypes.c_int, ctypes.c_ulong)
        prctl.restype = ctypes.c_int
        prctl(1, SIGKILL)  # option 1 is PR_SET_PDEATHSIG
    except (ImportError, OSError, AttributeError):
        pass
    if os.getppid() != parent:
        os._exit(0)


def _portable(exc: BaseException, name: str) -> BaseException:
    """``exc`` if it arrives through a pickle with its type and message,
    else a ``ConeSpdeError`` naming the task and both."""
    try:
        back = pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
        if type(back) is type(exc) and str(back) == str(exc):
            return exc
    except Exception:  # any failure to come back whole is reported below
        pass
    return ConeSpdeError(f"{name}: {type(exc).__name__}: {exc}")


def _receive(fd: int, name: str):
    """A worker's result, read to the end of its pipe ``fd``; a worker's
    exception is raised."""
    try:
        # unpickled from the stream, so no copy of the whole message is held
        with open(fd, "rb", closefd=False) as fh:
            ok, payload = pickle.load(fh)
    except (EOFError, pickle.UnpicklingError) as exc:
        raise ConeSpdeError(f"{name}: the worker process ended without a result") from exc
    if not ok:
        raise payload
    return payload
