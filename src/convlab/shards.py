"""Run an ordered list of independent jobs in two processes when two CPUs
are usable.

run_jobs(jobs, worker) calls each job, a function of no arguments, and
returns their results in job order.  When os.fork exists, two CPUs are
usable (usable_cpus) and the process runs one thread, it forks one worker,
which runs the jobs whose indices are in worker, in order, and sends their
results back through a pipe, pickled, while this process runs the others.
Otherwise the worker's shard is empty and every job runs here, in order,
through the same loop; ``taskset -c 0`` asks for that.  The jobs must not
read each other's effects, as the worker's jobs run on a copy of this
process, and the worker's results must pickle.  pickle, signal and
traceback are imported only where a worker is forked.

A job that raises ends its shard: the jobs after it in that shard do not
run.  Of the jobs that raised, the one earliest in job order has its
exception raised, which is the exception a run of every job in one process
raises.  A worker's exception comes back with its formatted traceback as
its __cause__; one that does not pickle comes back as a RuntimeError that
carries its type, message and traceback.

The worker always ends with os._exit.  This process reads the pipe to its
end and reaps the worker on every path; on KeyboardInterrupt or an error
of its own it kills the worker with SIGKILL first.  A worker that exits
without sending its outcome is a RuntimeError naming its exit status;
where fork itself fails, every job runs here.
"""

from __future__ import annotations

import os
import sys
import threading


class RemoteTraceback(Exception):
    """The formatted traceback of a worker's exception, as its cause."""

    def __str__(self) -> str:
        return self.args[0]


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_shard(jobs, shard) -> tuple[dict, tuple | None]:
    """The results of the jobs of shard, by index, up to the first that
    raises, and (index, exception) for that one, else None."""
    results = {}
    for i in shard:
        try:
            results[i] = jobs[i]()
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _worker(jobs, shard, fd: int) -> None:
    """Run shard in the forked worker and write its outcome to fd."""
    import pickle

    results, failure = _run_shard(jobs, shard)
    if failure is not None:
        import traceback

        i, exc = failure
        tb = "".join(traceback.format_exception(exc))
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}\n{tb}")
        failure = i, exc, tb
    with open(fd, "wb") as fh:
        pickle.dump((results, failure), fh)


def _split(jobs, shard, mine) -> tuple[dict, tuple | None]:
    """Fork a worker for the jobs of shard, run mine here, and return
    every result by index with the earliest failure, as _run_shard does."""
    import pickle

    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: every job runs here
        os.close(rfd)
        os.close(wfd)
        return _run_shard(jobs, sorted(shard + mine))
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            _worker(jobs, shard, wfd)
            status = 0
        except Exception:
            import traceback

            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)
    os.close(wfd)
    try:
        with open(rfd, "rb") as fh:
            results, failure = _run_shard(jobs, mine)
            data = fh.read()
    except BaseException:
        import signal

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status != 0 or not data:
        raise RuntimeError(f"the worker exited with status {status} "
                           f"and sent {len(data)} bytes")
    theirs, their_failure = pickle.loads(data)
    results.update(theirs)
    if their_failure is not None:
        i, exc, tb = their_failure
        if failure is None or i < failure[0]:
            exc.__cause__ = RemoteTraceback(tb)
            failure = i, exc
    return results, failure


def run_jobs(jobs, worker) -> list:
    """Call every job and return the results in job order; the jobs whose
    indices are in worker run in a forked worker where two CPUs are usable.
    Raises the exception of the earliest job in order that raised."""
    order = range(len(jobs))
    if not (hasattr(os, "fork") and usable_cpus() >= 2
            and threading.active_count() == 1):
        worker = ()
    mine = [i for i in order if i not in worker]
    if len(mine) < len(jobs):
        results, failure = _split(jobs, [i for i in order if i in worker],
                                  mine)
    else:
        results, failure = _run_shard(jobs, mine)
    if failure is not None:
        raise failure[1]
    return [results[i] for i in order]
