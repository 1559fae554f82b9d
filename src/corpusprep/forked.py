"""Forked workers that map one function over tasks, their results read back in task order.

Worker w of W walks its own copy of the tasks and, for each block j of _BLOCK tasks with
j % W == w, writes to its own pipe an 8-byte length and a pickled (True, results), or
(False, error) if fn raised, after which it stops.  The parent reads block j from pipe
j % W: it holds one block at a time, and a pipe's capacity bounds how far ahead its worker
runs.  pretrain imports this module, and with it pickle, only for more than one worker.
"""

from __future__ import annotations

import os
import pickle
import sys
from contextlib import suppress
from itertools import groupby, islice
from typing import Callable, Iterable, Iterator

from .errors import PipelineError

_BLOCK = 32  # tasks to a block: a worker sends, and the parent holds, one block's results at once


def ordered_map(fn: Callable[[object], Iterable], tasks: Iterable, workers: int) -> Iterator:
    """Yield every item of fn(task) for each task in turn, from workers forked processes.

    fn's error is raised as it was, or if it does not survive pickling as a PipelineError
    naming its type; a worker that ends before a block it owes raises a PipelineError naming
    it.  However the stream ends, every worker is reaped first.
    """
    blocks = groupby(enumerate(tasks), lambda pair: pair[0] // _BLOCK)  # (j, block j's pairs)
    sys.stdout.flush()  # else a worker's copy of a buffered line could reach the file too
    sys.stderr.flush()
    pipes, pids = [], []
    try:
        for worker in range(workers):
            read, write = os.pipe()
            pipes.append(os.fdopen(read, "rb"))
            if (pid := os.fork()) == 0:
                _work(fn, islice(blocks, worker, None, workers), pipes, write)
            os.close(write)
            pids.append(pid)
        for j, _ in blocks:
            header = pipes[j % workers].read(8)
            size = int.from_bytes(header, "little") if len(header) == 8 else 0
            frame = pipes[j % workers].read(size)
            if not size or len(frame) < size:  # end of file before block j: its worker ended
                pid = pids.pop(j % workers)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise PipelineError(f"worker pid {pid} ended before block {j}, exit code {code}")
            ok, value = pickle.loads(frame)
            if not ok:
                raise value
            yield from value
    finally:
        for pipe in pipes:  # first, so that a worker blocked on a full pipe fails and leaves
            pipe.close()
        for pid in pids:
            with suppress(ChildProcessError):  # reaped already, as where SIGCHLD is ignored
                os.waitpid(pid, 0)


def _work(fn: Callable[[object], Iterable], own: Iterator, pipes: list, write: int) -> None:
    """Send each of a worker's blocks down write; leave by os._exit, which runs no
    finally or atexit handler of the parent's and flushes none of its files."""
    code = 1  # unless every frame went out: a write fails once the parent stops reading
    try:
        for pipe in pipes:  # the parent's read ends
            pipe.close()
        for _, block in own:
            try:
                ok, frame = True, pickle.dumps((True, [x for _, task in block for x in fn(task)]))
            except Exception as exc:  # fn's, or pickle's on what fn returned
                error = PipelineError(f"{type(exc).__name__}: {exc}")
                with suppress(Exception):  # exc itself, if it survives pickling
                    error = pickle.loads(pickle.dumps(exc))
                ok, frame = False, pickle.dumps((False, error))
            view = memoryview(len(frame).to_bytes(8, "little") + frame)
            while view:
                view = view[os.write(write, view):]
            if not ok:
                break
        code = 0
    finally:
        os._exit(code)
