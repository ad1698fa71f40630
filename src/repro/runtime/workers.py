"""The one process pool: point workers, each on its own pipe.

Two thin drivers run the same workers: :func:`run_all`, synchronous,
behind :func:`repro.runtime.run_points` with ``jobs > 1``, and the
service's asyncio shards (:mod:`repro.service.shards`).

A worker gets a pickled :class:`PointSpec` (``None`` or EOF: exit), runs
it, writes its disk entry when it has a disk tier, and replies
``(True, canonical_text)`` or ``(False, exc, traceback_text)`` with what
the point raised (a :class:`PointFailed` naming it if it cannot cross
the pipe) and the worker's formatted traceback, which :func:`unwrap`
raises in the parent with the traceback chained as its ``__cause__``.
The parent never encodes a result nor writes a disk entry for a point a
worker ran.  EOF on a worker's pipe means it died (``kill -9``, the OOM
killer, a crash in the C kernel): the driver starts its successor and
sends the point once more; a second death on the same point raises
:class:`WorkerDied`.

Workers are forked where the platform has ``fork``, from a parent that
already holds what they will run (``runner._load_simulator``).  A worker
first closes every descriptor it inherited but stdio and its own pipe:
one forked lazily or as a replacement would otherwise hold the service's
listening socket, client connections and the other workers' pipes, and
a client whose connection the service closed would see no EOF.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
from collections import deque
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .cache import prime_code_version_salt
from .runner import _execute
from .serialization import canonical_json, result_payload

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

    from .cache import ResultCache
    from .spec import PointSpec

_CTX = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)


class WorkerDied(RuntimeError):
    """A worker exited while it held a point (twice: it was retried once)."""


class PointFailed(RuntimeError):
    """The point raised an exception that cannot cross the pipe; the
    message names it."""


class RemoteTraceback(Exception):
    """The traceback of a point's exception in its worker, as text; the
    ``__cause__`` of the exception :func:`unwrap` raises."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _answer(spec: PointSpec, cache: ResultCache | None) -> str:
    """Run one point in a worker; write its disk entry; return its text."""
    result = _execute(spec)
    if cache is not None:
        return cache.put(spec, result)
    return canonical_json(result_payload(result))


def _portable(exc: Exception) -> Exception:
    """*exc* if it survives pickling, else a :class:`PointFailed` naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return PointFailed(f"{type(exc).__name__}: {exc}")
    return exc


def _close_inherited(keep: int) -> None:
    """Close every descriptor but stdio and *keep*."""
    for low, high in ((3, keep), (max(keep + 1, 3), os.sysconf("SC_OPEN_MAX"))):
        if low < high:  # an empty range can close every descriptor
            os.closerange(low, high)


def _serve(conn: Connection, salt: str | None, cache: ResultCache | None) -> None:
    """Worker main loop: one point per request until ``None`` or EOF."""
    # The parent supervises this process.  A forked worker inherits the
    # parent's signal wakeup fd, through which a signal delivered here
    # would run the *parent's* handlers; Ctrl-C reaches the whole
    # process group, and the parent stops its workers itself.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _close_inherited(conn.fileno())
    if salt is not None:
        prime_code_version_salt(salt)
    while True:
        try:
            spec = conn.recv()
        except EOFError:
            return
        if spec is None:
            return
        reply: tuple[Any, ...]
        try:
            reply = (True, _answer(spec, cache))
        except Exception as exc:  # the point's own failure goes back to raise
            import traceback  # only a failing point pays for the module

            reply = (False, _portable(exc), traceback.format_exc())
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            return


class Worker:
    """One worker slot: its process and the parent's end of its pipe,
    both ``None`` before :meth:`start` and after :meth:`stop`."""

    __slots__ = ("process", "conn")

    def __init__(self) -> None:
        self.process: BaseProcess | None = None
        self.conn: Connection | None = None

    def start(self, salt: str | None, cache: ResultCache | None) -> None:
        parent_end, child_end = _CTX.Pipe(duplex=True)
        process = _CTX.Process(target=_serve, args=(child_end, salt, cache), daemon=True)
        process.start()
        # Closed here right away, so EOF on ``parent_end`` means "this
        # worker is gone".
        child_end.close()
        self.process, self.conn = process, parent_end

    def send(self, request: PointSpec | None) -> None:
        """Send *request*; a worker that died idle answers it with EOF."""
        assert self.conn is not None
        try:
            self.conn.send(request)
        except OSError:
            pass

    def receive(self) -> tuple[Any, ...] | None:
        """Read one reply: ``(True, text)`` or ``(False, exc, traceback)``;
        ``None`` when the worker died instead of answering."""
        assert self.conn is not None
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            return None

    def stop(self) -> None:
        """Kill the process, busy or not, reap it and close the pipe."""
        assert self.process is not None and self.conn is not None
        self.conn.close()
        self.process.kill()
        self.process.join()
        self.process = self.conn = None


def unwrap(outcome: tuple[Any, ...] | None) -> str:
    """The point's canonical text, or raise what the point raised, its
    worker traceback chained as a :class:`RemoteTraceback` (or
    :class:`WorkerDied` for a worker that died running it)."""
    if outcome is None:
        raise WorkerDied("a worker died running the point")
    if not outcome[0]:
        __, exc, remote = outcome
        raise exc from RemoteTraceback(remote)
    text: str = outcome[1]
    return text


def run_all(
    specs: Sequence[PointSpec],
    jobs: int,
    cache: ResultCache | None,
    on_reply: Callable[[int, str], None],
) -> None:
    """Run *specs* on ``min(jobs, len(specs))`` fresh workers.

    Points are sent in the order given, each to the next idle worker,
    and ``on_reply(index, text)`` is called as each reply arrives.  A
    point whose worker dies goes first to that worker's successor; a
    second death raises :class:`WorkerDied`, and a point's own exception
    is raised here.  Every worker started is killed and reaped before
    this returns or raises.
    """
    salt = cache.salt if cache is not None else None
    todo = deque(range(len(specs)))
    workers = [Worker() for __ in range(min(jobs, len(specs)))]
    busy: dict[Connection, tuple[Worker, int]] = {}
    died: set[int] = set()
    try:
        for worker in workers:
            worker.start(salt, cache)
        idle = list(workers)
        while todo or busy:
            while todo and idle:
                worker, index = idle.pop(), todo.popleft()
                worker.send(specs[index])
                busy[worker.conn] = (worker, index)  # type: ignore[index]
            for conn in wait(list(busy)):
                worker, index = busy.pop(conn)  # type: ignore[index]
                outcome = worker.receive()
                if outcome is None and index not in died:
                    died.add(index)
                    worker.stop()
                    worker.start(salt, cache)
                    todo.appendleft(index)
                else:
                    on_reply(index, unwrap(outcome))
                idle.append(worker)
    finally:
        for worker in workers:
            if worker.process is not None:
                worker.stop()
