"""Paths, child processes and their clean-up.

Everything the benchmark writes lives under ``bench/out/`` (git-ignored);
``TMPDIR`` is pointed at a per-run directory there, so the C kernel's
build directory and every cache directory stay inside the checkout and
disappear with the run.  Every child is started in its own process group
and reaped on success, failure and Ctrl-C: SIGTERM, then SIGKILL to the
whole group after ten seconds.
"""

from __future__ import annotations

import os
import pathlib
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from typing import Iterator, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = BENCH / "out"

#: Seconds a child gets between SIGTERM and SIGKILL.
GRACE_SEC = 10.0


def child_env(**extra: str) -> dict[str, str]:
    """Environment for children: ``repro`` and ``bench`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env.update(extra)
    return env


@contextmanager
def run_tmpdir() -> Iterator[pathlib.Path]:
    """A per-run temp root under ``bench/out/tmp``, exported as ``TMPDIR``."""
    base = OUT / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    path = pathlib.Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=base))
    saved = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = str(path)
    tempfile.tempdir = str(path)
    try:
        yield path
    finally:
        tempfile.tempdir = None
        if saved is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved
        shutil.rmtree(path, ignore_errors=True)


def reap(proc: subprocess.Popen) -> None:
    """Stop *proc* and whatever is left of its process group."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(GRACE_SEC)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()
    for stream in (proc.stdout, proc.stderr, proc.stdin):
        if stream is not None:
            stream.close()


@contextmanager
def spawned(cmd: Sequence[str], **popen_args) -> Iterator[subprocess.Popen]:
    """Start *cmd* in its own process group; always reaped on exit."""
    proc = subprocess.Popen(list(cmd), start_new_session=True, **popen_args)
    try:
        yield proc
    finally:
        reap(proc)


def run_child(cmd: Sequence[str], timeout: float, **popen_args) -> tuple[int, str]:
    """Run *cmd* to completion; returns (exit code, stdout text)."""
    with spawned(cmd, stdout=subprocess.PIPE, text=True, **popen_args) as proc:
        try:
            out, __ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            return -1, ""
        return proc.returncode, out


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def peak_rss_mb(children: bool) -> float:
    """Peak resident set (``ru_maxrss``) in MB.

    ``children=False``: this process, for workloads that simulate
    in-process.  ``children=True``: the largest waited-for descendant -
    the sweep driver, the service or one of their pool workers - so call
    it after they have been reaped.
    """
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    scale = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    return resource.getrusage(who).ru_maxrss / scale
