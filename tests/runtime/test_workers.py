"""The one process pool: ``run_points(jobs > 1)`` on pipe workers.

* a worker's reply is the point's canonical text, and the disk entry is
  the worker's: the parent decodes the text and never writes the entry;
* a worker killed inside its first point is replaced and the point
  retried once — same bytes as ``jobs=1``; a second death on the same
  point raises :class:`WorkerDied`;
* a point that raises inside a worker raises the same exception type
  from ``jobs=2`` as from ``jobs=1``, with the worker's traceback
  chained as its cause;
* a point is encoded once: the worker's reply, its disk entry and a
  later disk hit are the same canonical text;
* every worker a call started is gone when it returns or raises.

The failures are forced by swapping the simulator call the runner makes:
the workers are forked from this process, so they run the swap too.
"""

import multiprocessing
import os
import signal
import traceback

import pytest

from repro.core.config import RingSystemConfig, SimulationParams, WorkloadConfig
from repro.core.errors import DeadlockError
from repro.runtime import GLOBAL_MEMCACHE, PointSpec, ResultCache, run_points, runner, workers
from repro.runtime.serialization import canonical_json, result_payload
from repro.runtime.workers import PointFailed, WorkerDied

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the forced failures ride on forked workers",
)

WORKLOAD = WorkloadConfig(locality=1.0, miss_rate=0.1, outstanding=4)
PARAMS = SimulationParams(batch_cycles=200, batches=2, seed=11)
SPECS = [
    PointSpec.of(RingSystemConfig(topology=(n,)), WORKLOAD, PARAMS) for n in (3, 4, 5, 6)
]


def _texts(results):
    return [canonical_json(result_payload(r)) for r in results]


@pytest.fixture(scope="module")
def serial():
    return _texts(run_points(SPECS, jobs=1, cache=None))


@pytest.fixture
def swap_simulate(monkeypatch):
    """``swap_simulate(before)``: the runner's simulator call runs
    ``before(system)`` first — in the workers only, never here."""
    parent = os.getpid()
    simulate = runner.simulate

    def install(before):
        def swapped(system, workload, params):
            if os.getpid() != parent:
                before(system)
            return simulate(system, workload, params)

        monkeypatch.setattr(runner, "simulate", swapped)

    return install


def _die():
    os.kill(os.getpid(), signal.SIGKILL)


def test_workers_write_the_entries_and_the_parent_only_decodes(serial, tmp_path, monkeypatch):
    """The parent never calls ``ResultCache.put`` on a pooled miss; a
    later ``jobs=1`` replay serves the workers' entries with the same
    bytes."""
    puts = []
    put = ResultCache.put

    def spy(self, spec, result):
        puts.append(os.getpid())  # a forked worker appends to its own copy
        return put(self, spec, result)

    monkeypatch.setattr(ResultCache, "put", spy)
    cache = ResultCache(tmp_path)
    assert _texts(run_points(SPECS, jobs=2, cache=cache)) == serial
    assert puts == []
    assert cache.entry_count() == len(SPECS)
    GLOBAL_MEMCACHE.clear()
    trackers = []
    replay = run_points(SPECS, jobs=1, cache=cache, progress=trackers.append)
    assert trackers[-1].cache_hits == len(SPECS) and trackers[-1].memcache_hits == 0
    assert _texts(replay) == serial


def test_a_worker_killed_in_its_first_point_is_replaced_and_the_point_retried(
    serial, swap_simulate, tmp_path
):
    marker = tmp_path / "died"

    def die_once(system):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return
        _die()

    swap_simulate(die_once)
    assert _texts(run_points(SPECS, jobs=2, cache=None)) == serial
    assert marker.exists()
    assert multiprocessing.active_children() == []


def test_a_second_death_on_the_same_point_raises_worker_died(swap_simulate):
    def kill_on_the_ring_of_five(system):
        if system == SPECS[2].system:
            _die()

    swap_simulate(kill_on_the_ring_of_five)
    with pytest.raises(WorkerDied):
        run_points(SPECS, jobs=2, cache=None)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "error",
    [DeadlockError(120, 64, "ring of five"), ValueError("bad point")],
    ids=["DeadlockError", "ValueError"],
)
def test_a_point_that_raises_raises_the_same_type_at_any_job_count(monkeypatch, error):
    simulate = runner.simulate

    def wedge(system, workload, params):
        if system == SPECS[2].system:
            raise error
        return simulate(system, workload, params)

    monkeypatch.setattr(runner, "simulate", wedge)
    for jobs in (1, 2):
        with pytest.raises(type(error)) as excinfo:
            run_points(SPECS, jobs=jobs, cache=None)
        assert str(excinfo.value) == str(error)
        assert vars(excinfo.value) == vars(error)
    assert multiprocessing.active_children() == []


def test_an_exception_that_cannot_cross_the_pipe_arrives_as_point_failed(swap_simulate):
    class Local(Exception):
        """Defined in a function: pickle cannot find it by name."""

    def raise_local(system):
        raise Local("nowhere to unpickle")

    swap_simulate(raise_local)
    with pytest.raises(PointFailed, match="Local: nowhere to unpickle"):
        run_points(SPECS, jobs=2, cache=None)
    assert multiprocessing.active_children() == []


def test_run_all_sends_points_in_the_order_given(serial):
    """One worker answers in the order it was sent; the parent's reply
    hook sees each point's own text."""
    replies = []
    workers.run_all(SPECS[::-1], 1, None, lambda index, text: replies.append((index, text)))
    assert replies == list(enumerate(serial[::-1]))


def test_a_worker_exception_carries_the_worker_traceback(monkeypatch):
    simulate = runner.simulate

    def wedge(system, workload, params):
        if system == SPECS[2].system:
            raise DeadlockError(120, 64, "ring of five")
        return simulate(system, workload, params)

    monkeypatch.setattr(runner, "simulate", wedge)
    with pytest.raises(DeadlockError) as excinfo:
        run_points(SPECS, jobs=2, cache=None)
    assert isinstance(excinfo.value.__cause__, workers.RemoteTraceback)
    formatted = "".join(traceback.format_exception(excinfo.value))
    # the frames the point raised through, in the worker
    assert "in _execute" in formatted and "in wedge" in formatted
    assert "in _answer" in formatted
    assert multiprocessing.active_children() == []


def test_a_point_is_encoded_once_and_served_as_written(serial, tmp_path):
    """The worker's reply text is the file it wrote, byte for byte, and a
    disk hit hands that file back without re-encoding it."""
    cache = ResultCache(tmp_path)
    replies = {}
    workers.run_all(SPECS, 2, cache, replies.__setitem__)
    for index, spec in enumerate(SPECS):
        written = cache.path_for(spec).read_text()
        assert replies[index] == written == serial[index]
        text, result = cache.get_entry(spec, spec.key())
        assert text == written == canonical_json(result_payload(result))
