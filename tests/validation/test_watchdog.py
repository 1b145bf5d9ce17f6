"""Watchdog tests: an engineered deadlock must diagnose, not hang."""

import signal
import time
from contextlib import contextmanager

import pytest

from repro.cluster.register_file import NEVER
from repro.core import make_config
from repro.core.processor import Processor
from repro.errors import DeadlockError, SimulationError
from repro.validation import PipelineSnapshot, PipelineWatchdog

from ..conftest import make_dyn


@contextmanager
def fail_after(seconds: int):
    """SIGALRM guard: abort the test instead of hanging the suite.

    pytest-timeout is not available in this environment, so the guard
    is hand-rolled; it only needs to catch the regression where the
    watchdog stops firing and ``run()`` spins forever.
    """
    def _handler(signum, frame):
        raise AssertionError(
            f"test exceeded {seconds}s — the watchdog failed to fire")

    previous = signal.signal(signal.SIGALRM, _handler)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _wedged_processor(deadlock_cycles: int = 64,
                      tracer=None) -> Processor:
    """A processor whose writebacks never become visible.

    Every ``set_ready`` call after construction is redirected to the
    ``NEVER`` sentinel, so the first instruction's result never wakes
    its dependents: a genuine lost-wakeup deadlock, not a cycle cap.
    """
    trace = [make_dyn(0, 0x1000, op="li", dest=1, result=7)]
    trace += [make_dyn(i, 0x1000 + 4 * i, op="add", dest=2 + (i % 4),
                       srcs=(1, 1), src_values=(7, 7), result=14)
              for i in range(1, 9)]
    processor = Processor(make_config(1, deadlock_cycles=deadlock_cycles),
                          iter(trace), tracer=tracer)
    regfile = processor.clusters[0].regfile

    # RegisterFile uses __slots__, so the method cannot be shadowed on
    # the instance; swapping __class__ to a wedged subclass (same
    # layout, empty __slots__) confines the sabotage to this regfile.
    class _WedgedRegisterFile(type(regfile)):
        __slots__ = ()

        def set_ready(self, preg, cycle):
            super().set_ready(preg, NEVER)

    regfile.__class__ = _WedgedRegisterFile
    return processor


class TestEngineeredDeadlock:
    def test_raises_deadlock_error_quickly(self):
        processor = _wedged_processor()
        start = time.monotonic()
        with fail_after(10):
            with pytest.raises(DeadlockError):
                processor.run()
        assert time.monotonic() - start < 2.0

    def test_error_carries_structured_snapshot(self):
        processor = _wedged_processor()
        with fail_after(10):
            with pytest.raises(DeadlockError) as exc_info:
                processor.run()
        error = exc_info.value
        snapshot = error.snapshot
        assert isinstance(snapshot, PipelineSnapshot)
        assert snapshot.rob_occupancy > 0
        assert snapshot.rob_head is not None
        assert snapshot.cycle - snapshot.last_commit_cycle > snapshot.budget
        assert [c.cluster_id for c in snapshot.clusters] == [0]
        assert snapshot.clusters[0].iq_int_capacity > 0
        # The snapshot is embedded in the message and in context().
        assert "pipeline snapshot" in str(error)
        assert error.context()["component"] == "watchdog"
        assert error.cycle == snapshot.cycle

    def test_deadlock_error_is_a_simulation_error(self):
        processor = _wedged_processor()
        with fail_after(10):
            with pytest.raises(SimulationError):
                processor.run()


class TestPostMortemFlightRecorder:
    """docs/ROBUSTNESS.md: with a tracer installed, the deadlock
    snapshot carries the trailing event window and per-cluster
    dispatch/issue totals at the moment of the hang."""

    def _deadlock_snapshot(self, tracer=None):
        processor = _wedged_processor(tracer=tracer)
        with fail_after(10):
            with pytest.raises(DeadlockError) as exc_info:
                processor.run()
        return exc_info.value.snapshot

    def test_snapshot_carries_trailing_events(self):
        from repro.obs import EventTracer, RingBufferSink
        snapshot = self._deadlock_snapshot(
            tracer=EventTracer(RingBufferSink()))
        assert snapshot.recent_events
        assert all("cycle" in event and "event" in event
                   for event in snapshot.recent_events)
        # The wedge dispatches everything but only the independent
        # first instruction ever retires: the window must show the
        # dispatches and no commit after that lone retirement.
        names = [event["event"] for event in snapshot.recent_events]
        assert "dispatch" in names
        assert names.count("commit") <= 1

    def test_snapshot_carries_per_cluster_occupancy(self):
        snapshot = self._deadlock_snapshot()
        assert snapshot.dispatched_per_cluster == [9]
        assert len(snapshot.issued_per_cluster) == 1

    def test_untraced_snapshot_has_empty_window(self):
        snapshot = self._deadlock_snapshot()
        assert snapshot.recent_events == []

    def test_render_includes_the_event_window(self):
        from repro.obs import EventTracer, RingBufferSink
        snapshot = self._deadlock_snapshot(
            tracer=EventTracer(RingBufferSink()))
        text = snapshot.render()
        assert "last" in text and "events" in text
        assert "dispatched/cluster" in text


class TestWatchdogUnit:
    def _snapshot_fn(self, cycle, last_commit, budget):
        return PipelineSnapshot(
            cycle=cycle, last_commit_cycle=last_commit, budget=budget,
            rob_occupancy=1, rob_size=64, rob_head="<uop>",
            rob_head_unverified=0, rob_head_min_issue=0, fetch_done=False)

    def test_quiet_within_budget(self):
        watchdog = PipelineWatchdog(10)
        watchdog.note_commit(5)
        for cycle in range(6, 16):
            watchdog.check(cycle, self._snapshot_fn)  # gap <= budget

    def test_fires_one_cycle_past_budget(self):
        watchdog = PipelineWatchdog(10)
        watchdog.note_commit(5)
        with pytest.raises(DeadlockError) as exc_info:
            watchdog.check(16, self._snapshot_fn)
        assert exc_info.value.snapshot.last_commit_cycle == 5

    def test_commit_resets_the_budget(self):
        watchdog = PipelineWatchdog(10)
        watchdog.note_commit(5)
        watchdog.note_commit(14)
        # Would have fired without the second commit:
        watchdog.check(24, self._snapshot_fn)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            PipelineWatchdog(0)

    def test_snapshot_render_mentions_key_structures(self):
        snapshot = self._snapshot_fn(100, 80, 15)
        text = snapshot.render()
        assert "cycle 100" in text
        assert "ROB 1/64" in text
        assert "bus" in text
