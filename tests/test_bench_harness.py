"""``benchmarks/harness.py``: the timing protocol, the over-budget
policy and the check report, on a fake clock (no sleeps)."""

import gc
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402


class FakeClock:
    """``perf_counter`` stand-in: each variant call advances it by the
    next of that variant's scripted durations."""

    def __init__(self, durations):
        self.now = 0.0
        self.durations = {name: list(seconds)
                          for name, seconds in durations.items()}
        self.calls = []

    def perf_counter(self):
        return self.now

    def variant(self, name):
        def run():
            self.calls.append((name, gc.isenabled()))
            self.now += self.durations[name].pop(0)
            return name
        return run


@pytest.fixture
def clock(monkeypatch):
    def install(**durations):
        fake = FakeClock(durations)
        monkeypatch.setattr(harness.time, "perf_counter", fake.perf_counter)
        return fake
    return install


def test_interleaved_order_with_collector_paused(clock):
    fake = clock(a=[1, 1, 1], b=[1, 1, 1])
    harness.interleaved_min({"a": fake.variant("a"),
                             "b": fake.variant("b")}, 3)
    assert fake.calls == [("a", False), ("b", False)] * 3
    assert gc.isenabled()


def test_minimum_taken_per_variant(clock):
    fake = clock(a=[3.0, 1.0, 2.0], b=[0.5, 4.0, 0.7])
    best = harness.interleaved_min({"a": fake.variant("a"),
                                    "b": fake.variant("b")}, 3)
    assert best == {"a": ("a", 1.0), "b": ("b", 0.5)}


def test_timed_is_the_single_variant_case(clock):
    fake = clock(run=[2.0, 0.25])
    assert harness.timed(fake.variant("run"), 2) == ("run", 0.25)


def test_collector_reenabled_after_a_variant_raises():
    def boom():
        assert not gc.isenabled()
        raise RuntimeError("variant failed")

    with pytest.raises(RuntimeError, match="variant failed"):
        harness.interleaved_min({"boom": boom}, 2)
    assert gc.isenabled()


def test_within_budget_measures_once():
    repeats = []

    def measure(n):
        repeats.append(n)
        return 0.05

    assert harness.within_budget(measure, 3, lambda r: r, 0.10) == 0.05
    assert repeats == [3]


@pytest.mark.parametrize("retry, kept", [(0.04, 0.04), (0.30, 0.20)])
def test_within_budget_remeasures_once_at_doubled_repeats(retry, kept):
    readings = iter([0.20, retry])
    repeats = []

    def measure(n):
        repeats.append(n)
        return next(readings)

    assert harness.within_budget(measure, 3, lambda r: r, 0.10) == kept
    assert repeats == [3, 6]


def test_report_exit_code(capsys):
    assert harness.report([("fast", True, "1.0s"), ("same", True, "")],
                          "demo") == 0
    out = capsys.readouterr().out
    assert "ok  fast  1.0s" in out and "all demo checks passed" in out
    assert harness.report([("fast", True, ""), ("same", False, "drift")],
                          "demo") == 1
    out = capsys.readouterr().out
    assert "FAIL same  drift" in out and "1 demo check(s) failed" in out
