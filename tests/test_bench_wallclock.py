"""Unit coverage for the wall-clock benchmark's reporting helpers.

The full benchmark is exercised by ``make bench-smoke`` /
``make bench-wallclock``; here we only pin what feeds
BENCH_sweep.json: the arithmetic (in particular that a degenerate,
zero-duration parallel timing yields *no* speedup figure rather than a
fake 0.0x), the provenance stamp and the worker count read from
``REPRO_JOBS``.
"""

import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH))

from bench_wallclock import rate_of, speedup_of, sweep_jobs  # noqa: E402
from repro.analysis.provenance import host_info, stamp  # noqa: E402
from repro.errors import ConfigError  # noqa: E402


def test_speedup_is_ratio():
    assert speedup_of(6.0, 3.0) == 2.0


def test_provenance_fields():
    import platform
    import re

    info = stamp()
    assert set(info) == {"commit", "timestamp_utc"} | set(host_info())
    assert info["python"] == platform.python_version()
    # ISO-8601 UTC, second resolution.
    assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z",
                        info["timestamp_utc"])
    # In this repo's checkout the commit is a short hash, possibly
    # marked dirty; outside a checkout it may legitimately be None.
    if info["commit"] is not None:
        assert re.fullmatch(r"[0-9a-f]{7,40}(-dirty)?", info["commit"])


def test_zero_parallel_time_yields_no_speedup():
    # A sub-resolution timer reading must not be reported as 0.0x
    # (which would read as "parallel infinitely slower").
    assert speedup_of(6.0, 0.0) is None
    assert speedup_of(6.0, -1.0) is None


def test_rate_guards_zero_duration():
    assert rate_of(1000, 2.0) == 500.0
    assert rate_of(1000, 0.0) is None


def test_jobs_default_to_all_cores(monkeypatch):
    import os
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert sweep_jobs() == (os.cpu_count() or 1)
    monkeypatch.setenv("REPRO_JOBS", "1")
    assert sweep_jobs() == 1


def test_malformed_jobs_is_a_named_config_error(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ConfigError,
                       match="REPRO_JOBS must be an integer job count"):
        sweep_jobs()
